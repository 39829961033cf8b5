"""Oracle properties of the backend contract's pow and of Mono.apply.

The oracle multiplies out one factor at a time: x^n is the |n|-fold product
of x (or of x^-1 when n < 0), and a homomorphism applied to x is that fold
over the images of the generators in domain.decompose(x).
"""

import pytest
from hypothesis import given, settings, strategies as st

from gogroups import gogio
from gogroups.backends import AbelianGroup, FreeGroup, SubgroupBackend
from gogroups.cli import _load_immersion
from gogroups.words import wreduce

from test_backends_finite import sym3
from test_golden import GOGS, PAIRS, _path


def fold_pow(G, x, n):
    acc = G.identity()
    for _ in range(abs(n)):
        acc = G.mul(acc, x if n >= 0 else G.inv(x))
    return acc


def fold_word(G, items, word):
    acc = G.identity()
    for i, e in word:
        acc = G.mul(acc, fold_pow(G, items[i], e))
    return acc


def elements(G):
    """Elements of the backend G; a SubgroupBackend's are products of its
    generators, so they lie in the subgroup."""
    if isinstance(G, SubgroupBackend):
        gens = G.generators()
        if not gens:
            return st.just(G.identity())
        word = st.lists(st.tuples(st.integers(0, len(gens) - 1), st.integers(-3, 3)),
                        max_size=4)
        return word.map(lambda w: fold_word(G, gens, w))
    if G.kind == "finite":
        return st.integers(0, G.order() - 1)
    if G.kind == "abelian":
        return st.lists(st.integers(-9, 9), min_size=G.n, max_size=G.n).map(
            lambda v: G.canon(tuple(v)))
    if G.rank == 0:
        return st.just(())
    letters = [s for i in range(1, G.rank + 1) for s in (i, -i)]
    return st.lists(st.sampled_from(letters), max_size=10).map(wreduce)


F2 = FreeGroup(2)
TORSION = AbelianGroup(1, [2, 6])
GROUPS = {
    "abelian-torsion": TORSION,
    "S3": sym3(),
    "free-rank-1": FreeGroup(1),
    "free-rank-2": F2,
    "sub-of-free": SubgroupBackend(F2, F2.subgroup([(1, 2), (2, 2, -1)])),
    "sub-of-abelian": SubgroupBackend(TORSION, TORSION.subgroup([(2, 1, 3), (0, 1, 2)])),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(-30, 30))
def test_pow_is_the_fold_of_mul(name, data, n):
    G = GROUPS[name]
    x = data.draw(elements(G))
    assert G.pow(x, n) == fold_pow(G, x, n)


def _monos():
    """{label: monos} for the edge maps of every sample gog and, for the
    immersions of the golden pullbacks, the edge and vertex maps of their
    source gogs, whose groups are SubgroupBackends."""
    out = {}
    for g in GOGS + ["inputs/modular"]:
        A, _ = gogio.parse_gog(gogio.load(_path(g)))
        out[g] = [m for pair in A.monos for m in pair]
    for g, first, second, _ in PAIRS:
        A, base = gogio.parse_gog(gogio.load(_path(g)))
        for imm in (first, second):
            m, _ = _load_immersion(_path(imm), A, base)
            out[imm] = [mono for pair in m.source.monos for mono in pair] + m.vmonos
    return out


MONOS = _monos()


@pytest.mark.parametrize("label", sorted(MONOS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mono_apply_is_the_fold_over_decompose(label, data):
    mono = data.draw(st.sampled_from(MONOS[label]))
    x = data.draw(elements(mono.domain))
    expect = fold_word(mono.codomain, mono.images, mono.domain.decompose(x))
    assert mono.codomain.eq(mono.apply(x), expect)
