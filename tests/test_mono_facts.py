"""The facts a Mono keeps.  is_injective() asks the backend at most once per
Mono, composites of injective Monos and inverses of isomorphisms never ask
it, and the abelian rank test (a torsion-free domain into an abelian
codomain is embedded exactly when the image lattice has rank n + rank(L0))
agrees with the kernel test it replaced.  The HNF counts of loading, taking
the core of and reducing a 100-vertex GBS tree are pinned as upper bounds.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from gogroups import gogio, intlattice
from gogroups.backends import AbelianGroup, FiniteGroup, FreeGroup, Mono, SubgroupBackend
from gogroups.gog import gog_core, reduce_gog
from gogroups.intlattice import preimage_lattice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOG_FILES = [os.path.join(ROOT, "samples", n + ".json")
             for n in ("bs_1_2", "bs_2_3", "double_f2_cubes", "double_f2_squares",
                       "klein_amalgam", "rose2", "zsquared_hnn")] + \
            [os.path.join(ROOT, "tests", "golden", "inputs", n + ".json")
             for n in ("gbs_collapse", "gbs_pendant", "modular", "zsquared_skew",
                       "zz2_vertex")]


def kernel_test(mono):
    """The test the rank test replaced: the relations among the images are
    exactly the domain's relations."""
    D, C = mono.domain, mono.codomain
    L0 = getattr(C, "ambient", C).L0
    return preimage_lattice([list(x) for x in mono.images], D.n, L0) == D.L0


@st.composite
def abelian_monos(draw):
    """(m, domain torsion, torsion, r, images, subgroup gens): Z^m, or
    Z^m x Z/domain torsion (which keeps the kernel test), into
    Z^r x Z/torsion, or into the subgroup on the given generators when there
    are any, the images then being integer combinations of them."""
    m = draw(st.integers(0, 3))
    dom_torsion = draw(st.sampled_from([(), (), (), (2,), (3,)]))
    m_all = m + len(dom_torsion)
    r = draw(st.integers(0, 2))
    torsion = draw(st.sampled_from([(), (2,), (3,), (6,), (2, 4)]))
    n = r + len(torsion)
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    sub = draw(st.lists(vec, min_size=1, max_size=3)) if n and draw(st.booleans()) else []
    if sub:
        combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(sub),
                                        max_size=len(sub)), min_size=m_all, max_size=m_all))
        images = [[sum(c * g[j] for c, g in zip(cs, sub)) for j in range(n)] for cs in combos]
    else:
        images = draw(st.lists(vec, min_size=m_all, max_size=m_all))
    return m, dom_torsion, torsion, r, images, sub


def build(m, dom_torsion, torsion, r, images, sub):
    C = AbelianGroup(r, torsion)
    codomain = SubgroupBackend(C, C.subgroup([C.parse(g) for g in sub])) if sub else C
    return Mono(AbelianGroup(m, dom_torsion), codomain, [C.parse(x) for x in images])


@settings(max_examples=400, deadline=None)
@given(abelian_monos())
@example((1, (), (2,), 0, [[1]], []))                   # Z -> Z/2
@example((2, (), (), 1, [[1], [2]], []))                # Z^2 -> Z
@example((2, (), (), 2, [[1, 0], [0, 0]], []))          # a zero row
@example((1, (), (2,), 1, [[2, 1]], []))                # Z -> Z x Z/2 by (2, 1)
@example((1, (), (2,), 1, [[0, 1]], []))                # ... and by (0, 1)
@example((1, (), (2,), 1, [[0, 1]], [[0, 1]]))          # into the subgroup Z/2
@example((2, (), (2,), 1, [[2, 0], [0, 1]], [[2, 0], [0, 1]]))
@example((0, (2,), (2,), 1, [[0, 1]], []))              # Z/2 -> Z x Z/2 by (0, 1)
def test_rank_test_matches_kernel_test(case):
    mono = build(*case)
    assert mono.is_injective() == kernel_test(mono)


def test_cases_by_hand():
    ZxZ2 = AbelianGroup(1, [2])
    assert Mono(AbelianGroup.Z(), ZxZ2, [(2, 1)]).is_injective()
    assert not Mono(AbelianGroup.Z(), ZxZ2, [(0, 1)]).is_injective()
    assert not Mono(AbelianGroup.Z(), AbelianGroup(0, [2]), [(1,)]).is_injective()
    assert not Mono(AbelianGroup(2), AbelianGroup.Z(), [(1,), (2,)]).is_injective()
    assert not Mono(AbelianGroup(2), AbelianGroup(2), [(1, 0), (0, 0)]).is_injective()
    assert Mono(AbelianGroup(0, [2]), ZxZ2, [(0, 1)]).is_injective()


def count_backend_asks(monkeypatch):
    """Counter of injectivity tests per Mono: every backend test receives
    the Mono's bound image method."""
    asked = Counter()
    for cls in (AbelianGroup, FiniteGroup, FreeGroup):
        for name in ("mono_injective", "sub_mono_injective"):
            def counted(self, *args, _f=getattr(cls, name)):
                asked[args[-1].__self__] += 1
                return _f(self, *args)
            monkeypatch.setattr(cls, name, counted)
    return asked


def collect(monkeypatch, name):
    """The Monos that Mono.<name> returns from now on."""
    made = []

    def wrapped(self, *args, _f=getattr(Mono, name)):
        made.append(_f(self, *args))
        return made[-1]
    monkeypatch.setattr(Mono, name, wrapped)
    return made


@pytest.mark.parametrize("path", GOG_FILES, ids=os.path.basename)
def test_each_mono_asks_its_backend_once(path, monkeypatch):
    asked = count_backend_asks(monkeypatch)
    composites, inverses = collect(monkeypatch, "compose"), collect(monkeypatch, "inverse")
    A, base = gogio.parse_gog(gogio.load(path))
    monos = [m for pair in A.monos for m in pair]
    assert all(asked[m] == 1 for m in monos)
    gog_core(A)
    R, _ = reduce_gog(A, base or 0)
    derived = composites + inverses + [m for pair in R.monos for m in pair if m not in monos]
    for m in monos + derived:
        assert m.is_injective() and m.is_injective()
    for m in inverses:
        assert m.index_of_image() == 1
    assert all(asked[m] == 1 for m in monos)
    assert not any(asked[m] for m in derived)


def automorphism(kind):
    """An automorphism of a finite, a free and a subgroup-backed abelian group."""
    if kind == "finite":
        G = FiniteGroup.cyclic(6)
        return Mono(G, G, [G.pow(g, 5) for g in G.generators()])
    if kind == "free":
        G = FreeGroup(2)
        return Mono(G, G, [G.parse("b"), G.parse("ab")])
    C = AbelianGroup(2)
    S = SubgroupBackend(C, C.subgroup([(2, 0), (0, 1)]))
    return Mono(S, S, [(2, 1), (0, 1)])


@pytest.mark.parametrize("kind", ["finite", "free", "abelian-subgroup"])
def test_composites_and_inverses_ask_nothing(kind, monkeypatch):
    asked = count_backend_asks(monkeypatch)
    f = automorphism(kind)
    assert f.is_iso()
    g = f.inverse()
    derived = [g, f.compose(g), g.compose(f).compose(f), g.inverse()]
    assert all(m.is_injective() for m in derived)
    assert [m.index_of_image() for m in derived] == [1, 1, 1, 1]
    assert asked == {f: 1}
    x = f.domain.generators()[0]
    assert f.compose(g).apply(x) == x


def test_composite_of_unchecked_monos_asks_once(monkeypatch):
    asked = count_backend_asks(monkeypatch)
    Z = AbelianGroup.Z()
    double = Mono(Z, Z, [(2,)])
    triple = Mono(Z, Z, [(3,)])
    six = triple.compose(double)
    assert six.is_injective() and six.is_injective()
    assert asked == {six: 1}
    assert six.index_of_image() == 6
    assert not Mono(Z, Z, [(0,)]).compose(double).is_injective()


def gbs_tree(n, rng):
    """n Z vertices; an edge to each v > 0 from a seeded earlier vertex, by 1
    there and by a seeded 1, 2 or 3 at v; and a loop at the root by a seeded
    1, 2 or 3 and 2 or 3."""
    edges = [{"name": f"t{v}", "from": f"v{rng.randrange(v)}", "to": f"v{v}",
              "group": {"Z": True}, "alpha": [1], "omega": [rng.choice((1, 2, 3))]}
             for v in range(1, n)]
    edges.append({"name": "loop", "from": "v0", "to": "v0", "group": {"Z": True},
                  "alpha": [rng.choice((1, 2, 3))], "omega": [rng.choice((2, 3))]})
    return {"vertices": {f"v{v}": {"Z": True} for v in range(n)}, "edges": edges,
            "basepoint": "v0"}


# upper bounds on intlattice.hnf calls for the 100-vertex tree: before the
# image was kept and read, loading ran two HNFs per map (400), the core six
# per map (600) and reduce about 750
HNF_PINS = {"validate": 200, "core": 200, "reduce": 324}


@pytest.mark.parametrize("op", sorted(HNF_PINS))
def test_gbs_tree_hnf_counts(op, monkeypatch):
    data = gbs_tree(100, random.Random(30))
    AbelianGroup.Z()        # the shared relation lattices of Z, made once per process
    calls = []

    def counted(*args, _f=intlattice.hnf, **kw):
        calls.append(1)
        return _f(*args, **kw)
    monkeypatch.setattr(intlattice, "hnf", counted)
    A, base = gogio.parse_gog(data)
    if op == "core":
        gog_core(A)
    elif op == "reduce":
        reduce_gog(A, base)
    assert len(calls) <= HNF_PINS[op]
