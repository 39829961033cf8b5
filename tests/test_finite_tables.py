"""The finite backend's memos against fresh computations, and the edge maps
that folding shares.

A finite group keeps one breadth-first word table per generator list, read
by both express and decompose; a double-coset handle lists its reps once;
conjugating a trivial subgroup returns it; and morphism_of_handles builds
one (alpha, omega) pair of Monos per trivial edge handle and endpoint
backends.  Each is checked here against an oracle computed afresh on every
call, and a realize/pullback run is checked to leave the tables as built.
"""

from __future__ import annotations

import json
import os
from itertools import product
from random import Random

import pytest

from gogroups import gogio
from gogroups.backends import FiniteGroup, Mono, SubgroupBackend
from gogroups.backends.base import evaluate_word
from gogroups.gog import APath, GraphOfGroups
from gogroups.graphs import Graph
from gogroups.library import rose_gog, word_apath
from gogroups.morphism import is_immersion, realize_subgroup, validate_morphism
from gogroups.pullback import build_product
from gogroups.words import wreduce

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = os.path.join(ROOT, "samples")
INPUTS = os.path.join(ROOT, "tests", "golden", "inputs")


def sym3():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[idx[tuple(q[p[k]] for k in range(3))] for q in perms] for p in perms])


def modular_groups():
    A, _ = gogio.parse_gog(gogio.load(os.path.join(INPUTS, "modular.json")))
    return [*A.vgroups, *A.egroups]


GROUPS = [("S3", sym3()), ("Z6", FiniteGroup.cyclic(6))] + [
    (f"modular-{G.order()}", G) for G in modular_groups()]


def shortlex_words(G, gens):
    """Each element of <gens> with its least word in shortlex order over the
    letters gens[0], gens[0]^-1, gens[1], ...: the words of each length are
    listed in lexicographic order until a length reaches nothing new.
    Computed afresh on every call."""
    letters = [(i, s) for i in range(len(gens)) for s in (1, -1)]
    words = {G.identity(): []}
    for length in range(1, G.order() + 1):
        new = False
        for word in product(letters, repeat=length):
            x = evaluate_word(G, gens, word)
            if x not in words:
                words[x] = list(word)
                new = True
        if not new:
            break
    return words


def generator_lists(G):
    """G.generators(), the empty list, every one- and two-element list, and
    a few three-element lists with repeats and the identity."""
    n, e = G.order(), G.identity()
    lists = [G.generators(), []]
    lists += [[x] for x in range(n)]
    lists += [[x, y] for x in range(n) for y in range(n)]
    lists += [[x, x, e] for x in range(n)] + [[e, x, n - 1 - x] for x in range(n)]
    return lists


@pytest.mark.parametrize("name,G", GROUPS, ids=[g[0] for g in GROUPS])
def test_express_against_fresh_enumeration(name, G):
    for gens in generator_lists(G):
        want = shortlex_words(G, gens)
        for _ in range(2):
            for x in range(G.order()):
                assert G.express(x, gens) == want.get(x)
                assert G.express(x, tuple(gens)) == want.get(x)


@pytest.mark.parametrize("name,G", GROUPS, ids=[g[0] for g in GROUPS])
def test_decompose_against_fresh_enumeration(name, G):
    want = shortlex_words(G, G.generators())
    for _ in range(2):
        for x in range(G.order()):
            assert G.decompose(x) == want[x]
    for gens in generator_lists(G):
        H = G.subgroup(gens)
        S = SubgroupBackend(G, H)
        want = shortlex_words(G, list(H.gens))
        for _ in range(2):
            for x in range(G.order()):
                if x in want:
                    assert H.decompose(x) == want[x]
                    assert S.decompose(x) == want[x]
                else:
                    with pytest.raises(ValueError):
                        H.decompose(x)


def test_decompose_and_express_share_one_table():
    G = sym3()
    gens = G.generators()
    assert G.decompose(5) is G.express(5, gens)
    H = G.subgroup([3, 4])
    assert H.decompose(1) is G.express(1, [3, 4])


def double_coset_oracle(G, H, K, elements):
    """The least element of each double coset H g K, g in elements."""
    return {min(G.mul(G.mul(h, g), k) for h in H.elts for k in K.elts) for g in elements}


@pytest.mark.parametrize("name,G", GROUPS, ids=[g[0] for g in GROUPS])
def test_reps_listed_once_against_fresh_listing(name, G):
    subs = {frozenset(G.subgroup([x]).elts): G.subgroup([x]) for x in range(G.order())}
    subs = list(subs.values()) + [G.trivial_subgroup(), G.full_subgroup()]
    for H, K in product(subs, repeat=2):
        for S in (None, *subs):
            dc = G.double_cosets(H, K, S)
            want = double_coset_oracle(G, H, K, range(G.order()) if S is None else S.elts)
            first = dc.reps()
            assert first == want
            assert dc.reps() is first
            assert dc.reps() == want


@pytest.mark.parametrize("name,G", GROUPS, ids=[g[0] for g in GROUPS])
def test_conjugating_a_trivial_subgroup_returns_it(name, G):
    trivials = [G.trivial_subgroup(), G.subgroup([]), G.subgroup([G.identity()]),
                G.full_subgroup().intersect(G.trivial_subgroup())]
    for T in trivials:
        for g in range(G.order()):
            assert T.conjugate(g) is T


def test_index_in_rejects_a_non_subgroup():
    # [<3> : <2>] in Z/6 once read 2 // 3 == 0
    Z6 = FiniteGroup.cyclic(6)
    with pytest.raises(ValueError):
        Z6.subgroup([3]).index_in(Z6.subgroup([2]))
    for name, G in GROUPS:
        subs = [G.subgroup([x]) for x in range(G.order())] + [G.full_subgroup()]
        for T, S in product(subs, repeat=2):
            if T.elts <= S.elts:
                cosets = {frozenset(G.mul(t, x) for t in T.elts) for x in S.elts}
                assert T.index_in(S) == len(cosets)
            else:
                with pytest.raises(ValueError):
                    T.index_in(S)


# --- realize and pull back: tables kept as built, edge maps shared ---

def load_generators(gog_path, sub_path):
    A, base = gogio.parse_gog(gogio.load(gog_path))
    base = base or 0
    paths = [gogio.parse_apath(p, A, base) for p in gogio.load(sub_path)["generators"]]
    return A, base, paths


def s3_amalgam_z6():
    """S3 *_{Z/2} Z/6: the edge group maps onto a transposition and onto 3,
    so folding pulls elements back through nontrivial edge maps."""
    S3, Z6, Z2 = sym3(), FiniteGroup.cyclic(6), FiniteGroup.cyclic(2)
    graph = Graph(2, [(0, 1)], vnames=["u", "v"], enames=["e"])
    return GraphOfGroups(graph, [S3, Z6], [Z2], [(Mono(Z2, S3, [3]), Mono(Z2, Z6, [3]))])


def amalgam_paths(A, seed, count=4):
    """Closed A-paths at u over the one-edge segment, seeded."""
    rng = Random(seed)
    paths = []
    for _ in range(count):
        n = rng.randint(0, 3)
        elems = [rng.randrange(6) for _ in range(2 * n + 1)]
        paths.append(APath(A, 0, elems, [i % 2 for i in range(2 * n)]))
    return paths


def realized_cases():
    """(name, A, base, generators) for rose2, modular, the S3 amalgam and
    seeded roses."""
    cases = []
    for gog, sub in (("rose2", "rose2_sub_H"), ("rose2", "rose2_sub_K")):
        cases.append((sub, *load_generators(os.path.join(SAMPLES, gog + ".json"),
                                            os.path.join(SAMPLES, sub + ".json"))))
    for sub in ("modular_sub_P", "modular_sub_Q"):
        cases.append((sub, *load_generators(os.path.join(INPUTS, "modular.json"),
                                            os.path.join(INPUTS, sub + ".json"))))
    amalgam = s3_amalgam_z6()
    for seed in (1, 2, 3):
        cases.append((f"amalgam-{seed}", amalgam, 0, amalgam_paths(amalgam, seed)))
    rose = rose_gog(2)
    for seed in (1, 2, 3, 4):
        rng = Random(seed)
        words = [wreduce(tuple(rng.choice((1, -1, 2, -2)) for _ in range(16)))
                 for _ in range(10 * seed)]
        cases.append((f"rose-{seed}", rose, 0, [word_apath(rose, w) for w in words]))
    return cases


CASES = realized_cases()


@pytest.mark.parametrize("name,A,base,gens", CASES, ids=[c[0] for c in CASES])
def test_realized_immersions_are_valid(name, A, base, gens):
    m, b = realize_subgroup(A, base, gens)
    assert validate_morphism(m) == []
    is_immersion(m)


@pytest.mark.parametrize("name,A,base,gens", CASES, ids=[c[0] for c in CASES])
def test_trivial_edge_maps_are_shared(name, A, base, gens):
    m, _ = realize_subgroup(A, base, gens)
    B, g = m.source, m.source.graph
    pairs, shared = {}, 0
    for p in range(g.n_pairs):
        E = B.egroups[p]
        if E.generators():
            continue
        key = (id(E), id(B.vgroups[g.org[p]]), id(B.vgroups[g.tgt[p]]))
        if key in pairs:
            shared += 1
            assert B.monos[p][0] is pairs[key][0] and B.monos[p][1] is pairs[key][1]
        else:
            pairs[key] = B.monos[p]
    if name.startswith("rose-"):
        assert shared > 0


def finite_tables(A):
    """(group, generator tuple, table) for every word table of A's groups."""
    groups = {id(G): G for G in (*A.vgroups, *A.egroups) if isinstance(G, FiniteGroup)}
    return [(G, key, table) for G in groups.values() for key, table in G._tables.items()]


@pytest.mark.parametrize("name,A,base,gens", [c for c in CASES if not c[0].startswith("rose2")],
                         ids=[c[0] for c in CASES if not c[0].startswith("rose2")])
def test_realize_and_pullback_leave_the_tables_as_built(name, A, base, gens):
    outputs = []
    for _ in range(2):
        m, b = realize_subgroup(A, base, gens)
        frag = build_product(m, m, 40, b, b)
        outputs.append((json.dumps(gogio.serialize_morphism(m, basepoint=b)),
                        [repr(p) for p in frag.intersection_generators()[0]]))
    assert outputs[0] == outputs[1]
    tables = finite_tables(A)
    assert tables
    for G, key, table in tables:
        assert table == shortlex_words(G, list(key))


# The golden morphism files are the serialize_morphism output of these
# realized immersions, written by earlier code: byte for byte the same.
GOLDEN_MORPHISMS = [(os.path.join(SAMPLES, "rose2.json"), os.path.join(SAMPLES, "rose2_sub_H.json")),
                    (os.path.join(SAMPLES, "zsquared_hnn.json"),
                     os.path.join(SAMPLES, "zsquared_hnn_sub_C.json")),
                    (os.path.join(INPUTS, "modular.json"), os.path.join(INPUTS, "modular_sub_P.json")),
                    (os.path.join(SAMPLES, "double_f2_squares.json"),
                     os.path.join(INPUTS, "double_f2_squares_sub_P.json"))]


@pytest.mark.parametrize("gog,sub", GOLDEN_MORPHISMS,
                         ids=[os.path.basename(s)[:-5] for _, s in GOLDEN_MORPHISMS])
def test_serialized_immersions_match_the_golden_files(gog, sub):
    A, base, gens = load_generators(gog, sub)
    m, b = realize_subgroup(A, base, gens)
    name = os.path.basename(sub)[:-len(".json")]
    with open(os.path.join(INPUTS, name + ".morphism.json")) as fh:
        want = fh.read()
    assert json.dumps(gogio.serialize_morphism(m, basepoint=b), indent=2) + "\n" == want
