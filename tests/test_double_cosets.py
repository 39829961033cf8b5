"""The double-coset handle G.double_cosets(H, K) against brute force.

Finite and abelian handles are checked on every query against H g K listed
or closed by hand; free handles' reps() against a grouping of short words by
eq().  Every handle's meet(g) is checked against H.conjugate(g).intersect(K).
The ownership tests count the structures a product builds: one
Lattice.sum per vertex pair and edge pair, and no Benois automaton built
twice for one (H, g, K, prefix, suffix) held by one owner.
"""

from __future__ import annotations

import contextlib
import io
import os
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gogroups import cli, intlattice
from gogroups.backends import (AbelianGroup, FiniteGroup, FreeGroup, StallingsAutomaton,
                               SubgroupBackend)
from gogroups.backends import abelian, rational
from gogroups.morphism import is_covering
from gogroups.pullback import build_product
from gogroups.words import wmul, winv, wreduce
from test_morphism import identity_morphism

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sample(name):
    return os.path.join(ROOT, "samples", name + ".json")


def golden_input(name):
    return os.path.join(ROOT, "tests", "golden", "inputs", name + ".json")


def sym3():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[idx[tuple(q[p[k]] for k in range(3))] for q in perms] for p in perms])


# --- brute-force oracles ---

def finite_classes(G, H, K, elements):
    """The double cosets H g K (g in elements) as frozensets, listed."""
    return {frozenset(G.mul(G.mul(h, g), k) for h in H.elts for k in K.elts)
            for g in elements}


def abelian_closure(G, gens, radius):
    """Elements of <gens> reachable from 0 by steps +-gen inside the box
    |free coordinate| <= radius."""
    steps = [x for g in gens for x in (g, G.inv(g))]
    seen = {G.identity()}
    stack = [G.identity()]
    while stack:
        x = stack.pop()
        for s in steps:
            y = G.mul(x, s)
            if y not in seen and all(abs(c) <= radius for c in y[:G.rank]):
                seen.add(y)
                stack.append(y)
    return seen


def check_finite(G, H, K, elements, dc):
    classes = finite_classes(G, H, K, elements)
    of = {g: c for c in classes for g in c}
    for g in elements:
        assert dc.canon(g) in of[g]
        for g2 in elements:
            assert dc.eq(g, g2) == (g2 in of[g])
            assert (dc.canon(g) == dc.canon(g2)) == (g2 in of[g])
            if g2 in of[g]:
                h, k = dc.factor(g, g2)
                assert H.contains(h) and K.contains(k) and G.mul(G.mul(h, g), k) == g2
            else:
                with pytest.raises(ValueError):
                    dc.factor(g, g2)
    assert dc.reps() == {dc.canon(min(c)) for c in classes}


def finite_pairs(G, elements):
    subs = {frozenset(G.subgroup([x]).elts): G.subgroup([x]) for x in elements}
    return list(product(subs.values(), repeat=2))


@pytest.mark.parametrize("G", [sym3(), FiniteGroup.cyclic(6)], ids=["S3", "Z6"])
def test_finite_handle_against_listed_double_cosets(G):
    for H, K in finite_pairs(G, range(G.order())):
        check_finite(G, H, K, list(range(G.order())), G.double_cosets(H, K))


def test_finite_handle_inside_a_subgroup_backend():
    # S = <2> in Z/12 has elements {0, 2, ..., 10}, not 0..5
    Z12 = FiniteGroup.cyclic(12)
    S = Z12.subgroup([2])
    SB = SubgroupBackend(Z12, S)
    elements = sorted(S.elts)
    for H, K in finite_pairs(Z12, elements):
        check_finite(Z12, H, K, elements, SB.double_cosets(H, K))
    assert SB.double_cosets(Z12.subgroup([4]), Z12.subgroup([6])).reps() == {0}
    # S3 inside the subgroup generated by a transposition
    G = sym3()
    T = G.subgroup([3])
    check_finite(G, G.trivial_subgroup(), G.trivial_subgroup(), sorted(T.elts),
                 SubgroupBackend(G, T).double_cosets(G.trivial_subgroup(),
                                                     G.trivial_subgroup()))


ABELIAN_CASES = [
    # (rank, torsion, H generators, K generators)
    (2, [], [(2, 0)], [(0, 3)]),
    (2, [], [(2, 1), (0, 2)], [(1, 3)]),
    (2, [], [(1, 1)], [(2, 2)]),                  # infinite index
    (2, [], [], [(1, 2), (2, 1)]),
    (1, [4], [(2, 0)], [(0, 2)]),
    (1, [4], [(1, 1)], [(0, 0)]),
    (1, [4], [(3, 2)], [(2, 1)]),
    (1, [4], [], [(0, 1)]),                       # infinite index
]


@pytest.mark.parametrize("rank, torsion, hgens, kgens", ABELIAN_CASES)
def test_abelian_handle_against_lattice_closure(rank, torsion, hgens, kgens):
    G = AbelianGroup(rank, torsion)
    H, K = G.subgroup(list(hgens)), G.subgroup(list(kgens))
    dc = G.double_cosets(H, K)
    members = abelian_closure(G, list(H.gens) + list(K.gens), radius=16)
    box = sorted({G.canon(free + tors) for free in product(range(-3, 4), repeat=rank)
                  for tors in product(*(range(d) for d in torsion))})
    for g in box:
        for g2 in box:
            same = G.mul(g2, G.inv(g)) in members
            assert dc.eq(g, g2) == same
            assert (dc.canon(g) == dc.canon(g2)) == same
            if same:
                h, k = dc.factor(g, g2)
                assert H.contains(h) and K.contains(k) and G.mul(G.mul(h, g), k) == g2
            else:
                with pytest.raises(ValueError):
                    dc.factor(g, g2)
    index = H.join(K).index()
    if index is None:
        with pytest.raises(ValueError):
            dc.reps()
        return
    reps = dc.reps()
    assert len(reps) == index
    assert {dc.canon(g) for g in box} <= reps
    for r in reps:
        assert sum(dc.eq(r, r2) for r2 in reps) == 1


def test_abelian_handle_inside_a_subgroup_backend():
    # S = <(2, 0), (0, 1)> in Z^2; H = <(4, 0)>, K = <(0, 3)> leave 6 double cosets in S
    Z2 = AbelianGroup(2)
    S = Z2.subgroup([(2, 0), (0, 1)])
    dc = SubgroupBackend(Z2, S).double_cosets(Z2.subgroup([(4, 0)]), Z2.subgroup([(0, 3)]))
    reps = dc.reps()
    assert len(reps) == 6 and all(S.contains(r) for r in reps)
    assert len(Z2.double_cosets(Z2.subgroup([(4, 0)]), Z2.subgroup([(0, 3)])).reps()) == 12


# --- free groups: reps() against an eq() grouping of short words ---

def all_words(rank, max_len):
    letters = list(range(1, rank + 1)) + [-i for i in range(1, rank + 1)]
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + (x,) for w in frontier for x in letters if not w or w[-1] != -x]
        out.extend(frontier)
    return out


def check_free_reps(dc, words):
    """Every word of `words` lies in exactly one double coset of reps(), and
    every rep is met; so len(reps()) is the number of eq() classes."""
    reps = dc.reps()
    assert reps is not None
    met = set()
    for w in words:
        hits = [r for r in reps if dc.eq(r, w)]
        assert len(hits) == 1, (w, hits)
        met.add(hits[0])
    assert met == reps


FREE_CASES = [
    # (H generators, K generators); one of them of finite index in F2
    (["aa", "b", "abA"], ["ab"]),
    (["aa", "b", "abA"], ["b"]),
    (["a", "bb", "baB"], []),
    (["aaa", "b", "abA", "aabAA"], ["a"]),
    (["ab"], ["aa", "b", "abA"]),                 # K of finite index
    ([], ["a", "bbb", "baB", "bbaBB"]),
]


@pytest.mark.parametrize("hgens, kgens", FREE_CASES)
def test_free_reps_against_eq_grouping(hgens, kgens):
    F2 = FreeGroup(2)
    H, K = F2.subgroup(hgens), F2.subgroup(kgens)
    check_free_reps(F2.double_cosets(H, K), all_words(2, 4))


def test_free_reps_without_a_finite_index_subgroup_is_unknown():
    F2 = FreeGroup(2)
    assert F2.double_cosets(F2.subgroup([(1,)]), F2.subgroup([(2,)])).reps() is None


def test_free_reps_inside_a_subgroup_backend():
    # S = <a, b a b^-1> is free of rank 2; inside it H = <a^2, bab^-1, a bab^-1 a^-1>
    # has index 2, while in F2 it has infinite index
    F2 = FreeGroup(2)
    x, y = (1,), (2, 1, -2)
    S = F2.subgroup([x, y])
    H = F2.subgroup([wmul(x, x), y, wmul(x, y, winv(x))])
    for K in (F2.trivial_subgroup(), F2.subgroup([x]), F2.subgroup([y])):
        dc = SubgroupBackend(F2, S).double_cosets(H, K)
        reps = dc.reps()
        assert all(S.contains(r) for r in reps)
        check_free_reps(dc, S.elements_up_to(6))
        assert F2.double_cosets(H, K).reps() is None


# --- meet(g) = H^g meet K, on every backend ---

def check_meet(G, H, K, g):
    dc = G.double_cosets(H, K)
    assert dc.meet(g).equals(H.conjugate(g).intersect(K))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([sym3(), FiniteGroup.cyclic(6)]), st.data())
def test_finite_meet(G, data):
    elts = st.integers(0, G.order() - 1)
    H, K = (G.subgroup(data.draw(st.lists(elts, max_size=2))) for _ in "HK")
    check_meet(G, H, K, data.draw(elts))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, []), (1, [4])]), st.data())
def test_abelian_meet(shape, data):
    G = AbelianGroup(*shape)
    elts = st.tuples(*[st.integers(-4, 4)] * (G.rank + len(shape[1]))).map(G.canon)
    H, K = (G.subgroup(data.draw(st.lists(elts, max_size=2))) for _ in "HK")
    g = data.draw(elts)
    check_meet(G, H, K, g)
    # one meet per handle, whatever g is
    dc = G.double_cosets(H, K)
    assert dc.meet(g) is dc.meet(G.identity())


free_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4).map(lambda w: wreduce(tuple(w)))


@settings(max_examples=100, deadline=None)
@given(st.lists(free_words, max_size=2), st.lists(free_words, max_size=2), free_words)
def test_free_meet(hgens, kgens, g):
    F2 = FreeGroup(2)
    check_meet(F2, F2.subgroup(hgens), F2.subgroup(kgens), g)


# --- is_covering inside subgroup backends ---

@pytest.mark.parametrize("gog, imm", [
    (sample("zsquared_hnn"), sample("zsquared_hnn_sub_B")),
    (sample("bs_1_2"), golden_input("bs_1_2_sub_P")),
    (sample("double_f2_squares"), golden_input("double_f2_squares_sub_P")),
    (sample("rose2"), sample("rose2_sub_H")),
])
def test_identity_of_a_subgroup_backed_gog_is_a_covering(gog, imm):
    # the abelian cases raised AttributeError (no FULL lattice on a
    # SubgroupBackend), the free one answered "not decidable"
    A, base = cli._load_gog(gog)
    m, _ = cli._load_immersion(imm, A, base)
    assert is_covering(identity_morphism(m.source)) is True


def test_identity_on_a_proper_finite_subgroup_is_a_covering():
    # a loop with trivial edge group at the vertex group <2> of Z/4, whose
    # elements are {0, 2}: listing 0..|<2>|-1 gave a second double coset
    from gogroups.backends import Mono
    from gogroups.gog import GraphOfGroups
    from gogroups.graphs import Graph
    Z4 = FiniteGroup.cyclic(4)
    V, E = SubgroupBackend(Z4, Z4.subgroup([2])), FiniteGroup.trivial()
    A = GraphOfGroups(Graph(1, [(0, 0)], vnames=["u"], enames=["e"]), [V], [E],
                      [(Mono(E, V, []), Mono(E, V, []))])
    assert is_covering(identity_morphism(A)) is True


# --- ownership: what one product builds ---

@contextlib.contextmanager
def counting(owner, attr):
    calls = []
    orig = getattr(owner, attr)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    setattr(owner, attr, wrapped)
    try:
        yield calls
    finally:
        setattr(owner, attr, orig)


def test_one_lattice_sum_per_vertex_pair_and_edge_pair():
    # the zsquared_hnn product has one vertex pair and one edge pair; a
    # fresh H + K per query made 2046 sums at budget 256
    A, base = cli._load_gog(sample("zsquared_hnn"))
    m1, b1 = cli._load_immersion(sample("zsquared_hnn_sub_C"), A, base)
    m2, b2 = cli._load_immersion(sample("zsquared_hnn_sub_B"), A, base)
    with counting(intlattice.Lattice, "sum") as calls:
        frag = build_product(m1, m2, 256, b1, b2)
    assert len(frag.vertices) > 256
    assert len(calls) <= 2


def test_edge_factors_are_made_on_first_request():
    # the product's edges keep their transports: building it, its JSON and
    # its ray certificate factor only the base witness and the certificate's
    # three-edge window at both ends (factoring every edge while building
    # made 513 calls at budget 256); the intersection generators then
    # factor every edge once, at both ends
    A, base = cli._load_gog(sample("zsquared_hnn"))
    m1, b1 = cli._load_immersion(sample("zsquared_hnn_sub_C"), A, base)
    m2, b2 = cli._load_immersion(sample("zsquared_hnn_sub_B"), A, base)
    with counting(abelian.AbelianDoubleCosets, "factor") as calls:
        frag = build_product(m1, m2, 256, b1, b2)
        frag.to_json()
        assert frag.ray_certificate() is not None
        handles = list(frag.vertex_dcs.values())

        def vertex_calls():
            return sum(any(c[0] is h for h in handles) for c in calls)
        assert vertex_calls() <= 7
        frag.intersection_generators()
        assert vertex_calls() == 2 * len(frag.edges) + 1 == 513


def test_coset_automata_built_once_per_owner():
    # the double_f2_squares golden pair built 44 automata for its folds,
    # interning, edge solving and factors
    path = golden_input("double_f2_squares_sub_P")
    with counting(rational.CosetNFA, "__init__") as calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["pullback", sample("double_f2_squares"), path, path,
                             "--budget", "20"]) == 0
    assert 0 < len(calls) <= 16


@pytest.mark.parametrize("twists", [((0, 0), (2, -1), (1, 1)), ((1, 1), (0, 0), (2, -1))],
                         ids=["grown-first", "keyed-first"])
def test_folding_drops_handles_when_a_vertex_subgroup_grows(twists):
    # BS(2, 2)-like loop over Z: folding the petals with twists 0 and 2 grows
    # the base subgroup to Z, after which the petal with twist 1 must fold
    # too; a handle or fold key kept from before the growth would still
    # separate it
    from gogroups.backends import Mono
    from gogroups.gog import APath, GraphOfGroups
    from gogroups.graphs import Graph
    from gogroups.morphism import is_immersion, realize_subgroup
    Z = AbelianGroup.Z()
    A = GraphOfGroups(Graph(1, [(0, 0)], vnames=["u"], enames=["e"]), [Z], [Z],
                      [(Mono(Z, Z, [(2,)]), Mono(Z, Z, [(2,)]))])
    petals = [APath(A, 0, [(a,), (b,)], [0]) for a, b in twists]
    m, _ = realize_subgroup(A, 0, petals)
    is_immersion(m)
    assert (m.source.graph.nv, m.source.graph.n_pairs) == (1, 1)
    assert m.source.vgroups[0].handle.equals(Z.full_subgroup())


def test_free_vertex_products_agree_over_z_and_f1_edge_groups():
    # the edge group Z encoded as {"Z"} (d0 read off the edge handle's
    # lattice E1 + E2) and as {"free": 1} (d0 from the two indices) gives
    # the same product vertices
    from gogroups.backends import Mono
    from gogroups.gog import GraphOfGroups
    from gogroups.gogio import parse_apath
    from gogroups.graphs import Graph
    from gogroups.morphism import realize_subgroup
    F2 = FreeGroup(2)
    cases = [([["a", "e", "b", "e^-1", ""], ["aaaaaa"]], [["", "e", "ab", "e^-1", "a"], ["b"]]),
             ([["a", "e", "", "e^-1", "A"], ["aaa"]], [["aa"], ["", "e", "b", "e^-1", ""]]),
             ([["", "e", "", "e^-1", ""]], [["", "e", "b", "e^-1", ""]]),
             ([["aaa"], ["b", "e", "bb"]], [["aa"], ["b", "e", "A"]])]   # E1, E2 nontrivial
    for P, Q in cases:
        reports = []
        for Ge in (AbelianGroup.Z(), FreeGroup(1)):
            A = GraphOfGroups(Graph(1, [(0, 0)], vnames=["u"], enames=["e"]), [F2], [Ge],
                              [(Mono(Ge, F2, [(1, 1)]), Mono(Ge, F2, [(1, 1, 1)]))])
            mP, bP = realize_subgroup(A, 0, [parse_apath(p, A, 0) for p in P])
            mQ, bQ = realize_subgroup(A, 0, [parse_apath(p, A, 0) for p in Q])
            rep = build_product(mP, mQ, 30, bP, bQ).to_json()
            reports.append((rep["vertices"], [(h["from"], h["to"]) for h in rep["edges"]],
                            rep["complete"], rep["unexpandable"]))
        assert reports[0] == reports[1]


# --- Stallings folding without annotations ---

words = st.lists(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8)
                 .map(lambda w: wreduce(tuple(w))), max_size=5)


@settings(max_examples=150, deadline=None)
@given(words)
def test_folding_ignores_annotations(gens):
    plain = StallingsAutomaton.from_words(gens)
    annotated = StallingsAutomaton.from_words(gens, annotate=True)
    assert plain.delta == annotated.delta
    assert plain.ann is None
