import json
import os
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gogroups.backends import AbelianGroup, FiniteGroup, FreeGroup, Mono
from gogroups.backends.base import evaluate_word
from gogroups.gog import (APath, GraphOfGroups, apath_concat, apath_inverse,
                          gog_core, gog_core_at, reduce_apath, reduce_concat,
                          reduce_gog, validate_gog)
from gogroups.gogio import parse_gog
from gogroups.graphs import Graph, einv
from gogroups.library import bs_gog, klein_amalgam_gog, nofgip_gog, segment_z_gog
from test_fgip import line_events


def is_reduced(p):
    """No backtrack e e^-1 whose middle element lies in the edge group."""
    gog = p.gog
    for i in range(len(p.edges) - 1):
        e = p.edges[i]
        if p.edges[i + 1] == einv(e) and gog.omega(e).image().contains(p.elems[i + 1]):
            return False
    return True


def apaths_equal(p, q):
    """p and q are coterminal and p q^-1 reduces to the trivial path."""
    if p.base != q.base or p.end != q.end:
        raise ValueError("paths are not coterminal")
    r = reduce_apath(apath_concat(p, apath_inverse(q)))
    return len(r.edges) == 0 and r.elems[0] == p.gog.vgroups[p.base].identity()


def test_validate_bs12():
    A = bs_gog(1, 2)
    assert validate_gog(A) == []


def test_validate_rejects_non_injective():
    Z = AbelianGroup.Z()
    Ze = AbelianGroup.Z()
    graph = Graph(1, [(0, 0)])
    bad = GraphOfGroups(graph, [Z], [Ze],
                        [(Mono(Ze, Z, [(1,)]), Mono(Ze, Z, [(0,)]))])
    kinds = {v[0] for v in validate_gog(bad)}
    assert "omega-not-injective" in kinds


def test_validate_rejects_wrong_codomain():
    Z = AbelianGroup.Z()
    Z2 = AbelianGroup.Z()
    Ze = AbelianGroup.Z()
    graph = Graph(1, [(0, 0)])
    bad = GraphOfGroups(graph, [Z], [Ze],
                        [(Mono(Ze, Z, [(1,)]), Mono(Ze, Z2, [(2,)]))])
    kinds = {v[0] for v in validate_gog(bad)}
    assert "omega-codomain" in kinds


def bs12_path(A, spec):
    """spec: list alternating ints (vertex elements) and 'e'/'E' edge letters."""
    Z = A.vgroups[0]
    elems, edges = [], []
    cur = None
    for item in spec:
        if item == "e":
            edges.append(0)
            elems.append(cur if cur is not None else (0,))
            cur = None
        elif item == "E":
            edges.append(1)
            elems.append(cur if cur is not None else (0,))
            cur = None
        else:
            cur = (item,)
    elems.append(cur if cur is not None else (0,))
    return APath(A, 0, elems, edges)


def test_concat_inverse_trivial():
    A = bs_gog(1, 2)
    p = bs12_path(A, [1, "e", 3])
    t = A.trivial_path(0)
    assert apaths_equal(apath_concat(p, t), p)
    r = reduce_apath(apath_concat(p, apath_inverse(p)))
    assert len(r.edges) == 0 and r.elems[0] == (0,)


def test_britton_pinch():
    # (1, e, omega(x), e^-1, 1) reduces to (alpha(x)); in BS(1,2) omega(x)=2x
    A = bs_gog(1, 2)
    p = bs12_path(A, [0, "e", 2, "E", 0])
    r = reduce_apath(p)
    assert len(r.edges) == 0
    assert r.elems[0] == (1,)
    # (1, e, a, e^-1, 1) is already reduced: a not in image of omega
    q = bs12_path(A, [0, "e", 1, "E", 0])
    assert is_reduced(q)
    assert reduce_apath(q).edges == q.edges


def test_apaths_equal_bs12():
    A = bs_gog(1, 2)
    p = bs12_path(A, [0, "e", 2, "E", 0])
    q = bs12_path(A, [1])
    assert apaths_equal(p, q)
    assert not apaths_equal(bs12_path(A, [1]), bs12_path(A, [2]))


def test_equal_with_inserted_backtrack():
    A = bs_gog(1, 2)
    p = bs12_path(A, [1, "e", 1, "e", 5])
    # insert a backtrack e e^-1 with trivial element in the middle
    q = bs12_path(A, [1, "e", 1, "e", 0, "E", 0, "e", 5])
    assert apaths_equal(p, reduce_apath(q))
    assert apaths_equal(p, q)


def test_britton_confluence_random():
    rng = Random(51)
    A = bs_gog(1, 2)
    for _ in range(200):
        # random reduced path
        k = rng.randint(0, 4)
        spec = []
        for _ in range(k):
            spec.append(rng.randint(-2, 2))
            spec.append(rng.choice(["e", "E"]))
        spec.append(rng.randint(-2, 2))
        p = reduce_apath(bs12_path(A, spec))
        # insert a backtrack with trivial elements at a random position
        i = rng.randint(0, len(p.edges))
        edge = rng.choice([0, 1])
        left = APath(A, 0, p.elems[:i + 1], p.edges[:i])
        right = APath(A, 0, [(0,)] + p.elems[i + 1:], p.edges[i:])
        back = APath(A, 0, [(0,), (0,), (0,)], [edge, edge ^ 1])
        glued = apath_concat(apath_concat(left, back), right)
        assert apaths_equal(glued, p)


def vertex_at(p, i):
    """The vertex of the A-path p before its element i."""
    return p.base if i == 0 else p.gog.graph.t(p.edges[i - 1])


def is_cyclically_reduced(p):
    if not p.is_closed():
        raise ValueError("path is not closed")
    if len(p.edges) == 0:
        return False
    if not is_reduced(p):
        return False
    e_last = p.edges[-1]
    if p.edges[0] != einv(e_last):
        return True
    G = p.gog.vgroups[p.base]
    wrap = G.mul(p.elems[-1], p.elems[0])
    return not p.gog.omega(e_last).image().contains(wrap)


def cyclically_reduce(p):
    """(conjugator, core) with p =A conjugator . core . conjugator^-1."""
    if not p.is_closed():
        raise ValueError("path is not closed")
    gog = p.gog
    conj = gog.trivial_path(p.base)
    cur = reduce_apath(p)
    while len(cur.edges) > 0 and not is_cyclically_reduced(cur):
        e1 = cur.edges[0]
        s = APath(gog, cur.base, [cur.elems[0], gog.vgroups[gog.graph.t(e1)].identity()], [e1])
        cur = reduce_apath(apath_concat(apath_concat(apath_inverse(s), cur), s))
        conj = apath_concat(conj, s)
    return conj, cur


def test_cyclically_reduce():
    A = bs_gog(1, 2)
    p = bs12_path(A, [1, "e", 1, "E", 3])   # reduced? e then E with elem 1: 1 not in 2Z -> reduced
    assert is_reduced(reduce_apath(p))
    conj, core_p = cyclically_reduce(p)
    # p = conj core conj^-1
    rebuilt = apath_concat(apath_concat(conj, core_p), apath_inverse(conj))
    assert apaths_equal(rebuilt, p)
    if len(core_p.edges):
        assert is_cyclically_reduced(core_p)


def test_cyclically_reduce_trivial_cases():
    A = bs_gog(1, 2)
    c = bs12_path(A, [1, "e", 0])
    if is_cyclically_reduced(c):
        conj, core_p = cyclically_reduce(c)
        assert len(conj.edges) == 0
        assert apaths_equal(core_p, c)
    # fully reducible circuit
    p = bs12_path(A, [0, "e", 2, "E", 0])
    conj, core_p = cyclically_reduce(p)
    assert len(core_p.edges) == 0


def test_gog_core_bs():
    A = bs_gog(1, 2)
    C = gog_core(A)
    assert C.graph.n_pairs == 1 and C.graph.nv == 1


def test_gog_core_tree_surjective():
    # segment with both maps isomorphisms: no cyclically reduced circuits
    A = segment_z_gog(1, 1)
    C = gog_core(A)
    assert C.graph.n_pairs == 0


def test_gog_core_at_pendant():
    # segment (2,2): core at a vertex keeps the edge (backtrack turns allowed
    # since omega has index 2)
    A = segment_z_gog(2, 2)
    C, base = gog_core_at(A, 0)
    assert C.graph.n_pairs == 1
    # segment (1,1): no reduced circuit through the edge
    B = segment_z_gog(1, 1)
    C2, base2 = gog_core_at(B, 0)
    assert C2.graph.n_pairs == 0 and C2.graph.nv == 1


def repeated_names_gog():
    """Two vertices both named u: two loops at the first (BS(1,2) and
    BS(2,3) ends) and a pendant edge to the second, all three named e.  The
    pendant's end at the leaf is onto, so no reduced circuit uses it."""
    Z = [AbelianGroup.Z(), AbelianGroup.Z()]
    ends = [(0, 0, 1, 2), (0, 0, 2, 3), (0, 1, 2, 1)]
    egroups, monos = [], []
    for o, t, m, n in ends:
        Ze = AbelianGroup.Z()
        egroups.append(Ze)
        monos.append((Mono(Ze, Z[o], [(m,)]), Mono(Ze, Z[t], [(n,)])))
    graph = Graph(2, [(o, t) for o, t, _, _ in ends], vnames=["u", "u"], enames=["e"] * 3)
    return GraphOfGroups(graph, Z, egroups, monos)


def test_gog_core_carries_groups_by_id_under_repeated_names():
    A = repeated_names_gog()
    C = gog_core(A)
    assert (C.graph.nv, C.graph.org, C.graph.tgt) == (1, [0, 0], [0, 0])
    assert C.vgroups == A.vgroups[:1]
    assert C.egroups == A.egroups[:2] and C.monos == A.monos[:2]
    assert validate_gog(C) == []
    # at the leaf every edge lies on a reduced closed walk
    D, base = gog_core_at(A, 1)
    assert base == 1 and (D.graph.nv, D.graph.n_pairs) == (2, 3)
    assert D.vgroups == A.vgroups and D.monos == A.monos
    E, base = gog_core_at(A, 0)
    assert base == 0 and E.egroups == A.egroups[:2]


def test_reduce_gog_segment():
    # Z --(alpha iso, omega x2)-- Z collapses to a single vertex
    A = segment_z_gog(1, 2)
    R, base = reduce_gog(A, 0)
    assert R.graph.nv == 1 and R.graph.n_pairs == 0


def test_reduce_gog_already_reduced():
    A = bs_gog(2, 3)
    R, base = reduce_gog(A, 0)
    assert R.graph.nv == 1 and R.graph.n_pairs == 1


def test_reduce_gog_three_vertex_path():
    # path with two collapsible edges -> single vertex
    Za, Zb, Zc = AbelianGroup.Z(), AbelianGroup.Z(), AbelianGroup.Z()
    Ze1, Ze2 = AbelianGroup.Z(), AbelianGroup.Z()
    graph = Graph(3, [(0, 1), (1, 2)], vnames=["u", "v", "w"], enames=["e1", "e2"])
    A = GraphOfGroups(graph, [Za, Zb, Zc], [Ze1, Ze2],
                      [(Mono(Ze1, Za, [(1,)]), Mono(Ze1, Zb, [(2,)])),
                       (Mono(Ze2, Zb, [(1,)]), Mono(Ze2, Zc, [(3,)]))])
    R, base = reduce_gog(A, 0)
    assert R.graph.nv == 1 and R.graph.n_pairs == 0


def test_reduce_gog_preserves_loop_distinctions():
    # BS(1,2) subdivided: segment u -(id)- v with loop at v; collapsing the
    # segment must transport circuits faithfully
    Zu, Zv, Zs, Zl = (AbelianGroup.Z() for _ in range(4))
    graph = Graph(2, [(0, 1), (1, 1)], vnames=["u", "v"], enames=["s", "l"])
    A = GraphOfGroups(graph, [Zu, Zv], [Zs, Zl],
                      [(Mono(Zs, Zu, [(1,)]), Mono(Zs, Zv, [(1,)])),
                       (Mono(Zl, Zv, [(1,)]), Mono(Zl, Zv, [(2,)]))])
    R, base = reduce_gog(A, 0)
    assert R.graph.nv == 1 and R.graph.n_pairs == 1
    # the surviving loop keeps the (1,2) index data
    assert R.alpha_image_index(0) == 1
    assert R.omega_image_index(0) == 2


def test_nofgip_gog_valid():
    A = nofgip_gog()
    assert validate_gog(A) == []
    assert A.alpha_image_index(0) == 1
    assert A.omega_image_index(0) == 4


def test_apaths_equal_is_congruence():
    rng = Random(52)
    A = bs_gog(1, 2)

    def rand(k):
        spec = []
        for _ in range(k):
            spec.append(rng.randint(-2, 2))
            spec.append(rng.choice(["e", "E"]))
        spec.append(rng.randint(-2, 2))
        return bs12_path(A, spec)

    for _ in range(40):
        p = rand(rng.randint(0, 3))
        q = reduce_apath(p)
        r = rand(rng.randint(0, 3))
        # equivalence: reflexive, symmetric on the sampled pair
        assert apaths_equal(p, p)
        assert apaths_equal(p, q) == apaths_equal(q, p)
        if apaths_equal(p, q):
            # congruence under concatenation on both sides
            assert apaths_equal(apath_concat(p, r), apath_concat(q, r))
            assert apaths_equal(apath_concat(r, p), apath_concat(r, q))


SAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "samples")
SEAM_GOGS = ["bs_1_2", "bs_2_3", "zsquared_hnn", "klein_amalgam"]


def sample_gog(name):
    with open(os.path.join(SAMPLES, name + ".json")) as fh:
        return parse_gog(json.load(fh))[0]


def random_elem(G, rng):
    gens = G.generators()
    return evaluate_word(G, gens, [(i, rng.randint(-3, 3)) for i in range(len(gens))])


def random_apath(A, rng, v, length):
    out = A.graph.out_edges()
    base, elems, edges = v, [], []
    for _ in range(length):
        elems.append(random_elem(A.vgroups[v], rng))
        edges.append(rng.choice(out[v]))
        v = A.graph.t(edges[-1])
    elems.append(random_elem(A.vgroups[v], rng))
    return APath(A, base, elems, edges)


def seam_pair(A, rng):
    """(p_raw, p, q): p is the reduction of p_raw, and q is reduced and
    starts where p ends, by retracing part of p backwards with some elements
    moved, so the seam often pinches several times over."""
    p_raw = random_apath(A, rng, rng.randrange(A.graph.nv), rng.randint(0, 7))
    p = reduce_apath(p_raw)
    back = apath_inverse(p)
    k = rng.randint(0, len(back.edges))
    elems = list(back.elems[:k + 1])
    for i in range(len(elems)):
        if rng.random() < 0.3:
            G = A.vgroups[vertex_at(back, i)]
            elems[i] = G.mul(elems[i], random_elem(G, rng))
    retrace = APath(A, back.base, elems, back.edges[:k])
    tail = random_apath(A, rng, retrace.end, rng.randint(0, 4))
    return p_raw, p, reduce_apath(apath_concat(retrace, tail))


def fields(p):
    return p.base, p.end, p.elems, p.edges


@settings(deadline=None, max_examples=400)
@given(name=st.sampled_from(SEAM_GOGS), seed=st.integers(0, 2**32 - 1))
def test_reduce_concat_is_the_reduction_of_the_concatenation(name, seed):
    A = sample_gog(name)
    p_raw, p, q = seam_pair(A, Random(seed))
    got = reduce_concat(p, q)
    assert fields(got) == fields(reduce_apath(apath_concat(p, q)))
    assert got.end == APath(A, got.base, got.elems, got.edges).end
    # reducing a prefix first and the rest from its seam is one full scan
    assert fields(got) == fields(reduce_apath(apath_concat(p_raw, q)))


def test_reduce_concat_stops_at_the_seam():
    # p . q has no pinch at the seam, and q (a run of e) has none of its
    # own: the reduction does the same work for any length of q
    A = sample_gog("bs_1_2")
    p = APath(A, 0, [(1,), (1,), (1,)], [0, 0])

    def run(n):
        q = APath(A, 0, [(1,)] * (n + 1), [0] * n)
        assert fields(reduce_concat(p, q)) == fields(reduce_apath(apath_concat(p, q)))
        return line_events(reduce_concat, p, q)

    assert run(10) == run(1000)


def test_apath_constructor_rejects_non_consecutive_edges():
    A = sample_gog("klein_amalgam")   # one edge, u -> v
    Z = A.vgroups[0]
    assert APath(A, 0, [(1,), (0,), (2,)], [0, 1]).end == 0
    with pytest.raises(ValueError, match="not consecutive"):
        APath(A, 0, [(1,), (0,), (2,)], [0, 0])
    with pytest.raises(ValueError, match="not consecutive"):
        APath(A, 1, [Z.identity(), Z.identity()], [0])
