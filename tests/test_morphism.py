import pytest
from random import Random

from hypothesis import given, settings, strategies as st

from gogroups.backends import AbelianGroup, FreeGroup, Mono, SubgroupBackend
from gogroups.gog import (APath, GraphOfGroups, apath_concat, apath_inverse,
                          reduce_apath, validate_gog)
from gogroups.graphs import Graph
from gogroups.library import (bs_gog, nofgip_gog, rose_gog, segment_z_gog,
                              word_apath)
from gogroups.morphism import (GoGMorphism, ImmersionFailure, is_covering,
                               is_immersion, realize_subgroup, trace_apath,
                               validate_morphism)
from gogroups.words import parse_word, wreduce
from test_gog import apaths_equal, is_reduced


def identity_morphism(A):
    """The identity of A: every group onto itself, every twist trivial."""
    vmonos = [Mono(A.vgroups[v], A.vgroups[v], A.vgroups[v].generators())
              for v in range(A.graph.nv)]
    emonos = [Mono(A.egroups[p], A.egroups[p], A.egroups[p].generators())
              for p in range(A.graph.n_pairs)]
    twists = [(A.vgroups[A.graph.org[p]].identity(),
               A.vgroups[A.graph.tgt[p]].identity())
              for p in range(A.graph.n_pairs)]
    return GoGMorphism(A, A, list(range(A.graph.nv)),
                       [2 * p for p in range(A.graph.n_pairs)],
                       vmonos, emonos, twists)


def push_apath(m, p):
    """Image A-path: twisting elements interleave around each edge crossing."""
    S, T = m.source, m.target
    v = p.base
    out_elems = []
    out_edges = []
    cur = m.vmonos[v].apply(p.elems[0])
    for i, f in enumerate(p.edges):
        e = m.edge_image(f)
        Au = T.vgroups[T.graph.o(e)]
        cur = Au.mul(cur, m.twist_alpha(f))
        out_elems.append(cur)
        out_edges.append(e)
        v = S.graph.t(f)
        Av = T.vgroups[T.graph.t(e)]
        cur = Av.mul(Av.inv(m.twist_omega(f)), m.vmonos[v].apply(p.elems[i + 1]))
    out_elems.append(cur)
    return APath(T, m.vmap[p.base], out_elems, out_edges)


def test_identity_morphism_validates():
    A = bs_gog(1, 2)
    m = identity_morphism(A)
    assert validate_morphism(m) == []
    cert = is_immersion(m)
    assert cert is not None
    assert is_covering(m) is True


def test_flipped_twist_is_reported():
    A = nofgip_gog()
    m = identity_morphism(A)
    # breaking a twist: in an abelian vertex group conjugation is trivial, so
    # instead break a mono image
    V = A.vgroups[0]
    E = A.egroups[0]
    bad = GoGMorphism(A, A, m.vmap, m.emap, m.vmonos,
                      [Mono(E, E, [(1, 0), (1, 1)])], m.twists)
    kinds = {v[0] for v in validate_morphism(bad)}
    assert "twisted-commutation" in kinds


def test_twist_violation_nonabelian_target():
    # rose with free F2 "vertex group" realized as one vertex, trivial edge
    F = FreeGroup(2)
    Ze = FreeGroup(1)
    graph = Graph(1, [(0, 0)], vnames=["u"], enames=["e"])
    A = GraphOfGroups(graph, [F], [Ze],
                      [(Mono(Ze, F, ["a"]), Mono(Ze, F, ["b"]))])
    m = identity_morphism(A)
    assert validate_morphism(m) == []
    bad = GoGMorphism(A, A, m.vmap, m.emap, m.vmonos, m.emonos,
                      [(parse_word("a"), ())])
    kinds = {v[0] for v in validate_morphism(bad)}
    # alpha equation: alpha(mu_f(x)) = a vs conj_{a}(mu_v(a)) = a -> trivial?
    # conjugation by a fixes a, so use a twist that moves the image
    bad2 = GoGMorphism(A, A, m.vmap, m.emap, m.vmonos, m.emonos,
                       [(parse_word("b"), ())])
    kinds2 = {v[0] for v in validate_morphism(bad2)}
    assert "twisted-commutation" in kinds2


def test_push_apath_single_edge():
    A = bs_gog(1, 2)
    m = identity_morphism(A)
    p = APath(A, 0, [(0,), (0,)], [0])
    q = push_apath(m, p)
    assert q.edges == [0]
    assert q.elems == [(0,), (0,)]


def test_push_respects_concat_and_reduction():
    rng = Random(61)
    A = bs_gog(1, 2)
    m = identity_morphism(A)

    def rand_path():
        k = rng.randint(0, 3)
        elems = [(rng.randint(-2, 2),) for _ in range(k + 1)]
        edges = [rng.choice([0, 1]) for _ in range(k)]
        return APath(A, 0, elems, edges)

    for _ in range(50):
        p, q = rand_path(), rand_path()
        lhs = push_apath(m, apath_concat(p, q))
        rhs = apath_concat(push_apath(m, p), push_apath(m, q))
        assert apaths_equal(lhs, rhs)
        assert apaths_equal(push_apath(m, reduce_apath(p)), push_apath(m, p))


def test_realize_vertex_element():
    A = bs_gog(1, 2)
    p = APath(A, 0, [(3,)], [])
    m, base = realize_subgroup(A, 0, [p])
    assert m.source.graph.nv == 1
    assert m.source.graph.n_pairs == 0
    assert m.vertex_image_handle(base).contains((3,))
    assert not m.vertex_image_handle(base).contains((1,))
    is_immersion(m)


def test_realize_nofgip_subgroups():
    A = nofgip_gog()
    a1 = APath(A, 0, [(1, 0)], [])
    ehat = APath(A, 0, [(0, 0), (0, 0)], [0])
    ehat_a2 = APath(A, 0, [(0, 0), (0, 1)], [0])
    # C = <a1, e>
    mC, baseC = realize_subgroup(A, 0, [a1, ehat])
    assert mC.source.graph.nv == 1 and mC.source.graph.n_pairs == 1
    certC = is_immersion(mC)
    assert mC.vertex_image_handle(baseC).gens == ((1, 0),)
    # edge group is <b1>
    assert mC.edge_image_handle(0).gens == ((1, 0),)
    # B = <a1, e a2>
    mB, baseB = realize_subgroup(A, 0, [a1, ehat_a2])
    assert mB.source.graph.nv == 1 and mB.source.graph.n_pairs == 1
    is_immersion(mB)
    assert mB.vertex_image_handle(baseB).gens == ((1, 0),)
    assert mB.edge_image_handle(0).gens == ((1, 0),)
    # twists: f_alpha = 1, f_omega = a2^-1 reproduces the generator
    assert mB.twists[0][0] == (0, 0)
    assert mB.twists[0][1] == (0, -1)
    assert validate_gog(mB.source) == []
    assert validate_morphism(mB) == []


def test_realize_trivial_groups_matches_stallings():
    A = rose_gog(2)
    F = FreeGroup(2)
    words = [parse_word("ab"), parse_word("abab"), parse_word("ba")]
    gens = [word_apath(A, w) for w in words]
    m, base = realize_subgroup(A, 0, gens)
    is_immersion(m)
    H = F.subgroup(words)
    # membership agreement on all short words
    from itertools import product
    for L in range(0, 7):
        for tup in product([1, -1, 2, -2], repeat=L):
            ok = True
            for i in range(L - 1):
                if tup[i] == -tup[i + 1]:
                    ok = False
                    break
            if not ok:
                continue
            w = tuple(tup)
            assert trace_apath(m, word_apath(A, w), start=base) == H.contains(w)


reduced_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12).map(wreduce)


@settings(max_examples=80, deadline=None)
@given(st.lists(reduced_words, min_size=1, max_size=8))
def test_realize_on_rose_is_the_stallings_graph(words):
    A = rose_gog(2)
    m, base = realize_subgroup(A, 0, [word_apath(A, w) for w in words])
    aut = FreeGroup(2).subgroup(words).aut
    assert m.source.graph.nv == aut.n_states
    assert m.source.graph.n_pairs == sum(len(row) for row in aut.delta) // 2
    for w in words:
        assert trace_apath(m, word_apath(A, w), start=base)


def test_realize_idempotent_on_immersion_edges():
    A = nofgip_gog()
    a1 = APath(A, 0, [(1, 0)], [])
    ehat = APath(A, 0, [(0, 0), (0, 0)], [0])
    m1, b1 = realize_subgroup(A, 0, [a1, ehat])
    # feed the realized immersion's own data back in
    gens = [push_apath(m1, APath(m1.source, b1, [m1.source.vgroups[b1].identity(),
                                                 m1.source.vgroups[b1].identity()], [0]))]
    gens.append(APath(A, 0, [(1, 0)], []))
    m2, b2 = realize_subgroup(A, 0, gens)
    assert m2.source.graph.nv == m1.source.graph.nv
    assert m2.source.graph.n_pairs == m1.source.graph.n_pairs
    assert m2.vertex_image_handle(b2).equals(m1.vertex_image_handle(b1))


def test_immersion_failure_duplicate_edges():
    # two petals with the same twist over the same target edge must fold;
    # construct a morphism directly to check the detector
    A = bs_gog(2, 3)
    Z = A.vgroups[0]
    Ze = A.egroups[0]
    graph = Graph(2, [(0, 1), (0, 1)], vnames=["v0", "v1"], enames=["f1", "f2"])
    E1, E2 = AbelianGroup.Z(), AbelianGroup.Z()
    SB0 = SubgroupBackend(Z, Z.trivial_subgroup())
    SB1 = SubgroupBackend(Z, Z.trivial_subgroup())
    Ef1 = SubgroupBackend(Ze, Ze.trivial_subgroup())
    Ef2 = SubgroupBackend(Ze, Ze.trivial_subgroup())
    B = GraphOfGroups(graph, [SB0, SB1], [Ef1, Ef2],
                      [(Mono(Ef1, SB0, []), Mono(Ef1, SB1, [])),
                       (Mono(Ef2, SB0, []), Mono(Ef2, SB1, []))])
    m = GoGMorphism(B, A, [0, 0], [0, 0],
                    [Mono(SB0, Z, []), Mono(SB1, Z, [])],
                    [Mono(Ef1, Ze, []), Mono(Ef2, Ze, [])],
                    [((0,), (0,)), ((0,), (0,))])
    with pytest.raises(ImmersionFailure) as exc:
        is_immersion(m)
    assert exc.value.kind == "edges-not-separated"


def test_immersion_vacuous_single_vertex():
    A = bs_gog(1, 2)
    Z = A.vgroups[0]
    graph = Graph(1, [], vnames=["v"], enames=[])
    SB = SubgroupBackend(Z, Z.subgroup([(5,)]))
    B = GraphOfGroups(graph, [SB], [], [])
    m = GoGMorphism(B, A, [0], [], [Mono(SB, Z, [(5,)])], [], [])
    cert = is_immersion(m)
    assert cert.vertex_blocks == {}


def test_covering_three_valued():
    A = bs_gog(1, 2)
    assert is_covering(identity_morphism(A)) is True
    # proper subgraph: single vertex, no edges, full vertex group
    Z = A.vgroups[0]
    graph = Graph(1, [], vnames=["v"], enames=[])
    SB = SubgroupBackend(Z, Z.full_subgroup())
    B = GraphOfGroups(graph, [SB], [], [])
    m = GoGMorphism(B, A, [0], [], [Mono(SB, Z, Z.generators())], [], [])
    assert is_covering(m) is False
    # free vertex group with infinite double-coset set: not decidable
    F = FreeGroup(2)
    Ze = FreeGroup(1)
    graph2 = Graph(1, [(0, 0)], vnames=["u"], enames=["e"])
    A2 = GraphOfGroups(graph2, [F], [Ze],
                       [(Mono(Ze, F, ["a"]), Mono(Ze, F, ["b"]))])
    SB2 = SubgroupBackend(F, F.subgroup(["a"]))
    graph3 = Graph(1, [], vnames=["v"], enames=[])
    B2 = GraphOfGroups(graph3, [SB2], [], [])
    m2 = GoGMorphism(B2, A2, [0], [], [Mono(SB2, F, ["a"])], [], [])
    assert is_covering(m2) is None


def test_trace_apath_bs12():
    A = bs_gog(1, 2)
    ehat = APath(A, 0, [(0,), (0,)], [0])
    a = APath(A, 0, [(1,)], [])
    m, base = realize_subgroup(A, 0, [a])
    assert trace_apath(m, APath(A, 0, [(2,)], []), start=base)
    assert not trace_apath(m, ehat, start=base)


def test_immersion_sends_reduced_to_reduced():
    A = nofgip_gog()
    a1 = APath(A, 0, [(1, 0)], [])
    ehat = APath(A, 0, [(0, 0), (0, 0)], [0])
    m, base = realize_subgroup(A, 0, [a1, ehat])
    is_immersion(m)
    B = m.source
    rng = Random(62)
    for _ in range(40):
        k = rng.randint(0, 3)
        elems = []
        edges = []
        for i in range(k):
            elems.append(B.vgroups[0].parse([rng.randint(-2, 2), 0]))
            edges.append(rng.choice([0, 1]))
        elems.append(B.vgroups[0].parse([rng.randint(-2, 2), 0]))
        p = reduce_apath(APath(B, base, elems, edges))
        assert is_reduced(push_apath(m, p))
