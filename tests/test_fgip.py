import sys

import pytest
from hypothesis import given, settings, strategies as st

from gogroups import gogio
from gogroups.backends import AbelianGroup, FreeGroup, Mono
from gogroups.fgip import (DecoratedGraph, FgipVerdict, decide_components,
                           decide_fgip_free_cyclic, decide_fgip_gbs,
                           decide_fgip_vz, extract_decoration, fgip_certify,
                           reduce_decorated, w_construction)
from gogroups.gog import GraphOfGroups, reduce_gog, validate_gog
from gogroups.graphs import Graph
from gogroups.library import (bs_gog, free_double_gog, free_hnn_gog,
                              free_product_of_finite_gog, klein_amalgam_gog,
                              nofgip_gog, segment_z_gog)

from test_linear_passes import multiplier


def deco(pairs, halves, nv=None):
    nv = nv if nv is not None else 1 + max((max(p) for p in pairs), default=0)
    g = Graph(nv, pairs)
    return DecoratedGraph(g, [h[0] for h in halves], [h[1] for h in halves])


def test_extract_decoration_bs():
    d = extract_decoration(bs_gog(2, 3))
    assert d.halves(0) == (2, 3)
    d = extract_decoration(bs_gog(-2, 3))
    assert d.halves(0) == (2, 3)
    d = extract_decoration(segment_z_gog(2, 2))
    assert d.halves(0) == (2, 2)


def test_reduce_decorated_segment():
    d = deco([(0, 1)], [(1, 5)], nv=2)
    r = reduce_decorated(d)
    assert r.graph.nv == 1 and r.graph.n_pairs == 0


def test_reduce_decorated_path_two_steps():
    d = deco([(0, 1), (1, 2)], [(1, 2), (1, 3)], nv=3)
    r = reduce_decorated(d)
    assert r.graph.nv == 1 and r.graph.n_pairs == 0


def test_reduce_decorated_keeps_bs23():
    d = deco([(0, 0)], [(2, 3)])
    r = reduce_decorated(d)
    assert r.graph.n_pairs == 1
    assert r.halves(0) == (2, 3)


def test_reduce_decorated_multiplicative_composition():
    # loop (1,2) at v, segment (1,3) from u to v: collapsing the segment
    # multiplies nothing on the loop (the collapsed vertex is u)
    d = deco([(0, 1), (1, 1)], [(1, 3), (1, 2)], nv=2)
    r = reduce_decorated(d)
    assert r.graph.nv == 1 and r.graph.n_pairs == 1
    assert r.halves(0) == (1, 2)
    # segment (1,3) out of u plus loop (1,2) at u: deleting u redirects the
    # loop and composes both its indices by 3
    d2 = deco([(0, 1), (0, 0)], [(1, 3), (1, 2)], nv=2)
    r2 = reduce_decorated(d2)
    assert r2.graph.nv == 1 and r2.graph.n_pairs == 1
    assert r2.halves(0) == (3, 6)


@st.composite
def gbs_gogs(draw):
    """Graph-of-groups files over Z only (GBS data), loops and multi-edges
    included; the Z-only case of test_linear_passes.z_and_z2_gogs."""
    nv = draw(st.integers(1, 7))
    vertex = st.integers(0, nv - 1)
    edges = [{"name": f"e{i}", "from": f"v{o}", "to": f"v{t}", "group": {"Z": True},
              "alpha": [draw(multiplier)], "omega": [draw(multiplier)]}
             for i, (o, t) in enumerate(draw(st.lists(st.tuples(vertex, vertex), max_size=10)))]
    return {"vertices": {f"v{i}": {"Z": True} for i in range(nv)},
            "edges": edges, "basepoint": f"v{draw(vertex)}"}


def decoration_data(d):
    g = d.graph
    return g.nv, g.org, g.tgt, g.vnames, g.enames, d.idx_alpha, d.idx_omega


@settings(max_examples=200, deadline=None)
@given(gbs_gogs())
def test_reduce_gog_and_reduce_decorated_agree(data):
    # the two reductions collapse the same pairs in the same order: the
    # decoration of the reduced gog is the reduced decoration
    A, base = gogio.parse_gog(data)
    assert decoration_data(extract_decoration(reduce_gog(A, base)[0])) == \
        decoration_data(reduce_decorated(extract_decoration(A)))


def test_subdivision_invariance():
    # subdividing the (m, n) edge then reducing is the identity on verdicts
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        plain = deco([(0, 0 if (m, n)[0] else 0)], [(m, n)])
        plain = deco([(0, 0)], [(m, n)])
        sub = deco([(0, 1), (1, 0)], [(m, 1), (1, n)], nv=2)
        v1 = decide_components(plain)
        v2 = decide_components(sub)
        assert v1.answer == v2.answer


def test_three_forms_yes():
    assert decide_fgip_vz(deco([], [], nv=1)).answer == "yes"
    assert decide_fgip_vz(deco([(0, 1)], [(2, 2)], nv=2)).answer == "yes"
    for k in (1, 2, 3):
        v = decide_fgip_vz(deco([(0, 0)], [(1, k)]))
        assert v.answer == "yes"
        assert "unit-side-loop" in v.certificate
    v = decide_fgip_vz(deco([(0, 0)], [(5, 1)]))
    assert v.answer == "yes"


def test_forbidden_configurations():
    v = decide_fgip_vz(deco([(0, 1)], [(2, 3)], nv=2))
    assert v.answer == "no" and "amalgam-edge-not-2-2" in v.certificate
    v = decide_fgip_vz(deco([(0, 0)], [(2, 2)]))
    assert v.answer == "no" and "loop-no-unit-side" in v.certificate
    # two (2,2) edges sharing a vertex
    v = decide_fgip_vz(deco([(0, 1), (1, 2)], [(2, 2), (2, 2)], nv=3))
    assert v.answer == "no" and "adjacent-2-2-edges" in v.certificate
    # parallel (2,2) edges
    v = decide_fgip_vz(deco([(0, 1), (0, 1)], [(2, 2), (2, 2)], nv=2))
    assert v.answer == "no" and "adjacent-2-2-edges" in v.certificate
    # two unit loops at one vertex
    v = decide_fgip_vz(deco([(0, 0), (0, 0)], [(1, 1), (1, 1)]))
    assert v.answer == "no" and "two-unit-loops-at-vertex" in v.certificate
    # (2,2)-edge meeting a (1,k)-loop
    v = decide_fgip_vz(deco([(0, 1), (1, 1)], [(2, 2), (1, 2)], nv=2))
    assert v.answer == "no" and "2-2-edge-with-unit-loop" in v.certificate


def test_verdict_configuration_is_present():
    # the named configuration can be re-checked by a pattern scan
    v = decide_fgip_vz(deco([(0, 1), (1, 1)], [(2, 2), (1, 2)], nv=2))
    assert "e0" in v.certificate and "e1" in v.certificate


def test_gbs_truth_table():
    yes = [bs_gog(1, 1), bs_gog(1, 2), bs_gog(1, 3), bs_gog(1, 5)]
    for A in yes:
        assert decide_fgip_gbs(A).answer == "yes"
    no = [bs_gog(2, 3), bs_gog(2, 2), bs_gog(3, 3)]
    for A in no:
        assert decide_fgip_gbs(A).answer == "no"
    # plain Z: a single vertex, no edges
    Z = AbelianGroup.Z()
    A = GraphOfGroups(Graph(1, [], vnames=["u"], enames=[]), [Z], [], [])
    assert decide_fgip_gbs(A).answer == "yes"


def test_klein_amalgam_yes():
    assert decide_fgip_gbs(klein_amalgam_gog()).answer == "yes"
    assert decide_fgip_gbs(segment_z_gog(2, 3)).answer == "no"


def test_w_construction_double_squares():
    A = free_double_gog("aa", "aa")
    W, d, book = w_construction(A)
    assert validate_gog(W) == []
    assert W.graph.nv == 2
    assert d.halves(0) == (2, 2)
    v = decide_fgip_free_cyclic(A)
    assert v.answer == "yes"


def test_w_construction_double_cubes():
    A = free_double_gog("aaa", "aaa")
    W, d, book = w_construction(A)
    assert d.halves(0) == (3, 3)
    assert decide_fgip_free_cyclic(A).answer == "no"


def test_w_construction_double_primitives():
    A = free_double_gog("ab", "ab")
    W, d, book = w_construction(A)
    assert d.halves(0) == (1, 1)
    assert decide_fgip_free_cyclic(A).answer == "yes"


def test_w_construction_mixed_roots():
    A = free_double_gog("aa", "aaa")
    W, d, book = w_construction(A)
    assert d.halves(0) == (2, 3)
    assert decide_fgip_free_cyclic(A).answer == "no"


def test_w_construction_hnn_loop():
    # loop alpha -> a^2, omega -> a^3: both halves share the commensurator <a>
    A = free_hnn_gog("aa", "aaa")
    W, d, book = w_construction(A)
    assert W.graph.nv == 1
    assert W.graph.n_pairs == 1
    assert d.halves(0) == (2, 3)
    assert decide_fgip_free_cyclic(A).answer == "no"
    # BS(1,2) as free data
    A = free_hnn_gog("a", "aa")
    assert decide_fgip_free_cyclic(A).answer == "yes"


def test_w_construction_distinct_classes():
    # two loops with alpha-images a^2 and b^3: distinct commensurator classes
    F = FreeGroup(2)
    Z1, Z2 = FreeGroup(1), FreeGroup(1)
    g = Graph(1, [(0, 0), (0, 0)], vnames=["u"], enames=["e1", "e2"])
    A = GraphOfGroups(g, [F], [Z1, Z2],
                      [(Mono(Z1, F, ["aa"]), Mono(Z1, F, ["aa"])),
                       (Mono(Z2, F, ["bbb"]), Mono(Z2, F, ["bbb"]))])
    W, d, book = w_construction(A)
    # classes: <a> (for e1 and its inverse) and <b> (for e2 and its inverse)
    assert W.graph.nv == 2
    assert decide_fgip_free_cyclic(A).answer == "no"


def test_w_construction_conjugate_roots_merge():
    # alpha-images ab and b.a.b^-1... use (ab)^2 and (ba)^2: roots ab and ba
    # are conjugate, so the two loops share one commensurator vertex
    F = FreeGroup(2)
    Z1, Z2 = FreeGroup(1), FreeGroup(1)
    g = Graph(1, [(0, 0), (0, 0)], vnames=["u"], enames=["e1", "e2"])
    A = GraphOfGroups(g, [F], [Z1, Z2],
                      [(Mono(Z1, F, ["abab"]), Mono(Z1, F, ["abab"])),
                       (Mono(Z2, F, ["baba"]), Mono(Z2, F, ["baba"]))])
    W, d, book = w_construction(A)
    assert W.graph.nv == 1


def test_pipeline_consistency_gbs_vs_free():
    # graphs presented both as Z-data and rank-1 free data agree
    for m, n, expect in [(1, 2, "yes"), (2, 3, "no"), (2, 2, "no"), (1, 1, "yes")]:
        z_route = decide_fgip_gbs(bs_gog(m, n)).answer
        free_route = decide_fgip_free_cyclic(free_hnn_gog("a" * m, "a" * n, rank=1)).answer
        assert z_route == free_route == expect


def test_fgip_certify_routes():
    t2 = [[0, 1], [1, 0]]
    t3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    A = free_product_of_finite_gog(t2, t3)
    v = fgip_certify(A)
    assert v.answer == "yes"
    assert v.certificate == "finite-edge-groups-with-fgip-vertices"
    assert fgip_certify(bs_gog(1, 2)).answer == "yes"
    assert fgip_certify(bs_gog(2, 3)).answer == "no"
    assert fgip_certify(free_double_gog("aa", "aa")).answer == "yes"
    assert fgip_certify(nofgip_gog()).answer == "unknown"


def test_decide_rejects_unreduced():
    with pytest.raises(ValueError):
        decide_fgip_vz(deco([(0, 1)], [(1, 2)], nv=2))
    with pytest.raises(ValueError):
        decide_fgip_vz(deco([], [], nv=2))


# ---------------------------------------------------------------------------
# decide_components: one grouping pass against the per-component rescan
# ---------------------------------------------------------------------------


def decide_components_by_rescan(d):
    """The per-component loop decide_components had before it grouped the
    vertices and pairs in one pass: one scan of the graph per component."""
    red = reduce_decorated(d)
    n, comp = red.graph.connected_components()
    verdicts = []
    for c in range(max(n, 1)):
        keep_v = [v for v in range(red.graph.nv) if comp and comp[v] == c]
        if not comp:
            keep_v = list(range(red.graph.nv))
        vset = set(keep_v)
        keep_p = [p for p in range(red.graph.n_pairs) if red.graph.org[p] in vset]
        vmap = {v: i for i, v in enumerate(keep_v)}
        sub = Graph(len(keep_v),
                    [(vmap[red.graph.org[p]], vmap[red.graph.tgt[p]]) for p in keep_p],
                    vnames=[red.graph.vnames[v] for v in keep_v],
                    enames=[red.graph.enames[p] for p in keep_p])
        dd = DecoratedGraph(sub, [red.idx_alpha[p] for p in keep_p],
                            [red.idx_omega[p] for p in keep_p])
        verdicts.append(decide_fgip_vz(dd))
        if n == 0:
            break
    answer = "yes" if all(v.answer == "yes" for v in verdicts) else "no"
    cert = "; ".join(v.certificate for v in verdicts)
    return FgipVerdict(answer, cert, components=[v.certificate for v in verdicts])


@st.composite
def decorated_multi_component(draw):
    """Several small components, interleaved by a random vertex order, with
    named vertices and edges and indices 1, 2, 3 or infinite."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    order = draw(st.permutations(range(sum(sizes))))
    index = st.sampled_from([1, 2, 2, 3, None])
    pairs, halves, first = [], [], 0
    for n in sizes:
        vertex = st.integers(first, first + n - 1).map(order.__getitem__)
        for _ in range(draw(st.integers(0, 3))):
            pairs.append((draw(vertex), draw(vertex)))
            halves.append((draw(index), draw(index)))
        first += n
    g = Graph(first, pairs, vnames=[f"x{v}" for v in range(first)],
              enames=[f"p{p}" for p in range(len(pairs))])
    return DecoratedGraph(g, [a for a, _ in halves], [w for _, w in halves])


@settings(max_examples=200, deadline=None)
@given(decorated_multi_component())
def test_decide_components_matches_the_rescan(d):
    assert decide_components(d) == decide_components_by_rescan(d)


def test_decide_components_of_the_empty_graph():
    got = decide_components(deco([], [], nv=0))
    assert got == decide_components_by_rescan(deco([], [], nv=0))
    assert (got.answer, got.components) == ("yes", ["single-vertex"])


def line_events(fn, *args):
    """Lines of gogroups code run by fn(*args), a count of its work that does
    not depend on the machine."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    sys.settrace(lambda frame, event, arg:
                 local if "gogroups" in frame.f_code.co_filename else None)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def test_decide_components_is_linear_on_a_forest():
    # n disjoint (2,2) edges: n components, each decided "yes"
    def forest(n):
        return deco([(2 * i, 2 * i + 1) for i in range(n)], [(2, 2)] * n)

    assert decide_components(forest(3)).components == ["single-2-2-edge"] * 3
    w100, w200, w400 = (line_events(decide_components, forest(n)) for n in (100, 200, 400))
    # the work is affine in n: each component adds the same number of lines
    assert w400 - w200 == 2 * (w200 - w100)
