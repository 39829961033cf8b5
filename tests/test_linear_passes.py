"""Oracle tests for the linear-time structural passes.

Each pass is compared with the algorithm it replaced, kept here as the
reference: `graphs.core` with one turn closure per directed edge,
`fgip.reduce_decorated` and `gog.reduce_gog` with the rescan for the first
collapsible pair after every collapse, `fgip.w_construction` with the search
for an edge's class among every class made so far, and `realize_subgroup`
with a saturation sweep that calls the full `saturate_edge` on every live
edge in every round.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from gogroups import gogio
from gogroups.backends import AbelianGroup, FiniteGroup, FreeGroup, Mono
from gogroups.fgip import DecoratedGraph, reduce_decorated, w_construction
from gogroups.gog import (APath, GraphOfGroups, gog_core, gog_core_at, reduce_apath,
                          reduce_gog)
from gogroups.graphs import Graph, core, einv, subgraph
from gogroups.library import (bs_gog, free_product_of_finite_gog, rose_gog,
                              segment_z_gog)
from gogroups.morphism import BudgetExceeded, _Builder, realize_subgroup
from gogroups.words import cyclic_conjugate

from test_golden import _path

# ---------------------------------------------------------------------------
# graphs.core
# ---------------------------------------------------------------------------


def core_by_closure(g, allow_backtrack):
    """The edges e that reach themselves by allowed turns, one closure each."""
    out_at = g.out_edges()

    def closure(e0):
        seen, stack = set(), [e0]
        while stack:
            e = stack.pop()
            for e2 in out_at[g.t(e)]:
                if e2 == einv(e) and not allow_backtrack(e):
                    continue
                if e2 not in seen:
                    seen.add(e2)
                    stack.append(e2)
        return seen

    pairs = sorted({e >> 1 for e in g.edges() if e in closure(e)})
    verts = sorted({v for p in pairs for v in (g.org[p], g.tgt[p])})
    return subgraph(g, verts, [(p, g.org[p], g.tgt[p]) for p in pairs])[0]


def graph_key(g):
    return g.nv, g.org, g.tgt, g.vnames, g.enames


@st.composite
def graphs_with_backtracks(draw):
    """Small graphs, loops and multi-edges included, with a random rule for
    the backtrack turns."""
    nv = draw(st.integers(1, 6))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    allow = draw(st.lists(st.booleans(), min_size=2 * len(pairs),
                          max_size=2 * len(pairs)))
    return Graph(nv, pairs), allow


@settings(max_examples=400, deadline=None)
@given(graphs_with_backtracks())
def test_core_matches_per_edge_closure(case):
    g, allow = case
    assert graph_key(core(g, allow.__getitem__)[0]) == \
        graph_key(core_by_closure(g, allow.__getitem__))
    assert graph_key(core(g)[0]) == graph_key(core_by_closure(g, lambda e: False))


def test_core_of_a_long_cycle_needs_no_recursion():
    n = 5000
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    assert core(g)[0].n_pairs == n


def gbs_gog():
    """A graph of Z groups with surjective and non-surjective ends, a loop
    and a multi-edge."""
    Z = [AbelianGroup.Z() for _ in range(4)]
    pairs = [(0, 1, 1, 2), (1, 2, 3, 1), (1, 2, 2, 2), (2, 3, 1, 1), (3, 3, 2, 3),
             (0, 3, 1, 5)]
    egroups, monos = [], []
    for o, t, m, n in pairs:
        Ze = AbelianGroup.Z()
        egroups.append(Ze)
        monos.append((Mono(Ze, Z[o], [(m,)]), Mono(Ze, Z[t], [(n,)])))
    return GraphOfGroups(Graph(4, [(o, t) for o, t, _, _ in pairs]), Z, egroups, monos)


@pytest.mark.parametrize("core_of", [gog_core, lambda A: gog_core_at(A, 0)],
                         ids=["gog_core", "gog_core_at"])
def test_core_tests_each_directed_edge_once(core_of):
    A = gbs_gog()
    calls = []
    surjective = A.omega_surjective
    A.omega_surjective = lambda e: calls.append(e) or surjective(e)
    core_of(A)
    assert sorted(calls) == list(A.graph.edges())


# ---------------------------------------------------------------------------
# fgip.reduce_decorated
# ---------------------------------------------------------------------------


def reduce_by_rescan(d):
    """Collapse the first collapsible pair, re-home every half at the dying
    vertex, and scan again from the first pair."""
    g = d.graph
    org, tgt = list(g.org), list(g.tgt)
    ia, io = list(d.idx_alpha), list(d.idx_omega)
    alive_v = [True] * g.nv
    alive_p = [True] * g.n_pairs

    def find_collapsible():
        for p in range(len(org)):
            if not alive_p[p] or org[p] == tgt[p]:
                continue
            if ia[p] == 1:
                return 2 * p
            if io[p] == 1:
                return 2 * p + 1
        return None

    while (e0 := find_collapsible()) is not None:
        p0 = e0 >> 1
        if e0 & 1 == 0:
            u, u2, n0 = org[p0], tgt[p0], io[p0]
        else:
            u, u2, n0 = tgt[p0], org[p0], ia[p0]
        alive_p[p0] = False
        alive_v[u] = False
        for p in range(len(org)):
            if not alive_p[p]:
                continue
            if tgt[p] == u:
                tgt[p] = u2
                io[p] = None if (io[p] is None or n0 is None) else io[p] * n0
            if org[p] == u:
                org[p] = u2
                ia[p] = None if (ia[p] is None or n0 is None) else ia[p] * n0
    keep_v = [v for v in range(g.nv) if alive_v[v]]
    vmap = {v: i for i, v in enumerate(keep_v)}
    keep_p = [p for p in range(g.n_pairs) if alive_p[p]]
    graph = Graph(len(keep_v), [(vmap[org[p]], vmap[tgt[p]]) for p in keep_p],
                  vnames=[g.vnames[v] for v in keep_v],
                  enames=[g.enames[p] for p in keep_p])
    return DecoratedGraph(graph, [ia[p] for p in keep_p], [io[p] for p in keep_p])


def decorated_key(d):
    return graph_key(d.graph), d.idx_alpha, d.idx_omega


# units are drawn often, so that collapses chain; None is the infinite index
half_index = st.one_of(st.none(), st.just(1), st.integers(1, 4))


@st.composite
def decorated_graphs(draw):
    nv = draw(st.integers(1, 8))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    ia = draw(st.lists(half_index, min_size=len(pairs), max_size=len(pairs)))
    io = draw(st.lists(half_index, min_size=len(pairs), max_size=len(pairs)))
    return DecoratedGraph(Graph(nv, pairs), ia, io)


@settings(max_examples=500, deadline=None)
@given(decorated_graphs())
def test_reduce_decorated_matches_rescan(d):
    assert decorated_key(reduce_decorated(d)) == decorated_key(reduce_by_rescan(d))


def test_reduce_decorated_long_unit_chain():
    # a path whose every edge has a unit at its near end collapses onto its
    # last vertex, and the loop at its first vertex is carried along,
    # picking up a factor 2 per collapse
    n = 2000
    pairs = [(i, i + 1) for i in range(n)] + [(0, 0)]
    d = DecoratedGraph(Graph(n + 1, pairs), [1] * n + [3], [2] * n + [5])
    red = reduce_decorated(d)
    assert decorated_key(red) == decorated_key(reduce_by_rescan(d))
    assert red.graph.nv == 1 and red.graph.vnames == [f"v{n}"]
    assert (red.idx_alpha, red.idx_omega) == ([3 * 2 ** n], [5 * 2 ** n])


# ---------------------------------------------------------------------------
# gog.reduce_gog
# ---------------------------------------------------------------------------


def reduce_gog_by_rescan(A, basepoint):
    """Collapse the first collapsible directed edge, rebuild the graph of
    groups with every end at the dying vertex re-homed, and scan again from
    the first edge."""
    cur = A
    base = basepoint
    while True:
        g = cur.graph
        target_edge = None
        for e in range(2 * g.n_pairs):
            if g.o(e) == g.t(e):
                continue
            if cur.alpha(e).index_of_image() == 1:
                target_edge = e
                break
        if target_edge is None:
            return cur, base
        e0 = target_edge
        u = g.o(e0)
        u2 = g.t(e0)
        through = cur.omega(e0).compose(cur.alpha(e0).inverse())  # A_u -> A_{u2}
        new_org = list(g.org)
        new_tgt = list(g.tgt)
        new_monos = [list(m) for m in cur.monos]
        for p in range(g.n_pairs):
            if p == e0 >> 1:
                continue
            # positive half 2p has omega at tgt[p]; negative half at org[p]
            if new_tgt[p] == u:
                new_monos[p][1] = through.compose(new_monos[p][1])
                new_tgt[p] = u2
            if new_org[p] == u:
                new_monos[p][0] = through.compose(new_monos[p][0])
                new_org[p] = u2
        keep_pairs = [p for p in range(g.n_pairs) if p != e0 >> 1]
        keep_verts = [v for v in range(g.nv) if v != u]
        vmap = {v: i for i, v in enumerate(keep_verts)}
        pairs = [(vmap[new_org[p]], vmap[new_tgt[p]]) for p in keep_pairs]
        graph = Graph(len(keep_verts), pairs,
                      vnames=[g.vnames[v] for v in keep_verts],
                      enames=[g.enames[p] for p in keep_pairs])
        cur = GraphOfGroups(graph,
                            [cur.vgroups[v] for v in keep_verts],
                            [cur.egroups[p] for p in keep_pairs],
                            [tuple(new_monos[p]) for p in keep_pairs])
        base = vmap[u2 if base == u else base]


Z2 = {"abelian": {"rank": 2, "torsion": []}}
# Z multipliers, units drawn often so that collapses chain; Z^2 -> Z^2 maps
# by row images, unimodular (index 1) or of determinant +-2 or 3
multiplier = st.sampled_from([1, -1, 1, -1, 2, -2, 3])
square = st.sampled_from([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]],
                          [[-1, 0], [0, 1]], [[1, 0], [2, -1]], [[2, 0], [0, 1]],
                          [[1, 1], [-1, 1]], [[1, 0], [0, 3]]])
vector = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any).map(list)


@st.composite
def z_and_z2_gogs(draw):
    """Graph-of-groups files over Z and Z^2 vertex groups, loops and
    multi-edges included.  An edge between two Z^2 vertices has group Z^2
    or Z; every other edge has group Z, of infinite index in a Z^2 end."""
    nv = draw(st.integers(1, 7))
    ranks = draw(st.lists(st.sampled_from([1, 1, 2]), min_size=nv, max_size=nv))
    vertex = st.integers(0, nv - 1)
    edges = []
    for i, (o, t) in enumerate(draw(st.lists(st.tuples(vertex, vertex), max_size=10))):
        square_edge = ranks[o] == ranks[t] == 2 and draw(st.booleans())

        def images(r):
            if square_edge:
                return draw(square)
            return [draw(multiplier) if r == 1 else draw(vector)]

        edges.append({"name": f"e{i}", "from": f"v{o}", "to": f"v{t}",
                      "group": Z2 if square_edge else {"Z": True},
                      "alpha": images(ranks[o]), "omega": images(ranks[t])})
    return {"vertices": {f"v{i}": {"Z": True} if r == 1 else Z2 for i, r in enumerate(ranks)},
            "edges": edges, "basepoint": f"v{draw(vertex)}"}


def reduced_file(R, base):
    return json.dumps(gogio.serialize_gog(R, basepoint=base), sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(z_and_z2_gogs())
def test_reduce_gog_matches_rescan(data):
    A, base = gogio.parse_gog(data)
    R, b = reduce_gog(A, base)
    R0, b0 = reduce_gog_by_rescan(A, base)
    assert reduced_file(R, b) == reduced_file(R0, b0)
    assert b == b0


def broom(k, chain, leaves_first):
    """A root u with k leaves by (2, 2) edges and a unit chain u -> c1 -> ...
    -> c_chain: each chain edge collapses its origin into its target, so the
    root and its leaf ends move down the whole chain."""
    chain_edges = [{"name": f"s{i}", "from": "u" if i == 1 else f"c{i - 1}", "to": f"c{i}",
                    "group": {"Z": True}, "alpha": [1], "omega": [-1 if i % 2 else 1]}
                   for i in range(1, chain + 1)]
    leaf_edges = [{"name": f"l{i}", "from": "u", "to": f"x{i}", "group": {"Z": True},
                   "alpha": [2], "omega": [2]} for i in range(k)]
    names = ["u"] + [f"c{i}" for i in range(1, chain + 1)] + [f"x{i}" for i in range(k)]
    return {"vertices": {n: {"Z": True} for n in names},
            "edges": leaf_edges + chain_edges if leaves_first else chain_edges + leaf_edges,
            "basepoint": "u"}


@pytest.mark.parametrize("leaves_first", [True, False], ids=["leaves-first", "chain-first"])
def test_reduce_gog_broom_is_linear(leaves_first, monkeypatch):
    k = chain = 60
    A, base = gogio.parse_gog(broom(k, chain, leaves_first))
    counts = {"compose": 0, "index_of_image": 0}
    for name in counts:
        def counted(self, *args, _f=getattr(Mono, name), _name=name):
            counts[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(Mono, name, counted)
    R, b = reduce_gog(A, base)
    monkeypatch.undo()
    assert (R.graph.nv, R.graph.n_pairs, R.graph.vnames[b]) == (k + 1, k, f"c{chain}")
    # the rescan composes k leaf ends per collapse, or passes k leaf edges
    # per rescan: k * chain calls, 3600 here
    assert counts["compose"] <= 4 * (k + chain)
    assert counts["index_of_image"] <= 4 * (k + chain)
    assert reduced_file(R, b) == reduced_file(*reduce_gog_by_rescan(A, base))


# ---------------------------------------------------------------------------
# fgip.w_construction
# ---------------------------------------------------------------------------


def w_classes_by_full_scan(A, roots):
    """Commensurator classes as w_construction used to find them: each edge
    is tried against every class made so far, skipping those at other
    vertices."""
    g = A.graph
    class_of, class_data = {}, []
    out = g.out_edges()
    for v in range(g.nv):
        for e in sorted(out[v], key=lambda e: (g.enames[e >> 1], e & 1)):
            placed = False
            for ci, data in enumerate(class_data):
                if data["vertex"] != v:
                    continue
                x = cyclic_conjugate(roots[e], data["root"])
                if x is not None:
                    class_of[e] = ci
                    data["members"][e] = x
                    placed = True
                    break
            if not placed:
                class_of[e] = len(class_data)
                class_data.append({"rep_edge": e, "vertex": v,
                                   "root": roots[e], "members": {e: None}})
    return class_of, class_data


# few short words, so that roots are often conjugate or equal up to inversion
edge_word = st.sampled_from(["a", "A", "aa", "aaa", "b", "bb", "ab", "ba", "BA", "aB",
                             "abab", "baba", "aab", "aba", "baa"])


@st.composite
def free_cyclic_gogs(draw):
    """F2 vertices joined by cyclic edge groups (encoded as Z or as F1),
    loops, multi-edges and repeated edge names included."""
    nv = draw(st.integers(1, 5))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=9))
    vgroups = [FreeGroup(2) for _ in range(nv)]
    egroups, monos = [], []
    for o, t in pairs:
        E = AbelianGroup.Z() if draw(st.booleans()) else FreeGroup(1)
        egroups.append(E)
        monos.append((Mono(E, vgroups[o], [draw(edge_word)]),
                      Mono(E, vgroups[t], [draw(edge_word)])))
    enames = draw(st.lists(st.sampled_from("efg"), min_size=len(pairs), max_size=len(pairs)))
    return GraphOfGroups(Graph(nv, pairs, enames=enames), vgroups, egroups, monos)


@settings(max_examples=300, deadline=None)
@given(free_cyclic_gogs())
def test_w_construction_matches_full_scan(A):
    W, d, book = w_construction(A)
    assert (book["class_of"], book["classes"]) == w_classes_by_full_scan(A, book["roots"])


# ---------------------------------------------------------------------------
# realize_subgroup
# ---------------------------------------------------------------------------


def realize_full_sweep(A, u0, generators, budget=2000):
    """realize_subgroup with every live edge saturated, push included, in
    every round; also returns how many saturation calls grew something."""
    b = _Builder(A, u0)
    for p in generators:
        b.add_generator(reduce_apath(p))
    steps = grown = 0
    while True:
        progress = False
        while (found := b.find_fold()) is not None:
            b.merge(*found)
            progress = True
            steps += 1
            if steps > budget:
                raise BudgetExceeded(b.to_morphism())
        for i, d in enumerate(b.edges):
            if not d["alive"]:
                continue
            d["pushed"] = False
            if b.saturate_edge(i):
                progress = True
                grown += 1
                steps += 1
                if steps > budget:
                    raise BudgetExceeded(b.to_morphism())
        if not progress:
            break
    b.trim()
    return b.to_morphism(), grown


def immersion_key(m, base):
    S = m.source
    return (base, graph_key(S.graph), m.vmap, m.emap, m.twists,
            [G.handle.gens for G in S.vgroups], [E.handle.gens for E in S.egroups])


def outcome(realize, A, gens, budget):
    try:
        return "done", realize(A, 0, gens, budget)
    except BudgetExceeded as exc:
        return "budget", exc.partial


def assert_same_realization(A, gens, budget=400):
    kind, (m, base) = outcome(realize_subgroup, A, gens, budget)
    ref_kind, ref = outcome(realize_full_sweep, A, gens, budget)
    if ref_kind == "done":
        (ref_m, ref_base), grown = ref
    else:
        ref_m, ref_base = ref
        grown = None
    assert kind == ref_kind
    assert immersion_key(m, base) == immersion_key(ref_m, ref_base)
    return grown


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def sl2z_gog():
    """Z/4 *_{Z/2} Z/6: a finite amalgam whose edge group is not trivial."""
    Z4, Z6, Z2 = (FiniteGroup(cyclic_table(n)) for n in (4, 6, 2))
    return GraphOfGroups(Graph(2, [(0, 1)], vnames=["u", "v"], enames=["e"]),
                         [Z4, Z6], [Z2], [(Mono(Z2, Z4, [2]), Mono(Z2, Z6, [3]))])


def _load_gog(path):
    return gogio.parse_gog(gogio.load(path))[0]


def _generators(A, path):
    return [gogio.parse_apath(p, A, 0) for p in gogio.load(path)["generators"]]


def zsq_gog():
    return _load_gog(_path("zsquared_hnn"))


def loop_paths(A, elem):
    """Closed A-paths at the single vertex of a graph of groups with loops."""
    step = st.tuples(st.sampled_from(list(A.graph.edges())), elem)
    return st.builds(lambda a0, steps: APath(A, 0, [a0] + [x for _, x in steps],
                                             [e for e, _ in steps]),
                     elem, st.lists(step, max_size=4))


def amalgam_paths(A, order_u, order_v):
    """Closed A-paths at u of a two-vertex, one-edge graph of finite groups."""
    at_u, at_v = st.integers(0, order_u - 1), st.integers(0, order_v - 1)
    trip = st.tuples(at_v, at_u)
    return st.builds(lambda a0, trips: APath(A, 0, [a0] + [x for t in trips for x in t],
                                             [0, 1] * len(trips)),
                     at_u, st.lists(trip, max_size=3))


small_int = st.integers(-3, 3)
FAMILIES = {
    "bs12": (bs_gog(1, 2), lambda A: loop_paths(A, small_int.map(lambda k: (k,)))),
    "bs24": (bs_gog(2, 4), lambda A: loop_paths(A, small_int.map(lambda k: (k,)))),
    "zsq": (zsq_gog(), lambda A: loop_paths(A, st.tuples(small_int, small_int))),
    "rose3": (rose_gog(3), lambda A: loop_paths(A, st.just(0))),
    "z2_z3": (free_product_of_finite_gog(cyclic_table(2), cyclic_table(3)),
              lambda A: amalgam_paths(A, 2, 3)),
    "sl2z": (sl2z_gog(), lambda A: amalgam_paths(A, 4, 6)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_realize_matches_full_sweep(family, data):
    A, paths = FAMILIES[family]
    gens = data.draw(st.lists(paths(A), min_size=1, max_size=3))
    assert_same_realization(A, gens)


FIXED = {
    "bs12-golden": (lambda: _load_gog(_path("bs_1_2")),
                    ["inputs/bs_1_2_sub_P", "inputs/bs_1_2_sub_Q"]),
    "zsq": (zsq_gog, ["zsquared_hnn_sub_B", "zsquared_hnn_sub_C"]),
    "z2_z3": (lambda: _load_gog(_path("inputs/modular")),
              ["inputs/modular_sub_P", "inputs/modular_sub_Q"]),
}


def fixed_cases():
    for label, (make, files) in FIXED.items():
        A = make()
        for f in files:
            yield label + ":" + f, A, _generators(A, _path(f))
    A = bs_gog(2, 4)
    yield "bs24", A, [APath(A, 0, [(1,), (0,)], [0]), APath(A, 0, [(0,), (1,), (0,)], [0, 1])]
    A = sl2z_gog()
    # <2> at u contains the edge group's image, which saturation pushes to v
    yield "sl2z", A, [APath(A, 0, [2], []), APath(A, 0, [0, 1, 1], [0, 1])]
    A = segment_z_gog(2, 3)
    yield "segment", A, [APath(A, 0, [(1,), (1,), (0,)], [0, 1])]


FIXED_CASES = list(fixed_cases())
# fixed inputs on which some saturation call grows a group
GROWING = {"bs12-golden:inputs/bs_1_2_sub_P", "bs24", "sl2z", "zsq:zsquared_hnn_sub_B"}


@pytest.mark.parametrize("label,A,gens", FIXED_CASES, ids=[c[0] for c in FIXED_CASES])
def test_realize_matches_full_sweep_on_fixed_inputs(label, A, gens):
    grown = assert_same_realization(A, gens)
    assert grown or label not in GROWING


def _pushed_edges_lie_in_their_ends(b):
    A = b.A
    for d in b.edges:
        if not (d["alive"] and d["pushed"]):
            continue
        e = d["img"]
        Go, Gt = A.vgroups[A.graph.o(e)], A.vgroups[A.graph.t(e)]
        for s in d["esub"].gens:
            assert b.verts[d["src"]]["sub"].contains(
                Go.mul(Go.mul(d["ta"], A.alpha(e).apply(s)), Go.inv(d["ta"])))
            assert b.verts[d["dst"]]["sub"].contains(
                Gt.mul(Gt.mul(d["tw"], A.omega(e).apply(s)), Gt.inv(d["tw"])))


def _touched_vertices_dirty_their_edges(b, subs_before, inc_before):
    """A vertex whose subgroup was replaced or which gained edges has all its
    live edges in dirty_edges."""
    for y, vert in enumerate(b.verts):
        if not vert["alive"]:
            continue
        if vert["sub"] is not subs_before[y] or not b.inc[y] <= inc_before[y]:
            assert {i for i, _ in b.inc[y]} <= b.dirty_edges, y


@pytest.mark.parametrize("label,A,gens", FIXED_CASES, ids=[c[0] for c in FIXED_CASES])
def test_builder_worklist_invariants(monkeypatch, label, A, gens):
    """After every merge and saturation step: the edges at a touched vertex
    are dirty, and an edge marked pushed has its pushed edge group inside
    both endpoint subgroups."""
    checked = []
    for name in ("merge", "saturate_edge"):
        original = getattr(_Builder, name)

        def checking(self, *args, _original=original):
            subs = [v["sub"] for v in self.verts]
            inc = [set(views) for views in self.inc]
            result = _original(self, *args)
            _touched_vertices_dirty_their_edges(self, subs, inc)
            _pushed_edges_lie_in_their_ends(self)
            checked.append(name)
            return result

        monkeypatch.setattr(_Builder, name, checking)
    realize_subgroup(A, 0, gens)
    assert "saturate_edge" in checked
