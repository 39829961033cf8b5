from itertools import product

from gogroups.graphs import (Graph, core, core_at, einv,
                             fiber_product, validate_graph)


def circle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def segment(n):
    """Path with n edges, n+1 vertices."""
    return Graph(n + 1, [(i, i + 1) for i in range(n)])


def rose(k):
    return Graph(1, [(0, 0) for _ in range(k)])


def exhaustive_core_edges(g, max_len=12):
    """Oracle: positive pairs lying on some cyclically reduced circuit,
    found by exhaustive circuit search."""
    found = set()
    edges = list(g.edges())

    def extend(walk):
        if len(walk) > max_len:
            return
        last = walk[-1]
        for e in edges:
            if g.o(e) != g.t(last) or e == einv(last):
                continue
            if e == walk[0] and g.o(walk[0]) == g.t(last):
                # closed and cyclically reduced (wrap turn checked below)
                pass
            nw = walk + [e]
            if g.t(e) == g.o(nw[0]) and nw[-1] != einv(nw[0]):
                for x in nw:
                    found.add(x >> 1)
            extend(nw)

    for e in edges:
        if g.t(e) == g.o(e) :
            found.add(e >> 1)
        extend([e])
    return found


def test_validate_examples():
    g = Graph(2, [(0, 1)])
    assert validate_graph(g) == []
    assert validate_graph(circle(3)) == []


def test_involution_is_fixpoint_free_by_construction():
    g = Graph(2, [(0, 1)])
    for e in g.edges():
        assert einv(e) != e
        assert einv(einv(e)) == e
        assert g.t(einv(e)) == g.o(e)


def test_core_tree_empty():
    assert core(segment(3))[0].nv == 0


def test_core_circle_with_pendant():
    # circle 0-1-2-0 plus pendant 0-3
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    c, vmap, pairs = core(g)
    assert c.nv == 3 and c.n_pairs == 3
    assert list(vmap) == [0, 1, 2] and pairs == [0, 1, 2]


def test_core_wedge():
    g = rose(2)
    c = core(g)[0]
    assert c.nv == 1 and c.n_pairs == 2


def test_core_idempotent_and_oracle():
    graphs = [
        segment(2),
        circle(4),
        Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
        Graph(3, [(0, 1), (1, 2), (2, 0), (0, 0)]),
        rose(2),
    ]
    for g in graphs:
        c = core(g)[0]
        again = core(c)[0]
        assert (again.nv, again.n_pairs) == (c.nv, c.n_pairs)
        kept = {c.enames[p] for p in range(c.n_pairs)}
        oracle = {g.enames[p] for p in exhaustive_core_edges(g)}
        assert kept == oracle


def test_core_at_examples():
    # circle 0-1-2-0 with pendant segment 0-3
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    on_circle = core_at(g, 0)[0]
    assert on_circle.n_pairs == 3 and on_circle.nv == 3
    at_tip = core_at(g, 3)[0]
    assert at_tip.n_pairs == 4 and at_tip.nv == 4
    tree, vmap, pairs = core_at(segment(2), 1)
    assert tree.nv == 1 and tree.n_pairs == 0
    assert vmap == {1: 0} and pairs == []


def test_fiber_product_diagonal():
    g = circle(3)
    ident = {"v": list(range(3)), "e": {e: e for e in g.edges()}}
    prod, p1, p2 = fiber_product(g, g, ident, ident)
    diag = [i for i, (a, b) in enumerate(
        [(p1["v"][i], p2["v"][i]) for i in range(prod.nv)]) if a == b]
    assert len(diag) == 3


def test_fiber_product_rose():
    # both rank-2 roses collapse onto the rank-1 rose: 4 loop-pairs appear
    r = rose(2)
    to_r1 = {"v": [0], "e": {0: 0, 1: 1, 2: 0, 3: 1}}
    prod, _, _ = fiber_product(r, r, to_r1, to_r1)
    assert prod.nv == 1
    assert prod.n_pairs == 4
    # identity morphisms give the diagonal copy
    ident = {"v": [0], "e": {e: e for e in r.edges()}}
    diag, _, _ = fiber_product(r, r, ident, ident)
    assert diag.nv == 1 and diag.n_pairs == 2


def test_fiber_product_two_double_covers():
    # two 2-fold covers of the circle: product is two disjoint circles
    c1 = Graph(2, [(0, 1), (1, 0)])
    c0 = circle(1)
    f = {"v": [0, 0], "e": {0: 0, 1: 1, 2: 0, 3: 1}}
    prod, p1, p2 = fiber_product(c1, c1, f, f)
    assert prod.nv == 4
    assert prod.n_pairs == 4
    ncomp, _ = prod.connected_components()
    assert ncomp == 2
    # projections commute with incidence and involution
    for e in prod.edges():
        assert c1.o(p1["e"][e]) == p1["v"][prod.o(e)]
        assert c1.t(p1["e"][e]) == p1["v"][prod.t(e)]
        assert p1["e"][einv(e)] == einv(p1["e"][e])


class GraphPath:
    """An edge path in a graph, checked to be consecutive."""

    def __init__(self, graph, base, edges=()):
        self.graph = graph
        self.base = base
        self.edges = list(edges)
        v = base
        for e in self.edges:
            if graph.o(e) != v:
                raise ValueError("edges are not consecutive")
            v = graph.t(e)
        self.end = v

    def is_closed(self):
        return self.base == self.end

    def is_reduced(self):
        return all(self.edges[i + 1] != einv(self.edges[i])
                   for i in range(len(self.edges) - 1))


def test_graph_path():
    g = circle(3)
    p = GraphPath(g, 0, [0, 2, 4])
    assert p.is_closed()
    assert p.is_reduced()


def test_dot_export():
    g = circle(2)
    out = g.dot()
    assert out.count("--") == 2


def count_calls(monkeypatch, name):
    """Counter of the calls to Graph.<name> from now on."""
    calls = [0]
    fn = getattr(Graph, name)

    def counted(self, e):
        calls[0] += 1
        return fn(self, e)

    monkeypatch.setattr(Graph, name, counted)
    return calls


def test_stars_are_built_once_and_components_look_at_each_edge_once(monkeypatch):
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 3), (4, 5), (0, 0), (5, 4)])
    o_calls, t_calls = count_calls(monkeypatch, "o"), count_calls(monkeypatch, "t")
    out = g.out_edges()
    assert o_calls == [14]
    assert g.out_edges() is out and o_calls == [14]
    n, comp = g.connected_components()
    assert (n, comp) == (4, [0, 0, 0, 1, 2, 2, 3])
    assert o_calls == [14] and t_calls == [14]
    assert not g.is_connected()
