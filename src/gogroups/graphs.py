"""Involutive directed graphs, paths, cores and fibered products.

Edges are stored as orientation pairs: pair p contributes the directed edges
2p (positive) and 2p+1 (its inverse), so inversion is a bit flip.  Vertex
and edge names live in side tables and never enter the algorithms.
"""

from __future__ import annotations


def einv(e):
    return e ^ 1


class Graph:
    def __init__(self, n_vertices, pairs, vnames=None, enames=None):
        """pairs: list of (origin, target) for the positive edge of each pair."""
        self.nv = n_vertices
        self.org = [p[0] for p in pairs]
        self.tgt = [p[1] for p in pairs]
        self.vnames = list(vnames) if vnames else [f"v{i}" for i in range(n_vertices)]
        self.enames = list(enames) if enames else [f"e{i}" for i in range(len(pairs))]
        for o, t in pairs:
            if not (0 <= o < n_vertices and 0 <= t < n_vertices):
                raise ValueError("edge endpoint out of range")

    @property
    def n_pairs(self):
        return len(self.org)

    def edges(self):
        return range(2 * self.n_pairs)

    def o(self, e):
        return self.org[e >> 1] if e & 1 == 0 else self.tgt[e >> 1]

    def t(self, e):
        return self.tgt[e >> 1] if e & 1 == 0 else self.org[e >> 1]

    def out_edges(self):
        """Per vertex, the directed edges with that origin in ascending order."""
        out = [[] for _ in range(self.nv)]
        for e in self.edges():
            out[self.o(e)].append(e)
        return out

    def edge_name(self, e):
        base = self.enames[e >> 1]
        return base if e & 1 == 0 else base + "^-1"

    def __repr__(self):
        return f"Graph(V={self.nv}, E={self.n_pairs} pairs)"

    def connected_components(self):
        comp = [None] * self.nv
        n = 0
        for v0 in range(self.nv):
            if comp[v0] is not None:
                continue
            comp[v0] = n
            stack = [v0]
            while stack:
                v = stack.pop()
                for e in self.edges():
                    if self.o(e) == v and comp[self.t(e)] is None:
                        comp[self.t(e)] = n
                        stack.append(self.t(e))
            n += 1
        return n, comp

    def is_connected(self):
        return self.nv <= 1 or self.connected_components()[0] == 1

    def dot(self, name="G"):
        lines = [f"graph {name} {{"]
        for i in range(self.nv):
            lines.append(f'  {i} [label="{self.vnames[i]}"];')
        for p in range(self.n_pairs):
            lines.append(f'  {self.org[p]} -- {self.tgt[p]} [label="{self.enames[p]}"];')
        lines.append("}")
        return "\n".join(lines)


def validate_graph(g):
    """Report-valued validation of the involution invariants."""
    violations = []
    for e in g.edges():
        if einv(einv(e)) != e or einv(e) == e:
            violations.append(("involution", g.edge_name(e)))
        if g.t(einv(e)) != g.o(e):
            violations.append(("incidence", g.edge_name(e)))
    return violations


class GraphPath:
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


def _turn_reach(g, allow_backtrack, sources):
    """Directed reachability over the turn graph (nodes = directed edges).

    sources: iterable of starting directed edges; a turn e -> e' is allowed
    when t(e) = o(e') and (e' != e^-1 or allow_backtrack(e)).
    """
    seen = set(sources)
    stack = list(seen)
    out_at = g.out_edges()
    while stack:
        e = stack.pop()
        for e2 in out_at[g.t(e)]:
            if e2 == einv(e) and not allow_backtrack(e):
                continue
            if e2 not in seen:
                seen.add(e2)
                stack.append(e2)
    return seen


def _subgraph(g, keep_edges, extra_vertices=()):
    keep_pairs = sorted({e >> 1 for e in keep_edges})
    verts = set(extra_vertices)
    for p in keep_pairs:
        verts.add(g.org[p])
        verts.add(g.tgt[p])
    vlist = sorted(verts)
    vmap = {v: i for i, v in enumerate(vlist)}
    pairs = [(vmap[g.org[p]], vmap[g.tgt[p]]) for p in keep_pairs]
    sub = Graph(len(vlist), pairs,
                vnames=[g.vnames[v] for v in vlist],
                enames=[g.enames[p] for p in keep_pairs])
    return sub, vmap, {p: i for i, p in enumerate(keep_pairs)}


def core(g, allow_backtrack=None):
    """Subgraph of edges lying on a non-trivial cyclically reduced circuit.

    allow_backtrack(e): whether the turn (e, e^-1) is permitted (False for
    plain graphs; group-aware callers pass the surjectivity test).
    """
    if allow_backtrack is None:
        allow_backtrack = lambda e: False
    # e lies on a cyclically reduced circuit iff the turn graph has a cycle
    # through e, i.e. e is a successor of itself (wrap-around turn included)
    keep = [e for e in g.edges() if e in _successors_closure(g, allow_backtrack, e)]
    return _subgraph(g, keep)[0]


def _successors_closure(g, allow_backtrack, e0):
    """All directed edges reachable from e0 by allowed turns (excluding e0
    unless revisited)."""
    seen = set()
    stack = []
    out_at = g.out_edges()
    for e2 in out_at[g.t(e0)]:
        if e2 == einv(e0) and not allow_backtrack(e0):
            continue
        if e2 not in seen:
            seen.add(e2)
            stack.append(e2)
    while stack:
        e = stack.pop()
        for e2 in out_at[g.t(e)]:
            if e2 == einv(e) and not allow_backtrack(e):
                continue
            if e2 not in seen:
                seen.add(e2)
                stack.append(e2)
    return seen


def core_at(g, u, allow_backtrack=None):
    """Union of all reduced closed walks at u (always contains u)."""
    if allow_backtrack is None:
        allow_backtrack = lambda e: False
    starts = [e for e in g.edges() if g.o(e) == u]
    fwd = _turn_reach(g, allow_backtrack, starts)
    # backward reachability: edges from which u is reachable = forward
    # reachability in the reversed turn graph; equivalently e contributes a
    # walk ending at u iff inv(e) is forward-reachable from u in the graph
    # with inverted turn rule.  The turn rule is symmetric under inversion:
    # (e, e') allowed iff (e'^-1, e^-1) allowed, so inv-reachability works.
    keep = [e for e in fwd if einv(e) in fwd]
    return _subgraph(g, keep, extra_vertices=[u])[0]


def fiber_product(g1, g2, f1, f2):
    """Pullback of graph morphisms f1: g1 -> g0 and f2: g2 -> g0.

    f1, f2 are dicts {"v": vertex map list/dict, "e": directed edge map}.
    Returns (product graph, projection1, projection2) where projections are
    dicts of the same shape.
    """
    v1, e1 = f1["v"], f1["e"]
    v2, e2 = f2["v"], f2["e"]
    verts = [(a, b) for a in range(g1.nv) for b in range(g2.nv) if v1[a] == v2[b]]
    vidx = {p: i for i, p in enumerate(verts)}
    pairs = []
    pmap = []
    for ea in g1.edges():
        if ea & 1:
            continue
        for eb in g2.edges():
            if e1[ea] == e2[eb]:
                pairs.append((vidx[(g1.o(ea), g2.o(eb))], vidx[(g1.t(ea), g2.t(eb))]))
                pmap.append((ea, eb))
    prod = Graph(len(verts), pairs,
                 vnames=[f"({g1.vnames[a]},{g2.vnames[b]})" for a, b in verts],
                 enames=[f"({g1.edge_name(ea)},{g2.edge_name(eb)})" for ea, eb in pmap])
    proj1 = {"v": [p[0] for p in verts],
             "e": {}}
    proj2 = {"v": [p[1] for p in verts],
             "e": {}}
    for i, (ea, eb) in enumerate(pmap):
        proj1["e"][2 * i] = ea
        proj1["e"][2 * i + 1] = einv(ea)
        proj2["e"][2 * i] = eb
        proj2["e"][2 * i + 1] = einv(eb)
    return prod, proj1, proj2
