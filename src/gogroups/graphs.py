"""Involutive directed graphs, paths and cores.

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
        self._out = None
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
        """Per vertex, the directed edges with that origin in ascending order;
        built once, as a Graph is never changed, so callers must not edit it."""
        if self._out is None:
            self._out = [[] for _ in range(self.nv)]
            for e in self.edges():
                self._out[self.o(e)].append(e)
        return self._out

    def edge_name(self, e):
        base = self.enames[e >> 1]
        return base if e & 1 == 0 else base + "^-1"

    def __repr__(self):
        return f"Graph(V={self.nv}, E={self.n_pairs} pairs)"

    def connected_components(self):
        """(number of components, component of each vertex), in one pass."""
        out = self.out_edges()
        comp = [None] * self.nv
        n = 0
        for v0 in range(self.nv):
            if comp[v0] is not None:
                continue
            comp[v0] = n
            stack = [v0]
            while stack:
                for e in out[stack.pop()]:
                    w = self.t(e)
                    if comp[w] is None:
                        comp[w] = n
                        stack.append(w)
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


def _allowed(g, allow_backtrack):
    """allow_backtrack evaluated once per directed edge (None: never)."""
    if allow_backtrack is None:
        return [False] * (2 * g.n_pairs)
    return [bool(allow_backtrack(e)) for e in g.edges()]


def _turns(g, allow):
    """Successor lists of the turn graph, whose nodes are the directed edges:
    e -> e2 for every e2 leaving t(e), except e2 = e^-1 unless allow[e]."""
    out_at = g.out_edges()
    return [[e2 for e2 in out_at[g.t(e)] if e2 != einv(e) or allow[e]]
            for e in g.edges()]


def _turn_reach(turns, sources):
    """Directed edges reachable from sources in the turn graph."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for e2 in turns[stack.pop()]:
            if e2 not in seen:
                seen.add(e2)
                stack.append(e2)
    return seen


def _strong_components(succ):
    """Strongly connected components of the digraph with successor lists
    succ (Tarjan 1972), each a list of nodes.  Iterative, so the depth of
    the search is not bounded by the interpreter's recursion limit."""
    n = len(succ)
    order = [None] * n          # discovery number
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if order[root] is not None:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if order[w] is None:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def subgraph(g, verts, pairs):
    """The graph on old vertex ids verts with one pair per (old pair, origin,
    target) triple of pairs, both kept in order and named as in g; returns
    (graph, vmap), vmap[old vertex id] = new id, its keys in verts order."""
    vmap = {v: i for i, v in enumerate(verts)}
    sub = Graph(len(vmap), [(vmap[o], vmap[t]) for _, o, t in pairs],
                vnames=[g.vnames[v] for v in verts],
                enames=[g.enames[p] for p, _, _ in pairs])
    return sub, vmap


def _kept(g, keep_edges, extra_vertices=()):
    """(sub-graph, vmap, old pair ids) spanned by the pairs of keep_edges and
    extra_vertices, both in ascending old order."""
    pairs = sorted({e >> 1 for e in keep_edges})
    verts = set(extra_vertices)
    for p in pairs:
        verts.add(g.org[p])
        verts.add(g.tgt[p])
    sub, vmap = subgraph(g, sorted(verts), [(p, g.org[p], g.tgt[p]) for p in pairs])
    return sub, vmap, pairs


def core(g, allow_backtrack=None):
    """Subgraph of edges lying on a non-trivial cyclically reduced circuit.

    allow_backtrack(e): whether the turn (e, e^-1) is permitted (False for
    plain graphs; group-aware callers pass the surjectivity test).  It is
    called once per directed edge.  Returns the _kept triple, by which
    callers carry their own data over.

    A circuit is a cycle of the turn graph (wrap-around turn included), so
    e lies on one iff its strongly connected component there has more than
    one node or e has the arc e -> e, which only a loop edge has.  One
    Tarjan pass over the turn graph gives every component, so the cost is
    linear in the number of turns."""
    turns = _turns(g, _allowed(g, allow_backtrack))
    keep = [e for comp in _strong_components(turns) for e in comp
            if len(comp) > 1 or e in turns[e]]
    return _kept(g, keep)


def core_at(g, u, allow_backtrack=None):
    """Union of all reduced closed walks at u (always contains u);
    allow_backtrack and the result as for core."""
    turns = _turns(g, _allowed(g, allow_backtrack))
    fwd = _turn_reach(turns, g.out_edges()[u])
    # backward reachability: edges from which u is reachable = forward
    # reachability in the reversed turn graph; equivalently e contributes a
    # walk ending at u iff inv(e) is forward-reachable from u in the graph
    # with inverted turn rule.  The turn rule is symmetric under inversion:
    # (e, e') allowed iff (e'^-1, e^-1) allowed, so inv-reachability works.
    keep = [e for e in fwd if einv(e) in fwd]
    return _kept(g, keep, extra_vertices=[u])
