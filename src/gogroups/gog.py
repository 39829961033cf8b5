"""Graphs of groups, A-paths, Britton reduction, cores and edge collapse.

A graph of groups assigns a group backend to every vertex, one to every edge
pair (shared by the two halves), and injective edge maps into the endpoint
vertex groups.  The alpha map of the positive half doubles as the omega map
of the negative half, so the pair is stored once.

Only the public APath constructor checks that a path's edges are
consecutive: it is how paths from files and user code come in.  The
operations here build their results from paths already checked, whose end
vertex they know, through the unchecked _apath.  Britton reduction of a
concatenation p . q of reduced paths p and q starts at the seam and stops
there (reduce_concat): the positions before it only see p, those after it
only q, and neither has a pinch.  The pullback's q is always reduced, a
path of at most one edge or an inverted reduced anchor, because the inverse
of a reduced path is reduced: its pinch conditions mirror the original's.
"""

from __future__ import annotations

from .graphs import collapse, core, core_at, einv, validate_graph


class GraphOfGroups:
    def __init__(self, graph, vgroups, egroups, monos):
        """monos[p] = (alpha, omega) for the positive half of pair p."""
        self.graph = graph
        self.vgroups = list(vgroups)
        self.egroups = list(egroups)
        self.monos = [tuple(m) for m in monos]
        if len(self.vgroups) != graph.nv or len(self.egroups) != graph.n_pairs:
            raise ValueError("group tables do not match the graph")

    def egroup(self, e):
        return self.egroups[e >> 1]

    def alpha(self, e):
        return self.monos[e >> 1][0] if e & 1 == 0 else self.monos[e >> 1][1]

    def omega(self, e):
        return self.monos[e >> 1][1] if e & 1 == 0 else self.monos[e >> 1][0]

    def omega_image_index(self, e):
        return self.omega(e).index_of_image()

    def alpha_image_index(self, e):
        return self.alpha(e).index_of_image()

    def omega_surjective(self, e):
        return self.omega_image_index(e) == 1

    def trivial_path(self, v):
        return APath(self, v, [self.vgroups[v].identity()], [])

    def __repr__(self):
        return f"GraphOfGroups({self.graph!r})"


def validate_gog(A):
    """Report-valued: graph invariants, mono typing and injectivity."""
    violations = [("graph",) + v for v in validate_graph(A.graph)]
    g = A.graph
    for p in range(g.n_pairs):
        alpha, omega = A.monos[p]
        name = g.enames[p]
        if alpha.domain is not A.egroups[p] or omega.domain is not A.egroups[p]:
            violations.append(("edge-domain", name))
        if alpha.codomain is not A.vgroups[g.org[p]]:
            violations.append(("alpha-codomain", name))
        if omega.codomain is not A.vgroups[g.tgt[p]]:
            violations.append(("omega-codomain", name))
        try:
            if not alpha.is_injective():
                violations.append(("alpha-not-injective", name))
            if not omega.is_injective():
                violations.append(("omega-not-injective", name))
        except Exception as exc:
            violations.append(("injectivity-check-failed", name, str(exc)))
    return violations


class APath:
    """Alternating sequence (a0, e1, a1, ..., ek, ak) based at a vertex.

    The constructor checks that the edges are consecutive; operations on
    checked paths build their results with the unchecked _apath."""

    def __init__(self, gog, base, elems, edges):
        if len(elems) != len(edges) + 1:
            raise ValueError("an A-path needs one more element than edges")
        g = gog.graph
        v = base
        for i, e in enumerate(edges):
            if g.o(e) != v:
                raise ValueError("edge sequence is not consecutive")
            v = g.t(e)
        self.gog = gog
        self.base = base
        self.elems = list(elems)
        self.edges = list(edges)
        self.end = v

    def __len__(self):
        return len(self.edges)

    def is_closed(self):
        return self.base == self.end

    def __repr__(self):
        vgroups, t, name = self.gog.vgroups, self.gog.graph.t, self.gog.graph.edge_name
        elems = self.elems
        parts = []
        add = parts.append
        # long paths repeat a few elements and edges: render each once
        text, crossing = {}, {}
        v = self.base
        for i, e in enumerate(self.edges):
            s = text.get((v, elems[i]))
            if s is None:
                s = text[(v, elems[i])] = repr(vgroups[v].serialize(elems[i]))
            add(s)
            c = crossing.get(e)
            if c is None:
                c = crossing[e] = (name(e), t(e))
            add(c[0])
            v = c[1]
        add(repr(vgroups[v].serialize(elems[-1])))
        return "APath[" + ", ".join(parts) + "]"


def _apath(gog, base, elems, edges, end):
    """An APath from fresh lists whose edges are known to run from base to
    end; no check."""
    p = object.__new__(APath)
    p.gog, p.base, p.elems, p.edges, p.end = gog, base, elems, edges, end
    return p


def apath_concat(p, q):
    if p.gog is not q.gog:
        raise ValueError("paths over different graphs of groups")
    if p.end != q.base:
        raise ValueError("paths are not composable")
    G = p.gog.vgroups[p.end]
    elems = p.elems[:-1] + [G.mul(p.elems[-1], q.elems[0])] + q.elems[1:]
    return _apath(p.gog, p.base, elems, p.edges + q.edges, q.end)


def apath_inverse(p):
    gog = p.gog
    vgroups, t = gog.vgroups, gog.graph.t
    # long paths repeat a few elements: invert each once
    inverse = {}
    elems = []
    for v, x in zip([p.base] + [t(e) for e in p.edges], p.elems):
        y = inverse.get((v, x))
        if y is None:
            y = inverse[(v, x)] = vgroups[v].inv(x)
        elems.append(y)
    elems.reverse()
    edges = [einv(e) for e in reversed(p.edges)]
    return _apath(gog, p.end, elems, edges, p.base)


def _reduce_from(p, i, stop=None):
    """Britton reduction of p, scanning for pinches from position i on; p
    must have no pinch at a position before i.

    stop, when given, is the index of p's seam element, with i >= stop - 1,
    and p has no pinch after the seam: only position stop - 1, the one that
    reads the seam element, can pinch.  A pinch there merges the seam
    element with its two neighbours into index stop - 1, the new seam, so
    stop falls by one per pinch and the scan ends once i reaches stop."""
    gog = p.gog
    elems = list(p.elems)
    edges = list(p.edges)
    if stop is None:
        stop = len(edges)
    while i < min(stop, len(edges) - 1):
        e = edges[i]
        if edges[i + 1] == einv(e):
            om = gog.omega(e)
            a = elems[i + 1]
            if om.image().contains(a):
                x = om.preimage_elt(a)
                carried = gog.alpha(e).apply(x)
                Gv = gog.vgroups[gog.graph.o(e)]
                merged = Gv.mul(Gv.mul(elems[i], carried), elems[i + 2])
                elems[i:i + 3] = [merged]
                edges[i:i + 2] = []
                stop -= 1
                i = max(i - 1, 0)
                continue
        i += 1
    return _apath(gog, p.base, elems, edges, p.end)


def reduce_apath(p):
    """Britton reduction: remove pinches (e, omega_e(x), e^-1) -> alpha_e(x)."""
    return _reduce_from(p, 0)


def reduce_concat(p, q):
    """reduce_apath(apath_concat(p, q)) for reduced p and q.

    Only the seam, the element where p ends and q starts, can pinch: every
    position before it sees only edges and inner elements of p, every one
    after it only those of q (Britton 1963; the same fact is behind the
    A-path foldings of Kapovich-Weidmann-Miasnikov 2005).  So the scan
    starts at position len(p) - 1 and stops at the seam.  Every caller's q
    is reduced: a path of at most one edge, or the inverse of a reduced
    anchor.
    (e, a, e^-1) with a in omega_e(E) reads backwards as (e, a^-1, e^-1)
    with a^-1 in the same image, so an inverse pinches only where its path
    does.  For any p and a reduced q, reduce_concat(reduce_apath(p), q) is
    reduce_apath(p . q) too: the scan of p . q reaches the seam of
    reduce_apath(p) in the state where the scan of p alone ends."""
    m = len(p.edges)
    return _reduce_from(apath_concat(p, q), max(m - 1, 0), m)


def _sub_gog(A, kept):
    """The sub-graph-of-groups on a (sub-graph, vmap, old pair ids) triple of
    graphs.core or graphs.core_at: every group and map carried over by id."""
    sub, vmap, pairs = kept
    return GraphOfGroups(sub, [A.vgroups[v] for v in vmap], [A.egroups[p] for p in pairs],
                         [A.monos[p] for p in pairs])


def gog_core(A):
    """Sub-graph-of-groups on cyclically reduced closed A-paths."""
    return _sub_gog(A, core(A.graph, allow_backtrack=lambda e: not A.omega_surjective(e)))


def gog_core_at(A, u):
    """Sub-graph-of-groups on reduced closed A-paths at u; returns
    (sub-gog, new basepoint)."""
    kept = core_at(A.graph, u, allow_backtrack=lambda e: not A.omega_surjective(e))
    return _sub_gog(A, kept), kept[1][u]


def reduce_gog(A, basepoint):
    """Collapse non-reduced edges (non-loop with an invertible end map).

    Returns (reduced gog, transported basepoint).  The fundamental group is
    unchanged.  graphs.collapse does the scan with the end maps as labels:
    an end is a unit when its map's image has index 1, and collapsing at a
    unit end alpha at u, whose pair's other end is omega at u2, links u to u2
    by through = omega . alpha^-1 : A_u -> A_u2.  through is injective, so
    image indices only multiply.  Element arithmetic is canonical, so the
    order of composition does not change any image.
    """
    graph, verts, pairs, ends, home = collapse(
        A.graph, A.monos, lambda m: m.index_of_image() == 1, lambda f, m: f.compose(m),
        lambda a, w: w.compose(a.inverse()))
    if len(pairs) == A.graph.n_pairs:
        return A, basepoint
    return (GraphOfGroups(graph, [A.vgroups[v] for v in verts],
                          [A.egroups[p] for p in pairs], ends),
            home(basepoint))
