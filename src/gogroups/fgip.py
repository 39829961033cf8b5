"""Deciders for the finitely generated intersection property.

Graphs of (virtually) Z groups are abstracted to index-decorated graphs and
decided by the reduced three-form test: after collapsing invertible non-loop
ends, the fundamental group has the property exactly when each component is
a single vertex, a single (2,2) edge, or a loop with an invertible side.
Negative verdicts name the forbidden sub-configuration that embeds a rank-2
free group crossed with Z.

Graphs of free groups with cyclic edge groups route through the graph of
commensurators: every edge-group image has a cyclic commensurator generated
by its primitive root, edges at a shared origin whose roots are conjugate
(up to inversion) get merged into one commensurator vertex, and the
resulting graph of Z groups is decided componentwise by the same test.
"""

from __future__ import annotations

from .backends import AbelianGroup, FreeGroup, Mono
from .gog import GraphOfGroups
from .graphs import Graph, collapse, einv, subgraph
from .words import cyclic_conjugate, format_word, primitive_root, wconj, winv


class DecoratedGraph:
    """Underlying graph plus per-half indices of the edge group images."""
    __slots__ = ("graph", "idx_alpha", "idx_omega")

    def __init__(self, graph, idx_alpha, idx_omega):
        self.graph = graph
        self.idx_alpha = idx_alpha   # per pair: index at the origin side
        self.idx_omega = idx_omega   # per pair: index at the target side

    def halves(self, p):
        return (self.idx_alpha[p], self.idx_omega[p])


class FgipVerdict:
    """A verdict with its certificate and, for a graph decided component by
    component, each component's certificate; equal when all three are."""
    __slots__ = ("answer", "certificate", "components")

    def __init__(self, answer, certificate, components=None):
        self.answer = answer             # "yes" | "no" | "unknown"
        self.certificate = certificate
        self.components = [] if components is None else components

    def _key(self):
        return (self.answer, self.certificate, self.components)

    def __eq__(self, other):
        if type(other) is not FgipVerdict:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return "FgipVerdict(answer=%r, certificate=%r, components=%r)" % self._key()

    def lines(self):
        out = [f"certificate: {self.certificate}"]
        for c in self.components:
            out.append(f"component: {c}")
        out.append(f"VERDICT: {self.answer}")
        return out


def extract_decoration(A):
    """Decorated graph of a gog whose vertex groups support index queries.

    Every edge map's image index must be computable (for Z data this is the
    absolute multiplier)."""
    g = A.graph
    ia, io = [], []
    for p in range(g.n_pairs):
        a = A.alpha_image_index(2 * p)
        o = A.omega_image_index(2 * p)
        if a == 0 or o == 0:
            raise ValueError("degenerate edge map")
        ia.append(a)
        io.append(o)
    return DecoratedGraph(g, ia, io)


def _mul_index(a, b):
    """Product of two indices; None (infinite) absorbs."""
    return None if a is None or b is None else a * b


def reduce_decorated(d):
    """Collapse non-loop edges with an invertible half; index data composes
    multiplicatively across the removed vertex.

    graphs.collapse does the scan with the indices as labels: a half of
    index 1 is a unit, and collapsing at it links its vertex to the pair's
    other end u2 by n0, the pair's index at u2.  Indices are positive or
    None (infinite), so multiplying never makes an index 1 out of one that
    was not."""
    graph, _, _, ends, _ = collapse(d.graph, list(zip(d.idx_alpha, d.idx_omega)),
                                    lambda n: n == 1, _mul_index, lambda a, w: w)
    return DecoratedGraph(graph, [a for a, _ in ends], [w for _, w in ends])


def _fmt_half(n):
    return "inf" if n is None else str(n)


def decide_fgip_vz(d):
    """Three-form decision on a reduced connected decorated graph.

    yes: single vertex | single non-loop (2,2) edge | loop with a unit half.
    no: names the forbidden configuration found (fixed scan order, loops
    before edges)."""
    g = d.graph
    if not g.is_connected():
        raise ValueError("decide on connected components separately")
    for p in range(g.n_pairs):
        if g.org[p] != g.tgt[p] and (d.idx_alpha[p] == 1 or d.idx_omega[p] == 1):
            raise ValueError("graph is not reduced")
    loops = [p for p in range(g.n_pairs) if g.org[p] == g.tgt[p]]
    nonloops = [p for p in range(g.n_pairs) if g.org[p] != g.tgt[p]]
    # forbidden configurations, loop checks first
    for p in loops:
        a, o = d.halves(p)
        if a != 1 and o != 1:
            return FgipVerdict(
                "no", f"loop-no-unit-side at {g.vnames[g.org[p]]} "
                      f"indices=({_fmt_half(a)},{_fmt_half(o)})")
    for i, p in enumerate(loops):
        for q in loops[i + 1:]:
            if g.org[p] == g.org[q]:
                return FgipVerdict(
                    "no", f"two-unit-loops-at-vertex {g.vnames[g.org[p]]} "
                          f"({g.enames[p]},{g.enames[q]})")
    for p in nonloops:
        a, o = d.halves(p)
        if (a, o) != (2, 2):
            return FgipVerdict(
                "no", f"amalgam-edge-not-2-2 {g.enames[p]} "
                      f"indices=({_fmt_half(a)},{_fmt_half(o)})")
    for i, p in enumerate(nonloops):
        for q in nonloops[i + 1:]:
            shared = {g.org[p], g.tgt[p]} & {g.org[q], g.tgt[q]}
            if shared:
                v = sorted(shared)[0]
                return FgipVerdict(
                    "no", f"adjacent-2-2-edges at {g.vnames[v]} "
                          f"({g.enames[p]},{g.enames[q]})")
    for p in nonloops:
        for q in loops:
            if g.org[q] in (g.org[p], g.tgt[p]):
                return FgipVerdict(
                    "no", f"2-2-edge-with-unit-loop at {g.vnames[g.org[q]]} "
                          f"({g.enames[p]},{g.enames[q]})")
    # none found: at most one edge pair, a loop with a unit side or a (2,2) edge
    if g.n_pairs >= 2:
        raise AssertionError("unreachable: configuration scan is exhaustive")
    if loops:
        a, o = d.halves(loops[0])
        return FgipVerdict("yes", f"unit-side-loop indices=({_fmt_half(a)},{_fmt_half(o)})")
    if nonloops:
        return FgipVerdict("yes", "single-2-2-edge")
    return FgipVerdict("yes", "single-vertex")


def decide_components(d):
    """Reduce, split into components, decide each; conjunction of answers.
    The empty graph counts as one empty component."""
    red = reduce_decorated(d)
    g = red.graph
    n, comp = g.connected_components()
    verts = [[] for _ in range(max(n, 1))]
    pairs = [[] for _ in range(max(n, 1))]
    for v in range(g.nv):
        verts[comp[v]].append(v)
    for p in range(g.n_pairs):
        pairs[comp[g.org[p]]].append((p, g.org[p], g.tgt[p]))
    verdicts = []
    for vs, ps in zip(verts, pairs):
        sub, _ = subgraph(g, vs, ps)
        verdicts.append(decide_fgip_vz(DecoratedGraph(
            sub, [red.idx_alpha[p] for p, _, _ in ps], [red.idx_omega[p] for p, _, _ in ps])))
    answer = "yes" if all(v.answer == "yes" for v in verdicts) else "no"
    cert = "; ".join(v.certificate for v in verdicts)
    return FgipVerdict(answer, cert, components=[v.certificate for v in verdicts])


def decide_fgip_gbs(A):
    """Z-backed route: exact decision for graphs of Z groups (GBS data)."""
    return decide_components(extract_decoration(A))


# ---------------------------------------------------------------------------
# the commensurator graph for free vertex groups with cyclic edge groups
# ---------------------------------------------------------------------------


def _is_cyclic_edge_group(G):
    if isinstance(G, FreeGroup):
        return G.rank == 1
    if isinstance(G, AbelianGroup):
        return G.rank == 1 and not G.torsion
    return False


def w_construction(A):
    """Graph of commensurators of a gog with free vertex groups and cyclic
    edge groups.

    Per directed edge, the commensurator of the edge-group image is generated
    by the primitive root of the image word.  Edges at a common origin whose
    roots are conjugate up to inversion fall into one class; their alpha maps
    are rebased by the (shortest, then lexicographically least) conjugator so
    the whole class shares one commensurator.  The output is a graph of Z
    groups: one vertex per class carrying the root, one edge per original
    edge pair carrying the root exponents at its two ends, plus bookkeeping.
    """
    g = A.graph
    for v in range(g.nv):
        if not isinstance(A.vgroups[v], FreeGroup):
            raise ValueError("vertex groups must be free")
    for p in range(g.n_pairs):
        if not _is_cyclic_edge_group(A.egroups[p]):
            raise ValueError("edge groups must be infinite cyclic")

    roots = {}
    exponents = {}
    images = {}
    for e in g.edges():
        word = A.alpha(e).apply(A.egroup(e).generators()[0])
        if not word:
            raise ValueError("edge map has trivial image")
        root, k = primitive_root(word)
        images[e] = word
        roots[e] = root
        exponents[e] = k

    # conjugate-commensurable classes at each origin, with rebasing conjugators
    class_of = {}
    class_data = []   # {rep_edge, vertex, root, members: {edge: conjugator}}
    out = g.out_edges()
    for v in range(g.nv):
        first = len(class_data)   # the classes made at v are class_data[first:]
        for e in sorted(out[v], key=lambda e: (g.enames[e >> 1], e & 1)):
            for ci in range(first, len(class_data)):
                data = class_data[ci]
                x = cyclic_conjugate(roots[e], data["root"])
                if x is not None:
                    class_of[e] = ci
                    data["members"][e] = x
                    break
            else:
                class_of[e] = len(class_data)
                class_data.append({"rep_edge": e, "vertex": v,
                                   "root": roots[e], "members": {e: None}})

    nW = len(class_data)
    pairs = []
    ia, io = [], []
    enames = []
    for p in range(g.n_pairs):
        e = 2 * p
        pairs.append((class_of[e], class_of[einv(e)]))
        ia.append(exponents[e])
        io.append(exponents[einv(e)])
        enames.append(g.enames[p] + "~")
    vnames = []
    for ci, data in enumerate(class_data):
        vnames.append(f"{g.vnames[data['vertex']]}:{format_word(data['root'])}")
    graph = Graph(nW, pairs, vnames=vnames, enames=enames)

    # the graph of Z groups itself: vertex groups Z = <root>, edge groups the
    # original cyclic edge groups, maps z -> root^(+-k)
    Zs = [AbelianGroup.Z() for _ in range(nW)]
    egroups = [AbelianGroup.Z() for _ in range(g.n_pairs)]
    monos = []
    for p in range(g.n_pairs):
        e = 2 * p
        sign_a = _root_sign(images[e], class_data[class_of[e]]["root"],
                            class_of, e, class_data)
        sign_o = _root_sign(images[einv(e)], class_data[class_of[einv(e)]]["root"],
                            class_of, einv(e), class_data)
        monos.append((Mono(egroups[p], Zs[class_of[e]], [(sign_a * exponents[e],)]),
                      Mono(egroups[p], Zs[class_of[einv(e)]], [(sign_o * exponents[einv(e)],)])))
    W = GraphOfGroups(graph, Zs, egroups, monos)
    book = {"classes": class_data, "class_of": class_of,
            "roots": roots, "exponents": exponents}
    return W, DecoratedGraph(graph, ia, io), book


def _root_sign(word, class_root, class_of, e, class_data):
    """After rebasing by the class conjugator, the image is class_root^(+-k);
    the sign records orientation."""
    x = class_data[class_of[e]]["members"][e]
    if x is None:
        rebased = word
    else:
        rebased = wconj(word, x)
    root, k = primitive_root(rebased)
    if root == class_root:
        return 1
    if root == winv(class_root):
        return -1
    raise AssertionError("conjugator does not rebase the root")


def decide_fgip_free_cyclic(A):
    """Free vertex groups with cyclic edge groups: decide via the graph of
    commensurators, componentwise."""
    return decide_components(w_construction(A)[1])


def fgip_certify(A, vertex_fgip_flags=None):
    """Route a gog to the matching decider.

    - all edge groups finite and all vertex groups flagged (or known) to have
      the property: yes, by the finite-edge-groups criterion;
    - all vertex groups Z-like: the decorated-graph decision;
    - free vertex groups with cyclic edge groups: the commensurator route;
    - otherwise unknown."""
    g = A.graph
    flags = dict(vertex_fgip_flags or {})

    def vertex_has_fgip(v):
        if v in flags:
            return flags[v]
        G = A.vgroups[v]
        # finite groups, f.g. abelian groups and free groups all qualify
        return isinstance(G, (FreeGroup, AbelianGroup)) or G.order() is not None

    edge_orders = [A.egroups[p].order() for p in range(g.n_pairs)]
    if all(o is not None for o in edge_orders):
        if all(vertex_has_fgip(v) for v in range(g.nv)):
            return FgipVerdict("yes", "finite-edge-groups-with-fgip-vertices")
        return FgipVerdict("unknown", "finite edge groups but unknown vertex status")

    if all(_is_cyclic_edge_group(A.vgroups[v]) for v in range(g.nv)) and \
            all(_is_cyclic_edge_group(A.egroups[p]) for p in range(g.n_pairs)):
        try:
            return decide_fgip_gbs(A)
        except ValueError:
            pass
    if all(isinstance(A.vgroups[v], FreeGroup) for v in range(g.nv)) and \
            all(_is_cyclic_edge_group(A.egroups[p]) for p in range(g.n_pairs)):
        return decide_fgip_free_cyclic(A)
    return FgipVerdict("unknown", "no decision route for this backend mix")
