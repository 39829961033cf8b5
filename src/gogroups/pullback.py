"""Lazily expanded products of two immersions over a graph of groups.

Vertices of the product are double cosets mu1(B_v) a mu2(C_w) inside the
target vertex groups, edges are double cosets of edge-group images, and the
incidence maps push witnesses through the twisting elements.  Expansion is
breadth-first from the base vertex with an explicit budget, so infinite
products (which are the interesting case) are handled honestly: the fragment
is complete when the frontier has emptied with every vertex expanded, and
can certify one specific infinite pattern (a periodic strictly-ascending
ray).  Only the base component is ever explored: every vertex but the base
one is created by an edge out of an earlier vertex, so every vertex is in
it, and completeness is the exactness of its intersection generators.

Every vertex but the base one records the tree edge that created it, out
of an earlier vertex, and every edge records its transports into its two
end vertices' groups.  Their double-coset factors are computed on first
request and kept on the edge (edge_factors): only the anchors and the ray
certificate's window read them, so a report that needs neither, such as
to_json, never pays for them.  A report that needs anchor paths into the
two factors (component_labels, intersection_generators) builds them from
these records in one pass in vertex order: each vertex's anchor is its tree
parent's, pushed across the tree edge with its factors absorbed, and the
first side's inverses are built alongside from the same crossing.  The
defining invariant (anchor1 . witness . anchor2^-1 = component label) makes
intersection generators fall out of the spanning tree: each is
anchor1(src) . middle . anchor1(dst)^-1, its middle a vertex-group element
or a non-tree edge's crossing.  Each anchor extends its tree parent's,
which is reduced, so it is reduced from the seam on (gog.reduce_concat), as
are the generator paths built from anchors.  The generators' text
(intersection_generator_texts, what intersect prints) is made without the
paths: the text of every anchor but its last element, and of its inverse
but its first, is its tree parent's plus one junction element and edge,
each token rendered once, and a generator's line joins them around its
middle.  Only a generator whose seam pinches is built as a path and
rendered.

The fragment keeps, for its lifetime, every piece of work that does not
depend on a witness: the double-coset handles per vertex pair and per edge
pair, and one edge fan per (v, w, f, g), made by the vertex pair's handle
(edge_fan in the backend contract, backends/base.py).  The fan lists the
edge double cosets E1 a E2 whose transport f_alpha alpha(a) g_alpha^-1
lands in the vertex's double coset H w K; how it finds them is the
backend's business, so expanding a vertex is one fan.solve per edge pair.
Vertex and edge groups are computed once each, on first request, by the
pair's handle (meet in the backend contract), and shared by to_json, the
intersection generators and the ray certificate.

Each product edge is found twice, once from each end, and its work is done
once.  edge_keys holds half-edge keys (f, g, src, edge witness), both of
each edge added; a representative is canonicalized in its edge double coset
and looked up before it is transported or factored.  The key is exact: a
product edge is fixed by its origin vertex, its edge pair and its edge
double coset (b a c, for b and c in the edge images, transports into the
same vertex double coset as a), and the witness of that double coset does
not depend on the end it is found from, since both ends share one edge
handle.
"""

from __future__ import annotations

from collections import deque

from .backends.base import UnsupportedExpansion
from .gog import APath, apath_concat, apath_inverse, reduce_concat
from .graphs import einv


class ProductVertex:
    __slots__ = ("v", "w", "witness", "tree_edge")

    def __init__(self, v, w, witness):
        self.v = v
        self.w = w
        self.witness = witness
        self.tree_edge = None   # index of the edge that created it; None at the base


class ProductEdge:
    """A product edge and its transport record: o_raw = f_alpha alpha(rep)
    g_alpha^-1 in A_o(e) lies in the double coset of witness(src), and t_raw,
    the same with omega in A_t(e), in that of witness(dst).  factors is None
    until edge_factors asks for it, then (bc0, cc0, bc1, cc1) with
    o_raw = bc0 . witness(src) . cc0 and t_raw = bc1 . witness(dst) . cc1.
    (f, g, src, witness) and (f^-1, g^-1, dst, witness) are its dedup keys,
    one per end."""
    __slots__ = ("f", "g", "rep", "witness", "src", "dst", "tree",
                 "o_raw", "t_raw", "factors")

    def __init__(self, f, g, rep, witness, src, dst, tree, o_raw, t_raw):
        self.f = f
        self.g = g
        self.rep = rep          # edge fan representative in the edge group
        self.witness = witness  # canonical edge double-coset witness
        self.src = src
        self.dst = dst
        self.tree = tree
        self.o_raw, self.t_raw = o_raw, t_raw
        self.factors = None


class AProductFragment:
    def __init__(self, m1, m2):
        if m1.target is not m2.target:
            raise ValueError("immersions must share a target")
        self.A = m1.target
        self.m1 = m1
        self.m2 = m2
        self.out1 = m1.source.graph.out_edges()
        self.out2 = m2.source.graph.out_edges()
        self.vertices = []
        self.index = {}
        self.edges = []
        self.edge_keys = set()
        self.frontier = deque()
        self.unexpandable = {}
        self.budget_spent = 0
        self.base_factors = None  # (bc, cc) with 1 = bc . witness . cc at the base
        # double-coset handles, kept for the fragment's lifetime:
        self.vertex_dcs = {}      # (v, w) -> mu1(B_v) \ A_u / mu2(C_w)
        self.edge_dcs = {}        # (f, g) pair indices -> E1 \ A_e / E2
        self.fans = {}            # (v, w, f, g) -> the vertex handle's edge fan
        self.vertex_groups = {}   # vertex index -> its vertex group
        self.edge_groups = {}     # edge index -> its edge group

    @property
    def complete(self):
        """Whether the base vertex is there and the frontier emptied with
        every vertex expanded."""
        return bool(self.vertices) and not self.frontier and not self.unexpandable

    # --- vertex/edge group handles ---

    def _vertex_dc(self, v, w):
        """The double-coset handle of the pair (v, w), made once."""
        dc = self.vertex_dcs.get((v, w))
        if dc is None:
            Au = self.A.vgroups[self.m1.vmap[v]]
            dc = self.vertex_dcs[(v, w)] = Au.double_cosets(
                self.m1.vertex_image_handle(v), self.m2.vertex_image_handle(w))
        return dc

    def _edge_dc(self, f, g):
        """The double-coset handle of the edge pair of f and g, made once."""
        p, q = f >> 1, g >> 1
        dc = self.edge_dcs.get((p, q))
        if dc is None:
            dc = self.edge_dcs[(p, q)] = self.A.egroup(self.m1.edge_image(f)).double_cosets(
                self.m1.edge_image_handle(p), self.m2.edge_image_handle(q))
        return dc

    def vertex_group(self, idx):
        """mu1(B_v)^witness meet mu2(C_w), made once per vertex by the
        pair's double-coset handle."""
        D = self.vertex_groups.get(idx)
        if D is None:
            x = self.vertices[idx]
            D = self.vertex_groups[idx] = self._vertex_dc(x.v, x.w).meet(x.witness)
        return D

    def edge_group(self, eidx):
        """E1^rep meet E2, made once per edge by the edge pair's handle."""
        E = self.edge_groups.get(eidx)
        if E is None:
            h = self.edges[eidx]
            E = self.edge_groups[eidx] = self._edge_dc(h.f, h.g).meet(h.rep)
        return E

    def edge_factors(self, h):
        """(bc0, cc0, bc1, cc1) of edge h, factored by its end vertices'
        handles (made when the ends were interned) on first request and kept
        on the edge."""
        fs = h.factors
        if fs is None:
            x, y, dcs = self.vertices[h.src], self.vertices[h.dst], self.vertex_dcs
            fs = h.factors = (dcs[x.v, x.w].factor(x.witness, h.o_raw)
                              + dcs[y.v, y.w].factor(y.witness, h.t_raw))
        return fs

    def component_labels(self):
        """Witness A-path of every vertex's component double coset B g C, in
        vertex order: anchor1 . witness . anchor2^-1."""
        anchors1, _ = self._anchors(True)
        anchors2, _ = self._anchors(False)
        return [reduce_concat(apath_concat(a1, APath(self.A, self.m1.vmap[x.v], [x.witness], [])),
                              apath_inverse(a2))
                for x, a1, a2 in zip(self.vertices, anchors1, anchors2)]

    def _anchors(self, first, inverses=True):
        """(anchors, inverses): anchor1 (first) or anchor2 of every vertex,
        in vertex order, and on the first side anchor1^-1 of every vertex
        unless inverses is false (None on the second side, or when not
        asked).  Every vertex but the base one is created by its tree edge
        out of an earlier vertex, so its parent's anchor is built before
        it, and each tree edge is crossed once.

        anchor(dst) = anchor(src) . crossing of the tree edge, reduced from
        the seam.  anchor(dst)^-1 = crossing^-1 . anchor(src)^-1, reduced
        from the seam: inverting a path commutes with seam reduction, since
        a pinch of p . q at its seam is one of q^-1 . p^-1 at its seam, with
        the inverse elements.  Elements are canonical, so the result equals
        apath_inverse(anchor(dst)) element by element, and apath_inverse
        only sees the base anchor and single crossings."""
        u = self.m1.vmap[self.vertices[0].v]
        bc, cc = self.base_factors
        anchors = [APath(self.A, u, [bc if first else self.A.vgroups[u].inv(cc)], [])]
        invs = [apath_inverse(anchors[0])] if first and inverses else None
        for x in self.vertices[1:]:
            h = self.edges[x.tree_edge]
            crossing = self._crossing(h, first)
            anchors.append(reduce_concat(anchors[h.src], crossing))
            if invs:
                invs.append(reduce_concat(apath_inverse(crossing), invs[h.src]))
        return anchors, invs

    def _crossing(self, h, first):
        """The one-edge A-path carrying anchor1 (first) or anchor2 across edge
        h over e: bc0^-1 . m1's step over e . bc1, or cc0 . m2's step .
        cc1^-1.  The step of m's edge f is alpha-twist . e . omega-twist^-1."""
        A = self.A
        e = self.m1.edge_image(h.f)
        u, u2 = A.graph.o(e), A.graph.t(e)
        Au, Au2 = A.vgroups[u], A.vgroups[u2]
        bc0, cc0, bc1, cc1 = self.edge_factors(h)
        m, f, pre, post = ((self.m1, h.f, Au.inv(bc0), bc1) if first else
                           (self.m2, h.g, cc0, Au2.inv(cc1)))
        return APath(A, u, [Au.mul(pre, m.twist_alpha(f)),
                            Au2.mul(Au2.inv(m.twist_omega(f)), post)], [e])

    # --- construction ---

    def add_base(self, v0=None, w0=None):
        """Intern the base vertex (v0, w0) as vertex 0: every other vertex
        hangs off an earlier one, so a fragment has one base."""
        if self.vertices:
            raise ValueError("the fragment already has a base vertex")
        v0 = 0 if v0 is None else v0
        w0 = 0 if w0 is None else w0
        if self.m1.vmap[v0] != self.m2.vmap[w0]:
            raise ValueError("basepoint images do not match")
        one = self.A.vgroups[self.m1.vmap[v0]].identity()
        idx, _ = self._intern(v0, w0, one)
        self.base_factors = self._vertex_dc(v0, w0).factor(self.vertices[idx].witness, one)
        return idx

    def _intern(self, v, w, raw_witness):
        """(index, created) of the vertex of (v, w) whose double coset holds
        raw_witness."""
        witness = self._vertex_dc(v, w).canon(raw_witness)
        key = (v, w, witness)
        if key in self.index:
            return self.index[key], False
        idx = self.index[key] = len(self.vertices)
        self.vertices.append(ProductVertex(v, w, witness))
        self.frontier.append(idx)
        return idx, True

    def build(self, budget=64):
        if not self.vertices:
            self.add_base()
        while self.frontier and self.budget_spent < budget:
            self.expand_vertex(self.frontier.popleft())
            self.budget_spent += 1
        return self

    def expand_vertex(self, idx):
        x = self.vertices[idx]
        for f in self.out1[x.v]:
            e_f = self.m1.edge_image(f)
            for g in self.out2[x.w]:
                if self.m2.edge_image(g) != e_f:
                    continue
                try:
                    sols = self._solve_edges(x, f, g, e_f)
                except UnsupportedExpansion as exc:
                    self.unexpandable[idx] = str(exc)
                    return
                for rep, raw in sols:
                    self._add_edge(idx, f, g, e_f, rep, raw)

    def _solve_edges(self, x, f, g, e):
        """The fan's (representative, transport) pairs at x: one per edge
        double coset whose transport f_alpha alpha(rep) g_alpha^-1 lies in
        x's double coset, the transport None when the fan did not make it."""
        fan = self.fans.get((x.v, x.w, f, g))
        if fan is None:
            fan = self.fans[(x.v, x.w, f, g)] = self._vertex_dc(x.v, x.w).edge_fan(
                self.A.alpha(e), self._edge_dc(f, g),
                self.m1.twist_alpha(f), self.m2.twist_alpha(g))
        return fan.solve(x.witness)

    def _transport(self, f, g, e, rep, end):
        """twist_alpha(f) . alpha(rep) . twist_alpha(g)^-1 at the origin of e
        (end 0), or at its terminus (end 1), the origin of the reversed edges."""
        if end:
            f, g, e = einv(f), einv(g), einv(e)
        G = self.A.vgroups[self.A.graph.o(e)]
        return G.mul(G.mul(self.m1.twist_alpha(f), self.A.alpha(e).apply(rep)),
                     G.inv(self.m2.twist_alpha(g)))

    def _add_edge(self, idx, f, g, e, rep, raw):
        """The product edge from vertex idx over the edge pair (f, g) whose
        edge double coset holds rep, unless it is already there, found from
        either end: its half-edge key is looked up before any transport.
        raw is rep's transport at the origin of e as its fan listed it, or
        None, and then it is made here."""
        ewitness = self._edge_dc(f, g).canon(rep)
        if (f, g, idx, ewitness) in self.edge_keys:
            return
        if raw is None:
            raw = self._transport(f, g, e, rep, 0)
        t_raw = self._transport(f, g, e, rep, 1)
        dst, created = self._intern(self.m1.source.graph.t(f), self.m2.source.graph.t(g), t_raw)
        self.edge_keys.add((f, g, idx, ewitness))
        self.edge_keys.add((einv(f), einv(g), dst, ewitness))
        if created:
            self.vertices[dst].tree_edge = len(self.edges)
        self.edges.append(ProductEdge(f, g, rep, ewitness, idx, dst, created, raw, t_raw))

    # --- reports ---

    def _generator_pieces(self):
        """(src, middle, dst) of every intersection generator, in order: the
        generator is anchor1(src) . middle . anchor1(dst)^-1, reduced at both
        seams.  First the vertex-group generators, vertex by vertex, each a
        one-element middle at src = dst; then one per non-tree edge, its
        crossing."""
        for i, x in enumerate(self.vertices):
            u = self.m1.vmap[x.v]
            Au = self.A.vgroups[u]
            for d in self.vertex_group(i).gens:
                if Au.eq(d, Au.identity()):
                    continue
                b_elt = Au.mul(Au.mul(x.witness, d), Au.inv(x.witness))
                yield i, APath(self.A, u, [b_elt], []), i
        for h in self.edges:
            if not h.tree:
                yield h.src, self._crossing(h, True), h.dst

    def intersection_generators(self):
        """(list of closed A-paths at the base image, exactness flag).

        Spanning-tree circuits for non-tree edges plus vertex-group
        generators conjugated by the anchors; exact when the fragment is
        complete, a lower bound otherwise."""
        anchors, inverses = self._anchors(True)
        # reduced seam by seam: the same path as one scan (reduce_concat)
        gens = [reduce_concat(reduce_concat(anchors[s], mid), inverses[d])
                for s, mid, d in self._generator_pieces()]
        return gens, self.complete

    def intersection_generator_texts(self):
        """repr of each path of intersection_generators(), in its order, one
        at a time, without building the paths.

        head[i] is the text of anchor1(i) up to its last element, tail[i]
        that of its inverse from its first element on; both are built from
        the tree parent's, each token rendered once per call.  A generator
        is head[src] + middle + tail[dst], its end elements multiplied into
        the middle's, unless a seam pinches, as reduce_concat decides it:
        then its path is built and rendered."""
        A = self.A
        vgroups, name = A.vgroups, A.graph.edge_name
        tok = _tokens(vgroups)
        anchors, _ = self._anchors(True, inverses=False)
        heads, tails = [""], [""]
        for x, a in zip(self.vertices[1:], anchors[1:]):
            src = self.edges[x.tree_edge].src
            if len(a.edges) == len(anchors[src].edges) + 1:
                e = a.edges[-1]
                v = A.graph.o(e)
                heads.append(heads[src] + tok(v, a.elems[-2]) + ", " + name(e) + ", ")
                tails.append(", " + name(einv(e)) + ", " + tok(v, a.elems[-2], True) + tails[src])
            else:   # the anchor's own seam pinched
                head, tail = _path_texts(a, tok)
                heads.append(head)
                tails.append(tail)
        for s, mid, d in self._generator_pieces():
            a1, a2 = anchors[s], anchors[d]
            G, G2 = vgroups[mid.base], vgroups[mid.end]
            elems = list(mid.elems)
            elems[0] = G.mul(a1.elems[-1], elems[0])
            elems[-1] = G2.mul(elems[-1], G2.inv(a2.elems[-1]))
            # the edges on both sides of each element of the middle
            around = ([a1.edges[-1] if a1.edges else None] + mid.edges
                      + [einv(a2.edges[-1]) if a2.edges else None])
            if any(e is not None and f == einv(e)
                   and A.omega(e).image().contains(elems[k])
                   for k, (e, f) in enumerate(zip(around, around[1:]))):
                yield repr(reduce_concat(reduce_concat(a1, mid), apath_inverse(a2)))
                continue
            middle, v = [], mid.base
            for k, e in enumerate(mid.edges):
                middle += (tok(v, elems[k]), name(e))
                v = A.graph.t(e)
            middle.append(tok(v, elems[-1]))
            yield "APath[" + heads[s] + ", ".join(middle) + tails[d] + "]"

    def ray_certificate(self, min_periods=3):
        """Detect the periodic strictly-ascending ray pattern on an
        incomplete fragment; returns a description dict or None.

        The pattern: the explored fragment is a simple outbound path,
        every step repeats a fixed signature (source vertices, edge pair and
        the two transport indices), and each period multiplies the vertex
        group index gap by at least 2 (an ascending union).  Only the last
        min_periods periods are compared, and the shape (source vertices and
        edge pair) is a prefix of the signature, so the transport indices,
        the costly part, are computed only for a window whose shapes repeat,
        once per chain position: min_periods of them on a ray of period 1,
        however long it is."""
        n = len(self.vertices)
        if n < 4 or self.complete:
            return None
        succ = {}
        for j, h in enumerate(self.edges):
            if not h.tree or h.src in succ:
                return None
            succ[h.src] = j
        chain, shapes = [], []
        cur = 0
        while cur in succ:
            h = self.edges[succ[cur]]
            xs = self.vertices[cur]
            chain.append(succ[cur])
            shapes.append((xs.v, xs.w, h.f, h.g))
            cur = h.dst
        if len(chain) + 1 != n:
            return None
        indices = {}    # chain position -> its two transport indices
        for period in range(1, len(chain) // min_periods + 1):
            start = len(chain) - min_periods * period
            window = shapes[start:]
            if any(window[i] != window[i % period] for i in range(len(window))):
                continue
            for k in range(start, len(chain)):
                if k not in indices:
                    indices[k] = self._transport_indices(chain[k])
            window = [shapes[k] + indices[k] for k in range(start, len(chain))]
            if any(window[i] != window[i % period] for i in range(len(window))):
                continue
            ascent = 1
            ok = True
            for sig in window[:period]:
                a_idx, w_idx = sig[4], sig[5]
                if a_idx != 1 or w_idx is None:
                    ok = False
                    break
                ascent *= w_idx
            if ok and ascent >= 2:
                return {"verdict": "provably infinite ascending union",
                        "period": period,
                        "ascent": ascent,
                        "ray_length": len(chain)}
        return None

    def _transport_indices(self, eidx):
        """([D_src : alpha-transport of D_h], [D_dst : omega-transport]).

        The transport conjugates the image of D_h by the twist and the
        edge's factor: c alpha(D_h) c^-1 with c = cc0 . g_alpha, and
        likewise at the target with cc1 . g_omega."""
        A = self.A
        h = self.edges[eidx]
        e = self.m1.edge_image(h.f)
        Eh = self.edge_group(eidx)
        Au, Au2 = A.vgroups[A.graph.o(e)], A.vgroups[A.graph.t(e)]
        _, cc0, _, cc1 = self.edge_factors(h)
        c0 = Au.mul(cc0, self.m2.twist_alpha(h.g))
        c1 = Au2.mul(cc1, self.m2.twist_omega(h.g))
        tr_a = A.alpha(e).apply_subgroup(Eh).conjugate(Au.inv(c0))
        a_idx = tr_a.index_in(self.vertex_group(h.src))
        tr_w = A.omega(e).apply_subgroup(Eh).conjugate(Au2.inv(c1))
        return a_idx, tr_w.index_in(self.vertex_group(h.dst))

    def to_json(self):
        """Machine-readable report: the gog file shape extended with witness,
        source-pair and group fields.  The only place that computes the
        vertex and edge groups; dump() and dot() render this dict."""
        A = self.A
        verts = {}
        for i, x in enumerate(self.vertices):
            u = self.m1.vmap[x.v]
            Au = A.vgroups[u]
            D = self.vertex_group(i)
            verts[f"x{i}"] = {
                "pair": [self.m1.source.graph.vnames[x.v],
                         self.m2.source.graph.vnames[x.w]],
                "over": A.graph.vnames[u],
                "witness": Au.serialize(x.witness),
                "group": [Au.serialize(g) for g in D.gens],
                # expansion starts at the base vertex and follows edges, so
                # every vertex is in the base component
                "component": 0,
            }
        edges = []
        for j, h in enumerate(self.edges):
            e = self.m1.edge_image(h.f)
            Ge = A.egroup(e)
            E = self.edge_group(j)
            edges.append({
                "name": f"h{j}",
                "from": f"x{h.src}",
                "to": f"x{h.dst}",
                "pair": [self.m1.source.graph.edge_name(h.f),
                         self.m2.source.graph.edge_name(h.g)],
                "over": A.graph.edge_name(e),
                "witness": Ge.serialize(h.witness),
                "group": [Ge.serialize(g) for g in E.gens],
            })
        return {"vertices": verts, "edges": edges, "complete": self.complete,
                "unexpandable": {str(k): v for k, v in self.unexpandable.items()}}

    @staticmethod
    def dump(report):
        """Deterministic text report of a to_json() dict."""
        lines = []
        for name, x in report["vertices"].items():
            lines.append(
                f"vertex {name[1:]}: pair=({x['pair'][0]},{x['pair'][1]})"
                f" witness={x['witness']!r}"
                f" group=<{', '.join(repr(g) for g in x['group'])}>"
                f" component={x['component']}")
        for h in report["edges"]:
            lines.append(
                f"edge {h['name'][1:]}: {h['from'][1:]}->{h['to'][1:]}"
                f" pair=({h['pair'][0]},{h['pair'][1]})"
                f" witness={h['witness']!r}"
                f" group=<{', '.join(repr(g) for g in h['group'])}>")
        lines.append(f"complete: {report['complete']}")
        for idx in sorted(report["unexpandable"], key=int):
            lines.append(f"unexpandable {idx}: {report['unexpandable'][idx]}")
        return "\n".join(lines)

    @staticmethod
    def dot(report):
        """DOT rendering of a to_json() dict."""
        lines = ["digraph fragment {"]
        for name, x in report["vertices"].items():
            label = (f"({x['pair'][0]},{x['pair'][1]}) {x['witness']!r} "
                     f"<{','.join(repr(g) for g in x['group'])}>")
            lines.append(f'  {name[1:]} [label="{label}"];')
        for h in report["edges"]:
            lines.append(f"  {h['from'][1:]} -> {h['to'][1:]};")
        lines.append("}")
        return "\n".join(lines)


def _tokens(vgroups):
    """tok(v, x, inverted=False): the text of x, or of x^-1, in vgroups[v]
    as APath.__repr__ renders it, each rendered once."""
    memo = {}

    def tok(v, x, inverted=False):
        s = memo.get((v, x, inverted))
        if s is None:
            G = vgroups[v]
            s = memo[(v, x, inverted)] = repr(G.serialize(G.inv(x) if inverted else x))
        return s
    return tok


def _path_texts(p, tok):
    """(text of p up to its last element, text of p^-1 from its first
    element on), with tok(v, x, inverted) the text of x or x^-1 in A_v."""
    t, name = p.gog.graph.t, p.gog.graph.edge_name
    head, tail = [], []
    v = p.base
    for x, e in zip(p.elems, p.edges):
        head += (tok(v, x), ", ", name(e), ", ")
        tail += (tok(v, x, True), ", ", name(einv(e)), ", ")
        v = t(e)
    tail.reverse()
    return "".join(head), "".join(tail)


def build_product(m1, m2, budget=64, v0=None, w0=None):
    """The product expanded from the base vertex (v0, w0), as in add_base."""
    frag = AProductFragment(m1, m2)
    frag.add_base(v0, w0)
    return frag.build(budget=budget)
