"""Morphisms of graphs of groups with twisting elements.

Covers validation of the twisted commutation equations, immersion
certificates (local injectivity on edge double cosets plus exactness of edge
groups), the three-valued covering test, deterministic membership tracing
through an immersion, and a best-effort realization of a finitely generated
subgroup as a pointed immersion by iterated folding.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .backends import Mono, SubgroupBackend
from .gog import GraphOfGroups
from .graphs import Graph, einv


class GoGMorphism:
    def __init__(self, source, target, vmap, emap, vmonos, emonos, twists):
        """emap[p]: directed target edge for the positive half of source pair p;
        twists[p] = (f_alpha, f_omega) for the positive half."""
        self.source = source
        self.target = target
        self.vmap = list(vmap)
        self.emap = list(emap)
        self.vmonos = list(vmonos)
        self.emonos = list(emonos)
        self.twists = [tuple(t) for t in twists]

    def edge_image(self, f):
        e = self.emap[f >> 1]
        return e if f & 1 == 0 else einv(e)

    def twist_alpha(self, f):
        return self.twists[f >> 1][0] if f & 1 == 0 else self.twists[f >> 1][1]

    def twist_omega(self, f):
        return self.twists[f >> 1][1] if f & 1 == 0 else self.twists[f >> 1][0]

    def vertex_image_handle(self, v):
        return self.vmonos[v].image()

    def edge_image_handle(self, p):
        return self.emonos[p].image()


def morphism_of_handles(A, graph, vmap, vsubs, emap, esubs, twists):
    """The morphism into A whose source has underlying graph `graph`: vertex
    v lies over A's vertex vmap[v] with the subgroup handle vsubs[v] of its
    group, and pair p over A's directed edge emap[p] with the subgroup
    handle esubs[p] of its edge group and the twists twists[p] = (ta, tw).

    Each handle becomes a SubgroupBackend with its inclusion Mono, and the
    edge maps of pair p send a generator s of its edge group to
    ta alpha(s) ta^-1 and tw omega(s) tw^-1.  Vertices and edges holding the
    same handle share one SubgroupBackend and one inclusion Mono, and edge
    maps with equal domain, codomain and images share one Mono; the memos
    are keyed by id and live for this call only, and are only looked up,
    never iterated."""
    backends, maps = {}, {}

    def backend(G, sub):
        """(SubgroupBackend of sub in G, its inclusion into G)."""
        key = (id(G), id(sub))
        got = backends.get(key)
        if got is None:
            S = SubgroupBackend(G, sub)
            got = backends[key] = (S, Mono(S, G, S.generators()))
        return got

    def edge_map(dom, cod, images):
        key = (id(dom), id(cod), tuple(images))
        got = maps.get(key)
        if got is None:
            got = maps[key] = Mono(dom, cod, images)
        return got

    vparts = [backend(A.vgroups[u], sub) for u, sub in zip(vmap, vsubs)]
    eparts = [backend(A.egroup(e), sub) for e, sub in zip(emap, esubs)]
    vgroups = [S for S, _ in vparts]
    monos = []
    for p, (e, (E, _), (ta, tw)) in enumerate(zip(emap, eparts, twists)):
        gens = E.generators()
        monos.append((edge_map(E, vgroups[graph.org[p]], A.alpha(e).twisted_images(ta, gens)),
                      edge_map(E, vgroups[graph.tgt[p]], A.omega(e).twisted_images(tw, gens))))
    B = GraphOfGroups(graph, vgroups, [E for E, _ in eparts], monos)
    return GoGMorphism(B, A, vmap, emap, [inc for _, inc in vparts],
                       [inc for _, inc in eparts], twists)


def validate_morphism(m):
    """Report-valued check of incidence, typing and twisted commutation."""
    violations = []
    S, T = m.source, m.target
    gs, gt = S.graph, T.graph
    for v in range(gs.nv):
        if m.vmonos[v].domain is not S.vgroups[v] or m.vmonos[v].codomain is not T.vgroups[m.vmap[v]]:
            violations.append(("vertex-mono-typing", gs.vnames[v]))
    for p in range(gs.n_pairs):
        f = 2 * p
        e = m.edge_image(f)
        name = gs.enames[p]
        if m.vmap[gs.o(f)] != gt.o(e) or m.vmap[gs.t(f)] != gt.t(e):
            violations.append(("graph-map-incidence", name))
            continue
        mono_f = m.emonos[p]
        if mono_f.domain is not S.egroups[p] or mono_f.codomain is not T.egroup(e):
            violations.append(("edge-mono-typing", name))
            continue
        for half in (f, einv(f)):
            eh = m.edge_image(half)
            v = gs.o(half)
            Av, Au = S.vgroups[v], T.vgroups[gt.o(eh)]
            f_alpha = m.twist_alpha(half)
            side = "alpha" if half == f else "omega"
            for gi, x in enumerate(S.egroup(half).generators()):
                img = S.alpha(half).apply(x)
                if isinstance(Av, SubgroupBackend) and not Av.handle.contains(img):
                    violations.append(("edge-image-outside-vertex-group", name, side, gi))
                    continue
                lhs = T.alpha(eh).apply(mono_f.apply(x))
                inner = m.vmonos[v].apply(img)
                rhs = Au.mul(Au.mul(Au.inv(f_alpha), inner), f_alpha)
                if not Au.eq(lhs, rhs):
                    violations.append(("twisted-commutation", name, side, gi))
    return violations


class ImmersionCertificate:
    def __init__(self, vertex_blocks, edge_checks):
        self.vertex_blocks = vertex_blocks    # (v, target edge) -> [(f, witness)]
        self.edge_checks = edge_checks        # source pair -> True

    def report(self, m):
        lines = []
        gs = m.source.graph
        for (v, e), items in sorted(self.vertex_blocks.items()):
            Au = m.target.vgroups[m.vmap[v]]
            names = ", ".join(f"{gs.edge_name(f)}:{Au.serialize(w)!r}" for f, w in items)
            lines.append(f"vertex {gs.vnames[v]} over edge "
                         f"{m.target.graph.edge_name(e)}: {names}")
        lines.append(f"edge-group equalities verified: {len(self.edge_checks)}")
        return "\n".join(lines)


class ImmersionFailure(Exception):
    def __init__(self, kind, witness):
        super().__init__(f"{kind}: {witness}")
        self.kind = kind
        self.witness = witness


def is_immersion(m):
    """ImmersionCertificate, or raises ImmersionFailure with the offending
    pair (condition 1) or edge (condition 2)."""
    S, T = m.source, m.target
    gs = S.graph
    vertex_blocks = {}
    out = gs.out_edges()
    for v in range(gs.nv):
        by_image = {}
        for f in out[v]:
            by_image.setdefault(m.edge_image(f), []).append(f)
        u = m.vmap[v]
        Au = T.vgroups[u]
        H = m.vertex_image_handle(v)
        for e, fs in by_image.items():
            dc = Au.double_cosets(H, T.alpha(e).image())
            items = []
            seen = {}
            for f in fs:
                w = dc.canon(m.twist_alpha(f))
                if w in seen:
                    raise ImmersionFailure(
                        "edges-not-separated",
                        (gs.edge_name(seen[w]), gs.edge_name(f), gs.vnames[v]))
                seen[w] = f
                items.append((f, w))
            vertex_blocks[(v, e)] = items
    edge_checks = {}
    for p in range(gs.n_pairs):
        for f in (2 * p, 2 * p + 1):
            e = m.edge_image(f)
            v = gs.o(f)
            H = m.vertex_image_handle(v)
            alpha_img = T.alpha(e).image()
            rhs = H.conjugate(m.twist_alpha(f)).intersect(alpha_img)
            lhs_gens = [T.alpha(e).apply(m.emonos[p].apply(x))
                        for x in S.egroup(f).generators()]
            lhs = T.vgroups[m.vmap[v]].subgroup(lhs_gens)
            if not lhs.equals(rhs):
                raise ImmersionFailure("edge-group-not-exact", gs.edge_name(f))
        edge_checks[p] = True
    return ImmersionCertificate(vertex_blocks, edge_checks)


def is_covering(m, certificate=None):
    """True / False / None (not decidable): local surjectivity on double cosets."""
    if certificate is None:
        certificate = is_immersion(m)
    S, T = m.source, m.target
    gs, out = S.graph, T.graph.out_edges()
    for v in range(gs.nv):
        u = m.vmap[v]
        for e in out[u]:
            witnesses = {w for _, w in certificate.vertex_blocks.get((v, e), ())}
            dc = T.vgroups[u].double_cosets(m.vertex_image_handle(v), T.alpha(e).image())
            try:
                total = dc.reps()
            except ValueError:
                return False    # infinitely many double cosets: no finite star is onto
            if total is None:
                return None
            if witnesses != total:
                return False
    return True


def trace_apath(m, p, start=None):
    """Deterministic lifting of a closed target A-path through an immersion.

    Returns True iff p lies in the image of pi_1 of the source at the start
    vertex (defaults to the vertex over p.base)."""
    S, T = m.source, m.target
    gs, gt = S.graph, T.graph
    if start is None:
        candidates = [v for v in range(gs.nv) if m.vmap[v] == p.base]
        if len(candidates) != 1:
            raise ValueError("ambiguous start vertex; pass start=")
        start = candidates[0]
    out = gs.out_edges()
    v = start
    carry = p.elems[0]
    for i, e in enumerate(p.edges):
        Au = T.vgroups[gt.o(e)]
        dc = Au.double_cosets(m.vertex_image_handle(v), T.alpha(e).image())
        lifted = None
        for f in out[v]:
            if m.edge_image(f) != e:
                continue
            if dc.eq(m.twist_alpha(f), carry):
                lifted = f
                break
        if lifted is None:
            return False
        _, kk = dc.factor(m.twist_alpha(lifted), carry)
        x = T.alpha(e).preimage_elt(kk)
        Av = T.vgroups[gt.t(e)]
        carry = Av.mul(Av.mul(m.twist_omega(lifted), T.omega(e).apply(x)),
                       p.elems[i + 1])
        v = gs.t(lifted)
    if v != start:
        return False
    return m.vertex_image_handle(v).contains(carry)


# ---------------------------------------------------------------------------
# realize_subgroup: wedge generator petals, then fold
# ---------------------------------------------------------------------------


class BudgetExceeded(Exception):
    def __init__(self, partial):
        super().__init__("folding budget exceeded")
        self.partial = partial


class _Builder:
    """Folding state of realize_subgroup, kept as a worklist.

    `inc[v]` is the set of (edge index, forward?) views with origin v, and
    `dirty` holds the live vertices that may have two views of equal fold
    key (e, canon of H_v ta alpha_e(E)).  A key changes only when H_v
    grows or an edge is added at v or re-homed onto it, and removing an
    edge never creates a collision, so a vertex is marked dirty only when
    one of these can make two keys meet:
      - add_generator marks the base, and a new vertex inside a petal only
        where the petal backtracks (e_{i+1} = e_i^-1): such a vertex holds
        the trivial subgroup and two views, whose keys are equal only if
        their edges are;
      - a merge marks the vertex it folds another into, and a vertex whose
        subgroup grows (add_generator, merge, saturate_edge) is touched,
        which marks it.
    Hence every vertex outside `dirty` is collision-free, the lowest-id
    vertex with a collision is dirty, and checking the dirty vertices in
    ascending id finds the same fold as a scan of every vertex in id order.

    `queue` is a min-heap of vertex ids holding every id in `dirty`: mark(v)
    pushes v when it enters the set, and an id leaves the heap only when
    find_fold pops it, after finding v collision-free (and discarding it)
    or finding it no longer dirty.  The only id that leaves `dirty` any
    other way is one a merge folds away, which stays queued until popped.
    So the least dirty entry of the heap is min(dirty), find_fold visits
    the dirty vertices in the ascending order a sorted scan would, and the
    pops of a whole run are at most its pushes, one per entry into `dirty`.

    `scan` is find_fold's scan of the vertex v it last returned a fold at:
    v's sorted views, `seen` (each key met so far, with its first view) and
    the position and key of the colliding view.  The merge of that fold
    kills one of the two views; kill_edge patches the scan, making the
    colliding view the first of its key when the earlier one dies.  The
    views before the collision keep distinct keys, so a fresh scan of v
    would find no collision before that position, and when v is next the
    lowest dirty vertex find_fold carries on from the view after it.
    Whatever can change v's keys drops the scan: mark at v (touch, and a
    merge that re-homes edges onto v, mark it), or any other view of v
    dying.  A v that is folded away is never dirty again, so its scan is
    never resumed.

    `dcs` holds one double-coset handle per (subgroup handle, target edge
    e), H \\ A_o(e) / alpha_e(E), shared by find_fold and merge across
    every vertex holding H.  Subgroup handles are immutable and H_v changes
    only by assigning v a new one, so an entry never goes stale.  A join
    whose value equals an operand returns that operand (the handle
    contract), and merge replaces a subgroup only when its join is a new
    handle, so a vertex keeps its handle, and its entries, until its
    subgroup grows: the table holds one entry per subgroup value reached
    and target edge, not one per merge.  A fold key is recomputed, not
    stored: finite and free handles remember their canon answers, and an
    abelian canon is one reduction by a lattice built once per handle.

    `fresh[u]` is the one trivial subgroup of A_u that every vertex over u
    starts with, and `trivial_esub[p]` the one trivial subgroup every new
    edge over pair p starts with: handles are immutable, so vertices and
    edges may share them.

    `dirty_edges` holds the live edges whose saturation inputs (twists, edge
    group, endpoint subgroups) may have changed since saturate_edge last
    left them unchanged.  An edge joins it when it is created, when its
    edge group grows, when saturate_edge changes anything on it, when an
    endpoint's subgroup grows (touch), and when a merge re-homes it.  A
    merge that re-homes edges onto y1 without growing H_y1 dirties only
    those edges: the inputs of y1's other edges are unchanged.  A merge of
    two edges between the same two vertices whose transports add nothing,
    x S x^-1 to the primary edge group and delta to H_y1, only kills the
    secondary edge and dirties nothing.
    saturate_edge is deterministic, so on an edge outside the set it would
    change nothing, and the sweep of realize_subgroup may skip it.

    `pushed` marks an edge whose pushed edge group ta.alpha(esub).ta^-1
    (and tw.omega(esub).tw^-1) is known to lie in its origin's (and
    target's) subgroup.  Subgroups only grow, and re-homing re-anchors the
    twists and the folded vertex's subgroup by the same delta, so only a
    growing edge group (the merge join, or saturate_edge's own growth, which
    pushes at once) can break it; saturate_edge skips the push while it
    holds.

    `trivial[p]` records, once per target edge pair p, whether A's edge
    group of p has order 1.  saturate_edge returns False at once on an edge
    mapped to such a pair: its esub is trivial and cannot grow, and its push
    adds only the identity, so the full call would change nothing and count
    no step.  It leaves `pushed` False after a merge, but on such an edge
    nothing else reads it."""

    def __init__(self, A, u0):
        self.A = A
        self.u0 = u0
        self.verts = []           # {img, sub, alive}
        self.edges = []           # {img (directed), src, dst, ta, tw, esub, pushed, alive}
        self.inc = []             # vertex -> {(edge index, forward?)}
        self.dirty = set()
        self.queue = []           # min-heap: every dirty id, plus ids folded away
        self.dirty_edges = set()
        self.trivial = [G.order() == 1 for G in A.egroups]
        self.trivial_esub = [G.trivial_subgroup() for G in A.egroups]
        self.fresh = [G.trivial_subgroup() for G in A.vgroups]
        self.dcs = {}             # (subgroup handle, target edge) -> double cosets
        self.scan = None          # (v, views, seen, pos, key): find_fold's kept scan
        self.base = self.new_vertex(u0)

    def new_vertex(self, img):
        self.verts.append({"img": img, "sub": self.fresh[img], "alive": True})
        self.inc.append(set())
        return len(self.verts) - 1

    def mark(self, v):
        """v's fold keys may have changed: put v in `dirty`, pushing it on
        the queue when it was not there, and drop its kept scan."""
        if self.scan is not None and self.scan[0] == v:
            self.scan = None
        if v not in self.dirty:
            self.dirty.add(v)
            heappush(self.queue, v)

    def add_generator(self, p):
        if p.base != self.u0 or not p.is_closed():
            raise ValueError("generators must be closed A-paths at the basepoint")
        A = self.A
        if len(p.edges) == 0:
            G = A.vgroups[self.u0]
            self.verts[self.base]["sub"] = self.verts[self.base]["sub"].join(
                G.subgroup([p.elems[0]]))
            self.touch(self.base)
            return
        k = len(p.edges)
        prev = self.base
        self.mark(self.base)
        for i, e in enumerate(p.edges):
            last = i == k - 1
            nxt = self.base if last else self.new_vertex(A.graph.t(e))
            if not last and p.edges[i + 1] == einv(e):
                self.mark(nxt)
            Gt = A.vgroups[A.graph.t(e)]
            j = len(self.edges)
            self.edges.append({
                "img": e, "src": prev, "dst": nxt,
                "ta": p.elems[i],
                "tw": Gt.inv(p.elems[k]) if last else Gt.identity(),
                "esub": self.trivial_esub[e >> 1],
                "pushed": True,
                "alive": True,
            })
            self.inc[prev].add((j, True))
            self.inc[nxt].add((j, False))
            self.dirty_edges.add(j)
            prev = nxt

    def star(self, v):
        """(edge index, forward?) views with origin v, in edge order."""
        return sorted(self.inc[v], key=lambda view: (view[0], not view[1]))

    def touch(self, v):
        """v's subgroup grew: its fold keys and the saturation inputs of its
        edges may have changed."""
        self.mark(v)
        self.dirty_edges.update(i for i, _ in self.inc[v])

    def kill_edge(self, i):
        d = self.edges[i]
        d["alive"] = False
        self.dirty_edges.discard(i)
        self.inc[d["src"]].discard((i, True))
        self.inc[d["dst"]].discard((i, False))
        if self.scan is not None and self.scan[0] in (d["src"], d["dst"]):
            # i holds one view of the kept collision: when it is the
            # earlier one, the colliding view becomes the first of its key;
            # any other dying view of the scanned vertex drops the scan
            _, views, seen, pos, key = self.scan
            if d["src"] == d["dst"] or i not in (seen[key][0], views[pos][0]):
                self.scan = None
            elif seen[key][0] == i:
                seen[key] = views[pos]

    def view(self, i, forward):
        d = self.edges[i]
        if forward:
            return d["img"], d["src"], d["dst"], d["ta"], d["tw"]
        return einv(d["img"]), d["dst"], d["src"], d["tw"], d["ta"]

    def double_cosets(self, v, e):
        """The handle on H_v \\ A_o(e) / alpha_e(E), one per (H_v, e)."""
        sub = self.verts[v]["sub"]
        dc = self.dcs.get((sub, e))
        if dc is None:
            dc = self.dcs[sub, e] = self.A.vgroups[self.A.graph.o(e)].double_cosets(
                sub, self.A.alpha(e).image())
        return dc

    def find_fold(self):
        """(v, first view, colliding view) at the lowest-id vertex with two
        star views of equal fold key, or None.  The scan of v is kept when
        a fold is returned, and resumed after the colliding view when v is
        the lowest dirty vertex again and nothing dropped the scan."""
        queue = self.queue
        while queue:
            v = queue[0]
            if v in self.dirty:
                if self.scan is not None and self.scan[0] == v:
                    _, views, seen, pos, _ = self.scan
                    self.scan, start = None, pos + 1
                else:
                    views, seen, start = self.star(v), {}, 0
                for pos in range(start, len(views)):
                    view = views[pos]
                    e, _, _, ta, _ = self.view(*view)
                    key = e, self.double_cosets(v, e).canon(ta)
                    if key in seen:
                        self.scan = v, views, seen, pos, key
                        return v, seen[key], view
                    seen[key] = view
                self.dirty.discard(v)
            heappop(queue)
        return None

    def merge(self, v, primary, secondary):
        A = self.A
        # prefer keeping the basepoint (and then the smaller vertex id)
        y1 = self.view(*primary)[2]
        y2 = self.view(*secondary)[2]
        if (y2 == self.base and y1 != self.base) or (y1 != self.base and y2 < y1):
            primary, secondary = secondary, primary
            y1, y2 = y2, y1
        e, _, _, p_ta, p_tw = self.view(*primary)
        _, _, _, s_ta, s_tw = self.view(*secondary)
        _, kk = self.double_cosets(v, e).factor(p_ta, s_ta)
        x = A.alpha(e).preimage_elt(kk)
        Gt = A.vgroups[A.graph.t(e)]
        delta = Gt.mul(Gt.mul(p_tw, A.omega(e).apply(x)), Gt.inv(s_tw))
        # transport the secondary's edge group: x S x^-1 joins the primary's;
        # only a new handle changes the primary edge, and then dirties it
        p_edge = self.edges[primary[0]]
        esub = p_edge["esub"].join(
            self.edges[secondary[0]]["esub"].conjugate(A.egroup(e).inv(x)))
        if esub is not p_edge["esub"]:
            p_edge["esub"] = esub
            p_edge["pushed"] = False
            self.dirty_edges.add(primary[0])
        self.kill_edge(secondary[0])
        # when both edges end at y1, nothing is re-homed, and y1 is touched
        # only when delta grows its subgroup
        if y1 == y2:
            if not self.verts[y1]["sub"].contains(delta):
                self.verts[y1]["sub"] = self.verts[y1]["sub"].join(Gt.subgroup([delta]))
                self.touch(y1)
            return
        # fold y2 into y1, re-anchoring by delta
        sub = self.verts[y1]["sub"].join(self.verts[y2]["sub"].conjugate(Gt.inv(delta)))
        self.verts[y2]["alive"] = False
        self.dirty.discard(y2)
        moved = self.inc[y2]
        for j, fwd in moved:
            d = self.edges[j]
            if fwd:
                Go = A.vgroups[A.graph.o(d["img"])]
                d["ta"] = Go.mul(delta, d["ta"])
                d["src"] = y1
            else:
                Gd = A.vgroups[A.graph.t(d["img"])]
                d["tw"] = Gd.mul(delta, d["tw"])
                d["dst"] = y1
        self.inc[y1] |= moved
        self.inc[y2] = set()
        # a grown y1 dirties all its edges; otherwise only the re-homed
        # edges' saturation inputs changed
        if sub is not self.verts[y1]["sub"]:
            self.verts[y1]["sub"] = sub
            self.touch(y1)
        else:
            self.mark(y1)
            self.dirty_edges.update(j for j, _ in moved)

    def saturate_edge(self, i):
        """Condition-2 growth at edge i; returns True when anything grew.
        A join hands back its operand when the value is unchanged, so a
        group grew exactly when its join is a new handle."""
        A = self.A
        d = self.edges[i]
        self.dirty_edges.discard(i)
        if self.trivial[d["img"] >> 1]:
            return False
        changed = False
        e = d["img"]
        alpha, omega = A.alpha(e), A.omega(e)
        Ho = self.verts[d["src"]]["sub"]
        Ht = self.verts[d["dst"]]["sub"]
        req_a = Ho.conjugate(d["ta"]).intersect(alpha.image())
        req_w = Ht.conjugate(d["tw"]).intersect(omega.image())
        S_new = d["esub"].join(alpha.preimage_sub(req_a)).join(omega.preimage_sub(req_w))
        if S_new is not d["esub"]:
            d["esub"] = S_new
            d["pushed"] = False
            changed = True
        if d["pushed"]:
            return changed
        push_a = A.vgroups[A.graph.o(e)].subgroup(alpha.twisted_images(d["ta"], d["esub"].gens))
        push_w = A.vgroups[A.graph.t(e)].subgroup(omega.twisted_images(d["tw"], d["esub"].gens))
        grown_o = self.verts[d["src"]]["sub"].join(push_a)
        if grown_o is not self.verts[d["src"]]["sub"]:
            self.verts[d["src"]]["sub"] = grown_o
            self.touch(d["src"])
            changed = True
        grown_t = self.verts[d["dst"]]["sub"].join(push_w)
        if grown_t is not self.verts[d["dst"]]["sub"]:
            self.verts[d["dst"]]["sub"] = grown_t
            self.touch(d["dst"])
            changed = True
        d["pushed"] = True
        if changed:
            self.dirty_edges.add(i)
        return changed

    def trim(self):
        """Prune pendant vertices whose single edge is omega-surjective onto
        the vertex subgroup (the core_at turn rule), plus isolated vertices."""
        A = self.A
        changed = True
        while changed:
            changed = False
            for y in range(len(self.verts)):
                if not self.verts[y]["alive"] or y == self.base:
                    continue
                incident = self.inc[y]
                if len(incident) == 0:
                    self.verts[y]["alive"] = False
                    changed = True
                    continue
                if len(incident) == 1:
                    i, fwd = next(iter(incident))
                    # view into y: reverse of the star view
                    e, _, _, ta, tw = self.view(i, not fwd)
                    img = A.vgroups[A.graph.t(e)].subgroup(
                        A.omega(e).twisted_images(tw, self.edges[i]["esub"].gens))
                    if img.equals(self.verts[y]["sub"]):
                        self.kill_edge(i)
                        self.verts[y]["alive"] = False
                        changed = True

    def to_morphism(self):
        """(morphism_of_handles of the folded graph, new id of the base):
        the live vertices b{v} and edges f{i}, named by builder id."""
        vids = [i for i, v in enumerate(self.verts) if v["alive"]]
        vmapping = {old: new for new, old in enumerate(vids)}
        eids = [i for i, d in enumerate(self.edges) if d["alive"]]
        verts = [self.verts[v] for v in vids]
        edges = [self.edges[i] for i in eids]
        graph = Graph(len(vids), [(vmapping[d["src"]], vmapping[d["dst"]]) for d in edges],
                      vnames=[f"b{v}" for v in vids], enames=[f"f{i}" for i in eids])
        m = morphism_of_handles(self.A, graph, [v["img"] for v in verts],
                                [v["sub"] for v in verts], [d["img"] for d in edges],
                                [d["esub"] for d in edges], [(d["ta"], d["tw"]) for d in edges])
        return m, vmapping[self.base]


def realize_subgroup(A, u0, generators, budget=2000):
    """Pointed immersion whose pi_1-image contains every generator.

    generators: closed A-paths at u0.  Folds condition-(1) violations and
    grows edge/vertex groups until condition (2) stabilizes; deterministic
    (first violating pair in scan order: find_fold takes the lowest-id dirty
    vertex off the builder's heap, never sorting).  Each saturation sweep
    visits the edges in ascending index and skips those outside the
    builder's dirty_edges, on which saturate_edge would change nothing; an
    edge dirtied behind the sweep waits for the next round, and an edge
    mapped to a trivial edge group of A returns at once.  Each merge and
    each saturation that changes something is one step; raises
    BudgetExceeded with the partial morphism when the step budget runs out."""
    from .gog import reduce_apath
    b = _Builder(A, u0)
    for p in generators:
        b.add_generator(reduce_apath(p))
    steps = 0
    while True:
        progress = False
        while True:
            found = b.find_fold()
            if found is None:
                break
            v, primary, secondary = found
            b.merge(v, primary, secondary)
            progress = True
            steps += 1
            if steps > budget:
                raise BudgetExceeded(b.to_morphism())
        for i in range(len(b.edges)):
            if i in b.dirty_edges and b.saturate_edge(i):
                progress = True
                steps += 1
                if steps > budget:
                    raise BudgetExceeded(b.to_morphism())
        if not progress:
            break
    b.trim()
    m, base = b.to_morphism()
    return m, base
