import json
from random import Random

import pytest
from hypothesis import event, given, settings, strategies as st

from gogroups.backends import AbelianGroup, FiniteGroup, FreeGroup, Mono
from gogroups.backends.base import UnsupportedExpansion, evaluate_word
from gogroups.cli import main
from gogroups.gog import (APath, GraphOfGroups, apath_concat, apath_inverse,
                          reduce_apath, reduce_concat)
from gogroups.graphs import Graph, einv
from gogroups.library import (bs_gog, nofgip_gog, rose_gog, segment_z_gog,
                              word_apath)
from gogroups.morphism import is_immersion, realize_subgroup
from gogroups.pullback import (AProductFragment, ProductEdge, _path_texts, _tokens,
                               build_product)
from gogroups.words import parse_word, winv, wmul, wreduce
from test_double_cosets import counting
from test_gog import apaths_equal
from test_morphism import identity_morphism


def nofgip_immersions():
    A = nofgip_gog()
    a1 = APath(A, 0, [(1, 0)], [])
    ehat = APath(A, 0, [(0, 0), (0, 0)], [0])
    ehat_a2 = APath(A, 0, [(0, 0), (0, 1)], [0])
    mC, _ = realize_subgroup(A, 0, [a1, ehat])
    mB, _ = realize_subgroup(A, 0, [a1, ehat_a2])
    return A, mB, mC


def degree_stats(frag):
    """Out-degree of each product vertex that has an out-edge."""
    out = {}
    for h in frag.edges:
        out[h.src] = out.get(h.src, 0) + 1
    return out


def test_base_vertex_trivial_groups():
    A = rose_gog(2)
    m = identity_morphism(A)
    frag = AProductFragment(m, m)
    frag.add_base()
    assert frag.vertices[0].witness == 0
    assert frag.index == {(0, 0, 0): 0}


def test_identity_product_of_finite_gog():
    # B = C = identity of a finite-group gog: completes with one vertex per
    # vertex of A carrying the full group
    from gogroups.library import free_product_of_finite_gog
    t2 = [[0, 1], [1, 0]]
    t3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    A = free_product_of_finite_gog(t2, t3)
    m = identity_morphism(A)
    frag = build_product(m, m, budget=64)
    assert frag.complete
    assert len(frag.vertices) == 2
    for i in range(2):
        D = frag.vertex_group(i)
        assert D.order() == A.vgroups[frag.vertices[i].v].order()


def test_nofgip_ray_prefix():
    A, mB, mC = nofgip_immersions()
    frag = build_product(mC, mB, budget=8)
    assert not frag.complete
    wits = [x.witness for x in frag.vertices[:4]]
    assert wits == [(0, 0), (0, 1), (0, 3), (0, 7)]
    for i in range(len(frag.vertices)):
        D = frag.vertex_group(i)
        assert D.gens == ((1, 0),)
    for j in range(min(3, len(frag.edges))):
        E = frag.edge_group(j)
        assert E.gens == ((1, 0),)


def test_nofgip_never_completes():
    A, mB, mC = nofgip_immersions()
    for budget in (8, 16, 32, 64):
        frag = build_product(mC, mB, budget=budget)
        assert not frag.complete
        assert len(frag.vertices) >= budget


def test_nofgip_ray_certificate_fires():
    A, mB, mC = nofgip_immersions()
    frag = build_product(mC, mB, budget=8)
    cert = frag.ray_certificate()
    assert cert is not None
    assert cert["verdict"] == "provably infinite ascending union"
    assert cert["ascent"] >= 2


def eager_ray_certificate(frag, min_periods=3):
    """The ray certificate as first written: the full signature, with both
    transport indices, of every chain edge before any period is tried."""
    n = len(frag.vertices)
    if n < 4 or frag.complete:
        return None
    succ = {}
    for j, h in enumerate(frag.edges):
        if not h.tree or h.src in succ:
            return None
        succ[h.src] = j
    chain = []
    cur = 0
    while cur in succ:
        chain.append(succ[cur])
        cur = frag.edges[succ[cur]].dst
    if len(chain) + 1 != n:
        return None
    sigs = []
    for j in chain:
        h = frag.edges[j]
        a_idx, w_idx = frag._transport_indices(j)
        xs = frag.vertices[h.src]
        sigs.append((xs.v, xs.w, h.f, h.g, a_idx, w_idx))
    for period in range(1, len(sigs) // min_periods + 1):
        window = sigs[-min_periods * period:]
        if len(window) < min_periods * period:
            continue
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


def chain_shapes(frag):
    """(v, w, f, g) of each edge along the product when it is one outbound
    path of tree edges from the base vertex; None otherwise."""
    succ = {h.src: h for h in frag.edges}
    if len(succ) != len(frag.edges) or not all(h.tree for h in frag.edges):
        return None
    out, cur = [], 0
    while cur in succ:
        out.append((frag.vertices[cur].v, frag.vertices[cur].w, succ[cur].f, succ[cur].g))
        cur = succ[cur].dst
    return out if len(out) == len(frag.edges) else None


def test_ray_certificate_matches_the_eager_scan_on_the_zsq_ray():
    A, mB, mC = nofgip_immersions()
    for budget in (4, 5, 6, 8, 13, 16, 32, 64):
        frag = build_product(mC, mB, budget=budget)
        want = eager_ray_certificate(frag)
        assert want is not None
        assert frag.ray_certificate() == want
        for min_periods in (1, 2, 5):
            assert frag.ray_certificate(min_periods) == eager_ray_certificate(frag, min_periods)


def test_ray_certificate_matches_the_eager_scan_on_the_golden_pairs():
    from types import SimpleNamespace
    from gogroups.cli import _load_product
    from test_golden import PAIRS, _path
    for g, first, second, budget in PAIRS:
        frag = _load_product(SimpleNamespace(gog=_path(g), first=_path(first),
                                             second=_path(second), budget=budget))
        assert frag.ray_certificate() == eager_ray_certificate(frag)


def test_ray_certificate_checks_only_its_window(monkeypatch):
    # the zsq ray at budget 256 repeats with period 1, so only the last
    # min_periods chain edges need their transport indices
    A, mB, mC = nofgip_immersions()
    frag = build_product(mC, mB, budget=256)
    calls = []
    transport_indices = AProductFragment._transport_indices

    def counted(self, eidx):
        calls.append(eidx)
        return transport_indices(self, eidx)

    monkeypatch.setattr(AProductFragment, "_transport_indices", counted)
    cert = frag.ray_certificate()
    assert (cert["period"], cert["ascent"], cert["ray_length"]) == (1, 2, 256)
    assert len(calls) <= 3
    assert len(calls) == len(set(calls))


RAY_FAMILIES = [nofgip_gog, lambda: bs_gog(1, 2), lambda: bs_gog(1, 1), lambda: bs_gog(2, 3),
                lambda: bs_gog(-1, 2), lambda: segment_z_gog(1, 2), lambda: segment_z_gog(2, 3)]


def random_generators(A, rng):
    """Generators at vertex 0 with small random elements: often one vertex
    element, then a closed walk of one or two edges, with the way back
    when it ends elsewhere."""
    def elem(v):
        gens = A.vgroups[v].generators()
        return evaluate_word(A.vgroups[v], gens, [(i, rng.randint(-1, 1)) for i in range(len(gens))])

    out = A.graph.out_edges()
    edges, v = [], 0
    for _ in range(rng.randint(1, 2)):
        edges.append(rng.choice(out[v]))
        v = A.graph.t(edges[-1])
    if v != 0:
        edges += [einv(e) for e in reversed(edges)]
    vs = [0] + [A.graph.t(e) for e in edges]
    loop = APath(A, 0, [elem(u) for u in vs], edges)
    return ([APath(A, 0, [elem(0)], [])] if rng.random() < 0.7 else []) + [loop]


def random_immersions(make_gog, seed):
    """Two immersions of random generators over make_gog() and a budget."""
    rng = Random(seed)
    A = make_gog()
    m1, _ = realize_subgroup(A, 0, random_generators(A, rng))
    m2, _ = realize_subgroup(A, 0, random_generators(A, rng))
    return m1, m2, rng.randint(4, 20)


def random_ray_product(family, seed):
    m1, m2, budget = random_immersions(RAY_FAMILIES[family], seed)
    return build_product(m1, m2, budget=budget)


@settings(max_examples=300, deadline=None)
@given(family=st.integers(0, len(RAY_FAMILIES) - 1), seed=st.integers(0, 2**32 - 1))
def test_ray_certificate_matches_the_eager_scan_on_random_products(family, seed):
    frag = random_ray_product(family, seed)
    want = eager_ray_certificate(frag)
    shapes = chain_shapes(frag)
    event("certified" if want else "repeating chain, no certificate"
          if shapes and len(shapes) >= 3 and len(set(shapes[-3:])) == 1 else "other")
    assert frag.ray_certificate() == want


# --- half-edge dedup, vertex and edge groups, anchor inverses ---

class FullKeyFragment(AProductFragment):
    """The product as built before half-edge keys: every fan representative
    is transported and factored at both ends, and only then looked up under
    its full key, the lesser of its two orientations with the witness."""

    def _solve_edges(self, x, f, g, e):
        dc = self._vertex_dc(x.v, x.w)
        sols = []
        for rep, _ in super()._solve_edges(x, f, g, e):
            o_raw = self._transport(f, g, e, rep, 0)
            sols.append((rep, (o_raw, *dc.factor(x.witness, o_raw))))
        return sols

    def _add_edge(self, idx, f, g, e, rep, factors):
        o_raw, bc0, cc0 = factors
        ewitness = self._edge_dc(f, g).canon(rep)
        t_raw = self._transport(f, g, e, rep, 1)
        v2 = self.m1.source.graph.t(f)
        w2 = self.m2.source.graph.t(g)
        dst, created = self._intern(v2, w2, t_raw)
        key = self._edge_key(f, g, idx, dst, ewitness)
        if key in self.edge_keys:
            return
        self.edge_keys.add(key)
        if created:
            self.vertices[dst].tree_edge = len(self.edges)
        bc1, cc1 = self._vertex_dc(v2, w2).factor(self.vertices[dst].witness, t_raw)
        h = ProductEdge(f, g, rep, ewitness, idx, dst, created, o_raw, t_raw)
        h.factors = (bc0, cc0, bc1, cc1)
        self.edges.append(h)

    def _edge_key(self, f, g, src, dst, witness):
        a = (f, g, src, dst)
        b = (einv(f), einv(g), dst, src)
        return (min(a, b), witness)


def product_records(frag):
    return ([(x.v, x.w, x.witness, x.tree_edge) for x in frag.vertices],
            [(h.src, h.dst, h.f, h.g, h.rep, h.witness, *frag.edge_factors(h), h.tree)
             for h in frag.edges],
            frag.complete, frag.unexpandable, list(frag.frontier))


def test_second_base_is_refused():
    # a second base would be a second root, with no tree edge, and would
    # overwrite the factors every anchor starts from
    A = modular_gog()
    m = identity_morphism(A)
    frag = AProductFragment(m, m)
    assert frag.add_base(0, 0) == 0
    factors = frag.base_factors
    with pytest.raises(ValueError, match="already has a base"):
        frag.add_base(1, 1)
    assert len(frag.vertices) == 1 and frag.base_factors == factors


def modular_gog():
    from gogroups.library import free_product_of_finite_gog
    return free_product_of_finite_gog([[0, 1], [1, 0]],
                                      [[(i + j) % 3 for j in range(3)] for i in range(3)])


DEDUP_FAMILIES = RAY_FAMILIES + [lambda: rose_gog(2), modular_gog]


@settings(max_examples=300, deadline=None)
@given(family=st.integers(0, len(DEDUP_FAMILIES) - 1), seed=st.integers(0, 2**32 - 1))
def test_half_edge_keys_build_the_full_key_product(family, seed):
    m1, m2, budget = random_immersions(DEDUP_FAMILIES[family], seed)
    full = FullKeyFragment(m1, m2)
    full.add_base()
    full.build(budget=budget)
    frag = build_product(m1, m2, budget=budget)
    event("with non-tree edges" if any(not h.tree for h in frag.edges) else "a tree")
    assert product_records(frag) == product_records(full)


@settings(max_examples=150, deadline=None)
@given(family=st.integers(0, len(DEDUP_FAMILIES) - 1), seed=st.integers(0, 2**32 - 1))
def test_every_vertex_hangs_off_an_earlier_one(family, seed):
    # the fragment keeps no component per vertex and no expanded flag:
    # every vertex is reached from the base by tree edges, so the whole
    # fragment is the base component, and it is exact when complete
    m1, m2, budget = random_immersions(DEDUP_FAMILIES[family], seed)
    frag = build_product(m1, m2, budget=budget)
    event("complete" if frag.complete else "incomplete")
    assert frag.vertices[0].tree_edge is None
    for i, x in enumerate(frag.vertices[1:], 1):
        h = frag.edges[x.tree_edge]
        assert h.tree and h.dst == i and h.src < i
    assert frag.intersection_generators()[1] == frag.complete
    if frag.complete:
        assert frag.ray_certificate() is None


def test_half_edge_keys_on_the_golden_pairs():
    from types import SimpleNamespace
    from gogroups.cli import _load_product
    from test_golden import PAIRS, _path
    for g, first, second, budget in PAIRS:
        frag = _load_product(SimpleNamespace(gog=_path(g), first=_path(first),
                                             second=_path(second), budget=budget))
        full = FullKeyFragment(frag.m1, frag.m2)
        full.add_base(frag.vertices[0].v, frag.vertices[0].w)
        full.build(budget=budget)
        assert product_records(frag) == product_records(full)


def product_sets(report):
    """The vertices as (pair, witness, group) and the edges as (from, to,
    pair, witness, group), ends named by their vertex's (pair, witness):
    a report with its numbering forgotten."""
    def freeze(x):
        return tuple(map(freeze, x)) if isinstance(x, list) else x
    verts = {name: (freeze(x["pair"]), freeze(x["witness"]), freeze(x["group"]))
             for name, x in report["vertices"].items()}
    edges = {(verts[h["from"]][:2], verts[h["to"]][:2], freeze(h["pair"]),
              freeze(h["witness"]), freeze(h["group"])) for h in report["edges"]}
    return set(verts.values()), edges


def test_abelian_fan_order_only_renumbers_the_product(monkeypatch):
    # the skew Z^2 HNN's pair has an abelian fan of four representatives:
    # listing them in reverse renumbers product vertices, and nothing else
    from types import SimpleNamespace
    from gogroups.backends.abelian import AbelianEdgeFan
    from gogroups.cli import _load_product
    from test_golden import _path
    args = SimpleNamespace(gog=_path("inputs/zsquared_skew"),
                           first=_path("inputs/zsquared_skew_sub_H"),
                           second=_path("inputs/zsquared_skew_sub_K"), budget=12)
    frag = _load_product(args)
    assert frag.complete
    report = frag.to_json()
    init = AbelianEdgeFan.__init__

    def reversed_init(self, *a):
        init(self, *a)
        self.reps.reverse()
    monkeypatch.setattr(AbelianEdgeFan, "__init__", reversed_init)
    frag_r = _load_product(args)
    assert frag_r.complete
    report_r = frag_r.to_json()
    assert report_r != report
    assert product_sets(report_r) == product_sets(report)


def same_path(p, q):
    return (p.base, p.elems, p.edges, p.end) == (q.base, q.elems, q.edges, q.end)


def check_anchor_inverses(frag):
    anchors, inverses = frag._anchors(True)
    assert len(anchors) == len(inverses) == len(frag.vertices)
    for anchor, inverse in zip(anchors, inverses):
        assert same_path(inverse, apath_inverse(anchor))


@settings(max_examples=150, deadline=None)
@given(family=st.integers(0, len(DEDUP_FAMILIES) - 1), seed=st.integers(0, 2**32 - 1))
def test_anchor_inverses_invert_the_anchors(family, seed):
    m1, m2, budget = random_immersions(DEDUP_FAMILIES[family], seed)
    check_anchor_inverses(build_product(m1, m2, budget=budget))


def test_anchor_inverses_on_the_golden_pairs():
    from types import SimpleNamespace
    from gogroups.cli import _load_product
    from test_golden import PAIRS, _path
    for g, first, second, budget in PAIRS:
        check_anchor_inverses(_load_product(SimpleNamespace(
            gog=_path(g), first=_path(first), second=_path(second), budget=budget)))


def check_anchors_reduce_their_chains(frag):
    # each anchor, built from its tree parent's and reduced at the seam
    # only, is the full Britton reduction of the base anchor followed by the
    # unreduced crossings of the tree edges from the base vertex to it
    A = frag.A
    u = frag.m1.vmap[frag.vertices[0].v]
    bc, cc = frag.base_factors
    for first in (True, False):
        anchors, inverses = frag._anchors(first)
        assert (inverses is not None) == first
        chains = [APath(A, u, [bc if first else A.vgroups[u].inv(cc)], [])]
        for x in frag.vertices[1:]:
            h = frag.edges[x.tree_edge]
            chains.append(apath_concat(chains[h.src], frag._crossing(h, first)))
        assert len(anchors) == len(chains)
        for anchor, chain in zip(anchors, chains):
            assert same_path(anchor, reduce_apath(chain))


def golden_and_modular_products():
    """The golden pairs' products, and the modular P/Q pair's both ways,
    whose tree edges carry factors of order 3 in all four slots of the
    transport record."""
    from types import SimpleNamespace
    from gogroups import gogio
    from gogroups.cli import _load_product
    from test_golden import PAIRS, _path
    frags = [_load_product(SimpleNamespace(gog=_path(g), first=_path(first),
                                           second=_path(second), budget=budget))
             for g, first, second, budget in PAIRS]
    M, _ = gogio.parse_gog(gogio.load(_path("inputs/modular")))
    P, Q = [realize_subgroup(M, 0, [gogio.parse_apath(p, M, 0) for p in paths])[0]
            for paths in ([[1], [1, "e", 1, "e^-1", 0]],
                          [[0, "e", 1, "e^-1", 1, "e", 2, "e^-1", 1]])]
    return frags + [build_product(P, Q), build_product(Q, P)]


@settings(max_examples=150, deadline=None)
@given(family=st.integers(0, len(DEDUP_FAMILIES) - 1), seed=st.integers(0, 2**32 - 1))
def test_anchors_are_the_reduced_tree_chains(family, seed):
    m1, m2, budget = random_immersions(DEDUP_FAMILIES[family], seed)
    frag = build_product(m1, m2, budget=budget)
    event("with edges" if frag.edges else "the base vertex alone")
    check_anchors_reduce_their_chains(frag)


def test_anchors_are_the_reduced_tree_chains_on_the_golden_and_modular_pairs():
    for frag in golden_and_modular_products():
        check_anchors_reduce_their_chains(frag)


def check_generator_texts(frag):
    """The text route renders intersection_generators() line for line;
    returns how many generators have a seam that pinches."""
    gens, _ = frag.intersection_generators()
    anchors, _ = frag._anchors(True)
    pieces = list(frag._generator_pieces())
    assert len(pieces) == len(gens)
    assert list(frag.intersection_generator_texts()) == [repr(p) for p in gens]
    return sum(len(p) != len(anchors[s]) + len(mid) + len(anchors[d])
               for p, (s, mid, d) in zip(gens, pieces))


@settings(max_examples=300, deadline=None)
@given(family=st.integers(0, len(DEDUP_FAMILIES) - 1), seed=st.integers(0, 2**32 - 1))
def test_generator_texts_render_the_generators(family, seed):
    m1, m2, budget = random_immersions(DEDUP_FAMILIES[family], seed)
    pinched = check_generator_texts(build_product(m1, m2, budget=budget))
    event("a generator seam pinches" if pinched else "no generator seam pinches")


def test_generator_texts_on_the_golden_and_modular_pairs():
    for frag in golden_and_modular_products():
        check_generator_texts(frag)


def test_path_texts_of_a_pinched_anchor():
    # an anchor whose own seam pinched is rendered from its path: in
    # BS(1, 2) the seam element 4 of (1, e, 3, e, 0) . (4, e^-1, 1) lies
    # in omega_e's image 2Z
    A = bs_gog(1, 2)
    p = APath(A, 0, [(1,), (3,), (0,)], [0, 0])
    r = reduce_concat(p, APath(A, 0, [(4,), (1,)], [1]))
    assert len(r) == 1
    tok = _tokens(A.vgroups)
    head, tail = _path_texts(r, tok)
    assert "APath[" + head + tok(r.end, r.elems[-1]) + "]" == repr(r)
    assert "APath[" + tok(r.end, r.elems[-1], True) + tail + "]" == repr(apath_inverse(r))
    assert _path_texts(p, tok) == ("1, e, 3, e, ", ", e^-1, -3, e^-1, -1")


def zsq_product_at_256():
    from types import SimpleNamespace
    from gogroups.cli import _load_product
    from test_golden import _path
    return _load_product(SimpleNamespace(
        gog=_path("zsquared_hnn"), first=_path("zsquared_hnn_sub_C"),
        second=_path("zsquared_hnn_sub_B"), budget=256))


def test_each_zsq_edge_is_transported_twice_and_factored_at_most_twice():
    # the reverse of each tree edge was transported at both ends and
    # factored before its key was found: 1,022 transports and 768 factors
    from gogroups.backends.abelian import AbelianDoubleCosets
    with counting(AbelianDoubleCosets, "factor") as factors, \
            counting(AProductFragment, "_transport") as transports:
        frag = zsq_product_at_256()
    assert len(frag.edges) == 256
    assert len(transports) == 2 * len(frag.edges)
    # one factor at each end of an edge, and one at the base vertex
    assert len(factors) <= 2 * len(frag.edges) + 1


def test_finite_fan_hands_back_its_transports():
    # a finite fan transports every edge representative when it is listed,
    # so a product over the rose transports each edge at its far end only
    A = rose_gog(2)
    mH, _ = realize_subgroup(A, 0, [word_apath(A, w) for w in [(1, 2, 1), (2, 2), (1, -2)]])
    mK, _ = realize_subgroup(A, 0, [word_apath(A, w) for w in [(1, 2), (2, 1, 1)]])
    with counting(AProductFragment, "_transport") as transports:
        frag = build_product(mH, mK, budget=mH.source.graph.nv * mK.source.graph.nv)
    assert frag.complete and len(frag.edges) > 4
    assert [args[-1] for args in transports] == [1] * len(frag.edges)


def test_zsq_report_meets_h_and_k_once_per_handle():
    # each vertex and edge group was its own lattice meet: 513 of them
    from gogroups import intlattice
    frag = zsq_product_at_256()
    with counting(intlattice.Lattice, "intersect") as meets:
        frag.to_json()
    assert len(meets) <= 2


def test_zsq_generators_invert_single_crossings_only():
    # inverting each anchor afresh passed 32,896 edges
    import gogroups.pullback as gpull
    frag = zsq_product_at_256()
    with counting(gpull, "apath_inverse") as calls:
        gens, _ = frag.intersection_generators()
    assert len(gens) == len(frag.vertices)
    assert sum(len(p.edges) for p, in calls) <= 3 * len(frag.vertices)


def test_zsq_generators_cross_each_edge_once():
    # the anchors and their inverses each built the crossing of every tree
    # edge: 512 crossings for 256 edges
    frag = zsq_product_at_256()
    with counting(AProductFragment, "_crossing") as calls:
        frag.intersection_generators()
    assert len(frag.edges) == 256
    assert len(calls) == len(frag.edges)
    assert len({(id(h), first) for _, h, first in calls}) == len(calls)


def test_ray_certificate_of_a_repeating_chain_that_does_not_ascend():
    # over the Z^2 HNN extension, <a1^-1 a2^-1 e^-1 a1 a2^-1> and
    # <a1 a2^-2 e^-1 a1> meet along a ray whose steps all have the same
    # shape, but whose transport indices are (1, 1): no ascent
    A = nofgip_gog()
    m1, _ = realize_subgroup(A, 0, [APath(A, 0, [(-1, -1), (1, -1)], [1])])
    m2, _ = realize_subgroup(A, 0, [APath(A, 0, [(1, -2), (1, 0)], [1])])
    frag = build_product(m1, m2, budget=12)
    shapes = chain_shapes(frag)
    assert shapes is not None and len(set(shapes[-3:])) == 1
    assert {frag._transport_indices(j) for j in range(len(frag.edges))} == {(1, 1)}
    assert frag.ray_certificate() is None
    assert eager_ray_certificate(frag) is None


def test_nofgip_generators_are_conjugated_roots():
    A, mB, mC = nofgip_immersions()
    frag = build_product(mC, mB, budget=5)
    gens, exact = frag.intersection_generators()
    assert not exact
    # expected: e^i a1 e^-i for i = 0..4
    for i, g in enumerate(gens):
        expect_elems = [(0, 0)] * i + [(1, 0)] + [(0, 0)] * i
        expect_edges = [0] * i + [1] * i
        expected = APath(A, 0, expect_elems, expect_edges)
        assert apaths_equal(g, expected)


def test_nofgip_component_labels_share_one_class():
    A, mB, mC = nofgip_immersions()
    frag = build_product(mC, mB, budget=6)
    base, *labels = frag.component_labels()
    assert len(labels) == len(frag.vertices) - 1
    for lab in labels:
        assert lab.base == base.base and lab.end == base.end


def test_incidence_witness_independence():
    # replacing an edge representative by b.rep.c gives the same endpoints
    A, mB, mC = nofgip_immersions()
    frag = build_product(mC, mB, budget=4)
    h = frag.edges[0]
    Ge = A.egroups[0]
    E1 = frag.m1.edge_image_handle(h.f >> 1)
    E2 = frag.m2.edge_image_handle(h.g >> 1)
    rng = Random(71)
    for _ in range(10):
        b = E1.gens[0] if E1.gens else Ge.identity()
        c = E2.gens[0] if E2.gens else Ge.identity()
        coeff_b = rng.randint(-2, 2)
        coeff_c = rng.randint(-2, 2)
        moved = Ge.mul(Ge.mul(tuple(coeff_b * x for x in b), h.rep),
                       tuple(coeff_c * x for x in c))
        assert Ge.double_cosets(E1, E2).eq(h.rep, moved)
        # o and t witnesses agree after canonicalization
        e = frag.m1.edge_image(h.f)
        u = A.graph.o(e)
        Au = A.vgroups[u]
        f_a = frag.m1.twist_alpha(h.f)
        g_a = frag.m2.twist_alpha(h.g)
        o1 = Au.mul(Au.mul(f_a, A.alpha(e).apply(h.rep)), Au.inv(g_a))
        o2 = Au.mul(Au.mul(f_a, A.alpha(e).apply(moved)), Au.inv(g_a))
        H = frag.m1.vertex_image_handle(frag.vertices[h.src].v)
        K = frag.m2.vertex_image_handle(frag.vertices[h.src].w)
        dc = Au.double_cosets(H, K)
        assert dc.canon(o1) == dc.canon(o2)


def test_transport_record_rebuilds_both_ends():
    # every edge of every golden product: the transports recorded during the
    # build are f_alpha alpha(rep) g_alpha^-1 and f_omega omega(rep) g_omega^-1,
    # and the factors edge_factors makes of them rebuild both
    from types import SimpleNamespace
    from gogroups.cli import _load_product
    from test_golden import PAIRS, _path
    for g, first, second, budget in PAIRS:
        frag = _load_product(SimpleNamespace(gog=_path(g), first=_path(first),
                                             second=_path(second), budget=budget))
        A, m1, m2 = frag.A, frag.m1, frag.m2
        assert frag.edges
        for h in frag.edges:
            e = m1.edge_image(h.f)
            Au, Au2 = A.vgroups[A.graph.o(e)], A.vgroups[A.graph.t(e)]
            o_raw = Au.mul(Au.mul(m1.twist_alpha(h.f), A.alpha(e).apply(h.rep)),
                           Au.inv(m2.twist_alpha(h.g)))
            t_raw = Au2.mul(Au2.mul(m1.twist_omega(h.f), A.omega(e).apply(h.rep)),
                            Au2.inv(m2.twist_omega(h.g)))
            w_src = frag.vertices[h.src].witness
            w_dst = frag.vertices[h.dst].witness
            assert Au.eq(h.o_raw, o_raw) and Au2.eq(h.t_raw, t_raw)
            bc0, cc0, bc1, cc1 = frag.edge_factors(h)
            assert Au.eq(Au.mul(Au.mul(bc0, w_src), cc0), o_raw)
            assert Au2.eq(Au2.mul(Au2.mul(bc1, w_dst), cc1), t_raw)


def stallings_roundtrip(rng, words_h, words_k, budget=4000):
    """Pullback of two trivial-group immersions vs the Stallings intersection."""
    A = rose_gog(2)
    F = FreeGroup(2)
    mH, bH = realize_subgroup(A, 0, [word_apath(A, w) for w in words_h])
    mK, bK = realize_subgroup(A, 0, [word_apath(A, w) for w in words_k])
    frag = build_product(mH, mK, budget=budget)
    assert frag.complete
    gens, exact = frag.intersection_generators()
    assert exact
    gen_words = []
    for p in gens:
        word = []
        for e in p.edges:
            word.append((e >> 1) + 1 if e & 1 == 0 else -((e >> 1) + 1))
        gen_words.append(wreduce(tuple(word)))
    got = F.subgroup(gen_words)
    expect = F.subgroup(words_h).intersect(F.subgroup(words_k))
    assert got.equals(expect)
    return got, expect


def test_stallings_oracle_basic():
    rng = Random(72)
    stallings_roundtrip(rng, [parse_word("a")], [parse_word("aa")])
    stallings_roundtrip(rng, [parse_word("a"), parse_word("baB")],
                        [parse_word("b"), parse_word("abA")])
    stallings_roundtrip(rng, [parse_word("ab"), parse_word("ba")],
                        [parse_word("aab"), parse_word("b")])


def test_stallings_oracle_random():
    rng = Random(73)
    for _ in range(30):
        words_h = [wreduce(tuple(rng.choice([1, -1, 2, -2])
                                 for _ in range(rng.randint(1, 4))))
                   for _ in range(rng.randint(1, 3))]
        words_k = [wreduce(tuple(rng.choice([1, -1, 2, -2])
                                 for _ in range(rng.randint(1, 4))))
                   for _ in range(rng.randint(1, 3))]
        words_h = [w for w in words_h if w] or [(1,)]
        words_k = [w for w in words_k if w] or [(2,)]
        stallings_roundtrip(rng, words_h, words_k)


def test_structural_local_finiteness():
    # with abelian 1-FCIP data the fragment stays locally finite and branch
    # vertices do not multiply with the budget
    A, mB, mC = nofgip_immersions()
    for budget in (8, 24):
        frag = build_product(mC, mB, budget=budget)
        deg = degree_stats(frag)
        assert all(d <= 2 for d in deg.values())
        branch = [i for i, d in deg.items() if d >= 2]
        assert len(branch) <= 1


def test_bs12_self_intersection_completes():
    A = bs_gog(1, 2)
    a = APath(A, 0, [(1,)], [])
    ehat = APath(A, 0, [(0,), (0,)], [0])
    m, base = realize_subgroup(A, 0, [a, ehat])
    frag = build_product(m, m, budget=64)
    assert frag.complete
    gens, exact = frag.intersection_generators()
    assert exact
    # B cap B = B: membership of the defining generators
    from gogroups.morphism import trace_apath
    for g in gens:
        assert trace_apath(m, g, start=0)


def test_expand_empty_star_no_edges():
    # a source vertex with an empty star contributes no edges
    A = bs_gog(1, 2)
    a = APath(A, 0, [(1,)], [])
    m, base = realize_subgroup(A, 0, [a])     # single vertex, no edges
    frag = build_product(m, m, budget=8)
    assert frag.complete
    assert frag.edges == []
    assert len(frag.vertices) == 1


# --- the reasons recorded in `unexpandable`, one per reachable cause ---

def loop_gog(vertex, edge, alpha, omega):
    return {"vertices": {"u": vertex}, "edges": [
        {"name": "e", "from": "u", "to": "u", "group": edge, "alpha": alpha, "omega": omega}]}


def loop_morphism(vertex_subgroup, edge_subgroup):
    return {"vertices": {"x": {"over": "u", "subgroup": vertex_subgroup}},
            "edges": [{"name": "f", "over": "e", "from": "x", "to": "x",
                       "subgroup": edge_subgroup}]}


Z2 = {"finite": {"table": [[0, 1], [1, 0]]}}

# (gog, morphism paired with itself, reason recorded for the base vertex)
UNEXPANDABLE = {
    # identity x identity: the edge group F2 is not cyclic
    "free-rank-2-edge": (loop_gog({"free": 2}, {"free": 2}, ["a", "b"], ["a", "bb"]),
                         loop_morphism(["a", "b"], ["a", "b"]),
                         "free vertex group with non-cyclic edge group"),
    # E1 = E2 = 1 while every a^n lies in H 1 K = <a>
    "free-Z-edge-infinite": (loop_gog({"free": 1}, {"Z": True}, ["a"], ["a"]),
                             loop_morphism(["a"], []), "infinite-edge-fan"),
    "free-F1-edge-infinite": (loop_gog({"free": 1}, {"free": 1}, ["a"], ["a"]),
                              loop_morphism(["a"], []), "infinite-edge-fan"),
    # E1 + E2 = 0 has infinite index in P = {a : alpha(a) in H + K} = Z
    "abelian-infinite": (loop_gog({"Z": True}, {"Z": True}, [1], [1]),
                         loop_morphism([1], []), "infinite-edge-fan"),
}


@pytest.mark.parametrize("case", sorted(UNEXPANDABLE))
def test_unexpandable_reasons_are_pinned(case, tmp_path, capsys):
    gog, morphism, reason = UNEXPANDABLE[case]
    g, m, out = tmp_path / "gog.json", tmp_path / "m.json", tmp_path / "out.json"
    g.write_text(json.dumps(gog))
    m.write_text(json.dumps(morphism))
    assert main(["pullback", str(g), str(m), str(m), "--budget", "4", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["complete: False", f"unexpandable 0: {reason}",
                          "VERDICT: budget-exhausted"]
    assert json.loads(out.read_text())["unexpandable"] == {"0": reason}


# --- finite edge groups expand over every vertex backend (FiniteEdgeFan) ---

# (gog, morphism paired with itself, the intersection's generators): each is
# the whole group, F2 * Z and Z/2 x Z
FINITE_EDGE = {
    "free-trivial-edge": (loop_gog({"free": 2}, {"free": 0}, [], []),
                          loop_morphism(["a", "b"], []),
                          ["APath['a']", "APath['b']", "APath['', e, '']"]),
    "abelian-finite-edge": (loop_gog({"abelian": {"rank": 0, "torsion": [2]}}, Z2, [[1]], [[1]]),
                            loop_morphism([[1]], [1]),
                            ["APath[1]", "APath[0, e, 0]"]),
}


@pytest.mark.parametrize("case", sorted(FINITE_EDGE))
def test_finite_edge_groups_expand(case, tmp_path, capsys):
    gog, morphism, gens = FINITE_EDGE[case]
    g, m = tmp_path / "gog.json", tmp_path / "m.json"
    g.write_text(json.dumps(gog))
    m.write_text(json.dumps(morphism))
    assert main(["intersect", str(g), str(m), str(m), "--budget", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"generator {i}: {x}" for i, x in enumerate(gens)] + \
        ["flag: exact", "VERDICT: exact"]


def test_abelian_fan_guards_a_non_abelian_edge_group():
    # no validated graph of groups reaches this: F2 does not embed in Z
    F2, Z = FreeGroup(2), AbelianGroup.Z()
    alpha = Mono(F2, Z, [(1,), (1,)])
    full = Z.full_subgroup()
    with pytest.raises(UnsupportedExpansion,
                       match="^abelian vertex with non-abelian edge group$"):
        Z.double_cosets(full, full).edge_fan(
            alpha, F2.double_cosets(F2.trivial_subgroup(), F2.trivial_subgroup()),
            Z.identity(), Z.identity())


def free_product_f2_f2():
    """F2 * F2 = F4 as two free vertices u, v joined by a trivial edge group."""
    F0, Fu, Fv = FreeGroup(0), FreeGroup(2), FreeGroup(2)
    return GraphOfGroups(Graph(2, [(0, 1)], vnames=["u", "v"], enames=["e"]), [Fu, Fv], [F0],
                         [(Mono(F0, Fu, []), Mono(F0, Fv, []))])


def f4_apath(A, word):
    """The closed A-path at u spelling a word of F4: letters 1, 2 in A_u, and
    3, 4 in A_v as its letters 1, 2, crossing e between syllables."""
    elems, edges, at_v, syllable = [], [], False, []
    for x in word + (1,):     # a closing letter of A_u brings the path home
        if (abs(x) > 2) != at_v:
            elems.append(tuple(syllable))
            edges.append(1 if at_v else 0)
            at_v, syllable = not at_v, []
        syllable.append(x - 2 if x > 2 else x + 2 if x < -2 else x)
    elems.append(tuple(syllable[:-1]))
    return APath(A, 0, elems, edges)


def f4_word(p):
    """The word of F4 spelled by an A-path over free_product_f2_f2."""
    word, at_v = [], False
    for i, x in enumerate(p.elems):
        word += [y + 2 if y > 0 else y - 2 for y in x] if at_v else list(x)
        at_v = i < len(p.edges) and p.edges[i] == 0
    return wreduce(tuple(word))


f4_words = st.lists(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]),
                             min_size=1, max_size=4).map(lambda w: wreduce(tuple(w)))
                    .filter(bool), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(f4_words, f4_words)
def test_free_product_intersection_matches_f4(words_h, words_k):
    # the trivial edge group takes FiniteEdgeFan at both free vertices
    A, F4 = free_product_f2_f2(), FreeGroup(4)
    assert [f4_word(f4_apath(A, w)) for w in words_h] == words_h
    mH, bH = realize_subgroup(A, 0, [f4_apath(A, w) for w in words_h])
    mK, bK = realize_subgroup(A, 0, [f4_apath(A, w) for w in words_k])
    frag = build_product(mH, mK, 400, bH, bK)
    assert frag.complete
    gens, exact = frag.intersection_generators()
    assert exact
    got = F4.subgroup([f4_word(p) for p in gens])
    assert got.equals(F4.subgroup(words_h).intersect(F4.subgroup(words_k)))
