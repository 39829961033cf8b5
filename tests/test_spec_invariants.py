"""Cross-module invariants: consistency checks tying the pieces together."""

import json
from random import Random

from gogroups import gogio
from gogroups.fgip import decide_fgip_gbs
from gogroups.gog import APath, reduce_apath
from gogroups.graphs import einv
from gogroups.library import bs_gog, nofgip_gog, rose_gog, word_apath
from gogroups.morphism import is_immersion, realize_subgroup, validate_morphism
from gogroups.pullback import build_product
from gogroups.words import wreduce
from test_gog import apaths_equal


def test_morphism_file_roundtrip():
    A = nofgip_gog()
    a1 = APath(A, 0, [(1, 0)], [])
    ehat_a2 = APath(A, 0, [(0, 0), (0, 1)], [0])
    m, base = realize_subgroup(A, 0, [a1, ehat_a2])
    payload = gogio.serialize_morphism(m, basepoint=base)
    m2, base2 = gogio.parse_morphism(json.loads(json.dumps(payload)), A)
    assert validate_morphism(m2) == []
    is_immersion(m2)
    assert m2.vmap == m.vmap
    assert m2.twists == m.twists
    assert m2.vertex_image_handle(base2).equals(m.vertex_image_handle(base))
    assert gogio.serialize_morphism(m2, basepoint=base2) == payload


def test_base_component_labels_are_trivial():
    # the base component's label is the identity double coset: every label
    # path reduces to a closed trivial loop
    A = nofgip_gog()
    a1 = APath(A, 0, [(1, 0)], [])
    ehat = APath(A, 0, [(0, 0), (0, 0)], [0])
    ehat_a2 = APath(A, 0, [(0, 0), (0, 1)], [0])
    mC, _ = realize_subgroup(A, 0, [a1, ehat])
    mB, _ = realize_subgroup(A, 0, [a1, ehat_a2])
    frag = build_product(mC, mB, budget=6)
    labels = frag.component_labels()
    assert len(labels) == len(frag.vertices)
    for lab in labels:
        assert apaths_equal(lab, A.trivial_path(0))
    # the same on every golden product (abelian, finite and free vertex
    # groups) and on two modular-group products whose tree edges carry
    # factors of order 3 in all four slots of the transport record
    from test_pullback import golden_and_modular_products
    frags = golden_and_modular_products()
    tree = [frag.edge_factors(h) for frag in frags[-2:] for h in frag.edges if h.tree]
    for slot in range(4):   # bc0, cc0, bc1, cc1; 0 is the identity of Z/2 and Z/3
        assert any(fs[slot] != 0 for fs in tree)
    for frag in frags:
        base = frag.A.trivial_path(frag.m1.vmap[frag.vertices[0].v])
        labels = frag.component_labels()
        assert len(labels) == len(frag.vertices)
        for lab in labels:
            assert apaths_equal(lab, base)


def test_fragment_is_classical_fiber_product_on_trivial_data():
    # with trivial vertex/edge groups the fragment's base component matches
    # the base component of the plain labeled-graph pullback
    rng = Random(777)
    A = rose_gog(2)
    for _ in range(10):
        words_h = [wreduce(tuple(rng.choice([1, -1, 2, -2])
                                 for _ in range(rng.randint(1, 4))))
                   for _ in range(rng.randint(1, 2))]
        words_k = [wreduce(tuple(rng.choice([1, -1, 2, -2])
                                 for _ in range(rng.randint(1, 4))))
                   for _ in range(rng.randint(1, 2))]
        words_h = [w for w in words_h if w] or [(1,)]
        words_k = [w for w in words_k if w] or [(2,)]
        mH, _ = realize_subgroup(A, 0, [word_apath(A, w) for w in words_h])
        mK, _ = realize_subgroup(A, 0, [word_apath(A, w) for w in words_k])
        frag = build_product(mH, mK, budget=6000)
        assert frag.complete
        # base component of the classical pullback of the underlying
        # labeled graphs: pairs of vertices, joined by the pairs of edges
        # with one image, each edge pair counted once with its inverse
        gh, gk = mH.source.graph, mK.source.graph
        seen, stack, edges = {(0, 0)}, [(0, 0)], set()
        while stack:
            a, b = stack.pop()
            for ea in gh.out_edges()[a]:
                for eb in gk.out_edges()[b]:
                    if mH.edge_image(ea) != mK.edge_image(eb):
                        continue
                    edges.add((ea, eb) if ea & 1 == 0 else (einv(ea), einv(eb)))
                    w = (gh.t(ea), gk.t(eb))
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        assert len(frag.vertices) == len(seen)
        assert len(frag.edges) == len(edges)


def bs_path(A, spec):
    elems, edges = [], []
    cur = None
    for item in spec:
        if item in ("e", "E"):
            edges.append(0 if item == "e" else 1)
            elems.append(cur if cur is not None else (0,))
            cur = None
        else:
            cur = (item,)
    elems.append(cur if cur is not None else (0,))
    return APath(A, 0, elems, edges)


def test_cross_module_bs12_completes_bs22_grows():
    # BS(1,2) has the intersection property: sampled pullbacks complete
    A = bs_gog(1, 2)
    assert decide_fgip_gbs(A).answer == "yes"
    samples = [
        [bs_path(A, [1])],
        [bs_path(A, [1]), bs_path(A, [0, "e", 0])],
        [bs_path(A, [0, "e", 1])],
        [bs_path(A, [2]), bs_path(A, [0, "e", 0, "e", 0])],
    ]
    for gens_b in samples:
        for gens_c in samples:
            mB, _ = realize_subgroup(A, 0, gens_b)
            mC, _ = realize_subgroup(A, 0, gens_c)
            frag = build_product(mB, mC, budget=600)
            assert frag.complete
    # BS(2,2) lacks it: some sampled pair keeps growing with the budget
    A2 = bs_gog(2, 2)
    assert decide_fgip_gbs(A2).answer == "no"
    # t and a t a^-1 generate with a^2 central; offsetting one generator by
    # the central a^2 produces a non-finitely-generated intersection
    gens_h = [bs_path(A2, [0, "e", 2]), bs_path(A2, [1, "e", -1])]
    gens_k = [bs_path(A2, [0, "e", 0]), bs_path(A2, [1, "e", -1])]
    mH, _ = realize_subgroup(A2, 0, gens_h)
    mK, _ = realize_subgroup(A2, 0, gens_k)
    sizes = []
    for budget in (12, 24, 48):
        frag = build_product(mH, mK, budget=budget)
        assert not frag.complete
        sizes.append(len(frag.vertices))
    assert sizes[0] < sizes[1] < sizes[2]
