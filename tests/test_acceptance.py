"""Acceptance criteria, one test per criterion, each printing a PASS line.

All tolerances and sample sizes are pinned here; nothing is deferred to
later calibration.
"""

import time
from math import gcd, lcm
from random import Random

from gogroups.backends import AbelianGroup, FiniteGroup, FreeGroup
from gogroups.fcip import fcip_abelian, k_fcip_index_harness, q_map_z
from gogroups.fgip import (DecoratedGraph, decide_components, decide_fgip_gbs,
                           decide_fgip_free_cyclic, fgip_certify)
from gogroups.gog import APath, GraphOfGroups, apath_concat, reduce_apath
from gogroups.graphs import Graph
from gogroups.library import (bs_gog, free_double_gog,
                              free_product_of_finite_gog, klein_amalgam_gog,
                              nofgip_gog, rose_gog, segment_z_gog, word_apath)
from gogroups.morphism import realize_subgroup
from gogroups.pullback import build_product
from gogroups.words import wreduce
from test_fcip import is_bijection
from test_gog import apaths_equal, vertex_at
from test_pullback import degree_stats


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_gbs_truth_table():
    t0 = time.time()
    Z = AbelianGroup.Z()
    plain_z = GraphOfGroups(Graph(1, [], vnames=["u"], enames=[]), [Z], [], [])
    yes_cases = [("Z", plain_z), ("Z^2", bs_gog(1, 1)),
                 ("BS(1,2)", bs_gog(1, 2)), ("BS(1,3)", bs_gog(1, 3)),
                 ("BS(1,5)", bs_gog(1, 5))]
    no_cases = [("BS(2,3)", bs_gog(2, 3)), ("BS(2,2)", bs_gog(2, 2)),
                ("BS(3,3)", bs_gog(3, 3))]
    for name, A in yes_cases:
        assert decide_fgip_gbs(A).answer == "yes", name
    for name, A in no_cases:
        assert decide_fgip_gbs(A).answer == "no", name
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"GBS truth table exact in {elapsed:.3f}s")


def deco(pairs, halves, nv):
    g = Graph(nv, pairs)
    return DecoratedGraph(g, [h[0] for h in halves], [h[1] for h in halves])


def test_criterion_02_virtually_z_forms():
    v = decide_components(deco([(0, 1)], [(2, 2)], 2))
    assert v.answer == "yes"
    v = decide_components(deco([(0, 1)], [(2, 3)], 2))
    assert v.answer == "no" and "amalgam-edge-not-2-2" in v.certificate
    for k in (1, 2, 3):
        v = decide_components(deco([(0, 0)], [(1, k)], 1))
        assert v.answer == "yes"
    v = decide_components(deco([(0, 0)], [(2, 2)], 1))
    assert v.answer == "no" and "loop-no-unit-side" in v.certificate
    v = decide_components(deco([(0, 0), (0, 0)], [(1, 1), (1, 1)], 1))
    assert v.answer == "no" and "two-unit-loops-at-vertex" in v.certificate
    v = decide_components(deco([(0, 1), (1, 1)], [(2, 2), (1, 2)], 2))
    assert v.answer == "no" and "2-2-edge-with-unit-loop" in v.certificate
    report(2, "virtually-Z three-form table exact, no-verdicts name their configuration")


def test_criterion_03_qmap_reproduction():
    q = q_map_z(2, 3, 6, 7, 8)
    classes = q.domain_classes()
    assert sorted(c[0] for c in classes) == [0, 2, 4]
    images = {}
    for c in classes:
        img = q.evaluate(c)
        assert img[0] == (c[0] - 1) % 3
        images[c] = img
    assert len(set(images.values())) == 3
    assert is_bijection(q)
    report(3, "q over 2Z/6Z -> Z/3Z is the bijection 2t -> 2t - 1 on all 3 classes")


def nofgip_pair():
    A = nofgip_gog()
    a1 = APath(A, 0, [(1, 0)], [])
    ehat = APath(A, 0, [(0, 0), (0, 0)], [0])
    ehat_a2 = APath(A, 0, [(0, 0), (0, 1)], [0])
    mC, _ = realize_subgroup(A, 0, [a1, ehat])
    mB, _ = realize_subgroup(A, 0, [a1, ehat_a2])
    return A, mC, mB


def test_criterion_04_counterexample_ray():
    A, mC, mB = nofgip_pair()
    frag = build_product(mC, mB, budget=8)
    idxs = range(len(frag.vertices))
    assert len(idxs) >= 8
    # a single path component
    deg = degree_stats(frag)
    assert all(d == 1 for d in deg.values())
    wits = [frag.vertices[i].witness for i in idxs[:4]]
    assert wits == [(0, 0), (0, 1), (0, 3), (0, 7)]
    for i in idxs:
        assert frag.vertex_group(i).gens == ((1, 0),)
    for j in range(len(frag.edges)):
        assert frag.edge_group(j).gens == ((1, 0),)
    for budget in (8, 16, 32, 64):
        f2 = build_product(mC, mB, budget=budget)
        assert not f2.complete
    cert = frag.ray_certificate()
    assert cert is not None
    assert cert["verdict"] == "provably infinite ascending union"
    report(4, "counterexample ray: witnesses 1, a2, a2^3, a2^7; groups <a1>/<b1>; "
              "never completes; ray certifier fires")


def full_core_product_components(H, K):
    """Classical pullback oracle: the core of the full labeled-graph product,
    as a list of (n_vertices, n_edges) per component."""
    pairs = {}
    adj = {}
    for s1 in range(H.aut.n_states):
        for s2 in range(K.aut.n_states):
            pairs[(s1, s2)] = set()
    for s1 in range(H.aut.n_states):
        for letter, t1 in H.aut.delta[s1].items():
            if letter < 0:
                continue
            for s2 in range(K.aut.n_states):
                t2 = K.aut.delta[s2].get(letter)
                if t2 is not None:
                    pairs[(s1, s2)].add(((s1, s2), letter, (t1, t2)))
    # build adjacency, then prune valence <= 1 repeatedly (no exemptions)
    edges = set()
    for s, out in pairs.items():
        edges |= out
    alive = set(pairs)
    changed = True
    while changed:
        changed = False
        deg = {v: 0 for v in alive}
        for (a, letter, b) in edges:
            if a in alive and b in alive:
                deg[a] += 1
                deg[b] += 1
        for v in list(alive):
            if deg.get(v, 0) <= 1:
                alive.remove(v)
                changed = True
        edges = {(a, l, b) for (a, l, b) in edges if a in alive and b in alive}
    comp = {}
    cid = 0
    for v in alive:
        if v in comp:
            continue
        stack = [v]
        comp[v] = cid
        while stack:
            x = stack.pop()
            for (a, l, b) in edges:
                for y, z in ((a, b), (b, a)):
                    if y == x and z not in comp:
                        comp[z] = cid
                        stack.append(z)
        cid += 1
    out = []
    for c in range(cid):
        vs = [v for v in alive if comp[v] == c]
        es = [e for e in edges if comp[e[0]] == c]
        out.append((len(vs), len(es)))
    return out


def test_criterion_05_stallings_oracle_equivalence():
    t0 = time.time()
    rng = Random(505)
    A = rose_gog(2)
    F = FreeGroup(2)
    sample_words = []
    for L in range(0, 9):
        for _ in range(3):
            w = wreduce(tuple(rng.choice([1, -1, 2, -2]) for _ in range(L)))
            sample_words.append(w)
    cases = 0
    while cases < 200:
        words_h = [wreduce(tuple(rng.choice([1, -1, 2, -2])
                                 for _ in range(rng.randint(1, 5))))
                   for _ in range(rng.randint(1, 3))]
        words_k = [wreduce(tuple(rng.choice([1, -1, 2, -2])
                                 for _ in range(rng.randint(1, 5))))
                   for _ in range(rng.randint(1, 3))]
        words_h = [w for w in words_h if w]
        words_k = [w for w in words_k if w]
        if not words_h or not words_k:
            continue
        cases += 1
        H = F.subgroup(words_h)
        K = F.subgroup(words_k)
        mH, bH = realize_subgroup(A, 0, [word_apath(A, w) for w in words_h])
        mK, bK = realize_subgroup(A, 0, [word_apath(A, w) for w in words_k])
        frag = build_product(mH, mK, budget=6000)
        assert frag.complete
        gens, exact = frag.intersection_generators()
        assert exact
        gen_words = []
        for p in gens:
            word = tuple((e >> 1) + 1 if e & 1 == 0 else -((e >> 1) + 1)
                         for e in p.edges)
            gen_words.append(wreduce(word))
        got = F.subgroup(gen_words)
        expect = H.intersect(K)
        # mutual basis inclusion: subgroup equality, hence membership
        # agreement on every word (in particular all words of length <= 8)
        assert got.equals(expect)
        for w in sample_words:
            assert got.contains(w) == (H.contains(w) and K.contains(w))
        # strengthened Hanna Neumann with factor 2, summed over components
        if H.rank() >= 2 and K.rank() >= 2:
            comps = full_core_product_components(H, K)
            total = sum(max(0, (es - vs + 1) - 1) for vs, es in comps)
            assert total <= 2 * (H.rank() - 1) * (K.rank() - 1)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(5, f"200 random pullbacks match the folding oracle and the factor-2 "
              f"strengthened bound in {elapsed:.2f}s")


def test_criterion_06_w_pipeline():
    t0 = time.time()
    cases = [("ab", "ab", "yes"), ("aa", "aa", "yes"), ("aaa", "aaa", "no")]
    for aw, ow, expect in cases:
        t1 = time.time()
        v = decide_fgip_free_cyclic(free_double_gog(aw, ow))
        assert v.answer == expect, (aw, ow)
        assert time.time() - t1 < 1.0
    report(6, f"doubles of F2: primitive/square/cube verdicts yes/yes/no "
              f"in {time.time() - t0:.3f}s")


def brute_z_fcip_collisions(i, j, k, off_bound, a_bound):
    """Collision count of q-images over distinct-coset offset families with
    |f|, |g| <= off_bound and domain elements |a| <= a_bound."""
    def family(modulus):
        out, seen = [], set()
        for f in range(-off_bound, off_bound + 1):
            key = f % modulus if modulus else f
            if key not in seen:
                seen.add(key)
                out.append(f)
        return out
    fam_f = family(gcd(j, i))
    fam_g = family(gcd(k, i))
    L1 = lcm(i, j) if i and j else 0
    L2 = lcm(i, k) if i and k else 0
    M = gcd(L1, L2)
    if i == 0:
        doms = [0]
    elif M:
        doms = [(i * t) % M for t in range(M // i)]
    else:
        doms = [i * t for t in range(-(a_bound // i), a_bound // i + 1)]
    cod = gcd(j, k)
    counts = {}
    for f in fam_f:
        for g in fam_g:
            for a in doms:
                img = (a + f - g) % cod if cod else (a + f - g)
                counts[img] = counts.get(img, 0) + 1
    return sum(max(0, c - 1) for c in counts.values())


def test_criterion_07_fcip_abelian_oracle():
    rng = Random(707)
    Z = AbelianGroup.Z()
    for _ in range(100):
        i, j, k = (rng.randint(0, 30) for _ in range(3))
        rep = fcip_abelian(Z, Z.subgroup([(j,)]), Z.subgroup([(k,)]),
                           Z.subgroup([(i,)]))
        c_half = brute_z_fcip_collisions(i, j, k, 50, 5000)
        c_full = brute_z_fcip_collisions(i, j, k, 50, 10000)
        finite_observed = c_half == c_full
        assert rep.verdict == finite_observed, (i, j, k, rep.verdict, c_half, c_full)
    report(7, "abelian coset-interaction verdicts match brute-force collision "
              "stabilization on 100 random triples")


def test_criterion_08_k_fcip_multiplicity():
    rng = Random(808)
    Z = AbelianGroup.Z()
    A = Z.full_subgroup()
    for k in (2, 3, 4):
        Ak = Z.subgroup([(k,)])
        violations = 0
        checked = 0
        while checked < 10000 // 3 + 1:
            j = rng.randint(1, 40)
            c = rng.randint(1, 40)
            B = Z.subgroup([(j,)])
            C = Z.subgroup([(c,)])
            samples = [(k * rng.randint(-500, 500),) for _ in range(40)]
            repd = k_fcip_index_harness(Z, A, Ak, B, C, samples)
            checked += repd["classes_checked"]
            assert repd["worst_multiplicity"] <= k
            violations += len(repd["violations"])
        assert violations == 0
    report(8, "double-coset maps of index-k restrictions stay <= k-to-one "
              "(k in {2,3,4}, >10^4 sampled classes, zero violations)")


def random_reduced_path(rng, A, length):
    """Random reduced A-path from vertex 0 over a one- or two-vertex gog."""
    g = A.graph
    elems = []
    edges = []
    v = 0
    for _ in range(length):
        options = [e for e in g.edges() if g.o(e) == v]
        e = rng.choice(options)
        elems.append((rng.randint(-2, 2),))
        edges.append(e)
        v = g.t(e)
    elems.append((rng.randint(-2, 2),))
    p = APath(A, 0, elems, edges)
    return reduce_apath(p)


def test_criterion_09_britton_confluence():
    rng = Random(909)
    gogs = [bs_gog(1, 2), klein_amalgam_gog()]
    total = 0
    while total < 10000:
        A = gogs[total % 2]
        p = random_reduced_path(rng, A, rng.randint(0, 4))
        i = rng.randint(0, len(p.edges))
        v = vertex_at(p, i)
        options = [e for e in A.graph.edges() if A.graph.o(e) == v]
        e = rng.choice(options)
        tv = A.graph.t(e)
        idv = A.vgroups[tv].identity()
        idv0 = A.vgroups[v].identity()
        left = APath(A, 0, p.elems[:i + 1], p.edges[:i])
        right = APath(A, v, [idv0] + p.elems[i + 1:], p.edges[i:])
        back = APath(A, v, [idv0, idv, idv0], [e, e ^ 1])
        glued = apath_concat(apath_concat(left, back), right)
        assert apaths_equal(glued, p)
        total += 1
    report(9, "10^4 random backtrack insertions reduce back to the original "
              "path over BS(1,2) and the (2,2) amalgam")


def test_criterion_10_cohen_certificate():
    t2 = [[0, 1], [1, 0]]
    t3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    A = free_product_of_finite_gog(t2, t3)
    v = fgip_certify(A, vertex_fgip_flags={0: True, 1: True})
    assert v.answer == "yes"
    assert v.certificate == "finite-edge-groups-with-fgip-vertices"
    report(10, "free product of finite groups with asserted vertex flags: "
               "yes via the finite-edge-groups criterion")
