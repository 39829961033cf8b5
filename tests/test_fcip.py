from math import gcd, lcm
from random import Random

from gogroups.backends import AbelianGroup, FreeGroup
from gogroups.fcip import (FcipReport, QMapAbelian, fcip_abelian,
                           fcip_bruteforce_sample, fcip_zero_check,
                           k_fcip_index_harness, q_map_z)
from gogroups.words import parse_word


def is_bijection(q):
    """Whether the q-map q is a bijection of finite sets."""
    d = q.domain_order()
    if d is None:
        return False
    return q.codomain_order() == d and len({q.evaluate(x) for x in q.domain_classes()}) == d


def test_q_map_paper_instance():
    # (i,j,k,m,n) = (2,3,6,7,8): 2Z/6Z -> Z/3Z, 2t -> 2t - 1, a bijection
    q = q_map_z(2, 3, 6, 7, 8)
    assert q.domain_order() == 3
    assert q.codomain_order() == 3
    classes = q.domain_classes()
    assert sorted(c[0] for c in classes) == [0, 2, 4]
    images = {c: q.evaluate(c) for c in classes}
    assert len(set(images.values())) == 3
    for c in classes:
        assert images[c][0] == (c[0] - 1) % 3
    assert is_bijection(q)


def test_q_map_trivial_instance():
    q = q_map_z(1, 1, 1, 0, 0)
    assert q.domain_order() == 1
    assert q.codomain_order() == 1
    assert is_bijection(q)


def test_q_map_4_6_10():
    # domain 4Z/4Z (gcd(lcm(4,6), lcm(4,10)) = gcd(12, 20) = 4) -> Z/2Z
    q = q_map_z(4, 6, 10, 0, 0)
    assert q.domain_order() == 1
    assert q.codomain_order() == 2
    assert q.evaluate((0,)) == (0,)


def test_q_map_formula_random():
    rng = Random(81)
    for _ in range(60):
        i, j, k = (rng.randint(1, 12) for _ in range(3))
        m, n = rng.randint(-9, 9), rng.randint(-9, 9)
        q = q_map_z(i, j, k, m, n)
        M = gcd(lcm(i, j), lcm(i, k))
        assert q.domain_order() == M // i
        assert q.codomain_order() == gcd(j, k)
        for t in range(M // i):
            a = (i * t,)
            assert q.evaluate(a)[0] == (i * t + m - n) % gcd(j, k)


def test_q_map_affine_property():
    # q(x) - q(0) is additive on sampled pairs
    rng = Random(82)
    q = q_map_z(2, 4, 6, 3, 1)
    Z = q.G
    base = q.evaluate((0,))[0]
    classes = [c[0] for c in q.domain_classes()]
    mod = q.codomain_order()
    for x in classes:
        for y in classes:
            s = q.dom_sub.lat.coset_canon((x + y,))
            lhs = (q.evaluate(q.G.canon(s))[0] - base) % mod
            rhs = ((q.evaluate((x,))[0] - base) + (q.evaluate((y,))[0] - base)) % mod
            assert lhs == rhs


def test_fcip_abelian_true_case():
    Z = AbelianGroup.Z()
    rep = fcip_abelian(Z, Z.subgroup([(3,)]), Z.subgroup([(6,)]), Z.subgroup([(2,)]))
    assert rep.verdict is True
    assert rep.details["image_order"] == 3
    assert rep.details["kernel_order"] == 1


def test_fcip_abelian_clause3():
    Z2 = AbelianGroup(2)
    A = Z2.subgroup([(1, 0)])
    B = Z2.trivial_subgroup()
    C = Z2.trivial_subgroup()
    rep = fcip_abelian(Z2, B, C, A)
    assert rep.verdict is False
    assert rep.clause == "neither-sum-full"


def test_fcip_abelian_second_branch():
    Z2 = AbelianGroup(2)
    A = Z2.subgroup([(1, 0)])
    B = Z2.subgroup([(0, 1)])
    C = Z2.subgroup([(0, 1)])
    rep = fcip_abelian(Z2, B, C, A)
    assert rep.verdict is True
    assert rep.details["B+A=G"] and rep.details["C+A=G"]


def test_fcip_abelian_invariant_under_automorphism():
    rng = Random(83)
    Z2 = AbelianGroup(2)
    for _ in range(30):
        gens = lambda: [(rng.randint(-3, 3), rng.randint(-3, 3))]
        A, B, C = Z2.subgroup(gens()), Z2.subgroup(gens()), Z2.subgroup(gens())
        # random unimodular change of basis
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        mats = [[[1, a], [0, 1]], [[1, 0], [b, 1]], [[0, 1], [1, 0]]]
        M = mats[rng.randrange(3)]
        phi = lambda v: (M[0][0] * v[0] + M[1][0] * v[1],
                         M[0][1] * v[0] + M[1][1] * v[1])
        A2 = Z2.subgroup([phi(g) for g in A.gens])
        B2 = Z2.subgroup([phi(g) for g in B.gens])
        C2 = Z2.subgroup([phi(g) for g in C.gens])
        r1 = fcip_abelian(Z2, B, C, A)
        r2 = fcip_abelian(Z2, B2, C2, A2)
        assert r1.verdict == r2.verdict


def test_fcip_zero_check():
    G = AbelianGroup(1, [2])    # Z x Z/2
    fin = G.subgroup([(0, 1)])
    inf = G.subgroup([(2, 0)])
    assert fcip_zero_check([fin]) is True
    assert fcip_zero_check([inf]) is False
    assert fcip_zero_check([]) is True


def brute_z_collisions(i, j, k, off_bound, a_bound):
    """Independent oracle: enumerate q-images of distinct domain classes over
    distinct offset families; collision count."""
    B_plus_A = gcd(j, i)
    C_plus_A = gcd(k, i)
    fam_f, seen = [], set()
    for f in range(-off_bound, off_bound + 1):
        key = f % B_plus_A if B_plus_A else f
        if key not in seen:
            seen.add(key)
            fam_f.append(f)
    fam_g, seen = [], set()
    for g in range(-off_bound, off_bound + 1):
        key = g % C_plus_A if C_plus_A else g
        if key not in seen:
            seen.add(key)
            fam_g.append(g)
    counts = {}
    M = gcd(lcm(i, j) if i and j else (lcm(i, j) if (i or j) else 0),
            lcm(i, k) if i and k else (lcm(i, k) if (i or k) else 0)) \
        if (i or j) and (i or k) else 0
    # domain classes: multiples of i modulo M (M = 0 -> enumerate within bound)
    doms = set()
    if i == 0:
        doms = {0}
    elif M:
        doms = {(i * t) % M for t in range(M // i if M else 0)}
    else:
        doms = {i * t for t in range(-(a_bound // i), a_bound // i + 1)}
    cod = gcd(j, k)
    for f in fam_f:
        for g in fam_g:
            for a in doms:
                img = (a + f - g) % cod if cod else (a + f - g)
                counts[(img)] = counts.get(img, 0) + 1
    return sum(max(0, c - 1) for c in counts.values())


def test_fcip_abelian_vs_bruteforce_z():
    # matches the brute-force collision stabilization on random triples
    rng = Random(84)
    Z = AbelianGroup.Z()
    for _ in range(40):
        i, j, k = (rng.randint(0, 12) for _ in range(3))
        rep = fcip_abelian(Z, Z.subgroup([(j,)]), Z.subgroup([(k,)]),
                           Z.subgroup([(i,)]))
        c1 = brute_z_collisions(i, j, k, 20, 2000)
        c2 = brute_z_collisions(i, j, k, 20, 4000)
        finite_observed = c1 == c2
        assert rep.verdict == finite_observed, (i, j, k, rep, c1, c2)


def test_bruteforce_sampler_free():
    F = FreeGroup(2)
    A = F.subgroup(["ab"])
    B = F.subgroup(["a"])
    C = F.subgroup(["b"])
    offsets = [(), parse_word("a"), parse_word("b"), parse_word("ab"),
               parse_word("ba"), parse_word("aB")]
    r4 = fcip_bruteforce_sample(F, A, B, C, offsets, 4)
    r6 = fcip_bruteforce_sample(F, A, B, C, offsets, 6)
    assert r4.verdict == "sampled-evidence"
    # stabilization: collision count does not keep growing with the bound
    assert r6.details["collision_count"] == r4.details["collision_count"]


def test_bruteforce_sampler_full_groups():
    F = FreeGroup(2)
    A = F.subgroup(["ab"])
    B = F.full_subgroup()
    C = F.full_subgroup()
    offsets = [(), parse_word("a"), parse_word("b")]
    rep = fcip_bruteforce_sample(F, A, B, C, offsets, 4)
    assert rep.details["family_sizes"] == (1, 1)


def test_bruteforce_sampler_trivial_A():
    F = FreeGroup(2)
    A = F.trivial_subgroup()
    B = F.subgroup(["a"])
    C = F.subgroup(["b"])
    offsets = [(), parse_word("a"), parse_word("b"), parse_word("ba")]
    rep = fcip_bruteforce_sample(F, A, B, C, offsets, 4)
    for size in rep.details["domain_sizes"].values():
        assert size == 1


def test_k_fcip_harness_z():
    Z = AbelianGroup.Z()
    A = Z.full_subgroup()
    for k in (1, 2, 3, 4):
        Ak = Z.subgroup([(k,)])
        B = Z.subgroup([(6,)])
        C = Z.subgroup([(9,)])
        samples = [(k * t,) for t in range(-60, 61)]
        rep = k_fcip_index_harness(Z, A, Ak, B, C, samples)
        assert rep["k"] == k
        assert rep["violations"] == {}
        assert rep["worst_multiplicity"] <= k


def test_k_fcip_harness_finite():
    from gogroups.backends import FiniteGroup
    G = FiniteGroup.cyclic(12)
    A = G.full_subgroup()
    A3 = G.subgroup([3])
    B = G.subgroup([6])
    C = G.subgroup([4])
    rep = k_fcip_index_harness(G, A, A3, B, C, list(range(0, 12, 3)))
    assert rep["k"] == 3
    assert rep["violations"] == {}
