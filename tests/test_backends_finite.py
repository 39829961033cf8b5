import pytest
from random import Random

from gogroups.backends import FiniteGroup, Mono


def sym3():
    # S3 as permutation composition table, elements indexed 0..5
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(q[p[k]] for k in range(3))] for q in perms] for p in perms]
    return FiniteGroup(table)


def dc_set(G, H, g, K):
    """H g K, listed."""
    return {G.mul(G.mul(h, g), k) for h in H.elts for k in K.elts}


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])
    FiniteGroup.cyclic(5)


def test_group_axioms():
    G = sym3()
    e = G.identity()
    for x in range(6):
        assert G.mul(x, e) == x
        assert G.mul(x, G.inv(x)) == e


def test_subgroup_closure_and_index():
    G = sym3()
    H = G.subgroup([1])     # rotation of order 3
    assert H.order() == 3
    assert H.index() == 2
    K = G.subgroup([3])     # transposition
    assert K.order() == 2
    assert H.intersect(K).is_trivial()
    assert H.join(K).order() == 6


def test_double_cosets():
    G = sym3()
    H = G.subgroup([1])
    K = G.subgroup([3])
    dc = G.double_cosets(H, K)
    # |H g K| covers the group in few double cosets
    seen = {dc.canon(g) for g in range(6)}
    total = set()
    for g in range(6):
        total |= dc_set(G, H, g, K)
    assert total == set(range(6))
    for g in range(6):
        for g2 in dc_set(G, H, g, K):
            assert dc.eq(g, g2)
            assert dc.canon(g) == dc.canon(g2)
    assert seen == {dc.canon(g) for g in range(6)}


def test_dc_factor():
    G = sym3()
    H = G.subgroup([1])
    K = G.subgroup([3])
    dc = G.double_cosets(H, K)
    rng = Random(7)
    for _ in range(40):
        g = rng.randrange(6)
        w = dc.canon(g)
        target = rng.choice(sorted(dc_set(G, H, g, K)))
        h, k = dc.factor(w, target)
        assert H.contains(h) and K.contains(k)
        assert G.mul(G.mul(h, w), k) == target


def test_express_and_decompose():
    G = sym3()
    gens = G.generators()
    for x in range(6):
        word = G.decompose(x)
        acc = G.identity()
        for i, e in word:
            g = gens[i] if e > 0 else G.inv(gens[i])
            for _ in range(abs(e)):
                acc = G.mul(acc, g)
        assert acc == x


def test_mono_injectivity():
    Z2 = FiniteGroup.cyclic(2)
    G = sym3()
    m = Mono(Z2, G, [3])
    assert m.is_injective()
    assert m.apply(1) == 3
    bad = Mono(Z2, G, [G.identity()])
    assert not bad.is_injective()
    assert m.preimage_elt(3) == 1


def test_subgroup_backend_elements():
    from gogroups.backends import SubgroupBackend
    G = sym3()
    H = G.subgroup([1])
    S = SubgroupBackend(G, H)
    assert S.order() == 3
    word = S.decompose(2)
    acc = S.identity()
    for i, e in word:
        g = S.generators()[i] if e > 0 else S.inv(S.generators()[i])
        acc = S.mul(acc, g)
    assert acc == 2
