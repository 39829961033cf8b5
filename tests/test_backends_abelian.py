from random import Random

from hypothesis import given, settings, strategies as st

from gogroups.backends import AbelianGroup, Mono
from gogroups.backends.base import evaluate_word


def test_z_arithmetic_identities():
    Z = AbelianGroup.Z()
    two = Z.subgroup([(2,)])
    three = Z.subgroup([(3,)])
    six = Z.subgroup([(6,)])
    assert two.intersect(three).equals(six)
    assert two.join(three).equals(Z.full_subgroup())
    assert six.index_in(two) == 3
    assert two.index() == 2
    assert six.index() == 6


def test_z2_lattice():
    Z2 = AbelianGroup(2)
    a = Z2.subgroup([(1, 0)])
    b = Z2.subgroup([(0, 1)])
    assert a.intersect(b).is_trivial()
    assert a.join(b).equals(Z2.full_subgroup())
    assert a.index() is None


def test_torsion_canonical_elements():
    G = AbelianGroup(1, [4])   # Z x Z/4
    x = G.parse([0, 5])
    assert x == (0, 1)
    assert G.mul((0, 3), (0, 2)) == (0, 1)
    assert G.inv((1, 1)) == (-1, 3)
    assert G.order() is None
    assert AbelianGroup(0, [2, 4]).order() == 8


def test_subgroup_canonical_uniqueness():
    rng = Random(21)
    G = AbelianGroup(2)
    for _ in range(50):
        gens = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2)]
        H1 = G.subgroup(gens)
        shuffled = gens[::-1] + [tuple(a + b for a, b in zip(gens[0], gens[1]))]
        H2 = G.subgroup(shuffled)
        assert H1.lat == H2.lat


def test_sum_intersect_properties_sampled():
    rng = Random(22)
    G = AbelianGroup(2, [6])
    hs = []
    for _ in range(6):
        gens = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2)]
        hs.append(G.subgroup([G.canon(g) for g in gens]))
    for A in hs[:4]:
        for B in hs[:4]:
            assert A.join(B).equals(B.join(A))
            assert A.intersect(B).equals(B.intersect(A))
            assert A.join(A).equals(A)
            assert A.intersect(A).equals(A)
            for C in hs[:3]:
                assert A.join(B).join(C).equals(A.join(B.join(C)))


def test_index_multiplicativity_on_chains():
    Z = AbelianGroup.Z()
    G = Z.full_subgroup()
    H = Z.subgroup([(2,)])
    K = Z.subgroup([(6,)])
    assert K.index_in(H) * H.index_in(G) == K.index_in(G) == 6


def test_double_coset_canonical():
    Z2 = AbelianGroup(2)
    H = Z2.subgroup([(1, 0)])
    K = Z2.subgroup([(1, 0)])
    dc = Z2.double_cosets(H, K)
    w = dc.canon((3, -2))
    assert w == (0, -2)
    assert dc.eq((3, -2), (7, -2))
    assert not dc.eq((3, -2), (3, 2))
    h, k = dc.factor(w, (5, -2))
    assert H.contains(h) and K.contains(k)
    assert tuple(a + b + c for a, b, c in zip(h, w, k)) == (5, -2)


def test_abelian_mono():
    Z = AbelianGroup.Z()
    Z2 = AbelianGroup(2)
    double = Mono(Z, Z, [(2,)])
    assert double.is_injective()
    assert double.index_of_image() == 2
    assert not double.is_iso()
    iso = Mono(Z, Z, [(-1,)])
    assert iso.is_iso()
    inv = iso.inverse()
    assert inv.apply((3,)) == (-3,)
    embed = Mono(Z, Z2, [(1, 1)])
    assert embed.is_injective()
    assert embed.preimage_elt((2, 2)) == (2,)
    # torsion collapse is not injective
    Gt = AbelianGroup(0, [2])
    collapse = Mono(Gt, Gt, [(0,)])
    assert not collapse.is_injective()


def test_mono_preimage_subgroup():
    Z = AbelianGroup.Z()
    m = Mono(Z, Z, [(2,)])          # x -> 2x
    S = Z.subgroup([(6,)])
    pre = m.preimage_sub(S)         # {x : 2x in 6Z} = 3Z
    assert pre.equals(Z.subgroup([(3,)]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, ()), (1, (6,))]), st.data())
def test_element_operations_match_canon(shape, data):
    """mul, inv and pow build their result once; it must be the canon() of
    the coordinatewise result, on Z^2 and on Z x Z/6."""
    G = AbelianGroup(*shape)
    coords = st.tuples(*[st.integers(-40, 40)] * G.n)
    x, y = data.draw(coords.map(G.canon)), data.draw(coords.map(G.canon))
    n = data.draw(st.integers(-12, 12))
    assert G.mul(x, y) == G.canon(tuple(a + b for a, b in zip(x, y)))
    assert G.inv(x) == G.canon(tuple(-a for a in x))
    assert G.pow(x, n) == G.canon(tuple(n * a for a in x))
    assert all(type(z) is tuple for z in (G.mul(x, y), G.inv(x), G.pow(x, n)))


# --- brute force: intersect, index_in and express against enumeration ---
#
# Every subgroup below contains N Z^2 x 0, so it is the full preimage of its
# image in the finite quotient (Z/N)^2 x Z/k, which is listed by closure.
# Each claim is checked on the box [-B, B]^2 x Z/k of G = Z^2 x Z/k.

N, B = 4, 3


def reduce_mod(k, x):
    return (x[0] % N, x[1] % N, x[2] % k)


def quotient_closure(k, gens):
    elts = {(0, 0, 0)}
    images = [reduce_mod(k, g) for g in gens]
    while True:
        grown = elts | {reduce_mod(k, tuple(a + b for a, b in zip(x, g)))
                        for x in elts for g in images}
        if grown == elts:
            return elts
        elts = grown


def box(k):
    return [(x, y, t) for x in range(-B, B + 1) for y in range(-B, B + 1) for t in range(k)]


@st.composite
def box_subgroups(draw, lists=2):
    """k and generator lists, each with N e1 and N e2 appended."""
    k = draw(st.sampled_from([2, 3, 4]))
    vec = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, k - 1))
    return (k, *[draw(st.lists(vec, max_size=2)) + [(N, 0, 0), (0, N, 0)]
                 for _ in range(lists)])


@settings(max_examples=40, deadline=None)
@given(box_subgroups())
def test_abelian_intersect_against_enumeration(case):
    k, h, kk = case
    G = AbelianGroup(2, [k])
    meet = G.subgroup(h).intersect(G.subgroup(kk))
    both = quotient_closure(k, h) & quotient_closure(k, kk)
    for x in box(k):
        assert meet.contains(x) == (reduce_mod(k, x) in both)
    assert meet.index() == N * N * k // len(both)


@settings(max_examples=40, deadline=None)
@given(box_subgroups(lists=1), st.data())
def test_abelian_index_in_against_enumeration(case, data):
    """T is generated by N Z^2 and sums of S's generators, so T <= S and
    [S : T] is the ratio of their images in the quotient; a T of rank 1
    has infinite index."""
    k, s_gens = case
    G = AbelianGroup(2, [k])
    S = G.subgroup(s_gens)
    sums = st.lists(st.sampled_from(s_gens), min_size=1, max_size=3).map(
        lambda picks: G.canon(tuple(sum(c) for c in zip(*picks))))
    t_gens = data.draw(st.lists(sums, max_size=2)) + [(N, 0, 0), (0, N, 0)]
    T = G.subgroup(t_gens)
    assert T.index_in(S) == len(quotient_closure(k, s_gens)) // len(quotient_closure(k, t_gens))
    assert G.subgroup([(N, 0, 0)]).index_in(S) is None


@settings(max_examples=40, deadline=None)
@given(box_subgroups(lists=1))
def test_abelian_express_against_enumeration(case):
    k, gens = case
    G = AbelianGroup(2, [k])
    inside = quotient_closure(k, gens)
    for x in box(k):
        word = G.express(x, gens)
        assert (word is not None) == (reduce_mod(k, x) in inside)
        if word is not None:
            assert evaluate_word(G, gens, word) == x
