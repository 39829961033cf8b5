"""The subgroup-handle contract: an operation whose value equals an operand
hands that operand back, so `is` tells a caller that nothing changed.

join does so on every backend and conjugate on the finite and abelian ones,
each exactly when the value is unchanged.  intersect always makes a new
handle listing its backend's generators for the value (the sorted elements
of a finite subgroup, the HNF rows of an abelian one), since pullback
reports print the generators of meets.
"""

from hypothesis import given, settings, strategies as st

from gogroups.backends import AbelianGroup, FiniteGroup, FreeGroup
from gogroups.words import wreduce

from test_backends_finite import sym3


def assert_operand_exactly_when_equal(result, *operands):
    assert any(result is H for H in operands) == any(result.equals(H) for H in operands)


def assert_join_and_conjugate(G, H, K, g):
    J = H.join(K)
    assert J.equals(G.subgroup(list(H.gens) + list(K.gens)))
    assert_operand_exactly_when_equal(J, H, K)
    if G.kind != "free":
        C = H.conjugate(g)
        assert C.equals(G.subgroup([G.mul(G.mul(G.inv(g), h), g) for h in H.gens]))
        assert_operand_exactly_when_equal(C, H)


# S3 has the normal subgroup A3, conjugated onto itself by elements outside
# it; Z/6 is abelian, so every conjugate is unchanged
finite_groups = st.sampled_from([sym3, lambda: FiniteGroup.cyclic(6),
                                 lambda: FiniteGroup.cyclic(4)])


@st.composite
def finite_case(draw):
    G = draw(finite_groups)()
    gens = st.lists(st.integers(0, G.order() - 1), max_size=3)
    return G, G.subgroup(draw(gens)), G.subgroup(draw(gens)), draw(st.integers(0, G.order() - 1))


@settings(max_examples=200, deadline=None)
@given(finite_case())
def test_finite_join_and_conjugate_return_an_operand_exactly_when_equal(case):
    assert_join_and_conjugate(*case)


@settings(max_examples=100, deadline=None)
@given(finite_case())
def test_finite_intersect_lists_its_sorted_elements(case):
    G, H, K, _ = case
    meet = H.intersect(K)
    assert meet is not H and meet is not K
    assert meet.gens == tuple(sorted(H.elts & K.elts))


# Z, where <4, 6> = <2> = <-2> are one value with three generator lists,
# and Z^2 x Z/2, with torsion
abelian_groups = st.sampled_from([(1, []), (2, [2])])


@st.composite
def abelian_case(draw):
    G = AbelianGroup(*draw(abelian_groups))
    vec = st.lists(st.integers(-6, 6), min_size=G.n, max_size=G.n).map(
        lambda v: G.canon(tuple(v)))
    gens = st.lists(vec, max_size=3)
    return G, G.subgroup(draw(gens)), G.subgroup(draw(gens)), draw(vec)


@settings(max_examples=200, deadline=None)
@given(abelian_case())
def test_abelian_join_and_conjugate_return_an_operand_exactly_when_equal(case):
    assert_join_and_conjugate(*case)


@settings(max_examples=100, deadline=None)
@given(abelian_case())
def test_abelian_intersect_lists_its_hnf_rows(case):
    G, H, K, _ = case
    meet = H.intersect(K)
    assert meet is not H and meet is not K
    assert meet.lat == H.lat.intersect(K.lat)
    assert meet.gens == tuple(G.gens_of(meet.lat))


words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4).map(lambda w: tuple(wreduce(w)))


@settings(max_examples=200, deadline=None)
@given(st.lists(words, max_size=3), st.lists(words, max_size=3))
def test_free_join_returns_an_operand_exactly_when_equal(h, k):
    F = FreeGroup(2)
    assert_join_and_conjugate(F, F.subgroup(h), F.subgroup(k), ())
