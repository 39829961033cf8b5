"""Edge fans of the double-coset handles (`dc.edge_fan`) against brute force.

A fan lists, for a witness w of H w K, one a per edge double coset E1 a E2
whose transport f_a alpha(a) g_a^-1 lies in H w K, paired with that
transport (a finite fan) or None (the abelian and free fans).  The oracles enumerate
the edge group (all of a finite one; a box holding a representative of every
class of an abelian one, decided in the finite quotient by k; the powers
|n| <= N of a cyclic one in a free group) and group the solutions into
edge double cosets by brute force.
"""

from __future__ import annotations

from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from gogroups.backends import AbelianGroup, FiniteGroup, FreeGroup, Mono
from gogroups.backends.base import UnsupportedExpansion
from gogroups.words import winv, wmul, wpow, wreduce


def sym3():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[idx[tuple(q[p[k]] for k in range(3))] for q in perms] for p in perms])


def transport(G, alpha, f_a, g_a, a):
    return G.mul(G.mul(f_a, alpha.apply(a)), G.inv(g_a))


# --- the abelian fan's stored error ---

def test_abelian_fan_error_is_raised_only_for_a_witness_with_edges():
    # alpha(n) = (n, 0), E1 = E2 = 0, H = K = <(1, 0)>: P = Z, so the fan
    # cannot be listed; the witness (0, 1) has no edge at all
    G, Ge = AbelianGroup(2), AbelianGroup.Z()
    H = G.subgroup([(1, 0)])
    fan = G.double_cosets(H, H).edge_fan(
        Mono(Ge, G, [(1, 0)]), Ge.double_cosets(Ge.trivial_subgroup(), Ge.trivial_subgroup()),
        G.identity(), G.identity())
    assert fan.solve((0, 1)) == []
    with pytest.raises(UnsupportedExpansion, match="^infinite-edge-fan$"):
        fan.solve((0, 0))


# --- finite: S3 and Z/6, every witness, every element of the edge group ---

@st.composite
def finite_instances(draw):
    G = draw(st.sampled_from([sym3(), FiniteGroup.cyclic(6)]))
    elts = st.integers(0, G.order() - 1)
    if draw(st.booleans()):
        # the edge group is G itself, mapped by conjugation with c
        c = draw(elts)
        Ge = G
        alpha = Mono(Ge, G, [G.mul(G.mul(G.inv(c), x), c) for x in G.generators()])
    else:
        # a cyclic edge group onto <x>
        x = draw(elts.filter(lambda x: x != G.identity()))
        m, y = 1, x
        while y != G.identity():
            m, y = m + 1, G.mul(y, x)
        Ge = FiniteGroup.cyclic(m)
        alpha = Mono(Ge, G, [x])
    edge_elts = st.integers(0, Ge.order() - 1)
    E1 = Ge.subgroup(draw(st.lists(edge_elts, max_size=2)))
    E2 = Ge.subgroup(draw(st.lists(edge_elts, max_size=2)))
    f_a, g_a = draw(elts), draw(elts)
    # H contains f_a alpha(E1) f_a^-1 and K contains g_a alpha(E2) g_a^-1
    H = G.subgroup([G.mul(G.mul(f_a, alpha.apply(e)), G.inv(f_a)) for e in E1.gens]
                   + draw(st.lists(elts, max_size=1)))
    K = G.subgroup([G.mul(G.mul(g_a, alpha.apply(e)), G.inv(g_a)) for e in E2.gens]
                   + draw(st.lists(elts, max_size=1)))
    return G, Ge, alpha, E1, E2, H, K, f_a, g_a


@settings(max_examples=80, deadline=None)
@given(finite_instances())
def test_finite_fan_against_enumeration(inst):
    G, Ge, alpha, E1, E2, H, K, f_a, g_a = inst
    fan = G.double_cosets(H, K).edge_fan(alpha, Ge.double_cosets(E1, E2), f_a, g_a)

    def cls(a):
        return frozenset(Ge.mul(Ge.mul(b, a), c) for b in E1.elts for c in E2.elts)

    for w in range(G.order()):
        hwk = {G.mul(G.mul(h, w), k) for h in H.elts for k in K.elts}
        hit = {cls(a) for a in range(Ge.order()) if transport(G, alpha, f_a, g_a, a) in hwk}
        sols = fan.solve(w)
        reps = [a for a, _ in sols]
        assert reps == sorted(reps)
        assert all(raw == transport(G, alpha, f_a, g_a, a) for a, raw in sols)
        assert len({cls(a) for a in reps}) == len(reps)
        assert {cls(a) for a in reps} == hit


# --- abelian: Z^2 and Z x Z/4, decided modulo k ---

def closure_mod(gens, k, n):
    """The subgroup of (Z/k)^n generated by gens, by closure."""
    seen = {(0,) * n}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for g in gens:
            y = tuple((a + b) % k for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def units(k, n):
    return [tuple(k if i == j else 0 for j in range(n)) for i in range(n)]


@st.composite
def abelian_instances(draw):
    coords = st.integers(-3, 3)
    if draw(st.booleans()):
        G, k = AbelianGroup(2), draw(st.sampled_from([2, 3, 4]))
        Ge = draw(st.sampled_from([AbelianGroup(1), AbelianGroup(2)]))
    else:
        G, k = AbelianGroup(1, [4]), 4
        Ge = draw(st.sampled_from([AbelianGroup(1), AbelianGroup(1, [4])]))

    def elt(A):
        return A.canon(tuple(draw(coords) for _ in range(A.n)))

    # a torsion generator of Ge (order 4) goes to an element of order 4
    alpha = Mono(Ge, G, [elt(G) for _ in range(Ge.rank)]
                 + [(0, draw(st.sampled_from([1, 3])))] * len(Ge.torsion))
    assume(alpha.is_injective())
    # E1 contains k Ge and H contains k G, so everything is decided mod k
    E1 = Ge.subgroup([elt(Ge) for _ in range(draw(st.integers(0, 1)))] + units(k, Ge.n))
    E2 = Ge.subgroup([elt(Ge) for _ in range(draw(st.integers(0, 2)))])
    f_a, g_a = elt(G), elt(G)
    H = G.subgroup([alpha.apply(e) for e in E1.gens] + [elt(G)] + units(k, G.n))
    K = G.subgroup([alpha.apply(e) for e in E2.gens]
                   + [elt(G) for _ in range(draw(st.integers(0, 1)))])
    return G, Ge, alpha, E1, E2, H, K, f_a, g_a, k


@settings(max_examples=80, deadline=None)
@given(abelian_instances())
def test_abelian_fan_against_the_quotient_by_k(inst):
    G, Ge, alpha, E1, E2, H, K, f_a, g_a, k = inst
    fan = G.double_cosets(H, K).edge_fan(alpha, Ge.double_cosets(E1, E2), f_a, g_a)
    hk = closure_mod(list(H.gens) + list(K.gens) + units(k, G.n), k, G.n)
    se = closure_mod(list(E1.gens) + list(E2.gens), k, Ge.n)

    def cls(a):
        return min(tuple((x + s) % k for x, s in zip(a, t)) for t in se)

    def solves(a, w):
        raw = transport(G, alpha, f_a, g_a, a)
        return tuple((x - y) % k for x, y in zip(raw, w)) in hk

    box = [Ge.canon(a) for a in product(range(k), repeat=Ge.n)]
    for w in product(range(k), repeat=G.n):
        w = G.canon(w)
        sols = fan.solve(w)
        assert all(raw is None for _, raw in sols)
        reps = [a for a, _ in sols]
        assert all(solves(a, w) for a in reps)
        assert len({cls(a) for a in reps}) == len(reps)
        assert {cls(a) for a in reps} == {cls(a) for a in box if solves(a, w)}


# --- free: a cyclic edge group, encoded as {"Z": true} and as {"free": 1} ---

N = 40
words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3).map(lambda w: wreduce(tuple(w)))


@st.composite
def free_instances(draw):
    F = FreeGroup(2)
    c = draw(words.filter(bool))
    f_a, g_a = draw(words), draw(words)
    w = draw(st.one_of(words, st.integers(-4, 4).map(lambda n: wmul(f_a, wpow(c, n), winv(g_a)))))
    # H contains f_a c^ph f_a^-1 and K contains g_a c^qk g_a^-1, while
    # E1 = <z^p> and E2 = <z^q> may be smaller: p is 0 or ph, q is 0 or qk
    ph, qk = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    p, q = draw(st.sampled_from([0, ph])), draw(st.sampled_from([0, qk]))
    H = F.subgroup([x for x in [wmul(f_a, wpow(c, ph), winv(f_a))]
                    + draw(st.lists(words, max_size=1)) if x])
    K = F.subgroup([x for x in [wmul(g_a, wpow(c, qk), winv(g_a))]
                    + draw(st.lists(words, max_size=1)) if x])
    return F, c, p, q, H, K, f_a, g_a, w


@settings(max_examples=80, deadline=None)
@given(free_instances())
def test_free_fan_against_powers(inst):
    F, c, p, q, H, K, f_a, g_a, w = inst
    dc = F.double_cosets(H, K)
    sols = [n for n in range(-N, N + 1) if dc.eq(w, wmul(f_a, wpow(c, n), winv(g_a)))]
    d0 = gcd(p, q)
    outcomes = []
    for Ge, z_pow in ((AbelianGroup.Z(), lambda n: (n,)), (FreeGroup(1), lambda n: wpow((1,), n))):
        E1 = Ge.subgroup([z_pow(p)] if p else [])
        E2 = Ge.subgroup([z_pow(q)] if q else [])
        fan = dc.edge_fan(Mono(Ge, F, [c]), Ge.double_cosets(E1, E2), f_a, g_a)
        try:
            listed = fan.solve(w)
        except UnsupportedExpansion as exc:
            outcomes.append(str(exc))
            continue
        assert all(raw is None for _, raw in listed)
        reps = [a for a, _ in listed]
        exponent = {z_pow(n): n for n in range(-N, N + 1)}
        assert all(a in exponent for a in reps)    # every edge lies in the window
        outcomes.append([exponent[a] for a in reps])
    assert outcomes[0] == outcomes[1]
    ns = outcomes[0]
    if ns == "infinite-edge-fan":
        # no E1 E2 to fold the powers: they form a progression up to the window
        assert d0 == 0 and any(abs(n) > N // 2 for n in sols)
    elif d0:
        # one edge per residue with a solution, at its least |n| (n >= 0 first)
        least = {}
        for n in sorted(sols, key=lambda n: (abs(n), -n)):
            least.setdefault(n % d0, n)
        assert ns == [least[r] for r in sorted(least)]
    else:
        assert sorted(ns, key=lambda n: (abs(n), -n)) == ns and set(ns) == set(sols)

