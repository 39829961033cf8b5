from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gogroups.backends import AbelianGroup, FreeGroup, Mono, StallingsAutomaton
from gogroups.words import (cyc_reduce, format_word, letter_key, parse_word, winv, wmul, wpow,
                            wreduce)


F2 = FreeGroup(2)


def all_reduced_words(rank, max_len):
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in letters:
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        out.extend(nxt)
        frontier = nxt
    return out


def brute_membership(gens, w, depth):
    """Oracle: does w lie in <gens>?  BFS over products up to `depth` factors."""
    seen = {(): None}
    frontier = [()]
    items = [wreduce(g) for g in gens] + [winv(wreduce(g)) for g in gens]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for g in items:
                y = wmul(x, g)
                if y not in seen:
                    seen[y] = None
                    nxt.append(y)
        frontier = nxt
    return wreduce(w) in seen


def test_stallings_single_loop():
    H = F2.subgroup(["a"])
    assert H.rank() == 1
    assert H.aut.n_states == 1
    assert H.contains(parse_word("aaa"))
    assert not H.contains(parse_word("b"))


def test_stallings_a2_b():
    H = F2.subgroup(["aa", "b"])
    assert H.rank() == 2
    assert H.aut.n_states == 2
    assert H.contains(parse_word("aa"))
    assert not H.contains(parse_word("a"))
    assert H.contains(parse_word("baab"))


def test_stallings_trivial():
    H = F2.subgroup([])
    assert H.is_trivial()
    assert H.contains(())
    assert not H.contains(parse_word("a"))


def test_membership_sound_against_product_ball():
    # every depth-bounded product of generators must be accepted
    rng = Random(31)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            w = wreduce(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 4))))
            if w:
                gens.append(w)
        H = F2.subgroup(gens)
        items = [wreduce(g) for g in gens] + [winv(wreduce(g)) for g in gens]
        seen = {()}
        frontier = [()]
        for _ in range(4):
            nxt = []
            for x in frontier:
                for g in items:
                    y = wmul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        for w in seen:
            assert H.contains(w)


def test_membership_complete_on_closed_form_case():
    # <a^2, b>: a reduced word belongs iff every maximal a-run has even length
    H = F2.subgroup(["aa", "b"])
    for w in all_reduced_words(2, 6):
        runs_even = True
        i = 0
        while i < len(w):
            if abs(w[i]) == 1:
                j = i
                while j < len(w) and w[j] == w[i]:
                    j += 1
                if (j - i) % 2:
                    runs_even = False
                i = j
            else:
                i += 1
        assert H.contains(w) == runs_even


def test_intersection_identities():
    H = F2.subgroup(["a"])
    K = F2.subgroup(["aa"])
    I = H.intersect(K)
    assert I.equals(K)
    assert H.intersect(H).equals(H)


def test_intersection_against_bruteforce():
    H = F2.subgroup(["a", "bab" + "B"])          # <a, babB> read as words
    H = F2.subgroup([parse_word("a"), parse_word("baB")])
    K = F2.subgroup([parse_word("b"), parse_word("abA")])
    I = H.intersect(K)
    for w in all_reduced_words(2, 8):
        assert I.contains(w) == (H.contains(w) and K.contains(w))


def test_hanna_neumann_bound_sampled():
    rng = Random(32)
    for _ in range(60):
        gens_h = [wreduce(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 5))))
                  for _ in range(rng.randint(1, 3))]
        gens_k = [wreduce(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 5))))
                  for _ in range(rng.randint(1, 3))]
        H = F2.subgroup([g for g in gens_h if g])
        K = F2.subgroup([g for g in gens_k if g])
        if H.rank() == 0 or K.rank() == 0:
            continue
        I = H.intersect(K)
        assert I.rank() - 1 <= 2 * max(H.rank() - 1, 0) * max(K.rank() - 1, 0) or I.rank() <= 1


def test_index():
    H = F2.subgroup([parse_word(w) for w in ("a", "bab", "bbb" ) ])
    # index-3 subgroup of F2: check completeness-based index
    assert H.index() in (3, None)
    full = F2.full_subgroup()
    assert full.index() == 1
    assert F2.subgroup(["a"]).index() is None


def test_index_in():
    A = F2.subgroup(["a"])
    A2 = F2.subgroup(["aa"])
    assert A2.index_in(A) == 2
    assert F2.trivial_subgroup().index_in(A) is None
    H = F2.full_subgroup()
    K = F2.subgroup([parse_word(w) for w in ("aa", "ab", "ba")])
    idx = K.index_in(H)
    assert idx == 2


def test_index_in_conjugated_cyclic():
    # a length ratio would read 5 // 3 here and reject the pair
    assert F2.subgroup(["baaaB"]).index_in(F2.subgroup(["baB"])) == 3
    rng = Random(154)
    for _ in range(40):
        u = wreduce(tuple(rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(0, 4))))
        c = wreduce(tuple(rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(1, 4))))
        if not c:
            continue
        t = wmul(u, c, winv(u))
        m = rng.randint(1, 4)
        sub = F2.subgroup([wpow(t, m if rng.random() < 0.5 else -m)])
        assert sub.index_in(F2.subgroup([t])) == m


def test_index_in_rejects_a_non_subgroup():
    # a cyclic-core length ratio reads 2 for <b^2> in <a>, and a coset
    # enumeration bounded by ranks reads infinite for <ab> in <a, bab>
    for sub, sup in ((["bb"], ["a"]), (["ab"], ["a", "bab"])):
        with pytest.raises(ValueError):
            F2.subgroup(sub).index_in(F2.subgroup(sup))


def cyclic_intersect(H, c):
    """Smallest d >= 1 with c^d in H, read off H's automaton; None if no
    power lies in H."""
    c = wreduce(c)
    if not c:
        raise ValueError("empty word")
    u, core = cyc_reduce(c)
    s0 = H.aut.trace(u)
    if s0 is None:
        return None
    seen = {}
    s = s0
    d = 0
    while True:
        s_next = H.aut.trace(core, start=s)
        if s_next is None:
            return None
        d += 1
        if H.aut.trace(winv(u), start=s_next) == 0:
            return d
        if s_next in seen:
            return None
        seen[s_next] = d
        s = s_next


def test_cyclic_intersect_examples():
    H = F2.subgroup(["aa", "b"])
    assert cyclic_intersect(H, parse_word("a")) == 2
    assert cyclic_intersect(F2.subgroup(["a"]), parse_word("b")) is None
    assert cyclic_intersect(F2.full_subgroup(), parse_word("ab")) == 1


def test_cyclic_intersect_conjugated():
    H = F2.subgroup([parse_word("abbA")])           # <a b^2 a^-1>
    c = parse_word("abA")                           # a b a^-1
    assert cyclic_intersect(H, c) == 2


def test_conjugate():
    H = F2.subgroup(["a"])
    Hc = H.conjugate(parse_word("b"))
    assert Hc.contains(parse_word("BaB" .replace("B", "B")) ) is False
    assert Hc.contains(wmul(winv(parse_word("b")), parse_word("a"), parse_word("b")))


def test_decompose_over_basis():
    H = F2.subgroup(["aa", "b"])
    w = parse_word("baaB")
    word = H.decompose(w)
    acc = ()
    for i, e in word:
        g = H.gens[i]
        acc = wmul(acc, g if e > 0 else winv(g))
    assert acc == w


def test_express_over_generators():
    gens = [parse_word("ab"), parse_word("ba")]
    target = wmul(parse_word("ab"), winv(parse_word("ba")), parse_word("ab"))
    word = F2.express(target, gens)
    assert word is not None
    acc = ()
    for i, e in word:
        g = gens[i]
        acc = wmul(acc, g if e > 0 else winv(g))
    assert acc == target
    assert F2.express(parse_word("a"), gens) is None


def test_express_random_roundtrip():
    rng = Random(33)
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 3)):
            w = wreduce(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 4))))
            if w:
                gens.append(w)
        if not gens:
            continue
        word = [rng.choice([i + 1 for i in range(len(gens))] + [-(i + 1) for i in range(len(gens))])
                for _ in range(rng.randint(0, 5))]
        target = ()
        for s in word:
            g = gens[abs(s) - 1]
            target = wmul(target, g if s > 0 else winv(g))
        expr = F2.express(target, gens)
        assert expr is not None
        acc = ()
        for i, e in expr:
            g = gens[i]
            acc = wmul(acc, g if e > 0 else winv(g))
        assert acc == target


def test_free_mono():
    F1 = FreeGroup(1)
    m = Mono(F1, F2, ["ab"])
    assert m.is_injective()
    assert m.apply(parse_word("aa", rank=1)) == parse_word("abab")
    assert m.preimage_elt(parse_word("abab")) == parse_word("aa", rank=1)
    sq = Mono(F2, F2, ["a", "a"])
    assert not sq.is_injective()


def test_elements_up_to():
    H = F2.subgroup(["a"])
    els = H.elements_up_to(3)
    assert set(els) == {(), (1,), (-1,), (1, 1), (-1, -1), (1, 1, 1), (-1, -1, -1)}
    # a negative bound is refused, not enumerated without end
    with pytest.raises(ValueError):
        H.elements_up_to(-1)


# --- the fold against a naive one ---

def naive_fold(gen_words):
    """Petals at state 0, then: while two arcs leave one state with the
    same signed letter, rename the larger of their targets to the smaller.
    Returns the rows numbered shortlex breadth-first from state 0."""
    arcs, n = set(), 1
    for w in map(wreduce, gen_words):
        s = 0
        for j, x in enumerate(w):
            t = 0 if j == len(w) - 1 else n
            n += t != 0
            arcs.add((s, x, t) if x > 0 else (t, -x, s))
            s = t
    while True:
        seen, pair = {}, None
        for s, x, t in sorted(arcs):
            for a, y, b in ((s, x, t), (t, -x, s)):
                if seen.get((a, y), b) != b:
                    pair = sorted((seen[(a, y)], b))
                seen[(a, y)] = b
        if pair is None:
            break
        keep, gone = pair
        arcs = {(keep if s == gone else s, x, keep if t == gone else t) for s, x, t in arcs}
    rows = {0: {}}
    for s, x, t in arcs:
        rows.setdefault(s, {})[x] = t
        rows.setdefault(t, {})[-x] = s
    order = [0]
    for v in order:
        for x in sorted(rows[v], key=letter_key):
            if rows[v][x] not in order:
                order.append(rows[v][x])
    num = {v: i for i, v in enumerate(order)}
    return [{x: num[t] for x, t in rows[v].items()} for v in order]


letters3 = st.sampled_from([1, -1, 2, -2, 3, -3])
gen_lists = st.lists(st.lists(letters3, max_size=7).map(tuple), max_size=5)


@settings(max_examples=200, deadline=None)
@given(gen_lists)
def test_fold_matches_naive_fold(gens):
    naive = naive_fold(gens)
    assert StallingsAutomaton.from_words(gens).delta == naive
    assert StallingsAutomaton.from_words(gens, annotate=True).delta == naive


@settings(max_examples=200, deadline=None)
@given(gen_lists.filter(any), st.lists(st.tuples(st.integers(0, 20), st.booleans()),
                                       max_size=4),
       st.lists(st.integers(-20, 20).filter(bool), max_size=6))
def test_express_multiplies_back_over_dependent_lists(gens, products, word):
    """Generators followed by products of earlier ones (a dependent list);
    a product of them expresses as a word that multiplies back to it."""
    gens = [wreduce(g) for g in gens]
    for i, flip in products:
        a, b = gens[i % len(gens)], gens[(i // 2) % len(gens)]
        gens.append(wmul(a, winv(b) if flip else b))
    target = ()
    for s in word:
        g = gens[(abs(s) - 1) % len(gens)]
        target = wmul(target, g if s > 0 else winv(g))
    expr = FreeGroup(3).express(target, gens)
    assert expr is not None
    acc = ()
    for i, e in expr:
        acc = wmul(acc, gens[i] if e > 0 else winv(gens[i]))
    assert acc == target


def test_mono_injective_into_abelian_codomain():
    Z, Z3 = AbelianGroup.Z(), AbelianGroup(0, [3])
    assert Mono(FreeGroup(1), Z, [(2,)]).is_injective()
    assert not Mono(FreeGroup(1), Z, [(0,)]).is_injective()
    assert not Mono(FreeGroup(1), Z3, [(1,)]).is_injective()
    assert not Mono(FreeGroup(2), AbelianGroup(2), [(1, 0), (0, 1)]).is_injective()


# --- brute force: intersect, index_in and express against enumeration ---

def small_words(rank, max_len):
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    return st.lists(st.sampled_from(letters), max_size=max_len).map(wreduce)


@st.composite
def small_pairs(draw):
    rank = draw(st.integers(1, 2))
    words = st.lists(small_words(rank, 4), max_size=3)
    return rank, draw(words), draw(words)


@settings(max_examples=120, deadline=None)
@given(small_pairs())
def test_intersect_against_enumeration(case):
    rank, h_words, k_words = case
    F = FreeGroup(rank)
    H, K = F.subgroup(h_words), F.subgroup(k_words)
    L = 6
    both = set(H.elements_up_to(L)) & set(K.elements_up_to(L))
    assert set(H.intersect(K).elements_up_to(L)) == both


@st.composite
def subgroup_chains(draw):
    """S = <s_1..s_m> and T generated by products of S's basis, so T <= S."""
    rank = draw(st.integers(1, 2))
    S = FreeGroup(rank).subgroup(draw(st.lists(small_words(rank, 3).filter(bool),
                                               min_size=1, max_size=3)))
    if not S.gens:
        return S, S
    factor = st.tuples(st.sampled_from(S.gens), st.booleans())
    products = st.lists(factor, min_size=1, max_size=3).map(
        lambda picks: wmul(*[w if keep else winv(w) for w, keep in picks]))
    return S, S.group.subgroup(draw(st.lists(products, max_size=4)))


def schreier_index(T, S):
    """[S : T] for T <= S by enumerating the right cosets T x over S's
    basis, stopping once there are more than the Schreier formula
    rank T - 1 = [S : T] (rank S - 1) allows; None when infinite."""
    rS, rT = S.rank(), T.rank()
    if rS == 0:
        return 1
    if rT == 0:
        return None
    bound = None                # T is of finite index in a cyclic S
    if rS > 1:
        if (rT - 1) % (rS - 1):
            return None
        bound = (rT - 1) // (rS - 1)
    reps = [()]
    i = 0
    while i < len(reps):
        x = reps[i]
        i += 1
        for t in list(S.gens) + [winv(t) for t in S.gens]:
            y = wmul(x, t)
            if not any(T.contains(wmul(y, winv(r))) for r in reps):
                reps.append(y)
                if bound is not None and len(reps) > bound:
                    return None
    return len(reps)


@settings(max_examples=100, deadline=None)
@given(subgroup_chains())
def test_index_in_against_coset_enumeration(case):
    """The right cosets T x met by the elements of S up to length L: never
    more than a finite [S : T], all of them once L reaches (n - 1) times
    the longest basis word of S, and at least L // longest + 1 of them
    when the index is infinite (the Schreier graph is then infinite and
    connected).  The index is also the one schreier_index counts."""
    S, T = case
    n = T.index_in(S)
    assert n == schreier_index(T, S)
    L = 4
    inside = set(T.elements_up_to(2 * L))
    reps = []
    for x in S.elements_up_to(L):
        if not any(wmul(x, winv(r)) in inside for r in reps):
            reps.append(x)
    longest = max((len(g) for g in S.gens), default=1)
    if n is None:
        assert len(reps) >= L // longest + 1
    else:
        assert len(reps) <= n
        if (n - 1) * longest <= L:
            assert len(reps) == n


@settings(max_examples=150, deadline=None)
@given(small_pairs(), st.data())
def test_express_against_enumeration(case, data):
    rank, gens, _ = case
    F = FreeGroup(rank)
    inside = set(F.subgroup(gens).elements_up_to(8))
    picks = data.draw(st.lists(st.tuples(st.sampled_from(gens), st.booleans()), max_size=2)
                      if gens else st.just([]))
    product_ = wmul(*[w if keep else winv(w) for w, keep in picks])
    for target in (product_, data.draw(small_words(rank, 6))):
        expr = F.express(target, gens)
        assert (expr is not None) == (target in inside)
        if expr is not None:
            acc = ()
            for i, e in expr:
                acc = wmul(acc, gens[i] if e > 0 else winv(gens[i]))
            assert acc == target
