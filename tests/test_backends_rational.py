from itertools import product
from random import Random

from gogroups.backends import FreeGroup, coset_nfa
from gogroups.backends.rational import PowerPattern
from gogroups.words import format_word, parse_word, winv, wmul, wpow, wreduce


F2 = FreeGroup(2)


def brute_double_coset(H_words, g, K_words, factor_depth=5):
    """Oracle: the set of reduced forms h g k with h, k products of at most
    `factor_depth` generator letters."""
    def ball(gens):
        items = [wreduce(w) for w in gens] + [winv(wreduce(w)) for w in gens]
        seen = {()}
        frontier = [()]
        for _ in range(factor_depth):
            nxt = []
            for x in frontier:
                for it in items:
                    y = wmul(x, it)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen
    out = set()
    for h in ball(H_words):
        for k in ball(K_words):
            out.add(wmul(h, wreduce(g), k))
    return out


def test_trivial_coset():
    H = F2.trivial_subgroup()
    K = F2.trivial_subgroup()
    nfa = coset_nfa(H, parse_word("a"), K)
    assert nfa.member(parse_word("a"))
    assert not nfa.member(parse_word("b"))
    assert not nfa.member(())
    assert nfa.shortest_reduced() == parse_word("a")


def test_ai_bj_coset():
    H = F2.subgroup(["a"])
    K = F2.subgroup(["b"])
    nfa = coset_nfa(H, (), K)
    for i in range(-3, 4):
        for j in range(-3, 4):
            w = wmul(wpow(parse_word("a"), i), wpow(parse_word("b"), j))
            assert nfa.member(w)
    assert not nfa.member(parse_word("ba"))
    assert nfa.member(parse_word("aaabb"))
    assert nfa.shortest_reduced() == ()


def test_membership_against_bruteforce():
    rng = Random(41)
    for _ in range(15):
        H_words = [wreduce(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))))
                   for _ in range(rng.randint(0, 2))]
        K_words = [wreduce(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))))
                   for _ in range(rng.randint(0, 2))]
        H_words = [w for w in H_words if w]
        K_words = [w for w in K_words if w]
        g = wreduce(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3))))
        H = F2.subgroup(H_words)
        K = F2.subgroup(K_words)
        nfa = coset_nfa(H, g, K)
        oracle = brute_double_coset(H_words, g, K_words)
        # every short reduced word: membership agrees with the (partial) oracle
        for w in oracle:
            if len(w) <= 4:
                assert nfa.member(w), (H_words, g, K_words, format_word(w))


def test_canonical_witness_examples():
    H = F2.subgroup(["a"])
    K = F2.subgroup(["b"])
    w = F2.dc_canon(H, parse_word("aaaaabB" .replace("bB", "BB")), K)
    # a^5 b^-2 lies in H K, so the canonical witness is the empty word
    w = F2.dc_canon(H, wmul(wpow(parse_word("a"), 5), wpow(parse_word("b"), -2)), K)
    assert w == ()
    # trivial H, K: witness is the reduced word itself
    T = F2.trivial_subgroup()
    assert F2.dc_canon(T, parse_word("abBa"), T) == parse_word("aa")
    # <a^2> a <a^3> contains a^{1+2i+3j}: all powers of a, so the witness is empty
    H2 = F2.subgroup(["aa"])
    K3 = F2.subgroup(["aaa"])
    assert F2.dc_canon(H2, parse_word("a"), K3) == ()


def test_canonical_witness_invariance():
    rng = Random(42)
    H = F2.subgroup(["ab"])
    K = F2.subgroup(["ba"])
    g = parse_word("aab")
    base = F2.dc_canon(H, g, K)
    for _ in range(20):
        h = wpow(parse_word("ab"), rng.randint(-3, 3))
        k = wpow(parse_word("ba"), rng.randint(-3, 3))
        assert F2.dc_canon(H, wmul(h, g, k), K) == base
    assert F2.dc_eq(H, g, K, wmul(parse_word("ab"), g))


def test_dc_factor():
    rng = Random(43)
    H = F2.subgroup(["ab", "ba"])
    K = F2.subgroup(["b"])
    g = parse_word("a")
    w = F2.dc_canon(H, g, K)
    for _ in range(20):
        h = ()
        for _ in range(rng.randint(0, 3)):
            h = wmul(h, rng.choice([parse_word("ab"), winv(parse_word("ab")),
                                    parse_word("ba"), winv(parse_word("ba"))]))
        k = wpow(parse_word("b"), rng.randint(-3, 3))
        target = wmul(h, g, k)
        h2, k2 = F2.dc_factor(H, w, K, target)
        assert H.contains(h2) and K.contains(k2)
        assert wmul(h2, w, k2) == target


def test_power_pattern_basic():
    H = F2.subgroup(["aa"])
    K = F2.trivial_subgroup()
    nfa = coset_nfa(H, (), K)
    pat = PowerPattern(nfa, parse_word("a"))
    for n in range(-8, 9):
        assert pat.accepted(n) == (n % 2 == 0)
    assert pat.infinite()
    sols = pat.solutions_mod(2)
    assert 0 in sols and 1 not in sols


def test_power_pattern_finite():
    T = F2.trivial_subgroup()
    nfa = coset_nfa(T, parse_word("aaa"), T)
    pat = PowerPattern(nfa, parse_word("a"))
    assert not pat.infinite()
    assert pat.finite_solutions() == [3]
    sols = pat.solutions_mod(2)
    assert sols == {1: 3}


def test_power_pattern_conjugate():
    H = F2.subgroup([parse_word("abbA")])     # <a b^2 a^-1>
    nfa = coset_nfa(H, (), F2.trivial_subgroup())
    pat = PowerPattern(nfa, parse_word("abA"))   # (a b a^-1)^n in H iff 2 | n
    for n in range(-6, 7):
        assert pat.accepted(n) == (n % 2 == 0)


def test_membership_two_sided_closed_form():
    # H = <a>, K = <b>, g = empty: the coset is exactly { a^i b^j }, checked
    # two-sided on every reduced word of length <= 6
    H = F2.subgroup(["a"])
    K = F2.subgroup(["b"])
    nfa = coset_nfa(H, (), K)
    frontier = [()]
    words = [()]
    for _ in range(6):
        nxt = []
        for w in frontier:
            for x in (1, -1, 2, -2):
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        words.extend(nxt)
        frontier = nxt
    for w in words:
        i = 0
        while i < len(w) and abs(w[i]) == 1 and (i == 0 or w[i] == w[0]):
            i += 1
        j = i
        while j < len(w) and abs(w[j]) == 2 and (j == i or w[j] == w[i]):
            j += 1
        expected = j == len(w)
        assert nfa.member(w) == expected, w
