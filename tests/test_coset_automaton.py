"""Oracle tests for the Benois coset automaton and the Stallings core.

The replaced algorithms are kept here as references: `CosetNFA._saturate`
against the round-robin fixpoint that re-swept every state and arc until a
full round added nothing, and `StallingsAutomaton.cored` against the loop
that rescanned every live state until none had valence <= 1.  The double
coset operations of `FreeGroup` are checked against their construction:
h g k is in H g K, and inside the kernel of F2 -> Z/3 (a-exponent sum mod 3)
h g a k is not.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from gogroups.backends import FreeGroup
from gogroups.backends.free import StallingsAutomaton
from gogroups.backends.rational import CosetNFA, PowerPattern
from gogroups.words import letter_key, winv, wmul, wpow, wreduce


def saturate_by_rounds(trans, primitive_eps):
    """(E key set, eps_of) by sweeping every state and arc until a round
    adds nothing."""
    n = len(trans)
    E = {(p, p) for p in range(n)} | set(primitive_eps)
    eps_of = [{p} for p in range(n)]
    for p, q in E:
        eps_of[p].add(q)
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for x, qs in trans[p].items():
                for q1 in qs:
                    for q2 in list(eps_of[q1]):
                        for r in trans[q2].get(-x, ()):
                            if (p, r) not in E:
                                E.add((p, r))
                                eps_of[p].add(r)
                                changed = True
        for p in range(n):
            for q in list(eps_of[p]):
                for r in list(eps_of[q]):
                    if (p, r) not in E:
                        E.add((p, r))
                        eps_of[p].add(r)
                        changed = True
    return E, eps_of


def cored_by_rescan(aut):
    """The core by rescanning every live state until none has valence <= 1,
    renumbered from the base in breadth-first order."""
    alive = set(range(aut.n_states))
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            if s == 0:
                continue
            if sum(1 for t in aut.delta[s].values() if t in alive) <= 1:
                alive.remove(s)
                changed = True
    order = {0: 0}
    queue = [0]
    for v in queue:
        for letter in sorted(aut.delta[v], key=letter_key):
            t = aut.delta[v][letter]
            if t in alive and t not in order:
                order[t] = len(order)
                queue.append(t)
    delta = [dict() for _ in order]
    for v, row in enumerate(aut.delta):
        if v in order:
            for letter, t in row.items():
                if t in order:
                    delta[order[v]][letter] = order[t]
    return delta


def word_over(rank, max_len):
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    return st.lists(st.sampled_from(letters), max_size=max_len).map(lambda w: wreduce(w))


@st.composite
def coset_inputs(draw):
    rank = draw(st.sampled_from([1, 2]))
    F = FreeGroup(rank)
    H = F.subgroup(draw(st.lists(word_over(rank, 6), max_size=3)))
    K = F.subgroup(draw(st.lists(word_over(rank, 6), max_size=3)))
    g = draw(word_over(rank, 6))
    prefix = draw(word_over(rank, 3))
    suffix = draw(word_over(rank, 3))
    return F, H, g, K, prefix, suffix


@settings(max_examples=150, deadline=None)
@given(coset_inputs())
def test_saturation_matches_the_round_robin_fixpoint(inputs):
    _, H, g, K, prefix, suffix = inputs
    nfa = CosetNFA(H, g, K, prefix=prefix, suffix=suffix)
    E, eps_of = saturate_by_rounds(nfa.trans, nfa._primitive_eps)
    assert set(nfa.E) == E
    assert nfa.eps_of == eps_of
    # every recipe expands to a walk p -> r whose label reduces to nothing
    memo = {}
    for p, r in nfa.E:
        arcs = nfa._expand(p, r, memo)
        at = p
        for s, x, t in arcs:
            assert s == at
            if x is None:
                assert (s, t) in nfa._primitive_eps
            else:
                assert t in nfa.trans[s][x]
            at = t
        assert at == r
        assert wreduce(x for _, x, _ in arcs if x is not None) == ()


def test_layout_is_h_then_k_then_the_paths():
    F = FreeGroup(2)
    H, K = F.subgroup(["ab", "bba"]), F.subgroup(["bAb"])
    nfa = CosetNFA(H, (1, 2, 1), K, prefix=(2, 2), suffix=(-1,))
    nH, nK = H.aut.n_states, K.aut.n_states
    assert nfa.tags == ["H"] * nH + ["K"] * nK + ["g"] * 2 + ["p"] * 2 + ["s"]
    for s, row in enumerate(H.aut.delta):
        assert all(nfa.trans[s][x] >= {t} for x, t in row.items())
    for s, row in enumerate(K.aut.delta):
        assert all(nfa.trans[nH + s][x] >= {nH + t} for x, t in row.items())
    assert nfa.start == nH + nK + 2 and nfa.accepts == {len(nfa.trans) - 1}


def test_factor_of_a_long_cancellation():
    F = FreeGroup(1)
    H, T = F.subgroup([wpow((1,), 3000)]), F.trivial_subgroup()
    g, target = wpow((1,), -1500), wpow((1,), 1500)
    assert F.dc_eq(H, g, T, target)
    assert F.dc_factor(H, g, T, target) == (wpow((1,), 3000), ())


@st.composite
def folded_graphs(draw):
    """A folded graph on n states: per letter, a partial injection."""
    n = draw(st.integers(1, 9))
    delta = [dict() for _ in range(n)]
    for letter in (1, 2):
        targets = draw(st.permutations(range(n)))
        for s, t in enumerate(targets):
            if draw(st.booleans()):
                delta[s][letter] = t
                delta[t][-letter] = s
    return StallingsAutomaton(delta)


@settings(max_examples=300, deadline=None)
@given(folded_graphs())
def test_cored_matches_the_rescan(aut):
    assert aut.cored().delta == cored_by_rescan(aut)


def test_cored_prunes_hair():
    # base -a-> 1 with a b-loop at 1, and the hair 1 -a-> 2 -b-> 3
    delta = [{1: 1}, {-1: 0, 2: 1, -2: 1, 1: 2}, {-1: 1, 2: 3}, {-2: 2}]
    assert StallingsAutomaton(delta).cored().delta == [{1: 1}, {-1: 0, 2: 1, -2: 1}]


# ---------------------------------------------------------------------------
# double cosets against their construction
# ---------------------------------------------------------------------------

F2 = FreeGroup(2)


def kernel_word(w):
    """w followed by as many a's (0 to 2) as make its a-exponent sum 0 mod 3."""
    e = (w.count(1) - w.count(-1)) % 3
    return wreduce(w + (1,) * ((3 - e) % 3))


@st.composite
def kernel_cosets(draw):
    gens = st.lists(word_over(2, 5).map(kernel_word).filter(bool), min_size=1, max_size=3)
    H_words, K_words = draw(gens), draw(gens)
    g = draw(word_over(2, 5))

    def product(words):
        picks = draw(st.lists(st.tuples(st.sampled_from(words), st.booleans()), max_size=3))
        return wmul(*[w if keep else winv(w) for w, keep in picks])

    return H_words, g, K_words, product(H_words), product(K_words)


@settings(max_examples=120, deadline=None)
@given(kernel_cosets())
def test_dc_eq_and_dc_factor_against_the_construction(case):
    H_words, g, K_words, h, k = case
    H, K = F2.subgroup(H_words), F2.subgroup(K_words)
    member = wmul(h, g, k)
    outsider = wmul(h, g, (1,), k)
    assert F2.dc_eq(H, g, K, member)
    assert not F2.dc_eq(H, g, K, outsider)
    h2, k2 = F2.dc_factor(H, g, K, member)
    assert H.contains(h2) and K.contains(k2)
    assert wmul(h2, g, k2) == member


@settings(max_examples=80, deadline=None)
@given(coset_inputs(), st.data())
def test_power_pattern_against_direct_membership(inputs, data):
    F, H, g, K, prefix, suffix = inputs
    c = data.draw(word_over(F.rank, 4).filter(bool))
    nfa = CosetNFA(H, g, K, prefix=prefix, suffix=suffix)
    pattern = PowerPattern(nfa, c)
    for n in range(-30, 31):
        assert pattern.accepted(n) == nfa.member(wpow(c, n)), n
    # with K trivial, c^n lies in prefix.H.g.suffix iff
    # prefix^-1 c^n suffix^-1 g^-1 lies in H: a Stallings-graph check
    T = F.trivial_subgroup()
    pattern = PowerPattern(CosetNFA(H, g, T, prefix=prefix, suffix=suffix), c)
    for n in range(-30, 31):
        inside = H.contains(wmul(winv(prefix), wpow(c, n), winv(suffix), winv(g)))
        assert pattern.accepted(n) == inside, n
