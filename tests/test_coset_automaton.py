"""Oracle tests for the Benois coset automaton and the Stallings core.

The replaced algorithms are kept here as references: `CosetNFA._saturate`
against the round-robin fixpoint that re-swept every state and arc until a
full round added nothing; `CosetNFA` against the automaton that copied the
rows of H and K into a table of its own and kept every reflexive pair;
the core (the test-local `cored`, through `_core`) against the loop that
rescanned every live state until none had valence <= 1; and the numbering
of `FreeSubgroup` and of its intersections against a pipeline built from
the references alone: the naive fold of `test_backends_free`, the core by
rescanning, then the spanning tree, one breadth-first search each; the
generators of `read_in_lists` are drawn so that the fold reads them in far.
The double coset operations of `FreeGroup` are checked against their
construction: h g k is in H g K, and inside the kernel of F2 -> Z/3
(a-exponent sum mod 3) h g a k is not.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings, strategies as st

from gogroups.backends import FreeGroup
from gogroups.backends.free import StallingsAutomaton, _core, _numbered
from gogroups.backends.rational import CosetNFA, PowerPattern
from gogroups.words import letter_key, winv, wmul, wpow, wreduce

from test_backends_free import naive_fold


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


def cored(aut):
    """The core of aut (_core, base exempt), numbered by _numbered."""
    return StallingsAutomaton(_numbered(aut.delta, _core(aut.delta))[0])


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
    n = len(nfa.trans)
    E, eps_of = saturate_by_rounds(nfa.trans, nfa._primitive_eps)
    # reflexive pairs are implicit in the automaton
    assert all(p != r for p, r in nfa.E)
    assert set(nfa.E) | {(p, p) for p in range(n)} == E
    assert [nfa.closure({p}) for p in range(n)] == eps_of
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
    # H and K are read in place; only the paths are the automaton's own
    assert nfa.hd is H.aut.delta and nfa.kd is K.aut.delta
    assert nfa.path_tags == ["g"] * 2 + ["p"] * 2 + ["s"]
    assert len(nfa.trans) == nH + nK + 5
    for s, row in enumerate(H.aut.delta):
        assert all(nfa.trans[s][x] >= {t} for x, t in row.items())
    for s, row in enumerate(K.aut.delta):
        assert all(nfa.trans[nH + s][x] >= {nH + t} for x, t in row.items())
    g1, g2, p1, p2, s1 = range(nH + nK, nH + nK + 5)
    assert nfa.path_out == {0: (1, g1), g1: (2, g2), g2: (1, nH),
                            p1: (2, p2), p2: (2, 0), nH: (-1, s1)}
    assert nfa.path_in == {g1: (0, 1), g2: (g1, 2), nH: (g2, 1),
                           p2: (p1, 2), 0: (p2, 2), s1: (nH, -1)}
    assert nfa.start == p1 and nfa.accepts == {s1}


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
    assert cored(aut).delta == cored_by_rescan(aut)


def test_cored_prunes_hair():
    # base -a-> 1 with a b-loop at 1, and the hair 1 -a-> 2 -b-> 3
    delta = [{1: 1}, {-1: 0, 2: 1, -2: 1, 1: 2}, {-1: 1, 2: 3}, {-2: 2}]
    assert cored(StallingsAutomaton(delta)).delta == [{1: 1}, {-1: 0, 2: 1, -2: 1}]


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


# ---------------------------------------------------------------------------
# the in-place automaton against its full-layout predecessor
# ---------------------------------------------------------------------------


class FullLayoutNFA:
    """The coset automaton as it was built before it read H and K in place:
    their rows copied into a table of set-valued rows, H's at offset 0 and
    K's at nH, followed by the path states, and saturated from every
    reflexive pair."""

    def __init__(self, H, g, K, prefix=(), suffix=()):
        g = wreduce(g)
        nH = H.aut.n_states
        self.trans = trans = [{x: {t} for x, t in row.items()} for row in H.aut.delta]
        trans += [{x: {t + nH} for x, t in row.items()} for row in K.aut.delta]
        self.tags = tags = ["H"] * nH + ["K"] * K.aut.n_states
        hbase, kbase = 0, nH

        def new(tag):
            trans.append({})
            tags.append(tag)
            return len(trans) - 1

        def path(src, word, dst, tag):
            """Arcs spelling word from src to dst through new states tagged
            tag (the last one new too when dst is None); returns the end."""
            for i, x in enumerate(word):
                nxt = dst if dst is not None and i == len(word) - 1 else new(tag)
                trans[src].setdefault(x, set()).add(nxt)
                src = nxt
            return src

        self._primitive_eps = []
        if g:
            path(hbase, g, kbase, "g")
        else:
            self._primitive_eps.append((hbase, kbase))
        self.start = hbase
        if prefix:
            self.start = new("p")
            path(self.start, prefix, hbase, "p")
        self.accepts = {path(kbase, suffix, None, "s")}
        self._saturate()

    # --- saturation ---

    def _saturate(self):
        """Least set E of pairs (p, r) joined by a walk whose label freely
        reduces to the empty word, each with the recipe of one such walk.

        Worklist: every pair enters the FIFO queue once, when it joins E.
        Popping (a, b) fires the cancellation rule with (a, b) in the middle
        (p --x--> a, b --x^-1--> r gives (p, r)) and composes (a, b) with the
        pairs already in E on both sides.  A recipe names only pairs that are
        already in E, so the expansion of a pair is well founded.
        """
        trans = self.trans
        n = len(trans)
        into = [[] for _ in range(n)]      # a -> [(p, x)] with p --x--> a
        for p, row in enumerate(trans):
            for x, ts in row.items():
                for a in ts:
                    into[a].append((p, x))
        E = {}
        eps_of = [{p} for p in range(n)]
        eps_into = {}                      # r -> [p] with (p, r) in E, p != r
        queue = deque()
        for p in range(n):
            pair = (p, p)
            E[pair] = ("refl",)
            queue.append(pair)

        def add(p, r, recipe):
            pair = (p, r)
            if pair not in E:
                E[pair] = recipe
                eps_of[p].add(r)
                eps_into.setdefault(r, []).append(p)
                queue.append(pair)

        for p, q in self._primitive_eps:
            add(p, q, ("arc",))
        while queue:
            a, b = queue.popleft()
            for p, x in into[a]:
                for r in trans[b].get(-x, ()):
                    add(p, r, ("rule", x, a, b))
            if a != b:
                for p in eps_into.get(a, ()):
                    add(p, b, ("trans", a))
                for r in eps_of[b]:
                    add(a, r, ("trans", b))
        self.E = E
        self.eps_of = eps_of

    def closure(self, states):
        out = set()
        for s in states:
            out |= self.eps_of[s]
        return out

    def read(self, states, word):
        cur = self.closure(states)
        for x in word:
            nxt = set()
            for s in cur:
                nxt |= self.trans[s].get(x, set())
            cur = self.closure(nxt)
        return cur

    def member(self, word):
        """Membership of a freely reduced word in the recognized subset."""
        return bool(self.read({self.start}, wreduce(word)) & self.accepts)

    def shortest_reduced(self):
        """Shortest, then lexicographically least, accepted reduced word."""
        if self.eps_of[self.start] & self.accepts:
            return ()
        level = [((), s, 0) for s in sorted(self.eps_of[self.start])]
        visited = {(s, 0) for s in self.eps_of[self.start]}
        while level:
            nxt_level = []
            for word, s, last in level:
                letters = sorted(self.trans[s], key=letter_key)
                for x in letters:
                    if last and x == -last:
                        continue
                    for t0 in self.trans[s][x]:
                        for t in self.eps_of[t0]:
                            if (t, x) in visited:
                                continue
                            visited.add((t, x))
                            w = word + (x,)
                            if t in self.accepts:
                                return w
                            nxt_level.append((w, t, x))
            nxt_level.sort(key=lambda item: tuple(letter_key(x) for x in item[0]))
            level = nxt_level
        raise ValueError("empty rational set")

    # --- factor extraction ---

    def _expand(self, p, q, memo):
        """Arcs (s, letter or None, t) of a walk p -> q whose label freely
        reduces to the empty word, by the recipes of E; memo maps the pairs
        expanded so far to their arcs.  An explicit stack, since recipes
        nest as deep as the longest cancellation."""
        stack = [(p, q)]
        while stack:
            pair = stack[-1]
            if pair in memo:
                stack.pop()
                continue
            a, b = pair
            recipe = self.E[pair]
            kind = recipe[0]
            if kind == "rule":
                parts = (recipe[2:],)
            elif kind == "trans":
                parts = ((a, recipe[1]), (recipe[1], b))
            else:
                parts = ()
            todo = [part for part in parts if part not in memo]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if kind == "refl":
                memo[pair] = []
            elif kind == "arc":
                memo[pair] = [(a, None, b)]
            elif kind == "rule":
                _, x, q1, q2 = recipe
                memo[pair] = [(a, x, q1)] + memo[parts[0]] + [(q2, -x, b)]
            else:
                memo[pair] = memo[parts[0]] + memo[parts[1]]
        return memo[(p, q)]

    def factor(self, target):
        """(h, k) with target == h * g * k (reduced words); target must belong."""
        target = wreduce(target)
        n = len(target)
        start_key = (self.start, 0)
        prev = {start_key: None}
        queue = [start_key]
        goal = None
        qi = 0
        while qi < len(queue):
            s, pos = queue[qi]
            qi += 1
            if pos == n and s in self.accepts:
                goal = (s, pos)
                break
            # epsilon moves
            for t in self.eps_of[s]:
                key = (t, pos)
                if key not in prev:
                    prev[key] = ((s, pos), ("eps", s, t))
                    queue.append(key)
            if pos < n:
                x = target[pos]
                for t in self.trans[s].get(x, ()):
                    key = (t, pos + 1)
                    if key not in prev:
                        prev[key] = ((s, pos), ("letter", s, x, t))
                        queue.append(key)
        if goal is None:
            raise ValueError("target not in the rational set")
        moves = []
        key = goal
        while prev[key] is not None:
            key, move = prev[key]
            moves.append(move)
        moves.reverse()
        memo = {}
        arcs = []
        for move in moves:
            if move[0] == "letter":
                _, s, x, t = move
                arcs.append((s, x, t))
            else:
                _, s, t = move
                arcs.extend(self._expand(s, t, memo))
        h_letters = []
        k_letters = []
        phase = 0  # 0 = in H, 1 = crossing g, 2 = in K
        for s, x, t in arcs:
            ts = self.tags[t]
            if phase == 0:
                if ts == "H":
                    if x is not None:
                        h_letters.append(x)
                else:
                    phase = 1 if ts == "g" else 2
            elif phase == 1:
                if ts == "K":
                    phase = 2
            else:
                if x is not None:
                    k_letters.append(x)
        return wreduce(h_letters), wreduce(k_letters)


@settings(max_examples=150, deadline=None)
@given(coset_inputs(), st.data())
def test_in_place_automaton_matches_the_full_layout(inputs, data):
    F, H, g, K, prefix, suffix = inputs
    # paths that turn back on themselves fire the rule inside a path
    letters = st.sampled_from([x for i in range(1, F.rank + 1) for x in (i, -i)])
    prefix += tuple(data.draw(st.lists(letters, max_size=3)))
    suffix = tuple(data.draw(st.lists(letters, max_size=3))) + suffix
    nfa = CosetNFA(H, g, K, prefix=prefix, suffix=suffix)
    ref = FullLayoutNFA(H, g, K, prefix=prefix, suffix=suffix)
    assert nfa.shortest_reduced() == ref.shortest_reduced()

    def product(S):
        picks = data.draw(st.lists(st.tuples(st.sampled_from(S.gens), st.booleans()), max_size=3)
                          if S.gens else st.just([]))
        return wmul(*[w if keep else winv(w) for w, keep in picks])

    h, k = product(H), product(K)
    member = wmul(prefix, h, g, k, suffix)
    words = [member, wmul(member, (1,))] + data.draw(st.lists(word_over(F.rank, 8), max_size=6))
    for w in words:
        assert nfa.member(w) == ref.member(w)
    assert nfa.member(member)
    c = data.draw(word_over(F.rank, 4).filter(bool))
    pattern, ref_pattern = PowerPattern(nfa, c), PowerPattern(ref, c)
    assert pattern.sides == ref_pattern.sides
    assert pattern.zero_accepted == ref_pattern.zero_accepted
    # factor reads the automaton without prefix or suffix
    nfa = CosetNFA(H, g, K)
    target = wmul(h, g, k)
    h2, k2 = nfa.factor(target)
    assert H.contains(h2) and K.contains(k2)
    assert wmul(h2, g, k2) == target


# ---------------------------------------------------------------------------
# one breadth-first search per subgroup against the three passes
# ---------------------------------------------------------------------------


def three_pass_numbering(delta):
    """(delta, gens, tree_word, crossing) of the folded graph with rows
    delta as the separate passes gave them: core and renumber by
    rescanning, then a spanning tree by a breadth-first search that sorted
    each row, its non-tree arcs in state then letter order."""
    delta = cored_by_rescan(StallingsAutomaton(delta))
    order, tree = [0], {0: None}
    for v in order:
        for x in sorted(delta[v], key=letter_key):
            if delta[v][x] not in tree:
                tree[delta[v][x]] = (v, x)
                order.append(delta[v][x])
    tree_word = {0: ()}
    for t in order[1:]:
        v, x = tree[t]
        tree_word[t] = tree_word[v] + (x,)
    nontree = []
    for v in range(len(delta)):
        for x in sorted(delta[v], key=letter_key):
            t = delta[v][x]
            if x > 0 and tree.get(t) != (v, x) and tree.get(v) != (t, -x):
                nontree.append((v, x, t))
    basis = tuple(wmul(tree_word[v], (x,), winv(tree_word[t])) for v, x, t in nontree)
    crossing = {}
    for i, (v, x, t) in enumerate(nontree):
        crossing[(v, x)] = (i, 1)
        crossing[(t, -x)] = (i, -1)
    return delta, basis, tree_word, crossing


def three_pass_subgroup(gens):
    """three_pass_numbering of the naive fold of gens."""
    return three_pass_numbering(naive_fold(gens))


def product_rows(d1, d2):
    """The rows of the product of two folded graphs, over the pairs
    reachable from the pair of base states, numbered as first reached."""
    index, rows = {(0, 0): 0}, [{}]
    queue = [(0, 0)]
    for a, b in queue:
        row = rows[index[a, b]]
        for x, ta in d1[a].items():
            tb = d2[b].get(x)
            if tb is None:
                continue
            if (ta, tb) not in index:
                index[ta, tb] = len(rows)
                rows.append({})
                queue.append((ta, tb))
            row[x] = index[ta, tb]
    return rows


def numbering(S):
    return S.aut.delta, S.gens, S.tree_word, S.crossing


@st.composite
def generator_lists(draw):
    """A rank from 1 to 3 and up to four generators, some of them proper
    powers."""
    rank = draw(st.integers(1, 3))
    word = word_over(rank, 6)
    gen = st.one_of(word, st.tuples(word, st.integers(2, 3)).map(lambda wk: wpow(*wk)))
    return rank, draw(st.lists(gen, max_size=4))


@settings(max_examples=300, deadline=None)
@given(generator_lists())
def test_one_bfs_numbering_matches_the_three_passes(case):
    rank, gens = case
    assert numbering(FreeGroup(rank).subgroup(gens)) == three_pass_subgroup(gens)


# ---------------------------------------------------------------------------
# generators that read in far: the cases of the fold's two reads
# ---------------------------------------------------------------------------


@st.composite
def read_in_lists(draw):
    """A rank from 1 to 3, up to 12 generators and a second list sharing
    some of them.  A generator has up to 24 letters (a product of two
    earlier ones up to 48) and is drawn so that the fold's reads go far:
    a prefix and a suffix of earlier generators around a new middle; x u
    x^-1; a product of earlier generators (already in the subgroup); a
    prefix of an earlier one (read in whole, ending off the base, unless
    it ends at the base); an earlier one repeated, or the empty word; a
    word with x x^-1 inserted (unreduced); a proper power; or a fresh
    word."""
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from([x for a in range(1, rank + 1) for x in (a, -a)])
    short, fresh = word_over(rank, 8), word_over(rank, 24)
    gens = []
    for _ in range(draw(st.integers(0, 12))):
        earlier = st.sampled_from(gens) if gens else st.just(())
        kind = draw(st.sampled_from(["shared", "conjugate", "member", "prefix", "repeat",
                                     "unreduced", "power", "fresh"]))
        if kind == "shared":
            a, b = draw(earlier), draw(earlier)
            i, j = draw(st.integers(0, min(8, len(a)))), draw(st.integers(0, min(8, len(b))))
            w = a[:i] + draw(short) + b[len(b) - j:]
        elif kind == "conjugate":
            x = draw(short)
            w = x + draw(short) + winv(x)
        elif kind == "member":
            a, b = draw(earlier), draw(earlier)
            w = wmul(a, winv(b) if draw(st.booleans()) else b)
        elif kind == "prefix":
            a = draw(earlier)
            w = a[:draw(st.integers(0, len(a)))]
        elif kind == "repeat":
            w = draw(st.one_of(st.just(()), earlier))
        elif kind == "unreduced":
            a, x = draw(st.one_of(earlier, short)), draw(letters)
            i = draw(st.integers(0, len(a)))
            w = a[:i] + (x, -x) + a[i:]
        elif kind == "power":
            w = wpow(draw(short), draw(st.integers(2, 3)))
        else:
            w = draw(fresh)
        gens.append(w)
    keep = draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    others = [g for g, k in zip(gens, keep) if k] + draw(st.lists(short, max_size=3))
    return rank, gens, others


def evaluate(gens, letters):
    """The product of gens over signed 1-based letters."""
    return wmul(*[gens[s - 1] if s > 0 else winv(gens[-s - 1]) for s in letters])


@settings(max_examples=150, deadline=None)
@given(read_in_lists())
def test_read_in_subgroups_and_meets_match_the_references(case):
    rank, gens, others = case
    F = FreeGroup(rank)
    H, K = F.subgroup(gens), F.subgroup(others)
    assert numbering(H) == three_pass_subgroup(gens)
    assert numbering(K) == three_pass_subgroup(others)
    meet = three_pass_numbering(product_rows(naive_fold(gens), naive_fold(others)))
    assert numbering(H.intersect(K)) == meet


@settings(max_examples=150, deadline=None)
@given(read_in_lists(), st.data())
def test_read_in_express(case, data):
    """express multiplies back over a dependent list, and over a free
    basis it returns the one reduced word."""
    rank, gens, _ = case
    F = FreeGroup(rank)
    word = data.draw(word_over(len(gens), 8)) if gens else ()
    expr = F.express(evaluate(gens, word), gens)
    assert expr is not None
    assert evaluate(gens, [(i + 1) * e for i, e in expr]) == evaluate(gens, word)
    basis = list(F.subgroup(gens).gens)
    word = data.draw(word_over(len(basis), 8)) if basis else ()
    assert F.express(evaluate(basis, word), basis) == [(abs(s) - 1, 1 if s > 0 else -1)
                                                       for s in word]
