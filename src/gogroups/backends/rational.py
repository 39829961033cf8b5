"""Rational subsets of free groups in reduced normal form.

A double coset H g K (H, K finitely generated) is recognized by the NFA
obtained by chaining the Stallings graph of H, a path spelling g, and the
Stallings graph of K, then saturating with epsilon transitions: whenever
p --x--> q ==eps==> q' --x^-1--> r, an epsilon arc p ==> r is added (with a
witness recording the cancelled sub-walk).  After saturation the reduced
words accepted are exactly the freely reduced forms of the elements of HgK,
so membership, emptiness, shortest-witness extraction and factor extraction
(target = h g k) are all effective.

The NFA is laid out directly: H's states are 0..nH-1 and K's are
nH..nH+nK-1 (their Stallings rows copied with an offset), followed by the
inner states of the paths spelling g, the prefix and the suffix.
Saturation is a worklist over epsilon pairs: each pair (a, b) is popped
once, fires the cancellation rule with itself in the middle (through a
reverse-arc index) and is composed with the pairs already found on both
sides.  The work is proportional to the pairs found times the arcs and
pairs met at their ends, not to a full sweep per round.
"""

from __future__ import annotations

from collections import deque
from math import lcm

from ..words import wreduce, winv, cyc_reduce, letter_key


class CosetNFA:
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


def coset_nfa(H, g, K, prefix=(), suffix=()):
    return CosetNFA(H, g, K, prefix=prefix, suffix=suffix)


class PowerPattern:
    """Exact description of { n in Z : red(c^n) is accepted by the NFA }.

    The subset-state sequence after reading u c0^m (c = u c0 u^-1 cyclically
    reduced) is eventually periodic, so acceptance is decided for every n.
    """

    def __init__(self, nfa, c):
        c = wreduce(c)
        if not c:
            raise ValueError("empty word")
        self.nfa = nfa
        u, core = cyc_reduce(c)
        self.zero_accepted = bool(nfa.eps_of[nfa.start] & nfa.accepts)
        self.sides = {}
        for sign, cw in ((1, core), (-1, winv(core))):
            seqs = []
            idx = {}
            cur = frozenset(nfa.read({nfa.start}, u))
            while cur not in idx:
                idx[cur] = len(seqs)
                seqs.append(cur)
                cur = frozenset(nfa.read(cur, cw))
            rho = idx[cur]
            pi = len(seqs) - rho
            tail = winv(u)
            acc = [bool(nfa.read(T, tail) & nfa.accepts) for T in seqs]
            self.sides[sign] = (rho, pi, acc)

    def accepted(self, n):
        if n == 0:
            return self.zero_accepted
        rho, pi, acc = self.sides[1 if n > 0 else -1]
        m = abs(n)
        if m < len(acc):
            return acc[m]
        return acc[rho + (m - rho) % pi]

    def infinite(self):
        # any accepting position of the cycle is hit by arbitrarily large n
        for sign in (1, -1):
            rho, pi, acc = self.sides[sign]
            for m in range(rho, rho + pi):
                if acc[m]:
                    return True
        return False

    def finite_solutions(self):
        if self.infinite():
            raise ValueError("solution set is infinite")
        out = [0] if self.zero_accepted else []
        for sign in (1, -1):
            rho, pi, acc = self.sides[sign]
            # no accepts in the periodic window, so all solutions sit below rho
            for m in range(1, rho):
                if acc[m]:
                    out.append(sign * m)
        return sorted(out, key=lambda n: (abs(n), -n))

    def solutions_mod(self, d):
        """d > 0: map residue -> representative n (min |n|, nonneg preferred)
        over solutions; residues without solutions are absent."""
        rho1, pi1, _ = self.sides[1]
        rho2, pi2, _ = self.sides[-1]
        bound = max(rho1, rho2, 1) + lcm(pi1, pi2, d) + d + 1
        out = {}
        order = [0]
        for m in range(1, bound + 1):
            order.extend((m, -m))
        for n in order:
            if self.accepted(n):
                r = n % d
                if r not in out:
                    out[r] = n
        return out
