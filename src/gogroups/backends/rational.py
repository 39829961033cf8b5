"""Rational subsets of free groups in reduced normal form.

A double coset H g K (H, K finitely generated) is recognized by the NFA
obtained by chaining the Stallings graph of H, a path spelling g, and the
Stallings graph of K, then saturating with epsilon transitions: whenever
p --x--> q ==eps==> q' --x^-1--> r, an epsilon arc p ==> r is added (with a
witness recording the cancelled sub-walk).  After saturation the reduced
words accepted are exactly the freely reduced forms of the elements of HgK,
so membership, emptiness, shortest-witness extraction and factor extraction
(target = h g k) are all effective.

The NFA reads the Stallings rows of H and K in place: H's states are
0..nH-1 and K's are nH..nH+nK-1 (K's row s - nH, its targets shifted by
nH), followed by the states of the paths spelling g, the prefix and the
suffix.  Only the path arcs are the NFA's own, and every state has at most
one of them out and one in.  The paths meet H and K at the seams, the two
base states.  Reflexive epsilon pairs are implicit, so E holds the pairs
p != r.  Saturation is a worklist over those pairs: each pair (a, b) is
popped once, fires the cancellation rule with itself in the middle and is
composed with the pairs already found on both sides.  A build costs the
path lengths plus the pairs found times the arcs and pairs met at their
ends, not the size of H and K.
"""

from __future__ import annotations

from collections import deque
from math import lcm

from ..words import wreduce, winv, cyc_reduce, letter_key

_REFL = ("refl",)


class CosetNFA:
    def __init__(self, H, g, K, prefix=(), suffix=()):
        g = wreduce(g)
        self.hd, self.kd = H.aut.delta, K.aut.delta
        self.nh = nh = H.aut.n_states
        self.nhk = nhk = nh + K.aut.n_states
        self.path_tags = tags = []        # tag of state nhk + i: "g", "p" or "s"
        self.path_out = path_out = {}     # state -> (letter, target) of its path arc out
        self.path_in = path_in = {}       # state -> (source, letter) of its path arc in

        def new(tag):
            tags.append(tag)
            return nhk + len(tags) - 1

        def path(src, word, dst, tag):
            """Arcs spelling word from src to dst through new states tagged
            tag (the last one new too when dst is None); returns the end."""
            for i, x in enumerate(word):
                nxt = dst if dst is not None and i == len(word) - 1 else new(tag)
                path_out[src] = (x, nxt)
                path_in[nxt] = (src, x)
                src = nxt
            return src

        self._primitive_eps = []
        if g:
            path(0, g, nh, "g")
        else:
            self._primitive_eps.append((0, nh))
        self.start = 0
        if prefix:
            self.start = new("p")
            path(self.start, prefix, 0, "p")
        self.accepts = {path(nh, suffix, None, "s")}
        self._saturate()

    @property
    def n_states(self):
        return self.nhk + len(self.path_tags)

    @property
    def trans(self):
        """The arcs as a read-only flat table, state -> {letter: targets}."""
        return _ArcTable(self)

    # --- saturation ---

    def _saturate(self):
        """Least set E of pairs (p, r), p != r, joined by a walk whose label
        freely reduces to the empty word, each with the recipe of one such
        walk.

        A Stallings row is deterministic and stores every arc at both ends,
        so off the seams and the paths p --x--> a --x^-1--> r forces p = r;
        a path state has one arc in and one out.  So the rule with a
        reflexive middle is fired only at the two base states and at the
        path states where a path turns back on itself.  Then every pair
        enters the FIFO queue once, when it joins E.  Popping (a, b) fires the cancellation rule
        with (a, b) in the middle (p --x--> a, b --x^-1--> r gives (p, r))
        and composes (a, b) with the pairs already in E on both sides.  A
        recipe names only pairs that are reflexive or already in E, so the
        expansion of a pair is well founded.
        """
        hd, kd, nh, nhk = self.hd, self.kd, self.nh, self.nhk
        path_out, path_in = self.path_out, self.path_in
        E = {}
        eps_of = {}                        # p -> {p} | {r : (p, r) in E}, for the p in a pair
        eps_into = {}                      # r -> [p] with (p, r) in E
        queue = deque()

        def add(p, r, recipe):
            pair = (p, r)
            if p != r and pair not in E:
                E[pair] = recipe
                rs = eps_of.get(p)
                if rs is None:
                    eps_of[p] = {p, r}
                else:
                    rs.add(r)
                eps_into.setdefault(r, []).append(p)
                queue.append(pair)

        def fire(a, b):
            # the arcs (p, x) into a, by source and then the source's row
            # order: the rows of a's Stallings neighbours, and a's path arc
            if a < nh:
                ins = [(p, x) for p in sorted(set(hd[a].values()))
                       for x, t in hd[p].items() if t == a]
            elif a < nhk:
                ins = [(p + nh, x) for p in sorted(set(kd[a - nh].values()))
                       for x, t in kd[p].items() if t == a - nh]
            else:
                ins = []
            arc = path_in.get(a)
            if arc is not None:
                # from a path state (after every Stallings state), or from
                # H's base into K's base (before every K state)
                ins.insert(len(ins) if arc[0] >= nhk else 0, arc)
            row = hd[b] if b < nh else kd[b - nh] if b < nhk else None
            shift = nh if nh <= b < nhk else 0
            out = path_out.get(b)
            for p, x in ins:
                rs = ()
                if row is not None:
                    r = row.get(-x)
                    if r is not None:
                        rs = (r + shift,)
                if out is not None and out[0] == -x:
                    rs = {*rs, out[1]}
                for r in rs:
                    add(p, r, ("rule", x, a, b))

        for p, q in self._primitive_eps:
            add(p, q, ("arc",))
        fire(0, 0)
        fire(nh, nh)
        for a in range(nhk, self.n_states):
            if a in path_in and a in path_out and path_in[a][1] == -path_out[a][0]:
                fire(a, a)
        while queue:
            a, b = queue.popleft()
            fire(a, b)
            for p in eps_into.get(a, ()):
                add(p, b, ("trans", a))
            for r in eps_of.get(b, ()):
                add(a, r, ("trans", b))
        self.E = E
        self.eps_of = eps_of

    def closure(self, states):
        out = set(states)
        eps_of = self.eps_of
        for s in states:
            rs = eps_of.get(s)
            if rs is not None:
                out |= rs
        return out

    def read(self, states, word):
        hd, kd, nh, nhk, path_out = self.hd, self.kd, self.nh, self.nhk, self.path_out
        cur = self.closure(states)
        for x in word:
            nxt = set()
            for s in cur:
                if s < nh:
                    t = hd[s].get(x)
                    if t is not None:
                        nxt.add(t)
                elif s < nhk:
                    t = kd[s - nh].get(x)
                    if t is not None:
                        nxt.add(t + nh)
                arc = path_out.get(s)
                if arc is not None and arc[0] == x:
                    nxt.add(arc[1])
            cur = self.closure(nxt)
        return cur

    def member(self, word):
        """Membership of a freely reduced word in the recognized subset."""
        return bool(self.read({self.start}, wreduce(word)) & self.accepts)

    def shortest_reduced(self):
        """Shortest, then lexicographically least, accepted reduced word."""
        eps_of, trans = self.eps_of, self.trans
        start = self.closure({self.start})
        if start & self.accepts:
            return ()
        level = [((), s, 0) for s in sorted(start)]
        visited = {(s, 0) for s in start}
        while level:
            nxt_level = []
            for word, s, last in level:
                row = trans[s]
                for x in sorted(row, key=letter_key):
                    if last and x == -last:
                        continue
                    for t0 in row[x]:
                        for t in eps_of.get(t0) or (t0,):
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
            recipe = self.E.get(pair, _REFL)
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
        eps_of, trans = self.eps_of, self.trans
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
            for t in eps_of.get(s, ()):
                key = (t, pos)
                if key not in prev:
                    prev[key] = ((s, pos), ("eps", s, t))
                    queue.append(key)
            if pos < n:
                x = target[pos]
                for t in trans[s].get(x, ()):
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
        nh, nhk, tags = self.nh, self.nhk, self.path_tags
        h_letters = []
        k_letters = []
        phase = 0  # 0 = in H, 1 = crossing g, 2 = in K
        for s, x, t in arcs:
            ts = "H" if t < nh else "K" if t < nhk else tags[t - nhk]
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


class _ArcTable:
    """The arcs of a CosetNFA as a read-only flat table: row s maps each
    letter to the set of targets, built on demand from the Stallings row or
    the path arc of s."""

    def __init__(self, nfa):
        self.nfa = nfa

    def __len__(self):
        return self.nfa.n_states

    def __getitem__(self, s):
        nfa = self.nfa
        if not 0 <= s < nfa.n_states:
            raise IndexError(s)
        if s < nfa.nh:
            row = {x: {t} for x, t in nfa.hd[s].items()}
        elif s < nfa.nhk:
            row = {x: {t + nfa.nh} for x, t in nfa.kd[s - nfa.nh].items()}
        else:
            row = {}
        arc = nfa.path_out.get(s)
        if arc is not None:
            row.setdefault(arc[0], set()).add(arc[1])
        return row


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
        self.zero_accepted = bool(nfa.closure({nfa.start}) & nfa.accepts)
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
