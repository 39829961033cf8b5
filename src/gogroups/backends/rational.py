"""Rational subsets of free groups in reduced normal form.

A double coset H g K (H, K finitely generated) is recognized by the NFA
obtained by chaining the Stallings graph of H, a path spelling g, and the
Stallings graph of K, then saturating with epsilon transitions: whenever
p --x--> q ==eps==> q' --x^-1--> r, an epsilon arc p ==> r is added (with a
witness recording the cancelled sub-walk).  After saturation the reduced
words accepted are exactly the freely reduced forms of the elements of HgK,
so membership, emptiness, shortest-witness extraction and factor extraction
(target = h g k) are all effective.
"""

from __future__ import annotations

from math import lcm

from ..words import wreduce, winv, cyc_reduce, letter_key


class CosetNFA:
    def __init__(self, H, g, K, prefix=(), suffix=()):
        g = wreduce(g)
        self._ids = {}
        self.tags = []
        self.trans = []
        self.accepts = set()

        def node(tag, payload):
            key = (tag, payload)
            if key not in self._ids:
                self._ids[key] = len(self.tags)
                self.tags.append(tag)
                self.trans.append({})
            return self._ids[key]

        def arc(a, x, b):
            self.trans[a].setdefault(x, set()).add(b)

        hbase = node("H", 0)
        for s in range(H.aut.n_states):
            for letter, t in H.aut.delta[s].items():
                arc(node("H", s), letter, node("H", t))
        kbase = node("K", 0)
        for s in range(K.aut.n_states):
            for letter, t in K.aut.delta[s].items():
                arc(node("K", s), letter, node("K", t))

        self._primitive_eps = []
        if g:
            prev = hbase
            for i, x in enumerate(g):
                nxt = kbase if i == len(g) - 1 else node("g", i + 1)
                arc(prev, x, nxt)
                prev = nxt
        else:
            self._primitive_eps.append((hbase, kbase))

        self.start = hbase
        if prefix:
            prev = node("p", 0)
            self.start = prev
            for i, x in enumerate(prefix):
                nxt = hbase if i == len(prefix) - 1 else node("p", i + 1)
                arc(prev, x, nxt)
                prev = nxt
        end = kbase
        if suffix:
            prev = kbase
            for i, x in enumerate(suffix):
                nxt = node("s", i + 1)
                arc(prev, x, nxt)
                prev = nxt
            end = prev
        self.accepts = {end}
        self._saturate()

    # --- saturation ---

    def _saturate(self):
        n = len(self.trans)
        E = {}
        for p in range(n):
            E[(p, p)] = ("refl",)
        for p, q in self._primitive_eps:
            if (p, q) not in E:
                E[(p, q)] = ("arc",)
        eps_of = [set([p]) for p in range(n)]
        for (p, q) in E:
            eps_of[p].add(q)

        changed = True
        while changed:
            changed = False
            for p in range(n):
                for x, qs in list(self.trans[p].items()):
                    for q1 in list(qs):
                        for q2 in list(eps_of[q1]):
                            for r in self.trans[q2].get(-x, ()):
                                if (p, r) not in E:
                                    E[(p, r)] = ("rule", x, q1, q2)
                                    eps_of[p].add(r)
                                    changed = True
            for p in range(n):
                for q in list(eps_of[p]):
                    for r in list(eps_of[q]):
                        if (p, r) not in E:
                            E[(p, r)] = ("trans", q)
                            eps_of[p].add(r)
                            changed = True
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
        if (p, q) in memo:
            return memo[(p, q)]
        recipe = self.E[(p, q)]
        if recipe[0] == "refl":
            arcs = []
        elif recipe[0] == "arc":
            arcs = [(p, None, q)]
        elif recipe[0] == "rule":
            _, x, q1, q2 = recipe
            arcs = [(p, x, q1)] + self._expand(q1, q2, memo) + [(q2, -x, q)]
        else:
            _, mid = recipe
            arcs = self._expand(p, mid, memo) + self._expand(mid, q, memo)
        memo[(p, q)] = arcs
        return arcs

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
