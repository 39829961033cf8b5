"""Free groups: words, Stallings automata, folding with expression tracking.

The automaton of a finitely generated subgroup is folded and cored; the
handle's generator list is always the spanning-tree basis extracted from it
(deterministic), so expressing elements over the generators is a plain trace.

Constructive membership over an *arbitrary* generating set (needed to invert
monomorphisms) uses folding with edge annotations: each edge carries a word
over the input generators, patched at every merge so that the annotations
along any surviving closed walk multiply to a preimage of the walk's label.
"""

from __future__ import annotations

from ..words import (wreduce, wmul, winv, wpow, cyc_reduce, primitive_root,
                     format_word, parse_word, word_key, letter_key)
from .base import evaluate_word
from .rational import CosetNFA


class _Folder:
    def __init__(self):
        self.parent = []
        self.adj = []          # vertex -> list of edge ids
        self.edges = []        # [src, dst, letter>0, ann, alive]
        self.base = self.new_vertex()

    def new_vertex(self):
        v = len(self.parent)
        self.parent.append(v)
        self.adj.append([])
        return v

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def add_edge(self, s, d, letter, ann=()):
        eid = len(self.edges)
        if letter < 0:
            s, d, letter, ann = d, s, -letter, winv(ann)
        self.edges.append([s, d, letter, ann, True])
        self.adj[s].append(eid)
        self.adj[d].append(eid)
        return eid

    def add_word(self, w, ann):
        """Petal at base spelling w; the last edge carries the annotation."""
        if not w:
            return
        cur = self.base
        for i, x in enumerate(w):
            last = i == len(w) - 1
            nxt = self.base if last else self.new_vertex()
            self.add_edge(cur, nxt, x, ann if last else ())
            cur = nxt

    def _halves(self, v):
        """Signed-letter halves at v: letter -> list of (edge_id, far, ann)."""
        out = {}
        seen = set()
        for eid in self.adj[v]:
            if eid in seen:
                continue
            seen.add(eid)
            s, d, letter, ann, alive = self.edges[eid]
            if not alive:
                continue
            fs, fd = self.find(s), self.find(d)
            if fs == v:
                out.setdefault(letter, []).append((eid, fd, ann))
            if fd == v:
                out.setdefault(-letter, []).append((eid, fs, winv(ann)))
        return out

    def fold(self):
        stack = list(range(len(self.parent)))
        while stack:
            v = self.find(stack.pop())
            halves = self._halves(v)
            for letter, entries in halves.items():
                if len(entries) < 2:
                    continue
                (e1, q1, a1), (e2, q2, a2) = entries[0], entries[1]
                if q1 == q2:
                    self.edges[e2][4] = False
                    stack.append(v)
                    break
                # survivor: base wins, then the smaller id
                if q2 == self.base or (q1 != self.base and q2 < q1):
                    e1, q1, a1, e2, q2, a2 = e2, q2, a2, e1, q1, a1
                c = wmul(winv(a1), a2)
                self.edges[e2][4] = False
                for eid in set(self.adj[q2]):
                    s, d, lt, ann, alive = self.edges[eid]
                    if not alive:
                        continue
                    if self.find(s) == q2:
                        ann = wmul(c, ann)
                    if self.find(d) == q2:
                        ann = wmul(ann, winv(c))
                    self.edges[eid][3] = ann
                self.parent[q2] = q1
                self.adj[q1].extend(self.adj[q2])
                self.adj[q2] = []
                stack.append(q1)
                stack.append(v)
                break

    def compact(self, annotate=False):
        order = {self.find(self.base): 0}
        queue = [self.find(self.base)]
        delta_raw = {}
        for eid, (s, d, letter, ann, alive) in enumerate(self.edges):
            if not alive:
                continue
            fs, fd = self.find(s), self.find(d)
            delta_raw.setdefault(fs, {})[letter] = (fd, ann)
            delta_raw.setdefault(fd, {})[-letter] = (fs, winv(ann))
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            for letter in sorted(delta_raw.get(v, {}), key=letter_key):
                t, _ = delta_raw[v][letter]
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
        n = len(order)
        delta = [dict() for _ in range(n)]
        ann_map = {} if annotate else None
        for v, row in delta_raw.items():
            if v not in order:
                continue
            for letter, (t, ann) in row.items():
                delta[order[v]][letter] = order[t]
                if annotate:
                    ann_map[(order[v], letter)] = ann
        return StallingsAutomaton(delta, ann=ann_map)


class StallingsAutomaton:
    """Folded pointed labeled graph; base state 0."""

    def __init__(self, delta, ann=None):
        self.delta = delta
        self.ann = ann

    @classmethod
    def from_words(cls, gen_words, annotate=False):
        f = _Folder()
        for i, w in enumerate(gen_words):
            f.add_word(wreduce(w), (i + 1,) if annotate else ())
        f.fold()
        return f.compact(annotate=annotate)

    @property
    def n_states(self):
        return len(self.delta)

    def step(self, state, letter):
        return self.delta[state].get(letter)

    def trace(self, word, start=0):
        s = start
        for x in word:
            s = self.delta[s].get(x)
            if s is None:
                return None
        return s

    def trace_ann(self, word, start=0):
        """(final state, annotation product) or None."""
        s = start
        acc = ()
        for x in word:
            t = self.delta[s].get(x)
            if t is None:
                return None
            acc = wmul(acc, self.ann[(s, x)])
            s = t
        return s, acc

    def accepts(self, word):
        return self.trace(wreduce(word)) == 0

    def cored(self):
        """Remove valence<=1 states (base exempt); renumber from the base.

        Leaf pruning: a worklist holds the states whose valence among live
        states has dropped to <= 1; removing one lowers the valence of its
        neighbours.  The core is unique, so the order of removal does not
        matter."""
        n = self.n_states
        deg = [len(row) for row in self.delta]
        alive = [True] * n
        queue = [s for s in range(1, n) if deg[s] <= 1]
        while queue:
            s = queue.pop()
            if not alive[s]:
                continue
            alive[s] = False
            for t in self.delta[s].values():
                if alive[t]:
                    deg[t] -= 1
                    if t and deg[t] == 1:
                        queue.append(t)
        order = {0: 0}
        queue = [0]
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            for letter in sorted(self.delta[v], key=letter_key):
                t = self.delta[v][letter]
                if alive[t] and t not in order:
                    order[t] = len(order)
                    queue.append(t)
        delta = [dict() for _ in range(len(order))]
        for v, row in enumerate(self.delta):
            if v not in order:
                continue
            for letter, t in row.items():
                if t in order:
                    delta[order[v]][letter] = order[t]
        return StallingsAutomaton(delta)

    def spanning(self):
        """BFS spanning tree: (tree_word per state, nontree positive triples)."""
        tree_word = {0: ()}
        queue = [0]
        tree_edges = set()
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            for letter in sorted(self.delta[v], key=letter_key):
                t = self.delta[v][letter]
                if t not in tree_word:
                    tree_word[t] = wmul(tree_word[v], (letter,))
                    tree_edges.add((v, letter, t))
                    tree_edges.add((t, -letter, v))
                    queue.append(t)
        nontree = []
        for v in range(self.n_states):
            for letter, t in sorted(self.delta[v].items(), key=lambda kv: letter_key(kv[0])):
                if letter > 0 and (v, letter, t) not in tree_edges:
                    nontree.append((v, letter, t))
        return tree_word, nontree

    def basis(self):
        tree_word, nontree = self.spanning()
        out = []
        for v, letter, t in nontree:
            out.append(wmul(tree_word[v], (letter,), winv(tree_word[t])))
        return out

    def rank(self):
        edges = sum(len(row) for row in self.delta) // 2
        return edges - self.n_states + 1

    def complete(self, rank_letters):
        return all(len(row) == 2 * rank_letters for row in self.delta)

    def decompose_over_basis(self, word):
        """Non-tree edge crossings along the trace, as (index, +-1) pairs."""
        tree_word, nontree = self.spanning()
        pos = {}
        for i, (v, letter, t) in enumerate(nontree):
            pos[(v, letter, t)] = i + 1
            pos[(t, -letter, v)] = -(i + 1)
        s = 0
        out = []
        for x in wreduce(word):
            t = self.delta[s].get(x)
            if t is None:
                raise ValueError("word not in subgroup")
            key = (s, x, t)
            if key in pos:
                sgn = pos[key]
                out.append((abs(sgn) - 1, 1 if sgn > 0 else -1))
            s = t
        if s != 0:
            raise ValueError("word not in subgroup")
        return out


class FreeSubgroup:
    __slots__ = ("group", "aut", "gens")

    def __init__(self, group, aut):
        self.group = group
        self.aut = aut.cored()
        self.gens = tuple(self.aut.basis())

    def __repr__(self):
        return f"FreeSubgroup(rank={len(self.gens)}, gens={[format_word(g) for g in self.gens]})"

    def contains(self, w):
        return self.aut.accepts(w)

    def is_trivial(self):
        return not self.gens

    def rank(self):
        return len(self.gens)

    def order(self):
        return 1 if self.is_trivial() else None

    def index(self):
        if self.group.rank == 0:
            return 1
        if self.aut.complete(self.group.rank):
            return self.aut.n_states
        return None

    def intersect(self, other):
        pairs = {(0, 0): 0}
        delta = [dict()]
        queue = [(0, 0)]
        i = 0
        while i < len(queue):
            a, b = queue[i]
            s = pairs[(a, b)]
            i += 1
            for letter, ta in self.aut.delta[a].items():
                tb = other.aut.delta[b].get(letter)
                if tb is None:
                    continue
                key = (ta, tb)
                if key not in pairs:
                    pairs[key] = len(delta)
                    delta.append(dict())
                    queue.append(key)
                delta[s][letter] = pairs[key]
        return FreeSubgroup(self.group, StallingsAutomaton(delta))

    def join(self, other):
        return self.group.subgroup(list(self.gens) + list(other.gens))

    def conjugate(self, g):
        return self.group.subgroup([wmul(winv(g), h, g) for h in self.gens])

    def equals(self, other):
        return (all(other.contains(g) for g in self.gens)
                and all(self.contains(g) for g in other.gens))

    def decompose(self, x):
        return self.aut.decompose_over_basis(x)

    def index_in(self, sup):
        """[sup : self] for self <= sup; None when infinite."""
        rT = sup.rank()
        rS = self.rank()
        if rT == 0:
            return 1
        if rT == 1:
            if rS == 0:
                return None
            # self = <t^m>: the cyclic core of t^m is that of t repeated m times
            m, rem = divmod(len(cyc_reduce(self.gens[0])[1]),
                            len(cyc_reduce(sup.gens[0])[1]))
            if rem:
                raise ValueError("not a subgroup")
            return m
        if rS == 0:
            return None
        if (rS - 1) % (rT - 1):
            return None
        bound = (rS - 1) // (rT - 1)
        reps = [()]
        i = 0
        while i < len(reps):
            x = reps[i]
            i += 1
            for t in list(sup.gens) + [winv(t) for t in sup.gens]:
                y = wmul(x, t)
                if not any(self.contains(wmul(y, winv(r))) for r in reps):
                    reps.append(y)
                    if len(reps) > bound:
                        return None
        return len(reps)

    def elements_up_to(self, L):
        """All reduced words of the subgroup with length <= L, sorted."""
        if L < 0:
            raise ValueError(f"negative length bound {L}")
        out = set()
        stack = [(0, 0, ())]
        while stack:
            state, last, word = stack.pop()
            if state == 0:
                out.add(word)
            if len(word) == L:
                continue
            for letter, t in self.aut.delta[state].items():
                if last and letter == -last:
                    continue
                stack.append((t, letter, word + (letter,)))
        return sorted(out, key=word_key)

    def cyclic_intersect(self, c):
        """Smallest d >= 1 with c^d in the subgroup; None if no power lies in it."""
        c = wreduce(c)
        if not c:
            raise ValueError("empty word")
        u, core = cyc_reduce(c)
        s0 = self.aut.trace(u)
        if s0 is None:
            return None
        seen = {}
        s = s0
        d = 0
        while True:
            s_next = self.aut.trace(core, start=s)
            if s_next is None:
                return None
            d += 1
            if self.aut.trace(winv(u), start=s_next) == 0:
                return d
            if s_next in seen:
                return None
            seen[s_next] = d
            s = s_next


class FreeDoubleCosets:
    """H\\S/K for subgroups H, K of S (all of F when S is None), through
    saturated Benois automata (.rational) recognizing the reduced words of
    H g K.  eq is membership in one, since canon() is not canonical when a
    double coset has several shortest words."""

    __slots__ = ("group", "H", "K", "S", "_last")

    def __init__(self, group, H, K, S=None):
        self.group, self.H, self.K, self.S = group, H, K, S
        self._last = None       # (g, automaton of H g K)

    def nfa(self, g, prefix=(), suffix=()):
        """The automaton of prefix . H g K . suffix.  The handle keeps the
        one of the last g asked about without prefix or suffix, which is the
        one its holders ask about next (canon then factor of a new product
        vertex or fold); keeping one per g would pin an automaton per product
        vertex for the life of a pullback."""
        if prefix or suffix:
            return CosetNFA(self.H, g, self.K, prefix, suffix)
        if self._last is None or self._last[0] != g:
            self._last = (g, CosetNFA(self.H, g, self.K))
        return self._last[1]

    def canon(self, g):
        return self.nfa(g).shortest_reduced()

    def eq(self, g, g2):
        return self.nfa(g).member(wreduce(g2))

    def factor(self, w, target):
        """(h, k) in H x K with target == h w k."""
        return self.nfa(w).factor(wreduce(target))

    def reps(self):
        """The canon() values of one word per double coset inside S, read
        off the Schreier graph of whichever of H, K has finite index in S;
        None when neither has.  H and K are taken in the coordinates of S's
        basis, where S is a free group of its own (for all of F, the same
        words)."""
        S = self.group.full_subgroup() if self.S is None else self.S
        Fs = FreeGroup(len(S.gens))
        H, K = (Fs.subgroup([tuple((i + 1) * e for i, e in S.decompose(x)) for x in U.gens])
                for U in (self.H, self.K))
        if H.index() is not None:
            words = _orbit_reps(H, K)
        elif K.index() is not None:
            words = [winv(w) for w in _orbit_reps(K, H)]
        else:
            return None
        return {self.canon(evaluate_word(self.group, S.gens, Fs.decompose(w))) for w in words}


def _orbit_reps(H, K):
    """One word per double coset of H\\F/K, H of finite index: the tree
    word of the least state of each orbit of K on the states of H's
    complete automaton, where each word acts as a permutation."""
    aut = H.aut
    tree_word, _ = aut.spanning()
    seen, reps = set(), []
    for s in range(aut.n_states):
        if s in seen:
            continue
        reps.append(tree_word[s])
        seen.add(s)
        stack = [s]
        while stack:
            t = stack.pop()
            for k in K.gens:
                r = aut.trace(k, start=t)
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
    return reps


class FreeGroup:
    kind = "free"

    def __init__(self, rank):
        self.rank = rank
        self._express_cache = {}

    def __repr__(self):
        return f"FreeGroup(rank={self.rank})"

    def describe(self):
        return f"free group of rank {self.rank}"

    # --- element protocol ---

    def identity(self):
        return ()

    def mul(self, x, y):
        return wmul(x, y)

    def inv(self, x):
        return winv(x)

    def pow(self, x, n):
        return wpow(x, n)

    def eq(self, x, y):
        return x == y

    def is_element(self, x):
        return isinstance(x, tuple) and all(
            isinstance(a, int) and a != 0 and abs(a) <= self.rank for a in x)

    def order(self):
        return 1 if self.rank == 0 else None

    def generators(self):
        return [(i + 1,) for i in range(self.rank)]

    def decompose(self, x):
        return [(abs(a) - 1, 1 if a > 0 else -1) for a in x]

    def serialize(self, x):
        return format_word(x)

    def parse(self, obj):
        if isinstance(obj, str):
            return parse_word(obj, rank=self.rank)
        raise ValueError(f"bad free group element {obj!r}")

    # --- subgroups ---

    def subgroup(self, gens):
        gens = [self.parse(g) if not self.is_element(g) else g for g in gens]
        return FreeSubgroup(self, StallingsAutomaton.from_words(gens))

    def trivial_subgroup(self):
        return self.subgroup([])

    def full_subgroup(self):
        return self.subgroup(self.generators())

    def express(self, target, gens):
        """Word over gens multiplying to target, or None."""
        key = tuple(tuple(g) for g in gens)
        aut = self._express_cache.get(key)
        if aut is None:
            aut = StallingsAutomaton.from_words(list(key), annotate=True)
            self._express_cache[key] = aut
        res = aut.trace_ann(wreduce(target))
        if res is None or res[0] != 0:
            return None
        return [(abs(s) - 1, 1 if s > 0 else -1) for s in res[1]]

    # --- double cosets ---

    def double_cosets(self, H, K, S=None):
        return FreeDoubleCosets(self, H, K, S)

    # one-shot queries through a fresh handle, for callers that hold none
    def dc_canon(self, H, g, K):
        return self.double_cosets(H, K).canon(g)

    def dc_eq(self, H, g, K, g2):
        return self.double_cosets(H, K).eq(g, g2)

    def dc_factor(self, H, w, K, target):
        return self.double_cosets(H, K).factor(w, target)

    # --- extras used by the pullback and the commensurator pipeline ---

    def primitive_root(self, w):
        return primitive_root(w)

    # --- mono support ---

    def mono_injective(self, images, codomain):
        return codomain.subgroup(images).rank() == self.rank

    def sub_mono_injective(self, handle, images, codomain):
        return codomain.subgroup(images).rank() == len(handle.gens)
