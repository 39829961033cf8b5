"""Free groups: words, Stallings automata, folding with expression tracking.

A subgroup is built in two linear passes.  The fold reads each generator
in from both ends along the arcs already there and adds only the unread
middle; then one breadth-first search over the core of the fold numbers
the states and reads off the spanning-tree basis, the handle's generator
list (deterministic), so expressing elements over the generators is a
plain trace.

Constructive membership over an *arbitrary* generating set (needed to invert
monomorphisms) uses folding with edge annotations: each edge carries a word
over the input generators, patched at every merge so that the annotations
along any surviving closed walk multiply to a preimage of the walk's label.
"""

from __future__ import annotations

from math import gcd

from ..words import (wreduce, wmul, winv, wpow, format_word, parse_word,
                     word_key, letter_key)
from .base import FiniteEdgeFan, UnsupportedExpansion, evaluate_word
from .rational import CosetNFA, PowerPattern


def _numbered(delta, alive):
    """One shortlex breadth-first search from state 0 over letter -> state
    rows, skipping the states where `alive` is false (a state folded away
    has the row None and is never reached).  Returns the rows with state
    order[i] renamed i and arcs to skipped states dropped; order; the tree
    word of each new state; the spanning-tree basis, one element per
    positive non-tree arc v -x-> t in visit then letter order; and the
    crossing table (state, letter) -> (basis index, +-1) on both ends of
    each such arc.  Every row is walked in one letter order, sorted once.

    The basis element tree_word[v] . x . tree_word[t]^-1 is reduced as it
    stands: x would cancel the last letter of tree_word[v] only on v's own
    tree arc back to its parent, and the first of tree_word[t]^-1 only on
    t's tree arc, and neither is a non-tree arc."""
    letters = sorted(set().union(*[row for row in delta if row]), key=letter_key)
    num = [-1 if a else -2 for a in alive]      # new number; -1 unseen, -2 skipped
    num[0] = 0
    order = [0]
    rows, tree_word, up = [], {0: ()}, [0]    # up[i]: the letter from i to its parent
    gens, crossing = [], {}
    for i, v in enumerate(order):
        row, out, word = delta[v], {}, tree_word[i]
        for x in letters:
            t = row.get(x)
            if t is None:
                continue
            n = num[t]
            if n < 0:
                if n == -2:
                    continue
                n = num[t] = len(order)
                order.append(t)
                tree_word[n] = word + (x,)
                up.append(-x)
            elif x > 0 and x != up[i]:
                crossing[i, x] = (len(gens), 1)
                crossing[n, -x] = (len(gens), -1)
                gens.append(word + (x,) + winv(tree_word[n]))
            out[x] = n
        rows.append(out)
    return rows, order, tree_word, tuple(gens), crossing


def _core(delta):
    """Whether each state is in the core: a worklist holds the states (base
    exempt) whose valence among live states has dropped to <= 1, and
    removing one lowers the valence of its neighbours.  Rows folded away
    (None) are dead too.  The core is unique, so the order of removal does
    not matter."""
    n = len(delta)
    deg = [len(row or ()) for row in delta]
    alive = [True] * n
    queue = [s for s in range(1, n) if deg[s] <= 1]
    while queue:
        s = queue.pop()
        if not alive[s]:
            continue
        alive[s] = False
        for t in (delta[s] or {}).values():
            if alive[t]:
                deg[t] -= 1
                if t and deg[t] == 1:
                    queue.append(t)
    return alive


def _fold(gen_words, annotate=False):
    """Fold the petals spelling gen_words at the base, without numbering:
    the rows letter -> state, None for a state folded away; and with
    annotate the side table (state, letter) -> annotation of every arc,
    otherwise None.  Every arc is stored at both ends.

    Each reduced generator w is read in before any state is added: w
    forward from the base along the arcs already there, as far as they go,
    to a state s; then w^-1 backward from the base, up to where the forward
    read stopped, to a state u.  Only the unread middle becomes a chain of
    fresh states from s to u, its rows written directly.  Two states are
    queued for identification only when the reads meet (an empty middle)
    at s != u, which includes w read in whole to a state other than the
    base; or when the slot of the chain's last arc at u is taken, which can
    only be by the chain's own first arc (a middle x...x^-1 read from
    s = u).  The queue is drained after each generator, so the next one
    reads in along a folded graph.  An identification moves the smaller
    row onto the larger (the base never moves) and re-links only the moved
    arcs, queueing a further identification wherever a slot is taken.

    Annotations: the chain's arcs carry (), except its last, which carries
    A^-1 . (i + 1,) . B for petal i, with A and B the annotation products
    of the forward and backward reads, so petal i's closed walk multiplies
    to (i + 1,).  An identification re-anchors the moved arcs: with the
    shift c of the moved state, an arc leaving it gets c.a and one entering
    it a.c^-1, so the annotations along any closed walk at the base still
    multiply to a preimage of its label."""
    rows = [{}]
    ann = {} if annotate else None
    moved = {}          # identified state -> (state it moved onto, shift)
    pending = []        # (p, q, c): make q one with p, q's shift c

    def link(s, x, t, a):
        hit = rows[s].get(x)
        if hit is not None:
            pending.append((hit, t, () if ann is None else wmul(winv(ann[s, x]), a)))
            return
        hit = rows[t].get(-x)
        if hit is not None:
            pending.append((hit, s, () if ann is None else wmul(winv(ann[t, -x]), winv(a))))
            return
        rows[s][x] = t
        rows[t][-x] = s
        if ann is not None:
            ann[s, x], ann[t, -x] = a, winv(a)

    def find(v):
        c = ()
        while v in moved:
            v, d = moved[v]
            if ann is not None:
                c = wmul(d, c)
        return v, c

    for i, w in enumerate(gen_words):
        w = wreduce(w)
        s, j, A = 0, 0, ()
        for x in w:
            t = rows[s].get(x)
            if t is None:
                break
            if ann is not None:
                A = wmul(A, ann[s, x])
            s, j = t, j + 1
        u, k, B = 0, len(w), ()
        while k > j:
            t = rows[u].get(-w[k - 1])
            if t is None:
                break
            if ann is not None:
                B = wmul(B, ann[u, -w[k - 1]])
            u, k = t, k - 1
        c = () if ann is None else wmul(winv(A), (i + 1,), B)
        if j == k:
            if s != u:
                pending.append((s, u, c))
        else:
            for x in w[j:k - 1]:
                t = len(rows)
                rows.append({-x: s})
                rows[s][x] = t
                if ann is not None:
                    ann[s, x] = ann[t, -x] = ()
                s = t
            link(s, w[k - 1], u, c)
        while pending:
            p, q, c = pending.pop()
            (p, e), (q, d) = find(p), find(q)
            if p == q:
                continue
            if ann is not None:
                c = wmul(e, c, winv(d))
            if q == 0 or (p != 0 and len(rows[p]) < len(rows[q])):
                p, q, c = q, p, winv(c)
            row, rows[q] = rows[q], None
            moved[q] = (p, c)
            for x, t in row.items():
                a = () if ann is None else wmul(c, ann[q, x])
                if t != q:
                    del rows[t][-x]
                    link(p, x, t, a)
                elif x > 0:
                    link(p, x, p, wmul(a, winv(c)))
    return rows, ann


class StallingsAutomaton:
    """Folded pointed labeled graph; base state 0."""

    def __init__(self, delta, ann=None):
        self.delta = delta
        self.ann = ann

    @classmethod
    def from_words(cls, gen_words, annotate=False):
        """The folded petals spelling gen_words at the base (_fold),
        numbered by _numbered; with annotate, ann maps each arc to its
        annotation."""
        rows, ann = _fold(gen_words, annotate)
        delta, order = _numbered(rows, [row is not None for row in rows])[:2]
        if ann is not None:
            ann = {(i, x): ann[v, x] for i, v in enumerate(order) for x in delta[i]}
        return cls(delta, ann)

    @property
    def n_states(self):
        return len(self.delta)

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

    def complete(self, rank_letters):
        return all(len(row) == 2 * rank_letters for row in self.delta)


class FreeSubgroup:
    """A subgroup through its cored automaton, built in two linear passes:
    the fold (_fold), which reads each generator in from both ends, and
    one numbering of the fold's core (_numbered).  The generator list is
    the basis read off the automaton's spanning tree, one generator per
    non-tree arc, so expressing an element over it is a trace counting the
    crossings of those arcs."""

    __slots__ = ("group", "aut", "gens", "tree_word", "crossing")

    def __init__(self, group, delta):
        """From the rows of a folded graph at base 0 (None for a state
        folded away): one _numbered pass over its core numbers the states
        and gives the spanning tree, its basis and the crossing table."""
        self.group = group
        rows, _, self.tree_word, self.gens, self.crossing = _numbered(delta, _core(delta))
        self.aut = StallingsAutomaton(rows)

    def __repr__(self):
        return f"FreeSubgroup(rank={len(self.gens)}, gens={[format_word(g) for g in self.gens]})"

    def contains(self, w):
        return self.aut.trace(wreduce(w)) == 0

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
        return FreeSubgroup(self.group, delta)

    def join(self, other):
        if all(self.contains(g) for g in other.gens):
            return self
        if all(other.contains(g) for g in self.gens):
            return other
        return self.group.subgroup(list(self.gens) + list(other.gens))

    def conjugate(self, g):
        return self.group.subgroup([wmul(winv(g), h, g) for h in self.gens])

    def equals(self, other):
        return (all(other.contains(g) for g in self.gens)
                and all(self.contains(g) for g in other.gens))

    def decompose(self, x):
        """Word over gens: the non-tree arc crossings along the trace of x."""
        delta, crossing = self.aut.delta, self.crossing
        s, out = 0, []
        for a in wreduce(x):
            t = delta[s].get(a)
            if t is None:
                raise ValueError("word not in subgroup")
            if (s, a) in crossing:
                out.append(crossing[(s, a)])
            s = t
        if s != 0:
            raise ValueError("word not in subgroup")
        return out

    def index_in(self, sup):
        """[sup : self], read off self over sup's basis (_in_basis): the
        number of states when that automaton is complete; None when
        infinite.  Raises ValueError when self is not a subgroup of sup."""
        return _in_basis(self, sup).index()

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


class FreeDoubleCosets:
    """H\\S/K for subgroups H, K of S (all of F when S is None), through
    saturated Benois automata (.rational) recognizing the reduced words of
    H g K.  eq is membership in one, since canon() is not canonical when a
    double coset has several shortest words.  canon() remembers its answer
    for each element it was asked about, as the finite handle does; the
    memo keeps words only, never automata, and lives as long as the
    handle."""

    __slots__ = ("group", "H", "K", "S", "memo", "_last")

    def __init__(self, group, H, K, S=None):
        self.group, self.H, self.K, self.S = group, H, K, S
        self.memo = {}
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
        c = self.memo.get(g)
        if c is None:
            c = self.memo[g] = self.nfa(g).shortest_reduced()
        return c

    def eq(self, g, g2):
        return self.nfa(g).member(wreduce(g2))

    def factor(self, w, target):
        """(h, k) in H x K with target == h w k."""
        return self.nfa(w).factor(wreduce(target))

    def meet(self, g):
        """H^g meet K."""
        return self.H.conjugate(g).intersect(self.K)

    def reps(self):
        """The canon() values of one word per double coset inside S, read
        off the Schreier graph of whichever of H, K has finite index in S;
        None when neither has.  H and K are taken in the coordinates of S's
        basis, where S is a free group of its own (for all of F, the same
        words)."""
        S = self.group.full_subgroup() if self.S is None else self.S
        H, K = _in_basis(self.H, S), _in_basis(self.K, S)
        if H.index() is not None:
            words = _orbit_reps(H, K)
        elif K.index() is not None:
            words = [winv(w) for w in _orbit_reps(K, H)]
        else:
            return None
        return {self.canon(evaluate_word(self.group, S.gens, H.group.decompose(w))) for w in words}

    def edge_fan(self, alpha, edge_dc, f_a, g_a):
        # a finite edge group maps injectively only onto the trivial subgroup,
        # which FreeEdgeFan does not list
        if alpha.domain.order() is not None:
            return FiniteEdgeFan(self, alpha, edge_dc, f_a, g_a)
        return FreeEdgeFan(self, alpha, edge_dc, f_a, g_a)


class FreeEdgeFan:
    """For a cyclic edge group <z>: the powers z^n with c^n in f_a^-1 H w K g_a,
    c = alpha(z), one per residue of n modulo d0 where E1 E2 = <z^d0>, or
    each n when d0 = 0 and they are finitely many.  Each witness builds its
    own automaton and none is kept: one per product vertex would live as
    long as the pullback."""

    def __init__(self, dc, alpha, edge_dc, f_a, g_a):
        Ge = alpha.domain
        gens = Ge.generators()
        if len(gens) != 1:
            raise UnsupportedExpansion("free vertex group with non-cyclic edge group")
        self.z, self.c = gens[0], alpha.apply(gens[0])
        if not self.c:
            raise UnsupportedExpansion("edge map with trivial image")
        self.d0 = gcd(*(sum(e for _, e in Ge.decompose(h))
                        for h in edge_dc.H.gens + edge_dc.K.gens))
        self.dc, self.Ge, self.prefix, self.suffix = dc, Ge, winv(f_a), g_a

    def solve(self, witness):
        pattern = PowerPattern(self.dc.nfa(witness, self.prefix, self.suffix), self.c)
        if self.d0:
            ns = [n for _, n in sorted(pattern.solutions_mod(self.d0).items())]
        elif pattern.infinite():
            raise UnsupportedExpansion("infinite-edge-fan")
        else:
            ns = pattern.finite_solutions()
        return [self.Ge.pow(self.z, n) for n in ns]


def _in_basis(U, S):
    """U <= S as a subgroup of FreeGroup(len(S.gens)), each generator
    rewritten over S's basis; raises ValueError when U is not in S."""
    return FreeGroup(len(S.gens)).subgroup(
        [tuple((i + 1) * e for i, e in S.decompose(x)) for x in U.gens])


def _orbit_reps(H, K):
    """One word per double coset of H\\F/K, H of finite index: the tree
    word of the least state of each orbit of K on the states of H's
    complete automaton, where each word acts as a permutation."""
    aut = H.aut
    seen, reps = set(), []
    for s in range(aut.n_states):
        if s in seen:
            continue
        reps.append(H.tree_word[s])
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
        return FreeSubgroup(self, _fold(gens)[0])

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

    # --- mono support ---

    def mono_injective(self, images, codomain):
        return self._free_rank_injective(self.rank, images, codomain)

    def sub_mono_injective(self, handle, images, codomain):
        return self._free_rank_injective(len(handle.gens), images, codomain)

    @staticmethod
    def _free_rank_injective(k, images, codomain):
        """Whether the map from a free group of rank k (its basis to images)
        is injective.  In a free codomain the images must have rank k.
        Elsewhere (abelian or finite) a rank >= 2 domain is never injective,
        being non-abelian, and a rank-1 domain is injective iff its image
        has infinite order."""
        image = codomain.subgroup(images)
        if codomain.kind == "free":
            return image.rank() == k
        return k == 0 or (k == 1 and image.order() is None)
