"""Finite groups given by a multiplication table."""

from __future__ import annotations

from collections import deque

from .base import FiniteEdgeFan


class FiniteSubgroup:
    __slots__ = ("group", "gens", "elts")

    def __init__(self, group, gens, elts):
        self.group = group
        self.gens = tuple(gens)
        self.elts = frozenset(elts)

    def __repr__(self):
        return f"FiniteSubgroup(order={len(self.elts)})"

    def contains(self, x):
        return x in self.elts

    def is_trivial(self):
        return len(self.elts) == 1

    def order(self):
        return len(self.elts)

    def index(self):
        return self.group.order() // len(self.elts)

    def index_in(self, sup):
        """[sup : self]; raises ValueError when self is not a subgroup of sup."""
        if not self.elts <= sup.elts:
            raise ValueError("not a subgroup of the given supergroup")
        return len(sup.elts) // len(self.elts)

    def intersect(self, other):
        """Always a new handle listing its elements: pullback vertex groups
        are meets, and their printed generators are these sorted lists."""
        common = self.elts & other.elts
        return FiniteSubgroup(self.group, sorted(common), common)

    def join(self, other):
        if other.elts <= self.elts:
            return self
        if self.elts <= other.elts:
            return other
        return self.group.subgroup(sorted(self.elts | other.elts))

    def conjugate(self, g):
        if len(self.elts) == 1:
            return self
        G = self.group
        gi = G.inv(g)
        elts = frozenset([G.mul(G.mul(gi, x), g) for x in self.elts])
        if elts == self.elts:
            return self
        return FiniteSubgroup(self.group, [G.mul(G.mul(gi, x), g) for x in self.gens], elts)

    def equals(self, other):
        return self.elts == other.elts

    def decompose(self, x):
        word = self.group.express(x, self.gens)
        if word is None:
            raise ValueError("element not in subgroup")
        return word

    def elements(self):
        return sorted(self.elts)


class FiniteDoubleCosets:
    """H\\S/K for subgroups H, K of S (all of G when S is None), by running
    through H x K on each query.  canon() remembers its answer for each
    element it was asked about (at most |G| entries), and reps() is listed
    once, on its first call, and kept as a frozenset; both memos live as
    long as the handle."""

    __slots__ = ("group", "H", "K", "S", "memo", "_reps")

    def __init__(self, group, H, K, S=None):
        self.group, self.H, self.K, self.S = group, H, K, S
        self.memo = {}
        self._reps = None

    def canon(self, g):
        c = self.memo.get(g)
        if c is None:
            mul = self.group.mul
            c = self.memo[g] = min(mul(mul(h, g), k) for h in self.H.elts for k in self.K.elts)
        return c

    def eq(self, g, g2):
        mul = self.group.mul
        return any(mul(mul(h, g), k) == g2 for h in self.H.elts for k in self.K.elts)

    def factor(self, w, target):
        """(h, k) in H x K with target == h w k."""
        mul = self.group.mul
        for h in self.H.elts:
            for k in self.K.elts:
                if mul(mul(h, w), k) == target:
                    return h, k
        raise ValueError("target not in the double coset")

    def meet(self, g):
        """H^g meet K."""
        return self.H.conjugate(g).intersect(self.K)

    def reps(self):
        """The canon() values of the double cosets inside S."""
        if self._reps is None:
            elts = range(self.group.n) if self.S is None else self.S.elts
            self._reps = frozenset([self.canon(g) for g in elts])
        return self._reps

    def edge_fan(self, alpha, edge_dc, f_a, g_a):
        return FiniteEdgeFan(self, alpha, edge_dc, f_a, g_a)


class FiniteGroup:
    kind = "finite"

    def __init__(self, table):
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square and non-empty")
        for row in table:
            if sorted(row) != list(range(n)):
                raise ValueError("table rows must be permutations of 0..n-1")
        for j in range(n):
            if sorted(table[i][j] for i in range(n)) != list(range(n)):
                raise ValueError("table columns must be permutations of 0..n-1")
        ident = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no identity element")
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if table[table[a][b]][c] != table[a][table[b][c]]:
                            raise ValueError("table is not associative")
        self.table = [list(row) for row in table]
        self.n = n
        self.e = ident
        self._inv = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == ident:
                    self._inv[a] = b
        if any(v is None for v in self._inv):
            raise ValueError("table has non-invertible elements")
        self._gens = tuple(self._greedy_generators())
        self._tables = {}

    @classmethod
    def trivial(cls):
        return cls([[0]])

    @classmethod
    def cyclic(cls, n):
        return cls([[(i + j) % n for j in range(n)] for i in range(n)])

    def __repr__(self):
        return f"FiniteGroup(order={self.n})"

    def describe(self):
        return f"finite group of order {self.n}"

    def _greedy_generators(self):
        if self.n == 1:
            return []
        gens = []
        closed = {self.e}
        for x in range(self.n):
            if x in closed:
                continue
            gens.append(x)
            closed = self._closure(gens)
            if len(closed) == self.n:
                break
        return gens

    def _closure(self, gens):
        seen = {self.e}
        queue = deque([self.e])
        gset = list(gens) + [self._inv[g] for g in gens]
        while queue:
            x = queue.popleft()
            for g in gset:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    # --- element protocol ---

    def identity(self):
        return self.e

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self._inv[x]

    def pow(self, x, n):
        """Repeated squaring on n mod |G|, since x^|G| is the identity."""
        n %= self.n
        acc = self.e
        while n:
            if n & 1:
                acc = self.table[acc][x]
            x = self.table[x][x]
            n >>= 1
        return acc

    def eq(self, x, y):
        return x == y

    def is_element(self, x):
        return isinstance(x, int) and 0 <= x < self.n

    def order(self):
        return self.n

    def generators(self):
        return list(self._gens)

    def decompose(self, x):
        return (self._tables.get(self._gens) or self._words_over(self._gens))[x]

    def serialize(self, x):
        return x

    def parse(self, obj):
        if not self.is_element(obj):
            raise ValueError(f"bad finite group element {obj!r}")
        return obj

    # --- subgroups ---

    def subgroup(self, gens):
        gens = [self.parse(g) if not self.is_element(g) else g for g in gens]
        elts = self._closure(gens)
        return FiniteSubgroup(self, gens, elts)

    def trivial_subgroup(self):
        return FiniteSubgroup(self, [], {self.e})

    def full_subgroup(self):
        return self.subgroup(self._gens)

    def express(self, target, gens):
        """BFS word over `gens` as (index, exponent) pairs, or None, read
        off the table of tuple(gens): built on the first call for that list
        and kept for the group's lifetime, one table of at most |G| words
        per list asked about, shared with decompose, so a caller must not
        mutate a word."""
        return self._words_over(gens).get(target)

    def _words_over(self, gens):
        """Each element of <gens> with its first word in a breadth-first
        search from the identity, as (index, exponent) pairs: the letters
        of a word are tried in the order gens[0], gens[0]^-1, gens[1], ...,
        so the word is a shortest one, and the least in that order.  Built
        once per tuple(gens) and kept in _tables."""
        key = tuple(gens)
        words = self._tables.get(key)
        if words is not None:
            return words
        words = self._tables[key] = {self.e: []}
        queue = deque([self.e])
        while queue:
            x = queue.popleft()
            for i, g in enumerate(key):
                for s, y in ((1, self.table[x][g]), (-1, self.table[x][self._inv[g]])):
                    if y not in words:
                        words[y] = words[x] + [(i, s)]
                        queue.append(y)
        return words

    # --- double cosets ---

    def double_cosets(self, H, K, S=None):
        return FiniteDoubleCosets(self, H, K, S)

    # --- mono support ---

    def mono_injective(self, images, codomain, image):
        return image().order() == self.n

    def sub_mono_injective(self, handle, images, codomain, image):
        return image().order() == handle.order()
