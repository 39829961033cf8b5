"""Finitely generated abelian groups Z^r x Z/d1 x ... x Z/ds.

Elements are integer tuples of length r + s with torsion coordinates kept
reduced.  Subgroups are full preimage lattices (always containing the
torsion relation lattice) in canonical Hermite normal form, which makes
handles unique per subgroup.
"""

from __future__ import annotations

import functools

from ..intlattice import Lattice, LinSolver, lin_solve, preimage_lattice
from ..words import primitive_root, winv
from .base import FiniteEdgeFan, UnsupportedExpansion, evaluate_word


class AbelianSubgroup:
    __slots__ = ("group", "gens", "lat")

    def __init__(self, group, gens, lat):
        self.group = group
        self.gens = tuple(gens)
        self.lat = lat

    def __repr__(self):
        return f"AbelianSubgroup(rows={[list(r) for r in self.lat.rows]})"

    def contains(self, x):
        return self.lat.contains(x)

    def is_trivial(self):
        return self.lat == self.group.L0

    def order(self):
        return self.group.L0.index_in(self.lat)

    def index(self):
        return self.lat.index_in(self.group.FULL)

    def index_in(self, sup):
        return self.lat.index_in(sup.lat)

    def intersect(self, other):
        """Always a new handle on gens_of(lat): pullback vertex groups are
        meets, and their printed generators are these lists."""
        lat = self.lat.intersect(other.lat)
        return AbelianSubgroup(self.group, self.group.gens_of(lat), lat)

    def join(self, other):
        lat = self.lat.sum(other.lat)
        if lat == self.lat:
            return self
        if lat == other.lat:
            return other
        return AbelianSubgroup(self.group, self.group.gens_of(lat), lat)

    def conjugate(self, g):
        return self

    def equals(self, other):
        return self.lat == other.lat

    def decompose(self, x):
        word = self.group.express(x, self.gens)
        if word is None:
            raise ValueError("element not in subgroup")
        return word


class AbelianDoubleCosets:
    """H\\S/K for subgroups H, K of S (all of G when S is None).  In an
    abelian group a double coset H g K is the coset g + (H + K), so the
    handle computes the HNF of H + K once and reduces modulo it; factor()
    solves over the rows of H and K with one LinSolver, and meet() is H
    meet K, each made on first use."""

    __slots__ = ("group", "H", "K", "full", "lat", "_solver", "_meet")

    def __init__(self, group, H, K, S=None):
        self.group, self.H, self.K = group, H, K
        self.full = group.FULL if S is None else S.lat
        self.lat = H.lat.sum(K.lat)
        self._solver = None
        self._meet = None

    def canon(self, g):
        return self.lat.coset_canon(g)

    def eq(self, g, g2):
        return self.canon(g) == self.canon(g2)

    def factor(self, w, target):
        """(h, k) in H x K with target == h + w + k."""
        G, hrows = self.group, self.H.lat.rows
        if self._solver is None:
            self._solver = LinSolver([list(r) for r in hrows] + [list(r) for r in self.K.lat.rows])
        diff = [a - b for a, b in zip(target, w)]
        sol = self._solver.solve(diff)
        if sol is None:
            raise ValueError("target not in the double coset")
        h = [sum(c * r[j] for c, r in zip(sol, hrows)) for j in range(G.n)]
        return G.canon(tuple(h)), G.canon(tuple(d - a for d, a in zip(diff, h)))

    def meet(self, g):
        """H^g meet K, which is H meet K for every g: conjugation is the
        identity."""
        if self._meet is None:
            self._meet = self.H.intersect(self.K)
        return self._meet

    def reps(self):
        """The canon() values of the cosets of H + K in S; ValueError when
        there are infinitely many."""
        if self.lat.rank < self.full.rank:
            raise ValueError("infinitely many double cosets")
        return {self.canon(rep) for rep in self.lat.transversal(self.full)}

    def edge_fan(self, alpha, edge_dc, f_a, g_a):
        if alpha.domain.kind == "finite":
            return FiniteEdgeFan(self, alpha, edge_dc, f_a, g_a)
        return AbelianEdgeFan(self, alpha, edge_dc, f_a, g_a)


class AbelianEdgeFan:
    """The witness-independent work done once.  Elements of the edge group
    Ge are coordinate vectors over its generators, as evaluate_word reads
    them: Ge's own coordinates when it is abelian, the exponent n of a^n
    when it is free of rank 1.  The solver works over the rows of M =
    alpha(gens) plus H + K; reps is the transversal of E1 + E2 in P =
    {a : alpha(a) in H + K}, or error says why the fan cannot be listed."""

    def __init__(self, dc, alpha, edge_dc, f_a, g_a):
        Ge = alpha.domain
        gens = Ge.generators()
        if Ge.kind == "abelian":
            n, Se = Ge.n, edge_dc.lat
        elif Ge.kind == "free" and len(gens) <= 1:
            n = len(gens)
            Se = Lattice(n, [[sum(c for _, c in Ge.decompose(h))]
                             for h in edge_dc.H.gens + edge_dc.K.gens])
        else:
            # finite edge groups take FiniteEdgeFan, and no other group maps
            # injectively into an abelian one: only a map that was never
            # validated gets here
            raise UnsupportedExpansion("abelian vertex with non-abelian edge group")
        M = [list(alpha.apply(gen)) for gen in gens]
        P = preimage_lattice(M, n, dc.lat)
        self.Ge, self.gens, self.reps, self.error = Ge, gens, [], None
        self.shift = [ga - fa for fa, ga in zip(f_a, g_a)]
        self.solver = LinSolver(M + [list(r) for r in dc.lat.rows])
        if not Se.is_sublattice_of(P):
            self.error = "edge-group cosets do not refine the fan"
        elif Se.rank < P.rank:
            self.error = "infinite-edge-fan"
        else:
            self.reps = [evaluate_word(Ge, gens, enumerate(rep)) for rep in Se.transversal(P)]

    def solve(self, witness):
        # alpha(a) must fall in witness - f_a + g_a + (H + K)
        sol = self.solver.solve([x + d for x, d in zip(witness, self.shift)])
        if sol is None:
            return []
        if self.error:
            raise UnsupportedExpansion(self.error)
        n = len(self.gens)
        a0 = evaluate_word(self.Ge, self.gens, [(i, c) for i, c in enumerate(sol[:n]) if c])
        return [(self.Ge.mul(a0, rep), None) for rep in self.reps]


@functools.cache
def _standard_lattices(rank, torsion):
    """(L0, FULL) of Z^rank x Z/torsion: the torsion relations and all of
    Z^n.  Lattices are immutable, so every group of one signature shares
    them."""
    n = rank + len(torsion)
    rows = []
    for i, d in enumerate(torsion):
        row = [0] * n
        row[rank + i] = d
        rows.append(row)
    return Lattice(n, rows), Lattice(n, [[1 if i == j else 0 for j in range(n)]
                                         for i in range(n)])


class AbelianGroup:
    kind = "abelian"

    def __init__(self, rank, torsion=()):
        torsion = list(torsion)
        if any(d < 2 for d in torsion):
            raise ValueError("torsion invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisor chain")
        self.rank = rank
        self.torsion = torsion
        self.n = rank + len(torsion)
        self.L0, self.FULL = _standard_lattices(rank, tuple(torsion))

    @classmethod
    def Z(cls):
        return cls(1)

    def __repr__(self):
        return f"AbelianGroup(rank={self.rank}, torsion={self.torsion})"

    def describe(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "trivial abelian group"

    def canon(self, vec):
        return self.L0.coset_canon(vec) if self.torsion else tuple(vec)

    # --- element protocol ---

    def identity(self):
        return tuple([0] * self.n)

    # each result is built once, and reduced only when there is torsion
    def mul(self, x, y):
        z = tuple([a + b for a, b in zip(x, y)])
        return self.canon(z) if self.torsion else z

    def inv(self, x):
        z = tuple([-a for a in x])
        return self.canon(z) if self.torsion else z

    def pow(self, x, n):
        z = tuple([n * a for a in x])
        return self.canon(z) if self.torsion else z

    def eq(self, x, y):
        return x == y

    def is_element(self, x):
        return isinstance(x, tuple) and len(x) == self.n and all(isinstance(a, int) for a in x)

    def order(self):
        if self.rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def generators(self):
        return [tuple(1 if j == i else 0 for j in range(self.n)) for i in range(self.n)]

    def decompose(self, x):
        return [(i, c) for i, c in enumerate(x) if c]

    def serialize(self, x):
        if self.n == 1:
            return x[0]
        return list(x)

    def parse(self, obj):
        if isinstance(obj, int) and self.n == 1:
            return self.canon((obj,))
        if isinstance(obj, (list, tuple)) and len(obj) == self.n and all(isinstance(a, int) for a in obj):
            return self.canon(tuple(obj))
        raise ValueError(f"bad abelian element {obj!r} for {self.describe()}")

    # --- subgroups ---

    def gens_of(self, lat):
        """Generators of the subgroup lat/L0 (drop pure relation rows)."""
        return [self.canon(r) for r in lat.rows if not self.L0.contains(r)]

    def subgroup(self, gens):
        gens = [self.parse(g) if not self.is_element(g) else g for g in gens]
        lat = Lattice(self.n, [list(g) for g in gens] + [list(r) for r in self.L0.rows])
        return AbelianSubgroup(self, gens, lat)

    def trivial_subgroup(self):
        return AbelianSubgroup(self, [], self.L0)

    def full_subgroup(self):
        return AbelianSubgroup(self, self.generators(), self.FULL)

    def express(self, target, gens):
        if not gens:
            return [] if not any(target) else None
        rows = [list(g) for g in gens] + [list(r) for r in self.L0.rows]
        sol = lin_solve(rows, list(target))
        if sol is None:
            return None
        return [(i, sol[i]) for i in range(len(gens)) if sol[i]]

    # --- double cosets ---

    def double_cosets(self, H, K, S=None):
        return AbelianDoubleCosets(self, H, K, S)

    # --- mono support ---

    @staticmethod
    def _image_coords(images, codomain):
        """(matrix, relation lattice) placing the images in a lattice, or
        None when they do not commute.  An abelian codomain lends its own
        coordinates.  Commuting elements of a free group are powers r^m of
        one primitive root r (up to inverting r), so there they sit in Z by
        their exponents m."""
        if codomain.kind != "free":
            L0 = codomain.L0 if hasattr(codomain, "L0") else codomain.ambient.L0
            return [list(img) for img in images], L0
        root, exps = None, []
        for w in images:
            if not w:
                exps.append([0])
                continue
            r, m = primitive_root(w)
            root = root or r
            if r not in (root, winv(root)):
                return None
            exps.append([m if r == root else -m])
        return exps, Lattice(1)

    def mono_injective(self, images, codomain):
        """The relations among the images are exactly those of the
        generators (L0): the map is then well-defined and injective."""
        coords = self._image_coords(images, codomain)
        if coords is None:
            return False
        return preimage_lattice(coords[0], self.n, coords[1]) == self.L0

    def sub_mono_injective(self, handle, images, codomain):
        # Relations among the images (in coefficient space) must match the
        # relations among the domain generators exactly: the mono is then
        # well-defined and injective.
        k = len(handle.gens)
        if k == 0:
            return True
        coords = self._image_coords(images, codomain)
        if coords is None:
            return False
        ker_dom = preimage_lattice([list(g) for g in handle.gens], k, self.L0)
        return preimage_lattice(coords[0], k, coords[1]) == ker_dom
