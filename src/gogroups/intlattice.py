"""Exact integer lattice arithmetic: Hermite normal forms and solvers.

Everything here works on lattices in Z^n given by generating row vectors.
Subgroups of finitely generated abelian groups are represented elsewhere as
full preimage lattices (containing the torsion relation lattice), so the
operations needed are: canonical HNF bases, membership, sum, intersection,
integer linear solves, kernels, indices and coset transversals.  A
sublattice of finite index shares its HNF pivot columns with the lattice,
so the index and a transversal are read off the ratios of their pivots.
All arithmetic is exact (Python ints).
"""

from __future__ import annotations

import math


def xgcd(a, b):
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _row_combine(r1, r2, a, b, c, d):
    # (r1, r2) <- (a*r1 + b*r2, c*r1 + d*r2), in place on lists
    for j in range(len(r1)):
        u, v = r1[j], r2[j]
        r1[j] = a * u + b * v
        r2[j] = c * u + d * v


def hnf(rows, n=None, transform=False):
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the canonical basis: rows with strictly increasing pivot columns,
    positive pivots, and entries above each pivot reduced into [0, pivot).
    With transform=True also returns U (list of rows over the input indices)
    such that U[i] . rows == basis[i], plus K, a basis of the left kernel
    (integer combinations of the input rows summing to zero).
    """
    if n is None:
        n = len(rows[0]) if rows else 0
    m = len(rows)
    work = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transform else None

    pivot_row = 0
    for col in range(n):
        # find a row at or below pivot_row with nonzero entry in col
        sel = None
        for i in range(pivot_row, m):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        if transform:
            U[pivot_row], U[sel] = U[sel], U[pivot_row]
        for i in range(pivot_row + 1, m):
            while work[i][col]:
                a, b = work[pivot_row][col], work[i][col]
                if b % a == 0:
                    q = b // a
                    for j in range(n):
                        work[i][j] -= q * work[pivot_row][j]
                    if transform:
                        for j in range(m):
                            U[i][j] -= q * U[pivot_row][j]
                else:
                    x, y, g = xgcd(a, b)
                    _row_combine(work[pivot_row], work[i], x, y, -(b // g), a // g)
                    if transform:
                        _row_combine(U[pivot_row], U[i], x, y, -(b // g), a // g)
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-v for v in work[pivot_row]]
            if transform:
                U[pivot_row] = [-v for v in U[pivot_row]]
        pivot_row += 1
        if pivot_row == m:
            break

    basis = [r for r in work[:pivot_row]]
    # reduce entries above pivots
    pivots = []
    for r in basis:
        j = next(k for k in range(n) if r[k])
        pivots.append(j)
    for i in range(len(basis)):
        for below in range(i + 1, len(basis)):
            j = pivots[below]
            p = basis[below][j]
            q = basis[i][j] // p
            if q:
                for k in range(n):
                    basis[i][k] -= q * basis[below][k]
                if transform:
                    for k in range(m):
                        U[i][k] -= q * U[below][k]
    if transform:
        kernel = [U[i] for i in range(pivot_row, m)]
        return basis, U[:pivot_row], kernel
    return basis


class LinSolver:
    """Integer solves x . rows == target over fixed rows.  The HNF of the
    rows and its transform U are computed once; each solve is one
    back-substitution through the HNF basis, then x = coeffs . U."""

    __slots__ = ("m", "basis", "pivots", "U")

    def __init__(self, rows):
        self.m = len(rows)
        self.basis, self.U, _ = hnf(rows, transform=True) if rows else ([], [], [])
        self.pivots = [next(k for k in range(len(r)) if r[k]) for r in self.basis]

    def solve(self, target):
        """One integer solution x with sum_i x[i]*rows[i] == target, or None."""
        t = list(target)
        n = len(t)
        x = [0] * self.m
        for r, j, u in zip(self.basis, self.pivots, self.U):
            q, rem = divmod(t[j], r[j])
            if rem:
                return None
            if q:
                for k in range(j, n):
                    t[k] -= q * r[k]
                for k in range(self.m):
                    x[k] += q * u[k]
        return None if any(t) else x


def lin_solve(rows, target):
    """One integer solution x with sum_i x[i]*rows[i] == target, or None."""
    return LinSolver(rows).solve(target)


def kernel(rows, n=None):
    """Basis of the left kernel: integer x with x . rows == 0."""
    if not rows:
        return []
    _, _, K = hnf(rows, n=n, transform=True)
    return K


class Lattice:
    """A sublattice of Z^n in canonical row HNF."""

    __slots__ = ("n", "rows", "_pivots")

    def __init__(self, n, rows=()):
        self.n = n
        self.rows = tuple(tuple(r) for r in hnf([list(r) for r in rows], n=n))
        self._pivots = tuple(next(k for k in range(n) if r[k]) for r in self.rows)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Lattice(n={self.n}, rows={[list(r) for r in self.rows]})"

    @property
    def rank(self):
        return len(self.rows)

    def contains(self, vec):
        return not any(self._floor_reduce(vec)[1])

    def _floor_reduce(self, vec):
        """(q, v) with v = vec - q . rows, q[i] the floor quotient at the
        i-th pivot: v's pivot entries lie in [0, pivot), so v is canonical
        in vec + L, and vec is in L exactly when v is zero."""
        v = list(vec)
        q = []
        for r, j in zip(self.rows, self._pivots):
            c = v[j] // r[j]
            q.append(c)
            if c:
                for k in range(j, self.n):
                    v[k] -= c * r[k]
        return q, v

    def coset_canon(self, vec):
        """Canonical representative of vec + L (entries over pivots reduced)."""
        return tuple(self._floor_reduce(vec)[1])

    def sum(self, other):
        return Lattice(self.n, list(self.rows) + list(other.rows))

    def intersect(self, other):
        if not self.rows or not other.rows:
            return Lattice(self.n)
        stacked = [list(r) for r in self.rows] + [list(r) for r in other.rows]
        gens = []
        for krow in kernel(stacked, n=self.n):
            v = [0] * self.n
            for i in range(len(self.rows)):
                if krow[i]:
                    for k in range(self.n):
                        v[k] += krow[i] * self.rows[i][k]
            gens.append(v)
        return Lattice(self.n, gens)

    def is_sublattice_of(self, other):
        return all(other.contains(r) for r in self.rows)

    def solve(self, target):
        """Integer coefficients over self.rows producing target, or None."""
        q, v = self._floor_reduce(target)
        return None if any(v) else q

    def _pivot_ratios(self, other):
        """self.rows[i][p] // other.rows[i][p] at each pivot p, for self <=
        other of equal rank.  Both are in HNF over the same pivots, so the
        matrix C with self.rows[i] == C[i] . other.rows is upper triangular
        with these ratios on its diagonal."""
        if not self.is_sublattice_of(other):
            raise ValueError("not a sublattice")
        return [s[j] // r[j] for s, r, j in zip(self.rows, other.rows, self._pivots)]

    def index_in(self, other):
        """[other : self] for self <= other; None means infinite."""
        if self.rank < other.rank:
            return None
        return math.prod(self._pivot_ratios(other))

    def transversal(self, other):
        """Coset representatives of self in other: the vectors t . other.rows
        with 0 <= t[i] < d[i] over the pivot ratios d, since reducing t one
        pivot at a time by the triangular coordinates of self lands in that
        box.  Raises ValueError on infinite index."""
        if self.rank < other.rank:
            raise ValueError("infinite index")
        reps = [(0,) * self.n]
        for r, d in zip(other.rows, self._pivot_ratios(other)):
            reps = [tuple(x + t * y for x, y in zip(rep, r)) for rep in reps for t in range(d)]
        return reps


def preimage_lattice(M, n_dom, L):
    """{x in Z^n_dom : x . M in L} for an integer matrix M (n_dom rows)."""
    rows = [list(r) for r in M] + [list(r) for r in L.rows]
    if not rows:
        return Lattice(n_dom, [[1 if i == j else 0 for j in range(n_dom)] for i in range(n_dom)])
    gens = []
    for krow in kernel(rows, n=L.n):
        gens.append(krow[:n_dom])
    # rows of M that are themselves zero maps contribute free directions
    return Lattice(n_dom, gens)
