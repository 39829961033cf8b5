"""Exact integer lattice arithmetic: Hermite/Smith normal forms and solvers.

Everything here works on lattices in Z^n given by generating row vectors.
Subgroups of finitely generated abelian groups are represented elsewhere as
full preimage lattices (containing the torsion relation lattice), so the
operations needed are: canonical HNF bases, membership, sum, intersection,
integer linear solves, kernels, index/invariant-factor computations and
coset transversals.  All arithmetic is exact (Python ints).
"""

from __future__ import annotations


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


def det(mat):
    """Determinant of a square integer matrix (fraction-free Gaussian)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(r) for r in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            sel = next((i for i in range(k + 1, n) if a[i][k]), None)
            if sel is None:
                return 0
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith(mat):
    """Smith normal form. Returns (divisors, U, Vinv) with U*mat*V = diag,
    V*Vinv = I.  `divisors` lists the diagonal entries d1 | d2 | ... (>= 0),
    padded over min(rows, cols).
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(r) for r in mat]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i1, i2, x, y, z, w):
        _row_combine(a[i1], a[i2], x, y, z, w)
        _row_combine(U[i1], U[i2], x, y, z, w)

    def col_op(j1, j2, x, y, z, w):
        # columns (c1, c2) <- (x*c1 + y*c2, z*c1 + w*c2); Vinv gets inverse row ops
        for i in range(m):
            u, v = a[i][j1], a[i][j2]
            a[i][j1] = x * u + y * v
            a[i][j2] = z * u + w * v
        # inverse of [[x, z], [y, w]] acting on Vinv rows (det +-1)
        dd = x * w - y * z
        ix, iy, iz, iw = w * dd, -z * dd, -y * dd, x * dd
        _row_combine(Vinv[j1], Vinv[j2], ix, iy, iz, iw)

    t = 0
    while t < min(m, n):
        # find nonzero entry to bring to (t, t)
        sel = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    sel = (i, j)
                    break
            if sel:
                break
        if sel is None:
            break
        i0, j0 = sel
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            for i in range(m):
                a[i][t], a[i][j0] = a[i][j0], a[i][t]
            Vinv[t], Vinv[j0] = Vinv[j0], Vinv[t]
        while True:
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    if a[i][t] % a[t][t] == 0:
                        row_op(t, i, 1, 0, -(a[i][t] // a[t][t]), 1)
                    else:
                        x, y, g = xgcd(a[t][t], a[i][t])
                        row_op(t, i, x, y, -(a[i][t] // g), a[t][t] // g)
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    if a[t][j] % a[t][t] == 0:
                        col_op(t, j, 1, 0, -(a[t][j] // a[t][t]), 1)
                    else:
                        x, y, g = xgcd(a[t][t], a[t][j])
                        col_op(t, j, x, y, -(a[t][j] // g), a[t][t] // g)
                        done = False
            if done:
                # ensure a[t][t] divides the rest of the block
                bad = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if a[i][j] % a[t][t] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                row_op(t, bad, 1, 1, 0, 1)
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
            U[t] = [-v for v in U[t]]
        t += 1
    divisors = [a[i][i] for i in range(min(m, n))]
    return divisors, U, Vinv


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
        return self.solve(vec) is not None

    def coset_canon(self, vec):
        """Canonical representative of vec + L (entries over pivots reduced)."""
        v = list(vec)
        for r, j in zip(self.rows, self._pivots):
            q = v[j] // r[j]  # floor division: canonical residue in [0, pivot)
            if q:
                for k in range(j, self.n):
                    v[k] -= q * r[k]
        return tuple(v)

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
        """Integer coefficients over self.rows producing target, or None: a
        back-substitution, since the rows are already in HNF."""
        v = list(target)
        coeffs = []
        for r, j in zip(self.rows, self._pivots):
            q, rem = divmod(v[j], r[j])
            if rem:
                return None
            coeffs.append(q)
            if q:
                for k in range(j, self.n):
                    v[k] -= q * r[k]
        return None if any(v) else coeffs

    def in_coords_of(self, other):
        """Matrix C with self.rows[i] == C[i] . other.rows (self <= other)."""
        C = []
        for r in self.rows:
            c = other.solve(r)
            if c is None:
                raise ValueError("not a sublattice")
            C.append(c)
        return C

    def index_in(self, other):
        """[other : self] for self <= other; None means infinite."""
        if self.rank < other.rank:
            return None
        C = self.in_coords_of(other)
        d = det([row[:] for row in C])
        return abs(d) if d else None

    def quotient_invariants(self, other):
        """Invariant factors of other/self (self <= other): (free_rank, [d...])."""
        free = other.rank - self.rank
        if self.rank == 0:
            return free, []
        C = self.in_coords_of(other)
        divs, _, _ = smith(C)
        tor = [d for d in divs if d > 1]
        free += sum(1 for d in divs if d == 0)
        return free, tor

    def transversal(self, other):
        """Coset representatives of self in other (requires finite index).

        Yields vectors in Z^n; raises ValueError on infinite index.
        """
        if self.rank < other.rank:
            raise ValueError("infinite index")
        if other.rank == 0:
            return [tuple([0] * self.n)]
        C = self.in_coords_of(other)
        divs, _, Vinv = smith(C)
        if any(d == 0 for d in divs):
            raise ValueError("infinite index")
        # new basis of `other`: rows of Vinv . other.rows
        newb = []
        for i in range(len(divs)):
            v = [0] * self.n
            for j in range(other.rank):
                if Vinv[i][j]:
                    for k in range(self.n):
                        v[k] += Vinv[i][j] * other.rows[j][k]
            newb.append(v)
        reps = [[0] * self.n]
        for i, d in enumerate(divs):
            reps = [
                [x + t * newb[i][k] for k, x in enumerate(rep)]
                for rep in reps
                for t in range(d)
            ]
        return [tuple(r) for r in reps]


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
