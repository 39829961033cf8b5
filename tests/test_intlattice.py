import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gogroups.intlattice import Lattice, LinSolver, hnf, kernel, preimage_lattice, xgcd


def brute_lattice_members(rows, n, box=6):
    """All lattice points with coefficients in [-box, box] (oracle)."""
    pts = {tuple([0] * n)}
    for _ in range(3):
        new = set(pts)
        for p in pts:
            for r in rows:
                for s in (1, -1):
                    new.add(tuple(a + s * b for a, b in zip(p, r)))
        pts = new
    return pts


def test_xgcd():
    rng = Random(1)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_canonical_under_row_shuffle():
    rng = Random(2)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        h1 = hnf([r[:] for r in rows])
        shuffled = [r[:] for r in rows]
        rng.shuffle(shuffled)
        # adding a row combination must not change the lattice
        if len(shuffled) >= 2:
            shuffled.append([a + 2 * b for a, b in zip(shuffled[0], shuffled[1])])
        h2 = hnf(shuffled)
        assert h1 == h2


def test_membership_against_enumeration():
    rows = [[2, 0], [0, 3]]
    lat = Lattice(2, rows)
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert lat.contains((x, y)) == (x % 2 == 0 and y % 3 == 0)


def test_lin_solve():
    rng = Random(3)
    for _ in range(200):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        target = [sum(c * rows[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
        sol = LinSolver(rows).solve(target)
        assert sol is not None
        assert [sum(s * rows[i][j] for i, s in enumerate(sol)) for j in range(n)] == target


def test_lin_solve_unsolvable():
    solver = LinSolver([[2, 0]])
    assert solver.solve([1, 0]) is None
    assert solver.solve([0, 1]) is None


def _one_shot_lin_solve(rows, target):
    """lin_solve as it was before LinSolver: a transform HNF per call."""
    if not rows:
        return [] if not any(target) else None
    basis, U, _ = hnf(rows, transform=True)
    n = len(target)
    t = list(target)
    coeffs = [0] * len(basis)
    for i, r in enumerate(basis):
        j = next(k for k in range(n) if r[k])
        if t[j] % r[j] != 0:
            return None
        q = t[j] // r[j]
        coeffs[i] = q
        for k in range(n):
            t[k] -= q * r[k]
    if any(t):
        return None
    x = [0] * len(rows)
    for i, q in enumerate(coeffs):
        if q:
            for k in range(len(rows)):
                x[k] += q * U[i][k]
    return x


@st.composite
def matrix_and_targets(draw):
    """(rows, targets): an integer matrix (possibly without rows) and
    targets both inside and (mostly) outside its row lattice."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    targets = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
    for coeffs in draw(st.lists(st.lists(st.integers(-4, 4), min_size=len(rows),
                                         max_size=len(rows)), min_size=1, max_size=4)):
        targets.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
    return rows, targets


@settings(deadline=None, max_examples=300)
@given(case=matrix_and_targets())
def test_lin_solver_matches_one_shot_lin_solve(case):
    rows, targets = case
    solver = LinSolver([r[:] for r in rows])
    for t in targets:
        want = _one_shot_lin_solve([r[:] for r in rows], t)
        assert solver.solve(t) == want


@settings(deadline=None, max_examples=300)
@given(case=matrix_and_targets())
def test_lattice_solve_matches_lin_solve_over_its_rows(case):
    rows, targets = case
    n = len(targets[0])
    L = Lattice(n, rows)
    solver = LinSolver([list(r) for r in L.rows])
    for t in targets:
        want = solver.solve(t)
        assert L.solve(t) == want == _one_shot_lin_solve([list(r) for r in L.rows], t)


def test_kernel():
    rows = [[1, 2], [2, 4], [0, 1]]
    K = kernel(rows)
    assert K
    for krow in K:
        out = [sum(krow[i] * rows[i][j] for i in range(3)) for j in range(2)]
        assert out == [0, 0]


def det(mat):
    """Determinant of a square integer matrix (fraction-free Gaussian
    elimination): the oracle for index_in and transversal."""
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


def test_sum_intersection_duality():
    lat1 = Lattice(2, [[2, 0], [0, 2]])
    lat2 = Lattice(2, [[3, 0], [0, 3]])
    s = lat1.sum(lat2)
    i = lat1.intersect(lat2)
    assert s == Lattice(2, [[1, 0], [0, 1]])
    assert i == Lattice(2, [[6, 0], [0, 6]])


def test_intersection_against_enumeration():
    rng = Random(5)
    for _ in range(60):
        n = 2
        rows1 = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        rows2 = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        l1, l2 = Lattice(n, rows1), Lattice(n, rows2)
        li = l1.intersect(l2)
        for x in range(-4, 5):
            for y in range(-4, 5):
                assert li.contains((x, y)) == (l1.contains((x, y)) and l2.contains((x, y)))


def test_index_in():
    z2 = Lattice(2, [[1, 0], [0, 1]])
    sub = Lattice(2, [[2, 0], [0, 3]])
    assert sub.index_in(z2) == 6
    line = Lattice(2, [[1, 0]])
    assert Lattice(2).index_in(line) is None


def test_coset_canon_is_canonical():
    lat = Lattice(2, [[2, 0], [0, 3]])
    reps = {lat.coset_canon((x, y)) for x in range(-9, 9) for y in range(-9, 9)}
    assert len(reps) == 6
    for x in range(-5, 5):
        for y in range(-5, 5):
            assert lat.coset_canon((x, y)) == lat.coset_canon((x + 2, y - 3))


def test_transversal():
    z2 = Lattice(2, [[1, 0], [0, 1]])
    sub = Lattice(2, [[2, 1], [0, 3]])
    reps = sub.transversal(z2)
    assert len(reps) == 6
    canon = {sub.coset_canon(r) for r in reps}
    assert len(canon) == 6


@st.composite
def lattice_and_coords(draw):
    """(other, C): a lattice of rank r <= n <= 3 and an r x r integer
    matrix C with det C != 0, small entries."""
    n = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3))
    other = Lattice(n, rows)
    r = other.rank
    C = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r)
             .filter(lambda c: det(c) != 0))
    return other, C


def _combine(coeffs, rows, n):
    return [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(n)]


@settings(deadline=None, max_examples=200)
@given(case=lattice_and_coords())
def test_index_and_transversal_of_a_sublattice_against_det(case):
    other, C = case
    n, r = other.n, other.rank
    S = Lattice(n, [_combine(c, other.rows, n) for c in C])
    index = S.index_in(other)
    assert index == abs(det(C))
    reps = S.transversal(other)
    assert len(reps) == index
    assert all(other.contains(x) for x in reps)
    # pairwise incongruent modulo S, and every point of other in a box is
    # congruent to one of them
    canon = {S.coset_canon(x) for x in reps}
    assert len(canon) == index
    for t in itertools.product(range(-3, 4), repeat=r):
        assert S.coset_canon(_combine(t, other.rows, n)) in canon
    # a lower-rank sublattice has infinite index
    if r:
        T = Lattice(n, [_combine(c, other.rows, n) for c in C[1:]])
        assert T.index_in(other) is None
        with pytest.raises(ValueError):
            T.transversal(other)


def test_index_in_refuses_a_non_sublattice():
    with pytest.raises(ValueError):
        Lattice(2, [[1, 0], [0, 2]]).index_in(Lattice(2, [[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        Lattice(2, [[1, 0], [0, 2]]).transversal(Lattice(2, [[2, 0], [0, 1]]))


def test_preimage_lattice():
    # map Z^2 -> Z, (x, y) -> 2x + 4y; preimage of 8Z
    M = [[2], [4]]
    L = Lattice(1, [[8]])
    pre = preimage_lattice(M, 2, L)
    for x in range(-8, 9):
        for y in range(-8, 9):
            assert pre.contains((x, y)) == ((2 * x + 4 * y) % 8 == 0)
