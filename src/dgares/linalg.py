"""Exact linear algebra over the rationals.

Matrices are lists of row lists of Fractions, stored dense.  The systems
that show up here (graded strands of resolutions, Leibniz systems for a
single basis pair) are mostly zeros, so the elimination in `rref` works
only on the nonzero entries of each pivot row.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(m, n):
    return [[ZERO] * n for _ in range(m)]


def identity(n):
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = ONE
    return mat


def mat_copy(mat):
    return [row[:] for row in mat]


def mat_vec(mat, vec):
    out = []
    for row in mat:
        s = ZERO
        for c, v in zip(row, vec):
            if c and v:
                s += c * v
        out.append(s)
    return out


def rref(mat, ncols=None):
    """Reduced row echelon form, leftmost-pivot scanning.

    Only the first `ncols` columns are eligible as pivots (the rest ride
    along as augmented right-hand sides).  Returns (R, pivots) where
    pivots[j] is the pivot column of row j.
    """
    r = mat_copy(mat)
    m = len(r)
    n = len(r[0]) if m else 0
    if ncols is None:
        ncols = n
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, m):
            if r[i][col]:
                piv = i
                break
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        prow = r[row]
        # rows from `row` down are zero left of col, so the pivot row is too
        support = [j for j in range(col, n) if prow[j]]
        inv = ONE / prow[col]
        for j in support:
            prow[j] *= inv
        for i in range(m):
            c = r[i][col]
            if c and i != row:
                ri = r[i]
                for j in support:
                    ri[j] -= c * prow[j]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return r, pivots


def rank(mat):
    if not mat or not mat[0]:
        return 0
    return len(rref(mat)[1])


def nullspace(mat, n=None):
    """Basis of the right kernel, free variables set to 1 one at a time."""
    if n is None:
        n = len(mat[0]) if mat else 0
    if not mat:
        return [[ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    r, pivots = rref(mat)
    pivset = set(pivots)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        vec = [ZERO] * n
        vec[free] = ONE
        for row, pc in enumerate(pivots):
            vec[pc] = -r[row][free]
        basis.append(vec)
    return basis


def solve(mat, rhs):
    """One particular solution of mat*x = rhs (free variables 0), or None."""
    sols = solve_many(mat, [rhs])
    return sols[0]


def solve_many(mat, rhs_list):
    """Particular solutions for several right-hand sides at once.

    Returns a list parallel to rhs_list with either a solution vector
    (free variables set to 0) or None when inconsistent.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    k = len(rhs_list)
    aug = [mat[i][:] + [rhs[i] for rhs in rhs_list] for i in range(m)]
    if not aug:
        # 0 = rhs: solvable iff every rhs is the empty vector
        return [[ZERO] * n for _ in rhs_list]
    r, pivots = rref(aug, ncols=n)
    nrows = len(pivots)
    out = []
    for j in range(k):
        col = n + j
        ok = all(not r[i][col] for i in range(nrows, m))
        if not ok:
            out.append(None)
            continue
        vec = [ZERO] * n
        for row, pc in enumerate(pivots):
            vec[pc] = r[row][col]
        out.append(vec)
    return out


def in_row_space(rows, vec):
    """Is vec in the span of rows?"""
    if not any(vec):
        return True
    if not rows:
        return False
    cols = len(vec)
    mat = [[row[i] for row in rows] for i in range(cols)]
    return solve(mat, list(vec)) is not None
