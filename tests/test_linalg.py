"""Exact rational linear algebra on sparse columns."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dgares.linalg import in_span, nullspace, pivots, rank, solve, solve_many

F = Fraction


def C(rows):
    """The columns {j: {i: entry}} of a dense row-major matrix, zero
    entries left out."""
    n = len(rows[0]) if rows else 0
    return {j: {i: F(row[j]) for i, row in enumerate(rows) if row[j]} for j in range(n)}


def V(entries):
    """A dense vector as a sparse one keyed by position."""
    return {i: F(c) for i, c in enumerate(entries) if c}


def apply(cols, x):
    """cols * x as a sparse vector."""
    out = {}
    for j, c in x.items():
        for i, a in cols[j].items():
            out[i] = out.get(i, 0) + a * c
    return {i: v for i, v in out.items() if v}


def test_rref_invertible_matrix():
    cols = C([[2, 4], [1, 3]])
    assert pivots(cols) == [0, 1]
    assert nullspace(cols) == []
    # the unit vectors solve to the columns of the inverse
    assert solve_many(cols, [V([1, 0]), V([0, 1])]) == [
        {0: F(3, 2), 1: F(-1, 2)}, {0: F(-2), 1: F(1)}]


def test_rref_singular_matrix():
    cols = C([[1, 2], [2, 4]])
    assert pivots(cols) == [0]
    assert nullspace(cols) == [{0: F(-2), 1: F(1)}]


def test_rref_is_idempotent():
    # the pivot columns alone are independent: reducing them again
    # keeps every one of them
    cols = C([[1, 2, 3, 5], [4, 5, 9, 6], [7, 8, 15, 10]])
    keys = pivots(cols)
    assert keys == [0, 1, 3]
    again = {k: cols[k] for k in keys}
    assert pivots(again) == keys and nullspace(again) == []


def test_rank_basic():
    assert rank({}) == 0
    assert rank(C([[0, 0, 0], [0, 0, 0], [0, 0, 0]])) == 0
    assert rank(C([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == 4
    # outer product has rank 1
    outer = C([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    assert rank(outer) == 1


def test_nullspace_membership_and_dimension():
    a = C([[1, 1, 0, 0], [0, 0, 1, 1]])
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert apply(a, v) == {}


def test_nullspace_of_empty_matrix_is_everything():
    # three columns with no entries: every column is dependent
    basis = nullspace({0: {}, 1: {}, 2: {}})
    assert basis == [{0: F(1)}, {1: F(1)}, {2: F(1)}]


def test_solve_invertible_exact():
    a = C([[2, 1], [1, 3]])
    x = solve(a, V([1, 0]))
    assert x == {0: F(3, 5), 1: F(-1, 5)}
    assert apply(a, x) == V([1, 0])


def test_solve_inconsistent_returns_none():
    a = C([[1, 2], [2, 4]])
    assert solve(a, V([1, 3])) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    a = C([[1, 1, 1]])
    assert solve(a, V([5])) == {0: F(5)}
    # keys are the column keys, whatever they are
    assert solve({"x": {}, "y": {"r": F(2)}}, {"r": F(4)}) == {"y": F(2)}
    assert solve({}, {}) == {}
    assert solve({}, {"r": F(1)}) is None


def test_solve_many_matches_solve():
    a = C([[1, 2], [3, 4], [4, 6]])
    rhs_list = [V([1, 1, 2]), V([0, 1, 1]), V([1, 0, 0])]
    many = solve_many(a, rhs_list)
    for rhs, got in zip(rhs_list, many):
        alone = solve(a, rhs)
        assert got == alone
        if got is not None:
            assert apply(a, got) == rhs
    # the last rhs is inconsistent
    assert many[2] is None


def test_in_row_space():
    vectors = [V([1, 0, 1]), V([0, 1, 1])]
    assert in_span(vectors, V([2, 3, 5]))
    assert not in_span(vectors, V([0, 0, 1]))
    assert in_span(vectors, V([0, 0, 0]))
    assert in_span([], {})
    assert not in_span([], V([1, 0]))


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def matrices(draw, max_dim=4):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(small_fractions, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return rows


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_plus_nullity(a):
    n = len(a[0])
    cols = C(a)
    r = rank(cols)
    assert 0 <= r <= min(len(a), n)
    basis = nullspace(cols)
    assert len(basis) == n - r
    for v in basis:
        assert apply(cols, v) == {}


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_recovers_consistent_systems(a, data):
    n = len(a[0])
    cols = C(a)
    x0 = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
    rhs = apply(cols, V(x0))
    x = solve(cols, rhs)
    assert x is not None
    assert apply(cols, x) == rhs


def _dense_rref(mat, ncols):
    # reference: the plain elimination, every entry of every row updated
    r = [[F(c) for c in row] for row in mat]
    m = len(r)
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, m) if r[i][col]), None)
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        inv = 1 / r[row][col]
        r[row] = [c * inv for c in r[row]]
        for i in range(m):
            if i != row:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[row])]
        pivots.append(col)
    return r, pivots


def _sparse_matrix(rng, m, n):
    def entry():
        if rng.random() < 0.7:
            return rng.choice([0, F(0)])
        if rng.random() < 0.5:
            return rng.randint(-3, 3)
        return F(rng.randint(-5, 5), rng.randint(1, 4))

    mat = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        mat[rng.randrange(m)] = [0] * n
    if rng.random() < 0.5:
        j = rng.randrange(n)
        for row in mat:
            row[j] = F(0)
    return mat


def test_sparse_rref_agrees_with_dense_reference():
    rng = random.Random(59)
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        mat = _sparse_matrix(rng, m, n)
        cols = C(mat)
        before = {j: dict(col) for j, col in cols.items()}
        ref, ref_pivots = _dense_rref(mat, n)
        assert pivots(cols) == ref_pivots
        assert rank(cols) == len(ref_pivots)
        expected_kernel = []
        for free in (j for j in range(n) if j not in ref_pivots):
            vec = [F(0)] * n
            vec[free] = F(1)
            for row, pc in enumerate(ref_pivots):
                vec[pc] = -ref[row][free]
            expected_kernel.append(V(vec))
        assert nullspace(cols) == expected_kernel
        x0 = [rng.choice([0, 1, F(-1, 2)]) for _ in range(n)]
        rhs_list = [apply(cols, V(x0)), V([rng.choice([0, 1]) for _ in range(m)])]
        for rhs, got in zip(rhs_list, solve_many(cols, rhs_list)):
            dense_rhs = [rhs.get(i, 0) for i in range(m)]
            aug, piv = _dense_rref([row + [b] for row, b in zip(mat, dense_rhs)], n)
            if any(aug[i][n] for i in range(len(piv), m)):
                assert got is None
                continue
            vec = [F(0)] * n
            for row, pc in enumerate(piv):
                vec[pc] = aug[row][n]
            assert got == V(vec) and apply(cols, got) == rhs
        assert cols == before  # the columns are not modified
