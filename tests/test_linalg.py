"""Exact rational linear algebra kernels."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dgares.linalg import (
    identity,
    in_row_space,
    mat_vec,
    nullspace,
    rank,
    rref,
    solve,
    solve_many,
    zeros,
)

F = Fraction


def M(rows):
    return [[F(c) for c in row] for row in rows]


def test_identity_and_zeros_shapes():
    assert identity(3) == M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert zeros(2, 3) == M([[0, 0, 0], [0, 0, 0]])


def test_mat_mul_and_mat_vec():
    a = M([[1, 2], [3, 4]])
    assert mat_vec(a, [F(1), F(-1)]) == [F(-1), F(-1)]


def test_rref_invertible_matrix():
    r, pivots = rref(M([[2, 4], [1, 3]]))
    assert r == identity(2)
    assert pivots == [0, 1]


def test_rref_singular_matrix():
    r, pivots = rref(M([[1, 2], [2, 4]]))
    assert r == M([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_is_idempotent():
    a = M([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    r, _ = rref(a)
    again, _ = rref(r)
    assert again == r


def test_rref_respects_ncols():
    # column 2 is an augmented rhs, never a pivot
    aug = M([[0, 0, 5], [0, 0, 7]])
    r, pivots = rref(aug, ncols=2)
    assert pivots == []
    assert r == aug


def test_rank_basic():
    assert rank([]) == 0
    assert rank(zeros(3, 3)) == 0
    assert rank(identity(4)) == 4
    # outer product has rank 1
    outer = M([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    assert rank(outer) == 1


def test_nullspace_membership_and_dimension():
    a = M([[1, 1, 0, 0], [0, 0, 1, 1]])
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(a, v) == [F(0), F(0)]


def test_nullspace_of_empty_matrix_is_everything():
    basis = nullspace([], n=3)
    assert basis == identity(3)


def test_solve_invertible_exact():
    a = M([[2, 1], [1, 3]])
    x = solve(a, [F(1), F(0)])
    assert x == [F(3, 5), F(-1, 5)]
    assert mat_vec(a, x) == [F(1), F(0)]


def test_solve_inconsistent_returns_none():
    a = M([[1, 2], [2, 4]])
    assert solve(a, [F(1), F(3)]) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    a = M([[1, 1, 1]])
    x = solve(a, [F(5)])
    assert x == [F(5), F(0), F(0)]


def test_solve_many_matches_solve():
    a = M([[1, 2], [3, 4], [4, 6]])
    rhs_list = [[F(1), F(1), F(2)], [F(0), F(1), F(1)], [F(1), F(0), F(0)]]
    many = solve_many(a, rhs_list)
    for rhs, got in zip(rhs_list, many):
        alone = solve(a, rhs)
        assert got == alone
        if got is not None:
            assert mat_vec(a, got) == rhs
    # the last rhs is inconsistent
    assert many[2] is None


def test_in_row_space():
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert in_row_space(rows, [F(2), F(3), F(5)])
    assert not in_row_space(rows, [F(0), F(0), F(1)])
    assert in_row_space(rows, [F(0), F(0), F(0)])
    assert in_row_space([], [F(0), F(0)])
    assert not in_row_space([], [F(1), F(0)])


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
    r = rank(a)
    assert 0 <= r <= min(len(a), n)
    basis = nullspace(a)
    assert len(basis) == n - r
    for v in basis:
        assert all(c == 0 for c in mat_vec(a, v))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_recovers_consistent_systems(a, data):
    n = len(a[0])
    x0 = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
    rhs = mat_vec(a, x0)
    x = solve(a, rhs)
    assert x is not None
    assert mat_vec(a, x) == rhs


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
        before = [row[:] for row in mat]
        ref, ref_pivots = _dense_rref(mat, n)
        assert rref(mat) == (ref, ref_pivots)
        assert mat == before  # rref works on a copy
        assert rank(mat) == len(ref_pivots)
        expected_kernel = []
        for free in (j for j in range(n) if j not in ref_pivots):
            vec = [F(0)] * n
            vec[free] = F(1)
            for row, pc in enumerate(ref_pivots):
                vec[pc] = -ref[row][free]
            expected_kernel.append(vec)
        assert nullspace(mat) == expected_kernel
        x0 = [rng.choice([0, 1, F(-1, 2)]) for _ in range(n)]
        rhs_list = [mat_vec(mat, x0), [rng.choice([0, 1]) for _ in range(m)]]
        for rhs, got in zip(rhs_list, solve_many(mat, rhs_list)):
            aug, pivots = _dense_rref([row + [b] for row, b in zip(mat, rhs)], n)
            if any(aug[i][n] for i in range(len(pivots), m)):
                assert got is None
                continue
            vec = [F(0)] * n
            for row, pc in enumerate(pivots):
                vec[pc] = aug[row][n]
            assert got == vec and mat_vec(mat, got) == [F(b) for b in rhs]
