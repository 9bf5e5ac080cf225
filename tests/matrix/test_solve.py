"""Unit tests for Gaussian elimination: inversion, rank, row selection."""

import numpy as np
import pytest

from repro.gf import GF
from repro.matrix import (
    GFMatrix,
    SingularMatrixError,
    invert,
    is_invertible,
    rank,
    reduced_row_echelon,
    select_independent_rows,
    solve,
)


@pytest.fixture(params=[8, 16, 32], ids=lambda w: f"w{w}")
def field(request):
    return GF(request.param)


def random_invertible(field, n, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        m = GFMatrix(field, rng.integers(0, field.order + 1, size=(n, n)))
        if is_invertible(m):
            return m


def test_invert_identity(field):
    i = GFMatrix.identity(field, 4)
    assert invert(i) == i


def test_invert_roundtrip(field):
    m = random_invertible(field, 5, seed=1)
    mi = invert(m)
    assert (m @ mi) == GFMatrix.identity(field, 5)
    assert (mi @ m) == GFMatrix.identity(field, 5)


def test_invert_diagonal(field):
    d = GFMatrix(field, np.diag([3, 5, 7]).astype(field.dtype))
    di = invert(d)
    expected = np.diag([int(field.inv(field.dtype.type(v))) for v in (3, 5, 7)])
    assert np.array_equal(di.array, expected.astype(field.dtype))


def test_invert_requires_pivoting(field):
    """A matrix with a zero in the leading position needs a row swap."""
    m = GFMatrix(field, np.array([[0, 1], [1, 0]], dtype=field.dtype))
    mi = invert(m)
    assert (m @ mi) == GFMatrix.identity(field, 2)


def test_invert_singular_raises(field):
    s = GFMatrix(field, np.array([[1, 1], [1, 1]], dtype=field.dtype))
    with pytest.raises(SingularMatrixError):
        invert(s)
    z = GFMatrix.zeros(field, 3, 3)
    with pytest.raises(SingularMatrixError):
        invert(z)


def test_invert_non_square_raises(field):
    with pytest.raises(ValueError):
        invert(GFMatrix.zeros(field, 2, 3))


def test_rank(field):
    assert rank(GFMatrix.identity(field, 4)) == 4
    assert rank(GFMatrix.zeros(field, 3, 5)) == 0
    # duplicate rows collapse
    row = np.array([[1, 2, 3]], dtype=field.dtype)
    m = GFMatrix(field, np.vstack([row, row, row]))
    assert rank(m) == 1


def test_rank_rectangular(field):
    m = random_invertible(field, 4, seed=2)
    wide = m.take_rows([0, 1])
    assert rank(wide) == 2


def test_reduced_row_echelon_spans_the_row_space(field):
    rng = np.random.default_rng(5)
    base = GFMatrix(field, rng.integers(0, field.order + 1, size=(3, 6)))
    # a dependent fourth row: the sum of twice row 0 and row 2
    extra = field.mul(field.dtype.type(2), base.array[0]) ^ base.array[2]
    m = GFMatrix(field, np.vstack([base.array, extra[None]]))
    pivots, basis = reduced_row_echelon(m)
    assert len(pivots) == rank(m) == 3 and basis.shape == (3, 6)
    assert np.array_equal(basis[:, pivots], field.eye(3))
    assert rank(m.vstack(GFMatrix(field, basis))) == 3
    # v lies in the row space iff v - v[pivots] @ basis is zero
    residual = extra ^ (GFMatrix(field, extra[None, pivots]) @ GFMatrix(field, basis)).array[0]
    assert not residual.any()
    outside = field.eye(6)[[c for c in range(6) if c not in pivots][0]]
    residual = outside ^ (GFMatrix(field, outside[None, pivots]) @ GFMatrix(field, basis)).array[0]
    assert residual.any()


def test_is_invertible(field):
    assert is_invertible(random_invertible(field, 3, seed=3))
    assert not is_invertible(GFMatrix.zeros(field, 2, 2))
    assert not is_invertible(GFMatrix.zeros(field, 2, 3))


def test_solve(field):
    m = random_invertible(field, 4, seed=4)
    rng = np.random.default_rng(5)
    x = rng.integers(0, field.order + 1, size=4).astype(field.dtype)
    b = m.matvec(x)
    got = solve(m, b)
    assert np.array_equal(got, x)


def test_select_independent_rows_prefers_earliest(field):
    rows = np.array(
        [[1, 0], [1, 0], [0, 1]],
        dtype=field.dtype,
    )
    m = GFMatrix(field, rows)
    assert select_independent_rows(m, 2) == [0, 2]


def test_select_independent_rows_full_default(field):
    m = random_invertible(field, 4, seed=6)
    assert select_independent_rows(m) == [0, 1, 2, 3]


def test_select_independent_rows_insufficient(field):
    rows = np.array([[1, 1], [1, 1]], dtype=field.dtype)
    with pytest.raises(SingularMatrixError):
        select_independent_rows(GFMatrix(field, rows), 2)


def test_select_independent_rows_scaled_duplicates(field):
    """Rows that are scalar multiples of each other are dependent."""
    base = np.array([1, 2, 3], dtype=field.dtype)
    scaled = GF(field.w).mul(field.dtype.type(5), base)
    other = np.array([0, 0, 1], dtype=field.dtype)
    m = GFMatrix(field, np.vstack([base, scaled, other]))
    assert select_independent_rows(m, 2) == [0, 2]


def test_invert_large(field):
    m = random_invertible(field, 24, seed=7)
    assert (m @ invert(m)) == GFMatrix.identity(field, 24)
