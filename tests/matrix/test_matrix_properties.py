"""Hypothesis property tests for GF matrix algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF
from repro.matrix import (
    GFMatrix,
    SingularMatrixError,
    invert,
    is_invertible,
    rank,
    select_and_invert,
    select_independent_rows,
    u,
)


@st.composite
def square_matrix(draw, max_n=6):
    w = draw(st.sampled_from([8, 16]))
    n = draw(st.integers(1, max_n))
    f = GF(w)
    data = draw(
        st.lists(
            st.lists(st.integers(0, f.order), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return GFMatrix(f, np.array(data, dtype=f.dtype))


@given(square_matrix())
@settings(max_examples=80)
def test_inverse_roundtrip_when_invertible(m):
    if not is_invertible(m):
        return
    identity = GFMatrix.identity(m.field, m.rows)
    assert (m @ invert(m)) == identity
    assert (invert(m) @ m) == identity


@given(square_matrix())
@settings(max_examples=80)
def test_rank_bounds(m):
    r = rank(m)
    assert 0 <= r <= m.rows
    assert (r == m.rows) == is_invertible(m)
    # rank of the transpose matches
    assert rank(m.T) == r


@given(square_matrix(), square_matrix())
@settings(max_examples=60)
def test_u_subadditive_under_product(a, b):
    """u(A@B) <= rows*cols; and matmul preserves the field."""
    if a.field is not b.field or a.cols != b.rows:
        return
    p = a @ b
    assert 0 <= u(p) <= p.rows * p.cols
    assert p.field is a.field


@given(square_matrix())
@settings(max_examples=60)
def test_addition_self_inverse(m):
    assert (m + m) == GFMatrix.zeros(m.field, m.rows, m.cols)


def _reference_select(matrix, need):
    """Reference: row selection as two passes did it, each candidate
    reduced against the kept basis one basis row at a time."""
    f = matrix.field
    basis = np.empty((0, matrix.cols), dtype=f.dtype)
    chosen = []
    for i in range(matrix.rows):
        candidate = matrix.array[i].copy()
        for brow in basis:
            pcol = int(np.nonzero(brow)[0][0])
            factor = candidate[pcol]
            if factor:
                candidate ^= f.mul(factor, brow)
        if candidate.any():
            pcol = int(np.nonzero(candidate)[0][0])
            pv = candidate[pcol]
            if pv != 1:
                candidate = f.mul(f.inv(pv), candidate)
            basis = np.vstack([basis, candidate])
            chosen.append(i)
            if len(chosen) == need:
                return chosen
    raise SingularMatrixError("not enough independent rows")


def _reference_invert(matrix):
    """Reference: column-pivoted Gauss-Jordan inversion."""
    f = matrix.field
    n = matrix.rows
    a = matrix.array.copy()
    inv = f.eye(n)
    for col in range(n):
        rows = np.nonzero(a[col:, col])[0]
        if rows.size == 0:
            raise SingularMatrixError("singular")
        pivot = col + int(rows[0])
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        pv = a[col, col]
        if pv != 1:
            scale = f.inv(pv)
            a[col] = f.mul(scale, a[col])
            inv[col] = f.mul(scale, inv[col])
        factors = a[:, col].copy()
        factors[col] = 0
        nz = np.nonzero(factors)[0]
        if nz.size:
            a[nz] ^= f.mul(factors[nz][:, None], a[col][None, :])
            inv[nz] ^= f.mul(factors[nz][:, None], inv[col][None, :])
    return GFMatrix(f, inv, copy=False)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularMatrixError:
        return SingularMatrixError


@st.composite
def tall_matrix(draw, max_cols=6):
    """Square or tall; sparse 0/1 entries and copied rows make many of
    them rank-deficient."""
    f = GF(draw(st.sampled_from([4, 8, 16])))
    cols = draw(st.integers(1, max_cols))
    rows = cols + draw(st.integers(0, 3))
    top = draw(st.sampled_from([1, f.order]))
    data = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, top), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=f.dtype,
    )
    for _ in range(draw(st.integers(0, 2))):  # scaled copies of earlier rows
        src, dst = sorted(draw(st.integers(0, rows - 1)) for _ in range(2))
        data[dst] = f.mul(draw(st.integers(1, f.order)), data[src])
    return GFMatrix(f, data)


@given(tall_matrix())
@settings(max_examples=150)
def test_one_elimination_equals_select_then_invert(m):
    want_rows = _outcome(_reference_select, m, m.cols)
    got = _outcome(select_and_invert, m)
    if want_rows is SingularMatrixError:
        assert got is SingularMatrixError
    else:
        rows, inverse = got
        assert rows == want_rows
        assert inverse == _reference_invert(m.take_rows(rows))
    for need in range(1, m.cols + 1):
        assert _outcome(select_independent_rows, m, need) == _outcome(
            _reference_select, m, need
        )
    if m.rows == m.cols:
        assert _outcome(invert, m) == _outcome(_reference_invert, m)


@given(square_matrix())
@settings(max_examples=60)
def test_matmul_distributes_over_addition(m):
    f = m.field
    rng = np.random.default_rng(42)
    b = GFMatrix(f, rng.integers(0, f.order + 1, size=(m.cols, 3)).astype(f.dtype))
    c = GFMatrix(f, rng.integers(0, f.order + 1, size=(m.cols, 3)).astype(f.dtype))
    assert (m @ (b + c)) == ((m @ b) + (m @ c))
