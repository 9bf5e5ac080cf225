"""Unit tests for GFMatrix construction, structure and arithmetic."""

import numpy as np
import pytest

from repro.gf import GF
from repro.matrix import GFMatrix, gfmatrix, matmul_stack


@pytest.fixture(params=[8, 16, 32], ids=lambda w: f"w{w}")
def field(request):
    return GF(request.param)


def random_matrix(field, rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return GFMatrix(field, rng.integers(0, field.order + 1, size=(rows, cols)))


def test_construction_copies_by_default(field):
    src = field.zeros((2, 2))
    m = GFMatrix(field, src)
    src[0, 0] = 1
    assert m[0, 0] == 0


def test_construction_rejects_bad_shapes(field):
    with pytest.raises(ValueError):
        GFMatrix(field, field.zeros(3))
    with pytest.raises(ValueError):
        GFMatrix(field, np.zeros((2, 2, 2), dtype=field.dtype))


def test_construction_coerces_dtype():
    f = GF(8)
    m = GFMatrix(f, [[1, 2], [3, 4]])
    assert m.array.dtype == f.dtype


def test_entries_validated():
    f = GF(4)
    with pytest.raises(ValueError):
        GFMatrix(f, np.array([[200]], dtype=np.int64))


def test_zeros_identity(field):
    z = GFMatrix.zeros(field, 2, 3)
    assert z.shape == (2, 3) and z.nonzero_count == 0
    i = GFMatrix.identity(field, 3)
    assert i.nonzero_count == 3
    assert i[1, 1] == 1 and i[0, 1] == 0


def test_from_rows(field):
    m = GFMatrix.from_rows(field, [[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m[1, 0] == 3


def test_equality_and_hash(field):
    a = random_matrix(field, 3, 3, seed=1)
    b = GFMatrix(field, a.array)
    assert a == b
    assert hash(a) == hash(b)
    b[0, 0] ^= 1
    assert a != b
    assert (a == "nope") is False or True  # NotImplemented path does not raise


def test_take_rows_columns(field):
    m = random_matrix(field, 4, 5, seed=2)
    r = m.take_rows([2, 0])
    assert r.shape == (2, 5)
    assert np.array_equal(r.array[0], m.array[2])
    c = m.take_columns([4, 1])
    assert c.shape == (4, 2)
    assert np.array_equal(c.array[:, 0], m.array[:, 4])


def test_take_is_independent_copy(field):
    m = random_matrix(field, 3, 3, seed=3)
    r = m.take_rows([0])
    r[0, 0] ^= 1
    assert m[0, 0] != r[0, 0]


def test_stacking(field):
    a = random_matrix(field, 2, 3, seed=4)
    b = random_matrix(field, 2, 2, seed=5)
    h = a.hstack(b)
    assert h.shape == (2, 5)
    c = random_matrix(field, 1, 3, seed=6)
    v = a.vstack(c)
    assert v.shape == (3, 3)


def test_stacking_field_mismatch():
    a = GFMatrix.zeros(GF(8), 1, 1)
    b = GFMatrix.zeros(GF(16), 1, 1)
    with pytest.raises(ValueError):
        a.hstack(b)
    with pytest.raises(ValueError):
        a.vstack(b)


def test_addition_is_xor(field):
    a = random_matrix(field, 2, 2, seed=7)
    b = random_matrix(field, 2, 2, seed=8)
    s = a + b
    assert np.array_equal(s.array, a.array ^ b.array)
    # subtraction == addition in characteristic 2
    assert (s - b) == a


def test_addition_shape_mismatch(field):
    with pytest.raises(ValueError):
        random_matrix(field, 2, 2) + random_matrix(field, 2, 3)


def test_scale(field):
    m = random_matrix(field, 2, 2, seed=9)
    s = m.scale(1)
    assert s == m
    z = m.scale(0)
    assert z.nonzero_count == 0


def test_matmul_identity(field):
    m = random_matrix(field, 3, 3, seed=10)
    i = GFMatrix.identity(field, 3)
    assert (m @ i) == m
    assert (i @ m) == m


def test_matmul_associative(field):
    a = random_matrix(field, 2, 3, seed=11)
    b = random_matrix(field, 3, 4, seed=12)
    c = random_matrix(field, 4, 2, seed=13)
    assert ((a @ b) @ c) == (a @ (b @ c))


def test_matmul_against_reference(field):
    """Compare the vectorised matmul with a scalar triple loop."""
    a = random_matrix(field, 3, 4, seed=14)
    b = random_matrix(field, 4, 2, seed=15)
    got = (a @ b).array
    want = field.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = field.dtype.type(0)
            for k in range(4):
                acc ^= field.mul(a[i, k], b[k, j])
            want[i, j] = acc
    assert np.array_equal(got, want)


def test_matmul_shape_checks(field):
    with pytest.raises(ValueError):
        random_matrix(field, 2, 3) @ random_matrix(field, 2, 3)
    a = GFMatrix.zeros(GF(8), 2, 2)
    b = GFMatrix.zeros(GF(16), 2, 2)
    with pytest.raises(ValueError):
        a @ b


def test_matvec(field):
    m = random_matrix(field, 3, 3, seed=16)
    v = np.array([1, 0, 2], dtype=field.dtype)
    got = m.matvec(v)
    want = m.array[:, 0] ^ field.mul(field.dtype.type(2), m.array[:, 2])
    assert np.array_equal(got, want)


def test_transpose(field):
    m = random_matrix(field, 2, 4, seed=17)
    t = m.T
    assert t.shape == (4, 2)
    assert np.array_equal(t.array, m.array.T)


def test_array_view_readonly(field):
    m = random_matrix(field, 2, 2, seed=18)
    with pytest.raises(ValueError):
        m.array[0, 0] = 1


def _reference_matmul(a: GFMatrix, b: GFMatrix) -> np.ndarray:
    """The per-column product loop the broadcast one replaced."""
    f = a.field
    out = f.zeros((a.rows, b.cols))
    for k in range(a.cols):
        np.bitwise_xor(out, f.mul(a.array[:, k][:, None], b.array[k, :][None, :]), out=out)
    return out


@pytest.mark.parametrize("w", [4, 8, 16, 32])
@pytest.mark.parametrize(
    "shape",
    [(3, 4, 5), (1, 1, 1), (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (40, 30, 50)],
)
def test_matmul_matches_the_per_column_loop(w, shape):
    f = GF(w)
    rng = np.random.default_rng(sum(shape) + w)
    rows, inner, cols = shape

    def draw(r, c):
        return GFMatrix(f, rng.integers(0, f.order + 1, size=(r, c), dtype=np.uint64))

    a, b = draw(rows, inner), draw(inner, cols)
    assert np.array_equal((a @ b).array, _reference_matmul(a, b))


def test_matmul_row_blocks_bound_the_temporary(monkeypatch):
    # 40 x 30 @ 30 x 50 in blocks of 2 rows: the same product, and no
    # broadcast multiply holds more than the block
    monkeypatch.setattr(gfmatrix, "MATMUL_BLOCK", 30 * 50 * 2)
    f = GF(8)
    rng = np.random.default_rng(7)
    a = GFMatrix(f, rng.integers(0, 256, size=(40, 30)))
    b = GFMatrix(f, rng.integers(0, 256, size=(30, 50)))
    want = _reference_matmul(a, b)
    sizes = []
    real_mul = f.mul

    def mul(x, y):
        product = real_mul(x, y)
        sizes.append(product.size)
        return product

    monkeypatch.setattr(f, "mul", mul)
    assert np.array_equal((a @ b).array, want)
    assert sizes == [gfmatrix.MATMUL_BLOCK] * 20


@pytest.mark.parametrize("block, most", [(200, 200), (20, 50)])
def test_matmul_k_blocks_bound_the_temporary(monkeypatch, block, most):
    # k * cols above the block: k is cut too, so no broadcast multiply
    # holds more than the block, or one 50-symbol row of b when longer
    monkeypatch.setattr(gfmatrix, "MATMUL_BLOCK", block)
    f = GF(8)
    rng = np.random.default_rng(11)
    a = GFMatrix(f, rng.integers(0, 256, size=(7, 30)))
    b = GFMatrix(f, rng.integers(0, 256, size=(30, 50)))
    want = _reference_matmul(a, b)
    sizes = []
    real_mul = f.mul

    def mul(x, y):
        product = real_mul(x, y)
        sizes.append(product.size)
        return product

    monkeypatch.setattr(f, "mul", mul)
    assert np.array_equal((a @ b).array, want)
    assert max(sizes) == most
    assert sum(sizes) == 7 * 30 * 50  # every product made exactly once


@pytest.mark.parametrize("w", [4, 8, 16, 32])
@pytest.mark.parametrize(
    "shape",  # (members, rows, inner, cols)
    [(5, 3, 4, 6), (1, 1, 1, 1), (3, 1, 1, 1), (3, 2, 3, 0), (3, 2, 0, 4), (2, 0, 3, 4),
     (0, 2, 3, 4), (16, 18, 18, 62)],
)
def test_matmul_stack_equals_each_members_product(w, shape):
    f = GF(w)
    rng = np.random.default_rng(sum(shape) + w)
    count, rows, inner, cols = shape
    a = rng.integers(0, f.order + 1, size=(count, rows, inner), dtype=np.uint64).astype(f.dtype)
    b = rng.integers(0, f.order + 1, size=(count, inner, cols), dtype=np.uint64).astype(f.dtype)
    product = matmul_stack(f, a, b)
    assert product.shape == (count, rows, cols) and product.dtype == f.dtype
    for member, x, y in zip(product, a, b):
        x, y = GFMatrix(f, x), GFMatrix(f, y)
        assert np.array_equal(member, (x @ y).array)
        assert np.array_equal(member, _reference_matmul(x, y))


def test_matmul_stack_member_blocks_bound_the_temporary(monkeypatch):
    # 12 members of 3 x 4 @ 4 x 5 in blocks of 120 products: a block
    # holds six rows, so each multiply covers two whole members
    monkeypatch.setattr(gfmatrix, "MATMUL_BLOCK", 120)
    f = GF(8)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, size=(12, 3, 4)).astype(f.dtype)
    b = rng.integers(0, 256, size=(12, 4, 5)).astype(f.dtype)
    sizes = []
    real_mul = f.mul

    def mul(x, y):
        product = real_mul(x, y)
        sizes.append(product.size)
        return product

    monkeypatch.setattr(f, "mul", mul)
    product = matmul_stack(f, a, b)
    monkeypatch.setattr(f, "mul", real_mul)
    for member, x, y in zip(product, a, b):
        assert np.array_equal(member, _reference_matmul(GFMatrix(f, x), GFMatrix(f, y)))
    assert sizes == [120] * 6
    assert sum(sizes) == 12 * 3 * 4 * 5  # every product made exactly once
