"""Unit tests for the GF field object across all supported word sizes."""

import pickle

import numpy as np
import pytest

from repro.gf import GF

ALL_W = [4, 8, 16, 32]


@pytest.fixture(params=ALL_W, ids=lambda w: f"w{w}")
def field(request):
    return GF(request.param)


def elements(field, count=64, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, field.order + 1, size=count).astype(field.dtype)


def test_interning():
    assert GF(8) is GF(8)
    assert GF(8) is not GF(16)
    assert GF(8, 0x11D) is GF(8)


def test_pickle_roundtrip(field):
    clone = pickle.loads(pickle.dumps(field))
    assert clone is field


def test_unsupported_width():
    with pytest.raises(ValueError):
        GF(12)


def test_mul_identity_and_zero(field):
    xs = elements(field)
    one = field.dtype.type(1)
    zero = field.dtype.type(0)
    assert np.array_equal(field.mul(one, xs), xs)
    assert np.array_equal(field.mul(zero, xs), np.zeros_like(xs))
    assert field.mul(zero, zero) == 0
    assert field.mul(one, one) == 1


def test_mul_commutative(field):
    xs, ys = elements(field, seed=2), elements(field, seed=3)
    assert np.array_equal(field.mul(xs, ys), field.mul(ys, xs))


def test_mul_associative(field):
    xs, ys, zs = (elements(field, 32, seed=s) for s in (4, 5, 6))
    assert np.array_equal(
        field.mul(field.mul(xs, ys), zs), field.mul(xs, field.mul(ys, zs))
    )


def test_distributive_over_xor(field):
    xs, ys, zs = (elements(field, 32, seed=s) for s in (7, 8, 9))
    assert np.array_equal(
        field.mul(xs, ys ^ zs), field.mul(xs, ys) ^ field.mul(xs, zs)
    )


def test_inverse(field):
    xs = elements(field, seed=10)
    xs = xs[xs != 0]
    inv = field.inv(xs)
    assert np.all(field.mul(xs, inv) == 1)


def test_inv_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        field.inv(field.dtype.type(0))
    with pytest.raises(ZeroDivisionError):
        field.inv(np.array([1, 0], dtype=field.dtype))


def test_div(field):
    xs, ys = elements(field, seed=11), elements(field, seed=12)
    ys[ys == 0] = 1
    q = field.div(xs, ys)
    assert np.array_equal(field.mul(q, ys), xs)


def test_pow_matches_repeated_mul(field):
    a = field.dtype.type(2)
    acc = field.dtype.type(1)
    for e in range(10):
        assert field.pow(a, e) == acc
        acc = field.mul(acc, a)


def test_pow_zero_base(field):
    zero = field.dtype.type(0)
    assert field.pow(zero, 0) == 1  # convention: 0^0 == 1
    assert field.pow(zero, 3) == 0


def test_pow_negative_exponent(field):
    a = field.dtype.type(3)
    assert field.mul(field.pow(a, -1), a) == 1
    assert field.pow(a, -2) == field.pow(field.inv(a), 2)


def test_generator_order(field):
    """The element 2 generates the multiplicative group (primitivity)."""
    two = field.dtype.type(2)
    assert field.pow(two, field.order) == 1
    # order of 2 is exactly 2^w - 1: check via prime factors for small w
    if field.w <= 16:
        n = field.order
        factors = set()
        d, m = 2, n
        while d * d <= m:
            if m % d == 0:
                factors.add(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            factors.add(m)
        for q in factors:
            assert field.pow(two, n // q) != 1


def test_generator_powers(field):
    powers = field.generator_powers(8)
    two = field.dtype.type(2)
    for i, value in enumerate(powers):
        assert value == field.pow(two, i)
    shifted = field.generator_powers(4, start=3)
    assert shifted[0] == field.pow(two, 3)


def test_scalar_return_types(field):
    out = field.mul(field.dtype.type(3), field.dtype.type(5))
    assert np.isscalar(out) or out.ndim == 0


def test_broadcasting(field):
    a = field.dtype.type(3)
    xs = elements(field, 16, seed=13)
    col = xs.reshape(4, 4)
    assert field.mul(a, col).shape == (4, 4)
    row = xs[:4]
    assert field.mul(col, row).shape == (4, 4)


def test_zeros_eye(field):
    z = field.zeros((2, 3))
    assert z.shape == (2, 3) and z.dtype == field.dtype and not z.any()
    i = field.eye(3)
    assert i.dtype == field.dtype and np.array_equal(i, np.eye(3, dtype=field.dtype))


def test_w8_matches_mul8_table():
    f = GF(8)
    xs = np.arange(256, dtype=np.uint8)
    for a in (1, 2, 0x53, 0xFF):
        assert np.array_equal(f.mul(np.uint8(a), xs), f.mul8_table[a])


def _logexp_mul(f, a, b):
    """Reference: GF.mul's log/exp path, which w = 8 took before it
    indexed the product table."""
    a_arr, b_arr = f._as_array(a), f._as_array(b)
    scalar = a_arr.ndim == 0 and b_arr.ndim == 0
    a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
    out = f._exp[f._log[a_arr] + f._log[b_arr]]
    if out.ndim:
        zero = (a_arr == 0) | (b_arr == 0)
        out = np.where(zero, 0, out).astype(f.dtype)
    else:
        out = f.dtype.type(0 if (a_arr == 0 or b_arr == 0) else out)
    return f._ret(np.asarray(out), scalar)


def _same(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def test_w8_mul_equals_logexp_reference_exhaustively():
    f = GF(8)
    xs = np.arange(256, dtype=np.uint8)
    _same(f.mul(xs[:, None], xs[None, :]), _logexp_mul(f, xs[:, None], xs[None, :]))
    for a in range(256):
        for b in range(256):
            # every 0-d input kind: Python int, field scalar, 0-d array
            operand = (a, np.uint8(a), np.array(a, dtype=np.uint8))[b % 3]
            _same(f.mul(operand, np.uint8(b)), _logexp_mul(f, operand, np.uint8(b)))


def test_w8_mul_return_types_match_reference_on_broadcast_shapes():
    f = GF(8)
    rng = np.random.default_rng(28)
    shapes = [((), (5,)), ((5,), ()), ((5,), (5,)), ((3, 1), (1, 4)), ((2, 3), (3,)),
              ((0,), ()), ((4, 1), (4, 6))]
    for sa, sb in shapes:
        a = rng.integers(0, 256, size=sa).astype(np.uint8)
        b = rng.integers(0, 256, size=sb)  # int64: converted like any input
        _same(f.mul(a, b), _logexp_mul(f, a, b))
        _same(f.mul(a if sa else int(a), b), _logexp_mul(f, a if sa else int(a), b))


def test_w32_known_product():
    """Peasant multiply agrees with explicit polynomial arithmetic."""
    from repro.gf.polynomials import poly_mod, poly_mul

    f = GF(32)
    for a, b in [(0xDEADBEEF, 0x12345678), (2, 1 << 31), (0xFFFFFFFF, 0xFFFFFFFF)]:
        expected = poly_mod(poly_mul(a, b), f.polynomial | (0))
        assert int(f.mul(f.dtype.type(a), f.dtype.type(b))) == expected
