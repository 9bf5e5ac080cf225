"""The one elimination loop, over a stack.

``_eliminate`` runs first-wins Gauss-Jordan over ``(B, rows, cols)``
stacks; the planner feeds it every same-shape square system of a batch
and the single-matrix entry points feed it stacks of one.  Both must
give each member exactly what the per-matrix loop did.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF
from repro.matrix import GFMatrix, SingularMatrixError, select_and_invert_stack
from repro.matrix.solve import _eliminate


def _reference_eliminate(matrix: GFMatrix, need: int):
    """The per-matrix elimination loop the stacked one replaced, verbatim."""
    f = matrix.field
    cols = matrix.cols
    a = matrix.array
    aug = f.zeros((need, cols + need))
    chosen: list[int] = []
    pivots: list[int] = []
    for i in range(matrix.rows):
        k = len(chosen)
        if k == need:
            break
        row = f.zeros(cols + need)
        row[:cols] = a[i]
        row[cols + k] = 1
        factors = row[pivots]
        nz = np.flatnonzero(factors)
        if nz.size:
            row ^= np.bitwise_xor.reduce(f.mul(factors[nz][:, None], aug[nz]), axis=0)
        lead = np.flatnonzero(row[:cols])
        if not lead.size:
            continue  # in the span of the rows already kept
        pivot = int(lead[0])
        if row[pivot] != 1:
            row = f.mul(f.inv(row[pivot]), row)
        # clear the new pivot column from the kept rows (reduced form)
        above = aug[:k, pivot]
        nz = np.flatnonzero(above)
        if nz.size:
            aug[nz] ^= f.mul(above[nz][:, None], row[None, :])
        aug[k] = row
        chosen.append(i)
        pivots.append(pivot)
    if len(chosen) < need:
        raise SingularMatrixError(
            f"only {len(chosen)} independent rows available, {need} required"
        )
    return chosen, pivots, aug[:, cols:]


@st.composite
def stacks(draw, max_cols=6, max_members=5):
    """A (B, rows, cols) stack, rows >= cols: square or tall members,
    sparse 0/1 entries and copied rows making many of them singular."""
    f = GF(draw(st.sampled_from([4, 8, 16])))
    cols = draw(st.integers(1, max_cols))
    rows = cols + draw(st.integers(0, 3))
    count = draw(st.integers(1, max_members))
    members = []
    for _ in range(count):
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
        members.append(data)
    need = draw(st.integers(1, cols))
    return f, np.stack(members), need


@given(stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_elimination_matches_the_per_matrix_loop(case):
    f, stack, need = case
    chosen, pivots, transforms = _eliminate(f, stack, need)
    for b, member in enumerate(stack):
        try:
            want = _reference_eliminate(GFMatrix(f, member), need)
        except SingularMatrixError as exc:
            assert len(chosen[b]) < need
            assert str(exc) == (
                f"only {len(chosen[b])} independent rows available, {need} required"
            )
            continue
        assert chosen[b] == want[0]
        assert pivots[b].tolist() == want[1]
        assert np.array_equal(transforms[b], want[2])


@given(stacks())
@settings(max_examples=100, deadline=None)
def test_a_stack_is_its_stacks_of_one(case):
    """Stacking changes only the loop count: every member gets exactly
    the (chosen, pivots, transform) of its own stack of one."""
    f, stack, need = case
    chosen, pivots, transforms = _eliminate(f, stack, need)
    for b, member in enumerate(stack):
        (alone,), alone_pivots, alone_transform = _eliminate(f, member[None], need)
        assert chosen[b] == alone
        if len(alone) == need:
            assert np.array_equal(pivots[b], alone_pivots[0])
            assert np.array_equal(transforms[b], alone_transform[0])


def test_select_and_invert_stack_returns_each_members_outcome():
    f = GF(8)
    good = np.array([[0, 1], [1, 0], [1, 1]], dtype=f.dtype)
    singular = np.array([[1, 1], [2, 2], [3, 3]], dtype=f.dtype)
    (rows, inverse), bad, (rows2, _) = select_and_invert_stack(
        f, np.stack([good, singular, good])
    )
    assert rows == rows2 == [0, 1]
    assert GFMatrix(f, good[rows]) @ GFMatrix(f, inverse) == GFMatrix.identity(f, 2)
    assert isinstance(bad, SingularMatrixError)
    assert str(bad) == "only 1 independent rows available, 2 required"
