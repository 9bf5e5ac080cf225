"""Shared API-conformance suite: every decoder speaks the same dialect.

The redesign's contract, checked uniformly across the presets:

- constructors take keyword-only uniform parameters (``threads=``,
  ``policy=``, ``verify=``, ``counter=`` where meaningful) and reject
  positional use;
- ``decode(code, stripe, faulty)`` returns ``{block_id: region}``, and
  ``decode(..., return_stats=True)`` returns ``(recovered, stats)``
  with mult_XOR accounting;
- every decoder *is* the pipeline engine (a preset of
  :class:`repro.pipeline.DecodePipeline`), and a differential oracle
  — a test-local interpreted ``RegionOps`` walk of ``plan.stages`` —
  agrees with each of them bit for bit and op for op, for the whole
  pattern and for every kind of ``targets=`` subset of it;
- plans run only as compiled programs: there is no switch to turn that
  off.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import PPMDecoder, TraditionalDecoder
from repro.gf import OpCounter, RegionOps
from repro.pipeline import DecodePipeline
from repro.stripes import Stripe, StripeLayout, worst_case_sd

#: kind -> (class, constructor params): the presets and the engine
DECODERS: dict[str, tuple[type, dict]] = {
    "traditional": (TraditionalDecoder, {}),
    "ppm": (PPMDecoder, {"threads": 2}),
    "pipeline": (DecodePipeline, {"workers": 2, "pool": "serial"}),
}


@pytest.fixture(scope="module")
def setup():
    code = SDCode(6, 6, 2, 2)
    scen = worst_case_sd(code, z=1, rng=0)
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, 32, rng=1)
    TraditionalDecoder().encode_into(code, stripe)
    truth = stripe.copy()
    stripe.erase(scen.faulty_blocks)
    return code, list(scen.faulty_blocks), stripe, truth


def make(kind, **extra):
    cls, params = DECODERS[kind]
    return cls(**params, **extra)


def close(decoder):
    if hasattr(decoder, "close"):
        decoder.close()


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_every_decoder_is_the_pipeline_engine(kind):
    decoder = make(kind)
    try:
        assert isinstance(decoder, DecodePipeline)
    finally:
        close(decoder)


def interpreted_walk(plan, blocks, ops):
    """The oracle: ``plan.stages`` applied one matrix at a time."""
    known = dict(blocks)
    for stage in plan.stages:
        regions = [known[b] for b in stage.survivor_ids]
        for matrix in stage.arrays:
            regions = ops.matrix_apply(matrix, regions)
        known.update(zip(stage.faulty_ids, regions))
    return {b: known[b] for b in plan.targets}


def check_against_oracle(setup, kind, decoder, targets=None):
    code, faulty, stripe, truth = setup
    blocks = {b: stripe.get(b) for b in stripe.present_ids}
    try:
        recovered, stats = decoder.decode(
            code, blocks, faulty, targets=targets, return_stats=True
        )
    finally:
        close(decoder)
    oracle_ops = RegionOps(code.field)
    oracle = interpreted_walk(stats.plan, blocks, oracle_ops)
    assert sorted(recovered) == sorted(oracle) == sorted(targets or faulty)
    for b in oracle:
        assert np.array_equal(recovered[b], oracle[b]), (kind, b)
        assert np.array_equal(recovered[b], truth.get(b)), (kind, b)
    assert oracle_ops.counter.mult_xors == stats.plan.predicted_cost
    assert stats.mult_xors == stats.plan.predicted_cost
    return stats


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_differential_oracle(setup, kind):
    check_against_oracle(setup, kind, make(kind))


#: the oracle's target sets, as positions in the fixture's sorted pattern
#: (two whole disks + two sectors of SD(6,6,2,2)): one block of a group,
#: one block only H_rest recovers, a mix of both, and the whole pattern
TARGET_SHAPES = {
    "group_block": lambda code, faulty, plan: plan.groups[0].faulty_ids[:1],
    "rest_block": lambda code, faulty, plan: plan.rest.faulty_ids[-1:],
    "mixed": lambda code, faulty, plan: (
        plan.groups[0].faulty_ids[0],
        plan.groups[-1].faulty_ids[-1],
        plan.rest.faulty_ids[0],
    ),
    "all": lambda code, faulty, plan: tuple(faulty),
}

#: the engine on every pool kind, beside the presets
POOLED = {
    **DECODERS,
    "pipeline_thread": (DecodePipeline, {"workers": 2, "pool": "thread"}),
}


#: the one executor every plan runs on (a parameter only so the case ids
#: name it)
@pytest.mark.parametrize("executor", ["compiled"])
@pytest.mark.parametrize("shape", sorted(TARGET_SHAPES))
@pytest.mark.parametrize("kind", sorted(POOLED))
def test_differential_oracle_over_targets(setup, kind, shape, executor):
    from repro.core import plan_decode

    code, faulty, _stripe, _truth = setup
    cls, params = POOLED[kind]
    decoder = cls(**params)
    whole = plan_decode(code, faulty, decoder.policy)
    targets = tuple(sorted(TARGET_SHAPES[shape](code, faulty, whole)))
    stats = check_against_oracle(setup, kind, decoder, targets)
    assert stats.plan.targets == targets
    assert stats.plan.faulty_ids == tuple(faulty)
    if shape != "all":
        assert stats.plan.predicted_cost < whole.predicted_cost
        assert set(stats.plan.read_ids) <= set(whole.read_ids)


@pytest.mark.parametrize("cls", [cls for cls, _ in DECODERS.values()])
def test_constructors_are_keyword_only(cls):
    signature = inspect.signature(cls.__init__)
    for name, param in signature.parameters.items():
        if name == "self":
            continue
        assert param.kind is inspect.Parameter.KEYWORD_ONLY, (
            f"{cls.__name__}.__init__ parameter {name!r} is not keyword-only"
        )
    with pytest.raises(TypeError):
        cls("positional")


def test_pipeline_rejects_uncompiled_execution():
    with pytest.raises(ValueError, match="compile"):
        DecodePipeline(pool="serial", compile=False)


@pytest.mark.parametrize(
    "cls", [cls for cls, _ in DECODERS.values() if cls is not DecodePipeline]
)
def test_presets_take_no_compile_switch(cls):
    with pytest.raises(TypeError, match="compile"):
        cls(compile=True)


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_decode_returns_recovered_mapping(setup, kind):
    code, faulty, stripe, truth = setup
    decoder = make(kind)
    try:
        recovered = decoder.decode(code, stripe, faulty)
    finally:
        close(decoder)
    assert sorted(recovered) == sorted(faulty)
    for b in faulty:
        assert np.array_equal(recovered[b], truth.get(b)), (kind, b)


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_decode_return_stats_flag(setup, kind):
    code, faulty, stripe, truth = setup
    decoder = make(kind)
    try:
        recovered, stats = decoder.decode(code, stripe, faulty, return_stats=True)
    finally:
        close(decoder)
    assert sorted(recovered) == sorted(faulty)
    assert stats.mult_xors > 0
    assert stats.symbols > 0
    assert stats.wall_seconds >= 0.0


@pytest.mark.parametrize("kind", ["traditional", "ppm"])
def test_counter_parameter_is_uniform(setup, kind):
    code, faulty, stripe, _ = setup
    counter = OpCounter()
    decoder = make(kind, counter=counter)
    try:
        _, stats = decoder.decode(code, stripe, faulty, return_stats=True)
    finally:
        close(decoder)
    mult_xors, _, _ = counter.snapshot()
    assert mult_xors == stats.mult_xors


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_verify_parameter_is_uniform(setup, kind):
    code, faulty, stripe, truth = setup
    decoder = make(kind, verify=True)
    try:
        recovered = decoder.decode(code, stripe, faulty)
    finally:
        close(decoder)
    for b in faulty:
        assert np.array_equal(recovered[b], truth.get(b)), (kind, b)


def test_all_decoders_agree_bit_for_bit(setup):
    code, faulty, stripe, truth = setup
    outputs = {}
    for kind in sorted(DECODERS):
        decoder = make(kind)
        try:
            outputs[kind] = decoder.decode(code, stripe, faulty)
        finally:
            close(decoder)
    for kind, recovered in outputs.items():
        for b in faulty:
            assert np.array_equal(recovered[b], truth.get(b)), (kind, b)
