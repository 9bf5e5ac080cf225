"""Verification wired into the decoder and the CLI.

``decode(..., verify=True)`` certifies plans before executing them (and
raises on a corrupted plan coming out of the planner); ``ppm verify``
sweeps the registry and exits 0 on the shipped codebase.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import cli
from repro.codes import SDCode
from repro.core import ExecutionMode, PPMDecoder, TraditionalDecoder, plan_batch
from repro.stripes import Stripe, StripeLayout
from repro.verify import PlanVerificationError

CODE = SDCode(4, 4, 1, 1, 8)
FAULTY = [2, 6, 10, 13, 14]


def _encoded_stripe():
    stripe = Stripe.random(StripeLayout.of_code(CODE), CODE.field, 64, rng=0)
    TraditionalDecoder().encode_into(CODE, stripe)
    return stripe


@pytest.mark.parametrize(
    "decoder",
    [
        TraditionalDecoder(verify=True),
        PPMDecoder(parallel=False, verify=True),
    ],
)
def test_decode_with_verification_round_trips(decoder):
    stripe = _encoded_stripe()
    truth = stripe.copy()
    stripe.erase(FAULTY)
    recovered = decoder.decode(CODE, stripe, FAULTY)
    for b in FAULTY:
        assert np.array_equal(recovered[b], truth.get(b))


def test_decode_verify_kwarg_overrides_default():
    stripe = _encoded_stripe()
    truth = stripe.copy()
    stripe.erase(FAULTY)
    decoder = PPMDecoder(parallel=False)  # verification off by default
    recovered = decoder.decode(CODE, stripe, FAULTY, verify=True)
    for b in FAULTY:
        assert np.array_equal(recovered[b], truth.get(b))


def test_corrupted_cached_plan_is_rejected_before_execution(monkeypatch):
    from repro.pipeline import plancache

    # a planner bug: the plan's mode contradicts its costs
    def bad_plan_batch(h, patterns, policy):
        wrong = []
        for good in plan_batch(h, patterns, policy):
            mode = next(m for m in ExecutionMode if m is not good.mode)
            wrong.append(replace(good, mode=mode))
        return wrong

    monkeypatch.setattr(plancache, "plan_batch", bad_plan_batch)
    decoder = PPMDecoder(parallel=False, verify=True)
    stripe = _encoded_stripe()
    stripe.erase(FAULTY)
    with pytest.raises(PlanVerificationError, match="plan/mode-mismatch"):
        decoder.decode(CODE, stripe, FAULTY)
    assert len(decoder.plans) == 0  # nothing unverified was cached
    assert decoder.counter.mult_xors == 0  # and no region op ran


def test_verification_is_cached_per_plan(monkeypatch):
    from repro import verify

    calls = []
    certify = verify.assert_plan_valid
    monkeypatch.setattr(
        verify, "assert_plan_valid", lambda plan, h: calls.append(plan) or certify(plan, h)
    )
    decoder = PPMDecoder(parallel=False)  # certification requested per call
    plan = decoder.plan(CODE, FAULTY, verify=True)
    # second planning call reuses both the plan and its certificate
    again = decoder.plan(CODE, FAULTY, verify=True)
    assert again is plan
    assert calls == [plan]


def test_cli_verify_all_exits_zero(capsys):
    assert cli.main(["verify", "--all", "--samples", "4"]) == 0
    out = capsys.readouterr().out
    assert "all plans verified" in out


def test_cli_verify_single_code(capsys):
    rc = cli.main(["verify", "sd", "n=4", "r=4", "m=1", "s=1", "--samples", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario(s) verified" in out


def test_cli_verify_reports_pruned_plans(capsys):
    """``ppm verify`` also certifies the plans targeted reads run and says
    how many."""
    import re

    assert cli.main(["verify", "--all", "--samples", "4", "--strict"]) == 0
    out = capsys.readouterr().out
    per_code = [int(n) for n in re.findall(r"(\d+) pruned plan\(s\), \d+ compiled", out)]
    (total,) = re.findall(r"scenario\(s\), (\d+) pruned plan\(s\)", out)
    assert len(per_code) == 7 and all(per_code)
    assert int(total) == sum(per_code)
