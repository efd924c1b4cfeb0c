"""Acceptance gate: every criterion runs at full scale and must pass.

One test per criterion so failures are individually visible; each prints a
PASS/FAIL line with the measured value against its pinned tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest

from fisherband import acceptance, geodesics
from fisherband.acceptance import CRITERIA, CriterionResult, run_acceptance_suite

SEED = 0


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_criterion_full_scale(criterion):
    result = criterion(SEED, "full")
    line = (
        f"[{'PASS' if result.passed else 'FAIL'}] criterion {result.cid}: {result.name} "
        f"measured={result.measured:.6g} expected={result.expected:.6g} "
        f"tolerance={result.tolerance:.3g}"
    )
    print(line)
    assert result.passed, line + (f" | {result.detail}" if result.detail else "")


def test_suite_verdict_shape():
    verdict = run_acceptance_suite(seed=SEED, scale="smoke")
    assert verdict["all_passed"] is True
    assert [c["cid"] for c in verdict["criteria"]] == list(range(1, 14))
    for entry in verdict["criteria"]:
        assert {"cid", "name", "measured", "expected", "tolerance", "passed", "seconds"} <= set(entry)


def test_criterion_6_smoke_one_rk4_run_per_instance(monkeypatch):
    # each of the ten instances is hit by its free-motion start at 4000 steps
    runs = []
    real = geodesics._rk4_alpha_path

    def counted(alpha1, slope, K, n_steps):
        runs.append(n_steps)
        return real(alpha1, slope, K, n_steps)

    monkeypatch.setattr(geodesics, "_rk4_alpha_path", counted)
    assert acceptance.criterion_6(SEED, "smoke").passed
    assert runs == [4000] * 10


def test_nan_measurement_fails():
    result = CriterionResult(cid=0, name="probe", measured=math.nan, expected=0.0, tolerance=1.0)
    assert result.passed is False


def test_nan_path_length_fails_criterion_5(monkeypatch):
    monkeypatch.setattr(acceptance, "path_length", lambda *args, **kwargs: math.nan)
    result = acceptance.criterion_5(SEED, "smoke")
    assert not result.passed, result


@pytest.mark.parametrize("criterion", [acceptance.criterion_3, acceptance.criterion_4], ids=lambda c: c.__name__)
def test_one_nan_distance_alpha_fails(criterion, monkeypatch):
    # only the second call answers NaN; every other instance is a correct one
    calls = []
    real = acceptance.distance_alpha

    def one_nan(*args, **kwargs):
        calls.append(None)
        return math.nan if len(calls) == 2 else real(*args, **kwargs)

    monkeypatch.setattr(acceptance, "distance_alpha", one_nan)
    result = criterion(SEED, "smoke")
    assert len(calls) > 2
    assert not result.passed, result


def test_nan_phase_residual_fails_criterion_10(monkeypatch):
    real = acceptance.ldg_residual

    def nan_phase(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, phase=np.full_like(res.phase, math.nan))

    monkeypatch.setattr(acceptance, "ldg_residual", nan_phase)
    result = acceptance.criterion_10(SEED, "smoke")
    assert not result.passed, result
