"""Acceptance gate: every criterion runs at full scale and must pass.

One test per criterion so failures are individually visible; each prints a
PASS/FAIL line with the measured value against its pinned tolerance.
"""

import dataclasses
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fisherband
from fisherband import acceptance, band, geodesics
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


LOADED_BY_SMOKE = """
import sys
from fisherband.acceptance import run_acceptance_suite
assert run_acceptance_suite(0, "smoke")["all_passed"]
names = [m.split(".") for m in sys.modules]
print(*sorted(".".join(n) for n in names if n[0] == "scipy" or n[:2] in (["numpy", "ma"], ["numpy", "polynomial"])))
"""


def test_smoke_suite_loads_no_scipy_masked_array_or_polynomial_module():
    # a fresh interpreter, since this one has them all through the tests' references;
    # numpy.ma alone adds 1.7 MB of resident memory
    argv = [sys.executable, "-c", LOADED_BY_SMOKE]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=pathlib.Path(fisherband.__file__).parents[1])
    assert done.stdout.split() == []


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", [1, 2]], ids=["negative", "float", "bool", "string", "sequence"])
def test_seed_not_a_non_negative_whole_number_runs_no_criterion(seed, monkeypatch):
    ran = []
    monkeypatch.setattr(acceptance, "CRITERIA", [lambda seed, scale: ran.append(seed)])
    with pytest.raises(ValueError, match="^seed must be a non-negative whole number$"):
        run_acceptance_suite(seed=seed, scale="smoke")
    assert ran == []


@pytest.mark.parametrize("scale", ["medium", "Full", None], ids=["unknown", "capitalised", "none"])
def test_scale_other_than_smoke_or_full_runs_no_criterion(scale, monkeypatch):
    ran = []
    monkeypatch.setattr(acceptance, "CRITERIA", [lambda seed, scale: ran.append(scale)])
    with pytest.raises(ValueError, match="^scale must be 'smoke' or 'full'$"):
        run_acceptance_suite(seed=0, scale=scale)
    assert ran == []


def test_numpy_integer_seed_is_recorded_as_an_int(monkeypatch):
    ran = []

    def probe(seed, scale):
        ran.append(seed)
        return CriterionResult(1, "probe", 0.0, 0.0, 0.0)

    monkeypatch.setattr(acceptance, "CRITERIA", [probe])
    verdict = run_acceptance_suite(seed=np.int64(3), scale="smoke")
    assert ran == [3] and verdict["seed"] == 3 and type(verdict["seed"]) is int


def test_criterion_6_smoke_one_dp_run_per_instance(monkeypatch):
    # each of the ten instances is one integration, from its free-motion slope
    runs = []
    real = geodesics._dp_alpha_path

    def counted(alpha1, slope, K):
        runs.append(slope)
        return real(alpha1, slope, K)

    monkeypatch.setattr(geodesics, "_dp_alpha_path", counted)
    assert acceptance.criterion_6(SEED, "smoke").passed
    assert len(runs) == 10


@pytest.mark.parametrize(
    "criterion, n_instances",
    [(acceptance.criterion_5, 20), (acceptance.criterion_6, 10)],
    ids=["criterion_5", "criterion_6"],
)
def test_one_template_per_instance(criterion, n_instances, monkeypatch):
    # the geodesic, its chart and the distance of an instance share the band's one validated template
    built = []
    real = band.Template.__post_init__

    def counted(self):
        built.append(None)
        real(self)

    monkeypatch.setattr(band.Template, "__post_init__", counted)
    assert criterion(SEED, "smoke").passed
    assert len(built) == n_instances


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


def _former_band_draws(rng, n_lo, n_hi):
    """The draws of the band helper as it was when it also built a grid: the
    grid drew nothing, so the helper must leave the generator where these do."""
    n = int(rng.integers(n_lo, n_hi + 1))
    bandwidth = float(rng.uniform(0.1, 0.5))
    gamma0 = rng.uniform(0.5, 2.0, n)
    rho0 = rng.uniform(0.1, 2.0, n)
    return n, bandwidth, gamma0, rho0


@pytest.mark.parametrize("n_lo, n_hi", [(4, 64), (8, 32), (4, 16), (32, 32)])
def test_random_band_keeps_the_draw_sequence(n_lo, n_hi):
    for seed in range(5):
        rng, former = np.random.default_rng([seed, 3]), np.random.default_rng([seed, 3])
        for _ in range(3):
            bandwidth, noise, rho0 = acceptance._random_band(rng, n_lo, n_hi)
            n, former_bandwidth, gamma0, former_rho0 = _former_band_draws(former, n_lo, n_hi)
            assert noise.n_freqs == n and bandwidth == former_bandwidth
            assert noise.gamma0.tobytes() == gamma0.tobytes() and rho0.tobytes() == former_rho0.tobytes()
            assert rng.bit_generator.state == former.bit_generator.state
        assert rng.random() == former.random()  # the draw that follows


def test_random_poly_phases_equal_polyval():
    for seed in range(50):
        freqs = np.linspace(0.05, 0.45, 4 + seed)
        psi = acceptance._random_poly_phases(np.random.default_rng(seed), freqs)
        former = np.random.default_rng(seed)
        degree = int(former.integers(0, 6))
        coeffs = np.concatenate([[former.uniform(-np.pi, np.pi)], former.normal(0.0, 4.0, degree)])
        assert psi.tobytes() == acceptance.wrap_phase(np.polynomial.polynomial.polyval(freqs, coeffs)).tobytes()
