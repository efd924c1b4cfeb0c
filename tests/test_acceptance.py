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
from fisherband import SignalSpectrum, acceptance, band, geodesics
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


def test_criterion_6_evaluates_each_closed_form_once(monkeypatch):
    # the alpha and phase gaps read one flow at the shot's nodes
    calls = []
    real = geodesics.AlphaGeodesic.flow

    def counted(self, sigmas):
        calls.append(len(sigmas))
        return real(self, sigmas)

    monkeypatch.setattr(geodesics.AlphaGeodesic, "flow", counted)
    assert acceptance.criterion_6(SEED, "smoke").passed
    assert len(calls) == 10


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


@pytest.mark.parametrize(
    "criterion, n_instances", [(acceptance.criterion_3, 200), (acceptance.criterion_4, 100)], ids=["criterion_3", "criterion_4"]
)
def test_one_nan_distance_alpha_fails(criterion, n_instances, monkeypatch):
    # only the second row of the first call of several rows answers a NaN d_alpha; every other instance is a correct one
    rows, planted = [], []
    real = acceptance.known_mag_distances

    def one_nan(*args, **kwargs):
        d_full, d_alpha, delta = real(*args, **kwargs)
        if not planted and len(d_alpha) > 1:
            d_alpha = d_alpha.copy()
            d_alpha[1] = math.nan
            planted.append(len(rows))
        rows.append(len(d_alpha))
        return d_full, d_alpha, delta

    monkeypatch.setattr(acceptance, "known_mag_distances", one_nan)
    result = criterion(SEED, "smoke")
    assert sum(rows) == n_instances and planted
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
            bandwidth, gamma0, rho0 = acceptance._random_band(rng, n_lo, n_hi)
            n, former_bandwidth, former_gamma0, former_rho0 = _former_band_draws(former, n_lo, n_hi)
            assert len(gamma0) == n and bandwidth == former_bandwidth
            assert gamma0.tobytes() == former_gamma0.tobytes() and rho0.tobytes() == former_rho0.tobytes()
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


# The per-instance loops of criteria 3, 4 and 7 before they grouped their
# instances into rows: each instance is validated and evaluated by the
# one-band routes, in draw order.


def _per_instance_distances(a1, a2, psi1, psi2, template):
    rho0 = template.rho0
    d_full = fisherband.distance_full(SignalSpectrum(a1 * rho0, psi1), SignalSpectrum(a2 * rho0, psi2), template.noise)
    return d_full, fisherband.distance_alpha(a1, a2, psi1, psi2, template)


def _per_instance_criterion_3(seed, scale):
    rng = acceptance._rng(seed, 3)
    n_cases = 1000 if scale == "full" else 200
    gaps = []
    for _ in range(n_cases):
        bandwidth, gamma0, rho0 = acceptance._random_band(rng, 4, 64)
        freqs = band.build_grid(0.25, bandwidth, len(gamma0)).freqs
        a1, a2 = acceptance._random_alpha(rng), acceptance._random_alpha(rng)
        psi1 = acceptance._random_poly_phases(rng, freqs)
        psi2 = acceptance._random_poly_phases(rng, freqs)
        d_full, d_sub = _per_instance_distances(a1, a2, psi1, psi2, band.Template(band.NoiseProfile(gamma0), rho0))
        gaps.append(d_full - d_sub - 1e-12 * (1.0 + d_full))
    gaps = np.array(gaps)
    return float(np.count_nonzero(~(gaps <= 0.0))), f"worst signed slack {np.max(gaps):.3e} over {n_cases} instances"


def _per_instance_criterion_4(seed, scale):
    rng = acceptance._rng(seed, 4)
    errors = []
    for _ in range(100):
        bandwidth, gamma0, rho0 = acceptance._random_band(rng, 4, 64)
        a1, a2 = acceptance._random_alpha(rng), acceptance._random_alpha(rng)
        psi1 = acceptance._random_poly_phases(rng, band.build_grid(0.25, bandwidth, len(gamma0)).freqs)
        shift = float(rng.uniform(-np.pi, np.pi))
        psi2 = band.wrap_phase(psi1 + shift)
        d_full, d_sub = _per_instance_distances(a1, a2, psi1, psi2, band.Template(band.NoiseProfile(gamma0), rho0))
        errors.append(abs(d_sub - d_full) / (1.0 + d_full))
    return float(np.max(errors)), ""


def _per_instance_criterion_7(seed, scale):
    rng = acceptance._rng(seed, 7)
    errors = []
    for _ in range(1000):
        _, gamma0, _ = acceptance._random_band(rng, 4, 64)
        noise, n = band.NoiseProfile(gamma0), len(gamma0)
        s1 = SignalSpectrum(rng.uniform(0.0, 3.0, n), band.wrap_phase(rng.uniform(-np.pi, np.pi, n)))
        s2 = SignalSpectrum(rng.uniform(0.0, 3.0, n), band.wrap_phase(rng.uniform(-np.pi, np.pi, n)))
        polar = fisherband.distance_full(s1, s2, noise)
        embedded = fisherband.distance_full_embedding(s1, s2, noise)
        errors.append(abs(polar - embedded) / max(polar, 1e-300))
    return float(np.max(errors)), ""


@pytest.mark.parametrize("seed, scale", [(0, "smoke"), (1, "smoke"), (2, "smoke"), (0, "full")])
@pytest.mark.parametrize(
    "criterion, reference",
    [
        (acceptance.criterion_3, _per_instance_criterion_3),
        (acceptance.criterion_4, _per_instance_criterion_4),
        (acceptance.criterion_7, _per_instance_criterion_7),
    ],
    ids=["criterion_3", "criterion_4", "criterion_7"],
)
def test_grouped_criterion_equals_its_per_instance_loop(criterion, reference, seed, scale):
    result = criterion(seed, scale)
    measured, detail = reference(seed, scale)
    assert result.measured.hex() == measured.hex() and result.detail == detail


@pytest.mark.parametrize(
    "criterion, n_instances, most_calls",
    [(acceptance.criterion_3, 200, 70), (acceptance.criterion_7, 1000, 4 * 70)],
    ids=["criterion_3", "criterion_7"],
)
def test_random_band_criteria_evaluate_rows(criterion, n_instances, most_calls, monkeypatch):
    # one distance_full call per bin count (61 of them, 4..64) and chunk of 250 instances, not one per
    # instance: criterion 3's 200 smoke instances are one chunk, criterion 7's 1000 (at every scale) four
    rows = []
    real = acceptance.distance_full

    def counted(s1, s2, noise):
        d = real(s1, s2, noise)
        rows.append(np.size(d))
        return d

    monkeypatch.setattr(acceptance, "distance_full", counted)
    assert criterion(SEED, "smoke").passed
    assert sum(rows) == n_instances
    assert len(rows) < most_calls
