"""Machine-checkable acceptance criteria for the whole package.

Every criterion pins a measured quantity against an expected value at a
fixed tolerance, using independent oracles wherever one exists (Monte Carlo
metric estimation, finite-difference connection symbols, an adaptive
Dormand-Prince 5(4) shot of the geodesic equations, quadrature path lengths,
analytic limits).  ``run_acceptance_suite`` executes all of them
deterministically for a given seed and returns a JSON-ready verdict; the CLI
and the test suite both call into this module.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .band import (
    NoiseProfile,
    SignalSpectrum,
    Template,
    build_grid,
    whole_number,
    wrap_phase,
)
from .distances import (
    distance_alpha,
    distance_full,
    distance_full_embedding,
    large_phase_limits,
)
from .figures import FIGURE_CASES, run_figure_case
from .geodesics import (
    AlphaPhaseChart,
    GeodesicPath,
    alpha_geodesic_coeff_path,
    ldg_residual,
    path_length,
    sample_alpha_geodesic,
    shoot_alpha_geodesic,
    solve_alpha_geodesic,
)
from .metric import christoffel, christoffel_fd, fisher_matrix, monte_carlo_fisher, path_speed
from .models import FreeSpectrumModel, KnownMagnitudeModel, polynomial_phase

__all__ = ["CriterionResult", "run_acceptance_suite", "suite_seed", "CRITERIA"]


@dataclass
class CriterionResult:
    """One verdict; it passes when ``|measured - expected| <= tolerance``,
    which a NaN measurement never satisfies."""

    cid: int
    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool = field(init=False)
    seconds: float = 0.0
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(abs(self.measured - self.expected) <= self.tolerance)


def _worst(cid: int, name: str, errors, tolerance: float, detail: str = "") -> CriterionResult:
    """Result measuring the largest error against zero; ``np.max`` passes a NaN on."""
    return CriterionResult(cid, name, float(np.max(errors)), 0.0, tolerance, detail=detail)


def _rng(seed, cid: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), cid])


def _random_band(rng, n_lo: int, n_hi: int):
    """A band's bandwidth, noise and template on ``n_lo..n_hi`` bins; the caller
    that reads frequencies builds its grid from the bandwidth and ``noise.n_freqs``."""
    n = int(rng.integers(n_lo, n_hi + 1))
    bandwidth = float(rng.uniform(0.1, 0.5))
    noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
    rho0 = rng.uniform(0.1, 2.0, n)
    return bandwidth, noise, rho0


def _random_alpha(rng) -> float:
    return float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))


def _random_poly_phases(rng, freqs, max_degree: int = 5) -> np.ndarray:
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = np.empty(degree + 1)
    coeffs[0] = rng.uniform(-np.pi, np.pi)
    if degree:
        coeffs[1:] = rng.normal(0.0, 4.0, degree)
    return wrap_phase(polynomial_phase(coeffs, freqs))


def _random_phase_pair(rng, n: int, max_delta: float = 3.0):
    """Endpoint phases on ``n`` bins whose weighted RMS difference stays below max_delta."""
    psi1 = rng.uniform(-np.pi, np.pi, n)
    amplitude = float(rng.uniform(0.02, max_delta))
    if rng.integers(0, 2):
        dpsi = amplitude * rng.choice([-1.0, 1.0], n)  # RMS equals the amplitude
    else:
        dpsi = rng.uniform(-amplitude, amplitude, n)
    psi2 = wrap_phase(psi1 + dpsi)
    return psi1, psi2


def _plateau_criterion(cid: int, case: str, expected: float, tolerance: float) -> CriterionResult:
    rows = run_figure_case(FIGURE_CASES[case])
    window = rows[(rows[:, 0] >= 10.0) & (rows[:, 0] <= 20.0)]
    return CriterionResult(cid, f"delay-sweep plateau ({case})", float(np.mean(window[:, 3])), expected,
                           tolerance, detail=f"{len(window)} sweep points in the averaging window")


def criterion_1(seed, scale: str) -> CriterionResult:
    return _plateau_criterion(
        1, "wideband-equal", math.sqrt(1.0 - math.cos(math.pi / math.sqrt(3.0))), 0.02
    )


def criterion_2(seed, scale: str) -> CriterionResult:
    return _plateau_criterion(
        2, "wideband-gain10", math.sqrt(1.0 - (20.0 / 101.0) * math.cos(math.pi / math.sqrt(3.0))), 0.01
    )


def _both_distances(a1, a2, psi1, psi2, template: Template) -> tuple[float, float]:
    """``distance_full`` between the spectra ``a rho0`` with phases ``psi``, and
    ``distance_alpha`` of the same endpoint pair."""
    rho0 = template.rho0
    d_full = distance_full(SignalSpectrum(a1 * rho0, psi1), SignalSpectrum(a2 * rho0, psi2), template.noise)
    return d_full, distance_alpha(a1, a2, psi1, psi2, template)


def criterion_3(seed, scale: str) -> CriterionResult:
    rng = _rng(seed, 3)
    n_cases = 1000 if scale == "full" else 200
    gaps = []
    for _ in range(n_cases):
        bandwidth, noise, rho0 = _random_band(rng, 4, 64)
        freqs = build_grid(0.25, bandwidth, noise.n_freqs).freqs
        a1, a2 = _random_alpha(rng), _random_alpha(rng)
        psi1 = _random_poly_phases(rng, freqs)
        psi2 = _random_poly_phases(rng, freqs)
        d_full, d_sub = _both_distances(a1, a2, psi1, psi2, Template(noise, rho0))
        gaps.append(d_full - d_sub - 1e-12 * (1.0 + d_full))
    gaps = np.array(gaps)
    return CriterionResult(
        3,
        "submanifold distance dominates the full distance",
        float(np.count_nonzero(~(gaps <= 0.0))),  # a NaN gap is a violation too
        0.0,
        0.0,
        detail=f"worst signed slack {np.max(gaps):.3e} over {n_cases} instances",
    )


def criterion_4(seed, scale: str) -> CriterionResult:
    rng = _rng(seed, 4)
    errors = []
    for _ in range(100):
        bandwidth, noise, rho0 = _random_band(rng, 4, 64)
        a1, a2 = _random_alpha(rng), _random_alpha(rng)
        psi1 = _random_poly_phases(rng, build_grid(0.25, bandwidth, noise.n_freqs).freqs)
        shift = float(rng.uniform(-np.pi, np.pi))
        psi2 = wrap_phase(psi1 + shift)
        d_full, d_sub = _both_distances(a1, a2, psi1, psi2, Template(noise, rho0))
        errors.append(abs(d_sub - d_full) / (1.0 + d_full))
    return _worst(4, "constant phase difference makes both distances equal", errors, 1e-12)


def criterion_5(seed, scale: str) -> CriterionResult:
    rng = _rng(seed, 5)
    n_cases = 100 if scale == "full" else 20
    errors = []
    for _ in range(n_cases):
        _, noise, rho0 = _random_band(rng, 8, 32)
        template = Template(noise, rho0)
        a1, a2 = _random_alpha(rng), _random_alpha(rng)
        psi1, psi2 = _random_phase_pair(rng, noise.n_freqs)
        geo = solve_alpha_geodesic(a1, a2, psi1, psi2, template)
        path = sample_alpha_geodesic(geo, n_nodes=257)
        length = path_length(AlphaPhaseChart(template), path, n_quad=16)
        d_sub = distance_alpha(a1, a2, psi1, psi2, template)
        errors.append(abs(length - d_sub) / d_sub)
    return _worst(
        5,
        "closed-form length equals quadrature along the geodesic",
        errors,
        1e-8,
        detail=f"{n_cases} instances, 257-node adaptive sampling",
    )


def criterion_6(seed, scale: str) -> CriterionResult:
    rng = _rng(seed, 6)
    n_cases = 50 if scale == "full" else 10
    gaps = []  # (alpha, phase, relative length) per instance
    for _ in range(n_cases):
        _, noise, rho0 = _random_band(rng, 4, 16)
        template = Template(noise, rho0)
        a1, a2 = _random_alpha(rng), _random_alpha(rng)
        psi1, psi2 = _random_phase_pair(rng, noise.n_freqs)
        geo = solve_alpha_geodesic(a1, a2, psi1, psi2, template)
        shot = shoot_alpha_geodesic(a1, a2, psi1, psi2, template)
        psis = geo.psi1 + geo.phase_mix_at(shot.sigmas)[:, np.newaxis] * geo.dpsi
        shot_len = path_length(AlphaPhaseChart(template), shot, n_quad=8)
        gaps.append((
            np.max(np.abs(shot.coords[:, 0] - geo.alpha_at(shot.sigmas))),
            np.max(np.abs(shot.coords[:, 1:] - psis)),
            abs(shot_len - geo.length) / geo.length,
        ))
    worst_alpha, worst_psi, worst_len = np.max(gaps, axis=0)
    return _worst(
        6,
        "closed form matches the Dormand-Prince shooting oracle",
        [worst_alpha, worst_len],
        1e-6,
        detail=(
            f"max |alpha| gap {worst_alpha:.2e}, max phase gap {worst_psi:.2e}, "
            f"max length gap {worst_len:.2e} over {n_cases} instances"
        ),
    )


def criterion_7(seed, scale: str) -> CriterionResult:
    rng = _rng(seed, 7)
    errors = []
    for _ in range(1000):
        _, noise, _ = _random_band(rng, 4, 64)
        n = noise.n_freqs
        s1 = SignalSpectrum(rng.uniform(0.0, 3.0, n), wrap_phase(rng.uniform(-np.pi, np.pi, n)))
        s2 = SignalSpectrum(rng.uniform(0.0, 3.0, n), wrap_phase(rng.uniform(-np.pi, np.pi, n)))
        polar = distance_full(s1, s2, noise)
        embedded = distance_full_embedding(s1, s2, noise)
        errors.append(abs(polar - embedded) / max(polar, 1e-300))
    return _worst(7, "polar and embedding evaluations of the full distance agree", errors, 1e-12)


def _random_small_model(rng):
    n_bins = int(rng.integers(1, 9))
    grid = build_grid(0.25, float(rng.uniform(0.1, 0.5)), n_bins)
    noise = NoiseProfile(rng.uniform(0.5, 2.0, n_bins))
    rho0 = rng.uniform(0.5, 2.0, n_bins)
    n_phase = int(rng.integers(1, min(3, n_bins) + 1))
    coeffs = np.concatenate([[rng.uniform(-3.0, 3.0)], rng.normal(0.0, 2.0, n_phase - 1)])
    model = KnownMagnitudeModel(grid.freqs, rho0, alpha=float(rng.uniform(0.5, 2.0)), phase_coeffs=coeffs)
    return model, noise


def criterion_8(seed, scale: str) -> CriterionResult:
    rng = _rng(seed, 8)
    n_models = 10 if scale == "full" else 3
    n_samples = 100_000 if scale == "full" else 20_000
    errors = []
    for k in range(n_models):
        model, noise = _random_small_model(rng)
        xi = model.xi
        analytic = fisher_matrix(model, xi, noise).full()
        estimate, stderr = monte_carlo_fisher(model, xi, noise, n_samples, seed=[int(seed), 8, k])
        errors.append(np.max(np.abs(estimate - analytic) / np.maximum(stderr, 1e-300)))
    return _worst(
        8,
        "Monte Carlo score outer products reproduce the metric",
        errors,
        4.0,
        detail=f"worst entry deviation in standard errors, {n_models} models x {n_samples} samples",
    )


def criterion_9(seed, scale: str) -> CriterionResult:
    rng = _rng(seed, 9)
    errors = []
    for _ in range(20):
        model, noise = _random_small_model(rng)
        xi = model.xi
        exact = christoffel(model, xi, noise).values
        approx = christoffel_fd(model, xi, noise)
        errors.append(np.max(np.abs(approx - exact) / (1.0 + np.abs(exact))))
    return _worst(
        9,
        "analytic connection symbols match finite differences",
        errors,
        1e-5,
        detail="structural zeros are enforced exactly at construction",
    )


def _ldg_instance():
    """Fixed moderate instance whose coefficient differences never wrap: its
    noise, closed-form geodesic, model at the start, and endpoint coefficients."""
    grid = build_grid(0.25, 0.4, 16)
    noise = NoiseProfile(np.linspace(0.8, 1.4, 16))
    rho0 = np.linspace(0.6, 1.5, 16)
    coeffs1 = np.array([0.3, 1.0, -0.5])
    coeffs2 = np.array([0.7, 2.2, 0.3])
    psi1 = wrap_phase(polynomial_phase(coeffs1, grid.freqs))
    psi2 = wrap_phase(polynomial_phase(coeffs2, grid.freqs))
    geo = solve_alpha_geodesic(1.0, 1.6, psi1, psi2, Template(noise, rho0))
    model = KnownMagnitudeModel(grid.freqs, rho0, alpha=1.0, phase_coeffs=coeffs1)
    return noise, geo, model, coeffs1, coeffs2


def _ldg_scaled_residual(n_nodes: int) -> float:
    noise, geo, model, coeffs1, coeffs2 = _ldg_instance()
    path = alpha_geodesic_coeff_path(geo, coeffs1, coeffs2, n_nodes=n_nodes)
    return ldg_residual(model, path, noise).max_scaled


def _line_reparam_residual() -> float:
    """Scaled residual of a quadratically reparametrized embedding line."""
    n = 6
    noise = NoiseProfile.flat(1.3, n)
    rng = np.random.default_rng(20240)
    z1 = rng.uniform(0.8, 1.2, n) * np.exp(1j * rng.uniform(-0.6, 0.6, n))
    z2 = rng.uniform(0.8, 1.2, n) * np.exp(1j * rng.uniform(-0.6, 0.6, n))
    sigmas = np.linspace(0.0, 1.0, 101)
    warped = sigmas**2
    z = z1[np.newaxis, :] + warped[:, np.newaxis] * (z2 - z1)[np.newaxis, :]
    # the polar velocity of z' = 2 sigma (z2 - z1): rho' = Re(z' / z) rho, psi' = Im(z' / z)
    rate = 2.0 * sigmas[:, np.newaxis] * (z2 - z1)[np.newaxis, :] / z
    path = GeodesicPath(sigmas, np.hstack([np.abs(z), np.angle(z)]), np.hstack([rate.real * np.abs(z), rate.imag]))
    model = FreeSpectrumModel(n)
    return ldg_residual(model, path, noise).max_scaled


def criterion_10(seed, scale: str) -> CriterionResult:
    res_coarse = _ldg_scaled_residual(101)
    res_fine = _ldg_scaled_residual(201)
    order_ok = res_fine > 0.0 and res_coarse / res_fine >= 3.5
    control = _line_reparam_residual()
    threshold = 1e-4
    # the residual counts only while it refines at second order and the control stays far above it
    return CriterionResult(
        10,
        "geodesic-equation residual vanishes on the closed form",
        res_coarse if order_ok and control > 10.0 * threshold else math.inf,
        0.0,
        threshold,
        detail=(
            f"refined residual {res_fine:.3e} (ratio {res_coarse / max(res_fine, 1e-300):.1f}), "
            f"reparametrized-line control {control:.3e}"
        ),
    )


def criterion_11(seed, scale: str) -> CriterionResult:
    noise, geo, model, coeffs1, coeffs2 = _ldg_instance()
    path = alpha_geodesic_coeff_path(geo, coeffs1, coeffs2, n_nodes=41)
    speeds = path_speed(model, path.coords, path.velocities, noise)
    return _worst(11, "geodesic speed is constant and equals the length squared", np.abs(speeds / geo.speed - 1.0), 1e-8)


def criterion_12(seed, scale: str) -> CriterionResult:
    rng = _rng(seed, 12)
    n = 1000
    template = Template(NoiseProfile.flat(2.0, n), np.ones(n))
    gamma = 1.3
    a1 = math.sqrt(1.0 / template.omega0)
    a2 = gamma * a1
    psi1 = np.zeros(n)
    psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, n))
    d_full, d_sub = _both_distances(a1, a2, psi1, psi2, template)
    lim_full, lim_sub = large_phase_limits(gamma, 1.0)
    return _worst(
        12,
        "equidistributed phases reach the large-variation limits",
        [abs(d_full / lim_full - 1.0), abs(d_sub / lim_sub - 1.0)],
        0.03,
        detail=f"d_full {d_full:.4f} vs {lim_full:.4f}; d_alpha {d_sub:.4f} vs {lim_sub:.4f}",
    )


def criterion_13(seed, scale: str) -> CriterionResult:
    rng = _rng(seed, 13)
    _, noise, rho0 = _random_band(rng, 32, 32)
    a1, a2 = 0.8, 1.6
    psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, noise.n_freqs))
    psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, noise.n_freqs))
    base_full, base_sub = _both_distances(a1, a2, psi1, psi2, Template(noise, rho0))
    errors = []
    for c in (4.0, 3.7):
        scaled_full, scaled_sub = _both_distances(a1, a2, psi1, psi2, Template(noise, c * rho0))
        errors += [abs(scaled_full / (c * base_full) - 1.0), abs(scaled_sub / (c * base_sub) - 1.0)]
    return _worst(13, "template scaling multiplies both distances exactly", errors, 1e-15)


CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6, criterion_7,
    criterion_8, criterion_9, criterion_10, criterion_11, criterion_12, criterion_13,
]


def suite_seed(seed) -> int:
    """The suite's seed rule: ``seed`` as an int if it is a non-negative whole number, else a ValueError."""
    value = whole_number(seed)
    if value is None or value < 0:
        raise ValueError("seed must be a non-negative whole number")
    return value


def run_acceptance_suite(seed=0, scale: str = "full") -> dict:
    """Run every criterion at a :func:`suite_seed`; returns a JSON-ready verdict dictionary."""
    if scale not in ("smoke", "full"):
        raise ValueError("scale must be 'smoke' or 'full'")
    seed = suite_seed(seed)
    results = []
    for criterion in CRITERIA:
        start = time.perf_counter()
        result = criterion(seed, scale)
        result.seconds = time.perf_counter() - start
        results.append(result)
    return {
        "seed": seed,
        "scale": scale,
        "all_passed": all(r.passed for r in results),
        "criteria": [asdict(r) for r in results],
    }
