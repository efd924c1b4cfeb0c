import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from fisherband import (
    ChristoffelTensor,
    FisherMatrix,
    FreeSpectrumModel,
    GeodesicPath,
    KnownMagnitudeModel,
    NoiseProfile,
    band_energy,
    build_grid,
    christoffel,
    christoffel_fd,
    fisher_matrix,
    ldg_residual,
    monte_carlo_fisher,
    path_speed,
    wrap_phase,
)
from fisherband.metric import structural_mask
from fisherband.models import ParametricSignalModel


def _random_known_mag(rng, n_bins=None, n_phase=None):
    n = n_bins or int(rng.integers(2, 9))
    q = n_phase or int(rng.integers(1, min(3, n) + 1))
    grid = build_grid(0.25, float(rng.uniform(0.1, 0.5)), n)
    noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
    rho0 = rng.uniform(0.3, 2.0, n)
    coeffs = np.concatenate([[rng.uniform(-3, 3)], rng.normal(0, 2, q - 1)])
    coeffs[0] = wrap_phase(coeffs[0])
    model = KnownMagnitudeModel(grid.freqs, rho0, alpha=float(rng.uniform(0.5, 2.0)), phase_coeffs=coeffs)
    return model, noise


@dataclass(frozen=True)
class CurvedTestModel(ParametricSignalModel):
    """Toy chart with genuine curvature in both spectra, on the band ``freqs``.

    Magnitude ``(phi1 + phi2^2 nu) * base`` and phase ``q1 nu + q2^2 nu^2``:
    second partials of both spectra are non-zero, which exercises every
    connection-symbol family.  Values and Jacobians take a leading axis of
    points.
    """

    freqs: np.ndarray
    base: np.ndarray

    @property
    def n_mag_params(self):
        return 2

    @property
    def n_phase_params(self):
        return 2

    def magnitude(self, phi):
        return (phi[..., :1] + phi[..., 1:] ** 2 * self.freqs) * self.base

    def phase_unwrapped(self, varphi):
        return varphi[..., :1] * self.freqs + varphi[..., 1:] ** 2 * self.freqs**2

    def magnitude_jacobian(self, phi):
        first = np.broadcast_to(self.base, np.shape(phi)[:-1] + self.base.shape)
        return np.stack([first, 2.0 * phi[..., 1:] * self.freqs * self.base], axis=-2)

    def phase_jacobian(self, varphi):
        first = np.broadcast_to(self.freqs, np.shape(varphi)[:-1] + self.freqs.shape)
        return np.stack([first, 2.0 * varphi[..., 1:] * self.freqs**2], axis=-2)

    def magnitude_hessian(self, phi):
        h = np.zeros((2, 2, len(self.freqs)))
        h[1, 1] = 2.0 * self.freqs * self.base
        return h

    def phase_hessian(self, varphi):
        h = np.zeros((2, 2, len(self.freqs)))
        h[1, 1] = 2.0 * self.freqs**2
        return h


def _curved_instance():
    """A six-bin curved chart, its noise and a point with every family non-zero."""
    model = CurvedTestModel(build_grid(0.25, 0.3, 6).freqs, np.linspace(0.5, 1.5, 6))
    return model, NoiseProfile.flat(1.2, 6), np.array([1.1, 0.7, 0.4, -0.8])


@dataclass(frozen=True)
class InertPhaseModel(ParametricSignalModel):
    """Chart whose phase parameter has no effect: a constant (flat) metric."""

    base: np.ndarray

    @property
    def n_mag_params(self):
        return 1

    @property
    def n_phase_params(self):
        return 1

    def magnitude(self, phi):
        return phi[0] * self.base

    def phase_unwrapped(self, varphi):
        return np.zeros(len(self.base))

    def magnitude_jacobian(self, phi):
        return self.base[np.newaxis, :]

    def phase_jacobian(self, varphi):
        return np.zeros((1, len(self.base)))


class TestFisherMatrix:
    def test_known_mag_block_is_band_energy(self):
        rng = np.random.default_rng(0)
        model, noise = _random_known_mag(rng)
        fm = fisher_matrix(model, model.xi, noise)
        omega0 = band_energy(noise, model.rho0)
        assert fm.mag_block.shape == (1, 1)
        assert fm.mag_block[0, 0] == pytest.approx(omega0, rel=1e-14)

    def test_constant_phase_block(self):
        # single phase coefficient: dpsi/dq = 1, so g_qq = alpha^2 * omega0
        grid = build_grid(0.25, 0.3, 5)
        noise = NoiseProfile.flat(1.5, 5)
        rho0 = np.linspace(0.5, 1.5, 5)
        model = KnownMagnitudeModel(grid.freqs, rho0, alpha=1.8, phase_coeffs=[0.7])
        fm = fisher_matrix(model, model.xi, noise)
        omega0 = band_energy(noise, rho0)
        assert fm.phase_block[0, 0] == pytest.approx(1.8**2 * omega0, rel=1e-14)

    def test_phase_block_vanishes_with_magnitude(self):
        grid = build_grid(0.25, 0.3, 4)
        noise = NoiseProfile.flat(1.0, 4)
        model = KnownMagnitudeModel(grid.freqs, np.ones(4), alpha=1.0, phase_coeffs=[0.0])
        tiny = fisher_matrix(model, [1e-8, 0.0], noise)
        assert tiny.phase_block[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_blocks_symmetric_and_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            model, noise = _random_known_mag(rng, n_bins=8, n_phase=3)
            fm = fisher_matrix(model, model.xi, noise)
            np.testing.assert_allclose(fm.phase_block, fm.phase_block.T, rtol=1e-12)
            assert np.min(np.linalg.eigvalsh(fm.phase_block)) >= -1e-10 * np.max(
                np.abs(fm.phase_block)
            )

    def test_full_assembly_block_diagonal(self):
        rng = np.random.default_rng(9)
        model, noise = _random_known_mag(rng, n_bins=6, n_phase=2)
        full = fisher_matrix(model, model.xi, noise).full()
        assert full.shape == (3, 3)
        assert full[0, 1] == 0.0 and full[0, 2] == 0.0
        assert full[1, 0] == 0.0 and full[2, 0] == 0.0

    def test_noise_scaling(self):
        rng = np.random.default_rng(14)
        model, noise = _random_known_mag(rng, n_bins=6, n_phase=2)
        lam = 3.0
        scaled = NoiseProfile(noise.gamma0 / lam)
        base = fisher_matrix(model, model.xi, noise)
        boosted = fisher_matrix(model, model.xi, scaled)
        np.testing.assert_allclose(boosted.full(), lam * base.full(), rtol=1e-13)

    def test_attenuation_scaling_of_phase_block(self):
        rng = np.random.default_rng(15)
        model, noise = _random_known_mag(rng, n_bins=6, n_phase=3)
        xi = model.xi
        xi_scaled = xi.copy()
        xi_scaled[0] *= 2.5
        base = fisher_matrix(model, xi, noise)
        scaled = fisher_matrix(model, xi_scaled, noise)
        np.testing.assert_allclose(scaled.phase_block, 2.5**2 * base.phase_block, rtol=1e-13)
        np.testing.assert_allclose(scaled.mag_block, base.mag_block, rtol=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda model, xi, noise: fisher_matrix(model, xi, noise),
        lambda model, xi, noise: christoffel(model, xi, noise),
        lambda model, xi, noise: monte_carlo_fisher(model, xi, noise, 1000, seed=0),
    ],
    ids=["fisher_matrix", "christoffel", "monte_carlo_fisher"],
)
def test_one_point_routes_take_one_point(call):
    model, noise = _random_known_mag(np.random.default_rng(3), n_bins=4, n_phase=2)
    with pytest.raises(ValueError, match=r"^expected one point of 3 parameters, got shape \(2, 3\)$"):
        call(model, np.tile(model.xi, (2, 1)), noise)


class TestMonteCarloFisher:
    def test_single_frequency_reference_value(self):
        # rho0 = 1, gamma0 = 1, alpha = 1: the attenuation entry is 2/gamma0
        grid = build_grid(0.25, 0.1, 1)
        noise = NoiseProfile.flat(1.0, 1)
        model = KnownMagnitudeModel(grid.freqs, np.ones(1), alpha=1.0, phase_coeffs=[0.5])
        est, se = monte_carlo_fisher(model, model.xi, noise, 100_000, seed=7)
        assert abs(est[0, 0] - 2.0) < 4.0 * se[0, 0]
        # cross block is zero in expectation
        assert abs(est[0, 1]) < 4.0 * se[0, 1]

    def test_matches_analytic_small_model(self):
        rng = np.random.default_rng(21)
        model, noise = _random_known_mag(rng, n_bins=4, n_phase=3)
        analytic = fisher_matrix(model, model.xi, noise).full()
        est, se = monte_carlo_fisher(model, model.xi, noise, 60_000, seed=5)
        assert np.all(np.abs(est - analytic) <= 4.0 * np.maximum(se, 1e-300))

    def test_noise_doubling_halves_diagonal(self):
        grid = build_grid(0.25, 0.2, 2)
        model = KnownMagnitudeModel(grid.freqs, np.ones(2), alpha=1.0, phase_coeffs=[0.0])
        base, se = monte_carlo_fisher(model, model.xi, NoiseProfile.flat(1.0, 2), 50_000, seed=3)
        half, se2 = monte_carlo_fisher(model, model.xi, NoiseProfile.flat(2.0, 2), 50_000, seed=4)
        for k in range(2):
            bound = 4.0 * math.hypot(se[k, k] / 2.0, se2[k, k])
            assert abs(half[k, k] - base[k, k] / 2.0) < bound

    def test_deterministic_given_seed(self):
        grid = build_grid(0.25, 0.2, 2)
        noise = NoiseProfile.flat(1.0, 2)
        model = KnownMagnitudeModel(grid.freqs, np.ones(2), alpha=1.0, phase_coeffs=[0.0])
        a, a_se = monte_carlo_fisher(model, model.xi, noise, 2000, seed=11)
        b, b_se = monte_carlo_fisher(model, model.xi, noise, 2000, seed=11)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a_se, b_se)

    def test_gram_sums_match_outer_product_reference(self):
        # 5 bins and 4 parameters: chunks of 2**20 // (64 * 5 + 32 * 4) = 2340
        # rows, so 10000 samples run as four full chunks and one of 640
        rng = np.random.default_rng(31)
        model, noise = _random_known_mag(rng, n_bins=5, n_phase=3)
        n_samples = 10_000
        est, se = monte_carlo_fisher(model, model.xi, noise, n_samples, seed=9)
        # reference: every draw at once from the same stream, then the mean
        # of the per-sample score outer products
        phi, varphi = model.split(model.xi)
        rho = model.magnitude(phi)
        carrier = np.exp(1j * model.phase_unwrapped(varphi))
        d_sig = np.vstack(
            [model.magnitude_jacobian(phi) * carrier, 1j * rho * model.phase_jacobian(varphi) * carrier]
        )
        z = np.random.default_rng(9).standard_normal((n_samples, 2, noise.n_freqs))
        noise_draw = np.sqrt(0.5 * noise.gamma0) * (z[:, 0] + 1j * z[:, 1])
        scores = (noise_draw.conj() @ (d_sig * noise.weights).T).real
        outer = np.einsum("si,sj->sij", scores, scores)
        ref_est = outer.mean(axis=0)
        ref_se = np.sqrt(np.maximum((outer**2).mean(axis=0) - ref_est**2, 0.0) / n_samples)
        for got, ref in ((est, ref_est), (se, ref_se)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
            assert np.array_equal(got, got.T)

    def test_many_chunks_pin_the_real_stacking(self):
        # FreeSpectrumModel(64): 64 magnitude and 64 phase parameters, so chunks
        # of 2**20 // (64 * 64 + 32 * 128) = 128 rows: 9000 samples run as 70
        # full chunks and one of 40.  Reference: the complex form on every draw
        # at once from the same stream, then the Gram sums
        n = 64
        noise = NoiseProfile(np.random.default_rng(6).uniform(0.5, 2.0, n))
        model = FreeSpectrumModel(n)
        rng = np.random.default_rng(8)
        xi = np.concatenate([rng.uniform(0.5, 2.0, n), rng.uniform(-3.0, 3.0, n)])
        n_samples = 9000
        est, se = monte_carlo_fisher(model, xi, noise, n_samples, seed=13)
        phi, varphi = model.split(xi)
        carrier = np.exp(1j * model.phase_unwrapped(varphi))
        d_sig = np.vstack(
            [model.magnitude_jacobian(phi) * carrier, 1j * model.magnitude(phi) * model.phase_jacobian(varphi) * carrier]
        )
        z = np.random.default_rng(13).standard_normal((n_samples, 2, n))
        noise_draw = np.sqrt(0.5 * noise.gamma0) * (z[:, 0] + 1j * z[:, 1])
        scores = (noise_draw.conj() @ (d_sig * noise.weights).T).real
        ref_est = scores.T @ scores / n_samples
        ref_se = np.sqrt(np.maximum((scores**2).T @ scores**2 / n_samples - ref_est**2, 0.0) / n_samples)
        for got, ref in ((est, ref_est), (se, ref_se)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
        # both families carry weight: the magnitude and the phase block each near the metric
        analytic = fisher_matrix(model, xi, noise)
        for block, ref in ((est[:n, :n], analytic.mag_block), (est[n:, n:], analytic.phase_block)):
            assert np.max(np.abs(np.diag(block) / np.diag(ref) - 1.0)) < 0.1

    def test_memory_stays_within_chunk_budget(self):
        # 256 parameters: one outer-product tensor of 2000 samples alone is
        # 1 GiB; 9000 samples in 8192-row chunks would peak at about 80 MiB.
        # Chunks of 2**20 // (64 * 128 + 32 * 256) = 64 rows peak at 4.9 MiB;
        # a 32 MiB budget's 2048-row chunks peaked at 18.8 MiB
        n = 128
        noise = NoiseProfile.flat(1.0, n)
        model = FreeSpectrumModel(n)
        rng = np.random.default_rng(4)
        xi = np.concatenate([rng.uniform(0.5, 2.0, n), rng.uniform(-3.0, 3.0, n)])
        for n_samples in (2000, 9000):
            tracemalloc.start()
            try:
                est, _ = monte_carlo_fisher(model, xi, noise, n_samples, seed=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert est.shape == (2 * n, 2 * n)
            assert peak < 6 * 2**20

    def test_sample_floor(self):
        grid = build_grid(0.25, 0.2, 2)
        noise = NoiseProfile.flat(1.0, 2)
        model = KnownMagnitudeModel(grid.freqs, np.ones(2), alpha=1.0, phase_coeffs=[0.0])
        with pytest.raises(ValueError):
            monte_carlo_fisher(model, model.xi, noise, 999, seed=0)

    @pytest.mark.parametrize("n_samples", [2000.9, 2000.0, True, "2000"], ids=["fraction", "whole-float", "bool", "string"])
    def test_sample_count_must_be_a_whole_number(self, n_samples):
        # a float count drew int(n) samples and divided by n: the estimate came out low with no warning
        grid = build_grid(0.25, 0.2, 2)
        noise = NoiseProfile.flat(1.0, 2)
        model = KnownMagnitudeModel(grid.freqs, np.ones(2), alpha=1.0, phase_coeffs=[0.0])
        with pytest.raises(ValueError, match="^n_samples must be a whole number, at least 1000$"):
            monte_carlo_fisher(model, model.xi, noise, n_samples, seed=0)


class TestChristoffel:
    def test_known_mag_magnitude_family_vanishes(self):
        # the magnitude is linear in alpha, so the all-magnitude family is 0
        rng = np.random.default_rng(2)
        model, noise = _random_known_mag(rng, n_bins=6, n_phase=2)
        sym = christoffel(model, model.xi, noise)
        assert np.all(sym.values[:1, :1, :1] == 0.0)

    def test_constant_phase_reference_values(self):
        # one phase coefficient, unit jacobian: the mixed families reduce to
        # +/- alpha * omega0
        grid = build_grid(0.25, 0.3, 5)
        noise = NoiseProfile(np.linspace(0.5, 1.5, 5))
        rho0 = np.linspace(0.4, 1.2, 5)
        alpha = 1.7
        model = KnownMagnitudeModel(grid.freqs, rho0, alpha=alpha, phase_coeffs=[0.3])
        omega0 = band_energy(noise, rho0)
        sym = christoffel(model, model.xi, noise)
        assert sym.values[1, 1, 0] == pytest.approx(-alpha * omega0, rel=1e-14)
        assert sym.values[1, 0, 1] == pytest.approx(alpha * omega0, rel=1e-14)
        assert sym.values[0, 1, 1] == pytest.approx(alpha * omega0, rel=1e-14)
        # the sign relation is exact, same summand with opposite sign
        assert sym.values[1, 0, 1] == -sym.values[1, 1, 0]

    def test_structural_zeros_and_count(self):
        rng = np.random.default_rng(8)
        model, noise = _random_known_mag(rng, n_bins=8, n_phase=3)
        sym = christoffel(model, model.xi, noise)
        p, n = 1, model.n_params
        mask = structural_mask(n, p)
        assert np.all(sym.values[~mask] == 0.0)
        q = n - p
        assert int(mask.sum()) == p**3 + q**3 + 3 * p * q**2

    def test_upper_pair_symmetry_exact(self):
        model, noise, xi = _curved_instance()
        sym = christoffel(model, xi, noise)
        assert np.array_equal(sym.values, sym.values.transpose(1, 0, 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_fd_oracle_known_mag(self, seed):
        rng = np.random.default_rng(seed)
        model, noise = _random_known_mag(rng)
        exact = christoffel(model, model.xi, noise).values
        approx = christoffel_fd(model, model.xi, noise)
        assert np.max(np.abs(approx - exact) / (1.0 + np.abs(exact))) < 1e-5

    def test_fd_oracle_curved_model(self):
        # non-zero hessians light up all four symbol families
        model, noise, xi = _curved_instance()
        exact = christoffel(model, xi, noise).values
        assert np.any(exact[:2, :2, :2] != 0.0)
        assert np.any(exact[2:, 2:, 2:] != 0.0)
        approx = christoffel_fd(model, xi, noise)
        assert np.max(np.abs(approx - exact) / (1.0 + np.abs(exact))) < 1e-5

    def test_flat_metric_gives_zero_symbols(self):
        model = InertPhaseModel(np.linspace(0.5, 1.5, 4))
        noise = NoiseProfile.flat(1.0, 4)
        approx = christoffel_fd(model, [1.3, 0.2], noise)
        assert np.max(np.abs(approx)) < 1e-7

    def test_fd_symmetry_exact_by_construction(self):
        rng = np.random.default_rng(33)
        model, noise = _random_known_mag(rng, n_bins=5, n_phase=2)
        approx = christoffel_fd(model, model.xi, noise)
        assert np.array_equal(approx, approx.transpose(1, 0, 2))

    @pytest.mark.parametrize("n_bins", [1, 3, 6])
    def test_free_spectrum_matches_fd_mixed_families_only(self, n_bins):
        # rho and psi per bin: both second-partial families vanish, so only the
        # mixed families, one bin's w rho each, are non-zero
        rng = np.random.default_rng(40 + n_bins)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, n_bins))
        model = FreeSpectrumModel(n_bins)
        xi = np.concatenate([rng.uniform(0.5, 2.0, n_bins), rng.uniform(-3.0, 3.0, n_bins)])
        exact = christoffel(model, xi, noise).values
        approx = christoffel_fd(model, xi, noise)
        assert np.max(np.abs(approx - exact)) <= 1e-10 * np.max(np.abs(exact))
        p = n_bins
        assert not exact[:p, :p, :p].any() and not exact[p:, p:, p:].any()
        for block in (exact[p:, p:, :p], exact[p:, :p, p:], exact[:p, p:, p:]):
            np.testing.assert_array_equal(np.abs(block).sum(axis=(0, 1)), noise.weights * xi[:p])


    @pytest.mark.parametrize("chart", [KnownMagnitudeModel, FreeSpectrumModel])
    def test_undeclared_hessians_are_zero(self, chart):
        # a shipped chart declares no Hessian: the same symbols as explicit zero arrays, bit for bit
        class ExplicitZeros(chart):
            def magnitude_hessian(self, phi):
                return np.zeros((self.n_mag_params, self.n_mag_params, self.magnitude_jacobian(phi).shape[-1]))

            def phase_hessian(self, varphi):
                return np.zeros((self.n_phase_params, self.n_phase_params, self.phase_jacobian(varphi).shape[-1]))

        rng = np.random.default_rng(12)
        if chart is KnownMagnitudeModel:
            model, noise = _random_known_mag(rng, n_bins=7, n_phase=3)
            args, xi = (model.freqs, model.rho0, model.alpha, model.phase_coeffs), model.xi
        else:
            noise, args = NoiseProfile(rng.uniform(0.5, 2.0, 4)), (4,)
            xi = np.concatenate([rng.uniform(0.5, 2.0, 4), rng.uniform(-3.0, 3.0, 4)])
        declared = christoffel(chart(*args), xi, noise).values
        assert declared.tobytes() == christoffel(ExplicitZeros(*args), xi, noise).values.tobytes()


class TestPathSpeed:
    def test_zero_velocity(self):
        rng = np.random.default_rng(6)
        model, noise = _random_known_mag(rng, n_bins=4, n_phase=2)
        assert path_speed(model, model.xi, np.zeros(3), noise) == 0.0

    def test_pure_attenuation_motion(self):
        rng = np.random.default_rng(7)
        model, noise = _random_known_mag(rng, n_bins=6, n_phase=2)
        omega0 = band_energy(noise, model.rho0)
        rate = 0.37
        xi_dot = np.zeros(3)
        xi_dot[0] = rate
        speed = path_speed(model, model.xi, xi_dot, noise)
        assert speed == pytest.approx(omega0 * rate**2, rel=1e-14)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(8)
        model, noise = _random_known_mag(rng, n_bins=6, n_phase=3)
        xi_dot = rng.normal(size=4)
        s1 = path_speed(model, model.xi, xi_dot, noise)
        s2 = path_speed(model, model.xi, 3.0 * xi_dot, noise)
        assert s2 == pytest.approx(9.0 * s1, rel=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        model, noise = _random_known_mag(rng, n_bins=4, n_phase=2)
        with pytest.raises(ValueError):
            path_speed(model, model.xi, np.zeros(5), noise)


    @pytest.mark.parametrize("name", ["known-magnitude", "free-spectrum", "curved"])
    def test_rows_equal_row_by_row_calls(self, name):
        rng = np.random.default_rng(17)
        if name == "known-magnitude":
            model, noise = _random_known_mag(rng, n_bins=8, n_phase=3)
            points = model.xi + rng.normal(0.0, 0.1, (7, model.n_params))
        elif name == "free-spectrum":
            model, noise = FreeSpectrumModel(5), NoiseProfile(rng.uniform(0.5, 2.0, 5))
            points = np.column_stack([rng.uniform(0.5, 2.0, (7, 5)), rng.uniform(-3.0, 3.0, (7, 5))])
        else:
            model, noise, xi = _curved_instance()
            points = xi + rng.normal(0.0, 0.1, (7, 4))
        velocities = rng.normal(size=points.shape)
        speeds = path_speed(model, points, velocities, noise)
        assert speeds.shape == (7,)
        for speed, x, v in zip(speeds, points, velocities):
            assert speed == path_speed(model, x, v, noise)
            # the per-bin form is the metric's quadratic form
            assert speed == pytest.approx(v @ fisher_matrix(model, x, noise).full() @ v, rel=1e-13)

    def test_memory_does_not_grow_with_rows(self):
        # 2048 rows on 4096 bins: one unblocked (rows x bins) temporary alone is 64 MiB
        freqs = build_grid(0.25, 0.4, 4096).freqs
        model = KnownMagnitudeModel(freqs, np.ones(4096), phase_coeffs=[0.0, 1.0])
        points = np.tile(model.xi, (2048, 1))
        tracemalloc.start()
        try:
            speeds = path_speed(model, points, np.ones_like(points), NoiseProfile.flat(1.0, 4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert speeds.shape == (2048,)
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "xi_dot_shape, xi_row, xi_dot_row, message",
        [
            ((3, 4), [1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], "^velocity dimension mismatch$"),
            ((4, 3), [-1.0, 0.0, 0.0], [1.0, 1.0, 1.0], "^alpha must be positive and finite$"),
            ((4, 3), [1e200, 0.0, 0.0], [1.0, 1.0, 1.0], "^non-finite path speed at the requested point$"),
            ((4, 3), [1.0, 0.0, 0.0], [1.0, math.nan, 1.0], "^non-finite path speed at the requested point$"),
        ],
        ids=["velocity-shape", "attenuation", "overflow", "nan"],
    )
    def test_every_row_is_checked(self, xi_dot_shape, xi_row, xi_dot_row, message):
        model, noise = _random_known_mag(np.random.default_rng(9), n_bins=4, n_phase=2)
        points, velocities = np.tile(model.xi, (4, 1)), np.ones(xi_dot_shape)
        points[2] = xi_row
        velocities[2] = xi_dot_row
        with pytest.raises(ValueError, match=message):
            path_speed(model, points, velocities, noise)


def _ldg_per_node(model, path, noise):
    """The two geodesic-equation sums with one-point model calls at each node."""
    h = float(path.sigmas[1] - path.sigmas[0])
    parts = [model.split(x) for x in path.coords]
    rho = np.array([model.magnitude(phi) for phi, _ in parts])
    psi = np.array([model.phase_unwrapped(varphi) for _, varphi in parts])
    d_rho = (rho[2:] - rho[:-2]) / (2.0 * h)
    d_psi = (psi[2:] - psi[:-2]) / (2.0 * h)
    dd_rho = (rho[2:] - 2.0 * rho[1:-1] + rho[:-2]) / h**2
    dd_psi = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h**2
    w, rho_mid = noise.weights, rho[1:-1]
    mag_core = w * (dd_rho - rho_mid * d_psi**2)
    phase_core = w * (rho_mid**2 * dd_psi + 2.0 * rho_mid * d_rho * d_psi)
    mag = np.array([model.magnitude_jacobian(phi) @ core for (phi, _), core in zip(parts[1:-1], mag_core)])
    phase = np.array([model.phase_jacobian(varphi) @ core for (_, varphi), core in zip(parts[1:-1], phase_core)])
    return mag, phase, float(np.max(np.sum(w * (d_rho**2 + rho_mid**2 * d_psi**2), axis=1)))


class TestGeodesicResidual:
    def test_curved_chart_equals_the_per_node_sums(self):
        # a bent parameter path on a chart curved in both spectra: every Jacobian row moves along it
        model, noise, xi = _curved_instance()
        sigmas = np.linspace(0.0, 1.0, 21)
        coords = xi + np.outer(sigmas, [0.4, -0.3, 0.9, 0.5]) + np.outer(sigmas**2, [0.1, 0.2, -0.3, 0.1])
        velocities = np.array([0.4, -0.3, 0.9, 0.5]) + np.outer(2.0 * sigmas, [0.1, 0.2, -0.3, 0.1])
        path = GeodesicPath(sigmas, coords, velocities)
        res = ldg_residual(model, path, noise)
        mag, phase, speed_scale = _ldg_per_node(model, path, noise)
        assert res.mag.tobytes() == mag.tobytes()
        assert res.phase.tobytes() == phase.tobytes()
        assert res.speed_scale == speed_scale
        assert np.all(res.mag != 0.0) and np.all(res.phase != 0.0)


class TestNonFiniteContainers:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_named(self, bad):
        block = np.array([[2.0, bad], [bad, 2.0]])
        with pytest.raises(ValueError, match=r"^mag_block has non-finite entries$"):
            FisherMatrix(block, np.eye(1))
        with pytest.raises(ValueError, match=r"^phase_block has non-finite entries$"):
            FisherMatrix(np.eye(1), block)
        values = np.zeros((2, 2, 2))
        values[1, 1, 0] = bad
        with pytest.raises(ValueError, match=r"^non-finite connection coefficients$"):
            ChristoffelTensor(values, 1)


class TestContainerChecks:
    """Every construction check of the two containers, each named by its message."""

    @pytest.mark.parametrize(
        "block, message",
        [
            (np.ones((2, 3)), "must be square"),
            (np.ones(3), "must be square"),
            (np.array([[2.0, 1.0], [0.0, 2.0]]), "is not symmetric"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "is not positive semidefinite"),
        ],
        ids=["not-square", "not-two-dimensional", "not-symmetric", "not-psd"],
    )
    def test_fisher_blocks(self, block, message):
        with pytest.raises(ValueError, match=f"^mag_block {message}$"):
            FisherMatrix(block, np.eye(1))
        with pytest.raises(ValueError, match=f"^phase_block {message}$"):
            FisherMatrix(np.eye(1), block)

    def test_rank_deficient_blocks_are_accepted(self):
        metric = FisherMatrix(np.zeros((1, 1)), np.ones((2, 2)))
        assert metric.n_params == 3

    @staticmethod
    def _symbols():
        """A valid two-parameter tensor with every allowed family non-zero: Gamma_{q'u,q} = -Gamma_{q'q,u}."""
        values = np.zeros((2, 2, 2))
        values[0, 0, 0], values[1, 1, 1] = 0.5, 0.25
        values[1, 0, 1] = values[0, 1, 1] = 1.0
        values[1, 1, 0] = -1.0
        return values

    def test_valid_symbols_are_accepted(self):
        assert ChristoffelTensor(self._symbols(), 1).n_params == 2

    @pytest.mark.parametrize(
        "edit, n_mag, message",
        [
            (lambda v: v[:, :, :1], 1, "values must be a cubic array"),
            (lambda v: v, 0, "n_mag_params out of range"),
            (lambda v: v, 2, "n_mag_params out of range"),
            (lambda v: np.where(np.arange(8).reshape(2, 2, 2) == 3, 2.0, v), 1, "symbols are not symmetric in the upper pair"),
            (lambda v: np.where(np.arange(8).reshape(2, 2, 2) == 1, 2.0, v), 1, "structural zeros violated"),
            (lambda v: np.where(v < 0.0, 1.0, v), 1, "mixed-family sign relation violated"),
        ],
        ids=["not-cubic", "no-magnitude", "no-phase", "not-symmetric", "structural-zero", "sign-relation"],
    )
    def test_christoffel_checks(self, edit, n_mag, message):
        # flat index 3 is [0, 1, 1] alone, without its mirror [1, 0, 1]; flat index 1 is [0, 0, 1], a
        # magnitude pair with a lowered phase index, symmetric in itself
        with pytest.raises(ValueError, match=f"^{message}$"):
            ChristoffelTensor(edit(self._symbols()), n_mag)


@dataclass(frozen=True)
class NonFiniteModel(FreeSpectrumModel):
    """The free polar chart with one of its spectra or partials NaN in every entry, named by ``bad``."""

    bad: str = "magnitude"

    def _nan_if(self, name, value):
        return np.full(np.shape(value), math.nan) if name == self.bad else value

    def magnitude(self, phi):
        return self._nan_if("magnitude", super().magnitude(phi))

    def magnitude_jacobian(self, phi):
        return self._nan_if("magnitude jacobian", super().magnitude_jacobian(phi))

    def phase_jacobian(self, varphi):
        return self._nan_if("phase jacobian", super().phase_jacobian(varphi))

    def phase_hessian(self, varphi):
        return self._nan_if("phase hessian", np.zeros((self.n_bins,) * 3))


class TestNonFiniteChartData:
    """A chart whose values, partials or second partials are not finite is named before any sum is formed."""

    XI = np.array([1.0, 2.0, 0.5, -0.5])

    @pytest.mark.parametrize("bad", ["magnitude", "magnitude jacobian", "phase jacobian"])
    def test_chart_data_named(self, bad):
        with pytest.raises(ValueError, match=f"^non-finite {bad} at the requested point$"):
            fisher_matrix(NonFiniteModel(2, bad), self.XI, NoiseProfile.flat(1.0, 2))

    def test_second_partials_named(self):
        with pytest.raises(ValueError, match="^non-finite second partials at the requested point$"):
            christoffel(NonFiniteModel(2, "phase hessian"), self.XI, NoiseProfile.flat(1.0, 2))

    @pytest.mark.parametrize("where", [0, 1])
    def test_fd_step_of_a_non_finite_coordinate_named(self, where):
        xi = np.array([1.0, 0.0])
        xi[where] = math.inf
        model = KnownMagnitudeModel(np.array([0.25]), np.ones(1))
        with pytest.raises(ValueError, match="^finite-difference step underflow$"):
            christoffel_fd(model, xi, NoiseProfile.flat(2.0, 1))

    def test_fd_symbols_beyond_the_double_range_named(self):
        # one bin of weight 1e308 at alpha = 1: the metric is finite at both stencil points, but its
        # derivative along alpha is 2e308
        model = KnownMagnitudeModel(np.array([0.25]), np.array([1e154]))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="^non-finite connection coefficients$"):
            christoffel_fd(model, model.xi, NoiseProfile.flat(2.0, 1))
