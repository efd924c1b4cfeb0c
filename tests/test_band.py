import csv
import dataclasses
import inspect
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fisherband import (
    BLOCK,
    FreeSpectrumModel,
    FrequencyGrid,
    KnownMagnitudeModel,
    NoiseProfile,
    Observation,
    SignalSpectrum,
    Template,
    band_energy,
    build_grid,
    check_attenuation,
    distance_alpha,
    distance_full,
    distance_full_embedding,
    fisher_matrix,
    in_range,
    is_real_number,
    known_mag_distances,
    ldg_residual,
    load_band_csv,
    log_likelihood,
    path_speed,
    phase_rms_diff,
    readonly,
    row_blocks,
    sample_observation,
    save_band_csv,
    scaled_chord,
    shoot_alpha_geodesic,
    small_phase_equivalent,
    solve_alpha_geodesic,
    straight_line_geodesic,
    unscale,
    wrap_phase,
    write_csv,
)


class TestWrapPhase:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (3 * math.pi / 2, -math.pi / 2),
            (math.pi, math.pi),  # upper bound included
            (-math.pi, math.pi),  # lower bound excluded
            (0.0, 0.0),
            (2 * math.pi, 0.0),
            (-2 * math.pi, 0.0),
            (4 * math.pi, 0.0),
        ],
    )
    def test_boundary_cases_exact(self, theta, expected):
        assert wrap_phase(theta) == expected

    def test_polynomial_sum_of_pi_multiples(self):
        # pi + 4*pi*0.5 evaluates to the float 3*pi; the independent oracle
        # is the angle of the unit phasor
        theta = math.pi + 4 * math.pi * 0.5
        assert theta == 3 * math.pi
        oracle = np.angle(np.exp(1j * theta))
        got = wrap_phase(theta)
        assert -math.pi < got <= math.pi
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(math.pi, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            wrap_phase(float("nan"))
        with pytest.raises(ValueError):
            wrap_phase(np.array([0.0, np.inf]))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_range_and_idempotence(self, theta):
        w = wrap_phase(theta)
        assert -math.pi < w <= math.pi
        assert wrap_phase(w) == w  # bit-exact on in-range values

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    def test_congruent_mod_two_pi(self, theta):
        w = wrap_phase(theta)
        k = (theta - w) / (2 * math.pi)
        assert abs(k - round(k)) < 1e-9

    def test_array_matches_scalar(self):
        thetas = np.linspace(-12.0, 12.0, 101)
        arr = wrap_phase(thetas)
        assert arr.shape == thetas.shape
        for t, w in zip(thetas, arr):
            assert wrap_phase(float(t)) == w

    @staticmethod
    def _legacy(theta):
        # the rounding formula with its two boundary corrections, which alone
        # reduced angles up to about 1e17
        w = theta - 2 * np.pi * np.round(theta / (2 * np.pi))
        w = np.where(w <= -np.pi, w + 2 * np.pi, w)
        return np.where(w > np.pi, w - 2 * np.pi, w)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e15, max_value=1.7e308), st.sampled_from([-1.0, 1.0]))
    @example(1.7e308, 1.0)
    @example(1e21, -1.0)
    def test_huge_angles_in_range_without_warnings(self, magnitude, sign):
        theta = sign * magnitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = wrap_phase(theta)
            arr = wrap_phase(np.array([theta, -theta, 1.0]))
        assert -math.pi < w <= math.pi
        assert np.all((arr > -math.pi) & (arr <= math.pi))
        assert arr[0] == w and arr[2] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e15, max_value=1e15, exclude_min=True, exclude_max=True), min_size=1, max_size=20
        ),
        st.lists(st.floats(min_value=1e15, max_value=1.7e308), max_size=5),
    )
    @example([0.5, -3.0 * math.pi, 1e14], [1.7e308])
    def test_bitwise_below_1e15_beside_huge(self, small, huge):
        # the fallback for huge angles leaves every other element of the
        # same array bit for bit as the rounding formula had it
        thetas = np.array(small + huge)
        w = wrap_phase(thetas)
        np.testing.assert_array_equal(w[: len(small)], self._legacy(np.array(small)))
        assert np.all((w > -math.pi) & (w <= math.pi))
        assert wrap_phase(thetas[0]) == self._legacy(thetas[0])

    def test_in_range_arrays_come_back_as_a_new_array_plus_zero(self):
        edges = [math.pi, -0.0, 0.0, 5e-324, -5e-324, np.nextafter(-math.pi, 0.0), np.nextafter(math.pi, 0.0)]
        thetas = np.concatenate([np.random.default_rng(11).uniform(-math.pi, math.pi, 10**4), edges])
        w = wrap_phase(thetas)
        assert w is not thetas
        assert w.tobytes() == (thetas + 0.0).tobytes() == self._legacy(thetas).tobytes()
        assert not np.signbit(w[-6])  # -0.0 -> +0.0, as the rounding formula gives

    @pytest.mark.parametrize(
        "thetas",
        [
            [math.pi],
            [-math.pi],
            [math.pi, -math.pi],
            [np.nextafter(-math.pi, 0.0), math.pi],
            [np.nextafter(math.pi, 4.0), np.nextafter(-math.pi, -4.0)],
        ],
    )
    def test_pi_boundaries_in_arrays(self, thetas):
        w = wrap_phase(np.array(thetas))
        assert np.all((w > -math.pi) & (w <= math.pi))
        assert w.tobytes() == self._legacy(np.array(thetas)).tobytes()
        assert list(w) == [wrap_phase(t) for t in thetas]

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_array(self, shape):
        w = wrap_phase(np.zeros(shape))
        assert w.shape == shape and w.dtype == float

    @pytest.mark.parametrize("theta", [0.5, 7.0, np.float64(-4.0), np.array(7.0), np.array(-0.0), 3])
    def test_scalars_and_zero_dim_arrays_return_a_float(self, theta):
        w = wrap_phase(theta)
        assert type(w) is float
        assert w == float(self._legacy(np.asarray(theta, dtype=float))) and not math.copysign(1.0, w) < 0.0

    @pytest.mark.parametrize(
        "theta",
        [math.nan, math.inf, -math.inf, np.array(math.nan), np.array([0.5, math.nan, 9.0]), np.array([math.inf, -math.inf])],
    )
    def test_non_finite_raise_without_warnings(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                wrap_phase(theta)


class TestGrid:
    def test_reference_band(self):
        # the canonical demo band: 1000 bins on (0, 0.5) around 0.25
        grid = build_grid(0.25, 0.5, 1000)
        assert grid.n_freqs == 1000
        assert grid.freqs[0] == pytest.approx(0.00025)
        assert grid.freqs[-1] == pytest.approx(0.49975)
        assert np.all(grid.freqs > 0)
        assert np.diff(grid.freqs) == pytest.approx(np.full(999, 5e-4))

    def test_four_bin_band_frozen(self):
        # direct arithmetic: start 0.125, step 0.0625, centres at half-steps
        grid = build_grid(0.25, 0.25, 4)
        np.testing.assert_allclose(grid.freqs, [0.15625, 0.21875, 0.28125, 0.34375], rtol=0, atol=0)

    def test_single_bin_band(self):
        grid = build_grid(0.25, 1e-9, 1)
        assert grid.n_freqs == 1
        assert grid.freqs[0] == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize(
        "nu0,bw,n",
        [(0.25, 0.6, 100), (0.25, -0.1, 4), (0.25, 0.2, 0), (0.1, 0.5, 8)],
    )
    def test_bad_construction(self, nu0, bw, n):
        with pytest.raises(ValueError):
            build_grid(nu0, bw, n)

    def test_equispacing_enforced(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([0.1, 0.2, 0.4]))
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([0.3, 0.2, 0.1]))

    def test_grid_is_its_freqs(self):
        grid = build_grid(0.3, 0.2, 16)
        assert [f.name for f in dataclasses.fields(FrequencyGrid)] == ["freqs"]
        again = FrequencyGrid(grid.freqs)
        assert again.freqs.tobytes() == grid.freqs.tobytes() and not again.freqs.flags.writeable
        # the band is still read from the frequencies: their centre and n times their step
        n, f = again.n_freqs, again.freqs
        assert 0.5 * (f[0] + f[-1]) == pytest.approx(0.3, rel=1e-15)
        assert (f[-1] - f[0]) / (n - 1) * n == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("n_freqs", [16.9, 16.0, 2.5, np.float64(3.0), True, "16", None])
    def test_n_freqs_must_be_whole(self, n_freqs):
        with _raises_exactly("n_freqs must be a whole number"):
            build_grid(0.25, 0.2, n_freqs)

    def test_integer_n_freqs_of_any_type(self):
        assert build_grid(0.25, 0.2, np.int64(16)).freqs.tobytes() == build_grid(0.25, 0.2, 16).freqs.tobytes()

    @pytest.mark.parametrize(
        "n_freqs, cause",
        [(10**400, "int too large to convert to float"), (10**12, "Unable to allocate 7.28 TiB"),
         (10**19, "Maximum allowed size exceeded")],
        ids=["401-digits", "7-TiB", "past-intp"],
    )
    def test_n_freqs_too_large_named(self, n_freqs, cause):
        # numpy refuses each size before it allocates anything
        with pytest.raises(ValueError, match=rf"^n_freqs is too large for a grid \({cause}") as failure:
            build_grid(0.25, 0.2, n_freqs)
        assert "\n" not in str(failure.value)

    @pytest.mark.parametrize(
        "freqs, message",
        [([0.1, 0.2, 0.4], "frequencies must be equispaced"),
         ([0.3, 0.2, 0.1], "frequencies must be strictly increasing"),
         ([0.1, 0.3, 0.2, 0.4], "frequencies must be strictly increasing"),  # uneven too: increase is checked first
         ([0.1, 0.2, 0.2, 0.3], "frequencies must be strictly increasing")],
    )
    def test_step_messages_in_order(self, freqs, message):
        with _raises_exactly(message):
            FrequencyGrid(np.array(freqs))

    def test_equispacing_rule_at_its_threshold(self):
        # one min/max pair decides both step checks: the largest |step - mean| is
        # at an extreme step, so the verdict equals the all-steps reference
        # exactly, on grids that straddle the 1e-12 * freqs[-1] threshold
        rng = np.random.default_rng(23)
        verdicts = set()
        for _ in range(400):
            n = int(rng.integers(2, 40))
            freqs = build_grid(float(rng.uniform(0.2, 0.3)), float(rng.uniform(0.01, 0.4)), n).freqs.copy()
            freqs[int(rng.integers(n))] += float(rng.uniform(-2.0, 2.0)) * 1e-12 * freqs[-1]
            steps = np.diff(freqs)
            reference = bool(np.max(np.abs(steps - float(np.mean(steps)))) <= 1e-12 * float(freqs[-1]))
            try:
                FrequencyGrid(freqs)
                accepted = True
            except ValueError as exc:
                assert str(exc) == "frequencies must be equispaced"
                accepted = False
            assert accepted is reference
            verdicts.add(accepted)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("bandwidth_B", [0.0, -0.1, math.inf, math.nan])
    def test_bandwidth_positive_and_finite(self, bandwidth_B):
        with _raises_exactly("bandwidth_B must be positive and finite"):
            build_grid(0.25, bandwidth_B, 4)

    @pytest.mark.parametrize("value", ["0.25", True, np.True_, None, [0.25]])
    @pytest.mark.parametrize("field", ["nu0", "bandwidth_B"])
    def test_band_centre_and_width_must_be_real(self, field, value):
        with _raises_exactly(f"{field} must be a real number"):
            build_grid(**{"nu0": 0.25, "bandwidth_B": 0.2, "n_freqs": 4, field: value})

    @pytest.mark.parametrize(
        "value, real",
        [("2", False), (True, False), (False, False), (np.True_, False), (None, False), ([0.25], False), (1j, False),
         (0, True), (-0.0, True), (math.nan, True), (math.inf, True), (np.float64(0.5), True), (np.int64(3), True),
         pytest.param(10**400, False, id="int-beyond-double"), pytest.param(10**308, True, id="int-within-double")],
    )
    def test_real_number_rule(self, value, real):
        # finiteness is each field's own rule
        assert is_real_number(value) is real

    def test_real_band_values_of_any_type(self):
        assert build_grid(1, np.float64(0.5), 4).freqs.tobytes() == build_grid(1.0, 0.5, 4).freqs.tobytes()


class TestContainers:
    def test_noise_positive(self):
        with pytest.raises(ValueError):
            NoiseProfile([1.0, 0.0])
        with pytest.raises(ValueError):
            NoiseProfile([1.0, -2.0])
        assert NoiseProfile.flat(2.0, 3).weights == pytest.approx([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("gamma0", [[], np.empty(0)], ids=["list", "array"])
    def test_noise_profile_without_bins_named(self, gamma0):
        with pytest.raises(ValueError, match="^noise profile is empty$"):
            NoiseProfile(gamma0)

    def test_noise_weights_formed_once(self):
        gamma0 = np.random.default_rng(5).uniform(1e-3, 1e3, 17)
        noise = NoiseProfile(gamma0)
        weights = noise.weights
        assert weights.tobytes() == (2.0 / gamma0).tobytes()
        assert noise.weights is weights and not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            noise.weights = 2.0 / gamma0
        with pytest.raises(TypeError):
            NoiseProfile(gamma0, weights=2.0 / gamma0)
        # a replaced profile forms its own
        assert dataclasses.replace(noise, gamma0=2.0 * gamma0).weights.tobytes() == (2.0 / (2.0 * gamma0)).tobytes()

    def test_noise_equality_and_repr_read_gamma0_alone(self):
        assert [(f.name, f.init, f.repr, f.compare) for f in dataclasses.fields(NoiseProfile)] == [
            ("gamma0", True, True, True), ("weights", False, False, False)]
        assert repr(NoiseProfile([1.0, 2.0])) == "NoiseProfile(gamma0=array([1., 2.]))"
        assert NoiseProfile([1.5]) == NoiseProfile([1.5]) and NoiseProfile([1.5]) != NoiseProfile([3.0])
        noise = NoiseProfile([1.0, 2.0])
        assert noise == noise
        with pytest.raises(TypeError):
            hash(noise)  # its array field makes it unhashable

    def test_spectrum_invariants(self):
        with pytest.raises(ValueError):
            SignalSpectrum([-0.1], [0.0])
        with pytest.raises(ValueError):
            SignalSpectrum([1.0], [-math.pi])  # excluded endpoint
        with pytest.raises(ValueError):
            SignalSpectrum([1.0], [3.5])
        SignalSpectrum([0.0, 1.0], [math.pi, 0.0])  # rho = 0 is allowed

    def test_spectrum_complex_round_trip(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        spec = SignalSpectrum.from_complex(z)
        np.testing.assert_allclose(spec.to_complex(), z, rtol=0, atol=1e-15)

    def test_observation_finite(self):
        with pytest.raises(ValueError):
            Observation([1.0 + 1j, np.nan])


class TestLogLikelihood:
    def test_zero_residual_single_bin(self):
        spec = SignalSpectrum([1.0], [0.3])
        obs = Observation(spec.to_complex())
        noise = NoiseProfile.flat(1.0, 1)
        assert log_likelihood(obs, spec, noise) == pytest.approx(-math.log(math.pi))

    def test_hand_value_two_bins(self):
        # x = 0, rho = 1, psi = 0, gamma0 = 1: each bin adds -ln(pi) - 1
        obs = Observation(np.zeros(2, dtype=complex))
        spec = SignalSpectrum([1.0, 1.0], [0.0, 0.0])
        noise = NoiseProfile.flat(1.0, 2)
        assert log_likelihood(obs, spec, noise) == pytest.approx(-2 * math.log(math.pi) - 2.0)

    def test_noise_floor_normalization(self):
        spec = SignalSpectrum(np.ones(5), np.zeros(5))
        obs = Observation(spec.to_complex())
        base = log_likelihood(obs, spec, NoiseProfile.flat(1.0, 5))
        doubled = log_likelihood(obs, spec, NoiseProfile.flat(2.0, 5))
        assert base - doubled == pytest.approx(5 * math.log(2.0))

    def test_maximized_at_zero_residual(self):
        rng = np.random.default_rng(11)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, 6))
        obs = Observation(rng.normal(size=6) + 1j * rng.normal(size=6))
        best = log_likelihood(obs, SignalSpectrum.from_complex(obs.values), noise)
        for _ in range(25):
            other = SignalSpectrum(
                rng.uniform(0.0, 2.0, 6), wrap_phase(rng.uniform(-np.pi, np.pi, 6))
            )
            assert log_likelihood(obs, other, noise) <= best + 1e-12

    def test_alignment_checked(self):
        with pytest.raises(ValueError):
            log_likelihood(
                Observation([1.0 + 0j]), SignalSpectrum([1.0, 1.0], [0.0, 0.0]), NoiseProfile.flat(1.0, 2)
            )


class TestSampler:
    def test_seeded_reproducibility(self):
        spec = SignalSpectrum(np.ones(16), np.zeros(16))
        noise = NoiseProfile.flat(0.5, 16)
        a = sample_observation(spec, noise, seed=42)
        b = sample_observation(spec, noise, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_observation(spec, noise, seed=43)
        assert np.any(c.values != a.values)

    def test_vanishing_noise_limit(self):
        spec = SignalSpectrum([2.0, 1.0], [0.5, -1.0])
        noise = NoiseProfile.flat(1e-30, 2)
        got = sample_observation(spec, noise, seed=0)
        np.testing.assert_allclose(got.values, spec.to_complex(), rtol=0, atol=1e-12)

    def test_mean_and_circularity(self):
        # CLT gates at four standard deviations of the empirical means
        n_samples = 100_000
        gamma0 = 0.8
        spec = SignalSpectrum([1.5, 0.7], [0.4, 2.0])
        noise = NoiseProfile.flat(gamma0, 2)
        rng_draws = np.empty((n_samples, 2), dtype=complex)
        for k in range(n_samples):
            rng_draws[k] = sample_observation(spec, noise, seed=k).values
        resid = rng_draws - spec.to_complex()
        bound = 4.0 * math.sqrt(gamma0 / n_samples)
        mean_resid = resid.mean(axis=0)
        assert np.all(np.abs(mean_resid.real) < bound)
        assert np.all(np.abs(mean_resid.imag) < bound)
        # circular symmetry: the pseudo-variance E{n^2} vanishes
        pseudo = (resid**2).mean(axis=0)
        assert np.all(np.abs(pseudo) < 2.0 * bound)
        # and the power matches gamma0
        power = (np.abs(resid) ** 2).mean(axis=0)
        assert np.all(np.abs(power - gamma0) < 2.0 * bound)


class TestBandHelpers:
    def test_band_energy_flat(self):
        noise = NoiseProfile.flat(2.0, 10)
        assert band_energy(noise, np.ones(10)) == pytest.approx(10.0)

    def test_phase_rms_constant_shift(self):
        noise = NoiseProfile.flat(1.0, 4)
        rho0 = np.array([1.0, 0.5, 2.0, 0.1])
        psi1 = np.zeros(4)
        psi2 = np.full(4, math.pi / 2)
        assert phase_rms_diff(psi1, psi2, noise, rho0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_phase_rms_bounded_by_pi(self):
        rng = np.random.default_rng(5)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, 32))
        rho0 = rng.uniform(0.1, 2.0, 32)
        for _ in range(20):
            psi1 = wrap_phase(rng.uniform(-10, 10, 32))
            psi2 = wrap_phase(rng.uniform(-10, 10, 32))
            delta = phase_rms_diff(psi1, psi2, noise, rho0)
            assert 0.0 <= delta <= math.pi

    def test_zero_template_rejected(self):
        noise = NoiseProfile.flat(1.0, 2)
        with pytest.raises(ValueError):
            phase_rms_diff([0.0, 0.0], [1.0, 1.0], noise, [0.0, 0.0])

    def test_band_energy_accepts_zero_template(self):
        assert band_energy(NoiseProfile.flat(1.0, 3), np.zeros(3)) == 0.0

    def test_tiny_noise_power_names_weight_overflow(self):
        with pytest.raises(ValueError, match="2/gamma0 overflow"):
            NoiseProfile.flat(1e-320, 4)


class TestTemplate:
    def _pair(self, n=12, seed=3):
        rng = np.random.default_rng(seed)
        return NoiseProfile(rng.uniform(0.5, 2.0, n)), rng.uniform(0.1, 2.0, n), rng

    def test_weights_and_energy_match_the_band_helpers(self):
        noise, rho0, _ = self._pair()
        template = Template(noise, rho0)
        assert np.array_equal(template.weights, noise.weights * rho0**2)
        assert template.omega0 == band_energy(noise, rho0)
        assert not template.weights.flags.writeable and not template.rho0.flags.writeable

    def test_phase_gap_matches_phase_rms_diff(self):
        noise, rho0, rng = self._pair()
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 12))
        psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, 12))
        dpsi, delta = Template(noise, rho0).phase_gap(psi1, psi2)
        assert np.array_equal(dpsi, wrap_phase(psi2 - psi1))
        assert delta == phase_rms_diff(psi1, psi2, noise, rho0)

    @pytest.mark.parametrize(
        "rho0,fragment",
        [
            ([1.0, 2.0], "misaligned"),
            ([1.0, -1.0, 1.0], "non-negative"),
            ([1.0, np.inf, 1.0], "finite"),
            ([0.0, 0.0, 0.0], "must be positive"),
            ([1e-200, 1e-200, 1e-200], "underflows"),
        ],
    )
    def test_validation(self, rho0, fragment):
        with pytest.raises(ValueError, match=fragment):
            Template(NoiseProfile.flat(1.0, 3), rho0)

    @pytest.mark.parametrize(
        "gamma0,rho0",
        [
            (1.0, [1e160, 1e160, 1e160, 1e160]),  # each weight overflows
            (2.0, [1.2e154, 1.2e154, 1.2e154, 1.2e154]),  # finite weights, their sum overflows
        ],
    )
    def test_overflow_named(self, gamma0, rho0):
        noise = NoiseProfile.flat(gamma0, 4)
        for values in (rho0, np.asarray(rho0)):
            with pytest.raises(ValueError, match="overflow"):
                Template(noise, values)

    def test_phase_gap_broadcasts_over_rows(self):
        noise, rho0, rng = self._pair()
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, (3, 12)))
        psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, (3, 12)))
        template = Template(noise, rho0)
        dpsi, delta = template.phase_gap(psi1, psi2)
        assert dpsi.shape == (3, 12) and delta.shape == (3,)
        for k in range(3):
            row_dpsi, row_delta = template.phase_gap(psi1[k], psi2[k])
            assert isinstance(row_delta, float)
            assert np.array_equal(dpsi[k], row_dpsi) and delta[k] == row_delta

    def test_phase_gap_rejects_misaligned_phases(self):
        noise, rho0, _ = self._pair(4)
        with pytest.raises(ValueError, match="misaligned"):
            Template(noise, rho0).phase_gap(np.zeros(4), np.zeros(3))

    @pytest.mark.parametrize(
        "call",
        [
            lambda noise, rho0, p1, p2: Template(noise, rho0).phase_gap(p1, p2),
            lambda noise, rho0, p1, p2: distance_alpha(1.0, 1.0, p1, p2, Template(noise, rho0)),
            lambda noise, rho0, p1, p2: solve_alpha_geodesic(1.0, 1.0, p1, p2, Template(noise, rho0)),
        ],
        ids=["phase_gap", "distance_alpha", "solve_alpha_geodesic"],
    )
    def test_overflowing_phase_gap_named(self, call):
        # each phase is finite, their difference is not
        grid = build_grid(10.0, 1.0, 4)
        psi1 = np.polynomial.polynomial.polyval(grid.freqs, [0.0, 1e307])
        assert np.isfinite(psi1).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"phase gap psi2 - psi1 is not finite"):
                call(NoiseProfile.flat(2.0, 4), np.ones(4), psi1, -psi1)


class TestScaledChord:
    def test_equals_unscaled_form_in_range(self):
        rng = np.random.default_rng(11)
        a1 = np.exp(rng.uniform(-5.0, 5.0, 1000))
        a2 = np.exp(rng.uniform(-5.0, 5.0, 1000))
        h = rng.uniform(0.0, 1.0, 1000)
        for x1, x2, y in zip(a1, a2, h):
            c, e = scaled_chord(float(x1), float(x2), float(y))
            d = x2 - x1
            assert math.ldexp(c, 2 * e) == d * d + 4.0 * x1 * x2 * y

    def test_extreme_scales_stay_finite(self):
        for scale in (1e-300, 1e-200, 1e155, 1e300):
            c, e = scaled_chord(scale, 3.0 * scale, 0.25)
            # (3 - 1)^2 + 4 * 3 * 0.25 = 7 times scale^2
            assert math.ldexp(math.sqrt(c), e) == pytest.approx(math.sqrt(7.0) * scale, rel=1e-15)

    def test_arrays_share_one_exponent(self):
        rho1 = np.array([1e150, 0.0, 3e149])
        rho2 = np.array([2e150, 1e140, 3e149])
        c, e = scaled_chord(rho1, rho2, np.array([0.0, 0.5, 1.0]))
        assert e == math.frexp(2e150)[1]
        np.testing.assert_allclose(np.ldexp(c, 2 * e) / 1e300, [1.0, 1e-20, 0.36], rtol=1e-14)


    def test_rows_take_their_own_exponent(self):
        scales = np.array([[1e-200], [1.0], [1e200]])
        h = np.array([[0.0, 0.25], [0.5, 0.75], [1.0, 0.125]])
        c, e = scaled_chord(scales, 3.0 * scales, h)
        assert c.shape == (3, 2) and e.shape == (3, 1)
        for k, scale in enumerate(scales[:, 0]):
            for j in range(2):
                row_c, row_e = scaled_chord(float(scale), 3.0 * float(scale), float(h[k, j]))
                assert c[k, j] == row_c and e[k, 0] == row_e


class TestSerialization:
    def _sample_band(self):
        rng = np.random.default_rng(17)
        grid = build_grid(0.25, 0.4, 9)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, 9))
        spec = SignalSpectrum(rng.uniform(0, 3, 9), wrap_phase(rng.uniform(-np.pi, np.pi, 9)))
        return grid, noise, spec

    def test_csv_round_trip_lossless(self, tmp_path):
        grid, noise, spec = self._sample_band()
        path = tmp_path / "band.csv"
        save_band_csv(path, grid, noise, spec)
        grid2, noise2, spec2 = load_band_csv(path)
        np.testing.assert_array_equal(grid2.freqs, grid.freqs)
        np.testing.assert_array_equal(noise2.gamma0, noise.gamma0)
        np.testing.assert_array_equal(spec2.rho, spec.rho)
        np.testing.assert_array_equal(spec2.psi, spec.psi)
        header = path.read_text().splitlines()[0]
        assert header == "nu,gamma0,rho,psi"

    @pytest.mark.parametrize("n_bins", [1, 7])
    def test_csv_round_trip_keeps_the_grid(self, tmp_path, n_bins):
        # a 0.2-wide band on 1 or 7 bins: no width or centre is guessed back from the list
        grid = build_grid(0.3, 0.2, n_bins)
        rng = np.random.default_rng(n_bins)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, n_bins))
        spec = SignalSpectrum(rng.uniform(0, 3, n_bins), wrap_phase(rng.uniform(-np.pi, np.pi, n_bins)))
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        save_band_csv(first, grid, noise, spec)
        grid2, noise2, spec2 = load_band_csv(first)
        assert grid2.freqs.tobytes() == grid.freqs.tobytes()
        save_band_csv(second, grid2, noise2, spec2)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["header-only", "blank-rows"])
    def test_csv_without_data_rows_named(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("nu,gamma0,rho,psi\n" + body)
        with pytest.raises(ValueError, match="^band CSV has no data rows$"):
            load_band_csv(path)

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nu,gamma0,rho\n0.25,1.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_band_csv(path)

    @pytest.mark.parametrize(
        "bad_row,message",
        [
            ("0.3,1.0,1.0", "band CSV data row 2 has 3 cells, want 4"),
            ("0.3,1.0,1.0,0.0,9.0", "band CSV data row 2 has 5 cells, want 4"),
            ("0.3,x,1.0,0.0", "band CSV data row 2: could not convert string to float: 'x'"),
        ],
        ids=["short", "long", "text"],
    )
    def test_csv_malformed_row_named(self, tmp_path, bad_row, message):
        # the blank line is not a data row
        path = tmp_path / "bad.csv"
        path.write_text(f"nu,gamma0,rho,psi\n0.2,1.0,1.0,0.0\n\n{bad_row}\n0.4,1.0,1.0,0.0\n")
        with pytest.raises(ValueError) as info:
            load_band_csv(path)
        assert str(info.value) == message


def _csv_writer_bytes(header, rows) -> str:
    """What ``csv.writer`` writes of a header and rows of str cells."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _read_back(path) -> str:
    with open(path, newline="") as handle:
        return handle.read()


class TestWriteCsv:
    """``write_csv`` writes what ``csv.writer`` would, a chunk of rows at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(st.lists(st.text(), min_size=k, max_size=k),
                            st.lists(st.lists(st.text(), min_size=k, max_size=k), max_size=6))
    ))
    @example((["a"], [[""], ["b"]]))  # the only cell of a row, empty: csv quotes it
    @example((["x", "y"], [["", '"'], ["a,b", "c\rd"], ["e\nf", "\r\n"]]))
    def test_text_cells_follow_csv_writer(self, tmp_path_factory, header_rows):
        header, rows = header_rows
        path = tmp_path_factory.mktemp("text") / "cells.csv"
        write_csv(path, header, [[row[j] for row in rows] for j in range(len(header))])
        assert _read_back(path) == _csv_writer_bytes(header, rows)

    def test_chunks_decide_quoting_and_nan_alone(self, tmp_path):
        # 1300 rows: a quoted cell only in the second chunk of rows, NaN floats on either side of it
        n = 1300
        text = [f"cell {k}" for k in range(n)]
        text[1100] = 'a "quoted", cell'
        floats = np.linspace(-1.0, 1.0, n) ** 3 / 7.0
        floats[[0, 900, n - 1]] = math.nan
        path = tmp_path / "chunks.csv"
        write_csv(path, ["text", "x"], [text, floats])
        rows = [[t, "" if math.isnan(v) else repr(v)] for t, v in zip(text, floats.tolist())]
        assert _read_back(path) == _csv_writer_bytes(["text", "x"], rows)
        # a NaN alone in its row is an empty cell csv quotes
        write_csv(path, ["x"], [floats[:3]])
        assert _read_back(path) == _csv_writer_bytes(["x"], [[""]] + [[repr(v)] for v in floats[1:3].tolist()])

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["a", "b"], [[], np.empty(0)])
        assert _read_back(path) == "a,b\r\n"

    @pytest.mark.parametrize(
        "header, columns, fragment",
        [(["a"], [[], []], "1 names for 2 columns"), (["a", "b"], [["x"], np.empty(0)], "differ in length")],
    )
    def test_misaligned_columns_rejected(self, tmp_path, header, columns, fragment):
        with pytest.raises(ValueError, match=fragment):
            write_csv(tmp_path / "bad.csv", header, columns)
        assert not (tmp_path / "bad.csv").exists()

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # a distance report's shape: four text columns and seven float columns, 20000 rows; its cells as
        # strings, all held at once, would take about 19 MB, and the file itself is near 4 MB
        n = 20000
        rng = np.random.default_rng(5)
        text = [[repr(v) for v in rng.uniform(0.1, 10.0, n).tolist()] for _ in range(4)]
        floats = list(rng.uniform(-1e3, 1e3, (7, n)))
        path = tmp_path / "report.csv"
        tracemalloc.start()
        try:
            write_csv(path, [f"c{j}" for j in range(11)], text + floats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 3 * 2**20
        assert peak < 2**20, peak


class TestBandRules:
    """Each band-level rule has one owner in ``band``, which every module calls."""

    @pytest.mark.parametrize(
        "call,lengths",
        [
            (lambda g5, n4, s4, s5: known_mag_distances(Template(n4, np.ones(4)), 1.0, 1.0, np.zeros(5), 0.0),
             "psi1 5, template 4"),
            (lambda g5, n4, s4, s5: Template(n4, np.ones(5)), "noise 4, rho0 5"),
            (lambda g5, n4, s4, s5: distance_alpha(1.0, 1.0, np.zeros(4), np.zeros(5), Template(n4, np.ones(4))),
             "psi1 4, psi2 5, template 4"),
            (lambda g5, n4, s4, s5: distance_full(s4, s5, n4), "s1 4, s2 5, noise 4"),
            (lambda g5, n4, s4, s5: distance_full_embedding(s4, s5, n4), "s1 4, s2 5, noise 4"),
            (lambda g5, n4, s4, s5: straight_line_geodesic(s4, s5), "mu1 4, mu2 5"),
            (lambda g5, n4, s4, s5: solve_alpha_geodesic(1.0, 1.0, np.zeros(5), np.zeros(5), Template(n4, np.ones(4))),
             "psi1 5, psi2 5, template 4"),
            (lambda g5, n4, s4, s5: fisher_matrix(KnownMagnitudeModel(g5.freqs, np.ones(5)), [1.0, 0.0], n4),
             "model 5, noise 4"),
            (lambda g5, n4, s4, s5: KnownMagnitudeModel(g5.freqs, np.ones(4)), "freqs 5, rho0 4"),
            (lambda g5, n4, s4, s5: path_speed(FreeSpectrumModel(5), np.ones(10), np.ones(10), n4), "model 5, noise 4"),
            (lambda g5, n4, s4, s5: ldg_residual(FreeSpectrumModel(5), straight_line_geodesic(s5, s5, 9), n4),
             "model 5, noise 4"),
        ],
        ids=["kernel", "Template", "distance_alpha", "distance_full", "distance_full_embedding", "straight_line_geodesic",
             "solve_alpha_geodesic", "fisher_matrix", "KnownMagnitudeModel", "FreeSpectrumModel", "ldg_residual"],
    )
    def test_misaligned_lengths_name_every_input(self, call, lengths):
        s4, s5 = SignalSpectrum(np.ones(4), np.zeros(4)), SignalSpectrum(np.ones(5), np.zeros(5))
        with pytest.raises(ValueError, match=f"^misaligned band lengths: {lengths}$"):
            call(build_grid(0.25, 0.4, 5), NoiseProfile.flat(1.0, 4), s4, s5)

    @pytest.mark.parametrize(
        "route",
        [distance_alpha, small_phase_equivalent, solve_alpha_geodesic, shoot_alpha_geodesic],
    )
    def test_known_magnitude_routes_take_no_grid(self, route):
        # a call in an old form, (a1, a2, psi1, psi2, grid, noise, rho0) or (a1, a2, psi1, psi2,
        # noise, rho0), fails to bind, rather than reading the grid or the noise as the template
        psi1, psi2 = np.zeros(4), np.full(4, 0.5)
        noise, rho0 = NoiseProfile.flat(1.0, 4), np.ones(4)
        with pytest.raises(TypeError, match="takes 5 positional arguments but 7 were given"):
            route(1.0, 1.5, psi1, psi2, build_grid(0.25, 0.4, 4), noise, rho0)
        with pytest.raises(TypeError, match="takes 5 positional arguments but 6 were given"):
            route(1.0, 1.5, psi1, psi2, noise, rho0)
        route(1.0, 1.5, psi1, psi2, Template(noise, rho0))

    def test_shooting_takes_the_solver_arguments(self):
        # the oracle has no options: its parameters are solve_alpha_geodesic's
        shoot, solve = (inspect.signature(route).parameters for route in (shoot_alpha_geodesic, solve_alpha_geodesic))
        assert list(shoot.values()) == list(solve.values())

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda grid, a: distance_alpha(a, 1.0, np.zeros(3), np.ones(3), Template(NoiseProfile.flat(1.0, 3), np.ones(3))),
            lambda grid, a: KnownMagnitudeModel(grid.freqs, np.ones(3), alpha=a),
            lambda grid, a: KnownMagnitudeModel(grid.freqs, np.ones(3)).magnitude([a]),
            lambda grid, a: solve_alpha_geodesic(1.0, a, np.zeros(3), np.ones(3), Template(NoiseProfile.flat(1.0, 3), np.ones(3))),
        ],
        ids=["distance_alpha", "KnownMagnitudeModel", "magnitude", "solve_alpha_geodesic"],
    )
    def test_attenuations_must_be_positive_and_finite(self, call, bad):
        with pytest.raises(ValueError, match="^alpha must be positive and finite$"):
            call(build_grid(0.25, 0.4, 3), bad)

    @pytest.mark.parametrize(
        "value,e,expected",
        [
            (0.75, 3, 6.0),
            (0.75, 1024, 1.5 * 2.0**1023),
            (0.75, 1025, math.inf),
            (-0.75, 1025, -math.inf),
            (0.75, -1075, 0.0),
            (0.5, -1073, 2.0**-1074),
            (np.array([0.75, -0.5]), 1025, np.array([math.inf, -math.inf])),
            (np.array([[0.75], [0.75]]), np.array([[2], [-1080]]), np.array([[3.0], [0.0]])),
        ],
    )
    def test_unscale_leaves_the_range_only_with_the_value(self, value, e, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = unscale(value, e)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "n_rows,n_bins",
        [(0, 10), (1, 10), (401, 1000), (400, 1000), (2000, 1000), (7, 8192), (7, 8193), (5, 10**6), (3, 1)],
    )
    def test_row_blocks_cover_the_rows_in_order(self, n_rows, n_bins):
        blocks = row_blocks(n_rows, n_bins)
        step = max(1, BLOCK // n_bins)
        assert [k for block in blocks for k in range(n_rows)[block]] == list(range(n_rows))
        assert all(block.stop - block.start == step for block in blocks[:-1])
        assert all(0 < block.stop - block.start <= step for block in blocks)
        if n_bins > BLOCK:
            assert len(blocks) == n_rows
        if n_rows == 0:
            assert blocks == []

    def test_readonly_copies_and_checks_the_dimension_on_request(self):
        source = np.zeros((2, 2))
        out = readonly(source, one_dim=False)
        source[0, 0] = 1.0
        assert out[0, 0] == 0.0 and not out.flags.writeable
        with pytest.raises(ValueError, match="one-dimensional"):
            readonly(source)


def _raises_exactly(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


class TestRangeChecks:
    """``in_range`` is every container's range check: one min/max pair, each
    end open or closed, NaN out of range and an empty array in range."""

    @pytest.mark.parametrize(
        "values,bounds,expected",
        [
            ([0.0, 1.0], {"lo": 0.0, "hi": 1.0}, False),
            ([0.0, 1.0], {"lo": 0.0, "hi": 1.0, "lo_closed": True}, False),
            ([0.0, 1.0], {"lo": 0.0, "hi": 1.0, "hi_closed": True}, False),
            ([0.0, 1.0], {"lo": 0.0, "hi": 1.0, "lo_closed": True, "hi_closed": True}, True),
            ([-0.0], {"lo": 0.0, "lo_closed": True}, True),
            ([5e-324], {"lo": 0.0}, True),
            ([-1e308, 1e308], {}, True),
            ([1.0, math.inf], {}, False),
            ([-math.inf, 1.0], {}, False),
            ([math.inf], {"hi": math.inf, "hi_closed": True}, True),
            (np.array(3.0), {"lo": 3.0, "lo_closed": True}, True),
            (np.zeros((2, 3)), {"lo": 0.0}, False),
        ],
    )
    def test_open_and_closed_ends(self, values, bounds, expected):
        assert in_range(values, **bounds) is expected

    @pytest.mark.parametrize("lo_closed", [False, True])
    @pytest.mark.parametrize("hi_closed", [False, True])
    @pytest.mark.parametrize("values", [[math.nan], [1.0, math.nan], [math.nan, -math.inf, 2.0]])
    def test_nan_fails_every_test(self, values, lo_closed, hi_closed):
        bounds = {"lo": -math.inf, "hi": math.inf, "lo_closed": lo_closed, "hi_closed": hi_closed}
        assert in_range(values, **bounds) is False

    @pytest.mark.parametrize("shape", [(0,), (0, 4)])
    def test_empty_is_in_range(self, shape):
        # as np.all of nothing, whatever the bounds
        assert in_range(np.empty(shape), lo=1.0, hi=0.0) is True

    def test_psi_boundaries(self):
        with _raises_exactly("psi must lie in (-pi, pi]"):
            SignalSpectrum([1.0], [-math.pi])
        with _raises_exactly("psi must lie in (-pi, pi]"):
            SignalSpectrum([1.0, 1.0], [0.0, math.nextafter(math.pi, 4.0)])
        assert SignalSpectrum([1.0, 1.0], [math.pi, math.nextafter(-math.pi, 0.0)]).psi[0] == math.pi

    def test_zero_magnitudes_of_either_sign(self):
        spec = SignalSpectrum([0.0, -0.0], [0.0, 0.0])
        assert np.array_equal(spec.rho, [0.0, 0.0])
        band_energy(NoiseProfile.flat(1.0, 2), [0.0, -0.0])
        KnownMagnitudeModel(build_grid(0.25, 0.4, 2).freqs, np.array([-0.0, 1.0]))

    def test_empty_spectrum(self):
        assert SignalSpectrum([], []).n_freqs == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda b: FrequencyGrid([0.1, b, 0.3]), "frequencies must be finite and strictly positive"),
            (lambda b: NoiseProfile([1.0, b, 2.0]), "gamma0 must be strictly positive and finite"),
            (lambda b: SignalSpectrum([1.0, b], [0.0, 0.0]), "rho must be finite and non-negative"),
            (lambda b: SignalSpectrum([1.0, 1.0], [b, 0.0]), "psi must be finite"),
            (lambda b: SignalSpectrum([1.0, 1.0], [4.0, b]), "psi must be finite"),
            (lambda b: Observation([1.0 + 1.0j, complex(b, 0.0)]), "observation values must be finite"),
            (lambda b: Observation([1.0 + 1.0j, complex(0.0, b)]), "observation values must be finite"),
            (lambda b: KnownMagnitudeModel([0.1, 0.2], np.array([1.0, b])), "rho0 must be finite and non-negative"),
            (lambda b: KnownMagnitudeModel([0.1, 0.2, 0.3], np.ones(3), phase_coeffs=[0.0, b]),
             "phase coefficients must be finite"),
            (lambda b: band_energy(NoiseProfile.flat(1.0, 2), [b, 1.0]), "rho0 must be finite and non-negative"),
            (lambda b: Template(NoiseProfile.flat(1.0, 2), [1.0, b]), "rho0 must be finite and non-negative"),
            (lambda b: check_attenuation(1.0, np.array([1.0, b])), "alpha must be positive and finite"),
            (
                lambda b: FreeSpectrumModel(3).magnitude([b, 1.0, 1.0]),
                "per-bin magnitudes must be finite and non-negative",
            ),
        ],
        ids=["freqs", "gamma0", "rho", "psi", "psi-beside-out-of-range", "observation-real", "observation-imag",
             "model-rho0", "phase-coeffs", "template-weights", "template", "attenuations", "free-magnitudes"],
    )
    def test_non_finite_entries_named(self, call, message, bad):
        with _raises_exactly(message):
            call(bad)

    def test_noise_weight_overflow_boundary(self):
        # 2/1e-308 overflows, 2/1.2e-308 = 1.67e308 does not
        overflow = "gamma0 is so small that the weights 2/gamma0 overflow"
        with _raises_exactly(overflow):
            NoiseProfile([1e-308])
        with _raises_exactly(overflow):
            NoiseProfile([3.0, 1e-308, 1.0])
        assert math.isfinite(NoiseProfile([1.2e-308, 1.0]).weights[0])
        with _raises_exactly("gamma0 must be strictly positive and finite"):
            NoiseProfile([1e-308, 0.0])

    def test_later_negative_frequency_is_not_increasing(self):
        with _raises_exactly("frequencies must be strictly increasing"):
            FrequencyGrid([0.1, -0.2, 0.3])
        with _raises_exactly("frequencies must be finite and strictly positive"):
            FrequencyGrid([-0.1, 0.2, 0.3])
        with _raises_exactly("frequencies must be strictly increasing"):
            FrequencyGrid([0.1, 0.1, 0.3])

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.inf, math.nan])
    def test_attenuation_arrays(self, bad):
        with _raises_exactly("alpha must be positive and finite"):
            check_attenuation(np.array([1.0, bad, 2.0]))
        with _raises_exactly("alpha must be positive and finite"):
            check_attenuation(np.array([[1.0], [bad]]))

    def test_attenuation_arrays_accepted(self):
        check_attenuation(np.array([5e-324, 1e308]), np.array([]), 3, np.float64(2.0))
