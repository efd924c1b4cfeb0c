import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherband import (
    BLOCK,
    AlphaPhaseChart,
    ChartMismatchError,
    DistanceReport,
    NoiseProfile,
    SignalSpectrum,
    Template,
    band_energy,
    build_grid,
    distance_alpha,
    distance_full,
    distance_full_embedding,
    known_mag_columns,
    known_mag_distances,
    large_phase_limits,
    path_length,
    phase_rms_diff,
    ratio_time_delay,
    report,
    sample_alpha_geodesic,
    scaled_chord,
    small_phase_equivalent,
    solve_alpha_geodesic,
    unscale,
    wrap_phase,
)


def _band(n, seed=0):
    rng = np.random.default_rng(seed)
    noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
    rho0 = rng.uniform(0.1, 2.0, n)
    return noise, rho0, rng


def _beyond_the_range():
    """Spectra at alpha 1e308 and 1 on a template of peak 1, with their known-magnitude arguments."""
    noise, rho0, rng = _band(8, seed=25)
    rho0 = rho0 / rho0.max()
    template = Template(noise, rho0)
    assert math.sqrt(template.omega0) > 2.0
    psi1, psi2 = (wrap_phase(rng.uniform(-np.pi, np.pi, 8)) for _ in range(2))
    s1, s2 = SignalSpectrum(1e308 * rho0, psi1), SignalSpectrum(rho0, psi2)
    return s1, s2, noise, (1e308, 1.0, psi1, psi2, template)


def _known_mag_full(alpha1, alpha2, psi1, psi2, template):
    """The kernel's full-manifold distance of one endpoint pair."""
    return float(known_mag_distances(template, alpha1, alpha2, psi1, psi2)[0])


def _random_spectrum(rng, n):
    return SignalSpectrum(rng.uniform(0.0, 3.0, n), wrap_phase(rng.uniform(-np.pi, np.pi, n)))


class TestDistanceFull:
    def test_embedding_route_of_coincident_points_is_zero(self):
        noise, _, rng = _band(7, seed=19)
        spec = _random_spectrum(rng, 7)
        assert distance_full_embedding(spec, spec, noise) == 0.0
        # a zero magnitude is one point whatever its phase
        silent = [SignalSpectrum(np.zeros(7), psi) for psi in (np.zeros(7), wrap_phase(rng.uniform(-np.pi, np.pi, 7)))]
        assert distance_full_embedding(*silent, noise) == 0.0

    def test_identity(self):
        rng = np.random.default_rng(0)
        spec = _random_spectrum(rng, 7)
        noise = NoiseProfile.flat(1.0, 7)
        assert distance_full(spec, spec, noise) == 0.0

    def test_opposite_phasors_hand_value(self):
        # unit magnitudes, phase difference pi, one bin, gamma0 = 1:
        # sqrt(2 * (1 + 1 + 2)) = 2 * sqrt(2)
        s1 = SignalSpectrum([1.0], [0.0])
        s2 = SignalSpectrum([1.0], [math.pi])
        noise = NoiseProfile.flat(1.0, 1)
        assert distance_full(s1, s2, noise) == pytest.approx(2 * math.sqrt(2), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, 9))
        s1, s2 = _random_spectrum(rng, 9), _random_spectrum(rng, 9)
        assert distance_full(s1, s2, noise) == distance_full(s2, s1, noise)

    def test_zero_magnitude_bins_ignore_phase(self):
        s1 = SignalSpectrum([0.0, 1.0], [1.0, 0.5])
        s2 = SignalSpectrum([0.0, 1.0], [-2.0, 0.5])
        noise = NoiseProfile.flat(1.0, 2)
        assert distance_full(s1, s2, noise) == 0.0

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(2)
        noise = NoiseProfile.flat(1.0, 5)
        s1 = _random_spectrum(rng, 5)
        s2 = SignalSpectrum(s1.rho, wrap_phase(s1.psi + np.array([0, 0, 1e-3, 0, 0])))
        assert distance_full(s1, s2, noise) > 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**31))
    def test_embedding_equivalence(self, n, seed):
        rng = np.random.default_rng(seed)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
        s1, s2 = _random_spectrum(rng, n), _random_spectrum(rng, n)
        polar = distance_full(s1, s2, noise)
        embedded = distance_full_embedding(s1, s2, noise)
        assert polar == pytest.approx(embedded, rel=1e-12, abs=1e-300)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
            a, b, c = (_random_spectrum(rng, n) for _ in range(3))
            dab = distance_full(a, b, noise)
            dbc = distance_full(b, c, noise)
            dac = distance_full(a, c, noise)
            assert dac <= dab + dbc + 1e-12

    @pytest.mark.parametrize("swap", [False, True], ids=["forward", "swapped"])
    @pytest.mark.parametrize("order", [1, -1], ids=["bins", "reversed-bins"])
    def test_mixed_scale_bins(self, swap, order):
        # a huge bin that does not move must not flush a tiny bin that does to zero
        s1 = SignalSpectrum([1e200, 1e-200][::order], [0.0, 0.0])
        s2 = SignalSpectrum([1e200, 2e-200][::order], [0.0, 0.0])
        if swap:
            s1, s2 = s2, s1
        want = math.sqrt(2.0) * (2e-200 - 1e-200)
        assert distance_full(s1, s2, NoiseProfile.flat(1.0, 2)) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "s1,s2",
        [
            # a huge bin that does not move beside a tiny bin that does
            (SignalSpectrum([1e200, 1e-200], [0.0, 0.0]), SignalSpectrum([1e200, 2e-200], [0.0, 0.0])),
            # squares of the differences overflow
            (SignalSpectrum([1e160, 5e159], [0.1, 0.3]), SignalSpectrum([2e160, 7e159], [1.0, -0.3])),
        ],
        ids=["mixed-scale", "overflowing-squares"],
    )
    def test_embedding_oracle_covers_extreme_scales(self, s1, s2):
        # the oracle is no weaker than the closed form it checks
        noise = NoiseProfile.flat(2.0, 2)
        want = distance_full(s1, s2, noise)
        assert 0.0 < want < math.inf
        assert distance_full_embedding(s1, s2, noise) == pytest.approx(want, rel=1e-15, abs=0.0)


    def test_embedding_oracle_subtracts_near_the_top_of_the_range(self):
        # z2 - z1 of two spectra near 1e308 leaves the double range; the distance does not
        noise = NoiseProfile.flat(1e4, 4)
        s1, s2 = SignalSpectrum(np.full(4, 1e308), np.zeros(4)), SignalSpectrum(np.full(4, 1e308), np.full(4, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = distance_full_embedding(s1, s2, noise)
        assert got == pytest.approx(distance_full(s1, s2, noise), rel=1e-15, abs=0.0)
        assert got == pytest.approx(5.64e306, rel=1e-3)

class TestDistanceAlpha:
    def test_equal_phases_collapse_to_difference(self):
        noise, rho0, rng = _band(8, seed=4)
        psi = wrap_phase(rng.uniform(-np.pi, np.pi, 8))
        omega0 = band_energy(noise, rho0)
        got = distance_alpha(0.4, 2.3, psi, psi, Template(noise, rho0))
        assert got == pytest.approx(math.sqrt(omega0) * (2.3 - 0.4), rel=1e-14)

    def test_quarter_turn_reference_value(self):
        # omega0 = 2 (one bin, rho0 = 1, gamma0 = 1), delta = pi/2:
        # sqrt(2) * sqrt(1 + 1 - 0) = 2
        noise = NoiseProfile.flat(1.0, 1)
        got = distance_alpha(1.0, 1.0, [0.0], [math.pi / 2], Template(noise, [1.0]))
        assert got == pytest.approx(2.0, rel=1e-15)

    def test_constant_shift_equals_full_distance(self):
        noise, rho0, rng = _band(16, seed=5)
        for _ in range(30):
            a1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            a2 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 16))
            shift = float(rng.uniform(-np.pi, np.pi))
            psi2 = wrap_phase(psi1 + shift)
            d_sub = distance_alpha(a1, a2, psi1, psi2, Template(noise, rho0))
            d_full = distance_full(
                SignalSpectrum(a1 * rho0, psi1), SignalSpectrum(a2 * rho0, psi2), noise
            )
            assert abs(d_sub - d_full) <= 1e-12 * (1.0 + d_full)

    def test_dominates_full_distance(self):
        noise, rho0, rng = _band(24, seed=6)
        for _ in range(200):
            a1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            a2 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 24))
            psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, 24))
            d_sub = distance_alpha(a1, a2, psi1, psi2, Template(noise, rho0))
            d_full = distance_full(
                SignalSpectrum(a1 * rho0, psi1), SignalSpectrum(a2 * rho0, psi2), noise
            )
            assert d_sub >= d_full - 1e-12 * (1.0 + d_full)

    def test_swap_symmetry(self):
        noise, rho0, rng = _band(8, seed=7)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 8))
        psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, 8))
        d12 = distance_alpha(0.7, 1.9, psi1, psi2, Template(noise, rho0))
        d21 = distance_alpha(1.9, 0.7, psi2, psi1, Template(noise, rho0))
        assert d12 == pytest.approx(d21, rel=1e-15)

    def test_matches_geodesic_length(self):
        noise, rho0, rng = _band(10, seed=8)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 10))
        psi2 = wrap_phase(psi1 + rng.uniform(-2.0, 2.0, 10))
        geo = solve_alpha_geodesic(0.6, 1.7, psi1, psi2, Template(noise, rho0))
        d = distance_alpha(0.6, 1.7, psi1, psi2, Template(noise, rho0))
        assert d == pytest.approx(geo.length, rel=1e-15)
        path = sample_alpha_geodesic(geo, 257)
        quad = path_length(AlphaPhaseChart(Template(noise, rho0)), path, n_quad=16)
        assert quad == pytest.approx(d, rel=1e-8)


class TestKnownMagFullDistance:
    def test_coincident(self):
        noise, rho0, _ = _band(6, seed=9)
        psi = np.zeros(6)
        assert _known_mag_full(1.2, 1.2, psi, psi, Template(noise, rho0)) == 0.0

    def test_equals_generic_full_distance(self):
        noise, rho0, rng = _band(12, seed=10)
        for _ in range(25):
            a1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            a2 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 12))
            psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, 12))
            via_chart = _known_mag_full(a1, a2, psi1, psi2, Template(noise, rho0))
            via_spectra = distance_full(
                SignalSpectrum(a1 * rho0, psi1), SignalSpectrum(a2 * rho0, psi2), noise
            )
            assert via_chart == pytest.approx(via_spectra, rel=1e-12)

    def test_matches_alpha_distance_for_constant_shift(self):
        noise, rho0, rng = _band(9, seed=11)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 9))
        psi2 = wrap_phase(psi1 + 1.1)
        full = _known_mag_full(0.9, 1.4, psi1, psi2, Template(noise, rho0))
        sub = distance_alpha(0.9, 1.4, psi1, psi2, Template(noise, rho0))
        assert full == pytest.approx(sub, rel=1e-13)


class TestSmallPhaseEquivalent:
    def test_taylor_limit(self):
        noise, rho0, rng = _band(10, seed=12)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 10))
        dpsi = rng.uniform(-1.0, 1.0, 10)
        for a1, a2 in ((1.0, 1.0), (0.5, 1.5)):
            eps = 1e-3
            psi2 = wrap_phase(psi1 + eps * dpsi)
            approx = small_phase_equivalent(a1, a2, psi1, psi2, Template(noise, rho0))
            d_sub = distance_alpha(a1, a2, psi1, psi2, Template(noise, rho0))
            d_full = distance_full(
                SignalSpectrum(a1 * rho0, psi1), SignalSpectrum(a2 * rho0, psi2), noise
            )
            assert abs(d_sub / approx - 1.0) < 1e-5
            assert abs(d_full / approx - 1.0) < 1e-5

    def test_coincident_zero(self):
        noise, rho0, _ = _band(4, seed=13)
        psi = np.zeros(4)
        assert small_phase_equivalent(1.0, 1.0, psi, psi, Template(noise, rho0)) == 0.0

    def test_swap_symmetry_identity(self):
        # swapping endpoints is the same map as gamma -> 1/gamma rescaled
        noise, rho0, rng = _band(8, seed=14)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 8))
        psi2 = wrap_phase(psi1 + rng.uniform(-0.5, 0.5, 8))
        forward = small_phase_equivalent(0.8, 2.0, psi1, psi2, Template(noise, rho0))
        backward = small_phase_equivalent(2.0, 0.8, psi2, psi1, Template(noise, rho0))
        assert forward == pytest.approx(backward, rel=1e-12)


class TestLargePhaseLimits:
    def test_equal_energy_reference(self):
        full, sub = large_phase_limits(1.0, 1.0)
        assert full == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert sub == pytest.approx(math.sqrt(2.0 - 2.0 * math.cos(math.pi / math.sqrt(3))), rel=1e-15)
        assert sub / full == pytest.approx(1.1138, abs=2e-4)

    def test_gain_ten_reference(self):
        full, sub = large_phase_limits(10.0, 1.0)
        assert sub / full == pytest.approx(
            math.sqrt(1.0 - (20.0 / 101.0) * math.cos(math.pi / math.sqrt(3))), rel=1e-12
        )
        assert sub / full == pytest.approx(1.0235, abs=2e-4)

    def test_large_gain_ratio_tends_to_one(self):
        full, sub = large_phase_limits(1e6, 1.0)
        assert sub / full == pytest.approx(1.0, abs=1e-5)

    def test_snr_scaling(self):
        f1, s1 = large_phase_limits(2.0, 1.0)
        f2, s2 = large_phase_limits(2.0, 9.0)
        assert f2 == pytest.approx(3.0 * f1, rel=1e-15)
        assert s2 == pytest.approx(3.0 * s1, rel=1e-15)

    def test_gain_past_the_square_root_of_the_range(self):
        # gamma^2 alone overflows here
        full, sub = large_phase_limits(1e160, 1.0)
        assert isinstance(full, float) and isinstance(sub, float)
        assert _within_ulps(full, 1e160, 1) and _within_ulps(sub, 1e160, 1)

    @pytest.mark.parametrize(
        "gamma_ratio,snr1,name",
        [
            (0.0, 1.0, "gamma_ratio"),
            (-2.0, 1.0, "gamma_ratio"),
            (math.nan, 1.0, "gamma_ratio"),
            (math.inf, 1.0, "gamma_ratio"),
            (2.0, -1.0, "snr1"),
            (2.0, 0.0, "snr1"),
            (2.0, math.nan, "snr1"),
            (2.0, math.inf, "snr1"),
        ],
    )
    def test_named_errors(self, gamma_ratio, snr1, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            large_phase_limits(gamma_ratio, snr1)

    def test_within_two_ulp_of_a_50_digit_reference(self):
        # g and snr1 each from 1e-300 to 1e300, plus gains at and next to 1,
        # where the chord's (g - 1)^2 term vanishes
        values = [*np.geomspace(1e-300, 1e300, 47).tolist(), 0.5, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 2.0]
        worst, n_inf = 0.0, 0
        with mpmath.workdps(50):
            cos_limit = mpmath.cos(mpmath.pi / mpmath.sqrt(3))
            for g in values:
                big_g = mpmath.mpf(g)
                chords = (big_g * big_g + 1, big_g * big_g + 1 - 2 * big_g * cos_limit)
                for snr1 in values:
                    for got, chord in zip(large_phase_limits(g, snr1), chords):
                        true = mpmath.sqrt(mpmath.mpf(snr1) * chord)
                        want = float(true)  # rounded to nearest: inf past the double range
                        if want == math.inf:
                            assert got == math.inf
                            n_inf += 1
                        else:
                            worst = max(worst, float(abs(mpmath.mpf(got) - true) / math.ulp(want)))
        assert worst <= 2.0
        assert 0 < n_inf < 2 * len(values) ** 2


def _round26(x):
    """x rounded to 26 significant bits, so a product of two such is exact."""
    mant, exp = math.frexp(x)
    return math.ldexp(round(math.ldexp(mant, 26)), exp - 26)


def _within_ulps(got, want, n_ulps=4):
    return abs(got - want) <= n_ulps * math.ulp(want)


def _full(rho1, rho2, psi1, psi2, noise):
    return distance_full(SignalSpectrum(rho1, psi1), SignalSpectrum(rho2, psi2), noise)


class TestHomogeneity:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-150.0, max_value=150.0),
    )
    def test_degree_one_in_the_attenuations(self, n, seed, log10_scale):
        rng = np.random.default_rng(seed)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
        rho0 = rng.uniform(0.1, 2.0, n)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, n))
        psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, n))
        # 26-bit factors keep every scaled input exact, so only the
        # distances' own rounding is compared
        c = _round26(10.0**log10_scale)
        a1, a2 = (_round26(float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))) for _ in range(2))
        mag1, mag2 = (np.array([_round26(v) for v in rng.uniform(0.0, 3.0, n)]) for _ in range(2))
        template = Template(noise, rho0)
        for func in (distance_alpha, _known_mag_full):
            base = func(a1, a2, psi1, psi2, template)
            scaled = func(c * a1, c * a2, psi1, psi2, template)
            assert 0.0 < scaled < math.inf
            assert _within_ulps(scaled, c * base)
        base = _full(mag1, mag2, psi1, psi2, noise)
        scaled = _full(c * mag1, c * mag2, psi1, psi2, noise)
        assert 0.0 < scaled < math.inf
        assert _within_ulps(scaled, c * base)
        d_alpha = distance_alpha(c * a1, c * a2, psi1, psi2, template)
        d_full = _full(c * a1 * rho0, c * a2 * rho0, psi1, psi2, noise)
        assert d_alpha >= d_full - 4 * math.ulp(d_full)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e155, 1e160, 1e300])
    def test_extreme_scales(self, scale):
        noise, rho0, rng = _band(8, seed=21)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 8))
        psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, 8))
        template = Template(noise, rho0)
        for func in (distance_alpha, _known_mag_full, small_phase_equivalent):
            unit = func(1.0, 2.0, psi1, psi2, template)
            scaled = func(scale, 2.0 * scale, psi1, psi2, template)
            assert scaled == pytest.approx(scale * unit, rel=1e-15, abs=0.0)
        unit = _full(rho0, 2.0 * rho0, psi1, psi2, noise)
        scaled = _full(scale * rho0, 2.0 * scale * rho0, psi1, psi2, noise)
        assert scaled == pytest.approx(scale * unit, rel=1e-14, abs=0.0)
        base = report(SignalSpectrum(rho0, psi1), SignalSpectrum(2.0 * rho0, psi2), noise, rho0=rho0)
        rep = report(SignalSpectrum(scale * rho0, psi1), SignalSpectrum(2.0 * scale * rho0, psi2), noise, rho0=rho0)
        assert rep.d_alpha == pytest.approx(scale * base.d_alpha, rel=1e-14, abs=0.0)
        assert rep.ratio == pytest.approx(base.ratio, rel=1e-12)
        assert rep.gamma_ratio == pytest.approx(2.0, rel=1e-14)
        # snr1 is inf only where omega0 * alpha1^2 exceeds the double range
        exact = Fraction(rep.omega0) * Fraction(scale) ** 2
        if exact > sys.float_info.max:
            assert rep.snr1 == math.inf
        else:
            assert rep.snr1 == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s1, s2, noise, ends: distance_full(s1, s2, noise),
            lambda s1, s2, noise, ends: distance_full_embedding(s1, s2, noise),
            lambda s1, s2, noise, ends: report(s1, s2, noise, rho0=ends[-1].rho0).d_alpha,
            lambda s1, s2, noise, ends: report(s1, s2, noise, rho0=ends[-1].rho0).d_full,
            lambda s1, s2, noise, ends: distance_alpha(*ends),
            lambda s1, s2, noise, ends: small_phase_equivalent(*ends),
            lambda s1, s2, noise, ends: known_mag_distances(ends[-1], 1e308, 1.0, s1.psi, s2.psi)[1],
            lambda s1, s2, noise, ends: _known_mag_full(*ends),
        ],
        ids=["distance_full", "distance_full_embedding", "report.d_alpha", "report.d_full", "distance_alpha",
             "small_phase_equivalent", "known_mag_distances", "known_mag_distances.d_full"],
    )
    def test_leaving_the_double_range_is_inf(self, call):
        # alpha1 = 1e308 against alpha2 = 1: every distance is about sqrt(omega0) 1e308 > 1.8e308
        s1, s2, noise, ends = _beyond_the_range()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert call(s1, s2, noise, ends) == math.inf


class TestKnownMagKernel:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.sampled_from([1e-200, 1.0, 1e200]), min_size=6, max_size=6),
    )
    def test_rows_equal_scalar_calls(self, n, n_rows, seed, scales):
        rng = np.random.default_rng(seed)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
        rho0 = rng.uniform(0.1, 2.0, n)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, (n_rows, n)))
        psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, (n_rows, n)))
        # a batch that mixes scales 1e-200, 1 and 1e200 across its rows
        a1 = np.array(scales[:n_rows]) * rng.uniform(0.1, 10.0, n_rows)
        a2 = a1 * rng.uniform(0.1, 10.0, n_rows)
        template = Template(noise, rho0)
        d_full, d_alpha, delta = known_mag_distances(template, a1, a2, psi1, psi2)
        assert d_full.shape == d_alpha.shape == delta.shape == (n_rows,)
        for k in range(n_rows):
            args = (float(a1[k]), float(a2[k]), psi1[k], psi2[k], template)
            assert _within_ulps(d_full[k], _known_mag_full(*args), 1)
            assert _within_ulps(d_alpha[k], distance_alpha(*args), 1)
            assert _within_ulps(delta[k], phase_rms_diff(psi1[k], psi2[k], noise, rho0), 1)
            assert 0.0 < d_full[k] <= d_alpha[k] * (1.0 + 1e-15) < math.inf

    def test_scalar_attenuations_broadcast_over_rows(self):
        noise, rho0, rng = _band(5, seed=22)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, (4, 5)))
        template = Template(noise, rho0)
        batch = known_mag_distances(template, 0.7, 1.9, psi1, 0.4)
        for k in range(4):
            single = known_mag_distances(template, 0.7, 1.9, psi1[k], np.full(5, 0.4))
            assert all(b[k] == v for b, v in zip(batch, single))

    def test_full_distance_within_two_ulp_of_a_50_digit_sum(self):
        # 16 rows of 1000 bins on weights spanning ten decades, each row holding the gaps where the
        # kernel's tan form of sin^2(dpsi/2) is at its ends: signed zeros, +-1e-200, the least
        # subnormal, pi - 1e-12 and both ends of the circle.  The sin form it replaced meets the
        # same bound: over seeds 1-9 both stayed within 1.2 ulp
        n, n_rows = 1000, 16
        rng = np.random.default_rng(2027)
        template = Template(NoiseProfile(10.0 ** rng.uniform(-3.0, 3.0, n)), 10.0 ** rng.uniform(-2.0, 2.0, n))
        special = [0.0, -0.0, 1e-200, -1e-200, 5e-324, math.pi - 1e-12, 1e-12 - math.pi, math.pi, -math.pi]
        gaps = rng.uniform(-np.pi, np.pi, (n_rows, n))
        for row in gaps:
            row[rng.choice(n, len(special), replace=False)] = special
        a1 = 10.0 ** rng.uniform(-1.0, 1.0, n_rows)
        a2 = np.concatenate([a1[:3], 10.0 ** rng.uniform(-1.0, 1.0, n_rows - 3)])  # three phase-only rows
        d_full = known_mag_distances(template, a1, a2, 0.0, gaps)[0]
        half = np.sin(0.5 * wrap_phase(gaps))
        mean = (template.weights * (half * half)).sum(axis=-1) / template.omega0  # weighted over the bins
        c, e = scaled_chord(a1[:, np.newaxis], a2[:, np.newaxis], mean[:, np.newaxis])
        by_sin = unscale(np.sqrt(template.omega0 * c), e)[:, 0]
        worst = {"kernel": 0.0, "sin": 0.0}
        with mpmath.workdps(50):
            weights = [mpmath.mpf(w) for w in template.weights.tolist()]
            for k in range(n_rows):
                big1, big2 = mpmath.mpf(float(a1[k])), mpmath.mpf(float(a2[k]))
                terms = ((big2 - big1) ** 2 + 4 * big1 * big2 * mpmath.sin(mpmath.mpf(g) / 2) ** 2 for g in gaps[k].tolist())
                true = mpmath.sqrt(mpmath.fsum(w * t for w, t in zip(weights, terms)))
                for route, got in (("kernel", d_full[k]), ("sin", by_sin[k])):
                    worst[route] = max(worst[route], float(abs(mpmath.mpf(float(got)) - true) / math.ulp(float(true))))
        assert worst["kernel"] <= 2.0 and worst["sin"] <= 2.0, worst

    def test_half_turn_gives_one_exactly(self):
        # tan(pi/2) is about 1.6e16 in doubles, so t^2 / (1 + t^2) rounds to 1 at dpsi = +-pi
        template = Template(NoiseProfile.flat(2.0, 1), np.ones(1))
        d_full = known_mag_distances(template, 1.0, 1.0, 0.0, np.array([[math.pi], [-math.pi], [0.0], [-0.0]]))[0]
        assert template.omega0 == 1.0
        assert d_full.tolist() == [2.0, 2.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "alpha1,width,fragment",
        [
            (0.0, 5, "positive"),
            (np.array([1.0, -1.0]), 5, "positive"),
            (1.0, 4, "misaligned"),
            (math.inf, 5, "alpha must be positive and finite"),
            (np.array([1.0, math.nan]), 5, "alpha must be positive and finite"),
        ],
    )
    def test_validation(self, alpha1, width, fragment):
        noise, rho0, _ = _band(5, seed=23)
        with pytest.raises(ValueError, match=fragment):
            known_mag_distances(Template(noise, rho0), alpha1, 1.0, np.zeros((2, width)), np.zeros((2, width)))


def _sweep_delta(dpsi0, dtau_times_B, nu0_over_B, n):
    """The RMS wrapped gap of the linear phase law on ``n`` flat bins of a unit band."""
    grid = build_grid(nu0_over_B, 1.0, n)
    dtau = np.asarray(dtau_times_B, dtype=float)
    return phase_rms_diff(
        0.0, dpsi0 - np.multiply.outer(2 * np.pi * dtau, grid.freqs), NoiseProfile.flat(2.0, n), np.ones(n)
    )


class TestRatioTimeDelay:
    def test_array_matches_scalar_calls(self):
        btaus = np.concatenate([[0.0], np.geomspace(2e-3, 20.0, 150)])
        # 1e160 squares past the double range unless both chords stay in one power-of-two unit
        for gamma, dpsi0 in ((1.0, 0.0), (10.0, 0.0), (1.0, math.pi / 2), (1e160, 0.0)):
            batch = ratio_time_delay(gamma, dpsi0, btaus, 0.5, _sweep_delta(dpsi0, btaus, 0.5, 1000))
            assert batch.shape == btaus.shape
            for bt, ratio in zip(btaus, batch):
                single = ratio_time_delay(gamma, dpsi0, float(bt), 0.5, _sweep_delta(dpsi0, float(bt), 0.5, 1000))
                assert isinstance(single, float)
                assert _within_ulps(ratio, single, 1)

    @staticmethod
    def _grid_formula(gamma, dpsi0, dtau, nu0_over_B, n):
        # the ratio's former hand formula: its own grid of nu/B positions, the
        # plain mean of the wrapped squared gaps, and a cos-form denominator
        positions = nu0_over_B - 0.5 + (np.arange(n) + 0.5) / n
        dpsi = wrap_phase(dpsi0 - 2.0 * np.pi * positions * dtau[..., np.newaxis])
        half = np.sin(0.5 * np.sqrt(np.mean(dpsi**2, axis=-1)))
        c, e = scaled_chord(1.0, gamma, half * half)
        mean_cos = np.sinc(dtau) * np.cos(dpsi0 - 2.0 * math.pi * nu0_over_B * dtau)
        gs, one = math.ldexp(gamma, -e), math.ldexp(1.0, -e)
        den = gs * gs + one * one - 2.0 * gs * one * mean_cos
        return np.where(den > 0.0, np.sqrt(c / np.where(den > 0.0, den, 1.0)), 1.0)

    @pytest.mark.parametrize(
        "gamma,dpsi0,dtau,n",
        [
            # a named figure sweep: 401 delays
            (1.0, 0.0, np.concatenate([[0.0], np.geomspace(2e-3, 20.0, 400)]), 1000),
            (10.0, math.pi / 2, np.concatenate([[0.0], np.geomspace(2e-3, 20.0, 400)]), 1000),
            # more bins than a block holds
            (2.0, 0.3, np.geomspace(1e-2, 30.0, 7), BLOCK + 1),
            # 50 delays in a (5, 10) array
            (0.5, -1.0, np.geomspace(1e-2, 30.0, 50).reshape(5, 10), 300),
        ],
        ids=["figure", "figure-offset", "wide", "2d"],
    )
    def test_within_two_ulp_of_the_grid_formula(self, gamma, dpsi0, dtau, n):
        got = ratio_time_delay(gamma, dpsi0, dtau, 0.5, _sweep_delta(dpsi0, dtau, 0.5, n))
        want = self._grid_formula(gamma, dpsi0, dtau, 0.5, n)
        assert got.shape == dtau.shape
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
        assert ratio_time_delay(gamma, dpsi0, np.zeros(0), 0.5, np.zeros(0)).shape == (0,)

    def test_zero_delay_is_one(self):
        for dpsi0 in (0.0, 0.4, -2.0):
            delta = _sweep_delta(dpsi0, 0.0, 0.5, 1000)
            for gamma in (1.0, 3.0, 1e160):
                assert ratio_time_delay(gamma, dpsi0, 0.0, 0.5, delta) == pytest.approx(1.0, rel=1e-12)

    def test_plateau_value(self):
        target = math.sqrt(1.0 - math.cos(math.pi / math.sqrt(3)))
        btaus = np.linspace(10, 20, 40)
        vals = [ratio_time_delay(1.0, 0.0, bt, 0.5, _sweep_delta(0.0, bt, 0.5, 1000)) for bt in btaus]
        assert abs(float(np.mean(vals)) - target) < 0.02

    def test_never_below_one(self):
        for bt in np.linspace(0.0, 20.0, 200):
            r = ratio_time_delay(1.0, 0.0, float(bt), 0.5, _sweep_delta(0.0, float(bt), 0.5, 1000))
            assert r >= 1.0 - 1e-12

    def test_antipodal_gaps_are_in_range(self):
        # all gaps pi: the rounded weighted mean lifted delta an ulp past pi on
        # 33 of these 119 bands before phase_gap capped it
        rng = np.random.default_rng(41)
        for n in range(1, 120):
            noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
            delta = phase_rms_diff(0.0, np.full(n, math.pi), noise, rng.uniform(0.1, 3.0, n))
            assert delta <= math.pi and _within_ulps(delta, math.pi)
            assert ratio_time_delay(2.0, math.pi, 0.0, 0.5, delta) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0.0, 0.0, 1.0, 0.5, 1.0), "gamma_ratio must be positive and finite"),
            ((-1.0, 0.0, 1.0, 0.5, 1.0), "gamma_ratio must be positive and finite"),
            ((math.nan, 0.0, 1.0, 0.5, 1.0), "gamma_ratio must be positive and finite"),
            ((math.inf, 0.0, 1.0, 0.5, 1.0), "gamma_ratio must be positive and finite"),
            ((1.0, 0.0, 1.0, 0.5, -1e-300), r"delta must lie in \[0, pi\]"),
            ((1.0, 0.0, 1.0, 0.5, math.nextafter(math.pi, 4.0)), r"delta must lie in \[0, pi\]"),
            ((1.0, 0.0, 1.0, 0.5, math.nan), r"delta must lie in \[0, pi\]"),
            ((1.0, 0.0, np.ones(3), 0.5, np.array([0.5, math.inf, 0.5])), r"delta must lie in \[0, pi\]"),
            # a call in the former signature, which took n_freqs in this place
            ((1.0, 0.0, np.ones(3), 0.5, 1000), r"delta must lie in \[0, pi\]"),
            ((1.0, math.nan, 1.0, 0.5, 1.0), "dpsi0, dtau_times_B and nu0_over_B must be finite"),
            ((1.0, 0.0, np.array([1.0, math.inf]), 0.5, 1.0), "dpsi0, dtau_times_B and nu0_over_B must be finite"),
            ((1.0, 0.0, 1.0, -math.inf, 1.0), "dpsi0, dtau_times_B and nu0_over_B must be finite"),
        ],
    )
    def test_named_errors(self, args, message):
        with pytest.raises(ValueError, match=message):
            ratio_time_delay(*args)


def former_known_mag(d_full, d_alpha, delta, omega0, alpha1, alpha2) -> dict:
    """The fields of ``DistanceReport.known_mag`` by its former scalar arithmetic, one pair at a time."""
    if d_full < 0.0 or d_alpha < 0.0:
        raise ValueError("distances must be non-negative")
    if d_alpha < d_full - 1e-12 * (1.0 + d_full):
        raise ValueError("submanifold distance fell below the full distance")
    mant, e = math.frexp(alpha1)
    try:
        snr1 = math.ldexp(omega0 * (mant * mant), 2 * e)
    except OverflowError:
        snr1 = math.inf
    ratio = d_alpha / d_full if 0.0 < d_full < math.inf else None
    return {"d_full": d_full, "d_alpha": d_alpha, "omega0": omega0, "snr1": snr1,
            "gamma_ratio": alpha2 / alpha1, "delta": delta, "ratio": ratio}


class TestReportColumns:
    """``known_mag_columns`` is the report's rule on whole columns, and ``DistanceReport.known_mag`` its one-row view."""

    @staticmethod
    def _rows(rng, n):
        alpha1, alpha2 = 10.0 ** rng.uniform(-300.0, 300.0, (2, n))
        d_full = 10.0 ** rng.uniform(-300.0, 300.0, n)
        d_alpha = d_full * (1.0 + rng.uniform(0.0, 2.0, n))
        # coincident endpoints, distances beyond the double range, a subnormal attenuation and an overflowing snr1
        d_full[:2], d_alpha[:2], d_full[2:4], d_alpha[2:4] = 0.0, 0.0, math.inf, math.inf
        alpha1[4], alpha1[5] = 5e-324, 1e300
        return d_full, d_alpha, rng.uniform(0.0, math.pi, n), alpha1, alpha2

    def test_columns_equal_the_one_row_report(self):
        rng = np.random.default_rng(41)
        d_full, d_alpha, delta, alpha1, alpha2 = self._rows(rng, 200)
        omega0 = 3.7
        columns = known_mag_columns(d_full, d_alpha, delta, omega0, alpha1, alpha2)
        assert list(columns) == list(DistanceReport(d_full=0.0).to_json_dict())
        for k in range(200):
            args = (float(d_full[k]), float(d_alpha[k]), float(delta[k]), omega0, float(alpha1[k]), float(alpha2[k]))
            former, rep = former_known_mag(*args), DistanceReport.known_mag(*args).to_json_dict()
            for name, column in columns.items():
                cell = float(column[k])
                assert repr(rep[name]) == repr(former[name]) == (repr(cell) if cell == cell else "None"), (k, name)
        assert math.isinf(columns["snr1"][5]) and np.isnan(columns["ratio"][:4]).all()

    @pytest.mark.parametrize("factor, message", [(0.5, "fell below the full distance"), (-1.0, "non-negative")])
    def test_every_row_keeps_the_rule(self, factor, message):
        d_full, d_alpha, delta, alpha1, alpha2 = self._rows(np.random.default_rng(42), 30)
        known_mag_columns(d_full, d_alpha, delta, 2.0, alpha1, alpha2)
        d_alpha[17] = factor * d_full[17]
        for route in (former_known_mag, DistanceReport.known_mag):
            with pytest.raises(ValueError, match=message):
                route(float(d_full[17]), float(d_alpha[17]), 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=message):
            known_mag_columns(d_full, d_alpha, delta, 2.0, alpha1, alpha2)


class TestReport:
    def test_identical_spectra_flagged(self):
        noise, rho0, _ = _band(6, seed=15)
        spec = SignalSpectrum(1.3 * rho0, np.zeros(6))
        rep = report(spec, spec, noise, rho0=rho0)
        assert rep.d_full == 0.0
        assert rep.d_alpha == 0.0
        assert rep.ratio is None
        assert rep.gamma_ratio == pytest.approx(1.0)

    def test_overflowing_distances_have_no_ratio(self):
        s1, s2, noise, ends = _beyond_the_range()
        rep = report(s1, s2, noise, rho0=ends[-1].rho0)
        assert rep.d_full == rep.d_alpha == rep.snr1 == math.inf and rep.ratio is None

    def test_without_template(self):
        noise, rho0, rng = _band(6, seed=16)
        rep = report(_random_spectrum(rng, 6), _random_spectrum(rng, 6), noise)
        assert rep.d_alpha is None and rep.ratio is None and rep.omega0 is None

    def test_underflowing_template_energy_named(self):
        noise = NoiseProfile.flat(1.0, 4)
        tiny = np.full(4, 1e-200)
        spec = SignalSpectrum(tiny, np.zeros(4))
        with pytest.raises(ValueError, match="underflows"):
            report(spec, spec, noise, rho0=tiny)

    def test_zero_magnitude_has_no_attenuation(self):
        # the zero spectrum is proportional to every template, with attenuation 0: the cone's apex, no chart point
        noise, rho0, _ = _band(6, seed=18)
        zero, spec = SignalSpectrum(np.zeros(6), np.zeros(6)), SignalSpectrum(rho0, np.zeros(6))
        for s1, s2 in ((zero, spec), (spec, zero)):
            with pytest.raises(ChartMismatchError, match="^fitted attenuation is not positive$"):
                report(s1, s2, noise, rho0=rho0)

    def test_chart_mismatch_raises(self):
        noise, rho0, rng = _band(6, seed=17)
        bad = SignalSpectrum(rho0 + rng.uniform(0.1, 0.2, 6), np.zeros(6))
        good = SignalSpectrum(2.0 * rho0, np.zeros(6))
        with pytest.raises(ChartMismatchError):
            report(good, bad, noise, rho0=rho0)

    def test_chart_mismatch_raises_beyond_squared_overflow(self):
        # the norms of the residual gate would overflow to inf at this scale
        noise, rho0, rng = _band(6, seed=24)
        good = SignalSpectrum(1e140 * rho0, np.zeros(6))
        bad = SignalSpectrum(1e160 * (rho0 + rng.uniform(0.1, 0.2, 6)), np.zeros(6))
        with pytest.raises(ChartMismatchError, match="not proportional"):
            report(good, bad, noise, rho0=rho0)

    def test_attenuation_beyond_double_range_named(self):
        noise, tiny = NoiseProfile.flat(1.0, 4), np.full(4, 1e-10)
        s1, s2 = SignalSpectrum(np.full(4, 1e300), np.zeros(4)), SignalSpectrum(np.full(4, 2e300), np.zeros(4))
        with pytest.raises(ValueError, match="exceeds the double range"):
            report(s1, s2, noise, rho0=tiny)

    def test_homothety(self):
        noise, rho0, rng = _band(12, seed=18)
        psi1 = wrap_phase(rng.uniform(-np.pi, np.pi, 12))
        psi2 = wrap_phase(rng.uniform(-np.pi, np.pi, 12))
        s1, s2 = SignalSpectrum(0.7 * rho0, psi1), SignalSpectrum(1.8 * rho0, psi2)
        base = report(s1, s2, noise, rho0=rho0)
        c = 3.0
        s1c = SignalSpectrum(0.7 * (c * rho0), psi1)
        s2c = SignalSpectrum(1.8 * (c * rho0), psi2)
        scaled = report(s1c, s2c, noise, rho0=c * rho0)
        assert scaled.d_full == pytest.approx(c * base.d_full, rel=1e-14)
        assert scaled.d_alpha == pytest.approx(c * base.d_alpha, rel=1e-14)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_swap_invariance(self):
        noise, rho0, rng = _band(10, seed=19)
        s1 = SignalSpectrum(0.6 * rho0, wrap_phase(rng.uniform(-np.pi, np.pi, 10)))
        s2 = SignalSpectrum(2.2 * rho0, wrap_phase(rng.uniform(-np.pi, np.pi, 10)))
        fwd = report(s1, s2, noise, rho0=rho0)
        bwd = report(s2, s1, noise, rho0=rho0)
        assert fwd.d_full == bwd.d_full
        assert fwd.d_alpha == pytest.approx(bwd.d_alpha, rel=1e-15)
        assert fwd.gamma_ratio == pytest.approx(1.0 / bwd.gamma_ratio, rel=1e-14)

    def test_json_dict_fields(self):
        noise, rho0, rng = _band(5, seed=20)
        rep = report(
            SignalSpectrum(rho0, np.zeros(5)), SignalSpectrum(2 * rho0, np.zeros(5)), noise, rho0=rho0
        )
        payload = rep.to_json_dict()
        assert set(payload) == {"d_full", "d_alpha", "omega0", "snr1", "gamma_ratio", "delta", "ratio"}
