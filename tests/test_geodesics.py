import dataclasses
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline

from fisherband import (
    AlphaGeodesic,
    AlphaPhaseChart,
    ConvergenceError,
    DegenerateGeodesicWarning,
    FreeSpectrumModel,
    GeodesicPath,
    KnownMagnitudeModel,
    LdgResidual,
    ModelChart,
    NoiseProfile,
    SignalSpectrum,
    Template,
    alpha_geodesic_coeff_path,
    band_energy,
    build_grid,
    distance_alpha,
    distance_full,
    ldg_residual,
    path_length,
    sample_alpha_geodesic,
    shoot_alpha_geodesic,
    solve_alpha_geodesic,
    spectrum_from_embedding,
    straight_line_geodesic,
    wrap_phase,
)
from fisherband import geodesics
from fisherband.geodesics import _dp_alpha_path


def _band(n, seed=0, bandwidth=0.4):
    rng = np.random.default_rng(seed)
    grid = build_grid(0.25, bandwidth, n)
    noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
    rho0 = rng.uniform(0.2, 2.0, n)
    return grid, noise, rho0, rng


def _phase_pair(rng, n, amplitude, mode="uniform"):
    psi1 = rng.uniform(-np.pi, np.pi, n)
    if mode == "sign":
        dpsi = amplitude * rng.choice([-1.0, 1.0], n)
    else:
        dpsi = rng.uniform(-amplitude, amplitude, n)
    return psi1, wrap_phase(psi1 + dpsi)


def _at(geo, sigma):
    """Attenuation and wrapped phases of the closed-form geodesic at one sigma."""
    return float(geo.alpha_at(sigma)), wrap_phase(geo.psi1 + float(geo.phase_mix_at(sigma)) * geo.dpsi)


def _closed_form_path(geo, sigmas, warp=None, warp_rate=None):
    """The closed-form geodesic at ``warp`` (by default ``sigmas``), with its
    velocities in sigma by the chain rule: ``velocity_at`` times ``warp_rate``."""
    at = sigmas if warp is None else warp
    mix, (alpha_rate, mix_rate) = geo.phase_mix_at(at)[:, np.newaxis], geo.velocity_at(at)
    rate = 1.0 if warp_rate is None else warp_rate
    velocities = np.column_stack([alpha_rate, mix_rate[:, np.newaxis] * geo.dpsi]) * np.reshape(rate, (-1, 1))
    return GeodesicPath(sigmas, np.column_stack([geo.alpha_at(at), geo.psi1 + mix * geo.dpsi]), velocities)


def _uniform_path(geo, n_nodes):
    """The closed-form geodesic on nodes uniform in sigma."""
    return _closed_form_path(geo, np.linspace(0.0, 1.0, n_nodes))


def _polar(z, rate):
    """Polar coordinates ``(|z|, angle z)`` of a complex path and their velocities,
    from its velocity ``rate``: ``rho' = Re(z' / z) rho``, ``psi' = Im(z' / z)``."""
    ratio = rate / z
    return np.hstack([np.abs(z), np.angle(z)]), np.hstack([ratio.real * np.abs(z), ratio.imag])


# the Dormand-Prince 5(4) tableau as published (Hairer, Norsett & Wanner,
# Solving ODEs I, table II.5.2): the rows of stages 2-7, stage 7's row being
# the fifth-order weights, and the fourth-order weights
_DP_ROWS = [
    [Fraction(1, 5)],
    [Fraction(3, 40), Fraction(9, 40)],
    [Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)],
    [Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561), Fraction(-212, 729)],
    [Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247), Fraction(49, 176), Fraction(-5103, 18656)],
    [Fraction(35, 384), 0, Fraction(500, 1113), Fraction(125, 192), Fraction(-2187, 6784), Fraction(11, 84)],
]
_DP_FOURTH = [Fraction(5179, 57600), 0, Fraction(7571, 16695), Fraction(393, 640), Fraction(-92097, 339200),
              Fraction(187, 2100), Fraction(1, 40)]


def _weighted(weights, values):
    """``w1 x1 + w2 x2 + ...`` left to right over the non-zero weights."""
    total = None
    for w, x in zip(weights, values):
        if w:
            total = w * x if total is None else total + w * x
    return total


def _textbook_dp(alpha1, slope, K):
    """Reference Dormand-Prince 5(4) for (alpha' = v, v' = K/alpha^3,
    theta' = 1/alpha^2), driven by the published tableau: one ``rhs()`` call
    per stage, the same sums in the same order, rtol 1e-11 and atol 1e-13, and
    the standard step control from a first step of 0.01.  Returns the
    accepted rows ``(sigma, alpha, v, theta)`` and the count of rejected steps."""
    rows = [[float(w) for w in row] for row in _DP_ROWS]
    errors = [float(b - b4) for b, b4 in zip(_DP_ROWS[-1] + [0], _DP_FOURTH)]

    def rhs(y):
        q = 1.0 / (y[0] * y[0])
        return y[1], K * q / y[0], q

    s, y = 0.0, (float(alpha1), float(slope), 0.0)
    nodes, rejected = [(s, *y)], 0
    rate = rhs(y)
    h = 0.01
    while s < 1.0:
        h = min(h, 1.0 - s)
        if s + h <= s:
            break
        rates = [rate]
        try:
            for row in rows:
                stage = tuple(y[i] + h * _weighted(row, [k[i] for k in rates]) for i in range(3))
                rates.append(rhs(stage))
            scaled = [
                h * _weighted(errors, [k[i] for k in rates]) / (1e-13 + 1e-11 * max(abs(y[i]), abs(stage[i])))
                for i in range(3)
            ]
            err = math.hypot(*scaled) / math.sqrt(3.0)
        except ZeroDivisionError:
            err = math.inf
        if err <= 1.0 and stage[0] > 0.0:
            s, y, rate = s + h, stage, rates[-1]
            nodes.append((s, *y))
            h *= min(5.0, 0.9 * max(err, 1e-10) ** -0.2)
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err**-0.2)
    return np.array(nodes), rejected


class TestStraightLine:
    def test_constant_path(self):
        spec = SignalSpectrum([1.0, 2.0], [0.3, -0.7])
        path = straight_line_geodesic(spec, spec, n_nodes=5)
        assert np.all(path.coords == path.coords[0])

    def test_one_node_named(self):
        spec = SignalSpectrum([1.0, 2.0], [0.3, -0.7])
        with pytest.raises(ValueError, match="^n_nodes must be at least 2$"):
            straight_line_geodesic(spec, spec, n_nodes=1)

    def test_midpoint_is_componentwise_mean(self):
        rng = np.random.default_rng(1)
        z1 = rng.normal(size=6) + 1j * rng.normal(size=6)
        z2 = rng.normal(size=6) + 1j * rng.normal(size=6)
        s1, s2 = SignalSpectrum.from_complex(z1), SignalSpectrum.from_complex(z2)
        path = straight_line_geodesic(s1, s2, n_nodes=3)
        mid = spectrum_from_embedding(path.coords[1]).to_complex()
        np.testing.assert_allclose(mid, 0.5 * (s1.to_complex() + s2.to_complex()), atol=1e-14)

    def test_length_equals_mahalanobis(self):
        # the line's nodes in the polar chart of FreeSpectrumModel, phases
        # unwrapped along the path: its length is the closed-form distance
        rng = np.random.default_rng(2)
        for n in np.tile(np.arange(1, 11), 5):
            noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
            s1 = SignalSpectrum(rng.uniform(0.5, 2.0, n), rng.uniform(-np.pi, np.pi, n))
            s2 = SignalSpectrum(rng.uniform(0.5, 2.0, n), wrap_phase(s1.psi + rng.uniform(-1.0, 1.0, n)))
            path = straight_line_geodesic(s1, s2, n_nodes=65)
            z = path.coords[:, 0::2] + 1j * path.coords[:, 1::2]
            polar, rates = _polar(z, path.velocities[:, 0::2] + 1j * path.velocities[:, 1::2])
            polar[:, n:] = np.unwrap(polar[:, n:], axis=0)
            length = path_length(ModelChart(FreeSpectrumModel(int(n)), noise), GeodesicPath(path.sigmas, polar, rates))
            assert length == pytest.approx(distance_full(s1, s2, noise), rel=1e-10)


class TestSolveAlphaGeodesic:
    def test_equal_phases_affine(self):
        _, noise, rho0, _ = _band(6)
        psi = np.linspace(-1.0, 1.0, 6)
        geo = solve_alpha_geodesic(0.7, 2.1, psi, psi, Template(noise, rho0))
        assert geo.delta == 0.0
        assert geo.K == 0.0
        assert geo.k1 == pytest.approx((2.1 - 0.7) ** 2, rel=1e-15)
        for sigma in np.linspace(0, 1, 9):
            alpha, phases = _at(geo, sigma)
            assert alpha == pytest.approx(0.7 + sigma * (2.1 - 0.7), rel=1e-12)
            np.testing.assert_allclose(phases, wrap_phase(psi), atol=0)

    def test_quarter_turn_constants(self):
        # equal attenuations, constant quarter-turn difference: the solved
        # constants collapse to (2, -1/2, 1)
        noise = NoiseProfile.flat(1.0, 8)
        rho0 = np.ones(8)
        psi1 = np.zeros(8)
        psi2 = np.full(8, math.pi / 2)
        geo = solve_alpha_geodesic(1.0, 1.0, psi1, psi2, Template(noise, rho0))
        assert geo.delta == pytest.approx(math.pi / 2, rel=1e-15)
        assert geo.k1 == pytest.approx(2.0, rel=1e-14)
        assert geo.k2 == pytest.approx(-0.5, rel=1e-14)
        assert geo.K == pytest.approx(1.0, rel=1e-14)
        # bvp_residual is excluded here: delta = pi/2 is the tan pole

    def test_delta_always_in_unit_interval_of_pi(self):
        _, noise, rho0, rng = _band(16, seed=3)
        for _ in range(25):
            psi1 = wrap_phase(rng.uniform(-9, 9, 16))
            psi2 = wrap_phase(rng.uniform(-9, 9, 16))
            geo = solve_alpha_geodesic(1.0, 2.0, psi1, psi2, Template(noise, rho0))
            assert 0.0 <= geo.delta <= math.pi

    def test_bvp_residual_small_away_from_tan_pole(self):
        _, noise, rho0, rng = _band(12, seed=4)
        for _ in range(30):
            a1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            a2 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            psi1, psi2 = _phase_pair(rng, 12, rng.uniform(0.05, 3.0))
            geo = solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
            if abs(geo.delta - math.pi / 2) < 0.2:
                continue
            assert abs(geo.bvp_residual()) < 1e-8 * (1.0 + geo.k1**2)

    def test_boundary_values_reproduced(self):
        _, noise, rho0, rng = _band(10, seed=5)
        for _ in range(20):
            a1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            a2 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            psi1, psi2 = _phase_pair(rng, 10, rng.uniform(0.05, 3.0), mode="sign")
            geo = solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
            alpha0, phases0 = _at(geo, 0.0)
            alpha1, phases1 = _at(geo, 1.0)
            assert alpha0 == pytest.approx(a1, rel=1e-10)
            assert alpha1 == pytest.approx(a2, rel=1e-10)
            np.testing.assert_allclose(phases0, wrap_phase(psi1), atol=1e-12)
            np.testing.assert_allclose(
                wrap_phase(phases1 - wrap_phase(psi2)), np.zeros(10), atol=1e-9
            )

    def test_positive_alpha_required(self):
        _, noise, rho0, _ = _band(4)
        with pytest.raises(ValueError):
            solve_alpha_geodesic(0.0, 1.0, np.zeros(4), np.zeros(4), Template(noise, rho0))
        with pytest.raises(ValueError):
            solve_alpha_geodesic(1.0, -2.0, np.zeros(4), np.zeros(4), Template(noise, rho0))

    def test_coincident_endpoints(self):
        _, noise, rho0, _ = _band(4)
        psi = np.full(4, 0.25)
        geo = solve_alpha_geodesic(1.3, 1.3, psi, psi, Template(noise, rho0))
        assert geo.k1 == 0.0
        assert geo.length == 0.0
        alpha, phases = _at(geo, 0.5)
        assert alpha == 1.3
        np.testing.assert_array_equal(phases, psi)


class TestEvalAlphaGeodesic:
    """The closed-form geodesic evaluated at curve parameters: ``alpha_at`` and ``phase_mix_at``."""

    def test_quarter_turn_midpoint(self):
        noise = NoiseProfile.flat(1.0, 4)
        rho0 = np.ones(4)
        geo = solve_alpha_geodesic(1.0, 1.0, np.zeros(4), np.full(4, math.pi / 2), Template(noise, rho0))
        alpha, phases = _at(geo, 0.5)
        assert alpha == pytest.approx(math.sqrt(0.5), rel=1e-14)
        np.testing.assert_allclose(phases, math.pi / 4, rtol=1e-12)

    def test_scalar_sigma_equals_the_array_evaluation(self):
        _, noise, rho0, rng = _band(6, seed=31)
        psi1, psi2 = _phase_pair(rng, 6, 2.0)
        geo = solve_alpha_geodesic(0.7, 1.6, psi1, psi2, Template(noise, rho0))
        sigmas = np.linspace(0.0, 1.0, 11)
        for sigma, alpha, mix in zip(sigmas, geo.alpha_at(sigmas), geo.phase_mix_at(sigmas)):
            got_alpha, got_psi = _at(geo, sigma)
            assert got_alpha == alpha
            np.testing.assert_array_equal(got_psi, wrap_phase(geo.psi1 + mix * geo.dpsi))
        assert geo.phase_mix_at(0.0) == 0.0
        assert geo.phase_mix_at(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_angular_momentum_constant(self):
        # alpha^2 * dpsi/dsigma recovers the per-bin constants c
        _, noise, rho0, rng = _band(8, seed=7)
        psi1, psi2 = _phase_pair(rng, 8, 2.0)
        geo = solve_alpha_geodesic(0.8, 1.9, psi1, psi2, Template(noise, rho0))
        h = 1e-6
        for sigma in (0.12, 0.5, 0.83):
            a_mid = geo.alpha_at(sigma)
            mix_plus = geo.phase_mix_at(sigma + h)
            mix_minus = geo.phase_mix_at(sigma - h)
            dpsi_dsigma = (mix_plus - mix_minus) / (2 * h) * geo.dpsi
            np.testing.assert_allclose(a_mid**2 * dpsi_dsigma, geo.c, rtol=1e-7, atol=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_velocity_is_the_derivative_of_alpha_and_mix(self, seed):
        n = 1 + seed % 12
        _, noise, rho0, rng = _band(n, seed=50 + seed)
        a1, a2 = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
        psi1, psi2 = _phase_pair(rng, n, rng.uniform(0.1, 2.5), mode=("uniform", "sign")[seed % 2])
        geo = solve_alpha_geodesic(float(a1), float(a2), psi1, psi2, Template(noise, rho0))
        assert geo.delta > 0.0 and not geo.degenerate
        sigmas, h = np.linspace(0.01, 0.99, 33), 1e-6
        alpha_rate, mix_rate = geo.velocity_at(sigmas)
        d_alpha = (geo.alpha_at(sigmas + h) - geo.alpha_at(sigmas - h)) / (2 * h)
        d_mix = (geo.phase_mix_at(sigmas + h) - geo.phase_mix_at(sigmas - h)) / (2 * h)
        np.testing.assert_allclose(alpha_rate, d_alpha, rtol=0.0, atol=1e-8 * max(a1, a2))
        np.testing.assert_allclose(mix_rate, d_mix, rtol=1e-7)
        # the phase equation psi' = c / alpha^2, bin by bin
        np.testing.assert_allclose(np.outer(mix_rate * geo.alpha_at(sigmas) ** 2, geo.dpsi), np.tile(geo.c, (33, 1)),
                                   rtol=1e-12, atol=1e-15 * np.max(np.abs(geo.c)))

    def test_velocity_zeros(self):
        _, noise, rho0, rng = _band(6, seed=32)
        psi = rng.uniform(-np.pi, np.pi, 6)
        sigmas = np.linspace(0.0, 1.0, 9)
        # delta = 0: alpha moves at the constant rate alpha2 - alpha1, and the phases stay
        alpha_rate, mix_rate = solve_alpha_geodesic(0.7, 1.6, psi, psi, Template(noise, rho0)).velocity_at(sigmas)
        np.testing.assert_allclose(alpha_rate, 0.9, rtol=1e-15)
        np.testing.assert_array_equal(mix_rate, 0.0)
        # coincident ends: the constant path
        for rate in solve_alpha_geodesic(1.2, 1.2, psi, psi, Template(noise, rho0)).velocity_at(sigmas):
            np.testing.assert_array_equal(rate, 0.0)
        # a zero moment at delta > 0 with the crossing inside: phase_mix_at is a step, and its rate is zero
        step = AlphaGeodesic(1e-310, 1.0, math.pi, np.zeros(4), np.full(4, math.pi), 4.0)
        assert step.moment == 0.0 and 0.0 < -step.k2 < 1.0 and step.degenerate
        alpha_rate, mix_rate = step.velocity_at(sigmas[1:])
        np.testing.assert_allclose(alpha_rate, 1.0, rtol=1e-15)
        np.testing.assert_array_equal(mix_rate, 0.0)

    def test_constant_speed_equals_length_squared(self):
        _, noise, rho0, rng = _band(8, seed=8)
        psi1, psi2 = _phase_pair(rng, 8, 2.5)
        geo = solve_alpha_geodesic(0.5, 3.0, psi1, psi2, Template(noise, rho0))
        path = _uniform_path(geo, 2001)
        d_coords = np.diff(path.coords, axis=0) / np.diff(path.sigmas)[:, None]
        mid = 0.5 * (path.coords[1:] + path.coords[:-1])
        chart = AlphaPhaseChart(Template(noise, rho0))
        speeds = chart.speed(mid, d_coords)
        assert np.max(np.abs(speeds / geo.speed - 1.0)) < 1e-5
        assert geo.speed == pytest.approx(band_energy(noise, rho0) * geo.k1, rel=1e-15)


class TestDegenerateGeodesic:
    def test_antipodal_flagged_and_jumps(self):
        noise = NoiseProfile.flat(1.0, 4)
        rho0 = np.ones(4)
        psi1 = np.zeros(4)
        psi2 = np.full(4, math.pi)
        with pytest.warns(DegenerateGeodesicWarning):
            geo = solve_alpha_geodesic(1.0, 1.5, psi1, psi2, Template(noise, rho0))
        assert geo.degenerate
        assert geo.delta == pytest.approx(math.pi, rel=1e-15)
        crossing = -geo.k2
        assert 0.0 < crossing < 1.0
        alpha_min, phases_mid = _at(geo, crossing)
        assert alpha_min < 1e-8  # attenuation touches zero
        np.testing.assert_allclose(phases_mid, math.pi / 2, atol=1e-6)
        _, before = _at(geo, crossing / 2)
        _, after = _at(geo, (1 + crossing) / 2)
        np.testing.assert_allclose(before, psi1, atol=1e-6)
        np.testing.assert_allclose(wrap_phase(after - psi2), 0.0, atol=1e-6)

    @pytest.mark.parametrize("delta", [math.nextafter(math.pi, 4.0), math.pi + 5e-13, -5e-324, math.nan])
    def test_delta_range_is_exactly_zero_to_pi(self, delta):
        # the range Template.phase_gap returns and ratio_time_delay accepts
        psi1, dpsi = np.zeros(4), np.full(4, math.pi)
        assert AlphaGeodesic(1.0, 1.5, math.pi, psi1, dpsi, 4.0).degenerate
        with pytest.raises(ValueError, match=r"^delta must lie in \[0, pi\]$"):
            AlphaGeodesic(1.0, 1.5, delta, psi1, dpsi, 4.0)


class TestZeroMoment:
    """``moment = 0`` at ``delta > 0``: a step at the attenuation's zero
    crossing when it lies in [0, 1], else the flow's moment-free limit."""

    @staticmethod
    def _outside():
        # delta = 5e-324 underflows the moment; the crossing -k2 = -2 lies outside the path
        return AlphaGeodesic(1.0, 1.5, 5e-324, np.zeros(4), np.full(4, 5e-324), 4.0)

    def test_crossing_outside_is_the_moment_free_limit(self):
        geo = self._outside()
        assert geo.moment == 0.0 and geo.k2 == 2.0 and not geo.degenerate
        assert geo.phase_mix_at(0.0) == 0.0 and geo.phase_mix_at(1.0) == 1.0
        sigmas = np.linspace(0.0, 1.0, 101)
        mix = geo.phase_mix_at(sigmas)
        assert np.all(np.diff(mix) > 0.0)
        np.testing.assert_allclose(mix, 3.0 * sigmas / (sigmas + 2.0), rtol=1e-15)
        np.testing.assert_array_equal(sample_alpha_geodesic(geo, n_nodes=11).sigmas, np.linspace(0.0, 1.0, 11))

    def test_moment_free_limit_meets_the_flow(self):
        geo = self._outside()
        flow = AlphaGeodesic(1.0, 1.5, 1e-6, np.zeros(4), np.full(4, 1e-6), 4.0)
        assert flow.moment > 0.0
        sigmas = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(flow.phase_mix_at(sigmas), geo.phase_mix_at(sigmas), rtol=0.0, atol=1e-9)

    def test_crossing_outside_velocity_is_the_derivative(self):
        geo = self._outside()
        sigmas, h = np.linspace(0.01, 0.99, 33), 1e-6
        alpha_rate, mix_rate = geo.velocity_at(sigmas)
        d_alpha = (geo.alpha_at(sigmas + h) - geo.alpha_at(sigmas - h)) / (2 * h)
        d_mix = (geo.phase_mix_at(sigmas + h) - geo.phase_mix_at(sigmas - h)) / (2 * h)
        np.testing.assert_allclose(alpha_rate, d_alpha, rtol=0.0, atol=1e-8 * 1.5)
        np.testing.assert_allclose(mix_rate, d_mix, rtol=1e-7)
        np.testing.assert_allclose(mix_rate, 6.0 / (sigmas + 2.0) ** 2, rtol=1e-15)

    def test_crossing_inside_keeps_the_step(self):
        # the moment underflows at delta = pi, and the crossing lies at 1e-310
        geo = AlphaGeodesic(1e-310, 1.0, math.pi, np.zeros(4), np.full(4, math.pi), 4.0)
        crossing = -geo.k2
        assert geo.moment == 0.0 and 0.0 < crossing < 1.0 and geo.degenerate
        np.testing.assert_array_equal(geo.phase_mix_at([0.0, crossing, 2.0 * crossing, 0.5, 1.0]), [0.0, 0.5, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(geo.velocity_at([0.5, 1.0])[1], 0.0)


class TestShooting:
    def test_equal_phase_reduces_to_affine(self):
        _, noise, rho0, _ = _band(5, seed=9)
        psi = np.linspace(-0.5, 0.5, 5)
        shot = shoot_alpha_geodesic(0.8, 2.0, psi, psi, Template(noise, rho0))
        expected = 0.8 + shot.sigmas * 1.2
        np.testing.assert_allclose(shot.coords[:, 0], expected, atol=1e-9)
        np.testing.assert_allclose(shot.coords[:, 1:], np.tile(psi, (shot.n_nodes, 1)), atol=1e-12)

    def test_agrees_with_closed_form_quarter_turn(self):
        noise = NoiseProfile.flat(1.0, 6)
        rho0 = np.ones(6)
        psi1 = np.zeros(6)
        psi2 = np.full(6, math.pi / 2)
        geo = solve_alpha_geodesic(1.0, 1.0, psi1, psi2, Template(noise, rho0))
        shot = shoot_alpha_geodesic(1.0, 1.0, psi1, psi2, Template(noise, rho0))
        alphas = geo.alpha_at(shot.sigmas)
        np.testing.assert_allclose(shot.coords[:, 0], alphas, atol=1e-6)
        mix = geo.phase_mix_at(shot.sigmas)
        np.testing.assert_allclose(
            shot.coords[:, 1:], geo.psi1 + mix[:, None] * geo.dpsi, atol=1e-6
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_oracle_agreement(self, seed):
        _, noise, rho0, rng = _band(6, seed=100 + seed)
        a1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        a2 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        psi1, psi2 = _phase_pair(rng, 6, rng.uniform(0.1, 3.0), mode="sign")
        geo = solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
        shot = shoot_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
        alphas = geo.alpha_at(shot.sigmas)
        assert np.max(np.abs(shot.coords[:, 0] - alphas)) < 1e-6
        length = path_length(AlphaPhaseChart(Template(noise, rho0)), shot, n_quad=8)
        assert length == pytest.approx(geo.length, rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    # a stage lands on alpha = 0 exactly: a rejected step, then steps that shrink below sigma's resolution
    @example(0.01, -1.0, 0.0)
    def test_pair_matches_tableau_and_dop853(self, alpha1, slope, K):
        # in the oracle's units: the larger attenuation at most 1
        nodes, rejected = _dp_alpha_path(alpha1, slope, K)
        reference, ref_rejected = _textbook_dp(alpha1, slope, K)
        assert nodes.tobytes() == reference.tobytes() and rejected == ref_rejected
        assert np.all(np.diff(nodes[:, 0]) > 0.0) and np.all(nodes[:, 1] > 0.0)
        if nodes[-1, 0] < 1.0:
            # only a path that runs into alpha = 0 stops short
            assert nodes[-1, 1] < 1e-12
            return
        solved = solve_ivp(lambda s, y: [y[1], K / y[0] ** 3, 1.0 / y[0] ** 2], (0.0, 1.0), [alpha1, slope, 0.0],
                           method="DOP853", rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(nodes[-1, 1::2], solved.y[::2, -1], rtol=1e-9, atol=0.0)
        # the slope v, which may end at 0
        np.testing.assert_allclose(nodes[-1, 2], solved.y[1, -1], rtol=1e-9, atol=1e-12)

    def test_stage_on_zero_is_a_rejected_step(self):
        # free motion into alpha = 0 at sigma = 0.01: the first step (h = 0.01)
        # puts its sixth stage, whose row sums to 1, on alpha = 0 exactly
        row = [float(w) for w in _DP_ROWS[4]]
        assert 0.01 + 0.01 * _weighted(row, [-1.0] * 5) == 0.0
        nodes, rejected = _dp_alpha_path(0.01, -1.0, 0.0)
        assert rejected >= 1 and 0.0 < nodes[-1, 0] < 0.01


class TestPathLength:
    def test_constant_path_zero(self):
        noise = NoiseProfile.flat(1.0, 3)
        coords = np.tile(np.array([1.0, 0.1, 0.2, 0.3]), (5, 1))
        path = GeodesicPath(np.linspace(0, 1, 5), coords, np.zeros_like(coords))
        assert path_length(AlphaPhaseChart(Template(noise, np.ones(3))), path, n_quad=8) == 0.0

    def test_reparametrization_invariance(self):
        _, noise, rho0, rng = _band(6, seed=12)
        psi1, psi2 = _phase_pair(rng, 6, 1.5)
        geo = solve_alpha_geodesic(0.9, 1.4, psi1, psi2, Template(noise, rho0))
        sig = np.linspace(0.0, 1.0, 401)
        warped = sig**2 * (3 - 2 * sig)  # smooth monotone [0,1] -> [0,1]
        warped_path = _closed_form_path(geo, sig, warped, 6.0 * sig * (1.0 - sig))
        chart = AlphaPhaseChart(Template(noise, rho0))
        length = path_length(chart, warped_path, n_quad=16)
        assert length == pytest.approx(geo.length, rel=1e-6)

    def test_geodesics_without_phase_flow(self):
        # delta = 0, and coincident endpoints: no phase flow, so the nodes are uniform in sigma
        _, noise, rho0, rng = _band(6, seed=14)
        template, psi = Template(noise, rho0), rng.uniform(-np.pi, np.pi, 6)
        chart = AlphaPhaseChart(template)
        for alpha2, length in ((2.1, 1.4 * math.sqrt(template.omega0)), (0.7, 0.0)):
            geo = solve_alpha_geodesic(0.7, alpha2, psi, psi, template)
            assert geo.delta == geo.moment == 0.0 and not geo.degenerate
            path = sample_alpha_geodesic(geo, n_nodes=33)
            np.testing.assert_array_equal(path.sigmas, np.linspace(0.0, 1.0, 33))
            target = distance_alpha(0.7, alpha2, psi, psi, template)
            assert target == pytest.approx(length, rel=1e-15, abs=0.0)
            assert path_length(chart, path) == pytest.approx(target, rel=1e-13, abs=0.0)

    def test_quadrature_floor(self):
        noise = NoiseProfile.flat(1.0, 2)
        path = GeodesicPath(np.array([0.0, 1.0]), np.zeros((2, 5)), np.zeros((2, 5)))
        with pytest.raises(ValueError):
            path_length(AlphaPhaseChart(Template(noise, np.ones(2))), path, n_quad=4)

    def test_model_chart_consistent_with_alpha_chart(self):
        grid, noise, rho0, _ = _band(6, seed=13)
        coeffs1 = np.array([0.1, 0.5])
        coeffs2 = np.array([0.4, 1.5])
        psi1 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs1))
        psi2 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs2))
        geo = solve_alpha_geodesic(1.0, 1.8, psi1, psi2, Template(noise, rho0))
        coeff_path = alpha_geodesic_coeff_path(geo, coeffs1, coeffs2, n_nodes=101)
        model = KnownMagnitudeModel(grid.freqs, rho0, alpha=1.0, phase_coeffs=coeffs1)
        length = path_length(ModelChart(model, noise), coeff_path, n_quad=8)
        assert length == pytest.approx(geo.length, rel=1e-7)


class TestGaussRule:
    """``_hermite_rule`` builds its Gauss-Legendre rule on numpy's core by
    ``leggauss``'s algorithm, so that ``numpy.polynomial`` is never loaded;
    both are held against a 50-digit rule from Newton on the Legendre
    recurrence, ``w = 2 / ((1 - x^2) P_n'(x)^2)``."""

    @staticmethod
    def _reference(n):
        with mpmath.workdps(50):
            nodes, weights = [], []
            for start in np.polynomial.legendre.leggauss(n)[0].tolist():
                x = mpmath.mpf(start)
                for _ in range(6):
                    below, value = mpmath.mpf(1), x
                    for k in range(1, n):
                        below, value = value, ((2 * k + 1) * x * value - k * below) / (k + 1)
                    slope = n * (below - x * value) / (1 - x * x)
                    x -= value / slope
                nodes.append(float((x + 1) / 2))
                weights.append(float(1 / ((1 - x * x) * slope * slope)))
        return np.array(nodes), np.array(weights)

    @pytest.mark.parametrize("n_quad", [8, 16, 64])
    def test_rule_matches_leggauss_and_50_digits(self, n_quad):
        weights, position, _ = geodesics._hermite_rule(n_quad)
        nodes, leg_weights = np.polynomial.legendre.leggauss(n_quad)
        for ref_u, ref_w in ((0.5 * (nodes + 1.0), 0.5 * leg_weights), self._reference(n_quad)):
            np.testing.assert_allclose(position[:, 0], ref_u, rtol=0.0, atol=4e-15)
            np.testing.assert_allclose(weights, ref_w, rtol=0.0, atol=4e-15)


class TestSampledPathArguments:
    @staticmethod
    def _geodesic():
        _, noise, rho0, _ = _band(6, seed=21)
        psi = np.linspace(-1.0, 1.0, 6)
        return solve_alpha_geodesic(0.7, 2.1, psi, -0.5 * psi, Template(noise, rho0))

    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_sampling_needs_two_nodes(self, n_nodes):
        with pytest.raises(ValueError, match="^n_nodes must be at least 2$"):
            sample_alpha_geodesic(self._geodesic(), n_nodes=n_nodes)

    def test_coefficient_vectors_of_two_shapes_named(self):
        with pytest.raises(ValueError, match="^coefficient vectors differ in shape$"):
            alpha_geodesic_coeff_path(self._geodesic(), [0.2, 1.0], [0.2, 1.0, 0.5])


class TestLdgResidual:
    def test_coordinates_of_another_chart_named(self):
        grid, noise, rho0, _ = _band(5, seed=14)
        model = KnownMagnitudeModel(grid.freqs, rho0, alpha=1.0, phase_coeffs=[0.2, 1.0])
        path = GeodesicPath(np.linspace(0, 1, 11), np.tile([1.0, 0.2, 1.0, 0.0], (11, 1)), np.zeros((11, 4)))
        with pytest.raises(ValueError, match="^path coordinates do not match the model chart$"):
            ldg_residual(model, path, noise)

    def test_constant_path_zero_residual(self):
        grid, noise, rho0, _ = _band(5, seed=14)
        model = KnownMagnitudeModel(grid.freqs, rho0, alpha=1.0, phase_coeffs=[0.2, 1.0])
        coords = np.tile(model.xi, (11, 1))
        path = GeodesicPath(np.linspace(0, 1, 11), coords, np.zeros_like(coords))
        res = ldg_residual(model, path, noise)
        assert np.all(res.mag == 0.0)
        assert np.all(res.phase == 0.0)

    def test_closed_form_geodesic_small_residual(self):
        grid, noise, rho0, _ = _band(8, seed=15)
        coeffs1 = np.array([0.3, 1.0, -0.5])
        coeffs2 = np.array([0.7, 2.2, 0.3])
        psi1 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs1))
        psi2 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs2))
        geo = solve_alpha_geodesic(1.0, 1.6, psi1, psi2, Template(noise, rho0))
        model = KnownMagnitudeModel(grid.freqs, rho0, alpha=1.0, phase_coeffs=coeffs1)
        path = alpha_geodesic_coeff_path(geo, coeffs1, coeffs2, n_nodes=101)
        res = ldg_residual(model, path, noise)
        assert res.max_scaled < 1e-4
        fine = ldg_residual(model, alpha_geodesic_coeff_path(geo, coeffs1, coeffs2, 201), noise)
        assert res.max_scaled / fine.max_scaled > 3.5  # second-order decay

    def test_non_affine_line_rejected(self):
        n = 6
        noise = NoiseProfile.flat(1.0, n)
        rng = np.random.default_rng(16)
        z1 = rng.uniform(0.8, 1.2, n) * np.exp(1j * rng.uniform(-0.6, 0.6, n))
        z2 = rng.uniform(0.8, 1.2, n) * np.exp(1j * rng.uniform(-0.6, 0.6, n))
        sig = np.linspace(0, 1, 101)
        model = FreeSpectrumModel(n)

        def polar_path(warp, warp_rate):
            z = z1[None, :] + warp[:, None] * (z2 - z1)[None, :]
            return GeodesicPath(sig, *_polar(z, warp_rate[:, None] * (z2 - z1)[None, :]))

        affine = ldg_residual(model, polar_path(sig, np.ones_like(sig)), noise)
        warped = ldg_residual(model, polar_path(sig**2, 2.0 * sig), noise)
        assert affine.max_scaled < 1e-4
        assert warped.max_scaled > 1e-3

    def test_nan_residual_is_not_dropped(self):
        res = LdgResidual([0.5], np.zeros((1, 1)), np.full((1, 1), math.nan), 1.0)
        assert math.isnan(res.max_scaled)

    def test_node_requirements(self):
        grid, noise, rho0, _ = _band(4, seed=17)
        model = KnownMagnitudeModel(grid.freqs, rho0, alpha=1.0, phase_coeffs=[0.0])
        coords = np.tile(model.xi, (5, 1))
        with pytest.raises(ValueError):
            ldg_residual(model, GeodesicPath(np.linspace(0, 1, 5), coords, np.zeros_like(coords)), noise)
        bad_sigmas = np.concatenate([[0.0], np.sort(np.random.default_rng(0).uniform(0.01, 0.99, 9)), [1.0]])
        coords11 = np.tile(model.xi, (11, 1))
        with pytest.raises(ValueError):
            ldg_residual(model, GeodesicPath(bad_sigmas, coords11, np.zeros_like(coords11)), noise)


class TestGeodesicPathContainer:
    def test_monotone_and_endpoints(self):
        with pytest.raises(ValueError):
            GeodesicPath(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            GeodesicPath(np.array([0.1, 0.5, 1.0]), np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            GeodesicPath(np.array([0.0, 0.5, 0.9]), np.zeros((3, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "sigmas, coords",
        [
            (np.linspace(0.0, 1.0, 3), np.zeros((2, 2))),
            (np.linspace(0.0, 1.0, 3), np.zeros(3)),
            (np.linspace(0.0, 1.0, 4).reshape(2, 2), np.zeros((2, 2))),
        ],
        ids=["fewer-rows", "flat-coordinates", "two-dimensional-sigmas"],
    )
    def test_one_coordinate_row_per_node(self, sigmas, coords):
        with pytest.raises(ValueError, match="^need one coordinate row per node$"):
            GeodesicPath(sigmas, coords, coords)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 2), (3,), (3, 2, 1)])
    def test_one_velocity_row_per_coordinate_row(self, shape):
        with pytest.raises(ValueError, match="^need one velocity row per coordinate row$"):
            GeodesicPath(np.linspace(0.0, 1.0, 3), np.zeros((3, 2)), np.zeros(shape))

    def test_velocities_are_a_read_only_copy(self):
        velocities = np.ones((3, 2))
        path = GeodesicPath(np.linspace(0.0, 1.0, 3), np.zeros((3, 2)), velocities)
        velocities[0, 0] = 5.0
        assert path.velocities[0, 0] == 1.0 and not path.velocities.flags.writeable

    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_a_path_needs_two_nodes(self, n_nodes):
        with pytest.raises(ValueError, match="^a path needs at least two nodes$"):
            GeodesicPath(np.zeros(n_nodes), np.zeros((n_nodes, 2)), np.zeros((n_nodes, 2)))

    def test_alpha_stays_positive_below_antipodal(self):
        _, noise, rho0, rng = _band(8, seed=22)
        for _ in range(20):
            a1 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            a2 = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            psi1, psi2 = _phase_pair(rng, 8, 3.0, mode="sign")
            geo = solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
            assert geo.delta < math.pi
            sigmas = np.linspace(0.0, 1.0, 101)
            assert np.all(geo.alpha_at(sigmas) > 0.0)


class TestScaledConstants:
    """The closed form is held in power-of-two units, so it is homogeneous over
    the double range and its length is the kernel's ``distance_alpha``."""

    @staticmethod
    def _instance(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 17))
        noise = NoiseProfile(rng.uniform(0.5, 2.0, n))
        rho0 = rng.uniform(0.2, 2.0, n)
        a1, a2 = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
        # amplitudes below pi keep delta off the antipodal warning
        psi1, psi2 = _phase_pair(rng, n, rng.uniform(0.0, 3.0))
        return float(a1), float(a2), psi1, psi2, Template(noise, rho0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=-1000, max_value=1000))
    def test_bitwise_homogeneous_over_powers_of_two(self, seed, k):
        a1, a2, *band = self._instance(seed)
        sigmas = np.linspace(0.0, 1.0, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = solve_alpha_geodesic(a1, a2, *band)
            scaled = solve_alpha_geodesic(math.ldexp(a1, k), math.ldexp(a2, k), *band)
            assert scaled.length == math.ldexp(unit.length, k)
            np.testing.assert_array_equal(scaled.alpha_at(sigmas), np.ldexp(unit.alpha_at(sigmas), k))
            np.testing.assert_array_equal(scaled.phase_mix_at(sigmas), unit.phase_mix_at(sigmas))
            np.testing.assert_array_equal(sample_alpha_geodesic(scaled).sigmas, sample_alpha_geodesic(unit).sigmas)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=-1000, max_value=1000))
    def test_velocity_bitwise_homogeneous_over_powers_of_two(self, seed, k):
        a1, a2, *band = self._instance(seed)
        sigmas = np.linspace(0.0, 1.0, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha_rate, mix_rate = solve_alpha_geodesic(a1, a2, *band).velocity_at(sigmas)
            scaled_rate, scaled_mix = solve_alpha_geodesic(math.ldexp(a1, k), math.ldexp(a2, k), *band).velocity_at(sigmas)
        np.testing.assert_array_equal(scaled_rate, np.ldexp(alpha_rate, k))
        np.testing.assert_array_equal(scaled_mix, mix_rate)

    def test_velocity_divides_before_squaring(self):
        # at sigma = 0 the scaled attenuation is 5e-301, whose square underflows;
        # the mix rate a2 sin(delta) / (delta a1) is finite
        geo = AlphaGeodesic(1e-300, 1.0, math.pi, np.zeros(4), np.full(4, math.pi), 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, mix_rate = geo.velocity_at(0.0)
        # the moment, 3.1e-317, is subnormal and holds about 7 digits
        assert mix_rate == pytest.approx(math.sin(math.pi) / (math.pi * 1e-300), rel=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    @example(513)
    @example(1000)
    def test_both_ends_exact_down_to_2_to_the_minus_1000(self, k):
        # the small end squared underflows from alpha1 = 2**-513 alpha2 on; hypot keeps it
        alpha1 = math.ldexp(1.0, -k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo = solve_alpha_geodesic(alpha1, 1.0, np.zeros(4), np.ones(4), Template(NoiseProfile.flat(1.0, 4), np.ones(4)))
            start, end = geo.alpha_at([0.0, 1.0])
        assert geo.delta == 1.0
        assert abs(start - alpha1) <= 4.0 * math.ulp(alpha1)
        assert abs(end - 1.0) <= 4.0 * math.ulp(1.0)

    def test_length_is_distance_alpha(self):
        for seed in range(1000):
            a1, a2, psi1, psi2, template = self._instance(seed)
            geo = solve_alpha_geodesic(a1, a2, psi1, psi2, template)
            assert geo.length == distance_alpha(a1, a2, psi1, psi2, template)

    @pytest.mark.parametrize("scale", [1e-110, 1e103, 1e200])
    def test_extreme_scales(self, scale):
        _, noise, rho0, rng = _band(6, seed=41)
        psi1, psi2 = _phase_pair(rng, 6, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo = solve_alpha_geodesic(scale, 2.0 * scale, psi1, psi2, Template(noise, rho0))
            path = sample_alpha_geodesic(geo)
        assert not geo.degenerate
        assert 0.0 < geo.length < math.inf
        assert geo.length == distance_alpha(scale, 2.0 * scale, psi1, psi2, Template(noise, rho0))
        assert np.all(np.isfinite(path.coords)) and np.all(path.coords[:, 0] > 0.0)

    def test_natural_constants_leave_the_range_alone(self):
        # k1 ~ alpha^2 and K ~ alpha^4 read inf or 0 only once their own value does
        _, noise, rho0, rng = _band(4, seed=42)
        psi1, psi2 = _phase_pair(rng, 4, 1.0)
        big = solve_alpha_geodesic(1e100, 2e100, psi1, psi2, Template(noise, rho0))
        assert 0.0 < big.k1 < math.inf and big.K == math.inf
        assert np.all(np.isfinite(big.c)) and np.all(np.abs(big.c) > 0.0)
        small = solve_alpha_geodesic(1e-100, 2e-100, psi1, psi2, Template(noise, rho0))
        assert 0.0 < small.k1 and small.K == 0.0 and not small.degenerate


class TestSubnormalEnds:
    """An end below the other's ulp, down to subnormal: on a flat 4-bin band at
    delta = 1 the closed form keeps its boundary data, with no degenerate
    warning, though the shift ``s + k2`` cannot resolve the small end."""

    @staticmethod
    def _geodesic(alpha1, alpha2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return solve_alpha_geodesic(alpha1, alpha2, np.zeros(4), np.ones(4), Template(NoiseProfile.flat(1.0, 4), np.ones(4)))

    @pytest.mark.parametrize("alpha1, alpha2", [(5e-324, 1.0), (1e-320, 1.0), (1.0, 1e-320), (1.0, 5e-324), (1e-310, 1e300)])
    def test_boundary_data_kept(self, alpha1, alpha2):
        geo = self._geodesic(alpha1, alpha2)
        assert geo.delta == 1.0 and not geo.degenerate
        np.testing.assert_array_equal(geo.alpha_at([0.0, 1.0]), [alpha1, alpha2])
        np.testing.assert_array_equal(geo.phase_mix_at([0.0, 1.0]), [0.0, 1.0])
        # the end rates of alpha: alpha2 cos(delta) - alpha1 and alpha2 - alpha1 cos(delta)
        big = max(alpha1, alpha2)
        start, end = geo.velocity_at([0.0, 1.0])[0]
        assert abs(start - (alpha2 * math.cos(1.0) - alpha1)) <= 4e-16 * big
        assert abs(end - (alpha2 - alpha1 * math.cos(1.0))) <= 4e-16 * big

    @pytest.mark.parametrize("alpha1, alpha2, inside", [(1e-320, 1.0, 1.0), (1.0, 1e-320, 0.0)])
    def test_interior_mix_is_the_step_at_the_small_end(self, alpha1, alpha2, inside):
        # the phase advance sits within about alpha1 / alpha2 of the small end, so inside
        # the path the mix has all of it past a small start, none before a small end
        mix = self._geodesic(alpha1, alpha2).phase_mix_at(np.linspace(0.0, 1.0, 11)[1:-1])
        np.testing.assert_allclose(mix, inside, rtol=0.0, atol=1e-15)


class TestBvpResidual:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=-250, max_value=250))
    def test_degree_four_in_the_attenuations(self, seed, k):
        a1, a2, *band = TestScaledConstants._instance(seed)
        unit = solve_alpha_geodesic(a1, a2, *band).bvp_residual()
        scaled = solve_alpha_geodesic(math.ldexp(a1, k), math.ldexp(a2, k), *band).bvp_residual()
        assert scaled == math.ldexp(unit, 4 * k)

    def test_unit_scale_is_the_natural_formula(self):
        _, noise, rho0, rng = _band(8, seed=43)
        for _ in range(50):
            # the larger attenuation in [0.5, 1): the scaled units are the natural ones
            a1, a2 = rng.uniform(0.5, 1.0), rng.uniform(0.05, 0.5)
            psi1, psi2 = _phase_pair(rng, 8, rng.uniform(0.05, 3.0))
            geo = solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
            t2, k1 = math.tan(geo.delta) ** 2, geo.k1
            natural = t2 * (a1**2 + a2**2 - k1) ** 2 + (a2**2 - a1**2 - k1) ** 2 - 4.0 * a1**2 * k1
            assert geo.bvp_residual() == natural

    def test_beyond_squared_overflow(self):
        # Python-float squares of these attenuations overflow
        _, noise, rho0, rng = _band(6, seed=44)
        psi1, psi2 = _phase_pair(rng, 6, 1.0)
        unit = solve_alpha_geodesic(1.0, 2.0, psi1, psi2, Template(noise, rho0)).bvp_residual()
        assert unit != 0.0
        # 2**2120 times a rounding-level residual leaves the double range
        residual = solve_alpha_geodesic(2.0**530, 2.0**531, psi1, psi2, Template(noise, rho0)).bvp_residual()
        assert residual == math.copysign(math.inf, unit)
        assert not math.isnan(solve_alpha_geodesic(1e160, 2e160, psi1, psi2, Template(noise, rho0)).bvp_residual())


def _gauss_points(sigmas, n_quad):
    """Every interval's Gauss-Legendre points, interval by interval, and their weights."""
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    halves = 0.5 * np.diff(sigmas)
    t = (sigmas[:-1, np.newaxis] + halves[:, np.newaxis] * (nodes[np.newaxis, :] + 1.0)).ravel()
    return t, np.repeat(halves, n_quad) * np.tile(weights, len(halves))


def _reference_length(chart, path, n_quad):
    """Reference ``path_length`` on every coordinate column, from scipy and
    ``chart.speed`` alone: ``CubicHermiteSpline`` on the path's node values
    and velocities, evaluated with a search for each point's piece at the
    Gauss-Legendre points of every interval."""
    spline = CubicHermiteSpline(path.sigmas, path.coords, path.velocities, axis=0)
    t, scale = _gauss_points(path.sigmas, n_quad)
    speeds = np.maximum(np.asarray(chart.speed(spline(t), spline(t, 1)), dtype=float), 0.0)
    return float(np.sum(scale * np.sqrt(speeds)))


def _quad_length(chart, path):
    """The length of ``CubicHermiteSpline`` on the path's node values and
    velocities by ``scipy.integrate.quad`` on each interval: a reference
    with no Gauss rule and no Hermite table of the package's."""
    spline = CubicHermiteSpline(path.sigmas, path.coords, path.velocities, axis=0)

    def root_speed(t):
        return math.sqrt(max(float(chart.speed(spline(t), spline(t, 1))), 0.0))

    pieces = [quad(root_speed, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(path.sigmas[:-1], path.sigmas[1:])]
    return math.fsum(pieces)


def _random_path(rng, sigmas, n_columns):
    """Random node values and velocities, alpha (the first column) in [0.1, 2]."""
    coords, velocities = rng.normal(size=(2, len(sigmas), n_columns))
    coords[:, 0] = np.abs(coords[:, 0]) + 0.1
    return GeodesicPath(sigmas, coords, velocities)


class TestReducedPathLength:
    """The flat chart forms only alpha's position and each interval's 3 x 3
    phase Gram; the length is the every-column one up to rounding."""

    @staticmethod
    def _geodesic(seed):
        _, noise, rho0, rng = _band(6, seed=seed)
        psi1, psi2 = _phase_pair(rng, 6, 1.5)
        return noise, rho0, solve_alpha_geodesic(0.9, 1.4, psi1, psi2, Template(noise, rho0))

    def _check(self, chart, path, n_quad=8):
        reduced = path_length(chart, path, n_quad=n_quad)
        assert reduced == pytest.approx(_reference_length(chart, path, n_quad), rel=1e-12, abs=0.0)

    def test_closed_form_sample(self):
        noise, rho0, geo = self._geodesic(51)
        self._check(AlphaPhaseChart(Template(noise, rho0)), sample_alpha_geodesic(geo, n_nodes=257), n_quad=16)

    def test_shot(self):
        _, noise, rho0, rng = _band(5, seed=52)
        psi1, psi2 = _phase_pair(rng, 5, 1.2)
        shot = shoot_alpha_geodesic(0.7, 1.9, psi1, psi2, Template(noise, rho0))
        self._check(AlphaPhaseChart(Template(noise, rho0)), shot)

    def test_warped_path(self):
        noise, rho0, geo = self._geodesic(54)
        sig = np.linspace(0.0, 1.0, 101)
        path = _closed_form_path(geo, sig, sig**2 * (3 - 2 * sig), 6.0 * sig * (1.0 - sig))
        self._check(AlphaPhaseChart(Template(noise, rho0)), path, n_quad=16)

    @pytest.mark.parametrize("n_nodes", [3, 40])
    def test_full_rank_phase_block(self, n_nodes):
        # random phases and rates: the Gram's three directions all carry weight
        _, noise, rho0, rng = _band(6, seed=55)
        self._check(AlphaPhaseChart(Template(noise, rho0)), _random_path(rng, np.linspace(0.0, 1.0, n_nodes), 7))

    def test_model_chart_is_dense(self):
        grid, noise, rho0, _ = _band(6, seed=56)
        coeffs1, coeffs2 = np.array([0.1, 0.5]), np.array([0.4, 1.5])
        psi1 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs1))
        psi2 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs2))
        geo = solve_alpha_geodesic(1.0, 1.8, psi1, psi2, Template(noise, rho0))
        chart = ModelChart(KnownMagnitudeModel(grid.freqs, rho0, alpha=1.0, phase_coeffs=coeffs1), noise)
        for n_nodes in (3, 41):
            path = alpha_geodesic_coeff_path(geo, coeffs1, coeffs2, n_nodes=n_nodes)
            _check_hermite(chart, path, 8)

    def test_non_finite_path_named(self):
        noise = NoiseProfile.flat(1.0, 2)
        coords = np.array([[1.0, 0.0, 0.0], [np.inf, 0.1, 0.2], [1.0, 0.2, 0.4]])
        path = GeodesicPath(np.linspace(0.0, 1.0, 3), coords, np.ones_like(coords))
        with pytest.raises(ValueError, match="finite"):
            path_length(AlphaPhaseChart(Template(noise, np.ones(2))), path)


class TestPathLengthHomogeneity:
    """Degree 1 in the attenuation over the double range: the alpha column is
    scaled by an exact power of two."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-1000, max_value=1000))
    @example(-660)
    @example(600)
    def test_closed_form_path(self, k):
        noise, rho0, geo = TestReducedPathLength._geodesic(57)
        chart = AlphaPhaseChart(Template(noise, rho0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = solve_alpha_geodesic(1.0, 2.0, geo.psi1, geo.psi1 + geo.dpsi, Template(noise, rho0))
            scaled = solve_alpha_geodesic(2.0**k, 2.0 ** (k + 1), geo.psi1, geo.psi1 + geo.dpsi, Template(noise, rho0))
            length = path_length(chart, sample_alpha_geodesic(scaled, n_nodes=33), n_quad=8)
            assert length == math.ldexp(path_length(chart, sample_alpha_geodesic(unit, n_nodes=33), n_quad=8), k)


# worst relative gap of ``path_length`` to ``CubicHermiteSpline`` on the
# path's own node velocities: 3.5e-16 on the flat chart over criteria 5 and 6
# at seeds 0-2
HERMITE_RTOL = 1e-13


def _random_rtol(sigmas):
    """The bound on random node values and velocities, which disagree with the
    chord over a gap h by O(1 / h): the two evaluations round that
    differently, worst 1.1e-12 over 3000 seeded paths (both charts), on a
    smallest gap of 1.8e-6, where this bound reads 5.6e-11."""
    return HERMITE_RTOL + 1e-16 / np.min(np.diff(sigmas))


class _EveryColumnChart:
    """A chart's speed on a chart that is no ``AlphaPhaseChart``, so that
    ``path_length`` interpolates every column, as the reference does."""

    def __init__(self, chart):
        self.speed = chart.speed


def _check_hermite(chart, path, n_quad, rtol=HERMITE_RTOL):
    expected = _reference_length(chart, path, n_quad)
    assert path_length(chart, path, n_quad=n_quad) == pytest.approx(expected, rel=rtol, abs=0.0)


class TestPiecewiseEvaluation:
    """``path_length`` evaluates each interval's cubic in Hermite form at its
    own Gauss points; on the path's node velocities it is scipy's
    ``CubicHermiteSpline``, which searches for each point's piece, to
    ``HERMITE_RTOL``, from two nodes on."""

    @pytest.mark.parametrize("n_quad", [8, 16, 64])
    def test_closed_form_sample(self, n_quad):
        noise, rho0, geo = TestReducedPathLength._geodesic(61)
        path = sample_alpha_geodesic(geo, n_nodes=257)
        _check_hermite(AlphaPhaseChart(Template(noise, rho0)), path, n_quad)

    def test_shot(self):
        _, noise, rho0, rng = _band(7, seed=62)
        psi1, psi2 = _phase_pair(rng, 7, 1.3)
        shot = shoot_alpha_geodesic(0.6, 1.7, psi1, psi2, Template(noise, rho0))
        _check_hermite(AlphaPhaseChart(Template(noise, rho0)), shot, 8)

    def test_model_chart(self):
        grid, noise, rho0, _ = _band(6, seed=64)
        coeffs1, coeffs2 = np.array([0.2, 0.4]), np.array([-0.3, 1.2])
        psi1 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs1))
        psi2 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs2))
        geo = solve_alpha_geodesic(0.8, 1.5, psi1, psi2, Template(noise, rho0))
        chart = ModelChart(KnownMagnitudeModel(grid.freqs, rho0, alpha=0.8, phase_coeffs=coeffs1), noise)
        _check_hermite(chart, alpha_geodesic_coeff_path(geo, coeffs1, coeffs2, n_nodes=21), 8)

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_few_nodes_on_every_chart(self, n_nodes):
        # each piece reads only its own two nodes, so two nodes are one cubic
        grid, noise, rho0, rng = _band(5, seed=65)
        sigmas = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, n_nodes - 2)), [1.0]])
        _check_hermite(AlphaPhaseChart(Template(noise, rho0)), _random_path(rng, sigmas, 6), 8, _random_rtol(sigmas))
        chart = ModelChart(KnownMagnitudeModel(grid.freqs, rho0, phase_coeffs=[0.0, 0.0]), noise)
        _check_hermite(chart, _random_path(rng, sigmas, 3), 8, _random_rtol(sigmas))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([8, 13, 64]),
    )
    def test_random_nodes_and_coordinates(self, n_nodes, seed, n_quad):
        rng = np.random.default_rng(seed)
        noise = NoiseProfile(rng.uniform(0.5, 2.0, 3))
        sigmas = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n_nodes - 2)), [1.0]])
        assume(np.all(np.diff(sigmas) > 0.0))
        chart = AlphaPhaseChart(Template(noise, rng.uniform(0.2, 2.0, 3)))
        path = _random_path(rng, sigmas, 4)
        _check_hermite(chart, path, n_quad, _random_rtol(sigmas))
        _check_hermite(_EveryColumnChart(chart), path, n_quad, _random_rtol(sigmas))


def _clustered_geodesic():
    """A near-antipodal geodesic, whose samples cluster around its dip."""
    _, noise, rho0, rng = _band(6, seed=71)
    psi1 = rng.uniform(-np.pi, np.pi, 6)
    return solve_alpha_geodesic(0.8, 1.3, psi1, wrap_phase(psi1 + 3.1 * rng.choice([-1.0, 1.0], 6)), Template(noise, rho0))


def _node_set(kind, n, rng):
    if kind == "uniform":
        return np.linspace(0.0, 1.0, n)
    if kind == "random":
        return np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
    # about n nodes: n // 2 + 1 uniform in sigma merged with those uniform in the flow angle
    return sample_alpha_geodesic(_clustered_geodesic(), n_nodes=n // 2 + 1).sigmas


class _SeenChart:
    """A chart that records the positions and velocities ``path_length`` asks it about."""

    def speed(self, coords, vel):
        self.coords, self.vel = coords, vel
        return np.ones(len(coords))


class TestNotAKnot:
    """Named for the not-a-knot spline solve these tests held to scipy until
    paths carried their node velocities.  They hold ``path_length`` to scipy's
    ``CubicHermiteSpline`` on the same node velocities, a test-only oracle:
    the position and velocity handed to the chart at every Gauss point, on
    the node sets the solve was tested on, and the lengths criteria 5 and 6
    read against ``scipy.integrate.quad`` of that spline (equal to the last
    bit on these four paths, bound 1e-12)."""

    @pytest.mark.parametrize("kind", ["uniform", "random", "clustered"])
    @pytest.mark.parametrize("n_nodes", [*range(4, 41), 257, 4001])
    @pytest.mark.parametrize("n_columns", [2, 17])
    def test_coefficients_match_scipy(self, kind, n_nodes, n_columns):
        rng = np.random.default_rng([n_nodes, n_columns])
        sigmas = _node_set(kind, n_nodes, rng)
        path = GeodesicPath(sigmas, *rng.normal(size=(2, len(sigmas), n_columns)))
        seen = _SeenChart()
        path_length(seen, path, n_quad=8)
        spline = CubicHermiteSpline(sigmas, path.coords, path.velocities, axis=0)
        # the chart sees the points point by point, each over every interval
        t = _gauss_points(sigmas, 8)[0].reshape(-1, 8).T.ravel()
        h = np.diff(sigmas)[:, np.newaxis]
        chord = np.diff(path.coords, axis=0) / h
        d = np.abs(path.velocities[:-1] - chord) + np.abs(path.velocities[1:] - chord)
        # each piece's scale: its node values, and its largest rate (|m| + |d0| + |d1|)
        slopes = np.abs(chord) + d
        values = np.maximum(np.abs(path.coords[:-1]), np.abs(path.coords[1:])) + h * slopes
        # scipy evaluates at the rounded t = x + h u, which moves u by up to
        # eps |t| / h; the bounds add that move times the piece's rate of
        # change in u, at most h |m + ...| for the position and 6 (|d0| + |d1|)
        # for the velocity (worst 0.24 of these bounds)
        move = np.finfo(float).eps * np.abs(sigmas[1:, np.newaxis]) / h
        position_bound = 1e-13 * values + move * h * slopes
        velocity_bound = 1e-13 * slopes + move * 6.0 * d
        assert np.all(np.abs(seen.coords - spline(t)) <= np.tile(position_bound, (8, 1)))
        assert np.all(np.abs(seen.vel - spline(t, 1)) <= np.tile(velocity_bound, (8, 1)))

    def test_criterion_5_and_6_lengths_match_scipy_route(self):
        rng = np.random.default_rng(73)
        worst = 0.0
        for k in range(4):
            _, noise, rho0, _ = _band(int(rng.integers(4, 33)), seed=740 + k)
            a1, a2 = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
            psi1, psi2 = _phase_pair(rng, len(rho0), rng.uniform(0.02, 3.0))
            chart = AlphaPhaseChart(Template(noise, rho0))
            if k % 2:
                # criterion 5: the closed form sampled on 257 adaptive nodes
                path = sample_alpha_geodesic(solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0)), n_nodes=257)
                n_quad = 16
            else:
                # criterion 6: the shot path on the integrator's nodes
                path = shoot_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
                n_quad = 8
            reference = _quad_length(chart, path)
            worst = max(worst, abs(path_length(chart, path, n_quad=n_quad) - reference) / reference)
        assert worst <= 1e-12


class TestCubicPathsAreExact:
    """A cubic Hermite piece on a cubic's values and exact derivatives is the
    cubic, so on a path whose coordinates are cubic in sigma ``path_length``
    is the same Gauss rule on the analytic position and velocity, to
    rounding, from two nodes on: the interpolant against the truth, with no
    scipy.  The nodes are jittered about a uniform grid, each gap at least
    0.4 of the grid's: a node value rounds by 1e-16 of its size, and a chord
    over a gap ``h`` carries that over ``h``, so near-coincident nodes would
    test the data's rounding, not the interpolant."""

    @staticmethod
    def _exact_length(chart, sigmas, coeffs, n_quad):
        t, scale = _gauss_points(sigmas, n_quad)
        position = np.polynomial.polynomial.polyval(t, coeffs).T
        velocity = np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyder(coeffs)).T
        return float(np.sum(scale * np.sqrt(np.maximum(chart.speed(position, velocity), 0.0))))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([8, 13, 64]),
    )
    def test_on_both_charts(self, n_nodes, seed, n_quad):
        grid, noise, rho0, _ = _band(5, seed=76)
        rng = np.random.default_rng(seed)
        sigmas = np.linspace(0.0, 1.0, n_nodes)
        sigmas[1:-1] += rng.uniform(-0.3, 0.3, n_nodes - 2) / (n_nodes - 1)
        charts = [
            (AlphaPhaseChart(Template(noise, rho0)), 6),
            (ModelChart(KnownMagnitudeModel(grid.freqs, rho0, phase_coeffs=[0.0, 0.0]), noise), 3),
        ]
        for chart, n_columns in charts:
            # power coefficients, a column per coordinate; alpha stays in [0.5, 1.5]
            coeffs = rng.uniform(-1.0, 1.0, (4, n_columns))
            coeffs[0, 0], coeffs[1:, 0] = 1.0, coeffs[1:, 0] / 6
            derivative = np.polynomial.polynomial.polyder(coeffs)
            path = GeodesicPath(sigmas, *(np.polynomial.polynomial.polyval(sigmas, c).T for c in (coeffs, derivative)))
            exact = self._exact_length(chart, sigmas, coeffs, n_quad)
            assert path_length(chart, path, n_quad=n_quad) == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n_nodes", [2, 3, 4, 9])
def test_non_finite_path_coordinates_named_on_every_chart(n_nodes):
    # one message on every chart and route, whichever coordinate is not finite
    grid, noise, rho0, rng = _band(4, seed=75)
    sigmas = np.linspace(0.0, 1.0, n_nodes)
    cases = [
        (AlphaPhaseChart(Template(noise, rho0)), np.column_stack([rng.uniform(0.5, 2.0, n_nodes), rng.normal(size=(n_nodes, 4))])),
        (ModelChart(KnownMagnitudeModel(grid.freqs, rho0, phase_coeffs=[0.0, 0.0]), noise), rng.normal(size=(n_nodes, 3))),
    ]
    for chart, coords in cases:
        for bad in (np.nan, np.inf):
            values = coords.copy()
            values[n_nodes // 2, -1] = bad
            with pytest.raises(ValueError, match="^path coordinates must be finite$"):
                path_length(chart, GeodesicPath(sigmas, values, coords), n_quad=8)
            with pytest.raises(ValueError, match="^path velocities must be finite$"):
                path_length(chart, GeodesicPath(sigmas, coords, values), n_quad=8)


@pytest.mark.parametrize(
    "sigmas,message",
    [
        ([0.0, math.nan, 1.0], "node parameters must be strictly increasing"),
        ([0.0, 0.5, 0.5, 1.0], "node parameters must be strictly increasing"),
        ([0.0, -math.inf, 1.0], "node parameters must be strictly increasing"),
        ([0.0, 1.0, math.inf], "path must run from 0 to 1"),
    ],
)
def test_path_node_parameters_checked(sigmas, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GeodesicPath(np.array(sigmas), np.ones((len(sigmas), 2)), np.ones((len(sigmas), 2)))


def _near_quarter_turn():
    """Criterion 6's instance 35 at full suite seed 1 (delta 1.579), where the
    endpoint attenuation alone pins the slope poorly."""
    noise = NoiseProfile([0.616759165874613, 1.91370825109596, 1.9170566962719326, 1.137173410547828])
    rho0 = np.array([1.185694154370508, 0.8274650500132357, 0.2584615918276658, 1.723839060844815])
    psi1 = np.array([2.8813616893491156, 1.3202355286810352, -2.451250249947897, -2.573228951008468])
    psi2 = np.array([-1.8231313064497794, 2.898927840061726, 2.253242745850999, -0.994536639627777])
    return 3.4045180685576177, 0.11328441174394356, psi1, psi2, noise, rho0


class TestCoarseToFineShooting:
    def test_near_quarter_turn_stays_on_the_closed_form(self):
        a1, a2, psi1, psi2, noise, rho0 = _near_quarter_turn()
        geo = solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
        assert abs(geo.delta - math.pi / 2) < 0.01
        shot = shoot_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
        assert np.max(np.abs(shot.coords[:, 0] - geo.alpha_at(shot.sigmas))) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-1000, max_value=1000))
    def test_bitwise_homogeneous_over_powers_of_two(self, k):
        _, noise, rho0, rng = _band(5, seed=43)
        psi1, psi2 = _phase_pair(rng, 5, 2.0)
        band = (psi1, psi2, Template(noise, rho0))
        unit = shoot_alpha_geodesic(0.3, 1.7, *band)
        scaled = shoot_alpha_geodesic(math.ldexp(0.3, k), math.ldexp(1.7, k), *band)
        assert scaled.sigmas.tobytes() == unit.sigmas.tobytes()
        np.testing.assert_array_equal(scaled.coords[:, 0], np.ldexp(unit.coords[:, 0], k))
        np.testing.assert_array_equal(scaled.coords[:, 1:], unit.coords[:, 1:])

    @pytest.mark.parametrize("alpha1,alpha2", [(1e-110, 2e-110), (1e103, 2e103)])
    def test_extreme_scales(self, alpha1, alpha2):
        noise = NoiseProfile.flat(1.0, 4)
        psi1, psi2 = np.zeros(4), np.full(4, 0.5)
        geo = solve_alpha_geodesic(alpha1, alpha2, psi1, psi2, Template(noise, np.ones(4)))
        shot = shoot_alpha_geodesic(alpha1, alpha2, psi1, psi2, Template(noise, np.ones(4)))
        gap = np.max(np.abs(shot.coords[:, 0] - geo.alpha_at(shot.sigmas)))
        assert gap <= 1e-9 * alpha2

    def test_tiny_start_reaches_the_closed_form(self):
        # alpha1 / alpha2 = 1e-20: the phase advances within sigma ~ 1e-20 of the start
        noise, rho0 = NoiseProfile.flat(1.0, 4), np.ones(4)
        psi1, psi2 = np.zeros(4), np.ones(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo = solve_alpha_geodesic(1e-20, 1.0, psi1, psi2, Template(noise, rho0))
            shot = shoot_alpha_geodesic(1e-20, 1.0, psi1, psi2, Template(noise, rho0))
            length = path_length(AlphaPhaseChart(Template(noise, rho0)), shot, n_quad=8)
        assert np.max(np.abs(shot.coords[:, 0] - geo.alpha_at(shot.sigmas))) <= 1e-6
        assert abs(length - geo.length) / geo.length <= 1e-6

    @pytest.mark.parametrize("alpha1,alpha2", [(5e-324, 1.0), (1e-300, 1e300), (1e-160, 1.0)])
    def test_start_underflow_named(self, alpha1, alpha2):
        # in the power-of-two units the small end is 0, or its 1/alpha1^2 overflows
        noise, rho0 = NoiseProfile.flat(1.0, 4), np.ones(4)
        psi1, psi2 = np.zeros(4), np.ones(4)
        with warnings.catch_warnings():
            # no degenerate warning at a subnormal end: the crossing is read off the ends' signs
            warnings.simplefilter("error")
            geo = solve_alpha_geodesic(alpha1, alpha2, psi1, psi2, Template(noise, rho0))
        with pytest.raises(ConvergenceError) as failure:
            shoot_alpha_geodesic(alpha1, alpha2, psi1, psi2, Template(noise, rho0))
        message = str(failure.value)
        assert "cannot start: 1/alpha1^2 is not finite in the scaled units" in message
        assert f"moment/chord = {geo.moment / geo.chord:.1e}" in message


def _antipodal_band(delta):
    """Flat 4-bin band, endpoints (1, 1.5), a phase gap of ``delta`` in every bin."""
    return 1.0, 1.5, np.zeros(4), np.full(4, delta), NoiseProfile.flat(1.0, 4), np.ones(4)


class TestNearAntipodalShooting:
    @pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
    def test_stays_on_the_closed_form(self, gap):
        a1, a2, psi1, psi2, noise, rho0 = _antipodal_band(math.pi - gap)
        geo = solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
        shot = shoot_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
        # criterion 6's two gaps and tolerance
        assert np.max(np.abs(shot.coords[:, 0] - geo.alpha_at(shot.sigmas))) <= 1e-6
        length = path_length(AlphaPhaseChart(Template(noise, rho0)), shot, n_quad=8)
        assert abs(length - geo.length) / geo.length <= 1e-6

    @pytest.mark.parametrize("delta", [math.pi])
    def test_failure_names_step_and_dip_width(self, delta):
        # at delta = pi the dip, moment/chord ~ 1e-17 wide, is narrower than sigma resolves
        a1, a2, psi1, psi2, noise, rho0 = _antipodal_band(delta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGeodesicWarning)
            geo = solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
        with pytest.raises(ConvergenceError) as failure:
            shoot_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0))
        message = str(failure.value)
        assert "its step below sigma's resolution" in message
        assert f"moment/chord = {geo.moment / geo.chord:.1e}" in message


def _merged_knots(geo, n_nodes):
    """The knots of ``sample_alpha_geodesic`` by ``np.unique``: uniform in sigma,
    uniform in the flow angle, and at dip distances ``width * 2**j`` on both
    sides of the dip ``-k2`` for ``width * 2**j`` below the uniform spacing,
    clipped to [0, 1]."""
    width = geo.moment / geo.chord
    thetas = np.linspace(*geo._flow_angles(), n_nodes)[1:-1]
    steps = [width]
    while steps[-1] < 1.0 / (n_nodes - 1):
        steps.append(2.0 * steps[-1])
    steps = np.array(steps[:-1])
    knots = [np.linspace(0.0, 1.0, n_nodes), np.tan(thetas) * width - geo.k2, -geo.k2 - steps, steps - geo.k2]
    return np.unique(np.clip(np.concatenate(knots), 0.0, 1.0))


class TestSampleKnots:
    def test_knots_are_the_merged_grids(self):
        # random instances, whose dips are about as wide as the uniform
        # spacing, and near-antipodal ones, whose dips are far narrower and
        # take the doubling knots, some within a few ulps of each other
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(20):
            n = int(rng.integers(4, 33))
            _, noise, rho0, _ = _band(n, seed=int(rng.integers(2**31)))
            psi1, psi2 = _phase_pair(rng, n, float(rng.uniform(0.02, 3.0)))
            cases.append(solve_alpha_geodesic(*np.exp(rng.uniform(-2.0, 2.0, 2)), psi1, psi2, Template(noise, rho0)))
        for gap in (1e-6, 1e-8, 0.0):
            a1, a2, psi1, psi2, noise, rho0 = _antipodal_band(math.pi - gap)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateGeodesicWarning)
                cases.append(solve_alpha_geodesic(a1, a2, psi1, psi2, Template(noise, rho0)))
        extra = []
        for geo in cases:
            for n_nodes in (33, 257):
                knots = sample_alpha_geodesic(geo, n_nodes).sigmas
                assert knots.tobytes() == _merged_knots(geo, n_nodes).tobytes()
                extra.append(len(knots) - (2 * n_nodes - 2))
        assert max(extra) > 40 and min(extra) <= 0
        assert np.min(np.diff(sample_alpha_geodesic(cases[-1], 257).sigmas)) < 1e-15


class TestNodeVelocities:
    """Every producer's node velocities are the derivatives of its node
    coordinates: central differences, on nodes of any spacing, the
    three-point formula exact for quadratics.  Its second-order error sets
    the bounds, each about ten times the worst seen, relative to each
    column's largest rate: 2.7e-14 on the line, 3.2e-8 and 1.3e-7 on the
    2001-node closed-form paths, and 9.3e-5 on the shot's adaptive steps."""

    @staticmethod
    def _central(path):
        s, c = path.sigmas, path.coords
        h0, h1 = np.diff(s)[:-1, np.newaxis], np.diff(s)[1:, np.newaxis]
        return (h0**2 * c[2:] - h1**2 * c[:-2] + (h1**2 - h0**2) * c[1:-1]) / (h0 * h1 * (h0 + h1))

    def _check(self, path, rtol):
        # each column against its own largest rate
        scale = np.max(np.abs(path.velocities), axis=0)
        assert np.all(np.abs(self._central(path) - path.velocities[1:-1]) <= rtol * scale)

    def test_straight_line(self):
        rng = np.random.default_rng(81)
        z1, z2 = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        self._check(straight_line_geodesic(SignalSpectrum.from_complex(z1), SignalSpectrum.from_complex(z2)), 1e-13)

    def test_closed_form_sample_and_coefficient_path(self):
        grid, noise, rho0, rng = _band(6, seed=82)
        coeffs1, coeffs2 = np.array([0.2, 0.4]), np.array([-0.3, 1.2])
        psi1 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs1))
        psi2 = wrap_phase(np.polynomial.polynomial.polyval(grid.freqs, coeffs2))
        geo = solve_alpha_geodesic(0.8, 1.5, psi1, psi2, Template(noise, rho0))
        self._check(sample_alpha_geodesic(geo, n_nodes=2001), 1e-6)
        self._check(alpha_geodesic_coeff_path(geo, coeffs1, coeffs2, n_nodes=2001), 1e-6)

    def test_shot(self):
        _, noise, rho0, rng = _band(5, seed=83)
        psi1, psi2 = _phase_pair(rng, 5, 2.0)
        self._check(shoot_alpha_geodesic(0.6, 1.7, psi1, psi2, Template(noise, rho0)), 1e-3)


class TestTinyStartLengths:
    """A start far below the end crowds the phase advance into ``sigma ~
    alpha1 / alpha2``: on a flat 4-bin band at ``delta = 1``, ``alpha2 = 1``,
    the pieces on the paths' own node velocities give the length within
    1e-9 (the shot is right to 1.3e-11, the closed-form sample to rounding)."""

    @pytest.mark.parametrize("alpha1", [1e-40, 1e-100, 1e-150])
    def test_shot_and_closed_form_sample(self, alpha1):
        noise, rho0 = NoiseProfile.flat(1.0, 4), np.ones(4)
        template, psi1, psi2 = Template(noise, rho0), np.zeros(4), np.ones(4)
        chart = AlphaPhaseChart(template)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo = solve_alpha_geodesic(alpha1, 1.0, psi1, psi2, template)
            shot = shoot_alpha_geodesic(alpha1, 1.0, psi1, psi2, template)
            for path, n_quad in ((shot, 8), (sample_alpha_geodesic(geo, n_nodes=257), 16)):
                assert abs(path_length(chart, path, n_quad=n_quad) - geo.length) <= 1e-9 * geo.length


class TestAntipodalSampleLengths:
    """The closed-form sample near and at delta = pi (flat 4-bin band, gamma0
    2, attenuations 0.7 and 1.3, 257 nodes, ``n_quad`` 16): on ``velocity_at``'s
    rates, with the doubling knots, the length is 4.7e-12, 4.9e-15 and 0 off."""

    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 0.0])
    def test_length(self, gap):
        template = Template(NoiseProfile.flat(2.0, 4), np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGeodesicWarning)
            geo = solve_alpha_geodesic(0.7, 1.3, np.zeros(4), np.full(4, math.pi - gap), template)
        length = path_length(AlphaPhaseChart(template), sample_alpha_geodesic(geo, n_nodes=257), n_quad=16)
        assert abs(length - geo.length) <= 1e-10 * geo.length


class TestOneWrapRule:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_length_is_distance_alpha_on_unwrapped_phases(self, seed):
        a1, a2, psi1, _, template = TestScaledConstants._instance(seed)
        psi1 = 3.0 * psi1
        psi2 = psi1 + np.random.default_rng(seed).uniform(-3.3, 3.3, len(psi1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGeodesicWarning)
            geo = solve_alpha_geodesic(a1, a2, psi1, psi2, template)
        assert geo.length == distance_alpha(a1, a2, psi1, psi2, template)
        np.testing.assert_array_equal(geo.psi1, wrap_phase(psi1))


class TestScalarPhases:
    """Either phase may be a scalar, constant over the bins, as in ``distance_alpha``."""

    @pytest.mark.parametrize(
        "scalar1, scalar2", [(True, True), (True, False), (False, True)], ids=["both", "psi1", "psi2"]
    )
    def test_scalar_phase_equals_its_constant_vector(self, scalar1, scalar2):
        template = Template(NoiseProfile([0.7, 1.3, 2.0, 0.9]), np.array([1.0, 0.4, 1.7, 0.8]))
        # a start phase of 4.0 is wrapped; the vector sides vary over the bins
        psi1 = 4.0 if scalar1 else np.array([4.0, -0.3, 1.1, 2.9])
        psi2 = 0.7 if scalar2 else np.array([0.7, 2.2, -1.4, 0.1])
        full1, full2 = (np.full(4, psi) if np.ndim(psi) == 0 else psi for psi in (psi1, psi2))
        geo, expected = (solve_alpha_geodesic(1.0, 1.5, p1, p2, template) for p1, p2 in ((psi1, psi2), (full1, full2)))
        for f in dataclasses.fields(AlphaGeodesic):
            got, want = np.asarray(getattr(geo, f.name)), np.asarray(getattr(expected, f.name))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name
        assert geo.length == distance_alpha(1.0, 1.5, psi1, psi2, template)
        shot, expected = (shoot_alpha_geodesic(1.0, 1.5, p1, p2, template) for p1, p2 in ((psi1, psi2), (full1, full2)))
        assert shot.sigmas.tobytes() == expected.sigmas.tobytes()
        assert shot.coords.shape == expected.coords.shape and shot.coords.tobytes() == expected.coords.tobytes()


class TestPathChartMismatch:
    @pytest.mark.parametrize(
        "chart, n_columns, expected",
        [
            (AlphaPhaseChart(Template(NoiseProfile.flat(1.0, 1), np.ones(1))), 6, 2),
            (AlphaPhaseChart(Template(NoiseProfile.flat(1.0, 3), np.ones(3))), 6, 4),
        ],
    )
    def test_coordinate_count_named(self, chart, n_columns, expected):
        coords = np.linspace(0.5, 1.5, 5 * n_columns).reshape(5, n_columns)
        path = GeodesicPath(np.linspace(0.0, 1.0, 5), coords, np.ones_like(coords))
        with pytest.raises(ValueError, match=f"path has {n_columns} coordinates per node, the chart takes {expected}"):
            path_length(chart, path, n_quad=8)
