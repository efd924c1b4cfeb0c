import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fisherband import (
    FreeSpectrumModel,
    FrequencyGrid,
    KnownMagnitudeModel,
    build_grid,
    eval_model,
    phase_coeff_rows,
    polynomial_phase,
    wrap_phase,
)


@pytest.fixture
def grid8():
    return build_grid(0.25, 0.4, 8)


class TestKnownMagnitudeModel:
    @pytest.mark.parametrize("phi", [1.0, [1.0, 2.0], [[1.0, 2.0]]], ids=["scalar", "two", "row-of-two"])
    def test_magnitude_takes_one_attenuation_per_point(self, grid8, phi):
        model = KnownMagnitudeModel(grid8.freqs, np.ones(8))
        with pytest.raises(ValueError, match="^expected one magnitude parameter, the attenuation$"):
            model.magnitude(phi)

    def test_constant_model(self, grid8):
        model = KnownMagnitudeModel(grid8.freqs, np.ones(8), alpha=2.0, phase_coeffs=[0.0])
        spec = eval_model(model, model.xi)
        np.testing.assert_array_equal(spec.rho, np.full(8, 2.0))
        np.testing.assert_array_equal(spec.psi, np.zeros(8))

    def test_pure_time_delay(self, grid8):
        # linear coefficient -2*pi*tau realizes a delay by tau samples
        tau = 3.0
        model = KnownMagnitudeModel(grid8.freqs, np.ones(8), alpha=1.0, phase_coeffs=[0.0, -2 * math.pi * tau])
        spec = eval_model(model, model.xi)
        expected = wrap_phase(-2 * math.pi * tau * grid8.freqs)
        np.testing.assert_allclose(spec.psi, expected, rtol=0, atol=1e-12)

    def test_polynomial_wrap_at_half(self):
        # coefficients (pi, 4*pi) at nu = 0.5 give unwrapped 3*pi -> wrapped pi
        grid = build_grid(0.4375, 0.25, 2)  # dyadic band: centres 0.375, 0.5
        assert grid.freqs[1] == 0.5
        model = KnownMagnitudeModel(grid.freqs, np.ones(2), alpha=1.0, phase_coeffs=[math.pi, 4 * math.pi])
        spec = eval_model(model, model.xi)
        oracle = abs(np.angle(np.exp(1j * (math.pi + 4 * math.pi * 0.5))))
        assert spec.psi[1] == pytest.approx(oracle, abs=1e-12)
        assert spec.psi[1] == pytest.approx(math.pi, abs=1e-12)
        assert -math.pi < spec.psi[1] <= math.pi

    def test_huge_phase_coefficient(self):
        # a 1e21 delay coefficient wraps instead of failing the phase check
        grid = build_grid(0.25, 0.4, 16)
        model = KnownMagnitudeModel(grid.freqs, np.ones(16), alpha=1.0, phase_coeffs=[0.0, 1e21])
        spec = eval_model(model, model.xi)
        assert np.all((spec.psi > -math.pi) & (spec.psi <= math.pi))
        np.testing.assert_array_equal(spec.rho, np.ones(16))

    def test_magnitude_is_exact_scaling(self, grid8):
        rho0 = np.linspace(0.2, 1.9, 8)
        model = KnownMagnitudeModel(grid8.freqs, rho0, alpha=1.7, phase_coeffs=[0.1, 2.0])
        spec = eval_model(model, model.xi)
        np.testing.assert_array_equal(spec.rho, 1.7 * rho0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"phase_coeffs": [math.nan]},  # a constant wraps, but only a finite one
            {"phase_coeffs": [0.0] * 5},  # degree 4 on four frequencies
            {"phase_coeffs": []},
        ],
    )
    def test_invalid_construction(self, kwargs):
        base = {"alpha": 1.0, "phase_coeffs": [0.0]}
        base.update(kwargs)
        with pytest.raises(ValueError):
            KnownMagnitudeModel(build_grid(0.25, 0.4, 4).freqs, np.ones(4), **base)

    @pytest.mark.parametrize(
        "constant, stored", [(4.0, 4.0 - 2.0 * math.pi), (-math.pi, math.pi)], ids=["outside", "minus-pi"]
    )
    def test_constant_coefficient_is_wrapped(self, constant, stored):
        # the phase is observable only modulo 2 pi: the one rule wraps the constant into (-pi, pi], as the CLI does
        model = KnownMagnitudeModel(build_grid(0.25, 0.4, 4).freqs, np.ones(4), phase_coeffs=[constant, 1.5])
        assert model.phase_coeffs.tobytes() == np.array([stored, 1.5]).tobytes()
        assert phase_coeff_rows([[constant, 1.5]], 4).tobytes() == model.phase_coeffs.tobytes()

    @pytest.mark.parametrize(
        "freqs",
        [[0.1, 0.2, 0.4, 0.5], [0.4, 0.3, 0.2, 0.1], [0.0, 0.1, 0.2, 0.3], [0.1, 0.2, math.nan, 0.4], [], [[0.1, 0.2]]],
        ids=["not-equispaced", "decreasing", "zero", "nan", "empty", "2d"],
    )
    def test_band_follows_the_grid_rule(self, freqs):
        # FrequencyGrid checks the model's band: the same message for the same frequencies
        with pytest.raises(ValueError) as grid_error:
            FrequencyGrid(freqs)
        with pytest.raises(ValueError, match=f"^{re.escape(str(grid_error.value))}$"):
            KnownMagnitudeModel(freqs, np.ones(4))

    def test_band_is_a_read_only_copy(self):
        freqs = build_grid(0.25, 0.4, 4).freqs.copy()
        model = KnownMagnitudeModel(freqs, np.ones(4))
        freqs[0] = 0.5
        assert model.freqs.tobytes() == build_grid(0.25, 0.4, 4).freqs.tobytes() and not model.freqs.flags.writeable

    def test_degree_capped_by_bins(self):
        with pytest.raises(ValueError):
            KnownMagnitudeModel(build_grid(0.25, 0.4, 2).freqs, np.ones(2), alpha=1.0, phase_coeffs=[0.0, 1.0, 2.0])

    def test_eval_errors(self, grid8):
        model = KnownMagnitudeModel(grid8.freqs, np.ones(8), alpha=1.0, phase_coeffs=[0.0, 1.0])
        with pytest.raises(ValueError):
            eval_model(model, [1.0, 0.0])  # wrong dimension
        with pytest.raises(ValueError):
            eval_model(model, [-1.0, 0.0, 0.0])  # alpha <= 0
        with pytest.raises(ValueError, match="^misaligned band lengths: freqs 5, rho0 8$"):
            KnownMagnitudeModel(build_grid(0.25, 0.4, 5).freqs, np.ones(8))  # the band is the model's own

    def test_split_shapes(self, grid8):
        model = KnownMagnitudeModel(grid8.freqs, np.ones(8), alpha=1.2, phase_coeffs=[0.0, 1.0, -2.0])
        phi, varphi = model.split(model.xi)
        assert phi.shape == (1,)
        assert varphi.shape == (3,)
        assert model.n_params == 4


class TestPolynomialPhase:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([0.25, 1e3, 1e5]),
        st.integers(min_value=1, max_value=40),
        st.lists(
            st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e300, 1e300), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        ),
    )
    @example(0.25, 1, [[-0.0]])
    @example(0.25, 7, [[0.5], [-0.0, 3.0, -0.0], [1.0, 2.0, 3.0, 4.0]])
    # rows that overflow to inf and to -inf midway through the scheme
    @example(1e5, 3, [[1e300, 1e300, 1e300, 1e300], [1e300, -1e300, 1e300, -1e300], [0.0, 0.0, -1e300]])
    def test_equals_numpy_polyval_bit_for_bit(self, nu0, n, rows):
        # a band from nu0/2 to 3 nu0/2: at nu0 = 1e5 a cubic of 1e300 coefficients overflows
        freqs = build_grid(nu0, nu0, n).freqs
        block = np.zeros((len(rows), max(map(len, rows))))  # shorter rows zero-padded
        for j, coeffs in enumerate(rows):
            block[j, : len(coeffs)] = coeffs
        with np.errstate(over="ignore", invalid="ignore"):
            assert polynomial_phase(block, freqs).tobytes() == np.polynomial.polynomial.polyval(freqs, block.T).tobytes()
            for coeffs in rows:
                expected = np.polynomial.polynomial.polyval(freqs, np.array(coeffs))
                assert polynomial_phase(coeffs, freqs).tobytes() == expected.tobytes()

    def test_model_phase_is_the_helper(self, grid8):
        coeffs = np.array([0.3, -40.0, 7.0, 120.0])
        model = KnownMagnitudeModel(grid8.freqs, np.ones(8), phase_coeffs=coeffs)
        assert model.phase_unwrapped(coeffs).tobytes() == polynomial_phase(coeffs, grid8.freqs).tobytes()


class TestFreeSpectrumModel:
    def test_pass_through(self):
        model = FreeSpectrumModel(8)
        rho = np.linspace(0.1, 2.0, 8)
        psi = np.linspace(-1.0, 1.0, 8)
        spec = eval_model(model, np.concatenate([rho, psi]))
        np.testing.assert_array_equal(spec.rho, rho)
        np.testing.assert_allclose(spec.psi, psi, rtol=0, atol=0)

    def test_negative_magnitude_rejected(self):
        model = FreeSpectrumModel(8)
        xi = np.concatenate([-np.ones(8), np.zeros(8)])
        with pytest.raises(ValueError):
            eval_model(model, xi)

    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_no_bins_rejected(self, n_bins):
        with pytest.raises(ValueError, match="^n_bins must be at least 1$"):
            FreeSpectrumModel(n_bins)


def _fd_jacobian(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(len(x)):
        step = h * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = step
        rows.append((fun(x + e) - fun(x - e)) / (2 * step))
    return np.asarray(rows)


class TestAnalyticPartials:
    """The supplied partials must match central finite differences."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_known_magnitude_partials(self, seed, grid8):
        rng = np.random.default_rng(seed)
        rho0 = rng.uniform(0.2, 2.0, 8)
        coeffs = np.concatenate([[rng.uniform(-3, 3)], rng.normal(0, 2, 2)])
        coeffs[0] = wrap_phase(coeffs[0])
        model = KnownMagnitudeModel(grid8.freqs, rho0, alpha=float(rng.uniform(0.5, 2)), phase_coeffs=coeffs)
        phi, varphi = model.split(model.xi)

        jac = model.magnitude_jacobian(phi)
        fd = _fd_jacobian(lambda p: model.magnitude(p), phi)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-9)

        jac_p = model.phase_jacobian(varphi)
        fd_p = _fd_jacobian(lambda q: model.phase_unwrapped(q), varphi)
        np.testing.assert_allclose(jac_p, fd_p, rtol=1e-6, atol=1e-9)

        # both spectra are linear in their parameters: the chart declares no curvature
        assert model.magnitude_hessian(phi) is None
        assert model.phase_hessian(varphi) is None

    def test_cross_independence(self, grid8):
        # magnitude ignores phase parameters and vice versa
        model = KnownMagnitudeModel(grid8.freqs, np.ones(8), alpha=1.3, phase_coeffs=[0.2, 1.0])
        s1 = eval_model(model, [1.3, 0.2, 1.0])
        s2 = eval_model(model, [1.3, -0.4, 2.5])
        np.testing.assert_array_equal(s1.rho, s2.rho)
        s3 = eval_model(model, [0.6, 0.2, 1.0])
        np.testing.assert_array_equal(s1.psi, s3.psi)


class TestLeadingAxis:
    """The value and Jacobian methods take rows of points, each row as its own call."""

    @pytest.mark.parametrize("name", ["known-magnitude", "free-spectrum"])
    def test_rows_equal_one_point_calls(self, name, grid8):
        rng = np.random.default_rng(3)
        if name == "known-magnitude":
            model = KnownMagnitudeModel(grid8.freqs, rng.uniform(0.2, 2.0, 8), phase_coeffs=[0.1, -2.0, 5.0])
            points = np.column_stack([rng.uniform(0.5, 2.0, 5), rng.normal(0.0, 3.0, (5, 3))])
        else:
            model = FreeSpectrumModel(8)
            points = np.column_stack([rng.uniform(0.5, 2.0, (5, 8)), rng.normal(0.0, 3.0, (5, 8))])
        phi, varphi = model.split(points)
        for method, parts in (
            (model.magnitude, phi),
            (model.phase_unwrapped, varphi),
            (model.magnitude_jacobian, phi),
            (model.phase_jacobian, varphi),
        ):
            rows = method(parts)
            assert len(rows) == 5
            for row, part in zip(rows, parts):
                assert row.tobytes() == method(part).tobytes()

    def test_every_row_is_checked(self, grid8):
        model = KnownMagnitudeModel(grid8.freqs, np.ones(8), phase_coeffs=[0.0, 1.0])
        with pytest.raises(ValueError, match="^alpha must be positive and finite$"):
            model.magnitude([[1.0], [-1.0], [2.0]])
        with pytest.raises(ValueError, match="^wrong number of phase coefficients$"):
            model.phase_unwrapped(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="^per-bin magnitudes must be finite and non-negative$"):
            FreeSpectrumModel(2).magnitude([[1.0, 1.0], [1.0, math.nan]])
        with pytest.raises(ValueError, match=r"^expected 3 parameters, got shape \(2, 2, 3\)$"):
            model.split(np.ones((2, 2, 3)))
