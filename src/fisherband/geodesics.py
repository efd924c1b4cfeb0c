"""Geodesics of the band manifold and of the known-magnitude submanifold.

On the full band manifold (all finite-energy signals, fixed noise) geodesics
are straight lines in the real embedding (Re, Im per bin).  On the
known-magnitude submanifold (magnitude ``alpha * rho0``, free per-bin phase)
the geodesic equations reduce to

    alpha'' = K / alpha^3,      psi'(nu) = c(nu) / alpha^2,

whose boundary-value solution between (alpha1, psi1) and (alpha2, psi2) is

    alpha(s)^2 = k1 (s + k2)^2 + K / k1

with constants fixed by the endpoint attenuations and by the weighted RMS
wrapped phase difference delta:

    k1 = (alpha2 - alpha1)^2 + 4 alpha1 alpha2 sin^2(delta/2)
    k2 = -alpha1 (alpha1 - alpha2 cos delta) / k1
    K  = (alpha1 alpha2 sin delta)^2
    c(nu) = sqrt(K) * dpsi(nu) / delta.

``AlphaGeodesic`` alone derives them from the boundary data, in power-of-two
units, so the closed form is homogeneous over the whole double range.

Integrating the phase equation gives an arctan flow, implemented here and
validated against one Dormand-Prince 5(4) shot from the free-motion slope.  The
module also evaluates the geodesic-equation residual of an arbitrary sampled
path (two weighted frequency sums pairing the spectral accelerations with
the parameter gradients), which independently certifies that returned
curves are geodesics and rejects non-affine reparametrizations.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .band import (
    ConvergenceError,
    NoiseProfile,
    SignalSpectrum,
    Template,
    check_aligned,
    check_attenuation,
    in_range,
    readonly,
    scaled_chord,
    unscale,
    wrap_phase,
)
from .metric import path_speed
from .models import ParametricSignalModel

__all__ = [
    "AlphaGeodesic",
    "AlphaPhaseChart",
    "DegenerateGeodesicWarning",
    "GeodesicPath",
    "LdgResidual",
    "ModelChart",
    "alpha_geodesic_coeff_path",
    "embedding_coords",
    "ldg_residual",
    "path_length",
    "sample_alpha_geodesic",
    "shoot_alpha_geodesic",
    "solve_alpha_geodesic",
    "spectrum_from_embedding",
    "straight_line_geodesic",
]


class DegenerateGeodesicWarning(UserWarning):
    """The attenuation touches zero inside the path (antipodal phases)."""


@dataclass(frozen=True)
class GeodesicPath:
    """Sampled curve: node parameters in [0, 1], with one coordinate row and one
    velocity row (the coordinates' derivatives in sigma) per node."""

    sigmas: np.ndarray
    coords: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        sigmas = readonly(self.sigmas, one_dim=False)
        coords = readonly(self.coords, one_dim=False)
        velocities = readonly(self.velocities, one_dim=False)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "velocities", velocities)
        if sigmas.ndim != 1 or coords.ndim != 2 or coords.shape[0] != len(sigmas):
            raise ValueError("need one coordinate row per node")
        if velocities.shape != coords.shape:
            raise ValueError("need one velocity row per coordinate row")
        if len(sigmas) < 2:
            raise ValueError("a path needs at least two nodes")
        if not in_range(np.diff(sigmas), 0.0, math.inf, hi_closed=True):
            raise ValueError("node parameters must be strictly increasing")
        if abs(sigmas[0]) > 1e-12 or abs(sigmas[-1] - 1.0) > 1e-12:
            raise ValueError("path must run from 0 to 1")

    @property
    def n_nodes(self) -> int:
        return len(self.sigmas)


# -- charts ------------------------------------------------------------------


class AlphaPhaseChart:
    """Known-magnitude submanifold chart on a validated template: (alpha, unwrapped phase per bin)."""

    def __init__(self, template: Template):
        self._w = template.weights
        self.omega0 = template.omega0

    def _flat_speed(self, alpha, alpha_vel, phase_sq) -> np.ndarray:
        """Speed from alpha, its velocity and the weighted squared phase velocity."""
        return self.omega0 * alpha_vel**2 + alpha**2 * phase_sq

    def speed(self, coords, vel) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        vel = np.asarray(vel, dtype=float)
        return self._flat_speed(coords[..., 0], vel[..., 0], np.sum(self._w * vel[..., 1:] ** 2, axis=-1))


class ModelChart:
    """Chart of an arbitrary parametric model; speed via its metric, one
    ``path_speed`` call for all rows of points."""

    def __init__(self, model: ParametricSignalModel, noise: NoiseProfile):
        self.model = model
        self.noise = noise

    def speed(self, coords, vel):
        return path_speed(self.model, coords, vel, self.noise)


def embedding_coords(spectrum: SignalSpectrum) -> np.ndarray:
    """Interleaved (Re, Im) coordinates of a spectrum."""
    z = spectrum.to_complex()
    out = np.empty(2 * len(z))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def spectrum_from_embedding(coords) -> SignalSpectrum:
    coords = np.asarray(coords, dtype=float)
    z = coords[0::2] + 1j * coords[1::2]
    return SignalSpectrum.from_complex(z)


def straight_line_geodesic(mu1: SignalSpectrum, mu2: SignalSpectrum, n_nodes: int = 65) -> GeodesicPath:
    """Affine path between two spectra in the (Re, Im) embedding.

    This is the geodesic of the full band manifold; converting any node back
    to a spectrum is ``spectrum_from_embedding(path.coords[j])``.
    """
    check_aligned(mu1=mu1.n_freqs, mu2=mu2.n_freqs)
    if n_nodes < 2:
        raise ValueError("n_nodes must be at least 2")
    x1 = embedding_coords(mu1)
    x2 = embedding_coords(mu2)
    sigmas = np.linspace(0.0, 1.0, n_nodes)
    coords = x1[np.newaxis, :] + sigmas[:, np.newaxis] * (x2 - x1)[np.newaxis, :]
    return GeodesicPath(sigmas, coords, np.tile(x2 - x1, (n_nodes, 1)))


# -- closed-form geodesic on the known-magnitude submanifold -----------------


def _at_ends(sigmas, values, start, end) -> np.ndarray:
    """``values`` with ``start`` at sigma = 0 and ``end`` at sigma = 1."""
    return np.where(sigmas == 0.0, start, np.where(sigmas == 1.0, end, values))


@dataclass(frozen=True)
class AlphaGeodesic:
    """Closed-form geodesic of the known-magnitude submanifold.

    Built from the boundary data alone: the endpoint attenuations, the
    weighted RMS wrapped phase difference ``delta``, the wrapped start phases
    ``psi1``, the wrapped per-bin difference ``dpsi`` and the band energy
    ``omega0``.  ``alpha(s) = sqrt(k1 (s + k2)^2 + K/k1)`` runs from alpha1 to
    alpha2; each bin's unwrapped phase advances by an arctan flow with per-bin
    constant ``c``.  The constants are held in power-of-two units: with the
    attenuations scaled by ``2**-scale`` (the exponent of ``scaled_chord``),
    ``chord`` is k1 and ``moment = a1 a2 |sin delta|`` is sqrt(K), so every
    evaluation is homogeneous over the double range; ``k1``, ``K`` and ``c``
    read them in natural units.  ``k2`` and ``moment`` are formed from each
    attenuation's own mantissa and exponent, so where the scaled small end
    is subnormal they round once, not at every product.  At sigma = 0 and
    1 the evaluations return the boundary data themselves: the attenuations,
    mix 0 and 1, and end rates formed with each end's attenuation divided
    out, which no shift ``s + k2`` resolves when one end is below the
    other's ulp.  ``degenerate`` marks the antipodal case delta = pi where
    the attenuation touches zero inside the path and the phase advance
    concentrates at the crossing; with no moment and the crossing outside
    [0, 1] the flow has a moment-free limit instead.
    """

    alpha1: float
    alpha2: float
    delta: float
    psi1: np.ndarray
    dpsi: np.ndarray
    omega0: float
    chord: float = field(init=False)
    k2: float = field(init=False)
    moment: float = field(init=False)
    scale: int = field(init=False)

    def __post_init__(self):
        for name in ("psi1", "dpsi"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        check_attenuation(self.alpha1, self.alpha2)
        if not 0.0 <= self.delta <= math.pi:
            raise ValueError("delta must lie in [0, pi]")
        chord, scale = scaled_chord(self.alpha1, self.alpha2, self._half_angle())
        object.__setattr__(self, "chord", float(chord))
        object.__setattr__(self, "scale", scale)
        (m1, e1), (m2, e2) = math.frexp(self.alpha1), math.frexp(self.alpha2)
        # coincident endpoints (chord 0): the constant path
        k2 = unscale(-m1 * self._end_terms()[0] / self.chord, e1 - scale) if self.chord > 0.0 else 0.0
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "moment", unscale(m1 * m2 * abs(math.sin(self.delta)), e1 + e2 - 2 * scale))

    def _half_angle(self) -> float:
        half = np.sin(0.5 * self.delta)
        return float(half * half)

    def _scaled_ends(self) -> tuple[float, float]:
        return math.ldexp(self.alpha1, -self.scale), math.ldexp(self.alpha2, -self.scale)

    def _end_terms(self) -> tuple[float, float]:
        """``(q1, q2)``, each end's shift with its attenuation divided out:
        ``chord k2 = -a1 q1`` and ``chord (1 + k2) = a2 q2``, where ``q1 = a1 -
        a2 cos delta`` and ``q2 = a2 - a1 cos delta`` in half-angle form."""
        a1, a2 = self._scaled_ends()
        h = self._half_angle()
        return (a1 - a2) + 2.0 * a2 * h, (a2 - a1) + 2.0 * a1 * h

    def _flow_angles(self) -> tuple[float, float]:
        """Arctan flow angles ``atan2(chord (s + k2), moment)`` at s = 0 and s = 1,
        each with its end's attenuation divided out of both arguments."""
        (q1, q2), (a1, a2) = self._end_terms(), self._scaled_ends()
        sin = abs(math.sin(self.delta))
        return math.atan2(-q1, a2 * sin), math.atan2(q2, a1 * sin)

    @property
    def k1(self) -> float:
        """Squared chord of the endpoints: the squared speed in units of omega0."""
        return unscale(self.chord, 2 * self.scale)

    @property
    def K(self) -> float:
        """Constant of the attenuation equation alpha'' = K / alpha^3."""
        return unscale(self.moment * self.moment, 4 * self.scale)

    @property
    def c(self) -> np.ndarray:
        """Per-bin constants of the phase equation psi' = c / alpha^2."""
        if self.delta > 0.0 and self.moment > 0.0:
            return unscale(self.moment * self.dpsi / self.delta, 2 * self.scale)
        return np.zeros_like(self.dpsi)

    @property
    def _crossing_inside(self) -> bool:
        """No flow moment, and the attenuation's zero crossing ``-k2`` lies in
        [0, 1]: read off the signs of ``q1`` and ``q2``, not the rounded k2."""
        q1, q2 = self._end_terms()
        return self.moment <= 0.0 and q1 >= 0.0 and q2 >= 0.0

    @property
    def degenerate(self) -> bool:
        """The attenuation touches zero inside the path: a crossing there, or delta within 1e-9 of pi."""
        return bool(self.delta > 0.0 and (self._crossing_inside or math.pi - self.delta < 1e-9))

    def alpha_at(self, sigmas) -> np.ndarray:
        """Attenuation alpha(s) at each curve parameter in ``sigmas``."""
        sigmas = np.asarray(sigmas, dtype=float)
        if self.chord == 0.0:
            return np.full_like(sigmas, self.alpha1)
        # hypot, so the small end is not squared below the double range
        alphas = unscale(np.hypot(self.chord * (sigmas + self.k2), self.moment) / math.sqrt(self.chord), self.scale)
        return _at_ends(sigmas, alphas, self.alpha1, self.alpha2)

    def phase_mix_at(self, sigmas) -> np.ndarray:
        """Fraction of the per-bin phase advance completed at each sigma: the
        normalized arctan flow; for K = 0 a step at the attenuation's zero
        crossing when it lies in [0, 1] (1/2 exactly at the crossing), else
        the flow's moment-free limit ``s (1 + k2) / (s + k2)``."""
        sigmas = np.asarray(sigmas, dtype=float)
        if self.delta <= 0.0 or self.chord == 0.0:
            return np.zeros_like(sigmas)
        if self.moment > 0.0:
            angles = np.arctan2(self.chord * (sigmas + self.k2), self.moment)
            mix = (angles - self._flow_angles()[0]) / self.delta
        elif self._crossing_inside:
            crossing = -self.k2
            return np.where(sigmas < crossing, 0.0, np.where(sigmas > crossing, 1.0, 0.5))
        else:
            # at sigma = 0 a k2 that underflowed reads 0 / 0, which the end replaces
            with np.errstate(divide="ignore", invalid="ignore"):
                mix = sigmas * (1.0 + self.k2) / (sigmas + self.k2)
        return _at_ends(sigmas, mix, 0.0, 1.0)

    def velocity_at(self, sigmas) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives ``(alpha_rate, mix_rate)`` of ``alpha_at`` and ``phase_mix_at``
        at each sigma: with ``a_s`` the scaled attenuation, ``chord (s + k2) / a_s``
        and ``(moment / a_s) / (delta a_s)``, of degree 1 and 0 in the
        attenuations; at the ends ``-q1`` and ``q2``, and ``a2 |sin delta| /
        (a1 delta)`` and ``a1 |sin delta| / (a2 delta)``.  A mix rate beyond the
        double range (a start below about 1e-308 of the end) reads inf."""
        sigmas = np.asarray(sigmas, dtype=float)
        if self.chord == 0.0:
            return np.zeros_like(sigmas), np.zeros_like(sigmas)
        shift = self.chord * (sigmas + self.k2)
        q1, q2 = self._end_terms()
        alpha_ends = unscale(-q1, self.scale), unscale(q2, self.scale)
        # with no moment a_s = |shift| / sqrt(chord), so alpha' is +-sqrt(chord)
        alpha_rate = unscale(np.sign(shift) * math.sqrt(self.chord), self.scale)
        if self.delta <= 0.0 or self._crossing_inside:
            # the phases stay or step
            return _at_ends(sigmas, alpha_rate, *alpha_ends), np.zeros_like(sigmas)
        (a1, a2), (m1, e1), (m2, e2) = self._scaled_ends(), math.frexp(self.alpha1), math.frexp(self.alpha2)
        sinc = abs(math.sin(self.delta)) / self.delta
        mix_ends = unscale(a2 * sinc / m1, self.scale - e1), unscale(a1 * sinc / m2, self.scale - e2)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.moment <= 0.0:
                # the derivative of the flow's moment-free limit
                mix_rate = self.k2 * (1.0 + self.k2) / (sigmas + self.k2) ** 2
            else:
                a_s = np.hypot(shift, self.moment) / math.sqrt(self.chord)
                # divide before squaring, so a tiny a_s does not underflow to 0
                alpha_rate, mix_rate = unscale(shift / a_s, self.scale), (self.moment / a_s) / (self.delta * a_s)
        return _at_ends(sigmas, alpha_rate, *alpha_ends), _at_ends(sigmas, mix_rate, *mix_ends)

    @property
    def length(self) -> float:
        """Geodesic length sqrt(omega0 * k1)."""
        return unscale(math.sqrt(self.omega0 * self.chord), self.scale)

    @property
    def speed(self) -> float:
        """Constant squared speed omega0 * k1 of the affine parametrization."""
        return self.omega0 * self.k1

    def bvp_residual(self) -> float:
        """Residual of the endpoint system the constants solve.

        ``tan^2(delta) (a1^2 + a2^2 - k1)^2 + (a2^2 - a1^2 - k1)^2
        - 4 a1^2 k1`` vanishes for the exact constants; meaningless at the
        tan pole delta = pi/2.  Evaluated in the scaled units, of degree 4.
        """
        t2 = math.tan(self.delta) ** 2
        a1, a2 = self._scaled_ends()
        a1s, a2s = a1**2, a2**2
        r = t2 * (a1s + a2s - self.chord) ** 2 + (a2s - a1s - self.chord) ** 2 - 4.0 * a1s * self.chord
        return unscale(r, 4 * self.scale)

    def to_json_dict(self) -> dict:
        names = ("alpha1", "alpha2", "k1", "k2", "K", "delta", "omega0", "degenerate", "c", "psi1", "dpsi")
        return {name: np.asarray(getattr(self, name)).tolist() for name in names}


def _boundary_geodesic(alpha1, alpha2, psi1, psi2, template: Template) -> AlphaGeodesic:
    """The closed-form geodesic of the boundary data.

    ``dpsi`` and ``delta`` are ``Template.phase_gap`` of the raw phases, as in
    ``distance_alpha``; only the start phases are wrapped.  A scalar phase is
    constant over the bins, so both are broadcast to the template's bins.
    """
    dpsi, delta = template.phase_gap(psi1, psi2)
    psi1, dpsi, _ = np.broadcast_arrays(wrap_phase(np.asarray(psi1, dtype=float)), dpsi, template.rho0)
    return AlphaGeodesic(float(alpha1), float(alpha2), delta, psi1, dpsi, template.omega0)


def solve_alpha_geodesic(alpha1: float, alpha2: float, psi1, psi2, template: Template) -> AlphaGeodesic:
    """Boundary-value geodesic between two points of the submanifold.

    Takes the arguments of ``distance_alpha``, a band validated once as a
    ``Template`` and no grid: the constants read the band only through the
    template, and either phase may be a scalar.  Per-bin phase differences are
    wrapped (as in ``distance_alpha``), so the path follows the short way
    around each phase circle; ``delta`` therefore lands in [0, pi].
    ``delta = pi`` yields the degenerate solution whose attenuation touches
    zero inside (0, 1); it is returned with a warning.
    """
    geo = _boundary_geodesic(alpha1, alpha2, psi1, psi2, template)
    if geo.degenerate:
        warnings.warn(
            "antipodal phase difference: attenuation touches zero inside the path",
            DegenerateGeodesicWarning,
            stacklevel=2,
        )
    return geo


def sample_alpha_geodesic(geo: AlphaGeodesic, n_nodes: int = 201) -> GeodesicPath:
    """Sample the geodesic as a path in the (alpha, unwrapped phase) chart.

    Nodes uniform in sigma are mixed with nodes uniform in the phase-advance
    angle, which cluster around the attenuation dip (``moment / chord`` wide)
    where the curve is sharpest, and with nodes at dip distances that double
    out to the uniform spacing, where the angled ones thin out.  Each node
    carries ``velocity_at``'s rates, at delta = pi too: the doubling nodes
    reach into the dip down to sigma's resolution, and ``path_length`` on
    them is exact to rounding there.  Knots may lie ulps apart, as each of
    ``path_length``'s pieces reads only its own two nodes.
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be at least 2")
    uniform = np.linspace(0.0, 1.0, n_nodes)
    if geo.moment <= 0.0 or geo.chord == 0.0:
        sigmas = uniform
    else:
        width = geo.moment / geo.chord
        thetas = np.linspace(*geo._flow_angles(), n_nodes)[1:-1]
        angled = np.tan(thetas) * width - geo.k2
        # knots at dip distances that double from its width up to the uniform
        # spacing, where the angled ones thin out harmonically
        steps = np.ldexp(width, np.arange(max(math.ceil(-math.log2((n_nodes - 1) * width)), 0)))
        bridge = np.concatenate([-geo.k2 - steps, steps - geo.k2])
        # np.unique's knots, by a sort and a neighbour mask (np.unique loads numpy.ma, 1.7 MB resident)
        merged = np.sort(np.clip(np.concatenate([uniform, angled, bridge]), 0.0, 1.0))
        sigmas = merged[np.concatenate([[True], merged[1:] != merged[:-1]])]
    mix, (alpha_rate, mix_rate) = geo.phase_mix_at(sigmas)[:, np.newaxis], geo.velocity_at(sigmas)
    coords = np.column_stack([geo.alpha_at(sigmas), geo.psi1 + mix * geo.dpsi])
    return GeodesicPath(sigmas, coords, np.column_stack([alpha_rate, mix_rate[:, np.newaxis] * geo.dpsi]))


def alpha_geodesic_coeff_path(geo: AlphaGeodesic, coeffs1, coeffs2, n_nodes: int = 101) -> GeodesicPath:
    """Geodesic sampled in a polynomial-phase parameter chart.

    Valid when the endpoint coefficient difference produces unwrapped phase
    differences within (-pi, pi] on the whole grid, so the wrapped per-bin
    differences the geodesic interpolates coincide with the polynomial ones.
    Coordinates per node are (alpha, coefficients), with ``velocity_at``'s rates.
    """
    coeffs1 = np.asarray(coeffs1, dtype=float)
    coeffs2 = np.asarray(coeffs2, dtype=float)
    if coeffs1.shape != coeffs2.shape:
        raise ValueError("coefficient vectors differ in shape")
    sigmas = np.linspace(0.0, 1.0, n_nodes)
    mix, (alpha_rate, mix_rate) = geo.phase_mix_at(sigmas)[:, np.newaxis], geo.velocity_at(sigmas)
    coords = np.column_stack([geo.alpha_at(sigmas), coeffs1 + mix * (coeffs2 - coeffs1)])
    return GeodesicPath(sigmas, coords, np.column_stack([alpha_rate, mix_rate[:, np.newaxis] * (coeffs2 - coeffs1)]))


# -- shooting oracle ---------------------------------------------------------


# the shooting oracle's tolerances, in the closed form's power-of-two units
_RTOL, _ATOL = 1e-11, 1e-13


def _dp_alpha_path(alpha1: float, slope: float, K: float):
    """Dormand-Prince 5(4) with FSAL, its tableau written out (Hairer, Norsett
    & Wanner, Solving ODEs I, table II.5.2), for (alpha' = v, v' = K/alpha^3,
    theta' = 1/alpha^2) from (alpha1, slope, 0) at sigma = 0 toward 1.

    A step passes when the RMS of its error estimates, each over ``_ATOL +
    _RTOL`` times its component's larger end, is at most 1 and alpha stays
    positive (a stage on alpha = 0 fails it); the next is ``0.9 err^(-1/5)``
    times it, within [0.2, 5].  ``1 / alpha1**2`` must be finite.  Returns
    the accepted rows ``(sigma, alpha, v, theta)``, short of 1 when the step
    falls below sigma's resolution, and the count of rejected steps.
    """
    s, a, v, theta = 0.0, float(alpha1), float(slope), 0.0
    nodes, rejected, h = [(s, a, v, theta)], 0, 0.01
    # the rates read only (alpha, v): q = 1/alpha^2 is theta's, w = K q / alpha is v's
    w1 = K * (q1 := 1.0 / (a * a)) / a
    while s < 1.0:
        # the last step ends on 1 exactly: s + (1 - s) rounds to 1
        h = min(h, 1.0 - s)
        if s + h <= s:
            break
        try:
            a2, v2 = a + h * (1 / 5 * v), v + h * (1 / 5 * w1)
            w2 = K * (q2 := 1.0 / (a2 * a2)) / a2
            a3, v3 = a + h * (3 / 40 * v + 9 / 40 * v2), v + h * (3 / 40 * w1 + 9 / 40 * w2)
            w3 = K * (q3 := 1.0 / (a3 * a3)) / a3
            a4 = a + h * (44 / 45 * v - 56 / 15 * v2 + 32 / 9 * v3)
            v4 = v + h * (44 / 45 * w1 - 56 / 15 * w2 + 32 / 9 * w3)
            w4 = K * (q4 := 1.0 / (a4 * a4)) / a4
            a5 = a + h * (19372 / 6561 * v - 25360 / 2187 * v2 + 64448 / 6561 * v3 - 212 / 729 * v4)
            v5 = v + h * (19372 / 6561 * w1 - 25360 / 2187 * w2 + 64448 / 6561 * w3 - 212 / 729 * w4)
            w5 = K * (q5 := 1.0 / (a5 * a5)) / a5
            a6 = a + h * (9017 / 3168 * v - 355 / 33 * v2 + 46732 / 5247 * v3 + 49 / 176 * v4 - 5103 / 18656 * v5)
            v6 = v + h * (9017 / 3168 * w1 - 355 / 33 * w2 + 46732 / 5247 * w3 + 49 / 176 * w4 - 5103 / 18656 * w5)
            w6 = K * (q6 := 1.0 / (a6 * a6)) / a6
            # the fifth-order weights, stage 7's row, so its rates open the next step
            a7 = a + h * (35 / 384 * v + 500 / 1113 * v3 + 125 / 192 * v4 - 2187 / 6784 * v5 + 11 / 84 * v6)
            v7 = v + h * (35 / 384 * w1 + 500 / 1113 * w3 + 125 / 192 * w4 - 2187 / 6784 * w5 + 11 / 84 * w6)
            theta7 = theta + h * (35 / 384 * q1 + 500 / 1113 * q3 + 125 / 192 * q4 - 2187 / 6784 * q5 + 11 / 84 * q6)
            w7 = K * (q7 := 1.0 / (a7 * a7)) / a7
            # the fifth- less the fourth-order weights; hypot, so no squared estimate overflows
            err = math.hypot(
                h * (71 / 57600 * v - 71 / 16695 * v3 + 71 / 1920 * v4 - 17253 / 339200 * v5 + 22 / 525 * v6 - 1 / 40 * v7)
                / (_ATOL + _RTOL * max(abs(a), abs(a7))),
                h * (71 / 57600 * w1 - 71 / 16695 * w3 + 71 / 1920 * w4 - 17253 / 339200 * w5 + 22 / 525 * w6 - 1 / 40 * w7)
                / (_ATOL + _RTOL * max(abs(v), abs(v7))),
                h * (71 / 57600 * q1 - 71 / 16695 * q3 + 71 / 1920 * q4 - 17253 / 339200 * q5 + 22 / 525 * q6 - 1 / 40 * q7)
                / (_ATOL + _RTOL * max(abs(theta), abs(theta7))),
            ) / math.sqrt(3.0)
        except ZeroDivisionError:
            err = math.inf
        if err <= 1.0 and a7 > 0.0:
            s, a, v, theta, q1, w1 = s + h, a7, v7, theta7, q7, w7
            nodes.append((s, a, v, theta))
            h *= min(5.0, 0.9 * max(err, 1e-10) ** -0.2)
        else:
            # a NaN or infinite estimate takes the smallest factor
            rejected += 1
            h *= max(0.2, 0.9 * err**-0.2)
    return np.array(nodes), rejected


def shoot_alpha_geodesic(alpha1: float, alpha2: float, psi1, psi2, template: Template) -> GeodesicPath:
    """Numerical boundary-value geodesic: one Dormand-Prince 5(4) shot.

    Takes the arguments of ``solve_alpha_geodesic``.  K and the per-bin
    ``c = sqrt(K) dpsi / delta`` come from the boundary data's
    ``AlphaGeodesic``, not from its closed-form path, and the ODE runs in its
    power-of-two units.  In polar coordinates (alpha, sqrt(K) theta) the ODE
    is free motion along a line: from (alpha1, 0) with slope v it ends at
    ``x = alpha1 + v``, ``y = sqrt(K) / alpha1``.  So the free-motion slope
    ``alpha2 cos delta - alpha1``, which reads no k1 or k2, is the exact root,
    and one integration from it (``_dp_alpha_path``) gives the nodes.  Both
    ends are checks: ``x(1)`` against ``alpha2 cos delta`` to 1e-10, and
    ``y(1)``, which tests K, against ``alpha2 sin delta`` to 1e-6.  The
    nodes' velocities are the ODE state's: alpha's rate ``v``, and each bin's
    phase rate ``dpsi`` times the mix rate ``moment / (alpha^2 delta)``, the
    rate of ``sqrt(K) theta / delta``.  A start
    whose 1/alpha1^2 is not finite, a step below sigma's resolution, or a miss
    raises ``ConvergenceError`` naming the dip width ``moment / chord``,
    narrower than sigma resolves at delta = pi.  Scaling both attenuations by
    a power of two scales alpha exactly and leaves all else bit for bit.
    """
    geo = _boundary_geodesic(alpha1, alpha2, psi1, psi2, template)
    a1, a2 = geo._scaled_ends()
    root_k, delta = geo.moment, geo.delta

    def failure(what):
        # chord 0 (coincident ends) is the constant path, which always arrives
        return ConvergenceError(f"shooting {what}, against an attenuation dip moment/chord = {geo.moment / geo.chord:.1e} wide")

    if not (a1 * a1 > 0.0 and 1.0 / (a1 * a1) < math.inf):
        raise failure("cannot start: 1/alpha1^2 is not finite in the scaled units")
    nodes, rejected = _dp_alpha_path(a1, a2 * math.cos(delta) - a1, root_k * root_k)
    sigmas, alphas, rates, advances = nodes[:, 0], nodes[:, 1], nodes[:, 2], root_k * nodes[:, 3]
    if sigmas[-1] < 1.0:
        raise failure(f"stopped at sigma = {sigmas[-1]:.17g}, its step below sigma's resolution after {rejected} rejected steps")
    if abs(alphas[-1] * math.cos(advances[-1]) - a2 * math.cos(delta)) > 1e-10:
        raise failure("missed alpha2 cos(delta)")
    if abs(alphas[-1] * math.sin(advances[-1]) - a2 * math.sin(delta)) > 1e-6:
        raise failure("reached alpha2 cos(delta), but missed alpha2 sin(delta)")
    # the fraction of each bin's phase difference covered is the advance over
    # delta; its rate divides before squaring, so a tiny alpha does not underflow
    mix, mix_rate = (advances / delta, (root_k / alphas) / (delta * alphas)) if delta > 0.0 else (0.0 * advances,) * 2
    coords = np.column_stack([np.ldexp(alphas, geo.scale), geo.psi1 + mix[:, np.newaxis] * geo.dpsi])
    return GeodesicPath(sigmas, coords, np.column_stack([np.ldexp(rates, geo.scale), mix_rate[:, np.newaxis] * geo.dpsi]))


# -- path functionals --------------------------------------------------------


def _legendre_series(x, c):
    """``sum_k c[k] P_k(x)``, two or more terms, by Clenshaw's backward recurrence on
    the Legendre three-term recurrence, in the order of operations of numpy 2.4's ``legval``."""
    c0, c1 = c[-2], c[-1]
    for n in range(len(c) - 1, 1, -1):
        c0, c1 = c[n - 2] - c1 * ((n - 1) / n), c0 + c1 * x * ((2 * n - 1) / n)
    return c0 + c1 * x


@functools.lru_cache(maxsize=8)
def _hermite_rule(n_quad: int):
    """The ``n_quad``-point Gauss-Legendre rule on [0, 1], read-only, as
    ``(weights, position, velocity)``: at its points ``u``, the factors of
    ``(m, d0, d1)`` in the slope form of a cubic Hermite piece (de Boor, *A
    Practical Guide to Splines*, ch. IV), ``y0 + h (u m + u (1 - u)^2 d0 -
    u^2 (1 - u) d1)`` and its velocity ``m + (1 - u)(1 - 3u) d0 - u (2 - 3u)
    d1``, on an interval of width ``h`` with chord slope ``m`` and end slopes
    ``m + d0`` and ``m + d1``.

    The rule is numpy's ``leggauss`` algorithm, step for step, on numpy's
    core (importing ``leggauss`` loads all of ``numpy.polynomial``): the
    points are the eigenvalues of the symmetric Jacobi matrix (Golub &
    Welsch, *Math. Comp.* 23, 1969) after one Newton step, and the weights
    ``1 / (P_{n-1} P_n')``, symmetrised and scaled to sum to 2.  It equals
    numpy 2.4's ``leggauss`` bit for bit (another numpy may order ``legval``'s
    operations otherwise), and at 8, 16 and 64 points lies within 4e-15 of
    ``leggauss`` and of a 50-digit reference.
    """
    k = np.arange(n_quad)
    scale = 1.0 / np.sqrt(2 * k + 1)
    nodes = np.linalg.eigvalsh(np.diag(k[1:] * scale[:-1] * scale[1:], -1))
    # P_n, and P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    unit = np.zeros(n_quad + 1)
    unit[-1] = 1.0
    slope = _legendre_series(nodes, np.where((n_quad - k) % 2, 2.0 * k + 1.0, 0.0))
    nodes = nodes - _legendre_series(nodes, unit) / slope
    below = _legendre_series(nodes, unit[1:])
    weights = 1.0 / (below / np.abs(below).max() * (slope / np.abs(slope).max()))
    weights, nodes = (weights + weights[::-1]) / 2, (nodes - nodes[::-1]) / 2
    weights *= 2.0 / weights.sum()
    u = 0.5 * (nodes + 1.0)
    position = np.column_stack([u, u * (1.0 - u) ** 2, -(u**2) * (1.0 - u)])
    velocity = np.column_stack([np.ones(n_quad), (1.0 - u) * (1.0 - 3.0 * u), -u * (2.0 - 3.0 * u)])
    return tuple(readonly(table, one_dim=False) for table in (0.5 * weights, position, velocity))


def path_length(chart, path: GeodesicPath, n_quad: int = 64) -> float:
    """Length of a sampled path: quadrature of sqrt(speed) along its cubic Hermite interpolant.

    Each inter-node interval is the cubic that takes the path's node values
    and node velocities at its ends (no system is solved, so each piece reads
    its own two nodes), held in slope form by its chord slope and end slopes,
    and is integrated with an ``n_quad``-point Gauss-Legendre rule; two
    products with ``_hermite_rule``'s tables give position and velocity at
    the rule's points.  The result is reparametrization invariant up to
    interpolation error, and exact for the rule on a path whose coordinates
    are cubic in sigma.  On the flat ``AlphaPhaseChart`` only alpha's
    position is formed: alpha is scaled by the exact power of two that brings
    its largest magnitude into [0.5, 1), so the length is homogeneous of
    degree 1 in the attenuation over the double range, and an interval's
    weighted squared phase speed at a point with Hermite factors ``V`` is
    ``V^T G V``, ``G`` the weighted 3 x 3 Gram of the interval's ``(m, d0,
    d1)`` over the bins.  Any other chart's ``speed`` sees every column.  A
    path coordinate or velocity that is not finite is one named error on
    every chart.
    """
    if n_quad < 8:
        raise ValueError("n_quad must be at least 8")
    sigmas, coords, velocities = path.sigmas, path.coords, path.velocities
    if not in_range(coords):
        raise ValueError("path coordinates must be finite")
    if not in_range(velocities):
        raise ValueError("path velocities must be finite")
    h = np.diff(sigmas)[:, np.newaxis]

    def factors(values, slopes, h=h):
        # (m, d0, d1) per interval and column; the point axis leads the products
        chord = np.diff(values, axis=0) / h
        return np.stack([chord, slopes[:-1] - chord, slopes[1:] - chord])

    weights, position, velocity = _hermite_rule(n_quad)
    flat = isinstance(chart, AlphaPhaseChart)
    if flat:
        expected = 1 + len(chart._w)
        if coords.shape[1] != expected:
            raise ValueError(f"path has {coords.shape[1]} coordinates per node, the chart takes {expected}")
        exponent = math.frexp(float(np.max(np.abs(coords[:, 0]))))[1]
        alphas = np.ldexp(coords[:, 0], -exponent)
        alpha = factors(alphas, np.ldexp(velocities[:, 0], -exponent), h[:, 0])
        # the six entries (k, l) of each interval's weighted Gram, a row each,
        # and the products V_k V_l at the points, off-diagonal ones doubled
        phase, k, l = factors(coords[:, 1:], velocities[:, 1:]), [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
        gram = np.stack([(phase[i] * phase[j]) @ chart._w for i, j in zip(k, l)])
        pairs = velocity[:, k] * velocity[:, l] * [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        speeds = chart._flat_speed(alphas[:-1] + h[:, 0] * (position @ alpha), velocity @ alpha, pairs @ gram)
    else:
        every = factors(coords, velocities)
        pos = coords[:-1] + h * np.tensordot(position, every, axes=1)
        vel = np.tensordot(velocity, every, axes=1)
        speeds = np.asarray(chart.speed(pos.reshape(-1, pos.shape[-1]), vel.reshape(-1, pos.shape[-1])), dtype=float)
        speeds = speeds.reshape(n_quad, -1)
    # the sum runs in interval order, point by point within each interval
    length = float(np.sum((h * weights * np.sqrt(np.maximum(speeds, 0.0)).T).ravel()))
    return unscale(length, exponent) if flat else length


@dataclass(frozen=True)
class LdgResidual:
    """Geodesic-equation residuals of a sampled path at its interior nodes.

    ``mag[j, u]`` pairs the magnitude acceleration with the u-th magnitude
    gradient, ``phase[j, q]`` the phase acceleration with the q-th phase
    gradient; both vanish along geodesics of the model's submanifold.
    ``speed_scale`` is the largest finite-difference path speed, the natural
    magnitude against which the residuals are compared.
    """

    sigmas: np.ndarray
    mag: np.ndarray
    phase: np.ndarray
    speed_scale: float

    @property
    def max_scaled(self) -> float:
        # one np.max over both arrays, which passes a NaN on
        worst = float(np.max(np.abs(np.hstack([self.mag, self.phase]))))
        return worst / self.speed_scale if self.speed_scale > 0.0 else worst


def ldg_residual(model: ParametricSignalModel, path: GeodesicPath, noise: NoiseProfile) -> LdgResidual:
    """Evaluate the two geodesic-equation frequency sums along a path.

    The path must be sampled uniformly in sigma (central differences in the
    curve parameter are taken node by node) with at least nine nodes.  At
    every interior node the magnitude equation

        sum_nu (2/gamma0) drho/du (rho'' - rho psi'^2)

    and the phase equation

        sum_nu (2/gamma0) dpsi/dq (rho^2 psi'' + 2 rho rho' psi')

    are returned; both are zero (to discretization error) exactly when the
    path is an affinely parametrized geodesic of the model's submanifold.
    The model evaluates its spectra at all nodes, and its Jacobians at all
    interior nodes, in one call each.
    """
    if path.n_nodes < 9:
        raise ValueError("need at least nine nodes for second differences")
    h = float(path.sigmas[1] - path.sigmas[0])
    if np.max(np.abs(np.diff(path.sigmas) - h)) > 1e-9:
        raise ValueError("path nodes must be uniform in sigma")
    if path.coords.shape[1] != model.n_params:
        raise ValueError("path coordinates do not match the model chart")

    phi, varphi = model.split(path.coords)
    rho = np.asarray(model.magnitude(phi), dtype=float)
    check_aligned(model=rho.shape[-1], noise=noise.n_freqs)
    psi = np.asarray(model.phase_unwrapped(varphi), dtype=float)

    d_rho = (rho[2:] - rho[:-2]) / (2.0 * h)
    d_psi = (psi[2:] - psi[:-2]) / (2.0 * h)
    dd_rho = (rho[2:] - 2.0 * rho[1:-1] + rho[:-2]) / h**2
    dd_psi = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h**2
    rho_mid = rho[1:-1]

    w = noise.weights
    mag_core = w * (dd_rho - rho_mid * d_psi**2)
    phase_core = w * (rho_mid**2 * dd_psi + 2.0 * rho_mid * d_rho * d_psi)
    # each interior node's Jacobian times its own sums
    mag_res = (model.magnitude_jacobian(phi[1:-1]) @ mag_core[:, :, np.newaxis])[:, :, 0]
    phase_res = (model.phase_jacobian(varphi[1:-1]) @ phase_core[:, :, np.newaxis])[:, :, 0]

    fd_speed = np.sum(w * (d_rho**2 + rho_mid**2 * d_psi**2), axis=1)
    return LdgResidual(
        sigmas=path.sigmas[1:-1],
        mag=mag_res,
        phase=phase_res,
        speed_scale=float(np.max(fd_speed)),
    )
