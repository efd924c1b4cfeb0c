"""Closed-form information distances between band-limited signals.

Between two arbitrary spectra the distance is the Mahalanobis form of the
real embedding, which in polar variables reads

    d_full^2 = sum_nu (2/gamma0) [rho2^2 + rho1^2 - 2 rho1 rho2 cos(dpsi)].

When both endpoints share a magnitude template (rho = alpha * rho0) the
distance measured inside that submanifold depends only on the endpoint
attenuations and the weighted RMS wrapped phase difference delta:

    d_alpha^2 = omega0 [alpha2^2 + alpha1^2 - 2 alpha1 alpha2 cos(delta)].

The submanifold distance always dominates the full one (it is an equality
exactly for frequency-constant phase differences), their ratio tends to a
universal plateau for fast phase variation, and both scale linearly with the
template level (square root of the signal-to-noise ratio).  Every quadratic
form goes through :func:`~fisherband.band.scaled_chord`, in half-angle form
and scaled by a power of two, so nearby endpoints do not cancel and the
distances stay homogeneous over the whole double range.  Both known-magnitude
distances come from one batched kernel, :func:`known_mag_distances`, which
takes the endpoint phases and forms their wrapped gap and its weighted RMS
delta once, through :meth:`~fisherband.band.Template.phase_gap`; the scalar
functions, :func:`report`, the figure sweep and the ``distance`` command are
views of it.  The scalar functions take ``(alpha1, alpha2, psi1, psi2,
template)``, with the band validated once as a
:class:`~fisherband.band.Template`, and no grid: the band enters only through
the template's ``omega0`` and ``delta``.

:func:`known_mag_distances`, :func:`distance_full` and
:func:`distance_full_embedding` also take containers of ``(rows, bins)``
bands and give one value per row, each the bits of its one-band call, so a
caller with many small bands evaluates them in a few calls; every other
route takes one band and refuses rows by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .band import (
    ChartMismatchError,
    NoiseProfile,
    SignalSpectrum,
    Template,
    check_aligned,
    check_attenuation,
    in_range,
    scaled_chord,
    unscale,
    wrap_phase,
)

__all__ = [
    "DistanceReport",
    "distance_alpha",
    "distance_full",
    "distance_full_embedding",
    "known_mag_columns",
    "known_mag_distances",
    "large_phase_limits",
    "ratio_time_delay",
    "report",
    "small_phase_equivalent",
]


def known_mag_distances(template: Template, alpha1, alpha2, psi1, psi2, *, work=None):
    """Both known-magnitude distances of a batch of endpoint pairs: the kernel.

    ``alpha1`` and ``alpha2`` are scalars or of shape ``(P,)``; ``psi1`` and
    ``psi2`` are the endpoint phases, unwrapped or not, bins along the last
    axis and leading axes broadcast (a scalar phase is constant over the
    bins).  Its first step is :meth:`~fisherband.band.Template.phase_gap`,
    which gives the wrapped gap ``dpsi`` and its weighted RMS ``delta``.
    Returns ``(d_full, d_alpha, delta)``, one value per row: ``sqrt(omega0)``
    times the chord of :func:`~fisherband.band.scaled_chord` with ``h`` the
    template-weighted mean of ``sin^2(dpsi/2)`` (full manifold) or
    ``sin^2(delta/2)`` (submanifold).  Each row is scaled by its own power of
    two, so every row equals its scalar call however the scales in the batch
    differ.

    The per-bin ``sin^2(dpsi/2)`` is formed as ``t^2 / (1 + t^2)`` with ``t =
    tan(dpsi/2)``, exact algebra on ``(-pi, pi]``: numpy's float64 ``tan``
    has a SIMD path where its ``sin`` is scalar.  ``|t|`` is at most
    ``tan(pi/2) ~ 1.6e16`` in doubles, so the quotient is finite, exactly 1
    at ``dpsi = pi``, and cancels nowhere.  Checked on 1000-bin rows,
    ``d_full`` stays within 2 ulp of a 50-digit sum, as the ``sin`` form
    does, and within 1e-15 relative of :func:`distance_full`, which keeps
    ``sin`` as the independent route.

    ``work`` goes to :meth:`~fisherband.band.Template.phase_gap`, which says
    what it must be; every per-bin step runs in its two overwritten arrays, no
    output shares their memory, and the bits are those of a call without it.

    A row template (one band per row) broadcasts its ``(rows,)`` ``omega0``
    against the phase gap's rows; attenuations that do not broadcast against
    those rows are a ValueError naming the shapes.
    """
    check_attenuation(alpha1, alpha2)
    alpha1 = np.asarray(alpha1, dtype=float)
    alpha2 = np.asarray(alpha2, dtype=float)
    dpsi, delta = template.phase_gap(psi1, psi2, work=work)
    _check_rows(alpha1=alpha1.shape, alpha2=alpha2.shape, delta=np.shape(delta))
    # phase_gap leaves the gap's array free, and dpsi is read once, by the first step
    t = np.multiply(dpsi, 0.5, out=np.empty_like(dpsi) if work is None else work[0])
    np.tan(t, out=t)
    t2 = np.multiply(t, t, out=t)  # sin^2(dpsi/2) = t2 / (1 + t2), the docstring's tan form
    sin2 = np.divide(t2, np.add(t2, 1.0, out=dpsi), out=t2)
    half_delta = np.sin(0.5 * delta)
    # (1 - C) / 2 as a weighted mean of sin^2(dpsi/2): stable near C = 1; filled
    # in place, without np.stack's per-call checks, as the kernel runs once per block
    h = np.empty(np.shape(delta) + (2,))
    h[..., 0] = np.multiply(template.weights, sin2, out=sin2).sum(axis=-1) / template.omega0
    h[..., 1] = half_delta * half_delta
    c, e = scaled_chord(alpha1[..., np.newaxis], alpha2[..., np.newaxis], h)
    d = unscale(np.sqrt(np.asarray(template.omega0)[..., np.newaxis] * c), e)
    return d[..., 0], d[..., 1], delta


def _check_rows(**shapes) -> None:
    """Rows of the named shapes that do not broadcast are a ValueError naming each shape."""
    try:
        np.broadcast_shapes(*shapes.values())
    except ValueError:
        raise ValueError("rows do not broadcast: " + ", ".join(f"{k} {s}" for k, s in shapes.items())) from None


def _root(total, e):
    """``sqrt(total) * 2**e``, ``e`` keeping the bins' axis if it has one: a
    float for one band, else one value per row."""
    d = unscale(np.sqrt(total), np.squeeze(e, -1) if np.ndim(e) else e)
    return float(d) if np.ndim(d) == 0 else d


def distance_full(s1: SignalSpectrum, s2: SignalSpectrum, noise: NoiseProfile):
    """Distance on the full band manifold, polar form.

    ``sqrt(sum (2/gamma0) [rho2^2 + rho1^2 - 2 rho1 rho2 cos(psi2 - psi1)])``,
    evaluated per bin in half-angle form.  The power-of-two scale comes from
    the bins whose chord is not zero, so a large bin that is equal at both
    ends cannot push a small bin that moves below the double range.

    One band gives a float.  Containers of ``(rows, bins)`` bands, whose rows
    broadcast, give one distance per row, each with its own scale and the
    bits of its one-band call; a row with no moving bin gives 0.
    """
    check_aligned(s1=s1.n_freqs, s2=s2.n_freqs, noise=noise.n_freqs)
    _check_rows(s1=s1.rho.shape, s2=s2.rho.shape, noise=noise.gamma0.shape)
    half = np.sin(0.5 * wrap_phase(s2.psi - s1.psi))
    h = half * half
    moving = (s1.rho != s2.rho) | ((h > 0.0) & (s1.rho > 0.0))
    c, e = scaled_chord(np.where(moving, s1.rho, 0.0), np.where(moving, s2.rho, 0.0), h)
    return _root((noise.weights * c).sum(axis=-1), e)


def distance_full_embedding(s1: SignalSpectrum, s2: SignalSpectrum, noise: NoiseProfile):
    """Same distance through the real (Re, Im) embedding: the Mahalanobis
    form with the diagonal noise covariance.  Kept as an independent
    evaluation route for cross-checks; it takes rows as
    :func:`distance_full` does."""
    check_aligned(s1=s1.n_freqs, s2=s2.n_freqs, noise=noise.n_freqs)
    _check_rows(s1=s1.rho.shape, s2=s2.rho.shape, noise=noise.gamma0.shape)
    # each bin in the power-of-two units of its larger magnitude, so z2 - z1 cannot overflow
    e = np.frexp(np.maximum(s1.rho, s2.rho))[1]
    diff = np.ldexp(s2.rho, -e) * np.exp(1j * s2.psi) - np.ldexp(s1.rho, -e) * np.exp(1j * s1.psi)
    # then each row in the units of its largest difference, taken from the bins
    # that move alone, so that squares neither overflow nor underflow; a row
    # that does not move is 0 in any unit
    moving = diff != 0.0
    exps = e + np.frexp(np.maximum(np.abs(diff.real), np.abs(diff.imag)))[1]
    top = np.where(moving, exps, np.iinfo(exps.dtype).min).max(axis=-1, keepdims=True)
    top = np.where(moving.any(axis=-1, keepdims=True), top, 0)
    re, im = np.ldexp(diff.real, e - top), np.ldexp(diff.imag, e - top)
    return _root((noise.weights * (re * re + im * im)).sum(axis=-1), top)


def distance_alpha(alpha1: float, alpha2: float, psi1, psi2, template: Template) -> float:
    """Distance measured inside the known-magnitude submanifold.

    ``sqrt(omega0) * sqrt(alpha2^2 + alpha1^2 - 2 alpha1 alpha2 cos delta)``
    with delta the weighted RMS wrapped phase difference.
    """
    check_aligned(template=template)
    return float(known_mag_distances(template, alpha1, alpha2, psi1, psi2)[1])


def small_phase_equivalent(alpha1: float, alpha2: float, psi1, psi2, template: Template) -> float:
    """Shared small-phase limit of both distances.

    ``sqrt(SNR1) * sqrt((gamma - 1)^2 + gamma * delta^2)`` with
    gamma = alpha2/alpha1 and SNR1 = omega0 * alpha1^2; both exact distances
    divided by this tend to one as the phase differences shrink.  Evaluated
    as ``sqrt(omega0)`` times the chord with ``h = (delta/2)^2``, the limit of
    ``sin^2(delta/2)``, so it is homogeneous of degree one in the attenuations.
    """
    check_aligned(template=template)
    delta = float(known_mag_distances(template, alpha1, alpha2, psi1, psi2)[2])
    c, e = scaled_chord(alpha1, alpha2, (0.5 * delta) ** 2)
    return unscale(math.sqrt(template.omega0 * c), e)


def _check_positive(**values) -> None:
    """Reject a named scalar that is not positive and finite (NaN included)."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")


# h = sin^2(angle/2) of both large-phase limits: a mean cosine of 0 for d_full,
# and the RMS gap pi/sqrt(3) of equidistributed phases for d_alpha
_LARGE_PHASE_H = np.array([0.5, math.sin(0.5 * math.pi / math.sqrt(3.0)) ** 2])


def large_phase_limits(gamma_ratio: float, snr1: float) -> tuple[float, float]:
    """Limits of both distances for fast phase variation across the band.

    With phase differences equidistributed on (-pi, pi] the weighted mean
    cosine vanishes and the RMS tends to pi/sqrt(3), giving

        d_full  -> sqrt(SNR1) * sqrt(gamma^2 + 1)
        d_alpha -> sqrt(SNR1) * sqrt(gamma^2 + 1 - 2 gamma cos(pi/sqrt(3))).

    Both are ``sqrt(SNR1)`` times the chord of
    :func:`~fisherband.band.scaled_chord` between 1 and gamma, so they are inf
    only when their value exceeds the double range.
    """
    _check_positive(gamma_ratio=gamma_ratio, snr1=snr1)
    c, e = scaled_chord(1.0, float(gamma_ratio), _LARGE_PHASE_H)
    # sqrt(snr1) apart from sqrt(c), so that a small snr1 cannot underflow in the product
    full, sub = unscale(math.sqrt(snr1) * np.sqrt(c), e)
    return float(full), float(sub)


def ratio_time_delay(gamma_ratio: float, dpsi0: float, dtau_times_B, nu0_over_B: float, delta):
    """Submanifold-to-full distance ratio for time-delayed replicas.

    Assumes a constant per-bin signal-to-noise ratio and the linear phase law
    ``dpsi(nu) = dpsi0 - 2 pi nu dtau``.  The numerator takes ``delta``, the
    RMS of the wrapped phase differences on the grid; the denominator uses the
    band-integral (sinc) approximation of the mean cosine:

        num = g^2 + 1 - 2 g cos(delta)
        den = g^2 + 1 - 2 g sinc(B dtau) cos(dpsi0 - 2 pi nu0 dtau)

    Both are chords of :func:`~fisherband.band.scaled_chord` in one
    power-of-two unit, with ``h = sin^2(delta/2)`` and ``h = (1 - sinc(B
    dtau) cos(dpsi0 - 2 pi nu0 dtau)) / 2``.  Where ``den`` is 0 (the 0/0
    corner of coincident endpoints) the ratio is 1, the small-phase limit.
    ``dtau_times_B`` and ``delta`` broadcast: scalars return a float, arrays
    the array of ratios.  On ``grid = build_grid(nu0, B, n)``, with ``dtau =
    dtau_times_B / B``, ``delta`` is

        phase_rms_diff(0.0, dpsi0 - np.multiply.outer(2 * np.pi * dtau, grid.freqs), NoiseProfile.flat(2.0, n), np.ones(n))

    and the figure sweep takes the same ``delta`` from :func:`known_mag_distances`.
    """
    _check_positive(gamma_ratio=gamma_ratio)
    dtau = np.asarray(dtau_times_B, dtype=float)
    if not (math.isfinite(dpsi0) and math.isfinite(nu0_over_B) and in_range(dtau)):
        raise ValueError("dpsi0, dtau_times_B and nu0_over_B must be finite")
    if not in_range(delta, 0.0, math.pi, lo_closed=True, hi_closed=True):
        raise ValueError("delta must lie in [0, pi]")
    half = np.sin(0.5 * np.asarray(delta, dtype=float))
    mean_cos = np.sinc(dtau) * np.cos(dpsi0 - 2.0 * math.pi * nu0_over_B * dtau)
    h = np.stack(np.broadcast_arrays(half * half, 0.5 * (1.0 - mean_cos)))
    (num, den), _ = scaled_chord(1.0, float(gamma_ratio), h)
    positive = den > 0.0
    ratio = np.where(positive, np.sqrt(num / np.where(positive, den, 1.0)), 1.0)
    return float(ratio) if ratio.ndim == 0 else ratio


def _check_distances(d_full, d_alpha) -> None:
    """A report's rule, on one pair or on columns: no negative distance, and ``d_alpha >= d_full`` up to rounding."""
    with np.errstate(invalid="ignore"):  # inf - inf at distances beyond the double range
        if np.any(d_full < 0.0) or np.any(d_alpha < 0.0):
            raise ValueError("distances must be non-negative")
        if np.any(d_alpha < d_full - 1e-12 * (1.0 + d_full)):
            raise ValueError("submanifold distance fell below the full distance")


def known_mag_columns(d_full, d_alpha, delta, omega0: float, alpha1, alpha2) -> dict:
    """The fields of :class:`DistanceReport` for known-magnitude pairs on whole
    columns of the kernel's outputs, under the report's rule: one array per
    field, in field order, NaN where a report's ``ratio`` is None.  ``snr1 =
    omega0 alpha1^2`` is formed on the mantissa of ``alpha1``, so it is inf
    only when its value exceeds the double range."""
    d_full, d_alpha, alpha1 = (np.asarray(v, dtype=float) for v in (d_full, d_alpha, alpha1))
    _check_distances(d_full, d_alpha)
    mant, e = np.frexp(alpha1)
    defined = (0.0 < d_full) & (d_full < math.inf)
    with np.errstate(over="ignore"):  # a quotient beyond the double range is inf, as a float's is
        return {"d_full": d_full, "d_alpha": d_alpha, "omega0": np.full(d_full.shape, omega0),
                "snr1": unscale(omega0 * (mant * mant), 2 * e), "gamma_ratio": np.divide(alpha2, alpha1),
                "delta": np.asarray(delta, dtype=float),
                "ratio": np.divide(d_alpha, d_full, out=np.full(d_full.shape, math.nan), where=defined)}


@dataclass(frozen=True)
class DistanceReport:
    """Distances and the chart quantities behind them for one endpoint pair.

    Fields tied to the known-magnitude chart (everything except ``d_full``)
    are None when no template was supplied.  ``ratio`` is additionally None
    for coincident endpoints, where it is a 0/0, and when both distances
    overflow, where it is inf/inf.
    """

    d_full: float
    d_alpha: float | None = None
    omega0: float | None = None
    snr1: float | None = None
    gamma_ratio: float | None = None
    delta: float | None = None
    ratio: float | None = None

    def __post_init__(self):
        _check_distances(self.d_full, self.d_full if self.d_alpha is None else self.d_alpha)

    @classmethod
    def known_mag(cls, d_full, d_alpha, delta, omega0, alpha1, alpha2) -> "DistanceReport":
        """Report of a known-magnitude pair from the kernel's outputs: the
        one-row view of :func:`known_mag_columns`."""
        columns = known_mag_columns(d_full, d_alpha, delta, omega0, alpha1, alpha2)
        values = {name: float(v) for name, v in columns.items()}
        return cls(**values | {"ratio": None if math.isnan(values["ratio"]) else values["ratio"]})

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _fit_attenuation(rho: np.ndarray, rho0: np.ndarray) -> float:
    """Least-squares scale of rho against a validated template, with residual gate.

    rho is first scaled by the power of two of its largest bin (exactly), so
    the norms of the gate do not overflow for any finite magnitude.
    """
    e = math.frexp(float(np.max(rho)))[1]
    rho = np.ldexp(rho, -e)
    alpha = float(np.dot(rho, rho0)) / float(np.dot(rho0, rho0))
    scale = float(np.linalg.norm(rho))
    resid = float(np.linalg.norm(rho - alpha * rho0))
    if resid > 1e-9 * max(scale, 1e-300):
        raise ChartMismatchError("magnitude is not proportional to the template")
    if alpha <= 0.0:
        raise ChartMismatchError("fitted attenuation is not positive")
    if math.frexp(alpha)[1] + e > 1024:
        raise ValueError("fitted attenuation exceeds the double range")
    return math.ldexp(alpha, e)


def report(
    s1: SignalSpectrum, s2: SignalSpectrum, noise: NoiseProfile, rho0=None
) -> DistanceReport:
    """Bundle the distances between two spectra, with chart quantities.

    When a magnitude template ``rho0`` is supplied, both spectra must be
    proportional to it (relative residual below 1e-9), otherwise a
    :class:`ChartMismatchError` is raised.
    """
    check_aligned(s1=s1, s2=s2, noise=noise)
    d_full = distance_full(s1, s2, noise)
    if rho0 is None:
        return DistanceReport(d_full=d_full)
    template = Template(noise, rho0)
    alpha1 = _fit_attenuation(s1.rho, template.rho0)
    alpha2 = _fit_attenuation(s2.rho, template.rho0)
    _, d_alpha, delta = known_mag_distances(template, alpha1, alpha2, s1.psi, s2.psi)
    return DistanceReport.known_mag(d_full, float(d_alpha), float(delta), template.omega0, alpha1, alpha2)
