"""Parametric charts mapping a real parameter vector to a signal spectrum.

A model is a map on its own band, so no method takes a grid.  It splits its
parameter vector ``xi = (phi, varphi)``: the first ``n_mag_params`` entries
drive the magnitude spectrum only, the remaining ``n_phase_params`` drive the
(unwrapped) phase spectrum only.  Models expose analytic first partials of
both spectra, at one point or at rows of points, and the second partials of
a curved chart; an affine chart (both shipped models) declares none.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .band import FrequencyGrid, SignalSpectrum, check_aligned, check_attenuation, in_range, readonly, wrap_phase

__all__ = [
    "FreeSpectrumModel",
    "KnownMagnitudeModel",
    "ParametricSignalModel",
    "eval_model",
    "phase_coeff_rows",
    "polynomial_gap",
    "polynomial_phase",
]


def polynomial_phase(coeffs, freqs, out=None) -> np.ndarray:
    """Phase polynomials at ``freqs``: one per row of ascending coefficients
    ``coeffs`` (shape ``(..., d)``, constant term first), shape ``(..., n)``.

    Horner's scheme in one output array, with the steps of numpy's
    ``polyval`` (``c[-1] + freqs * 0``, then ``c[k] + p * freqs``), so each
    row equals ``polyval`` of its coefficients bit for bit, zero padding
    included.  ``out``, a float array of that shape that overlaps neither
    input, is overwritten with the result and returned, with the same bits.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    shape = coeffs.shape[:-1] + np.shape(freqs)
    if out is not None and out.shape != shape:
        raise ValueError(f"polynomial_phase out has shape {out.shape}, the phases {shape}")
    out = np.add(coeffs[..., -1:], 0.0 * freqs, out=out)
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        out *= freqs
        out += coeffs[..., k : k + 1]
    return out


def polynomial_gap(half_gaps, freqs, out=None) -> np.ndarray:
    """Phase gaps ``psi2 - psi1`` of polynomial phases from their coefficients'
    half gaps ``0.5 * c2 - 0.5 * c1`` (rows of shape ``(..., d)``, zero-padded
    to one length; halving is exact, so the difference of two finite
    coefficients cannot overflow).

    :func:`polynomial_phase` of the half gaps, doubled back in place, which is
    exact: one Horner pass per pair, and the endpoints' shared digits cancel in
    the coefficients, not in two evaluated phases.  A gap past the double range
    is inf or NaN, with no warning, for the kernel's phase-gap check to name.
    ``out`` is as in :func:`polynomial_phase`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = polynomial_phase(half_gaps, freqs, out=out)
        return np.add(out, out, out=out)


def phase_coeff_rows(coeffs, n_freqs: int) -> np.ndarray:
    """Rows of ascending phase coefficients (shape ``(..., d)``) under a
    known-magnitude model's one rule: every coefficient finite, and at least
    one and at most ``n_freqs`` of them (a degree of at most ``n_freqs - 1``).
    Returned as a new array whose constant terms are wrapped into (-pi, pi] by
    one ``wrap_phase`` call: the phase is observable only modulo 2*pi, so the
    constant is wrapped, not rejected."""
    coeffs = np.array(coeffs, dtype=float, ndmin=1)
    if coeffs.shape[-1] < 1:
        raise ValueError("at least the constant phase coefficient is required")
    if not in_range(coeffs):
        raise ValueError("phase coefficients must be finite")
    if coeffs.shape[-1] > n_freqs:
        raise ValueError("phase polynomial degree exceeds n_freqs - 1")
    coeffs[..., 0] = wrap_phase(coeffs[..., 0])
    return coeffs


class ParametricSignalModel(abc.ABC):
    """Abstract magnitude/phase chart with analytic partials.

    Implementations must keep the magnitude independent of the phase
    parameters and vice versa; the cross curvature terms of the information
    metric vanish because of that split.  The value and Jacobian methods
    take one point or rows of points (a leading axis) and return one result
    per row; the Hessians take one point, and default to None: identically zero.
    """

    @property
    @abc.abstractmethod
    def n_mag_params(self) -> int: ...

    @property
    @abc.abstractmethod
    def n_phase_params(self) -> int: ...

    @property
    def n_params(self) -> int:
        return self.n_mag_params + self.n_phase_params

    def split(self, xi) -> tuple[np.ndarray, np.ndarray]:
        """Split one parameter vector (shape ``(N,)``) or rows of them
        (shape ``(rows, N)``) into (magnitude, phase) parts."""
        xi = np.asarray(xi, dtype=float)
        if xi.ndim not in (1, 2) or xi.shape[-1] != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got shape {xi.shape}")
        return xi[..., : self.n_mag_params], xi[..., self.n_mag_params :]

    @abc.abstractmethod
    def magnitude(self, phi) -> np.ndarray:
        """Magnitude spectrum rho(nu) >= 0, shape (..., n_freqs)."""

    @abc.abstractmethod
    def phase_unwrapped(self, varphi) -> np.ndarray:
        """Unwrapped (continuous in nu) phase spectrum, shape (..., n_freqs)."""

    @abc.abstractmethod
    def magnitude_jacobian(self, phi) -> np.ndarray:
        """d rho / d phi^u, shape (..., n_mag_params, n_freqs)."""

    @abc.abstractmethod
    def phase_jacobian(self, varphi) -> np.ndarray:
        """d psi / d varphi^q, shape (..., n_phase_params, n_freqs)."""

    def magnitude_hessian(self, phi) -> np.ndarray | None:
        """d^2 rho / d phi^u d phi^v, shape (P, P, n_freqs); None: identically zero."""
        return None

    def phase_hessian(self, varphi) -> np.ndarray | None:
        """d^2 psi / d varphi^q d varphi^r, shape (N-P, N-P, n_freqs); None: identically zero."""
        return None


@dataclass(frozen=True, eq=False)
class KnownMagnitudeModel(ParametricSignalModel):
    """Known magnitude template up to one attenuation, polynomial phase.

    The model lives on the band ``freqs`` (held read-only, under
    ``FrequencyGrid``'s rule, one per bin of ``rho0``).  The magnitude is
    ``alpha * rho0(nu)`` with a single parameter alpha > 0; the unwrapped
    phase is a polynomial in nu whose coefficients (ascending powers,
    constant term first) are the phase parameters, held under
    :func:`phase_coeff_rows`' rule: the constant coefficient is wrapped into
    (-pi, pi]; the linear coefficient equals ``-2*pi*tau`` for a pure time
    delay tau.  Both spectra are linear in their parameters: no Hessian.

    The instance also stores a canonical point (``alpha``, ``phase_coeffs``);
    evaluation at other points goes through the explicit ``xi`` argument of
    the metric/geodesic operations.
    """

    freqs: np.ndarray
    rho0: np.ndarray
    alpha: float = 1.0
    phase_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        freqs = FrequencyGrid(self.freqs).freqs
        rho0 = readonly(self.rho0)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "rho0", rho0)
        if not in_range(rho0, 0.0, lo_closed=True):
            raise ValueError("rho0 must be finite and non-negative")
        check_aligned(freqs=len(freqs), rho0=len(rho0))
        check_attenuation(self.alpha)
        object.__setattr__(self, "phase_coeffs", readonly(phase_coeff_rows(self.phase_coeffs, len(rho0))))

    @property
    def n_mag_params(self) -> int:
        return 1

    @property
    def n_phase_params(self) -> int:
        return len(self.phase_coeffs)

    @property
    def xi(self) -> np.ndarray:
        """The stored canonical parameter point (alpha, coefficients)."""
        return np.concatenate(([self.alpha], self.phase_coeffs))

    def magnitude(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        if phi.shape[-1:] != (1,):
            raise ValueError("expected one magnitude parameter, the attenuation")
        check_attenuation(phi)
        return phi * self.rho0

    def phase_unwrapped(self, varphi) -> np.ndarray:
        varphi = np.asarray(varphi, dtype=float)
        if varphi.shape[-1:] != (self.n_phase_params,):
            raise ValueError("wrong number of phase coefficients")
        return polynomial_phase(varphi, self.freqs)

    def magnitude_jacobian(self, phi) -> np.ndarray:
        return np.broadcast_to(self.rho0, (*np.shape(phi)[:-1], 1, len(self.rho0)))

    def phase_jacobian(self, varphi) -> np.ndarray:
        jac = np.vander(self.freqs, self.n_phase_params, increasing=True).T
        return np.broadcast_to(jac, (*np.shape(varphi)[:-1], *jac.shape))


@dataclass(frozen=True)
class FreeSpectrumModel(ParametricSignalModel):
    """One magnitude and one phase parameter per bin: the full polar chart.

    This is the chart of the unconstrained band manifold expressed in polar
    coordinates.  It needs no frequencies, and it is affine, so it declares
    no Hessian; its connection symbols are still a dense ``(2n)^3`` array,
    so it is meant for tests and cross-checks, not for production-size
    grids.
    """

    n_bins: int

    def __post_init__(self):
        if self.n_bins < 1:
            raise ValueError("n_bins must be at least 1")

    @property
    def n_mag_params(self) -> int:
        return self.n_bins

    @property
    def n_phase_params(self) -> int:
        return self.n_bins

    def magnitude(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        if not in_range(phi, 0.0, lo_closed=True):
            raise ValueError("per-bin magnitudes must be finite and non-negative")
        return phi.copy()

    def phase_unwrapped(self, varphi) -> np.ndarray:
        return np.asarray(varphi, dtype=float).copy()

    def magnitude_jacobian(self, phi) -> np.ndarray:
        return np.broadcast_to(np.eye(self.n_bins), (*np.shape(phi)[:-1], self.n_bins, self.n_bins))

    def phase_jacobian(self, varphi) -> np.ndarray:
        return self.magnitude_jacobian(varphi)


def eval_model(model: ParametricSignalModel, xi) -> SignalSpectrum:
    """Evaluate a model at one parameter point, wrapping the phase."""
    phi, varphi = model.split(xi)
    rho = model.magnitude(phi)
    psi = wrap_phase(model.phase_unwrapped(varphi))
    return SignalSpectrum(rho, np.asarray(psi))
