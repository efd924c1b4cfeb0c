"""Parametric charts mapping a real parameter vector to a signal spectrum.

A model splits its parameter vector ``xi = (phi, varphi)``: the first
``n_mag_params`` entries drive the magnitude spectrum only, the remaining
``n_phase_params`` drive the (unwrapped) phase spectrum only.  Models expose
analytic first and second partials of both spectra, which is what the metric
and connection computations consume.
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
    "polynomial_phase",
]


def polynomial_phase(coeffs, freqs) -> np.ndarray:
    """Phase polynomials at ``freqs``: one per row of ascending coefficients
    ``coeffs`` (shape ``(..., d)``, constant term first), shape ``(..., n)``.

    Horner's scheme in one output array, with the steps of numpy's
    ``polyval`` (``c[-1] + freqs * 0``, then ``c[k] + p * freqs``), so each
    row equals ``polyval`` of its coefficients bit for bit, zero padding
    included.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    out = coeffs[..., -1:] + 0.0 * freqs
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        out *= freqs
        out += coeffs[..., k : k + 1]
    return out


class ParametricSignalModel(abc.ABC):
    """Abstract magnitude/phase chart with analytic partials.

    Implementations must keep the magnitude independent of the phase
    parameters and vice versa; the cross curvature terms of the information
    metric vanish because of that split.
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
        """Split a parameter vector into (magnitude, phase) parts."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {xi.shape}")
        return xi[: self.n_mag_params], xi[self.n_mag_params :]

    @abc.abstractmethod
    def magnitude(self, phi, grid: FrequencyGrid) -> np.ndarray:
        """Magnitude spectrum rho(nu) >= 0, shape (n_freqs,)."""

    @abc.abstractmethod
    def phase_unwrapped(self, varphi, grid: FrequencyGrid) -> np.ndarray:
        """Unwrapped (continuous in nu) phase spectrum, shape (n_freqs,)."""

    @abc.abstractmethod
    def magnitude_jacobian(self, phi, grid: FrequencyGrid) -> np.ndarray:
        """d rho / d phi^u, shape (n_mag_params, n_freqs)."""

    @abc.abstractmethod
    def phase_jacobian(self, varphi, grid: FrequencyGrid) -> np.ndarray:
        """d psi / d varphi^q, shape (n_phase_params, n_freqs)."""

    @abc.abstractmethod
    def magnitude_hessian(self, phi, grid: FrequencyGrid) -> np.ndarray:
        """d^2 rho / d phi^u d phi^v, shape (P, P, n_freqs)."""

    @abc.abstractmethod
    def phase_hessian(self, varphi, grid: FrequencyGrid) -> np.ndarray:
        """d^2 psi / d varphi^q d varphi^r, shape (N-P, N-P, n_freqs)."""


@dataclass(frozen=True)
class KnownMagnitudeModel(ParametricSignalModel):
    """Known magnitude template up to one attenuation, polynomial phase.

    The magnitude is ``alpha * rho0(nu)`` with a single parameter alpha > 0;
    the unwrapped phase is a polynomial in nu whose coefficients (ascending
    powers, constant term first) are the phase parameters.  The constant
    coefficient is kept in (-pi, pi] since the phase is only observable
    modulo 2*pi; the linear coefficient equals ``-2*pi*tau`` for a pure time
    delay tau.

    The instance also stores a canonical point (``alpha``, ``phase_coeffs``);
    evaluation at other points goes through the explicit ``xi`` argument of
    the metric/geodesic operations.
    """

    rho0: np.ndarray
    alpha: float = 1.0
    phase_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        rho0 = readonly(self.rho0)
        coeffs = readonly(np.atleast_1d(self.phase_coeffs))
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "phase_coeffs", coeffs)
        if not in_range(rho0, 0.0, lo_closed=True):
            raise ValueError("rho0 must be finite and non-negative")
        check_attenuation(self.alpha)
        if len(coeffs) < 1:
            raise ValueError("at least the constant phase coefficient is required")
        if not in_range(coeffs):
            raise ValueError("phase coefficients must be finite")
        if not (-np.pi < coeffs[0] <= np.pi):
            raise ValueError("constant phase coefficient must lie in (-pi, pi]")
        if len(coeffs) > len(rho0):
            raise ValueError("phase polynomial degree exceeds n_freqs - 1")

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

    def _check_grid(self, grid: FrequencyGrid) -> None:
        check_aligned(grid=grid.n_freqs, rho0=len(self.rho0))

    def magnitude(self, phi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        alpha = float(np.asarray(phi, dtype=float).reshape(()))
        check_attenuation(alpha)
        return alpha * self.rho0

    def phase_unwrapped(self, varphi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        varphi = np.asarray(varphi, dtype=float)
        if varphi.shape != (self.n_phase_params,):
            raise ValueError("wrong number of phase coefficients")
        return polynomial_phase(varphi, grid.freqs)

    def magnitude_jacobian(self, phi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        return self.rho0[np.newaxis, :].copy()

    def phase_jacobian(self, varphi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        return np.vander(grid.freqs, self.n_phase_params, increasing=True).T

    def magnitude_hessian(self, phi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        return np.zeros((1, 1, grid.n_freqs))

    def phase_hessian(self, varphi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        q = self.n_phase_params
        return np.zeros((q, q, grid.n_freqs))


@dataclass(frozen=True)
class FreeSpectrumModel(ParametricSignalModel):
    """One magnitude and one phase parameter per bin: the full polar chart.

    This is the chart of the unconstrained band manifold expressed in polar
    coordinates.  Hessians are dense zero arrays, so keep the bin count small
    (it is meant for tests and cross-checks, not for production-size grids).
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

    def _check_grid(self, grid: FrequencyGrid) -> None:
        check_aligned(grid=grid.n_freqs, n_bins=self.n_bins)

    def magnitude(self, phi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        phi = np.asarray(phi, dtype=float)
        if not in_range(phi, 0.0, lo_closed=True):
            raise ValueError("per-bin magnitudes must be finite and non-negative")
        return phi.copy()

    def phase_unwrapped(self, varphi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        return np.asarray(varphi, dtype=float).copy()

    def magnitude_jacobian(self, phi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        return np.eye(self.n_bins)

    def phase_jacobian(self, varphi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        return np.eye(self.n_bins)

    def magnitude_hessian(self, phi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        return np.zeros((self.n_bins, self.n_bins, self.n_bins))

    def phase_hessian(self, varphi, grid: FrequencyGrid) -> np.ndarray:
        self._check_grid(grid)
        return np.zeros((self.n_bins, self.n_bins, self.n_bins))


def eval_model(model: ParametricSignalModel, xi, grid: FrequencyGrid) -> SignalSpectrum:
    """Evaluate a model at a parameter point, wrapping the phase."""
    phi, varphi = model.split(xi)
    rho = model.magnitude(phi, grid)
    psi = wrap_phase(model.phase_unwrapped(varphi, grid))
    return SignalSpectrum(rho, np.asarray(psi))
