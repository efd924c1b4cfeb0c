"""Information metric and connection coefficients for signal charts.

For the circular complex Gaussian observation law with known per-bin noise
power, the information matrix of a magnitude/phase chart is block diagonal:

    g_uv = sum_nu (2/gamma0) drho/du drho/dv            (magnitude block)
    g_qr = sum_nu (2/gamma0) rho^2 dpsi/dq dpsi/dr      (phase block)

with zero cross block.  The first-kind connection coefficients
``Gamma_{ij,m} = (d_i g_jm + d_j g_mi - d_m g_ij) / 2`` then have exactly four
non-zero index families, all computed here in closed form.  Two independent
oracles are provided: a Monte Carlo estimate of the metric from score outer
products, and central finite differences of the metric for the connection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .band import NoiseProfile, check_aligned, in_range, readonly, row_blocks
from .models import ParametricSignalModel

__all__ = [
    "ChristoffelTensor",
    "FisherMatrix",
    "christoffel",
    "christoffel_fd",
    "fisher_matrix",
    "monte_carlo_fisher",
    "path_speed",
]

# byte budget of one Monte Carlo sample chunk
_MC_CHUNK_BYTES = 2**20
# relative step of the finite-difference connection oracle
_FD_STEP = 1e-5


@dataclass(frozen=True)
class FisherMatrix:
    """Block-diagonal information matrix of a magnitude/phase chart."""

    mag_block: np.ndarray
    phase_block: np.ndarray

    def __post_init__(self):
        for name in ("mag_block", "phase_block"):
            block = readonly(getattr(self, name), one_dim=False)
            object.__setattr__(self, name, block)
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise ValueError(f"{name} must be square")
            if not in_range(block):
                raise ValueError(f"{name} has non-finite entries")
            scale = float(np.max(np.abs(block))) if block.size else 0.0
            if scale > 0.0 and float(np.max(np.abs(block - block.T))) > 1e-12 * scale:
                raise ValueError(f"{name} is not symmetric")
            eigvals = np.linalg.eigvalsh(0.5 * (block + block.T))
            norm = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
            # rank deficiency is allowed (a parameter may have no effect on
            # the grid); genuinely negative curvature of the quadratic form
            # is not
            if eigvals.size and float(eigvals[0]) < -1e-10 * norm:
                raise ValueError(f"{name} is not positive semidefinite")

    @property
    def n_mag_params(self) -> int:
        return self.mag_block.shape[0]

    @property
    def n_params(self) -> int:
        return self.mag_block.shape[0] + self.phase_block.shape[0]

    def full(self) -> np.ndarray:
        """Assemble the dense block-diagonal parameter-space metric."""
        p = self.n_mag_params
        n = self.n_params
        out = np.zeros((n, n))
        out[:p, :p] = self.mag_block
        out[p:, p:] = self.phase_block
        return out

    def to_json_dict(self) -> dict:
        return {
            "n_mag_params": self.n_mag_params,
            "n_phase_params": self.phase_block.shape[0],
            "mag_block": self.mag_block.tolist(),
            "phase_block": self.phase_block.tolist(),
        }


@dataclass(frozen=True)
class ChristoffelTensor:
    """Dense first-kind symbols, lowered index last: values[i, j, m].

    Only four index families can be non-zero for a magnitude/phase chart
    (all-magnitude; phase-phase lowered magnitude; all-phase; and the mixed
    family with a lowered phase index); construction enforces the exact
    structural zeros, the i<->j symmetry and the sign relation tying the two
    mixed families together.
    """

    values: np.ndarray
    n_mag_params: int

    def __post_init__(self):
        values = readonly(self.values, one_dim=False)
        object.__setattr__(self, "values", values)
        n = values.shape[0]
        if values.shape != (n, n, n):
            raise ValueError("values must be a cubic array")
        if not 1 <= self.n_mag_params <= n - 1:
            raise ValueError("n_mag_params out of range")
        if not in_range(values):
            raise ValueError("non-finite connection coefficients")
        if not np.array_equal(values, values.transpose(1, 0, 2)):
            raise ValueError("symbols are not symmetric in the upper pair")
        if np.any(values[~structural_mask(n, self.n_mag_params)] != 0.0):
            raise ValueError("structural zeros violated")
        p = self.n_mag_params
        # Gamma_{q'u,q} and -Gamma_{q'q,u} are the same frequency sum
        if not np.array_equal(values[p:, :p, p:], -values[p:, p:, :p].transpose(0, 2, 1)):
            raise ValueError("mixed-family sign relation violated")

    @property
    def n_params(self) -> int:
        return self.values.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "n_params": self.n_params,
            "n_mag_params": self.n_mag_params,
            "values": self.values.tolist(),
        }


def structural_mask(n_params: int, n_mag_params: int) -> np.ndarray:
    """Boolean mask of index triples that may carry non-zero symbols."""
    p = n_mag_params
    is_mag = np.arange(n_params) < p
    i = is_mag[:, None, None]
    j = is_mag[None, :, None]
    m = is_mag[None, None, :]
    allowed = (
        (i & j & m)  # all-magnitude family
        | (~i & ~j)  # phase-phase pair, either lowered index
        | ((i ^ j) & ~m)  # mixed pair with a lowered phase index
    )
    return allowed


def _chart_data(model: ParametricSignalModel, xi, noise: NoiseProfile, *, rows: bool):
    """The parts, spectrum and Jacobians at one point, or at rows of points
    with ``rows``, each checked finite, on a model aligned with ``noise``."""
    if not rows and np.ndim(xi) != 1:
        raise ValueError(f"expected one point of {model.n_params} parameters, got shape {np.shape(xi)}")
    phi, varphi = model.split(xi)
    rho = np.asarray(model.magnitude(phi), dtype=float)
    check_aligned(model=rho.shape[-1], noise=noise.n_freqs)
    mag_jac = np.asarray(model.magnitude_jacobian(phi), dtype=float)
    phase_jac = np.asarray(model.phase_jacobian(varphi), dtype=float)
    for arr, name in ((rho, "magnitude"), (mag_jac, "magnitude jacobian"), (phase_jac, "phase jacobian")):
        if not in_range(arr):
            raise ValueError(f"non-finite {name} at the requested point")
    return phi, varphi, rho, mag_jac, phase_jac


def fisher_matrix(model: ParametricSignalModel, xi, noise: NoiseProfile) -> FisherMatrix:
    """Analytic block-diagonal information matrix at a parameter point."""
    _, _, rho, mag_jac, phase_jac = _chart_data(model, xi, noise, rows=False)
    w = noise.weights
    mag = np.einsum("ik,k,jk->ij", mag_jac, w, mag_jac)
    phase = np.einsum("ik,k,jk->ij", phase_jac, w * rho**2, phase_jac)
    return FisherMatrix(mag, phase)


def path_speed(model: ParametricSignalModel, xi, xi_dot, noise: NoiseProfile):
    """Quadratic form ``g_ij(xi) xi_dot^i xi_dot^j`` of the chart metric, as
    the per-bin form ``sum (2/gamma0) [(drho/ds)^2 + rho^2 (dpsi/ds)^2]``.

    ``xi`` and ``xi_dot`` are one point and velocity (shape ``(N,)``; a float
    comes back) or rows of them (shape ``(rows, N)``; one speed per row),
    taken in the blocks of ``row_blocks``, so memory does not grow with the rows.
    """
    points, velocities = np.atleast_2d(xi, xi_dot)
    if velocities.shape != points.shape:
        raise ValueError("velocity dimension mismatch")
    p = model.n_mag_params
    out = np.empty(len(points))
    with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows is named below
        for rows in row_blocks(len(points), noise.n_freqs):
            _, _, rho, mag_jac, phase_jac = _chart_data(model, points[rows], noise, rows=True)
            d_rho = np.einsum("...u,...uk->...k", velocities[rows, :p], mag_jac)
            d_psi = np.einsum("...q,...qk->...k", velocities[rows, p:], phase_jac)
            out[rows] = np.sum(noise.weights * (d_rho**2 + rho**2 * d_psi**2), axis=-1)
    if not in_range(out):
        raise ValueError("non-finite path speed at the requested point")
    return float(out[0]) if np.ndim(xi) == 1 else out


def monte_carlo_fisher(
    model: ParametricSignalModel,
    xi,
    noise: NoiseProfile,
    n_samples: int,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the information matrix as the mean score outer product.

    Observations are drawn at ``xi`` and the score uses the model's analytic
    partials, so the expectation over the noise is the only stochastic
    element.  Samples are drawn from a single generator stream in chunks of
    ``2**20 // (64 n_freqs + 32 n_params)`` rows, at most 8192: a fixed 1 MiB
    budget, of which a chunk's draws, scores and squares take at most half.
    Criterion 8's models run 1638-8192 rows per chunk, and a call on them
    peaks at 0.53 MB of allocations at most over suite seeds 0-9.  A chunk's
    scores are one real matmul of its draws against ``[Re; Im]`` of the
    weighted partials, and each chunk adds the Gram sums of its scores and
    their squares; the reduction order (and hence the result) is
    deterministic for a given seed and model size.

    Returns the dense N x N estimate and the per-entry standard error of
    the mean.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    phi, varphi, rho, mag_jac, phase_jac = _chart_data(model, xi, noise, rows=False)
    psi = np.asarray(model.phase_unwrapped(varphi), dtype=float)
    carrier = np.exp(1j * psi)
    # d s / d xi^i per bin; magnitude rows then phase rows
    d_sig = np.vstack([mag_jac * carrier, 1j * rho * phase_jac * carrier])
    # score_i = sum_nu (2/gamma0) Re{ n* ds/dxi^i } with n = scale (x + i y) is
    # real-linear in the draws (x, y): a (2 n_freqs, n_params) real map, its
    # rows the real parts of scale (2/gamma0) ds/dxi, then the imaginary parts
    weighted = (d_sig * (np.sqrt(0.5 * noise.gamma0) * noise.weights)).T
    basis = np.vstack([weighted.real, weighted.imag])
    n_params = model.n_params

    rng = np.random.default_rng(seed)
    # rows per chunk from a budget of 64 bytes per bin and 32 per parameter; a
    # chunk holds 16 per bin (its draws) and 16 per parameter (its scores and
    # their squares), well inside it.  The rule fixes the chunks, and so the
    # order of the sums: another rule would move the estimate in its last bits
    chunk = max(1, min(8192, _MC_CHUNK_BYTES // (64 * noise.n_freqs + 32 * n_params)))
    acc = np.zeros((n_params, n_params))
    acc_sq = np.zeros((n_params, n_params))
    remaining = int(n_samples)
    while remaining > 0:
        m = min(chunk, remaining)
        # each row the draws (x, y) of one sample, the stream order of (m, 2, n_freqs)
        scores = rng.standard_normal((m, 2 * noise.n_freqs)) @ basis
        squares = scores * scores
        # Gram sums of the score outer products and of their squares
        acc += scores.T @ scores
        acc_sq += squares.T @ squares
        remaining -= m
    estimate = acc / n_samples
    variance = np.maximum(acc_sq / n_samples - estimate**2, 0.0)
    stderr = np.sqrt(variance / n_samples)
    return estimate, stderr


def christoffel(model: ParametricSignalModel, xi, noise: NoiseProfile) -> ChristoffelTensor:
    """Analytic first-kind symbols from the four non-zero index families; an undeclared Hessian zeroes its own."""
    phi, varphi, rho, mag_jac, phase_jac = _chart_data(model, xi, noise, rows=False)
    p = model.n_mag_params
    n = model.n_params
    w = noise.weights
    values = np.zeros((n, n, n))

    # all-magnitude: sum w * drho_u * d2rho_{u'v'}; all-phase: sum w rho^2 * dpsi_q * d2psi_{q'r'}
    for hess, block, jac, weights in (
        (model.magnitude_hessian(phi), np.s_[:p, :p, :p], mag_jac, w),
        (model.phase_hessian(varphi), np.s_[p:, p:, p:], phase_jac, w * rho**2),
    ):
        if hess is not None:
            hess = np.asarray(hess, dtype=float)
            if not in_range(hess):
                raise ValueError("non-finite second partials at the requested point")
            values[block] = np.einsum("abk,ck,k->abc", hess, jac, weights)
    # mixed: one frequency sum feeds both remaining families so the sign
    # relation between them holds bit-exactly
    mixed = np.einsum("ak,bk,ck,k->abc", phase_jac, phase_jac, mag_jac, w * rho)
    values[p:, p:, :p] = -mixed  # lowered magnitude index
    values[p:, :p, p:] = mixed.transpose(0, 2, 1)  # lowered phase index
    values[:p, p:, p:] = mixed.transpose(2, 0, 1)
    return ChristoffelTensor(values, p)


def christoffel_fd(model: ParametricSignalModel, xi, noise: NoiseProfile) -> np.ndarray:
    """First-kind symbols ``values[i, j, m]`` from central differences of the metric.

    Independent of the closed-form families above; used as an oracle, so the
    array is checked only for finiteness: its structural zeros hold only to
    rounding.  The per-coordinate step is ``_FD_STEP * (1 + |xi^i|)``.
    """
    xi = np.asarray(xi, dtype=float)
    n = model.n_params
    grads = np.empty((n, n, n))
    for i in range(n):
        h = _FD_STEP * (1.0 + abs(float(xi[i])))
        if h == 0.0 or not np.isfinite(h):
            raise ValueError("finite-difference step underflow")
        hi = np.zeros(n)
        hi[i] = h
        g_plus = fisher_matrix(model, xi + hi, noise).full()
        g_minus = fisher_matrix(model, xi - hi, noise).full()
        diff = (g_plus - g_minus) / (2.0 * h)
        grads[i] = 0.5 * (diff + diff.T)  # exact symmetry of each d_i g
    # values[i,j,m] = (d_i g_jm + d_j g_mi - d_m g_ij) / 2; with symmetric
    # d_i g this is exactly symmetric in (i, j)
    term2 = grads.transpose(2, 0, 1)  # [i,j,m] -> grads[j,m,i]
    term3 = grads.transpose(1, 2, 0)  # [i,j,m] -> grads[m,i,j]
    values = 0.5 * (grads + term2 - term3)
    if not in_range(values):
        raise ValueError("non-finite connection coefficients")
    return values
