"""Sweep experiments: distances between time-delayed replicas of a signal.

Each case fixes a band, an attenuation ratio and a phase offset, then sweeps
the delay-bandwidth product ``B * dtau``.  Per sweep point the phase law is
``dpsi(nu) = dpsi0 - 2 pi nu dtau`` and the experiment records the full and
submanifold distances (exact grid sums, unit reference SNR) and their
sinc-approximated ratio.  The per-bin signal-to-noise ratio is held constant
across the band (gamma0 = 2, rho0 = 1), which makes all weighted means plain
means; the distances come from
:func:`~fisherband.distances.known_mag_distances` on that flat template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .band import NoiseProfile, Template, build_grid, is_real_number, pass_workspace, row_blocks, whole_number, write_csv
from .distances import known_mag_distances, ratio_time_delay

__all__ = [
    "FIGURE_CASES",
    "ExperimentConfig",
    "run_figure_case",
    "sweep_points",
    "write_figure_csv",
]

FIGURE_CSV_HEADER = "b_dtau,d_full,d_alpha,ratio"


@dataclass(frozen=True)
class ExperimentConfig:
    """One delay-sweep case; defaults follow the canonical demo setup."""

    case_name: str
    bandwidth_B: float
    dpsi0: float
    gamma_ratio: float
    n_freqs: int = 1000
    nu0: float = 0.25
    btau_sweep: tuple[float, float, int] = (0.0, 20.0, 400)
    snr1: float = 1.0
    output_path: str | None = None

    def __post_init__(self):
        if not (isinstance(self.btau_sweep, (list, tuple)) and len(self.btau_sweep) == 3):
            raise ValueError("btau_sweep must be [min, max, count]")
        object.__setattr__(self, "btau_sweep", tuple(self.btau_sweep))
        lo, hi, n_points = self.btau_sweep
        names = ("dpsi0", "gamma_ratio", "snr1", "sweep minimum", "sweep maximum")
        for name, v in zip(names, (self.dpsi0, self.gamma_ratio, self.snr1, lo, hi)):
            if not (is_real_number(v) and math.isfinite(v)):
                raise ValueError(f"{name} is {v!r}: dpsi0, gamma_ratio, snr1 and sweep bounds must be finite numbers")
        if lo < 0.0 or hi <= lo:
            raise ValueError("sweep bounds must satisfy 0 <= min < max")
        count = whole_number(n_points)
        if count is None or count < 2:
            raise ValueError("sweep needs a whole number of points, at least two")
        if self.gamma_ratio <= 0.0:
            raise ValueError("gamma_ratio must be positive")
        if self.snr1 <= 0.0:
            raise ValueError("snr1 must be positive")
        build_grid(self.nu0, self.bandwidth_B, self.n_freqs)  # the band's own checks
        alpha1, alpha2 = self.attenuations
        if not 0.0 < alpha1 < math.inf:
            raise ValueError(f"snr1 is {self.snr1!r}: the attenuation sqrt(snr1 / n_freqs) underflows to zero")
        if not 0.0 < alpha2 < math.inf:
            raise ValueError(
                f"gamma_ratio is {self.gamma_ratio!r}: the attenuation gamma_ratio * sqrt(snr1 / n_freqs) is {alpha2!r}"
                ", not positive and finite"
            )
        sweep_points(self)  # a count numpy refuses fails here, as a config error

    @property
    def attenuations(self) -> tuple[float, float]:
        """The sweep's ``(alpha1, alpha2)``: ``alpha1 = sqrt(snr1 / omega0)`` at the
        reference SNR and ``alpha2 = gamma_ratio * alpha1``, where ``omega0``, the
        flat template's band energy (``n_freqs`` weights of 1), is ``n_freqs``."""
        alpha1 = math.sqrt(self.snr1 / float(self.n_freqs))
        return alpha1, self.gamma_ratio * alpha1


def sweep_points(config: ExperimentConfig) -> np.ndarray:
    """Delay-bandwidth axis: log-spaced points, plus the exact zero.

    A zero sweep minimum contributes an exact-zero row followed by
    ``n_points`` log-spaced values spanning four decades up to the maximum.
    A count numpy refuses to hold is a ValueError naming the sweep count.
    """
    lo, hi, n_points = config.btau_sweep
    try:
        points = np.geomspace(hi / 1e4 if lo == 0.0 else lo, hi, n_points)
    except (OverflowError, MemoryError, ValueError) as exc:  # past the double range, or refused before allocating
        raise ValueError(f"sweep point count is too large ({exc})") from None
    return np.concatenate([[0.0], points]) if lo == 0.0 else points


FIGURE_CASES = {
    "wideband-equal": ExperimentConfig("wideband-equal", 0.5, 0.0, 1.0),
    "wideband-offset": ExperimentConfig("wideband-offset", 0.5, math.pi / 2.0, 1.0),
    "wideband-gain10": ExperimentConfig("wideband-gain10", 0.5, 0.0, 10.0),
    "narrowband-equal": ExperimentConfig("narrowband-equal", 0.25, 0.0, 1.0),
}


def run_figure_case(config: ExperimentConfig) -> np.ndarray:
    """Rows (b_dtau, d_full, d_alpha, ratio) for one sweep case.

    Distances are the exact constant-per-bin-SNR grid sums at the reference
    SNR, with the config's ``attenuations``; the ratio column is the sinc-form
    approximation of :func:`ratio_time_delay` on the kernel's own ``delta``.
    Output is deterministic, and nothing is written: the ``figure`` command
    writes the rows to its ``--output``, else the config's ``output_path``,
    else ``figure_<case>.csv``.
    """
    n = config.n_freqs
    grid = build_grid(config.nu0, config.bandwidth_B, n)
    template = Template(NoiseProfile.flat(2.0, n), np.ones(n))
    alpha1, alpha2 = config.attenuations
    btaus = sweep_points(config)
    dtaus = btaus / config.bandwidth_B
    rows = np.empty((len(btaus), 4))
    rows[:, 0] = btaus
    delta = np.empty(len(btaus))
    # every step works row by row, so a block's rows equal the whole sweep's; each
    # block's phases and kernel work are views of one aligned (3, rows, bins)
    # workspace taken once per pass, so no block allocates
    arrays = pass_workspace(3, len(btaus), n)
    for block in row_blocks(len(btaus), n):
        k = block.stop - block.start
        psi1, work = arrays[0, :k], arrays[1:, :k]
        # linear phases 2 pi dtau nu against the constant dpsi0, one row per sweep point
        np.multiply(2.0 * np.pi * dtaus[block, np.newaxis], grid.freqs, out=psi1)
        rows[block, 1], rows[block, 2], delta[block] = known_mag_distances(
            template, alpha1, alpha2, psi1, config.dpsi0, work=work
        )
    rows[:, 3] = ratio_time_delay(config.gamma_ratio, config.dpsi0, btaus, config.nu0 / config.bandwidth_B, delta)
    return rows


def write_figure_csv(path, rows: np.ndarray) -> None:
    write_csv(path, FIGURE_CSV_HEADER.split(","), list(np.asarray(rows, dtype=float).T))

