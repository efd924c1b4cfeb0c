"""Observation band, noise profile and spectral signal containers.

A signal observed through a noisy channel is described, after sampling and a
discrete Fourier transform, by its complex spectrum on a finite set of
equispaced positive frequencies.  The noise contribution per frequency bin is
a centred circularly symmetric complex Gaussian with known power gamma0(nu),
independent across bins.  This module holds the containers for that picture
(grid, noise, magnitude/phase spectrum, complex observation), the phase
wrapping convention, the Gaussian log-likelihood and a seeded sampler, plus
flat CSV serialization (every column round-trips, the grid included, since a
grid is its frequencies), the validated magnitude ``Template``, the
``scaled_chord`` form shared by every distance, and the one check of each
band-level rule: lengths, attenuations, read-only arrays, ``unscale`` and the
row blocks and workspace of a batched pass.

All containers are immutable (frozen dataclasses with read-only arrays), so
every operation in the package is a pure function safe for concurrent use.
They compare and hash by identity, as a container is its arrays' values and
no elementwise ``==`` answers one bool.  ``NoiseProfile``, ``SignalSpectrum``
and ``Template`` also hold ``(rows, bins)`` arrays, one band per row, for the
routes that evaluate many bands at once (``Template.phase_gap`` and the
distance routes that say so); every other route takes one band, and
:func:`check_aligned` refuses a container of rows there by name.
"""

from __future__ import annotations

import csv
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "BLOCK",
    "ChartMismatchError",
    "ConvergenceError",
    "FrequencyGrid",
    "NoiseProfile",
    "Observation",
    "SignalSpectrum",
    "Template",
    "band_energy",
    "build_grid",
    "check_aligned",
    "check_attenuation",
    "in_range",
    "is_real_number",
    "load_band_csv",
    "log_likelihood",
    "pass_workspace",
    "phase_rms_diff",
    "readonly",
    "row_blocks",
    "sample_observation",
    "save_band_csv",
    "scaled_chord",
    "unscale",
    "whole_number",
    "wrap_phase",
    "write_csv",
]


class ChartMismatchError(ValueError):
    """Magnitudes are not proportional to the requested template."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


def readonly(values, dtype=float, one_dim: bool = True) -> np.ndarray:
    """A read-only copy of ``values``, required one-dimensional unless ``one_dim`` is False."""
    out = np.array(values, dtype=dtype)
    if one_dim and out.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    out.flags.writeable = False
    return out


def check_aligned(**lengths) -> int:
    """The common length of the named band inputs; a mismatch names each one's length.

    An input is a length or a container of one band, read through its
    ``n_freqs``.  A container of rows is refused with its name and shape, so
    a route that takes one band calls this on every container it takes.
    """
    for name, value in lengths.items():
        if not isinstance(value, numbers.Integral):
            # a container's shape is its first array field's
            shape = next(v.shape for v in vars(value).values() if isinstance(v, np.ndarray))
            if len(shape) > 1:
                raise ValueError(f"{name} holds rows of shape {shape}; this route takes one band")
            lengths[name] = value.n_freqs
    if len(set(lengths.values())) != 1:
        raise ValueError("misaligned band lengths: " + ", ".join(f"{k} {n}" for k, n in lengths.items()))
    return next(iter(lengths.values()))


# Rows x bins per block of a batched pass over (rows x bins) arrays: at most
# 32768 doubles (256 KiB) per array, or one row where a row is longer, so peak
# memory does not grow with the number of rows.  Each pass takes its arrays
# once, from ``pass_workspace``, and runs every block in views of them, so no
# block meets glibc's allocator (a fresh 128 KiB temporary per block made 16384
# fast or slow by the process's heap-trimming state).  Measured so when the
# size was chosen (BENCH_28.json's round, before the workspace was aligned), in
# perfbench runs of 25 s (three per size, 2-vCPU AVX-512 Xeon, numpy 2.4):
# figure-cases ran at 41.1-46.7k items/s with 32768 and 39.7-40.2k with 16384,
# distance-narrow at 21.7-22.0k and 17.5-19.2k rows/s, and distance-narrow's
# peak RSS rose by at most 0.2 MB.  The workspace starts on a 64-byte boundary,
# and its rows do too only when ``n_bins % 8 == 0``: malloc had placed it
# 16, 32 or 48 bytes past one as the heap fell, and the four-case figure pass
# ran up to 17% slower there than on a boundary (BENCH_34.json's round).
BLOCK = 32768


def row_blocks(n_rows: int, n_bins: int) -> list[slice]:
    """Slices of at most ``max(1, BLOCK // n_bins)`` rows covering ``range(n_rows)`` in order."""
    step = max(1, BLOCK // n_bins)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def pass_workspace(count: int, n_rows: int, n_bins: int) -> np.ndarray:
    """The float workspace of a batched pass over ``n_rows`` rows of ``n_bins``
    bins: ``count`` arrays of the rows of :func:`row_blocks`' first block
    (none for no rows), shape ``(count, rows, n_bins)``, C-contiguous, its
    first element on a 64-byte boundary.  Its values are not set."""
    blocks = row_blocks(n_rows, n_bins)
    shape = (count, blocks[0].stop if blocks else 0, n_bins)
    size = math.prod(shape)
    # malloc's start is a multiple of 8 bytes, so at most 7 doubles short of a boundary
    buffer = np.empty(size + 7)
    skip = -buffer.ctypes.data % 64 // 8
    return buffer[skip : skip + size].reshape(shape)


def _band_array(values) -> np.ndarray:
    """A read-only float copy of a container's per-bin values: one band, or ``(rows, bins)``."""
    out = readonly(values, one_dim=False)
    if out.ndim not in (1, 2):
        raise ValueError("expected a one-dimensional sequence, or (rows, bins) rows of one")
    return out


def in_range(values, lo=-math.inf, hi=math.inf, lo_closed=False, hi_closed=False) -> bool:
    """Whether every entry of ``values`` lies between ``lo`` and ``hi``, each end
    open unless its ``_closed`` flag is set; the defaults test finiteness.

    One ``min()``/``max()`` pair decides it.  A NaN propagates through both and
    fails every comparison, so an array holding one is out of range; an empty
    array is in range, as ``np.all`` of nothing is true.
    """
    arr = np.asarray(values)
    if not arr.size:
        return True
    low, high = float(arr.min()), float(arr.max())
    return (lo <= low if lo_closed else lo < low) and (high <= hi if hi_closed else high < hi)


def is_real_number(value) -> bool:
    """Whether ``value`` is a real number as an input field means it: a bool, a
    string, or an integer beyond the double range (``float`` overflows) is not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def whole_number(value) -> int | None:
    """``value`` as an int if it is a whole number as a count field means it (an
    int or a numpy integer, through ``operator.index``; a float, even a whole
    one, and a bool are not), else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_attenuation(*alphas) -> None:
    """Reject attenuations (scalars or arrays) not positive and finite; a float skips numpy's per-call cost."""
    for a in alphas:
        if not (0.0 < a < math.inf if isinstance(a, float) else in_range(a, 0.0)):
            raise ValueError("alpha must be positive and finite")


def unscale(value, e):
    """``value * 2**e``, the exit from power-of-two units: inf or 0 only when the
    value itself leaves the double range, and never a warning or an exception."""
    if isinstance(value, float) and isinstance(e, int):
        try:
            return math.ldexp(value, e)
        except OverflowError:
            return math.copysign(math.inf, value)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(value, e)


def wrap_phase(theta, out=None):
    """Reduce an angle (or array of angles) to the half-open interval (-pi, pi].

    The map is idempotent and bit-exact for inputs already in range; the
    excluded endpoint -pi maps to +pi, and exact multiples of 2*pi map to 0.
    Scalars return a float, arrays return an array.  ``out``, a float array
    of ``theta``'s shape that does not overlap it, receives the result and is
    returned; the bits are those of a call without it.
    """
    arr = np.asarray(theta, dtype=float)
    if out is not None and out.shape != arr.shape:
        raise ValueError(f"wrap_phase out has shape {out.shape}, the angles {arr.shape}")
    # one min/max pair serves both tests below, where ``in_range`` would take
    # a second pair for the finiteness of angles out of range
    lo, hi = (arr.min(), arr.max()) if arr.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):  # a NaN propagates through min and max
        raise ValueError("wrap_phase requires finite angles")
    if -np.pi < lo and hi <= np.pi:
        # what the reduction below gives in range, -0.0 -> +0.0 included
        w = np.add(arr, 0.0, out=out)
    else:
        # round-half-even (rint) keeps +pi fixed; the two corrections settle the
        # boundary, where alone they fire
        w = np.divide(arr, TWO_PI, out=np.empty(arr.shape) if out is None else out)
        np.rint(w, out=w)
        np.multiply(w, TWO_PI, out=w)
        np.subtract(arr, w, out=w)
        if w.min() <= -np.pi or w.max() > np.pi:
            w[w <= -np.pi] += TWO_PI
            w[w > np.pi] -= TWO_PI
            # from |theta| ~ 1e17 on, the rounded multiple of 2 pi can be off by
            # more than the corrections settle; reduce what is left by np.remainder
            left = (w <= -np.pi) | (w > np.pi)
            if left.any():
                rest = np.remainder(arr[left], TWO_PI)
                rest[rest > np.pi] -= TWO_PI
                w[left] = rest
    if np.ndim(theta) == 0 and out is None:
        return float(w)
    return w


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Equispaced positive frequencies, one per bin, in increasing order.

    Frequencies are normalized to the sampling rate (dimensionless, in
    (0, 0.5] for real signals).  A grid is its frequencies and nothing else:
    the band they fill is a rule of :func:`build_grid`, which places them at
    bin centres.
    """

    freqs: np.ndarray

    def __post_init__(self):
        freqs = readonly(self.freqs)
        object.__setattr__(self, "freqs", freqs)
        if len(freqs) < 1:
            raise ValueError("n_freqs must be at least 1")
        # freqs[0] alone, so that a later negative frequency fails as not increasing
        if not in_range(freqs) or freqs[0] <= 0.0:
            raise ValueError("frequencies must be finite and strictly positive")
        if len(freqs) > 1:
            steps = freqs[1:] - freqs[:-1]  # np.diff's arithmetic, without its per-call checks
            # one min/max pair serves both checks: rounding is monotone, so the
            # largest |step - mean| is at the smallest or the largest step
            lo, hi = float(steps.min()), float(steps.max())
            if not (0.0 < lo and hi < math.inf):  # a NaN fails both comparisons
                raise ValueError("frequencies must be strictly increasing")
            mean_step = float(steps.sum() / len(steps))  # np.mean's sum and division
            if max(hi - mean_step, mean_step - lo) > 1e-12 * float(freqs[-1]):
                raise ValueError("frequencies must be equispaced")

    @property
    def n_freqs(self) -> int:
        return len(self.freqs)


def build_grid(nu0: float, bandwidth_B: float, n_freqs: int) -> FrequencyGrid:
    """Grid of ``n_freqs`` bin-centre frequencies filling the open band (nu0-B/2, nu0+B/2).

    The one owner of the band rules: ``nu0`` and ``bandwidth_B`` are real
    numbers (a bool or a string is not), ``n_freqs`` is a whole number (see
    :func:`whole_number`) of at least 1 that numpy can hold as an array (a
    count it refuses is a ValueError naming ``n_freqs``), the bandwidth is
    positive and finite, and the band start ``nu0 - B/2`` is non-negative.
    The band may start exactly at zero frequency; the centres stay strictly
    positive, so the band edges stay open.
    """
    for name, value in (("nu0", nu0), ("bandwidth_B", bandwidth_B)):
        if not is_real_number(value):
            raise ValueError(f"{name} must be a real number")
    n_freqs = whole_number(n_freqs)
    if n_freqs is None:
        raise ValueError("n_freqs must be a whole number")
    if n_freqs < 1:
        raise ValueError("n_freqs must be at least 1")
    if not 0.0 < bandwidth_B < math.inf:
        raise ValueError("bandwidth_B must be positive and finite")
    start = nu0 - 0.5 * bandwidth_B
    if start < 0.0:
        raise ValueError("band start nu0 - B/2 must be non-negative")
    try:
        step = bandwidth_B / n_freqs
        freqs = start + (np.arange(n_freqs) + 0.5) * step
    except (OverflowError, MemoryError, ValueError) as exc:  # past the double range, or refused before allocating
        raise ValueError(f"n_freqs is too large for a grid ({exc})") from None
    return FrequencyGrid(freqs)


@dataclass(frozen=True, eq=False)
class NoiseProfile:
    """Known noise power gamma0(nu) per grid bin, all strictly positive, and
    the per-bin metric weights ``2 / gamma0`` that every metric sum reads; a
    ``(rows, bins)`` gamma0 holds one profile per row."""

    gamma0: np.ndarray
    # per-bin metric weights 2 / gamma0, formed once, read-only
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gamma0 = _band_array(self.gamma0)
        object.__setattr__(self, "gamma0", gamma0)
        if not gamma0.size:
            raise ValueError("noise profile is empty")
        if not in_range(gamma0, 0.0):
            raise ValueError("gamma0 must be strictly positive and finite")
        # 2/g falls as g grows, so the largest weight is the smallest gamma0's
        if not math.isfinite(2.0 / float(gamma0.min())):
            raise ValueError("gamma0 is so small that the weights 2/gamma0 overflow")
        weights = 2.0 / gamma0
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @classmethod
    def flat(cls, value: float, n_freqs: int) -> "NoiseProfile":
        return cls(np.full(n_freqs, float(value)))

    @property
    def n_freqs(self) -> int:
        return self.gamma0.shape[-1]


@dataclass(frozen=True, eq=False)
class SignalSpectrum:
    """Magnitude rho >= 0 and wrapped phase psi in (-pi, pi] per grid bin; a
    ``(rows, bins)`` pair holds one spectrum per row."""

    rho: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        rho = _band_array(self.rho)
        psi = _band_array(self.psi)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "psi", psi)
        check_aligned(rho=rho.shape[-1], psi=psi.shape[-1])
        if rho.shape != psi.shape:
            raise ValueError(f"misaligned rows: rho {rho.shape}, psi {psi.shape}")
        if not in_range(rho, 0.0, lo_closed=True):
            raise ValueError("rho must be finite and non-negative")
        if not in_range(psi, -math.pi, math.pi, hi_closed=True):
            raise ValueError("psi must be finite" if not in_range(psi) else "psi must lie in (-pi, pi]")

    @classmethod
    def from_complex(cls, values) -> "SignalSpectrum":
        values = np.asarray(values, dtype=complex)
        return cls(np.abs(values), wrap_phase(np.angle(values)))

    def to_complex(self) -> np.ndarray:
        return self.rho * np.exp(1j * self.psi)

    @property
    def n_freqs(self) -> int:
        return self.rho.shape[-1]


@dataclass(frozen=True, eq=False)
class Observation:
    """One complex observed value per grid bin."""

    values: np.ndarray

    def __post_init__(self):
        values = readonly(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if not (in_range(values.real) and in_range(values.imag)):
            raise ValueError("observation values must be finite")

    @property
    def n_freqs(self) -> int:
        return len(self.values)


def log_likelihood(obs: Observation, spectrum: SignalSpectrum, noise: NoiseProfile) -> float:
    """Log-density of an observation under the circular complex Gaussian law.

    Sum over bins of ``-ln(pi * gamma0) - |x - rho * exp(i psi)|^2 / gamma0``.
    """
    check_aligned(obs=obs.n_freqs, spectrum=spectrum, noise=noise)
    resid = obs.values - spectrum.to_complex()
    quad = (resid.real**2 + resid.imag**2) / noise.gamma0
    return float(np.sum(-np.log(np.pi * noise.gamma0) - quad))


def sample_observation(spectrum: SignalSpectrum, noise: NoiseProfile, seed) -> Observation:
    """Draw ``x = s + n`` with independent circular complex Gaussian noise.

    Real and imaginary parts of each bin's noise are independent Gaussians of
    variance gamma0/2, so E n = 0, E|n|^2 = gamma0 and E n^2 = 0.  Bitwise
    reproducible for equal seeds.
    """
    n = check_aligned(spectrum=spectrum, noise=noise)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    scale = np.sqrt(0.5 * noise.gamma0)
    noise_values = scale * (z[:, 0] + 1j * z[:, 1])
    return Observation(spectrum.to_complex() + noise_values)


def _template_weights(noise: NoiseProfile, rho0: np.ndarray) -> np.ndarray:
    """The weights ``(2/gamma0) rho0^2`` of a template of the noise's shape."""
    check_aligned(noise=noise.n_freqs, rho0=rho0.shape[-1])
    if rho0.shape != noise.gamma0.shape:
        raise ValueError(f"misaligned rows: noise {noise.gamma0.shape}, rho0 {rho0.shape}")
    if not in_range(rho0, 0.0, lo_closed=True):
        raise ValueError("rho0 must be finite and non-negative")
    return noise.weights * rho0**2


def band_energy(noise: NoiseProfile, rho0) -> float:
    """Band-weighted template energy: sum of (2/gamma0) * rho0^2."""
    check_aligned(noise=noise)
    return float(np.sum(_template_weights(noise, readonly(rho0))))


@dataclass(frozen=True, eq=False)
class Template:
    """A magnitude template rho0 validated against a noise profile.

    Holds the per-bin weights ``(2/gamma0) rho0^2`` and their sum, the band
    energy ``omega0``, which must be positive.  Every known-magnitude closed
    form depends on the template only through these.  A ``(rows, bins)``
    rho0 on a noise of the same shape is one template per row, each checked
    as one is, with a read-only ``(rows,)`` omega0.
    """

    noise: NoiseProfile
    rho0: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)
    omega0: float | np.ndarray = field(init=False)

    def __post_init__(self):
        rho0 = _band_array(self.rho0)
        with np.errstate(over="ignore"):
            weights = _template_weights(self.noise, rho0)
            omega0 = weights.sum(axis=-1)
        if not in_range(omega0):
            raise ValueError("template weights overflow: (2/gamma0) rho0^2 or their sum omega0 is not finite")
        if not omega0.min() > 0.0:
            if np.any(rho0[omega0 <= 0.0] > 0.0):
                raise ValueError("template energy must be positive, but (2/gamma0) rho0^2 underflows to zero")
            raise ValueError("template energy must be positive")
        weights.flags.writeable = False
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "omega0", float(omega0) if omega0.ndim == 0 else readonly(omega0))

    @property
    def n_freqs(self) -> int:
        return self.rho0.shape[-1]

    def phase_gap(self, psi1, psi2, *, work=None) -> tuple[np.ndarray, float | np.ndarray]:
        """Wrapped per-bin phase difference ``dpsi`` and its weighted RMS ``delta``, in [0, pi].

        Bins run along the last axis and leading axes broadcast, a row
        template's rows among them, one ``delta`` per row; either phase may be
        a scalar, constant over the bins, and ``dpsi`` always has the bins'
        axis.  A one-dimensional gap gives a float ``delta``.  Rows that do not
        broadcast are a ValueError naming the three shapes.

        ``work`` is two C-contiguous float arrays of ``dpsi``'s shape (another
        layout would change the order of the sums) that overlap neither each
        other nor the phases, else None for two fresh ones.  Both are
        overwritten: ``dpsi`` is returned in ``work[1]``, and ``work[0]`` is
        left free.  The bits are those of a call without it.
        """
        psi1 = np.asarray(psi1, dtype=float)
        psi2 = np.asarray(psi2, dtype=float)
        lengths = {name: psi.shape[-1] for name, psi in (("psi1", psi1), ("psi2", psi2)) if psi.ndim}
        check_aligned(**lengths, template=self.n_freqs)
        try:
            shape = np.broadcast_shapes(psi1.shape, psi2.shape, self.rho0.shape)
        except ValueError:
            raise ValueError(
                f"rows do not broadcast: psi1 {psi1.shape}, psi2 {psi2.shape}, template {self.rho0.shape}"
            ) from None
        if work is None:
            work = np.empty((2,) + shape)
        elif not (len(work) == 2 and not np.may_share_memory(*work) and all(
            isinstance(w, np.ndarray) and w.shape == shape and w.dtype == float and w.flags.c_contiguous for w in work
        )):
            raise ValueError(f"work must be two separate C-contiguous float arrays of the phase gap's shape {shape}")
        gap, dpsi = work
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(psi2, psi1, out=gap)
        try:
            # wrap_phase's own min/max pair decides the gap's finiteness
            wrap_phase(gap, out=dpsi)
        except ValueError:
            raise ValueError("phase gap psi2 - psi1 is not finite") from None
        # the weighted mean of dpsi^2, in gap's array
        np.multiply(dpsi, dpsi, out=gap)
        np.multiply(self.weights, gap, out=gap)
        # the RMS of gaps in (-pi, pi] is at most pi, but the rounded mean can lift it an ulp past
        delta = np.minimum(np.sqrt(gap.sum(axis=-1) / self.omega0), math.pi)
        return dpsi, float(delta) if delta.ndim == 0 else delta


def scaled_chord(a1, a2, h) -> tuple:
    """Squared chord ``(a2 - a1)^2 + 4 a1 a2 h`` as ``(c, e)``, worth ``c * 4**e``.

    ``a1, a2 >= 0`` are attenuations or per-bin magnitudes (scalars or arrays)
    and ``h = sin^2(angle / 2)``.  They are scaled by the exact power of two
    that brings the largest into [0.5, 1), so ``ldexp(sqrt(weight * c), e)``
    neither overflows nor underflows while the distance is a finite double,
    and in range equals the unscaled half-angle form bit for bit.

    The exponent is taken per row.  Scalars and one-dimensional ``a1, a2``
    (the bins of one spectrum) are one row with one int ``e``; from two
    dimensions on, each leading index is a row over the last axis and ``e``
    keeps that axis with length one, so rows of different scales do not
    share an exponent.
    """
    top = np.maximum(a1, a2)
    e = math.frexp(top.max())[1] if top.ndim < 2 else np.frexp(top.max(axis=-1, keepdims=True))[1]
    a1 = np.ldexp(a1, -e)
    a2 = np.ldexp(a2, -e)
    d = a2 - a1
    return d * d + 4.0 * a1 * a2 * h, e


def phase_rms_diff(psi1, psi2, noise: NoiseProfile, rho0) -> float:
    """Template-weighted RMS of the wrapped phase difference, in [0, pi].

    The difference is wrapped bin by bin before squaring, hence the bound.
    """
    check_aligned(noise=noise)
    return Template(noise, rho0).phase_gap(psi1, psi2)[1]


# -- serialization ----------------------------------------------------------
#
# Flat CSV columns: nu, gamma0, rho, psi (one row per bin).

_CSV_HEADER = ["nu", "gamma0", "rho", "psi"]


# Rows per chunk of a written CSV, so a report's strings are never all held at
# once: on the 2000-row distance report, 512 ran as fast as one chunk, which
# raised a fresh process's peak RSS by 1.6 MB.
_CSV_CHUNK = 512

# what makes csv's minimal quoting quote a cell in the default dialect
_CSV_SPECIAL = (",", '"', "\r", "\n")


def _csv_text(cells: list, alone: bool) -> list:
    """Text cells as ``csv.writer`` writes them: a cell holding a comma, a quote
    or a line break quoted, its quotes doubled, and an empty cell quoted when it
    is its row's only one.  One scan of the joined cells settles most columns."""
    joined = "".join(cells)
    if any(c in joined for c in _CSV_SPECIAL):
        cells = ['"' + c.replace('"', '""') + '"' if any(s in c for s in _CSV_SPECIAL) else c for c in cells]
    return [c or '""' for c in cells] if alone else cells


def write_csv(path, header, columns) -> None:
    """Write a header and equal-length columns as CSV, byte for byte what
    ``csv.writer`` would write of the same cells.

    A numpy array is a float column: each cell is ``repr(float)``, which
    round-trips IEEE doubles exactly (17 significant digits suffice), and a
    NaN is an empty cell.  Any other column is a sequence of str, quoted under
    csv's minimal rule.  The rows are formatted a column at a time and written
    in chunks of a fixed number of rows, so memory does not grow with the rows.
    """
    if len(header) != len(columns):
        raise ValueError(f"CSV header has {len(header)} names for {len(columns)} columns")
    if len({len(column) for column in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    alone = len(columns) == 1
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_csv_text(list(header), alone)) + "\r\n")
        for lo in range(0, len(columns[0]) if columns else 0, _CSV_CHUNK):
            cells = []
            for column in columns:
                if isinstance(column, np.ndarray):
                    text = list(map(repr, np.asarray(column[lo : lo + _CSV_CHUNK], dtype=float).tolist()))
                    cells.append(_csv_text(["" if c == "nan" else c for c in text], alone) if "nan" in text else text)
                else:
                    cells.append(_csv_text(list(column[lo : lo + _CSV_CHUNK]), alone))
            # csv's own line ending
            handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def save_band_csv(path, grid: FrequencyGrid, noise: NoiseProfile, spectrum: SignalSpectrum) -> None:
    check_aligned(grid=grid.n_freqs, noise=noise, spectrum=spectrum)
    write_csv(path, _CSV_HEADER, [grid.freqs, noise.gamma0, spectrum.rho, spectrum.psi])


def load_band_csv(path) -> tuple[FrequencyGrid, NoiseProfile, SignalSpectrum]:
    """Inverse of :func:`save_band_csv`.

    Every column round-trips losslessly, the grid included: a grid is its
    frequency column.  A malformed data row (blank rows are skipped) is named
    by its number, with its cell count or its first cell that is no number.
    """
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError("band CSV has no header row")
        if [h.strip() for h in header] != _CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}, want {_CSV_HEADER}")
        rows = []
        for k, row in enumerate(filter(None, reader), start=1):
            if len(row) != len(_CSV_HEADER):
                raise ValueError(f"band CSV data row {k} has {len(row)} cells, want {len(_CSV_HEADER)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"band CSV data row {k}: {exc}") from None
    if not rows:
        raise ValueError("band CSV has no data rows")
    data = np.asarray(rows, dtype=float)
    return FrequencyGrid(data[:, 0]), NoiseProfile(data[:, 1]), SignalSpectrum(data[:, 2], data[:, 3])
