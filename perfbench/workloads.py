"""Benchmark workloads: seeded inputs, the CLI passes that run them, and the
checks that recompute every reported value.

Each workload is a closed loop with one caller: the worker runs one pass
(a list of ``fisherband`` CLI argument vectors) after another in one
process.  A pass is made of steps; each step is one CLI call with the
output file it must leave and the number of operations it stands for
(a criterion, a distance row or a figure row).

The reference values are computed here with plain numpy and never call the
package's distance functions: ``d_full`` goes through the complex
embedding, ``d_alpha`` through a weighted RMS of phase differences wrapped
by ``angle(exp(i x))``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# Relative tolerance of every recomputed value.  It absorbs last-ulp drift
# and a different summation order (a faster kernel may change both) while
# still catching a wrong formula, a wrong wrap or a lost term.
RTOL = 1e-9
# Absolute slack for values that are exactly zero (coincident endpoints).
ATOL = 1e-12

ACCEPT_CRITERIA = 13
ACCEPT_SEED = 0

# The CLI's band when `distance` gets no --model file.
DEFAULT_BAND = {"nu0": 0.25, "bandwidth_B": 0.5, "n_freqs": 1000, "gamma0": 2.0, "rho0": 1.0}

NARROW_ROWS = 2000

# The four named figure cases: (bandwidth_B, dpsi0, gamma_ratio).  All share
# nu0 = 0.25, 1000 bins, unit reference SNR and the sweep (0, 20, 400),
# which yields an exact zero plus 400 log-spaced delay-bandwidth products.
FIGURE_CASES = {
    "wideband-equal": (0.5, 0.0, 1.0),
    "wideband-offset": (0.5, math.pi / 2.0, 1.0),
    "wideband-gain10": (0.5, 0.0, 10.0),
    "narrowband-equal": (0.25, 0.0, 1.0),
}
FIGURE_NU0 = 0.25
FIGURE_BINS = 1000
FIGURE_SWEEP_MAX = 20.0
FIGURE_SWEEP_POINTS = 400
FIGURE_ROWS = FIGURE_SWEEP_POINTS + 1

PAIR_COLUMNS = ["alpha1", "phase_coeffs1", "alpha2", "phase_coeffs2"]
FIGURE_COLUMNS = ["b_dtau", "d_full", "d_alpha", "ratio"]


def bin_centres(nu0: float, bandwidth_B: float, n_freqs: int) -> np.ndarray:
    step = bandwidth_B / n_freqs
    return nu0 - 0.5 * bandwidth_B + (np.arange(n_freqs) + 0.5) * step


def wrapped(x: np.ndarray) -> np.ndarray:
    """Angles reduced to [-pi, pi] through the unit circle."""
    return np.angle(np.exp(1j * x))


def horner(coeffs, freqs: np.ndarray) -> np.ndarray:
    """Unwrapped polynomial phase, ascending coefficients."""
    out = np.zeros_like(freqs)
    for c in reversed(coeffs):
        out = out * freqs + c
    return out


def _random_coeffs(rng: np.random.Generator) -> list[float]:
    """Degree 0-3 phase polynomial; every term sweeps up to 25 turns over
    the band (nu < 0.5), so the phase wraps many times."""
    degree = int(rng.integers(0, 4))
    return [float(rng.uniform(-1.0, 1.0) * 2.0 * math.pi * 25.0 * 2.0**k) for k in range(degree + 1)]


def _distance_reference(pairs, band) -> tuple[list[float], list[float]]:
    freqs = bin_centres(band["nu0"], band["bandwidth_B"], band["n_freqs"])
    weight = 2.0 / band["gamma0"] * band["rho0"] ** 2  # flat noise and template
    omega0 = weight * band["n_freqs"]
    d_full, d_alpha = [], []
    for a1, c1, a2, c2 in pairs:
        phase1, phase2 = horner(c1, freqs), horner(c2, freqs)
        diff = a2 * np.exp(1j * phase2) - a1 * np.exp(1j * phase1)
        d_full.append(math.sqrt(weight * float(np.sum(diff.real**2 + diff.imag**2))))
        delta = math.sqrt(weight * float(np.sum(wrapped(phase2 - phase1) ** 2)) / omega0)
        d_alpha.append(math.sqrt(omega0 * ((a2 - a1) ** 2 + 4.0 * a1 * a2 * math.sin(0.5 * delta) ** 2)))
    return d_full, d_alpha


def _prepare_distance(work: str, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    band, n_rows = DEFAULT_BAND, NARROW_ROWS
    pairs = []
    for _ in range(n_rows):
        a1, a2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        pairs.append((float(a1), _random_coeffs(rng), float(a2), _random_coeffs(rng)))

    pairs_path = os.path.join(work, "pairs.csv")
    with open(pairs_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PAIR_COLUMNS)
        for a1, c1, a2, c2 in pairs:
            writer.writerow([repr(a1), ";".join(map(repr, c1)), repr(a2), ";".join(map(repr, c2))])
    argv = ["distance", pairs_path]
    out = os.path.join(work, "reports.csv")
    d_full, d_alpha = _distance_reference(pairs, band)
    with open(pairs_path, newline="") as handle:
        inputs = list(csv.reader(handle))[1:]
    expected = {"inputs": inputs, "d_full": d_full, "d_alpha": d_alpha}
    return {"kind": "distance", "steps": [{"argv": argv + ["--output", out], "output": out, "items": n_rows, "expected": expected}]}


def _figure_reference(bandwidth_B: float, dpsi0: float, g: float) -> dict:
    btaus = np.concatenate([[0.0], np.geomspace(FIGURE_SWEEP_MAX / 1e4, FIGURE_SWEEP_MAX, FIGURE_SWEEP_POINTS)])
    dtaus = btaus / bandwidth_B
    freqs = bin_centres(FIGURE_NU0, bandwidth_B, FIGURE_BINS)
    dpsi = dpsi0 - 2.0 * math.pi * dtaus[:, None] * freqs[None, :]
    # unit reference SNR, constant per bin: every weighted mean is a plain mean
    diff = g * np.exp(1j * dpsi) - 1.0
    d_full = np.sqrt(np.mean(diff.real**2 + diff.imag**2, axis=1))
    delta = np.sqrt(np.mean(wrapped(dpsi) ** 2, axis=1))
    num = (g - 1.0) ** 2 + 4.0 * g * np.sin(0.5 * delta) ** 2
    den = g**2 + 1.0 - 2.0 * g * np.sinc(btaus) * np.cos(dpsi0 - 2.0 * math.pi * FIGURE_NU0 * dtaus)
    ratio = np.where(den > 0.0, np.sqrt(num / np.where(den > 0.0, den, 1.0)), 1.0)
    return {"b_dtau": btaus.tolist(), "d_full": d_full.tolist(), "d_alpha": np.sqrt(num).tolist(), "ratio": ratio.tolist()}


def _prepare_figure(work: str, seed: int) -> dict:
    # The named cases fix every input, so the seed changes nothing here.
    steps = []
    for case, params in FIGURE_CASES.items():
        out = os.path.join(work, f"figure_{case}.csv")
        steps.append({"argv": ["figure", case, "--output", out], "output": out, "items": FIGURE_ROWS, "expected": _figure_reference(*params)})
    return {"kind": "figure", "steps": steps}


def _prepare_accept(work: str, seed: int) -> dict:
    # The suite's own seed picks its random instances, and with them the
    # RK4 step budget of criterion 6, which sets the pass's peak memory:
    # 108 to 219 MB over suite seeds 0-9.  The workload therefore always runs
    # the default verdict (suite seed 0) so that peak_rss_mb can carry a bound.
    out = os.path.join(work, "verdict.json")
    argv = ["accept", "--scale", "full", "--seed", str(ACCEPT_SEED), "--output", out]
    return {"kind": "accept", "steps": [{"argv": argv, "output": out, "items": ACCEPT_CRITERIA}]}


WORKLOADS = {
    "accept-full": _prepare_accept,
    "distance-narrow": _prepare_distance,
    "figure-cases": _prepare_figure,
}


def prepare(name: str, work: str, seed: int) -> dict:
    """Write the workload's inputs under ``work`` and return its pass spec."""
    return WORKLOADS[name](work, seed)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def _bad_distance_rows(path: str, expected: dict) -> int:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    bad = abs(len(rows) - len(expected["inputs"]))
    for row, inputs, ref_full, ref_alpha in zip(rows, expected["inputs"], expected["d_full"], expected["d_alpha"]):
        try:
            echoed = [row[key] for key in PAIR_COLUMNS]
            d_full, d_alpha = float(row["d_full"]), float(row["d_alpha"])
        except (KeyError, ValueError):
            bad += 1
            continue
        ok = echoed == inputs and _close(d_full, ref_full) and _close(d_alpha, ref_alpha)
        bad += not (ok and d_alpha >= d_full * (1.0 - RTOL))
    return bad


def _bad_figure_rows(path: str, expected: dict) -> int:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        rows = list(reader)
    if header != FIGURE_COLUMNS:
        return FIGURE_ROWS
    bad = abs(len(rows) - FIGURE_ROWS)
    for k, row in enumerate(rows[:FIGURE_ROWS]):
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            bad += 1
            continue
        ok = len(values) == 4 and all(_close(v, expected[col][k]) for v, col in zip(values, FIGURE_COLUMNS))
        bad += not (ok and values[2] >= values[1] * (1.0 - RTOL))
    return bad


def _bad_criteria(path: str) -> int:
    with open(path) as handle:
        verdict = json.load(handle)
    criteria = verdict.get("criteria", [])
    return abs(len(criteria) - ACCEPT_CRITERIA) + sum(not entry.get("passed", False) for entry in criteria)


def failed_items(kind: str, step: dict, exit_code) -> int:
    """Operations of one step that failed.

    A step fails whole on an exception (``exit_code`` None), a missing
    output, or a non-zero exit that its output does not explain; otherwise
    each operation is checked against the reference.
    """
    if exit_code is None or not os.path.exists(step["output"]):
        return step["items"]
    if kind == "accept":
        bad = _bad_criteria(step["output"])
    elif kind == "distance":
        bad = _bad_distance_rows(step["output"], step["expected"])
    else:
        bad = _bad_figure_rows(step["output"], step["expected"])
    if exit_code != 0 and bad == 0:
        return step["items"]
    return min(bad, step["items"])
