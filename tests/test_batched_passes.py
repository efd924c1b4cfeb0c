"""The per-pass arrays of the batched passes: ``work`` and ``out`` change no bit.

``known_mag_distances``, ``Template.phase_gap``, ``wrap_phase`` and
``polynomial_phase`` write into caller-owned arrays when given them.  Each
must give the bits of a call without them, refuse a ``work`` it cannot use
by name, and return no output that lives in ``work``.  The figure sweep and
the ``distance`` command hand every block views of one allocation per pass,
``pass_workspace``, so a pass's page faults do not grow with its block count;
the workspace starts on a 64-byte boundary, and its placement changes no bit.
"""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fisherband
import fisherband.cli
import fisherband.figures
from fisherband import (
    BLOCK,
    FIGURE_CASES,
    NoiseProfile,
    Template,
    build_grid,
    known_mag_distances,
    pass_workspace,
    polynomial_phase,
    row_blocks,
    run_figure_case,
    sweep_points,
    wrap_phase,
)
from fisherband.cli import main

N = 64
RNG_SEED = 2028


def _template(n=N):
    rng = np.random.default_rng(RNG_SEED)
    return Template(NoiseProfile(10.0 ** rng.uniform(-1.0, 1.0, n)), 10.0 ** rng.uniform(-1.0, 1.0, n))


def _phase_cases():
    rng = np.random.default_rng(RNG_SEED + 1)
    half_turns = np.where(rng.random((5, N)) < 0.5, math.pi, -math.pi)
    return {
        # gaps far outside (-pi, pi]: the reduction with its corrections
        "random-block": (rng.uniform(-60.0, 60.0, (7, N)), rng.uniform(-60.0, 60.0, (7, N))),
        # every gap already in range: the fast path
        "in-range": (rng.uniform(-1.5, 1.5, (5, N)), rng.uniform(-1.5, 1.5, (5, N))),
        # gaps of exactly +-pi, and the multiples of 2 pi on either side of them
        "half-turns": (np.zeros((5, N)), half_turns + 2.0 * math.pi * rng.integers(-3, 4, (5, N))),
        # angles past 1e17, where the rounded multiple of 2 pi is off
        "huge": (rng.uniform(-1e18, 1e18, (3, N)), rng.uniform(-1.0, 1.0, (3, N))),
        "one-dim": (rng.uniform(-9.0, 9.0, N), rng.uniform(-9.0, 9.0, N)),
        "row-against-block": (rng.uniform(-9.0, 9.0, N), rng.uniform(-9.0, 9.0, (4, N))),
        "scalar-psi2": (rng.uniform(-9.0, 9.0, (4, N)), 2.5),
        "scalar-psi1": (-7.0, rng.uniform(-9.0, 9.0, N)),
        "both-scalar": (4.0, 0.7),
        "both-scalar-half-turn": (0.0, -math.pi),
    }


PHASES = _phase_cases()


def _work(psi1, psi2, n=N):
    """Two separate arrays of the gap's shape, filled with NaN so that nothing can read what was there."""
    shape = np.broadcast_shapes(np.shape(psi1), np.shape(psi2), (n,))
    return np.full((2,) + shape, np.nan)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(PHASES))
class TestSameBitsWithWork:
    def test_wrap_phase(self, name):
        psi1, psi2 = PHASES[name]
        theta = np.subtract(psi2, psi1)
        out = np.full(np.shape(theta), np.nan)
        assert wrap_phase(theta, out=out) is out
        assert _same_bits(out, wrap_phase(theta))

    def test_phase_gap(self, name):
        template = _template()
        psi1, psi2 = PHASES[name]
        work = _work(psi1, psi2)
        dpsi, delta = template.phase_gap(psi1, psi2, work=work)
        fresh_dpsi, fresh_delta = template.phase_gap(psi1, psi2)
        assert np.shares_memory(dpsi, work[1])
        assert _same_bits(dpsi, fresh_dpsi) and _same_bits(delta, fresh_delta)
        assert type(delta) is type(fresh_delta)
        # the arithmetic the gap always had: one wrap of the broadcast gap, then the weighted RMS, capped at pi
        gap = wrap_phase(np.broadcast_to(np.subtract(psi2, psi1), dpsi.shape))
        rms = np.minimum(np.sqrt((template.weights * (gap * gap)).sum(axis=-1) / template.omega0), math.pi)
        assert _same_bits(dpsi, gap) and _same_bits(delta, rms)

    def test_known_mag_distances(self, name):
        template = _template()
        psi1, psi2 = PHASES[name]
        rows = np.broadcast_shapes(np.shape(psi1), np.shape(psi2), (N,))[:-1]
        rng = np.random.default_rng(RNG_SEED + 2)
        alpha1, alpha2 = (10.0 ** rng.uniform(-2.0, 2.0, rows) if rows else 1.7 for _ in range(2))
        work = _work(psi1, psi2)
        fresh = known_mag_distances(template, alpha1, alpha2, psi1, psi2)
        got = known_mag_distances(template, alpha1, alpha2, psi1, psi2, work=work)
        # a second pass over the same arrays, as the next block of a pass makes
        again = known_mag_distances(template, alpha1, alpha2, psi1, psi2, work=work)
        for g, a, f in zip(got, again, fresh):
            assert _same_bits(g, f) and _same_bits(a, f)
            assert not np.shares_memory(g, work)


def test_polynomial_phase_out_keeps_the_bits():
    rng = np.random.default_rng(RNG_SEED + 3)
    freqs = build_grid(0.25, 0.5, N).freqs
    # the distance command's layout: a (pairs, 2, width) block read side first
    coeffs = rng.uniform(-60.0, 60.0, (6, 2, 4))
    coeffs[:, :, 3] = 0.0  # zero padding
    out = np.full((2, 6, N), np.nan)
    assert polynomial_phase(coeffs.transpose(1, 0, 2), freqs, out=out) is out
    assert _same_bits(out, polynomial_phase(coeffs, freqs).transpose(1, 0, 2).copy())
    one = np.full(N, np.nan)
    assert _same_bits(polynomial_phase(coeffs[0, 0], freqs, out=one), polynomial_phase(coeffs[0, 0], freqs))


class TestRefusedArrays:
    @pytest.mark.parametrize(
        "work",
        [
            np.empty((2, 3, N)),  # too few rows
            np.empty((2, 4, N + 1)),  # too many bins
            np.empty((1, 4, N)),  # one array
            np.empty((3, 4, N)),  # three arrays
            np.empty((2, 4, N), dtype=np.float32),
            np.empty((2, N, 4)).transpose(0, 2, 1),  # each (4, N) array in Fortran order: another order of the sums
        ],
        ids=["rows", "bins", "one", "three", "float32", "fortran-order"],
    )
    def test_work_of_the_wrong_shape_type_or_layout_named(self, work):
        template = _template()
        psi1 = np.zeros((4, N))
        message = rf"work must be two separate C-contiguous float arrays of the phase gap's shape \(4, {N}\)"
        with pytest.raises(ValueError, match=message):
            known_mag_distances(template, 1.0, 2.0, psi1, 1.0, work=work)
        with pytest.raises(ValueError, match=message):
            template.phase_gap(psi1, 1.0, work=work)

    def test_overlapping_work_named(self):
        array = np.empty((4, N))
        with pytest.raises(ValueError, match="two separate C-contiguous float arrays"):
            known_mag_distances(_template(), 1.0, 2.0, np.zeros((4, N)), 1.0, work=(array, array))

    def test_out_of_the_wrong_shape_named(self):
        freqs = build_grid(0.25, 0.5, N).freqs
        with pytest.raises(ValueError, match=rf"wrap_phase out has shape \(3, {N}\), the angles \(4, {N}\)"):
            wrap_phase(np.zeros((4, N)), out=np.empty((3, N)))
        with pytest.raises(ValueError, match=rf"polynomial_phase out has shape \(2, {N}\), the phases \(3, {N}\)"):
            polynomial_phase(np.zeros((3, 2)), freqs, out=np.empty((2, N)))


def _root(array):
    while array.base is not None:
        array = array.base
    return array


def _recording(monkeypatch, module):
    """Replace ``module``'s kernel with one that records each call's array phases and work."""
    calls = []

    def kernel(template, alpha1, alpha2, psi1, psi2, *, work=None):
        calls.append(([p for p in (psi1, psi2) if np.ndim(p)], work))
        return known_mag_distances(template, alpha1, alpha2, psi1, psi2, work=work)

    monkeypatch.setattr(module, "known_mag_distances", kernel)
    return calls


def _assert_one_allocation(calls):
    # every call's phases and work are views of one array, allocated once for the pass
    base = _root(calls[0][1])
    for phases, work in calls:
        assert work is not None and _root(work) is base
        for psi in phases:
            assert _root(psi) is base and np.shares_memory(psi, base)
            assert not np.shares_memory(psi, work)
        assert np.shares_memory(work, base)


def test_figure_pass_runs_its_blocks_in_one_allocation(monkeypatch):
    calls = _recording(monkeypatch, fisherband.figures)
    cfg = FIGURE_CASES["wideband-offset"]
    run_figure_case(cfg)
    assert len(calls) == len(row_blocks(len(sweep_points(cfg)), cfg.n_freqs)) > 1
    _assert_one_allocation(calls)


def test_distance_pass_runs_its_blocks_in_one_allocation(monkeypatch, tmp_path):
    calls = _recording(monkeypatch, fisherband.cli)
    # degrees 0 and 2 on alternate rows: two groups, each of two blocks or more
    n_rows = 2 * (2 * (BLOCK // 1000) + 1)
    rng = np.random.default_rng(RNG_SEED + 4)
    lines = ["alpha1,phase_coeffs1,alpha2,phase_coeffs2"]
    for k in range(n_rows):
        width = 1 if k % 2 else 3
        c1, c2 = (";".join(map(repr, rng.uniform(-30.0, 30.0, width).tolist())) for _ in range(2))
        lines.append(f"{rng.uniform(0.5, 2.0)!r},{c1},{rng.uniform(0.5, 2.0)!r},{c2}")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("\n".join(lines) + "\n")
    assert main(["distance", str(pairs), "--output", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 2 * len(row_blocks(n_rows // 2, 1000)) >= 4
    assert all(len(phases) == 1 for phases, _ in calls)
    _assert_one_allocation(calls)


@pytest.mark.parametrize(
    "count, n_rows, n_bins, rows",
    [(3, 401, 1000, 32), (3, 20, 1000, 20), (2, 5, 64, 5), (3, 0, 1000, 0), (1, 7, 3 * BLOCK, 1), (3, 9, 1001, 9)],
)
def test_pass_workspace_is_the_first_block_on_a_64_byte_boundary(count, n_rows, n_bins, rows):
    for _ in range(8):  # fresh allocations, wherever malloc puts them
        space = pass_workspace(count, n_rows, n_bins)
        assert space.shape == (count, rows, n_bins)
        assert space.dtype == float and space.flags.c_contiguous and space.flags.writeable
        assert space.ctypes.data % 64 == 0 or not rows  # no rows, no first element
    assert rows == (row_blocks(n_rows, n_bins)[0].stop if n_rows else 0)


def _offset_workspace(offset):
    """``pass_workspace`` placed ``offset`` bytes past a 64-byte boundary, as malloc may place an array."""

    def workspace(count, n_rows, n_bins):
        shape = pass_workspace(count, n_rows, n_bins).shape
        size = math.prod(shape)
        buffer = np.empty(size + 8)
        skip = (offset - buffer.ctypes.data) % 64 // 8
        return buffer[skip : skip + size].reshape(shape)

    return workspace


def _perfbench_style_pairs(path, n_rows=400, seed=RNG_SEED + 5):
    """Pairs as perfbench's distance workload draws them: attenuations over two decades and phase
    polynomials of degree 0-3 whose every term sweeps up to 25 turns over the band."""
    rng = np.random.default_rng(seed)

    def coeffs():
        degree = int(rng.integers(0, 4))
        return ";".join(repr(float(rng.uniform(-1.0, 1.0) * 2.0 * math.pi * 25.0 * 2.0**k)) for k in range(degree + 1))

    lines = ["alpha1,phase_coeffs1,alpha2,phase_coeffs2"]
    for _ in range(n_rows):
        a1, a2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        lines.append(f"{float(a1)!r},{coeffs()},{float(a2)!r},{coeffs()}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _pass_outputs(monkeypatch, tmp_path, tag):
    """The four figure cases' rows and a distance report's bytes, with each kernel call's arrays recorded."""
    figure_calls = _recording(monkeypatch, fisherband.figures)
    rows = [run_figure_case(cfg).tobytes() for cfg in FIGURE_CASES.values()]
    distance_calls = _recording(monkeypatch, fisherband.cli)
    out = tmp_path / f"reports-{tag}.csv"
    assert main(["distance", str(_perfbench_style_pairs(tmp_path / "pairs.csv")), "--output", str(out)]) == 0
    return rows, out.read_bytes(), figure_calls + distance_calls


def _starts(calls):
    """The start offset past a 64-byte boundary of every phase row block and ``work`` array the kernel saw."""
    return {array.ctypes.data % 64 for phases, work in calls for array in (*phases, *work)}


def test_batched_passes_run_on_64_byte_boundaries_and_their_placement_moves_no_bit(monkeypatch, tmp_path, capsys):
    assert all(cfg.n_freqs == 1000 for cfg in FIGURE_CASES.values())  # 1000 % 8 == 0: every row is aligned
    rows, report, calls = _pass_outputs(monkeypatch, tmp_path, "aligned")
    assert len(calls) > 4 * 13 and _starts(calls) == {0}
    for module in (fisherband.figures, fisherband.cli):
        monkeypatch.setattr(module, "pass_workspace", _offset_workspace(16))
    off_rows, off_report, off_calls = _pass_outputs(monkeypatch, tmp_path, "offset")
    assert len(off_calls) == len(calls) and _starts(off_calls) == {16}
    assert off_rows == rows and off_report == report


FAULTS_PER_PASS = """
import resource, sys
import fisherband.band
from fisherband import ExperimentConfig, run_figure_case

fisherband.band.BLOCK = int(sys.argv[1])


def faults(cfg):
    run_figure_case(cfg)
    run_figure_case(cfg)
    counts = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_figure_case(cfg)
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return min(counts)


short, long = (ExperimentConfig("x", 0.5, 0.0, 1.0, btau_sweep=(0.0, 20.0, count)) for count in (400, 1600))
print(faults(short), faults(long))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's MALLOC_TRIM_THRESHOLD_ and ru_minflt")
@pytest.mark.parametrize("block", [BLOCK, 2 * BLOCK], ids=["BLOCK", "2xBLOCK"])
def test_figure_pass_faults_do_not_grow_with_its_blocks(block):
    # with heap trimming on every free, a pass that allocated per block would fault per block:
    # four times as often on 1601 points as on 401
    env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="0")
    argv = [sys.executable, "-c", FAULTS_PER_PASS, str(block)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=pathlib.Path(fisherband.__file__).parents[1], env=env)
    short, long = map(int, done.stdout.split())
    assert long < 1.5 * max(short, 1), (short, long)
