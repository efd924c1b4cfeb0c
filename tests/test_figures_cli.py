import argparse
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import fisherband
from fisherband import (
    BLOCK,
    FIGURE_CASES,
    DegenerateGeodesicWarning,
    DistanceReport,
    ExperimentConfig,
    KnownMagnitudeModel,
    NoiseProfile,
    SignalSpectrum,
    Template,
    build_grid,
    distance_alpha,
    distance_full,
    known_mag_distances,
    phase_coeff_rows,
    phase_rms_diff,
    polynomial_phase,
    ratio_time_delay,
    row_blocks,
    run_figure_case,
    solve_alpha_geodesic,
    sweep_points,
    wrap_phase,
    write_figure_csv,
)
from fisherband import cli
from fisherband.cli import PAIR_COLUMNS, ModelFileError, build_parser, load_model_file, main
from fisherband.figures import FIGURE_CSV_HEADER

SRC_DIR = pathlib.Path(fisherband.__file__).parent.parent


class TestExperimentConfig:
    def test_defaults_match_demo_setup(self):
        cfg = FIGURE_CASES["wideband-equal"]
        assert cfg.n_freqs == 1000
        assert cfg.nu0 == 0.25
        assert cfg.snr1 == 1.0
        assert cfg.btau_sweep == (0.0, 20.0, 400)

    def test_sweep_list_is_stored_as_a_tuple(self):
        # a config file's list, held as the frozen config's tuple
        cfg = ExperimentConfig("x", 0.5, 0.0, 1.0, btau_sweep=[0.0, 5.0, 10])
        assert cfg.btau_sweep == (0.0, 5.0, 10) and isinstance(cfg.btau_sweep, tuple)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"btau_sweep": (-1.0, 20.0, 400)},
            {"btau_sweep": (0.0, 0.0, 400)},
            {"btau_sweep": (0.0, 20.0, 1)},
            {"gamma_ratio": 0.0},
            {"snr1": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(case_name="x", bandwidth_B=0.5, dpsi0=0.0, gamma_ratio=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ExperimentConfig(**base)

    @pytest.mark.parametrize("n_freqs, snr1, gamma_ratio", [(1000, 1.0, 10.0), (50, 1e10, 3.0), (7, 0.3, 1e-5), (4097, 2.5, 1.0)])
    def test_attenuations_are_the_flat_templates(self, n_freqs, snr1, gamma_ratio):
        # the flat template's omega0 is n_freqs exactly, so the config's rule gives the template route's bits
        cfg = ExperimentConfig("x", 0.5, 0.0, gamma_ratio, n_freqs=n_freqs, snr1=snr1)
        omega0 = Template(NoiseProfile.flat(2.0, n_freqs), np.ones(n_freqs)).omega0
        assert omega0 == n_freqs
        alpha1 = math.sqrt(snr1 / omega0)
        assert cfg.attenuations == (alpha1, gamma_ratio * alpha1)

    def test_sweep_points_include_zero(self):
        pts = sweep_points(FIGURE_CASES["wideband-equal"])
        assert pts[0] == 0.0
        assert pts[-1] == 20.0
        assert len(pts) == 401
        assert np.all(np.diff(pts) > 0)


class TestRunFigureCase:
    def test_rows_shape_and_determinism(self):
        rows_a = run_figure_case(FIGURE_CASES["wideband-equal"])
        rows_b = run_figure_case(FIGURE_CASES["wideband-equal"])
        np.testing.assert_array_equal(rows_a, rows_b)
        assert rows_a.shape == (401, 4)
        assert np.all(np.isfinite(rows_a))
        assert np.all(np.diff(rows_a[:, 0]) > 0)

    def test_zero_delay_row(self):
        rows = run_figure_case(FIGURE_CASES["wideband-equal"])
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == 0.0 and rows[0, 2] == 0.0
        assert rows[0, 3] == 1.0

    def test_ratio_at_least_one_everywhere(self):
        for case in FIGURE_CASES.values():
            rows = run_figure_case(case)
            assert np.all(rows[:, 3] >= 1.0 - 1e-12)
            assert np.all(rows[:, 2] >= rows[:, 1] - 1e-12 * (1.0 + rows[:, 1]))

    def test_offset_case_never_reaches_zero(self):
        # a quarter-turn phase offset keeps the endpoints apart at all delays
        rows = run_figure_case(FIGURE_CASES["wideband-offset"])
        assert np.min(rows[:, 1]) > 0.1

    def test_plateaus(self):
        for case, target in (
            ("wideband-equal", math.sqrt(1 - math.cos(math.pi / math.sqrt(3)))),
            ("narrowband-equal", math.sqrt(1 - math.cos(math.pi / math.sqrt(3)))),
            ("wideband-gain10", math.sqrt(1 - (20 / 101) * math.cos(math.pi / math.sqrt(3)))),
        ):
            rows = run_figure_case(FIGURE_CASES[case])
            window = rows[(rows[:, 0] >= 10.0) & (rows[:, 0] <= 20.0), 3]
            assert abs(float(np.mean(window)) - target) < 0.02

    def test_distances_match_library_routes(self):
        # the vectorized sweep must agree with the spectrum-level distances
        cfg = FIGURE_CASES["wideband-offset"]
        rows = run_figure_case(cfg)
        grid = build_grid(cfg.nu0, cfg.bandwidth_B, cfg.n_freqs)
        noise = NoiseProfile.flat(2.0, cfg.n_freqs)
        rho0 = np.ones(cfg.n_freqs)
        omega0 = float(np.sum(noise.weights * rho0**2))
        a1 = math.sqrt(cfg.snr1 / omega0)
        a2 = cfg.gamma_ratio * a1
        for idx in (0, 57, 200, 400):
            btau = rows[idx, 0]
            psi1 = np.zeros(cfg.n_freqs)
            psi2 = wrap_phase(cfg.dpsi0 - 2 * np.pi * grid.freqs * (btau / cfg.bandwidth_B))
            d_full = distance_full(
                SignalSpectrum(a1 * rho0, psi1), SignalSpectrum(a2 * rho0, psi2), noise
            )
            d_sub = distance_alpha(a1, a2, psi1, psi2, Template(noise, rho0))
            assert rows[idx, 1] == pytest.approx(d_full, rel=1e-12, abs=1e-15)
            assert rows[idx, 2] == pytest.approx(d_sub, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("case", list(FIGURE_CASES))
    def test_full_distances_within_1e_15_of_the_polar_route(self, case):
        # every d_full cell against distance_full on the row's spectra: the kernel's tan form of
        # sin^2(dpsi/2) against the polar route's sin form, on the traffic the benchmark serves
        cfg = FIGURE_CASES[case]
        n = cfg.n_freqs
        rows = run_figure_case(cfg)
        grid = build_grid(cfg.nu0, cfg.bandwidth_B, n)
        noise = NoiseProfile.flat(2.0, n)
        a1 = math.sqrt(cfg.snr1 / Template(noise, np.ones(n)).omega0)
        s2 = SignalSpectrum(np.full(n, cfg.gamma_ratio * a1), np.full(n, cfg.dpsi0))
        polar = np.array([
            distance_full(SignalSpectrum(np.full(n, a1), wrap_phase(2.0 * np.pi * (btau / cfg.bandwidth_B) * grid.freqs)), s2, noise)
            for btau in rows[:, 0]
        ])
        assert np.all(np.abs(rows[:, 1] - polar) <= 1e-15 * polar)

    @staticmethod
    def _unblocked(cfg):
        # the whole sweep at once: one known_mag_distances over the full
        # (points x bins) matrix of phase gaps, and ratio_time_delay on its delta
        n = cfg.n_freqs
        grid = build_grid(cfg.nu0, cfg.bandwidth_B, n)
        template = Template(NoiseProfile.flat(2.0, n), np.ones(n))
        a1 = math.sqrt(cfg.snr1 / template.omega0)
        btaus = sweep_points(cfg)
        gap = cfg.dpsi0 - 2.0 * np.pi * (btaus / cfg.bandwidth_B)[:, np.newaxis] * grid.freqs[np.newaxis, :]
        d_full, d_alpha, delta = known_mag_distances(template, a1, cfg.gamma_ratio * a1, 0.0, gap)
        ratio = ratio_time_delay(cfg.gamma_ratio, cfg.dpsi0, btaus, cfg.nu0 / cfg.bandwidth_B, delta)
        return np.column_stack([btaus, d_full, d_alpha, ratio])

    @pytest.mark.parametrize(
        "cfg",
        [
            *FIGURE_CASES.values(),
            # more bins than a block holds: one row per block
            ExperimentConfig("wide", 0.5, 0.3, 2.0, n_freqs=BLOCK + 1, btau_sweep=(0.0, 20.0, 6)),
            # two blocks, the second four rows short, with no exact-zero row (50 points at 27 rows per block
            # when BLOCK is 8192)
            ExperimentConfig("ragged", 0.4, -1.0, 0.5, n_freqs=300, btau_sweep=(0.5, 20.0, 2 * (BLOCK // 300) - 4)),
        ],
        ids=[*FIGURE_CASES, "wide", "ragged"],
    )
    def test_blocked_sweep_equals_the_unblocked_evaluation(self, cfg):
        blocks = row_blocks(len(sweep_points(cfg)), cfg.n_freqs)
        assert len(blocks) > 1
        if cfg.case_name == "ragged":
            assert [b.stop - b.start for b in blocks] == [BLOCK // 300, BLOCK // 300 - 4]
        assert run_figure_case(cfg).tobytes() == self._unblocked(cfg).tobytes()

    def test_each_sweep_point_is_wrapped_once(self, monkeypatch):
        # one wrap per row block, in the kernel's phase_gap; the ratio reuses its delta
        rows_wrapped = []

        def counting(theta, out=None):
            rows_wrapped.append(np.shape(theta)[0] if np.ndim(theta) > 1 else 1)
            return wrap_phase(theta, out)

        monkeypatch.setattr(fisherband.band, "wrap_phase", counting)
        monkeypatch.setattr(fisherband.distances, "wrap_phase", counting)
        cfg = FIGURE_CASES["wideband-offset"]
        run_figure_case(cfg)
        # 401 points at BLOCK // 1000 rows per block: 51 blocks when BLOCK is 8192
        assert len(rows_wrapped) == len(row_blocks(len(sweep_points(cfg)), cfg.n_freqs)) == -(-401 // (BLOCK // 1000))
        assert len(rows_wrapped) > 1
        assert sum(rows_wrapped) == len(sweep_points(cfg)) == 401

    def test_csv_format(self, tmp_path):
        rows = run_figure_case(FIGURE_CASES["narrowband-equal"])
        out = tmp_path / "case.csv"
        write_figure_csv(out, rows)
        lines = out.read_text().splitlines()
        assert lines[0] == FIGURE_CSV_HEADER == "b_dtau,d_full,d_alpha,ratio"
        assert len(lines) == 402
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, rows)


@pytest.fixture
def model_file(tmp_path):
    payload = {
        "grid": {"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": 6},
        "noise": {"gamma0": [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]},
        "rho0": [1.0, 0.9, 0.8, 0.7, 0.6, 0.5],
        "endpoints": [
            {"alpha": 1.0, "phase_coeffs": [0.2, 1.0]},
            {"alpha": 1.5, "phase_coeffs": [0.6, 2.5]},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    return path


class TestModelFile:
    def test_load(self, model_file):
        grid, noise, rho0, models = load_model_file(model_file)
        assert grid.n_freqs == 6
        assert noise.gamma0[0] == 1.0
        assert models[0].alpha == 1.0 and models[1].alpha == 1.5

    def test_scalar_broadcast(self, tmp_path):
        payload = {
            "grid": {"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": 3},
            "noise": {"gamma0": 2.0},
            "rho0": 1.0,
            "endpoints": [
                {"alpha": 1.0, "phase_coeffs": [0.0]},
                {"alpha": 2.0, "phase_coeffs": [0.0]},
            ],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        grid, noise, rho0, _ = load_model_file(path)
        np.testing.assert_array_equal(noise.gamma0, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(rho0, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda p: p.pop("grid"), "grid"),
            (lambda p: p["grid"].pop("nu0"), "nu0"),
            (lambda p: p.pop("endpoints"), "endpoints"),
            (lambda p: p["endpoints"].pop(), "two points"),
            (lambda p: p["endpoints"][0].pop("alpha"), "alpha"),
        ],
    )
    def test_missing_fields_diagnosed(self, tmp_path, mutate, fragment):
        payload = {
            "grid": {"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": 3},
            "noise": {"gamma0": 2.0},
            "rho0": 1.0,
            "endpoints": [
                {"alpha": 1.0, "phase_coeffs": [0.0]},
                {"alpha": 2.0, "phase_coeffs": [0.0]},
            ],
        }
        mutate(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFileError, match=fragment):
            load_model_file(path)

    @pytest.mark.parametrize("where", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_file_named(self, tmp_path, where):
        with pytest.raises(ModelFileError, match="^cannot read model file: "):
            load_model_file(tmp_path / where)

    @pytest.mark.parametrize(
        "endpoint, message",
        [
            ({"alpha": 0.0, "phase_coeffs": [0.0]}, "bad endpoint 1: alpha must be positive and finite"),
            ({"alpha": 1.0, "phase_coeffs": []}, "bad endpoint 1: at least the constant phase coefficient is required"),
            ({"alpha": 1.0, "phase_coeffs": [0.0] * 4}, "bad endpoint 1: phase polynomial degree exceeds n_freqs - 1"),
        ],
        ids=["attenuation", "no-coefficient", "degree"],
    )
    def test_bad_endpoint_named(self, tmp_path, endpoint, message):
        payload = {
            "grid": {"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": 3},
            "noise": {"gamma0": 2.0},
            "rho0": 1.0,
            "endpoints": [{"alpha": 1.0, "phase_coeffs": [0.0]}, endpoint],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
            load_model_file(path)

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": }')
        with pytest.raises(ModelFileError, match="line"):
            load_model_file(path)


class TestCli:
    def test_figure_named_case(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure", "wideband-equal", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "b_dtau,d_full,d_alpha,ratio"
        assert len(lines) == 402

    def test_figure_config_file(self, tmp_path):
        cfg = {
            "case_name": "tiny",
            "bandwidth_B": 0.5,
            "dpsi0": 0.0,
            "gamma_ratio": 1.0,
            "n_freqs": 50,
            "btau_sweep": [0.0, 5.0, 10],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "tiny.csv"
        assert main(["figure", str(cfg_path), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 12  # header + zero + 10 points

    @pytest.mark.parametrize(
        "override, fragment",
        [
            ({"n_freqs": 0}, "n_freqs must be at least 1"),
            ({"n_freqs": 2.5}, "n_freqs must be a whole number"),
            ({"bandwidth_B": 0.8}, "band start"),
            ({"btau_sweep": [0, 20, 400.5]}, "whole number of points"),
            ({"dpsi0": "x"}, "finite numbers"),
            ({"gamma_ratio": float("nan")}, "finite numbers"),
            ({"n_freqs": 16.0}, "n_freqs must be a whole number"),
            ({"nu0": "0.25"}, "nu0 must be a real number"),
            ({"nu0": True}, "nu0 must be a real number"),
            ({"bandwidth_B": "0.5"}, "bandwidth_B must be a real number"),
            ({"bandwidth_B": True}, "bandwidth_B must be a real number"),
            ({"gamma_ratio": True}, "gamma_ratio is True: "),
            ({"snr1": "1"}, "snr1 is '1': "),
            ({"dpsi0": False}, "dpsi0 is False: "),
            ({"btau_sweep": [True, 5.0, 10]}, "sweep minimum is True: "),
            ({"btau_sweep": [0.0, "5", 10]}, "sweep maximum is '5': "),
            ({"gamma_ratio": 10**400}, "gamma_ratio is 1000"),  # beyond the double range: no OverflowError
            ({"n_freqs": 10**400}, "n_freqs is too large for a grid (int too large to convert to float)"),
            ({"n_freqs": 10**12}, "n_freqs is too large for a grid (Unable to allocate 7.28 TiB"),
            ({"btau_sweep": [0.0, 5.0, True]}, "whole number of points"),
            ({"btau_sweep": [0, 20]}, "btau_sweep must be [min, max, count]"),
            ({"btau_sweep": [0, 20, 5, 1]}, "btau_sweep must be [min, max, count]"),
            ({"btau_sweep": 5}, "btau_sweep must be [min, max, count]"),
            ({"btau_sweep": "0,20,5"}, "btau_sweep must be [min, max, count]"),
            # attenuations sqrt(snr1 / n_freqs) and gamma_ratio times it past the double range
            ({"gamma_ratio": 1e308, "snr1": 1e10}, "gamma_ratio is 1e+308: the attenuation gamma_ratio * sqrt(snr1 / n_freqs) is inf"),
            ({"gamma_ratio": 1e-300, "snr1": 1e-300}, "gamma_ratio is 1e-300: the attenuation gamma_ratio * sqrt(snr1 / n_freqs) is 0.0"),
            ({"snr1": 1e-322}, "snr1 is 1e-322: the attenuation sqrt(snr1 / n_freqs) underflows to zero"),
        ],
    )
    def test_figure_bad_config_named(self, tmp_path, capsys, override, fragment):
        cfg = {"bandwidth_B": 0.5, "dpsi0": 0.0, "gamma_ratio": 1.0, "n_freqs": 50, "btau_sweep": [0.0, 5.0, 10]}
        cfg.update(override)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["figure", str(cfg_path), "--output", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad figure config:") and fragment in err and err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "count, cause",
        [(10**400, "int too large to convert to float"), (10**12, "Unable to allocate 7.28 TiB")],
        ids=["401-digits", "7-TiB"],
    )
    def test_figure_sweep_count_too_large_named(self, tmp_path, capsys, count, cause):
        # numpy refuses the sweep's size before it allocates anything; nothing is written
        cfg = {"bandwidth_B": 0.5, "dpsi0": 0.0, "gamma_ratio": 1.0, "n_freqs": 50, "btau_sweep": [0.0, 5.0, count]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["figure", str(cfg_path), "--output", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad figure config: sweep point count is too large ({cause}") and err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "count, cause",
        [(10**400, "int too large to convert to float"), (10**12, "Unable to allocate 7.28 TiB")],
        ids=["401-digits", "7-TiB"],
    )
    def test_config_refuses_sweep_count_numpy_refuses(self, count, cause):
        # the constructor itself, as for every other config field
        with pytest.raises(ValueError, match=rf"^sweep point count is too large \({cause}"):
            ExperimentConfig("x", 0.5, 0.0, 1.0, n_freqs=50, btau_sweep=(0.0, 5.0, count))

    def test_figure_sweep_count_of_any_integer_type(self):
        # build_grid's rule for a whole number: a numpy integer is one, a whole float or a bool is not
        base = dict(case_name="x", bandwidth_B=0.5, dpsi0=0.0, gamma_ratio=1.0, n_freqs=50)
        rows = run_figure_case(ExperimentConfig(**base, btau_sweep=(0.0, 5.0, 10)))
        assert run_figure_case(ExperimentConfig(**base, btau_sweep=(0.0, 5.0, np.int64(10)))).tobytes() == rows.tobytes()
        for count in (10.0, True, np.float64(10.0)):
            with pytest.raises(ValueError, match="^sweep needs a whole number of points, at least two$"):
                ExperimentConfig(**base, btau_sweep=(0.0, 5.0, count))

    def test_figure_unknown_case(self, capsys):
        assert main(["figure", "no-such-case"]) == 2
        assert "neither a known case" in capsys.readouterr().err

    def test_inspect_metric(self, model_file, capsys):
        assert main(["inspect", "metric", str(model_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_mag_params"] == 1
        assert len(payload["phase_block"]) == 2
        # the attenuation entry is the band-weighted template energy
        grid, noise, rho0, _ = load_model_file(model_file)
        omega0 = float(np.sum(2.0 / noise.gamma0 * rho0**2))
        assert payload["mag_block"][0][0] == pytest.approx(omega0, rel=1e-14)

    def test_inspect_christoffel_symmetry(self, model_file, capsys):
        assert main(["inspect", "christoffel", str(model_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = np.asarray(payload["values"])
        assert values.shape == (3, 3, 3)
        np.testing.assert_array_equal(values, values.transpose(1, 0, 2))

    def test_inspect_geodesic_constants_recompute(self, model_file, capsys):
        assert main(["inspect", "geodesic", str(model_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        # recompute the boundary-value constants from the dumped inputs
        a1, a2, delta = payload["alpha1"], payload["alpha2"], payload["delta"]
        k1 = a2**2 + a1**2 - 2 * a1 * a2 * math.cos(delta)
        k2 = (-(a1**2) + a1 * a2 * math.cos(delta)) / k1
        big_k = (a1 * a2 * math.sin(delta)) ** 2
        assert payload["k1"] == pytest.approx(k1, rel=1e-12)
        assert payload["k2"] == pytest.approx(k2, rel=1e-12)
        assert payload["K"] == pytest.approx(big_k, rel=1e-12)

    def test_inspect_malformed_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["inspect", "metric", str(bad)]) == 2
        assert "missing field" in capsys.readouterr().err

    @pytest.mark.parametrize("n_freqs, code", [(16.9, 2), (16.0, 2), ("16", 2), (True, 2), (16, 0)])
    def test_model_file_n_freqs_whole(self, model_file, tmp_path, capsys, n_freqs, code):
        # build_grid's rule, as a figure config meets it: the JSON value is not converted
        payload = json.loads(model_file.read_text())
        payload.update(grid={"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": n_freqs}, noise={"gamma0": 2.0}, rho0=1.0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["inspect", "metric", str(path)]) == code
        err = capsys.readouterr().err
        assert err == ("error: bad grid specification: n_freqs must be a whole number\n" if code else "")

    @pytest.mark.parametrize(
        "n_freqs, cause",
        [(10**400, "int too large to convert to float"), (10**12, "Unable to allocate 7.28 TiB")],
        ids=["401-digits", "7-TiB"],
    )
    @pytest.mark.parametrize("subject", ["geodesic", "metric"])
    def test_model_file_n_freqs_too_large_named(self, model_file, tmp_path, capsys, subject, n_freqs, cause):
        payload = json.loads(model_file.read_text())
        payload["grid"]["n_freqs"] = n_freqs
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["inspect", subject, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad grid specification: n_freqs is too large for a grid ({cause}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["0.25", True])
    @pytest.mark.parametrize("field", ["nu0", "bandwidth_B"])
    def test_model_file_band_values_not_converted(self, model_file, tmp_path, capsys, field, value):
        # the figure config's rule: a string or a bool is not a real number, and no float() makes it one
        payload = json.loads(model_file.read_text())
        spec = {"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": 16, field: value}
        payload.update(grid=spec, noise={"gamma0": 2.0}, rho0=1.0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["inspect", "metric", str(path)]) == 2
        assert capsys.readouterr().err == f"error: bad grid specification: {field} must be a real number\n"

    @pytest.mark.parametrize(
        "value",
        ["2", True, None, {}, ["2", 1.0, 1.0, 1.0, 1.0, 1.0], [1.0, True, 1.0, 1.0, 1.0, 1.0], [1.0] * 5, [[1.0] * 6],
         10**400, [1.0, 10**400, 1.0, 1.0, 1.0, 1.0]],
        ids=["string", "bool", "null", "object", "string-entry", "bool-entry", "short-list", "nested-list", "huge-int",
             "huge-int-entry"],
    )
    @pytest.mark.parametrize("field", ["rho0", "noise.gamma0"])
    def test_model_file_numbers_not_converted(self, model_file, tmp_path, capsys, field, value):
        # build_grid's rule for a number, on every entry: no float() or numpy conversion makes one
        payload = json.loads(model_file.read_text())
        if field == "rho0":
            payload["rho0"] = value
        else:
            payload["noise"]["gamma0"] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        expected = f"error: field '{field}' must be a real number or a list of 6 real numbers\n"
        no_pairs = tmp_path / "no-pairs.csv"
        for argv in (["inspect", "metric", str(path)], ["distance", str(no_pairs), "--model", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("alpha", "1.5", "must be a real number"),
            ("alpha", True, "must be a real number"),
            ("alpha", 10**400, "must be a real number"),
            ("phase_coeffs", ["0.5", 1.0], "must be a list of real numbers"),
            ("phase_coeffs", [0.5, True], "must be a list of real numbers"),
            ("phase_coeffs", 0.5, "must be a list of real numbers"),
        ],
        ids=["alpha-string", "alpha-bool", "alpha-huge-int", "coeffs-string-entry", "coeffs-bool-entry", "coeffs-scalar"],
    )
    def test_model_file_endpoint_numbers_not_converted(self, model_file, tmp_path, capsys, key, value, expected):
        # the endpoints follow the same rule: no float() or numpy conversion makes a number
        payload = json.loads(model_file.read_text())
        payload["endpoints"][1][key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["inspect", "geodesic", str(path)]) == 2
        assert capsys.readouterr().err == f"error: field 'endpoints[1].{key}' {expected}\n"

    def test_endpoints_are_read_by_inspect_alone(self, model_file, tmp_path, capsys):
        # distance takes the band from a file with no endpoints, and reports as with them
        payload = json.loads(model_file.read_text())
        del payload["endpoints"]
        band_only = tmp_path / "band.json"
        band_only.write_text(json.dumps(payload))
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("alpha1,phase_coeffs1,alpha2,phase_coeffs2\n1.0,0.2;1.0,1.5,0.6;2.5\n")
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for model, out in zip((band_only, model_file), outs):
            assert main(["distance", str(pairs), "--model", str(model), "--output", str(out)]) == 0
        assert outs[0].read_text() == outs[1].read_text()
        capsys.readouterr()
        assert main(["inspect", "metric", str(band_only)]) == 2
        assert capsys.readouterr().err == "error: missing field 'endpoints'\n"

    def test_distance_batch(self, model_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(
            "alpha1,phase_coeffs1,alpha2,phase_coeffs2\n"
            "1.0,0.2;1.0,1.5,0.6;2.5\n"
            "2.0,0.0,2.0,0.0\n"
        )
        out = tmp_path / "reports.csv"
        assert main(["distance", str(pairs), "--model", str(model_file), "--output", str(out)]) == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        # identical endpoints: zero distances, undefined ratio
        assert float(rows[1]["d_full"]) == 0.0
        assert rows[1]["ratio"] == ""
        # first pair: check one value against the library route
        grid, noise, rho0, models = load_model_file(model_file)
        from fisherband import eval_model, report

        s1 = eval_model(models[0], models[0].xi)
        s2 = eval_model(models[1], models[1].xi)
        rep = report(s1, s2, noise, rho0=rho0)
        assert float(rows[0]["d_full"]) == pytest.approx(rep.d_full, rel=1e-15)
        assert float(rows[0]["d_alpha"]) == pytest.approx(rep.d_alpha, rel=1e-15)

    def test_distance_header_only(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("alpha1,phase_coeffs1,alpha2,phase_coeffs2\n")
        out = tmp_path / "reports.csv"
        assert main(["distance", str(pairs), "--output", str(out)]) == 0
        header = PAIR_COLUMNS + list(DistanceReport(d_full=0.0).to_json_dict())
        assert out.read_text().splitlines() == [",".join(header)]

    @pytest.mark.parametrize(
        "bad_row,fragment",
        [
            ("0.0,0.0,1.0,0.0", "alpha must be positive"),
            ("inf,0.0,1.0,0.0", "alpha must be positive and finite"),
            ("1.0,0.0;nan,1.0,0.0", "phase coefficients must be finite"),
            ("1.0,0.0,1.0,0;1;2;3;4;5;6", "degree exceeds"),
            ("1.0,0.0,1.0", "could not convert"),
            ("1.0,0.0;1.7e308;1.7e308,1.0,0.0;-1.7e308;-1.7e308", "not finite on the grid"),
        ],
    )
    def test_distance_bad_row_named(self, model_file, tmp_path, capsys, bad_row, fragment):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("alpha1,phase_coeffs1,alpha2,phase_coeffs2\n1.0,0.0,2.0,0.5\n" + bad_row + "\n")
        out = tmp_path / "reports.csv"
        assert main(["distance", str(pairs), "--model", str(model_file), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad pair on row 2" in err and fragment in err
        assert not out.exists()

    def test_distance_extreme_attenuations(self, model_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(
            "alpha1,phase_coeffs1,alpha2,phase_coeffs2\n1e160,0.2;1.0,2e160,0.6;2.5\n1.0,0.2;1.0,2.0,0.6;2.5\n1e308,0,1,1\n"
        )
        out = tmp_path / "reports.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["distance", str(pairs), "--model", str(model_file), "--output", str(out)]) == 0
        with open(out) as handle:
            huge, unit, beyond = list(csv.DictReader(handle))
        for key in ("d_full", "d_alpha"):
            assert float(huge[key]) == pytest.approx(1e160 * float(unit[key]), rel=1e-14)
        assert float(huge["snr1"]) == math.inf  # omega0 * 1e320 exceeds the double range
        # distances beyond the double range are inf, and their inf/inf ratio is left empty
        assert beyond["d_full"] == beyond["d_alpha"] == "inf" and beyond["ratio"] == ""

    @pytest.mark.parametrize("argv", [["inspect", "geodesic"], ["distance", "pairs.csv", "--model"]])
    def test_zero_energy_template_is_an_error(self, tmp_path, monkeypatch, capsys, argv):
        payload = {
            "grid": {"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": 3},
            "noise": {"gamma0": 2.0},
            "rho0": 0.0,
            "endpoints": [{"alpha": 1.0, "phase_coeffs": [0.0]}, {"alpha": 2.0, "phase_coeffs": [0.5]}],
        }
        (tmp_path / "model.json").write_text(json.dumps(payload))
        (tmp_path / "pairs.csv").write_text("alpha1,phase_coeffs1,alpha2,phase_coeffs2\n1.0,0.0,2.0,0.5\n")
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["model.json"]) == 2
        assert "error: template energy must be positive" in capsys.readouterr().err

    def test_distance_bad_header(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("a,b\n1,2\n")
        assert main(["distance", str(pairs)]) == 2
        assert "columns" in capsys.readouterr().err

    def test_accept_smoke_exit_code(self, tmp_path, capsys):
        verdict_path = tmp_path / "verdict.json"
        code = main(["accept", "--scale", "smoke", "--seed", "0", "--output", str(verdict_path)])
        assert code == 0
        verdict = json.loads(verdict_path.read_text())
        assert verdict["all_passed"] is True
        assert len(verdict["criteria"]) == 13
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 13


def _pairs_csv(path, sides) -> None:
    """A pairs CSV of consecutive (alpha, coefficients) sides, every number as its repr."""
    lines = [",".join(PAIR_COLUMNS)]
    for (a1, c1), (a2, c2) in zip(sides[::2], sides[1::2]):
        lines.append(f"{a1!r},{';'.join(map(repr, c1.tolist()))},{a2!r},{';'.join(map(repr, c2.tolist()))}")
    path.write_text("\n".join(lines) + "\n")


def _model_phases(grid, rho0, alpha, coeffs):
    """The unwrapped phases of a pair's side, as a KnownMagnitudeModel holds them (its constant wrapped)."""
    model = KnownMagnitudeModel(grid.freqs, rho0, alpha=alpha, phase_coeffs=coeffs)
    return model.phase_unwrapped(model.phase_coeffs)


def _gap_phase(grid, c1, c2):
    """A pair's gap polynomial as the ``distance`` command forms it: ``2 * polynomial_phase(0.5 * wc2 - 0.5 * wc1)``,
    each side ``wc`` under ``phase_coeff_rows`` (its constant wrapped) and zero-padded to the longer side."""
    width = max(len(c1), len(c2))
    wc1, wc2 = (phase_coeff_rows(np.pad(np.asarray(c, dtype=float), (0, width - len(c))), grid.n_freqs) for c in (c1, c2))
    return 2 * polynomial_phase(0.5 * wc2 - 0.5 * wc1, grid.freqs)


def _per_row_reports(pairs, grid, noise, rho0) -> bytes:
    """The ``distance`` CSV by a per-row route: one kernel call on the row's gap polynomial, one
    ``DistanceReport.known_mag`` and one ``writerow`` per row."""
    template = Template(noise, rho0)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(PAIR_COLUMNS + [f.name for f in dataclasses.fields(DistanceReport)])
    with open(pairs) as handle:
        for row in csv.DictReader(handle):
            a1, a2 = float(row["alpha1"]), float(row["alpha2"])
            c1, c2 = ([float(c) for c in row[k].split(";")] for k in ("phase_coeffs1", "phase_coeffs2"))
            d_full, d_alpha, delta = map(float, known_mag_distances(template, a1, a2, 0.0, _gap_phase(grid, c1, c2)))
            rep = DistanceReport.known_mag(d_full, d_alpha, delta, template.omega0, a1, a2)
            cells = ["" if v is None else repr(v) for v in rep.to_json_dict().values()]
            writer.writerow([row[c] for c in PAIR_COLUMNS] + cells)
    return out.getvalue().encode()


class TestCliOnLibraryRoutes:
    """Each command is one library route plus I/O: its numbers are the library's, bit for bit."""

    def test_distance_rows_equal_scalar_functions(self, model_file, tmp_path):
        rng = np.random.default_rng(11)
        sides = [(float(rng.uniform(0.1, 10.0)), rng.uniform(-60.0, 60.0, int(rng.integers(1, 5)))) for _ in range(80)]
        pairs = tmp_path / "pairs.csv"
        _pairs_csv(pairs, sides)
        out = tmp_path / "reports.csv"
        assert main(["distance", str(pairs), "--model", str(model_file), "--output", str(out)]) == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 40
        grid, noise, rho0, _ = load_model_file(model_file)
        wrapped_any = False
        for row, (a1, c1), (a2, c2) in zip(rows, sides[::2], sides[1::2]):
            gap = _gap_phase(grid, c1, c2)
            wrapped_any |= bool(np.any(np.abs(gap) > math.pi))
            assert float(row["d_alpha"]) == distance_alpha(a1, a2, 0.0, gap, Template(noise, rho0))
            assert float(row["d_full"]) == float(known_mag_distances(Template(noise, rho0), a1, a2, 0.0, gap)[0])
            assert float(row["delta"]) == phase_rms_diff(0.0, gap, noise, rho0)
        assert wrapped_any

    def test_distance_row_blocks_at_the_default_band(self, tmp_path, capsys):
        # two and a half blocks of rows at 1000 bins (20 rows in blocks of 8 when BLOCK is 8192), so the pairs
        # of degree 1 and of degree 3 below (half the rows each, less row 2 for degree 3) each span two blocks
        n = 1000
        step = BLOCK // n
        n_rows = 2 * step + step // 2
        assert [b.stop - b.start for b in row_blocks(n_rows, n)] == [step, step, step // 2]
        assert len(row_blocks(n_rows // 2 - 1, n)) == 2
        rng = np.random.default_rng(17)
        # degrees 0-3 on consecutive sides, so every pair pads its shorter side to the other's degree
        sides = [(float(10.0 ** rng.uniform(-1.0, 1.0)), rng.uniform(-60.0, 60.0, k % 4 + 1)) for k in range(2 * n_rows)]
        sides[2] = (sides[2][0], np.array([-0.0, 25.0, -0.0]))
        sides[3] = (sides[3][0], np.array([-0.0]))
        pairs = tmp_path / "pairs.csv"
        _pairs_csv(pairs, sides)
        out = tmp_path / "reports.csv"
        assert main(["distance", str(pairs), "--output", str(out)]) == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == n_rows
        grid, noise, rho0 = build_grid(0.25, 0.5, n), NoiseProfile.flat(2.0, n), np.ones(n)
        for row, (a1, c1), (a2, c2) in zip(rows, sides[::2], sides[1::2]):
            gap = _gap_phase(grid, c1, c2)
            assert float(row["d_alpha"]) == distance_alpha(a1, a2, 0.0, gap, Template(noise, rho0))
            assert float(row["d_full"]) == float(known_mag_distances(Template(noise, rho0), a1, a2, 0.0, gap)[0])
            assert float(row["delta"]) == phase_rms_diff(0.0, gap, noise, rho0)

        # row 19, of degree 2 as row 2 is: its gap polynomial overflows to -inf on the upper bins
        sides[36:38] = [(1.0, np.array([0.0, 1.7e308, 1.7e308])), (1.0, np.array([0.0, -1.7e308, -1.7e308]))]
        _pairs_csv(pairs, sides)
        out.unlink()
        capsys.readouterr()
        assert main(["distance", str(pairs), "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: bad pair on row 19: phases or their gap not finite on the grid\n"
        assert not out.exists()

    def test_distance_csv_equals_the_per_row_route(self, tmp_path):
        # 44 rows at the default band, with degrees 0-3 on each side: the pairs of each higher degree run
        # in blocks of their own, several of them for the commonest
        rng = np.random.default_rng(23)
        sides = [(float(10.0 ** rng.uniform(-1.0, 1.0)), rng.uniform(-60.0, 60.0, rng.integers(1, 5))) for _ in range(80)]
        pairs = tmp_path / "pairs.csv"
        _pairs_csv(pairs, sides)
        edge = [
            "1.5,0.3;-2.0,1.5,0.3;-2.0",  # coincident endpoints: no ratio
            "1e308,0,1,1",  # distances beyond the double range: inf, and no ratio
            "1e160,0.2;1.0,2e160,0.6;2.5",  # snr1 beyond the double range
            "0.7,-0.0;25.0;-0.0,2.0,-0.0",  # signed zeros and a padded degree
        ]
        lines = pairs.read_text().splitlines()
        pairs.write_text("\n".join(lines[:5] + edge[:2] + lines[5:30] + edge[2:] + lines[30:]) + "\n")
        out = tmp_path / "reports.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["distance", str(pairs), "--output", str(out)]) == 0
        n = 1000
        expected = _per_row_reports(pairs, build_grid(0.25, 0.5, n), NoiseProfile.flat(2.0, n), np.ones(n))
        assert out.read_bytes() == expected
        rows = list(csv.DictReader(io.StringIO(expected.decode())))
        degrees = [max(row["phase_coeffs1"].count(";"), row["phase_coeffs2"].count(";")) for row in rows]
        assert len(rows) == 44 and sorted(set(degrees)) == [0, 1, 2, 3] and max(map(degrees.count, degrees)) > 8
        assert rows[4]["ratio"] == "" and rows[5]["d_full"] == "inf" and rows[31]["snr1"] == "inf"

    def test_distance_csv_with_cells_to_quote_equals_the_per_row_route(self, tmp_path):
        # CRLF lines, extra and reordered columns, a repeated name (its last column is read) and quoted cells
        # with whitespace that float accepts, which the report echoes and must quote; 600 rows, so the cells
        # to quote fall in two chunks of written rows, and in the second not in its first row
        rng = np.random.default_rng(29)
        lines = ["phase_coeffs2,alpha1,note,alpha2,phase_coeffs1,alpha1"]
        for k in range(600):
            a1, a2 = (repr(float(10.0 ** rng.uniform(-1.0, 1.0))) for _ in range(2))
            c1, c2 = (";".join(map(repr, rng.uniform(-60.0, 60.0, rng.integers(1, 4)).tolist())) for _ in range(2))
            lines.append(f'{c2},junk,"note {k}, ""quoted""",{a2},{c1},{a1}')
        lines[4] = '"-1.5\n;2.0",junk,x,"1.0\n",0.5,3.0'
        lines[550] = '0.1," junk ",x,2.0," 0.2;\r1.0","\r\n 1.5 "'
        lines[551] = '"0.3 ",x,x," 2.0\t",-0.0,"0.25"'
        pairs = tmp_path / "pairs.csv"
        pairs.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        out = tmp_path / "reports.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["distance", str(pairs), "--output", str(out)]) == 0
        n = 1000
        expected = _per_row_reports(pairs, build_grid(0.25, 0.5, n), NoiseProfile.flat(2.0, n), np.ones(n))
        assert out.read_bytes() == expected
        rows = list(csv.DictReader(io.StringIO(expected.decode(), newline="")))
        assert len(rows) == 600 and (rows[3]["alpha2"], rows[3]["phase_coeffs2"]) == ("1.0\n", "-1.5\n;2.0")
        assert (rows[549]["alpha1"], rows[549]["phase_coeffs1"], rows[550]["alpha2"]) == ("\n 1.5 ", " 0.2;\n1.0", " 2.0\t")
        assert expected.count(b'"') == 8

    def test_distance_names_the_first_bad_row_in_file_order(self, tmp_path, capsys):
        # the gaps of row 9 (degree 3) and row 20 (degree 2) overflow; the pairs run in increasing degree, so
        # row 20 runs first
        degrees = [3] * 9 + [0, 1] * 5 + [2] + [1] * 4
        rows = [",".join(["1.0", ";".join(["0.5"] * (d + 1)), "2.0", "-0.5"]) for d in degrees]
        rows[8] = "1.0,0;1.7e308;1.7e308;0,1.0,0;-1.7e308;-1.7e308;0"
        rows[19] = "1.0,0;1.7e308;1.7e308,1.0,0;-1.7e308;-1.7e308"
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("\n".join([",".join(PAIR_COLUMNS)] + rows) + "\n")
        out = tmp_path / "reports.csv"
        assert main(["distance", str(pairs), "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: bad pair on row 9: phases or their gap not finite on the grid\n"
        assert not out.exists()

    def test_distance_memory_does_not_follow_the_longest_polynomial(self, tmp_path):
        # one side of 1000 coefficients among 1000 short pairs: only its own pair is padded to that length
        lines = [",".join(PAIR_COLUMNS)] + [f"1.5,0.25;{k % 7}.0,2.0,0.5" for k in range(1000)]
        pairs, out = tmp_path / "pairs.csv", tmp_path / "reports.csv"
        peaks = []
        for long_side in ("0.3", ";".join(["0.0"] * 999 + ["1e-300"])):
            lines[3] = f"1.0,{long_side},2.0,0.5"
            pairs.write_text("\n".join(lines) + "\n")
            tracemalloc.start()
            try:
                assert main(["distance", str(pairs), "--output", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a zero-padded (2 rows x 1000) matrix alone would be 16 MB
        assert peaks[1] < peaks[0] + 2**22, peaks

    def test_figure_output_is_the_only_file(self, tmp_path, monkeypatch, capsys):
        cfg = {
            "case_name": "tiny",
            "bandwidth_B": 0.5,
            "dpsi0": 0.0,
            "gamma_ratio": 1.0,
            "n_freqs": 50,
            "btau_sweep": [0.0, 5.0, 10],
            "output_path": "from_config.csv",
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "cfg.json", "--output", "from_cli.csv"]) == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["from_cli.csv"]
        assert capsys.readouterr().out == "wrote 11 rows to from_cli.csv\n"

    @pytest.mark.parametrize("where", ["sub/cfg.json", "cfg.json"], ids=["nested", "working-directory"])
    def test_figure_config_without_a_case_name_is_named_by_its_stem(self, tmp_path, monkeypatch, capsys, where):
        # no case_name, no output_path and no --output: the default output is figure_<stem>.csv in the working directory
        cfg = {"bandwidth_B": 0.5, "dpsi0": 0.0, "gamma_ratio": 1.0, "n_freqs": 50, "btau_sweep": [0.0, 5.0, 10]}
        (tmp_path / "sub").mkdir()
        (tmp_path / where).write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["figure", where]) == 0
        assert capsys.readouterr().out == "wrote 11 rows to figure_cfg.csv\n"
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv")) == ["figure_cfg.csv"]
        rows = run_figure_case(ExperimentConfig(case_name="cfg", **cfg))
        assert (tmp_path / "figure_cfg.csv").read_text().splitlines()[1:] == [",".join(map(repr, r)) for r in rows.tolist()]

    @pytest.mark.parametrize("subject", ["metric", "christoffel", "geodesic"])
    def test_inspect_output_file_holds_the_dump(self, model_file, tmp_path, capsys, subject):
        out = tmp_path / f"{subject}.json"
        assert main(["inspect", subject, str(model_file)]) == 0
        printed = capsys.readouterr().out
        assert main(["inspect", subject, str(model_file), "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {subject} dump to {out}\n"
        assert out.read_text() == printed

    def test_inspect_geodesic_on_unwrapped_phases(self, tmp_path, capsys):
        payload = {
            "grid": {"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": 6},
            "noise": {"gamma0": [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]},
            "rho0": [1.0, 0.9, 0.8, 0.7, 0.6, 0.5],
            "endpoints": [
                {"alpha": 1.0, "phase_coeffs": [0.2, 30.0]},
                {"alpha": 1.5, "phase_coeffs": [0.6, -25.0]},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["inspect", "geodesic", str(path)]) == 0
        dumped = json.loads(capsys.readouterr().out)
        grid, noise, rho0, models = load_model_file(path)
        # the distance command's gap route against a constant start; the start phases are the first model's
        geo = solve_alpha_geodesic(1.0, 1.5, 0.0, _gap_phase(grid, [0.2, 30.0], [0.6, -25.0]), Template(noise, rho0))
        assert dumped["delta"] == geo.delta
        assert dumped["k1"] == geo.k1
        assert dumped["dpsi"] == geo.dpsi.tolist()
        assert dumped["c"] == geo.c.tolist()
        assert dumped["psi1"] == wrap_phase(models[0].phase_unwrapped(models[0].phase_coeffs)).tolist()

    def test_inspect_geodesic_antipodal_warns_degenerate(self, tmp_path, capsys):
        # a constant gap of pi on every bin: delta = pi, and the attenuation touches zero inside the path
        payload = {
            "grid": {"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": 4},
            "noise": {"gamma0": 2.0},
            "rho0": 1.0,
            "endpoints": [{"alpha": 1.0, "phase_coeffs": [0.0]}, {"alpha": 1.5, "phase_coeffs": [3.141592653589793]}],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(DegenerateGeodesicWarning):
            assert main(["inspect", "geodesic", str(path)]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["degenerate"] is True and dumped["delta"] == math.pi

    def test_distance_overflowing_phase_gap_named(self, tmp_path, capsys):
        # each side's phase is finite, their difference is not: the library route would raise
        payload = {
            "grid": {"nu0": 10.0, "bandwidth_B": 1.0, "n_freqs": 4},
            "noise": {"gamma0": 2.0},
            "rho0": 1.0,
            "endpoints": [{"alpha": 1.0, "phase_coeffs": [0.0]}, {"alpha": 1.0, "phase_coeffs": [0.0]}],
        }
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("alpha1,phase_coeffs1,alpha2,phase_coeffs2\n1.0,0.0,2.0,0.5\n1.0,0.0;1e307,1.0,0.0;-1e307\n")
        out = tmp_path / "reports.csv"
        assert main(["distance", str(pairs), "--model", str(model), "--output", str(out)]) == 2
        assert "bad pair on row 2: phases or their gap not finite on the grid" in capsys.readouterr().err
        assert not out.exists()


def _mp_known_mag(template, freqs, a1, c1, a2, c2):
    """``(d_full, d_alpha, delta)`` of a pair whose gap never wraps, at 50 digits from the exact difference
    of the coefficients as read (each a double)."""
    with mpmath.workdps(50):
        big1, big2 = mpmath.mpf(a1), mpmath.mpf(a2)
        steps = [mpmath.mpf(b) - mpmath.mpf(a) for a, b in zip(c1, c2)]
        gaps = [mpmath.polyval(steps[::-1], mpmath.mpf(f)) for f in freqs.tolist()]
        weights, omega0 = [mpmath.mpf(w) for w in template.weights.tolist()], mpmath.mpf(template.omega0)
        chord = mpmath.fsum(w * ((big2 - big1) ** 2 + 4 * big1 * big2 * mpmath.sin(g / 2) ** 2) for w, g in zip(weights, gaps))
        delta = mpmath.sqrt(mpmath.fsum(w * g * g for w, g in zip(weights, gaps)) / omega0)
        d_alpha = mpmath.sqrt(omega0 * ((big2 - big1) ** 2 + 4 * big1 * big2 * mpmath.sin(delta / 2) ** 2))
        return mpmath.sqrt(chord), d_alpha, delta


# nearby endpoints on the default band: the delay coefficient 1e-9 and 1e-12 apart, then the constant 1e-9 apart
NEARBY_PAIRS = [
    (1.0, [0.3, 1234.5], 1.0, [0.3, 1234.500000001]),
    (1.0, [0.3, 1234.5], 1.0, [0.3, 1234.500000000001]),
    (1.0, [0.3, 1234.5], 1.0, [0.300000001, 1234.5]),
]


class TestDistanceGapRoute:
    """The ``distance`` command and ``inspect geodesic`` evaluate one gap polynomial per pair, ``polyval(c2 -
    c1)``, not two phases."""

    @pytest.mark.parametrize("pair", NEARBY_PAIRS + [(1.0, [7.0, 30.0, -2.5], 1.5, [0.6])], ids=lambda p: repr(p[3]))
    def test_inspect_geodesic_keeps_the_digits_of_nearby_endpoints(self, tmp_path, capsys, pair):
        # the two-phase route dumped delta 1.9e-6, 7.0e-3 and 7.9e-6 off; the last pair pads the shorter side
        a1, c1, a2, c2 = pair
        n, path = 1000, tmp_path / "model.json"
        grid, template = build_grid(0.25, 0.5, n), Template(NoiseProfile.flat(2.0, n), np.ones(n))
        band = {"grid": {"nu0": 0.25, "bandwidth_B": 0.5, "n_freqs": n}, "noise": {"gamma0": 2.0}, "rho0": 1.0}
        path.write_text(json.dumps({**band, "endpoints": [{"alpha": a1, "phase_coeffs": c1}, {"alpha": a2, "phase_coeffs": c2}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inspect", "geodesic", str(path)]) == 0
        dumped = json.loads(capsys.readouterr().out)
        geo = solve_alpha_geodesic(a1, a2, 0.0, _gap_phase(grid, c1, c2), template)
        assert (dumped["delta"], dumped["dpsi"]) == (geo.delta, geo.dpsi.tolist())
        assert dumped["psi1"] == wrap_phase(polynomial_phase(phase_coeff_rows(c1, n), grid.freqs)).tolist()
        if pair in NEARBY_PAIRS:
            true = _mp_known_mag(template, grid.freqs, *pair)[2]
            assert abs(mpmath.mpf(dumped["delta"]) - true) <= 2e-16 * true, dumped["delta"]

    def test_nearby_endpoints_keep_their_digits(self, tmp_path):
        # two phases near 1234.5 * 0.5 rad would lose about 12 of their digits to the subtraction (the
        # two-phase route is 1.9e-6, 7.0e-3 and 7.9e-6 off in d_full); the gap polynomial keeps all of them
        n = 1000
        pairs, out = tmp_path / "pairs.csv", tmp_path / "reports.csv"
        _pairs_csv(pairs, [(a, np.array(c)) for a1, c1, a2, c2 in NEARBY_PAIRS for a, c in ((a1, c1), (a2, c2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["distance", str(pairs), "--output", str(out)]) == 0
        template, freqs = Template(NoiseProfile.flat(2.0, n), np.ones(n)), build_grid(0.25, 0.5, n).freqs
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        for row, pair in zip(rows, NEARBY_PAIRS, strict=True):
            for key, true in zip(("d_full", "d_alpha", "delta"), _mp_known_mag(template, freqs, *pair)):
                assert abs(mpmath.mpf(row[key]) - true) <= 1e-15 * true, (pair, key, row[key])

    def test_sides_that_overflow_with_a_finite_gap_keep_their_cells(self, tmp_path):
        # row 1: each side's phase is finite (|1e308 nu| < 1e308 below nu = 0.5), and so is their gap; an
        # unhalved c2 - c1 = -2e308 would overflow.  Row 2: each side overflows on the grid, its gap is 0
        pairs, out = tmp_path / "pairs.csv", tmp_path / "reports.csv"
        pairs.write_text(",".join(PAIR_COLUMNS) + "\n1.0,0;1e308,1.0,0;-1e308\n1.0,0;1.7e308;1.7e308,2.0,0;1.7e308;1.7e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["distance", str(pairs), "--output", str(out)]) == 0
        with open(out) as handle:
            opposite, equal = list(csv.DictReader(handle))
        # the cells of the two-phase route, whose sides did not overflow on this row
        assert (opposite["d_full"], opposite["d_alpha"], opposite["delta"]) == (
            "17.82292240197722",
            "22.393551445108574",
            "0.7238456298573722",
        )
        n = 1000
        d = known_mag_distances(Template(NoiseProfile.flat(2.0, n), np.ones(n)), 1.0, 2.0, 0.0, np.zeros(n))
        assert (equal["d_full"], equal["d_alpha"], equal["delta"]) == tuple(repr(float(v)) for v in d)

    def test_drift_from_the_two_phase_route_is_bounded(self, tmp_path):
        # independent pairs drawn as perfbench draws them: log-uniform attenuations, degrees 0-3, each term
        # sweeping up to 25 turns over the band.  Over that generator's 12000 pairs at seeds 1-6 the gap route
        # moved d_full, d_alpha and delta by at most 5.1e-15 relative from the route on two phases
        rng = np.random.default_rng(31)
        sides = [
            (float(10.0 ** rng.uniform(-1.0, 1.0)), rng.uniform(-1.0, 1.0, d + 1) * 50.0 * math.pi * 2.0 ** np.arange(d + 1))
            for d in rng.integers(0, 4, 1200)
        ]
        pairs, out = tmp_path / "pairs.csv", tmp_path / "reports.csv"
        _pairs_csv(pairs, sides)
        assert main(["distance", str(pairs), "--output", str(out)]) == 0
        n = 1000
        grid, noise, rho0 = build_grid(0.25, 0.5, n), NoiseProfile.flat(2.0, n), np.ones(n)
        template, worst = Template(noise, rho0), 0.0
        with open(out) as handle:
            for row, (a1, c1), (a2, c2) in zip(csv.DictReader(handle), sides[::2], sides[1::2], strict=True):
                psi1, psi2 = _model_phases(grid, rho0, a1, c1), _model_phases(grid, rho0, a2, c2)
                for key, two_phase in zip(("d_full", "d_alpha", "delta"), known_mag_distances(template, a1, a2, psi1, psi2)):
                    worst = max(worst, abs(float(row[key]) - float(two_phase)) / float(two_phase))
        assert worst < 1e-14, worst


class TestParser:
    """The parser is built once per process; what it prints and how it exits stay as built."""

    def test_main_calls_reuse_one_parser(self, tmp_path, monkeypatch, capsys):
        parsers, parse_args = [], argparse.ArgumentParser.parse_args

        def recorded(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(",".join(PAIR_COLUMNS) + "\n")
        for _ in range(2):
            assert main(["distance", str(pairs), "--output", str(tmp_path / "out.csv")]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    @pytest.mark.parametrize(
        "argv, code", [(["nope"], 2), ([], 2), (["figure"], 2), (["--help"], 0), (["distance", "--help"], 0)]
    )
    def test_usage_and_exit_codes_as_a_fresh_parser(self, capsys, argv, code):
        with pytest.raises(SystemExit) as fresh:
            build_parser().parse_args(argv)
        printed = capsys.readouterr()
        assert fresh.value.code == code and (printed.err if code else printed.out).startswith("usage: fisherband")
        for _ in range(2):  # the first call may build the shared parser, the second reuses it
            with pytest.raises(SystemExit) as shared:
                main(argv)
            assert shared.value.code == code
            assert capsys.readouterr() == printed


class TestOneErrorExit:
    """Every failure of every command is one ``error: <cause>`` line on stderr and exit code 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "wideband-equal"],
            ["accept", "--scale", "smoke"],
            ["inspect", "metric", "MODEL"],
            ["distance", "PAIRS", "--model", "MODEL"],
        ],
        ids=["figure", "accept", "inspect", "distance"],
    )
    def test_missing_output_directory_named(self, model_file, tmp_path, capsys, argv):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("alpha1,phase_coeffs1,alpha2,phase_coeffs2\n1.0,0.0,2.0,0.5\n")
        out = tmp_path / "missing_dir" / "out.csv"
        argv = [{"MODEL": str(model_file), "PAIRS": str(pairs)}.get(a, a) for a in argv]
        assert main(argv + ["--output", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1
        if argv[0] == "accept":
            # the output is opened before the suite runs, so no criterion line is printed
            assert captured.out == ""
        assert str(out) in err and "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("where", ["--output", "case_name"])
    def test_figure_unwritable_output_named_before_the_sweep(self, tmp_path, monkeypatch, capsys, where):
        # nodir/x.csv, or the default figure_a/b.csv of a config whose case name holds a slash
        monkeypatch.setattr(cli, "run_figure_case", lambda config: pytest.fail("the sweep ran"))
        monkeypatch.chdir(tmp_path)
        cfg = {"bandwidth_B": 0.5, "dpsi0": 0.0, "gamma_ratio": 1.0, "n_freqs": 50, "btau_sweep": [0.0, 5.0, 10]}
        argv = ["figure", "cfg.json"]
        if where == "case_name":
            cfg["case_name"] = "a/b"
        else:
            argv += ["--output", "nodir/x.csv"]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert ("figure_a/b.csv" if where == "case_name" else "nodir/x.csv") in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_figure_keeps_an_existing_output_until_its_rows_are_written(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "old.csv"
        out.write_bytes(b"old rows\n")
        seen = []

        def sweep(config):
            seen.append(out.read_bytes())
            return run_figure_case(config)

        monkeypatch.setattr(cli, "run_figure_case", sweep)
        assert main(["figure", "narrowband-equal", "--output", str(out)]) == 0
        assert seen == [b"old rows\n"]
        assert out.read_text().splitlines()[0] == FIGURE_CSV_HEADER

    def test_distance_unwritable_output_named_before_the_pairs(self, tmp_path, monkeypatch, capsys):
        # the pairs file's bad row is never read: the output is opened first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pairs.csv").write_text("alpha1,phase_coeffs1,alpha2,phase_coeffs2\n0.0,0.0,1.0,0.0\n")
        assert main(["distance", "pairs.csv", "--output", "nodir/x.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "nodir/x.csv" in captured.err and "row" not in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.csv"]

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    def test_distance_bad_row_writes_nothing(self, tmp_path, capsys, existing):
        # a fresh output is removed again, an existing one keeps its bytes
        pairs, out = tmp_path / "pairs.csv", tmp_path / "reports.csv"
        pairs.write_text("alpha1,phase_coeffs1,alpha2,phase_coeffs2\n1.0,0.0,2.0,0.5\n1.0,x,2.0,0.5\n")
        if existing:
            out.write_bytes(b"old reports\r\n")
        assert main(["distance", str(pairs), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad pair on row 2: ")
        assert out.read_bytes() == b"old reports\r\n" if existing else not out.exists()

    def test_distance_missing_pairs_csv_named(self, tmp_path, capsys):
        missing = tmp_path / "no_such_pairs.csv"
        out = tmp_path / "reports.csv"
        assert main(["distance", str(missing), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert not out.exists()

    def test_inspect_geodesic_overflowing_phase_gap_named(self, tmp_path, capsys):
        payload = {
            "grid": {"nu0": 10.0, "bandwidth_B": 1.0, "n_freqs": 4},
            "noise": {"gamma0": 2.0},
            "rho0": 1.0,
            "endpoints": [{"alpha": 1.0, "phase_coeffs": [0.0, 1e307]}, {"alpha": 1.0, "phase_coeffs": [0.0, -1e307]}],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inspect", "geodesic", str(path)]) == 2
        assert capsys.readouterr().err == "error: phase gap psi2 - psi1 is not finite\n"

    def test_inspect_geodesic_overflowing_endpoint_phase_named(self, tmp_path, capsys):
        # both endpoints' phases leave the double range on the grid, while their gap, 0, does not
        side = {"alpha": 1.0, "phase_coeffs": [0.0, 1.7e308, 1.7e308]}
        payload = {"grid": {"nu0": 0.25, "bandwidth_B": 0.5, "n_freqs": 16}, "noise": {"gamma0": 2.0}, "rho0": 1.0,
                   "endpoints": [side, side]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inspect", "geodesic", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: endpoint 0's phase is inf at nu = 0.078125, past the double range\n")

    def test_console_entry_point_prints_no_traceback(self, tmp_path, model_file):
        out = tmp_path / "missing_dir" / "dump.json"
        argv = [sys.executable, "-m", "fisherband.cli", "inspect", "metric", str(model_file), "--output", str(out)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=SRC_DIR)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr

    @pytest.mark.parametrize("pythonwarnings", [None, "error"], ids=["default", "PYTHONWARNINGS=error"])
    def test_console_library_warning_is_one_line(self, tmp_path, pythonwarnings):
        # the antipodal geodesic warns: one line naming no source file, or under -W error the one error exit
        payload = {
            "grid": {"nu0": 0.25, "bandwidth_B": 0.4, "n_freqs": 4},
            "noise": {"gamma0": 2.0},
            "rho0": 1.0,
            "endpoints": [{"alpha": 1.0, "phase_coeffs": [0.0]}, {"alpha": 1.5, "phase_coeffs": [3.141592653589793]}],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        if pythonwarnings:
            env["PYTHONWARNINGS"] = pythonwarnings
        argv = [sys.executable, "-m", "fisherband.cli", "inspect", "geodesic", str(path)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=SRC_DIR, env=env)
        message = "antipodal phase difference: attenuation touches zero inside the path"
        if pythonwarnings:
            assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")
        else:
            assert (done.returncode, done.stderr) == (0, f"warning: DegenerateGeodesicWarning: {message}\n")
            assert json.loads(done.stdout)["degenerate"] is True

    def test_accept_negative_seed_named_before_any_criterion(self, capsys):
        assert main(["accept", "--scale", "smoke", "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: seed must be a non-negative whole number\n")

    def test_accept_negative_seed_touches_no_output(self, tmp_path, capsys):
        # the seed rule runs before --output is opened: no file is created, and an old verdict keeps its bytes
        fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
        old.write_bytes(b'{"seed": 0}\n')
        for out in (fresh, old):
            assert main(["accept", "--scale", "smoke", "--seed", "-1", "--output", str(out)]) == 2
            assert capsys.readouterr() == ("", "error: seed must be a non-negative whole number\n")
        assert not fresh.exists()
        assert old.read_bytes() == b'{"seed": 0}\n'

    @pytest.mark.parametrize("subject", ["metric", "christoffel"])
    def test_closed_stdout_is_not_an_input_error(self, model_file, subject):
        # the read end is closed before the spawn, so every write to stdout fails, with no race
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            argv = [sys.executable, "-m", "fisherband.cli", "inspect", subject, str(model_file)]
            done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, cwd=SRC_DIR)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""
