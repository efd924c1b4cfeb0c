"""Command-line front end.

Subcommands:
  figure    write the delay-sweep dataset of a named case or a config file
  accept    run the acceptance suite and emit a JSON verdict
  inspect   dump the metric, connection symbols or geodesic of a model file
  distance  batch-compute distance reports for a CSV of endpoint pairs

A model file is JSON of the form::

    {
      "grid":  {"nu0": 0.25, "bandwidth_B": 0.5, "n_freqs": 1000},
      "noise": {"gamma0": 2.0},          # scalar or per-bin list
      "rho0":  1.0,                      # scalar or per-bin list
      "endpoints": [                     # read by inspect alone
        {"alpha": 1.0, "phase_coeffs": [0.0]},
        {"alpha": 1.0, "phase_coeffs": [0.0, -6.2832]}
      ]
    }

All configuration is explicit; no environment variables are consulted and
every output is deterministic given the arguments.

Exit codes: 0 on success, 1 when ``accept`` finds a failing criterion or
stdout is closed before the output is written (a broken pipe, which prints
nothing), and 2 on any named error (bad input, a failed check, an
unwritable output), which ``main`` alone reports as one ``error: <cause>``
line on stderr.  A library warning is one ``warning: <category>: <message>``
line on stderr; under ``-W error`` it is a named error too.  A number in a
file is a JSON number in the double range: a string, a bool or a 400-digit
integer is not one.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import operator
import os
import sys
import warnings
from functools import cache
from itertools import chain, repeat

import numpy as np

from .acceptance import run_acceptance_suite, suite_seed
from .band import NoiseProfile, Template, build_grid, check_attenuation, is_real_number, pass_workspace, row_blocks
from .band import in_range, wrap_phase, write_csv
from .distances import known_mag_columns, known_mag_distances
from .figures import FIGURE_CASES, ExperimentConfig, run_figure_case, write_figure_csv
from .geodesics import solve_alpha_geodesic
from .metric import christoffel, fisher_matrix
from .models import KnownMagnitudeModel, phase_coeff_rows, polynomial_gap


class ModelFileError(ValueError):
    """A model spec file is missing or malforms a required field."""


def _as_array(value, n: int, label: str) -> np.ndarray:
    """One value per bin from a real number or a list of ``n`` of them, under build_grid's rule for a number."""
    if is_real_number(value):
        return np.full(n, float(value))
    if not (isinstance(value, list) and len(value) == n and all(map(is_real_number, value))):
        raise ModelFileError(f"field '{label}' must be a real number or a list of {n} real numbers")
    return np.asarray(value, dtype=float)


def load_model_file(path, with_endpoints: bool = True):
    """Parse a model spec file into (grid, noise, rho0, endpoint models).

    Without ``with_endpoints`` the file need not list endpoints, none are
    read, and the models are None.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ModelFileError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"model file is not valid JSON (line {exc.lineno}, column {exc.colno})") from exc

    def need(mapping, key, where):
        if not isinstance(mapping, dict) or key not in mapping:
            raise ModelFileError(f"missing field '{where}.{key}'" if where else f"missing field '{key}'")
        return mapping[key]

    grid_spec = need(payload, "grid", "")
    try:
        grid = build_grid(
            need(grid_spec, "nu0", "grid"),
            need(grid_spec, "bandwidth_B", "grid"),
            need(grid_spec, "n_freqs", "grid"),
        )
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"bad grid specification: {exc}") from exc
    noise = NoiseProfile(_as_array(need(need(payload, "noise", ""), "gamma0", "noise"), grid.n_freqs, "noise.gamma0"))
    rho0 = _as_array(need(payload, "rho0", ""), grid.n_freqs, "rho0")
    if not with_endpoints:
        return grid, noise, rho0, None
    endpoints = need(payload, "endpoints", "")
    if not isinstance(endpoints, list) or len(endpoints) != 2:
        raise ModelFileError("field 'endpoints' must list exactly two points")
    models = []
    for k, spec in enumerate(endpoints):
        alpha, coeffs = (need(spec, key, f"endpoints[{k}]") for key in ("alpha", "phase_coeffs"))
        if not is_real_number(alpha):
            raise ModelFileError(f"field 'endpoints[{k}].alpha' must be a real number")
        if not (isinstance(coeffs, list) and all(map(is_real_number, coeffs))):
            raise ModelFileError(f"field 'endpoints[{k}].phase_coeffs' must be a list of real numbers")
        try:
            models.append(KnownMagnitudeModel(grid.freqs, rho0, alpha=float(alpha), phase_coeffs=coeffs))
        except ValueError as exc:
            raise ModelFileError(f"bad endpoint {k}: {exc}") from exc
    return grid, noise, rho0, models


def _cmd_figure(args) -> int:
    if args.case in FIGURE_CASES:
        config = FIGURE_CASES[args.case]
    else:
        try:
            with open(args.case) as handle:
                # without a case name the file's stem names the case, so the default output lands in the working directory
                payload = {"case_name": os.path.splitext(os.path.basename(args.case))[0], **json.load(handle)}
            config = ExperimentConfig(**payload)
        except OSError as exc:
            known = ", ".join(sorted(FIGURE_CASES))
            raise ValueError(f"'{args.case}' is neither a known case ({known}) nor a readable config file") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad figure config: {exc}") from exc
    out = args.output or config.output_path or f"figure_{config.case_name}.csv"
    # an unwritable output fails before the sweep runs; "a" keeps an old file until the new rows are written
    open(out, "a").close()
    rows = run_figure_case(config)
    write_figure_csv(out, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_accept(args) -> int:
    seed = suite_seed(args.seed)  # a bad seed fails before the output is touched
    if args.output:
        # an unwritable output fails before the suite runs; "a" keeps an old verdict until the new one is written
        open(args.output, "a").close()
    verdict = run_acceptance_suite(seed=seed, scale=args.scale)
    for entry in verdict["criteria"]:
        status = "PASS" if entry["passed"] else "FAIL"
        print(
            f"[{status}] criterion {entry['cid']:2d}: {entry['name']} "
            f"(measured {entry['measured']:.6g}, expected {entry['expected']:.6g} "
            f"+/- {entry['tolerance']:.3g}, {entry['seconds']:.2f}s)"
        )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(verdict, handle, indent=2)
        print(f"verdict written to {args.output}")
    print("all criteria passed" if verdict["all_passed"] else "some criteria FAILED")
    return 0 if verdict["all_passed"] else 1


def _cmd_inspect(args) -> int:
    _, noise, rho0, models = load_model_file(args.model_file)
    first = models[0]
    if args.subject == "metric":
        payload = fisher_matrix(first, first.xi, noise).to_json_dict()
    elif args.subject == "christoffel":
        payload = christoffel(first, first.xi, noise).to_json_dict()
    else:
        # the start phases are the first model's own, which may leave the double range while the gap does not
        with np.errstate(over="ignore", invalid="ignore"):
            psi1 = first.phase_unwrapped(first.phase_coeffs)
        if not in_range(psi1):
            k = int(np.argmin(np.isfinite(psi1)))
            raise ValueError(f"endpoint 0's phase is {psi1[k]} at nu = {first.freqs[k]:.6g}, past the double range")
        # the phase gap from the coefficients, as in ``distance``: the endpoints' shared digits cancel exactly
        # there, not in two phases
        coeffs = np.zeros((2, max(m.n_phase_params for m in models)))
        for row, m in zip(coeffs, models):
            row[: m.n_phase_params] = m.phase_coeffs
        gap = polynomial_gap(0.5 * coeffs[1] - 0.5 * coeffs[0], first.freqs)
        geo = solve_alpha_geodesic(first.alpha, models[1].alpha, 0.0, gap, Template(noise, rho0))
        payload = dataclasses.replace(geo, psi1=wrap_phase(psi1)).to_json_dict()
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.subject} dump to {args.output}")
    else:
        print(text)
    return 0


PAIR_COLUMNS = ["alpha1", "phase_coeffs1", "alpha2", "phase_coeffs2"]


def _cmd_distance(args) -> int:
    if args.model:
        grid, noise, rho0, _ = load_model_file(args.model, with_endpoints=False)
    else:
        grid, noise, rho0 = build_grid(0.25, 0.5, 1000), NoiseProfile.flat(2.0, 1000), np.ones(1000)
    template = Template(noise, rho0)
    out = args.output or "distance_reports.csv"
    # an unwritable output fails before the pairs are read; "a" keeps an old file until the new rows are
    # written, and a file created here goes again if the pairs fail, so a bad input writes nothing
    created = not os.path.lexists(out)
    open(out, "a").close()
    try:
        count = _write_reports(args.pairs, grid, template, out)
    except BaseException:
        if created:
            os.remove(out)
        raise
    print(f"wrote {count} reports to {out}")
    return 0


def _write_reports(pairs, grid, template: Template, out) -> int:
    """The ``distance`` command's reports of the pairs CSV ``pairs``, written to ``out``: the row count."""
    n = grid.n_freqs
    with open(pairs) as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if not set(PAIR_COLUMNS).issubset(header):
            raise ValueError(f"pairs CSV must have columns {sorted(PAIR_COLUMNS)}")
        # a repeated name reads its last column, a short row None, and a blank row is skipped, as in csv.DictReader
        at = [{name: k for k, name in enumerate(header)}[c] for c in PAIR_COLUMNS]
        pick, width = operator.itemgetter(*at), max(at) + 1
        table = [pick(row) if len(row) >= width else [row[k] if k < len(row) else None for k in at] for row in reader if row]

    try:
        # every side at once: its attenuation, and its coefficients under the model's rule, by one float map
        # over all sides joined (a short row's None fails the join, and is named below)
        alpha1, coeffs1, alpha2, coeffs2 = zip(*table) if table else ((),) * 4
        alphas = np.fromiter(map(float, chain.from_iterable(zip(alpha1, alpha2))), float, 2 * len(table)).reshape(-1, 2)
        sides = list(chain.from_iterable(zip(coeffs1, coeffs2)))
        values = np.fromiter(map(float, ";".join(sides).split(";") if sides else ()), float)
        counts = (np.fromiter(map(str.count, sides, repeat(";")), int, len(sides)) + 1).reshape(-1, 2)
        if counts.max(initial=1) > n:  # a side past the degree rule is named below, before a matrix is built
            raise ValueError
        check_attenuation(alphas)
        # the pairs grouped by their higher count, each group zero-padded to that count alone, so a long
        # polynomial widens only its own group; the groups run in increasing count, each in file order
        groups, widths = [], counts.max(axis=1)
        value_widths = np.repeat(widths.repeat(2), counts.ravel())  # each coefficient's group, in file order
        for width in sorted(set(widths.tolist())):  # not np.unique: its first call adds 1.7 MB of resident memory
            rows = np.flatnonzero(widths == width)
            coeffs = np.zeros((len(rows), 2, width))
            coeffs[np.arange(width) < counts[rows, :, np.newaxis]] = values[value_widths == width]
            wrapped = phase_coeff_rows(coeffs, n)
            # the half gap of the coefficients: halving is exact, so a difference of finite halves cannot overflow
            groups.append((rows, 0.5 * wrapped[:, 1] - 0.5 * wrapped[:, 0]))
    except (TypeError, ValueError):
        # the first side in file order that breaks a rule names its row and its error; a short row leaves a cell None
        for k, cells in enumerate(table):
            for alpha, side in (cells[:2], cells[2:]):
                try:
                    alpha, side = float(alpha), [float(part) for part in (side or "").split(";")]
                    check_attenuation(alpha)
                    phase_coeff_rows(side, n)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"bad pair on row {k + 1}: {exc}") from None
        raise

    # Horner with trailing zeros is bit-identical to the row's own call, and a row's values never depend on
    # its block-mates, so each row equals its own evaluation however it is grouped
    results, bad = np.empty((len(alphas), 3)), []
    # each block's gap polynomials and the kernel's work are views of one aligned (3, rows, bins) workspace
    arrays = pass_workspace(3, max((len(rows) for rows, _ in groups), default=0), n)
    for rows, half_gaps in groups:
        for part in row_blocks(len(rows), n):
            block = rows[part]
            gap, work = arrays[0, : len(block)], arrays[1:, : len(block)]
            polynomial_gap(half_gaps[part], grid.freqs, out=gap)  # a row that overflows is named below
            try:
                d = known_mag_distances(template, alphas[block, 0], alphas[block, 1], 0.0, gap, work=work)
                results[block] = np.column_stack(d)
            except ValueError:  # the kernel's check of the gap: the first row in file order that fails it is named
                bad.append(block[~np.isfinite(gap).all(axis=1)].min())
    if bad:
        raise ValueError(f"bad pair on row {min(bad) + 1}: phases or their gap not finite on the grid")

    columns = known_mag_columns(*results.T, template.omega0, alphas[:, 0], alphas[:, 1])
    columns["omega0"] = [repr(template.omega0)] * len(table)  # one constant, formatted once
    # the input cells as read, then the report's (a NaN ratio is an empty cell)
    write_csv(out, PAIR_COLUMNS + list(columns), [alpha1, coeffs1, alpha2, coeffs2, *columns.values()])
    return len(table)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherband",
        description="Information distances between band-limited signals in Gaussian noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="write a delay-sweep CSV dataset")
    p_fig.add_argument("case", help=f"case name ({', '.join(sorted(FIGURE_CASES))}) or JSON config path")
    p_fig.add_argument("--output", help="output CSV path (default figure_<case>.csv)")
    p_fig.set_defaults(func=_cmd_figure)

    p_acc = sub.add_parser("accept", help="run the acceptance suite")
    p_acc.add_argument("--scale", choices=("smoke", "full"), default="full")
    p_acc.add_argument("--seed", type=int, default=0)
    p_acc.add_argument("--output", help="also write the JSON verdict here")
    p_acc.set_defaults(func=_cmd_accept)

    p_ins = sub.add_parser("inspect", help="dump a metric/connection/geodesic as JSON")
    p_ins.add_argument("subject", choices=("metric", "christoffel", "geodesic"))
    p_ins.add_argument("model_file")
    p_ins.add_argument("--output")
    p_ins.set_defaults(func=_cmd_inspect)

    p_dist = sub.add_parser("distance", help="batch-compute distance reports")
    p_dist.add_argument("pairs", help="CSV with alpha1, phase_coeffs1, alpha2, phase_coeffs2 (';'-separated lists)")
    p_dist.add_argument("--model", help="model JSON file fixing grid/noise/template (default: flat demo band)")
    p_dist.add_argument("--output", help="output CSV path (default distance_reports.csv)")
    p_dist.set_defaults(func=_cmd_distance)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built once per process, not once per ``main`` call."""
    return build_parser()


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A library warning as one line about the input, naming no source file."""
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    python_format, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone: not an input error, so no error line; later
        # flushes, the one at shutdown too, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError, Warning) as exc:  # a warning raised under -W error is a named error too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = python_format


if __name__ == "__main__":
    sys.exit(main())
