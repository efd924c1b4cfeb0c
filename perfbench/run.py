"""Benchmark of the fisherband CLI.

    python3 perfbench/run.py --workload distance-narrow --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the package is imported from ./src and
nothing is installed.  Inputs are generated from --seed under .bench_work/.
Fresh child interpreters measure the import (set-up) time; one worker
process then runs the workload's CLI passes for --seconds and checks every
output.  Times are scaled to a reference machine speed, which a probe
samples while the passes run (speed.py).  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.
perfbench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import spans
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

# One caller, one thread: BLAS is pinned so that timings do not depend on
# how many idle cores the machine has.
BLAS_THREADS = 1
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
RUN_LIMIT_S = 170.0

IMPORT_CLI = "import fisherband.cli"

# Names the end-to-end metrics carry on each workload in the docs.
ALIASES = {
    ("accept-full", "pass_s"): "accept_s",
    ("distance-narrow", "items_per_s"): "rows_per_s",
    ("figure-cases", "items_per_s"): "sweep_points_per_s",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def probe_setup(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters that import the CLI module: from
    the start of the interpreter to the end of the import, less the kernel
    runs of the set-up probe, as measured and scaled to the reference speed.

    One untimed probe first writes the byte-code caches, which every later
    start of the CLI finds in place.
    """
    cmd = [sys.executable, "-c", speed.SETUP_PROBE]
    wall, scaled = [], []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=deadline - start
        )
        end, busy_s, kernel_s = json.loads(done.stdout)
        if k:
            wall.append(end - start - busy_s)
            scaled.append(wall[-1] * speed.setup_scale(kernel_s))
    return wall, scaled


def probe_import_split(env: dict, deadline: float) -> dict[str, float]:
    """Median cumulative import time of numpy and scipy.interpolate."""
    wanted = {"numpy": "setup.numpy_s", "scipy.interpolate": "setup.scipy_interpolate_s"}
    samples = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORTTIME_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CLI],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
            timeout=deadline - time.perf_counter(),
        )
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip() in wanted:
                samples[wanted[fields[2].strip()]].append(int(fields[1]) * 1e-6)
    return {metric: statistics.median(values) if values else 0.0 for metric, values in samples.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(result: dict, setup_s: list[float], items_per_pass: int) -> dict:
    """Value, samples and unit of each end-to-end metric.

    Pass time and throughput are taken over the whole measured window (total
    pass time over passes, operations over total pass time), scaled to the
    reference speed by the kernel runs of the window.  Set-up time is the
    median of its scaled probes.
    """
    factor = speed.scale(result["kernel_s"])
    scaled = [t * factor for t in result["pass_s"]]
    busy_s = sum(scaled)
    ok_frac = 1.0 - result["failed"] / result["attempted"]
    return {
        "setup_s": (statistics.median(setup_s), setup_s, "s"),
        "pass_s": (busy_s / len(scaled), scaled, "s"),
        "items_per_s": (items_per_pass * len(scaled) / busy_s, [items_per_pass / t for t in scaled], "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, [result["peak_rss_kb"] / 1024.0], "MB"),
        "ok_frac": (ok_frac, [ok_frac], "ratio"),
    }


def per_layer(span_rows: list[dict], result: dict, kind: str, items_per_pass: int, split: dict) -> dict:
    """Per-pass calls and self time of each spanned function, and the rest
    of the per-layer metrics, from the spans of the traced passes."""
    child_s: dict[int, float] = defaultdict(float)
    for span in span_rows:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    n_pass = sum(span["name"] == spans.PASS_SPAN for span in span_rows)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    peak_mb = 0.0
    for span in span_rows:
        name, duration = span["name"], span["end"] - span["start"]
        calls[name] += 1
        self_s[name] += duration - child_s[span["id"]]
        total_s[name] += duration
        peak_mb = max(peak_mb, span["peak_mb"] or 0.0)

    metrics = {}
    for name in spans.spanned_names():
        metrics[f"{name}.calls"] = (calls[name] / n_pass, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / n_pass, "s")
    for k in range(1, workloads.ACCEPT_CRITERIA + 1):
        metrics[f"acceptance.criterion_{k}.s"] = (total_s[f"acceptance.criterion_{k}"] / n_pass, "s")
    for name, value in split.items():
        metrics[name] = (value, "s")
    metrics["metric.monte_carlo_fisher.peak_mb"] = (peak_mb, "MB")
    rows = items_per_pass if kind == "distance" else 0
    per_row = calls["band.band_energy"] / n_pass / rows if rows else 0.0
    metrics["band.band_energy.calls_per_row"] = (per_row, "count")
    overhead = statistics.fmean(result["traced_pass_s"]) / statistics.fmean(result["pass_s"]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "fisherband", "cli.py")):
        print(f"error: no package source at {SRC}/fisherband", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = workloads.prepare(args.workload, work, args.seed)
    spec.update(
        src=SRC,
        seconds=args.seconds,
        trace=args.trace,
        result=os.path.join(work, "result.json"),
        spans=os.path.join(work, "spans.jsonl"),
    )
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    items_per_pass = sum(step["items"] for step in spec["steps"])

    env = child_env()
    try:
        if args.trace:
            split = probe_import_split(env, deadline)
        else:
            setup_wall_s, setup_s = probe_setup(env, deadline)
        subprocess.run(
            [sys.executable, WORKER, spec_path],
            env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            timeout=deadline - time.perf_counter(),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(spec["result"]) as handle:
        result = json.load(handle)

    if args.trace:
        with open(spec["spans"]) as handle:
            span_rows = [json.loads(line) for line in handle]
        metrics = per_layer(span_rows, result, spec["kind"], items_per_pass, split)
    else:
        table = end_to_end(result, setup_s, items_per_pass)
        print(f"{'metric':34} {'value':>12} {'q1':>12} {'median':>12} {'q3':>12} {'n':>4}  unit")
        metrics = {}
        for name, (value, samples, unit) in table.items():
            q1, median, q3 = quartiles(samples)
            label = f"{name} ({ALIASES[args.workload, name]})" if (args.workload, name) in ALIASES else name
            print(f"{label:34} {value:12.6g} {q1:12.6g} {median:12.6g} {q3:12.6g} {len(samples):4d}  {unit}")
            metrics[name] = (value, unit)
        print(f"failed_frac = {result['failed'] / result['attempted']:.6g} ({result['failed']} of {result['attempted']} operations)")
        kernel_s = statistics.harmonic_mean(result["kernel_s"])
        print(
            f"as measured: setup_s {statistics.median(setup_wall_s):.6g}, pass_s {statistics.fmean(result['pass_s']):.6g};"
            f" mean kernel {kernel_s * 1e3:.4g} ms over {len(result['kernel_s'])} runs, reference {speed.REFERENCE_S * 1e3:g} ms"
        )

    env_block = {**result["env"], "workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    print("env " + json.dumps(env_block))
    output = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(work, "output.json"), "w") as handle:
        json.dump({**output, "env": env_block, "samples": result}, handle, indent=1)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
