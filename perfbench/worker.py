"""One fresh interpreter that runs a workload's passes.

    python3 perfbench/worker.py SPEC.json

``run.py`` writes SPEC: the package source directory, the pass steps, the
time budget, the trace flag and where to put the result.  The worker
imports ``fisherband.cli`` and runs one untimed pass, after which
``ru_maxrss`` is the peak memory of a fresh process running one pass.  It
then times passes, each calling ``fisherband.cli.main`` once per step, and
checks every output after its pass.  With tracing off, a ``speed.SpeedProbe``
samples the machine's speed during the passes, and its kernel runs are
taken out of the pass times.  With tracing on, plain passes
alternate with passes that run with every spanned function wrapped, so
that both kinds see the same drift in machine speed and their ratio gives
the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback


def _call(cli, argv, errors: list[str]):
    """Exit code of one CLI call, or None when it raised.  The traceback of
    the first exception is kept in ``errors``; later ones are only counted."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        errors.append(traceback.format_exc() if not errors else "")
        return None


def _run_until(deadline: float, *kinds) -> list[list[float]]:
    """Closed loop over passes of the given kinds in turn.

    Each kind runs at least once, and another pass starts while the window
    is open, so the last pass may end after the deadline.  Stopping at the
    last pass that fits would cut the window of a 7-second pass to 15-22 s
    and tie the number of passes to the machine's speed.  Returns the pass
    times of each kind.
    """
    times = [[] for _ in kinds]
    k = 0
    while k < len(kinds) or time.perf_counter() < deadline:
        times[k % len(kinds)].append(kinds[k % len(kinds)]())
        k += 1
    return times


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    src = spec["src"]
    sys.path.insert(0, src)
    import fisherband.cli

    if not os.path.abspath(fisherband.cli.__file__).startswith(src + os.sep):
        print(f"error: imported fisherband from {fisherband.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import spans
    import speed
    import workloads

    kind, steps = spec["kind"], spec["steps"]
    tally = {"attempted": 0, "failed": 0}
    errors: list[str] = []
    probe = speed.SpeedProbe()

    def run_steps():
        return [_call(fisherband.cli, step["argv"], errors) for step in steps]

    def one_pass(runner) -> float:
        for step in steps:
            if os.path.exists(step["output"]):
                os.remove(step["output"])
        start = time.perf_counter()
        codes = runner()
        end = time.perf_counter()
        elapsed = end - start - probe.interrupted_s(start, end)
        for step, code in zip(steps, codes):
            tally["attempted"] += step["items"]
            tally["failed"] += workloads.failed_items(kind, step, code)
        return elapsed

    def plain():
        return one_pass(run_steps)

    warm_pass_s = plain()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    deadline = time.perf_counter() + spec["seconds"]
    traced_pass_s = []
    if spec["trace"]:
        recorder = spans.SpanRecorder()
        instrumentation = spans.Instrumentation(recorder)
        traced_steps = recorder.wrap(spans.PASS_SPAN, run_steps)

        def traced():
            instrumentation.apply()
            try:
                return one_pass(traced_steps)
            finally:
                instrumentation.revert()

        pass_s, traced_pass_s = _run_until(deadline, plain, traced)
        recorder.write_jsonl(spec["spans"])
    else:
        with probe:
            [pass_s] = _run_until(deadline, plain)

    if errors:
        print(f"{len(errors)} CLI calls raised; the first:\n{errors[0]}", file=sys.stderr)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "warm_pass_s": warm_pass_s,
        "peak_rss_kb": peak_rss_kb,
        "pass_s": pass_s,
        "traced_pass_s": traced_pass_s,
        "kernel_s": probe.kernel_s(),
        **tally,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        },
    }
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
