"""Outside-in span recorder for the traced benchmark run.

The recorder times calls into the package's public functions without
changing the package.  Its modules import their siblings by name
(``from .band import wrap_phase``), so every module holds its own reference
to a shared function, and wrapping ``fisherband.band.wrap_phase`` alone
would miss the calls made through the others.  ``Instrumentation``
therefore swaps the function at every binding site.  Dataclass
constructors are timed by wrapping the class's own ``__init__``, and
acceptance criteria by replacing their entries in ``acceptance.CRITERIA``.

Each span records its id, name, start, end and parent id.  Spans stay in
memory and are written as JSONL once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# Spanned public functions and dataclass constructors, by module.
SPANNED = {
    "band": ["wrap_phase", "SignalSpectrum", "NoiseProfile", "build_grid", "band_energy", "phase_rms_diff"],
    "models": ["KnownMagnitudeModel", "eval_model"],
    "distances": ["report", "distance_full", "distance_alpha", "distance_full_embedding", "ratio_time_delay"],
    "geodesics": [
        "solve_alpha_geodesic",
        "sample_alpha_geodesic",
        "alpha_geodesic_coeff_path",
        "path_length",
        "shoot_alpha_geodesic",
        "ldg_residual",
    ],
    "metric": ["fisher_matrix", "path_speed", "christoffel", "christoffel_fd", "monte_carlo_fisher"],
    "figures": ["run_figure_case", "write_figure_csv"],
    "cli": ["main"],
}

# Spans that also record the peak of memory allocated during the call.
MEMORY_SPANS = {"metric.monte_carlo_fisher"}

# Root span around the CLI calls of one traced pass.
PASS_SPAN = "pass"

FIELDS = ("id", "name", "start", "end", "parent", "peak_mb")


class SpanRecorder:
    def __init__(self):
        # tuples in FIELDS order; peak_mb is None unless the span measures memory
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, memory: bool = False):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                peak_mb = None
                if memory:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, peak_mb))

        return spanned

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def spanned_names() -> list[str]:
    return [f"{module}.{attr}" for module, attrs in SPANNED.items() for attr in attrs]


class Instrumentation:
    """Every binding site of every spanned function, with its original and
    its spanned value, so that tracing can be switched on and off between
    passes."""

    def __init__(self, recorder: SpanRecorder):
        self._swaps: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in list(sys.modules.items()) if name == "fisherband" or name.startswith("fisherband.")]
        for module_name, attrs in SPANNED.items():
            home = sys.modules[f"fisherband.{module_name}"]
            for attr in attrs:
                target = getattr(home, attr)
                name = f"{module_name}.{attr}"
                if isinstance(target, type):
                    init = target.__init__
                    self._swaps.append((target, "__init__", init, recorder.wrap(name, init)))
                    continue
                spanned = recorder.wrap(name, target, memory=name in MEMORY_SPANS)
                for module in modules:
                    for binding, value in vars(module).items():
                        if value is target:
                            self._swaps.append((module, binding, target, spanned))
        self._criteria = sys.modules["fisherband.acceptance"].CRITERIA
        self._plain_criteria = list(self._criteria)
        self._spanned_criteria = [recorder.wrap(f"acceptance.{fn.__name__}", fn) for fn in self._criteria]

    def apply(self) -> None:
        for owner, attr, _, spanned in self._swaps:
            setattr(owner, attr, spanned)
        self._criteria[:] = self._spanned_criteria

    def revert(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)
        self._criteria[:] = self._plain_criteria
