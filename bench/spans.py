"""Span recording for the traced run.

The tracer wraps the public functions through which each layer of rbklab is
reached, by replacing the module attribute the caller looks up, and records
one span per call: id, name, start, end, parent span, thread, whether it
raised, and a per-call size (accepted steps, rows, bytes).  Spans stay in
memory; the benchmark aggregates them per pass and writes one pass out.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict


def _accepted_steps(args, result):
    return result.n_samples - 1, 0


def _csv_size(args, result):
    return args[0].n_samples, os.path.getsize(args[1])


def _json_size(args, result):
    return 0, os.path.getsize(args[1])


# (module, attribute, layer, size of a call's work).  rbk_field is looked up
# in integrate's namespace by the t-chart drivers; integrate_phi_to_blowup
# imports phi_field from core at call time; the CLI reaches the chart drivers
# and the writers through its own namespace and the diagnostics through the
# asymptotics and harness modules.
TARGETS = (
    ("rbklab.integrate", "rbk_field", "core", None),
    ("rbklab.core", "phi_field", "core", None),
    ("rbklab.integrate", "integrate_adaptive", "integrate", _accepted_steps),
    ("rbklab.cli", "integrate_rbk", "integrate", None),
    ("rbklab.cli", "integrate_logtime", "integrate", None),
    ("rbklab.cli", "integrate_phi_to_blowup", "integrate", None),
    ("rbklab.asymptotics", "blowup_diagnostic", "asymptotics", None),
    ("rbklab.asymptotics", "psi_diagnostic", "asymptotics", None),
    ("rbklab.asymptotics", "ratio_divergence", "asymptotics", None),
    ("rbklab.asymptotics", "longtime_diagnostic", "asymptotics", None),
    ("rbklab.harness", "identity_suite", "harness", None),
    ("rbklab.harness", "load_fixtures", "harness", None),
    ("rbklab.cli", "write_trajectory_csv", "cli", _csv_size),
    ("rbklab.cli", "write_json", "cli", _json_size),
    ("rbklab.cli", "main", "cli", None),
)


class Tracer:
    """Installs span-recording wrappers around TARGETS while active."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, size_of):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result, raised = None, True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                size = size_of(args, result) if size_of and not raised else (0, 0)
                spans.append((sid, name, t0, t1, parent, threading.get_ident(), raised, *size))

        return traced

    def __enter__(self):
        for module_name, attr, layer, size_of in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{layer}.{attr}", size_of))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a new list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def layer_totals(spans) -> dict[str, float]:
    """Per-layer counts and self times of one pass.

    A span's self time is its duration minus its children's.  Parents are
    taken from a per-thread stack, so children always share their parent's
    thread: the sweep's worker threads never subtract from, or add to, the
    main thread's spans, and each thread's busy time is counted once.
    """
    child_time = defaultdict(float)
    for sid, name, t0, t1, parent, *_ in spans:
        child_time[parent] += t1 - t0
    calls = defaultdict(int)
    self_s = defaultdict(float)
    raised_n = 0
    accepted = rows = nbytes = 0
    for sid, name, t0, t1, parent, thread, raised, n, size in spans:
        calls[name] += 1
        self_s[name] += (t1 - t0) - child_time[sid]
        raised_n += raised and name.startswith("core.")
        if name == "integrate.integrate_adaptive":
            accepted += n
        elif name.startswith("cli.write"):
            rows += n
            nbytes += size

    def layer(prefix, metric):
        return sum(v for k, v in metric.items() if k.startswith(prefix))

    field_calls = layer("core.", calls)
    field_s = layer("core.", self_s)
    integrate_s = layer("integrate.", self_s)
    return {
        "core.field_calls": field_calls,
        "core.field_s": field_s,
        "core.field_us_per_call": 1e6 * field_s / max(field_calls, 1),
        "core.field_raised": raised_n,
        "integrate.accepted_steps": accepted,
        "integrate.evals_per_step": field_calls / max(accepted, 1),
        "integrate.self_s": integrate_s,
        "integrate.us_per_step": 1e6 * integrate_s / max(accepted, 1),
        "asymptotics.calls": layer("asymptotics.", calls),
        "asymptotics.self_s": layer("asymptotics.", self_s),
        "harness.calls": layer("harness.", calls),
        "harness.self_s": layer("harness.", self_s),
        "cli.self_s": self_s["cli.main"],
        "cli.write_s": layer("cli.write", self_s),
        "cli.rows_written": rows,
        "cli.bytes_written": nbytes,
    }


UNITS = {
    "core.field_calls": "count", "core.field_s": "s", "core.field_us_per_call": "us",
    "core.field_raised": "count", "integrate.accepted_steps": "count",
    "integrate.evals_per_step": "evals/step", "integrate.self_s": "s",
    "integrate.us_per_step": "us", "asymptotics.calls": "count", "asymptotics.self_s": "s",
    "harness.calls": "count", "harness.self_s": "s", "cli.self_s": "s", "cli.write_s": "s",
    "cli.rows_written": "count", "cli.bytes_written": "bytes",
}
# metrics derived from counts alone; they must repeat exactly
COUNTS = {k for k, unit in UNITS.items() if unit in ("count", "bytes")} | {
    "integrate.evals_per_step"}


def combine(passes: list[dict]) -> tuple[dict, list[str]]:
    """One value per metric over the traced passes: counts must repeat
    exactly from pass to pass (returned as problems when they do not);
    times are the median over the passes."""
    out, problems = {}, []
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in COUNTS:
            if len(set(values)) != 1:
                problems.append(f"{key} differs between traced passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out, problems


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,thread,raised,n,bytes\n")
        for sid, name, t0, t1, parent, thread, raised, n, size in spans:
            fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{thread},{int(raised)},{n},{size}\n")
