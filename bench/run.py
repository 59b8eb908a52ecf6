"""Benchmark of the rbklab command line.

    python3 bench/run.py --workload grid-dense|blowup|longtime --seed N \
        --seconds S --trace 0|1

Run from a checkout of the repository: the program is imported from its
`src/` directory.  One client thread runs the workload's commands through
`rbklab.cli.main(argv)` in this already-initialised interpreter, one command
at a time (a closed loop), in whole passes over the command list until
`--seconds` have elapsed.  Every execution's outputs are checked.  Interpreter
start and import are measured apart, as `setup_s`, from fresh interpreters.

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: with `--trace 0` the end-to-end metrics,
with `--trace 1` the per-layer metrics of a run whose passes alternate
between untraced and traced.  Outputs, generated configs, spans and the
result go to `.bench_out/<workload>/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 8


def _cpu_s() -> float:
    """CPU time of this process, all threads, plus that of waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def time_setup() -> float:
    """Wall time of one fresh interpreter from process start to `rbklab.cli`
    imported (the child exits at once, skipping finalisation)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import os, rbklab.cli; os._exit(0)"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def invoke(main, argv) -> tuple[int, str]:
    """Run one command in-process; return its exit code and captured output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            print(f"uncaught {type(exc).__name__}: {exc}")
            code = -1
    return code, buf.getvalue()


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    import rbklab.cli  # noqa: F401  (compiles the bytecode the setup starts reuse)

    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    with open(SRC / "rbklab" / "data" / "fixtures.json", encoding="utf-8") as fh:
        fixtures = json.load(fh)["fixtures"]
    commands = workloads.build(args.workload, args.seed, out, fixtures)

    # per command: wall and CPU times of untraced executions, wall times of
    # traced ones, and the output fingerprint of the first execution
    wall = {c.name: [] for c in commands}
    cpu = {c.name: [] for c in commands}
    wall_traced = {c.name: [] for c in commands}
    first_digest = {}
    setup_times = []
    attempted = failed = wrong = 0
    tracer = spans.Tracer() if args.trace else None
    layer_passes, kept_spans = [], None
    min_passes = 4 if args.trace else 2

    deadline = time.perf_counter() + args.seconds
    n_pass = 0
    while n_pass < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and n_pass % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            for cmd in commands:
                gc.collect()
                t0, c0 = time.perf_counter(), _cpu_s()
                code, text = invoke(rbklab.cli.main, cmd.argv)
                t1, c1 = time.perf_counter(), _cpu_s()
                attempted += 1
                if code != 0:
                    failed += 1
                    print(f"{cmd.name}: exit {code}: {text.strip()[-300:]}", file=sys.stderr)
                    continue
                files = workloads.read_outputs(cmd.outputs)
                problems = cmd.check(text, files)
                fingerprint = workloads.digest(text, files)
                if first_digest.setdefault(cmd.name, fingerprint) != fingerprint:
                    problems.append("outputs differ from the first pass")
                if problems:
                    failed += 1
                    wrong += 1
                    print(f"{cmd.name}: " + "; ".join(problems), file=sys.stderr)
                    continue
                if traced:
                    wall_traced[cmd.name].append(t1 - t0)
                else:
                    wall[cmd.name].append(t1 - t0)
                    cpu[cmd.name].append(c1 - c0)
        if traced:
            pass_spans = tracer.take()
            layer_passes.append(spans.layer_totals(pass_spans))
            kept_spans = kept_spans or pass_spans
        n_pass += 1
        # one fresh start after each pass spreads the set-up samples over
        # the run, so a slow spell of the host does not take all of them
        setup_times.append(time_setup())
    while len(setup_times) < SETUP_STARTS:
        setup_times.append(time_setup())

    def best_sum(times):
        # fastest execution of each command, summed: one undisturbed pass
        return sum(min(v) for v in times.values() if v)

    if args.trace:
        layers, problems = spans.combine(layer_passes)
        for problem in problems:
            print(problem, file=sys.stderr)
        wrong += bool(problems)
        spans.write_spans(kept_spans, out / "spans.csv")
        metrics = {k: metric(v, spans.UNITS[k]) for k, v in layers.items()}
        metrics["trace.overhead_s"] = metric(best_sum(wall_traced) - best_sum(wall), "s")
    else:
        metrics = {
            "cmd_best_s": metric(best_sum(wall), "s"),
            "cpu_s": metric(best_sum(cpu), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(min(setup_times), "s"),
        }
    print(f"{args.workload}: {n_pass} passes of {len(commands)} commands", file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "rbklab" / "cli.py").is_file():
        print(f"error: no rbklab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
