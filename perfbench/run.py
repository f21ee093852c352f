"""diracmono benchmark: one workload, run in this process for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. The workload is repeated in whole passes (every pass makes
the same public calls, so the share of failed operations never depends on the
run length) until the next pass would end after S seconds; at least one pass
always runs. Every output is checked (see workloads.py).

--trace 0 prints the end-to-end metrics: wall_s and cpu_s, the medians over
passes of one pass's wall-clock and process CPU time; setup_s, the median of
SETUP_RUNS fresh interpreters that import the package and build the inputs
(after one unmeasured warm-up), started between operations at moments spread
evenly over the run; and peak_rss_mb, this process's peak resident memory.

--trace 1 runs pairs of one untraced and one traced pass, in alternating
order, and prints the per-layer metrics of the traced passes (medians over
them); trace.overhead_s, the median over pairs of the traced minus the
untraced pass time; trace.spans, the spans per traced pass; and
trace.wrapper_us, the cost of one timing wrapper measured in this process.
Its spans go to
perfbench/out/trace-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 12


def _load_package():
    """Import diracmono from this checkout's src, and nowhere else."""
    sys.path.insert(0, SRC)
    import diracmono

    where = os.path.dirname(os.path.abspath(diracmono.__file__))
    if where != os.path.join(SRC, "diracmono"):
        raise ImportError(f"diracmono was imported from {where}, not from {SRC}")


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Runs passes of one workload's operations and counts their outcomes."""

    def __init__(self, operations):
        self.operations = operations
        self.attempted = 0
        self.failed = 0

    def run_pass(self, recorder=None, between=None):
        """One pass: time each call, then check what it returned; `between`
        is called after each call, outside the timed spans.
        Returns (wall seconds, CPU seconds)."""
        outcomes = []
        wall = cpu = 0.0
        for op in self.operations:
            if recorder is not None:
                recorder.op = self.attempted + len(outcomes)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                outcomes.append((True, op.run()))
            except Exception as exc:  # an operation that raises counts as failed
                outcomes.append((False, exc))
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if between is not None:
                between()
        for op, (returned, value) in zip(self.operations, outcomes):
            self.attempted += 1
            problems = _check(op, value) if returned else [f"raised {value!r}"]
            if problems:
                self.failed += 1
                _log(f"FAILED {op.label}: " + "; ".join(map(str, problems[:5])))
        _log(f"pass: wall {wall:.4f} s, cpu {cpu:.4f} s"
             + (" (traced)" if recorder is not None else ""))
        return wall, cpu


def _check(op, value):
    """The check's problems; a check that raises on a malformed output is one."""
    try:
        return op.check(value)
    except Exception as exc:
        return [f"check raised {exc!r}"]


def _repeat(seconds, one_round):
    """Call one_round until the next call would end after `seconds`."""
    start = time.perf_counter()
    lengths = []
    while True:
        t = time.perf_counter()
        one_round()
        lengths.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return


class SetupProbes:
    """Set-up time in fresh interpreters, sampled at SETUP_RUNS moments spread
    evenly over `seconds`, so that one run's value does not rest on a single
    moment of a shared host. `due` takes the probes whose moment has come;
    `median` takes any left over and returns the median."""

    def __init__(self, workload, seed, seconds):
        self.cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                    "--workload", workload, "--seed", str(seed)]
        self.spacing = seconds / SETUP_RUNS
        self.times = []
        self._probe()   # warm-up: fills the file cache and writes bytecode
        self.times.clear()
        self.start = time.perf_counter()

    def _probe(self):
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def due(self):
        elapsed = time.perf_counter() - self.start
        while len(self.times) < SETUP_RUNS and elapsed >= len(self.times) * self.spacing:
            self._probe()

    def median(self):
        while len(self.times) < SETUP_RUNS:
            self._probe()
        return statistics.median(self.times)


def untraced_metrics(runner, workload, seed, seconds):
    probes = SetupProbes(workload, seed, seconds)
    walls, cpus = [], []

    def one():
        wall, cpu = runner.run_pass(between=probes.due)
        walls.append(wall)
        cpus.append(cpu)

    _repeat(seconds, one)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (probes.median(), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def traced_metrics(runner, workload, seed, seconds):
    from spans import (PER_LAYER, Instrumentation, Recorder, layer_metrics,
                       wrapper_cost_us, write_spans)

    overheads, per_pass, all_spans = [], [], []

    def traced_pass():
        rec = Recorder()
        with Instrumentation(rec):
            wall = runner.run_pass(rec)[0]
        per_pass.append(layer_metrics(rec.spans))
        all_spans.append(rec.spans)
        return wall

    def one():
        if len(overheads) % 2:
            wall = traced_pass()
            overheads.append(wall - runner.run_pass()[0])
        else:
            wall = runner.run_pass()[0]
            overheads.append(traced_pass() - wall)

    _repeat(seconds, one)
    write_spans(os.path.join(OUT, f"trace-{workload}-{seed}.jsonl"), all_spans)
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(overheads)
    values["trace.wrapper_us"] = wrapper_cost_us()
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        _load_package()
    except ImportError as exc:
        _log(f"error: cannot import diracmono from {SRC}: {exc}")
        return 2
    from workloads import WORKLOADS, build_operations

    if args.workload not in WORKLOADS:
        _log(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}")
        return 2
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(build_operations(args.workload, args.seed, OUT))
    measure = traced_metrics if args.trace else untraced_metrics
    metrics = measure(runner, args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
