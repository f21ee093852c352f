"""Spans around the package's public functions, recorded from outside it.

``Instrumentation`` replaces each function named in ``TRACED`` with a timing
wrapper in every ``diracmono`` module that holds it, so calls bound by name
at import time (``from .numerics import simpson_weights`` and the like) are
seen too, and puts the originals back on exit. A span is
``[name, start, end, parent, op, attrs]``: ``parent`` is the index of the
enclosing span (-1 at top level), ``op`` the operation id, and ``attrs`` the
counts taken at the same boundary from the call's arguments.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SCAN, COARSE, FINE = "scan", "coarse_refine", "fine"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Recorder:
    """In-memory spans of one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.coarse_tables = {}   # id -> table; keeps ids unique for the pass

    def table_stage(self, table):
        """coarse_refine on a table a spectrum scan used, fine on any other."""
        return COARSE if id(table) in self.coarse_tables else FINE

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)


def _attrs_propagate(rec, args, kwargs):
    i_from, i_to = _arg(args, kwargs, 4, "i_from"), _arg(args, kwargs, 5, "i_to")
    mode = ("record" if _arg(args, kwargs, 6, "record", False)
            else "phase" if _arg(args, kwargs, 7, "phase", False) else "plain")
    return {"steps": abs(i_to - i_from), "batch": int(np.size(_arg(args, kwargs, 2, "E"))),
            "mode": mode}


def _attrs_match_values(rec, args, kwargs):
    table = _arg(args, kwargs, 0, "table")
    if _arg(args, kwargs, 1, "fam_idx") is None:
        rec.coarse_tables[id(table)] = table
        stage = SCAN
    elif rec.inside("propagation.count_bisect"):
        stage = "bisect"
    else:
        stage = rec.table_stage(table)
    return {"stage": stage, "batch": int(np.size(_arg(args, kwargs, 2, "E")))}


def _attrs_count_bisect(rec, args, kwargs):
    table = _arg(args, kwargs, 0, "table")
    return {"stage": rec.table_stage(table),
            "batch": int(np.size(_arg(args, kwargs, 2, "lo")))}


def _attrs_build_step_table(rec, args, kwargs):
    return {"steps": int(np.size(_arg(args, kwargs, 4, "x_nodes"))) - 1}


def _attrs_expm(rec, args, kwargs):
    return {"elems": int(np.size(args[0]))}


def _attrs_evaluate(rec, args, kwargs):
    return {"points": int(np.size(_arg(args, kwargs, 1, "r")))}


# (span name, defining module, attribute, attrs from the call's arguments)
TRACED = (
    ("propagation.propagate", "propagation", "propagate", _attrs_propagate),
    ("propagation.match_values", "propagation", "match_values", _attrs_match_values),
    ("propagation.count_bisect", "propagation", "count_bisect", _attrs_count_bisect),
    ("propagation.assemble_two_sided", "propagation", "assemble_two_sided", None),
    ("propagation.build_step_table", "propagation", "build_step_table",
     _attrs_build_step_table),
    ("propagation.march_nodes", "propagation", "march_nodes", None),
    ("numerics.expm_traceless_2x2", "numerics", "expm_traceless_2x2", _attrs_expm),
    ("numerics.simpson_weights", "numerics", "simpson_weights", None),
    ("numerics.derivative_weights", "numerics", "derivative_weights", None),
    ("solver.solve_batch", "solver", "solve_batch", None),
    ("potentials.evaluate", "potentials", "PotentialFamily.evaluate", _attrs_evaluate),
    ("monotonicity.sweep", "monotonicity", "sweep", None),
    ("monotonicity.hf_derivative", "monotonicity", "hf_derivative", None),
    ("monotonicity.w_residual", "monotonicity", "w_residual", None),
    ("cli.main", "cli", "main", None),
)


def _wrap(rec: Recorder, name, fn, attrs_of):
    clock = time.perf_counter
    spans, stack = rec.spans, rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = attrs_of(rec, args, kwargs) if attrs_of else None
        idx = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.op, attrs]
        spans.append(span)
        stack.append(idx)
        span[1] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()

    return wrapper


class Instrumentation:
    """Context manager that installs the wrappers for one Recorder."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo = []

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "diracmono" or k.startswith("diracmono."))]
        for name, mod_name, attr, attrs_of in TRACED:
            owner = sys.modules[f"diracmono.{mod_name}"]
            if "." in attr:   # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, meth)
                self._set(cls, meth, _wrap(self.recorder, name, original, attrs_of))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(self.recorder, name, original, attrs_of)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper)
        return self.recorder

    def _set(self, obj, key, value):
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def __exit__(self, *exc):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics of one pass
# ---------------------------------------------------------------------------

# name -> (unit, better); also the order in which the metrics are printed
PER_LAYER = {
    "propagation.propagate.calls": ("count", "lower"),
    "propagation.propagate.s": ("s", "lower"),
    "propagation.propagate.step_elems": ("count", "lower"),
    "propagation.propagate.ns_per_step_elem": ("ns", "lower"),
    "propagation.propagate.phase.s": ("s", "lower"),
    "propagation.propagate.record.s": ("s", "lower"),
    "propagation.match_values.calls": ("count", "lower"),
    "propagation.count_bisect.calls": ("count", "lower"),
    "propagation.count_bisect.s": ("s", "lower"),
    "propagation.assemble_two_sided.s": ("s", "lower"),
    "propagation.build_step_table.s": ("s", "lower"),
    "propagation.march_nodes.s": ("s", "lower"),
    "propagation.table_steps": ("count", "lower"),
    "numerics.expm_traceless_2x2.s": ("s", "lower"),
    "numerics.expm_traceless_2x2.elems": ("count", "lower"),
    "numerics.simpson_weights.s": ("s", "lower"),
    "numerics.derivative_weights.s": ("s", "lower"),
    "solver.solve_batch.calls": ("count", "lower"),
    "solver.solve_batch.s": ("s", "lower"),
    "solver.solve_batch.self_s": ("s", "lower"),
    "solver.scan.s": ("s", "lower"),
    "solver.coarse_refine.s": ("s", "lower"),
    "solver.fine.s": ("s", "lower"),
    "solver.dense.s": ("s", "lower"),
    "solver.fine.evals_per_bisect": ("evals/bisect", "lower"),
    "solver.coarse.evals_per_bisect": ("evals/bisect", "lower"),
    "solver.fine.bracket_evals": ("count", "lower"),
    "solver.rounds_per_solve": ("scans/solve", "lower"),
    "potentials.evaluate.calls": ("count", "lower"),
    "potentials.evaluate.points": ("count", "lower"),
    "potentials.evaluate.s": ("s", "lower"),
    "monotonicity.sweep.s": ("s", "lower"),
    "monotonicity.sweep.self_s": ("s", "lower"),
    "monotonicity.hf_derivative.s": ("s", "lower"),
    "monotonicity.w_residual.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wrapper_us": ("us", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics (all but trace.overhead_s and trace.wrapper_us) from
    one pass's spans."""
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)     # time covered by each span's children
    evals = [0] * len(spans)         # match_values calls made directly inside it
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
            evals[s[3]] += s[0] == "propagation.match_values"

    calls, total, self_t = Counter(), defaultdict(float), defaultdict(float)
    acc = defaultdict(float)   # counts and stage times, keyed by what they sum
    for i, (name, _, _, _, _, attrs) in enumerate(spans):
        calls[name] += 1
        total[name] += dur[i]
        self_t[name] += dur[i] - covered[i]
        if name == "propagation.propagate":
            acc["step_elems"] += attrs["steps"] * attrs["batch"]
            acc[attrs["mode"] + ".s"] += dur[i]
        elif name in ("propagation.match_values", "propagation.count_bisect"):
            kind = "bisect" if name == "propagation.count_bisect" else "match"
            acc[f"{attrs['stage']}.{kind}"] += 1
            acc[f"{attrs['stage']}.{kind}.s"] += dur[i]
            acc[f"{attrs['stage']}.{kind}.evals"] += evals[i]
        elif name == "propagation.build_step_table":
            acc["table_steps"] += attrs["steps"]
        elif name == "numerics.expm_traceless_2x2":
            acc["expm_elems"] += attrs["elems"]
        elif name == "potentials.evaluate":
            acc["points"] += attrs["points"]

    prop_s = total["propagation.propagate"]
    dense_s = total["propagation.assemble_two_sided"] + total["numerics.simpson_weights"]
    return {
        "propagation.propagate.calls": calls["propagation.propagate"],
        "propagation.propagate.s": prop_s,
        "propagation.propagate.step_elems": acc["step_elems"],
        "propagation.propagate.ns_per_step_elem": _ratio(prop_s * 1e9, acc["step_elems"]),
        "propagation.propagate.phase.s": acc["phase.s"],
        "propagation.propagate.record.s": acc["record.s"],
        "propagation.match_values.calls": calls["propagation.match_values"],
        "propagation.count_bisect.calls": calls["propagation.count_bisect"],
        "propagation.count_bisect.s": total["propagation.count_bisect"],
        "propagation.assemble_two_sided.s": total["propagation.assemble_two_sided"],
        "propagation.build_step_table.s": total["propagation.build_step_table"],
        "propagation.march_nodes.s": total["propagation.march_nodes"],
        "propagation.table_steps": acc["table_steps"],
        "numerics.expm_traceless_2x2.s": total["numerics.expm_traceless_2x2"],
        "numerics.expm_traceless_2x2.elems": acc["expm_elems"],
        "numerics.simpson_weights.s": total["numerics.simpson_weights"],
        "numerics.derivative_weights.s": total["numerics.derivative_weights"],
        "solver.solve_batch.calls": calls["solver.solve_batch"],
        "solver.solve_batch.s": total["solver.solve_batch"],
        "solver.solve_batch.self_s": self_t["solver.solve_batch"],
        "solver.scan.s": acc[f"{SCAN}.match.s"],
        "solver.coarse_refine.s": acc[f"{COARSE}.bisect.s"],
        "solver.fine.s": acc[f"{FINE}.bisect.s"] + acc[f"{FINE}.match.s"],
        "solver.dense.s": dense_s,
        "solver.fine.evals_per_bisect": _ratio(acc[f"{FINE}.bisect.evals"],
                                               acc[f"{FINE}.bisect"]),
        "solver.coarse.evals_per_bisect": _ratio(acc[f"{COARSE}.bisect.evals"],
                                                 acc[f"{COARSE}.bisect"]),
        "solver.fine.bracket_evals": acc[f"{FINE}.match"],
        "solver.rounds_per_solve": _ratio(acc[f"{SCAN}.match"], calls["solver.solve_batch"]),
        "potentials.evaluate.calls": calls["potentials.evaluate"],
        "potentials.evaluate.points": acc["points"],
        "potentials.evaluate.s": total["potentials.evaluate"],
        "monotonicity.sweep.s": total["monotonicity.sweep"],
        "monotonicity.sweep.self_s": self_t["monotonicity.sweep"],
        "monotonicity.hf_derivative.s": total["monotonicity.hf_derivative"],
        "monotonicity.w_residual.s": total["monotonicity.w_residual"],
        "cli.main.self_s": self_t["cli.main"],
        "trace.spans": len(spans),
    }


def wrapper_cost_us(calls: int = 20000, repeats: int = 7) -> float:
    """Microseconds one timing wrapper adds to a call: a wrapped no-op against
    the bare no-op, median over `repeats` rounds of `calls` calls each."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = _wrap(Recorder(), "noop", noop, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls * 1e6)
    return statistics.median(costs)


def write_spans(path: str, passes) -> None:
    """One JSON line per span; ``passes`` is a list of span lists."""
    with open(path, "w") as fh:
        for p, spans in enumerate(passes):
            for i, (name, start, end, parent, op, attrs) in enumerate(spans):
                fh.write(json.dumps({"pass": p, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")
