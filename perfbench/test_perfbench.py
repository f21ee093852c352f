"""Self-test of the benchmark: every workload at a reduced size, checks that
reject wrong answers, the traced layer split, and the refusal to run without
the package.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import diracmono  # noqa: E402
from run import Runner  # noqa: E402
from spans import PER_LAYER, Instrumentation, Recorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS, build_operations  # noqa: E402


def _operations(name, tmp_path, seed=1):
    return build_operations(name, seed, str(tmp_path), small=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_passes_its_checks_at_reduced_size(name, tmp_path):
    runner = Runner(_operations(name, tmp_path))
    runner.run_pass()
    assert runner.attempted == len(runner.operations) > 0
    assert runner.failed == 0


def _corrupt_first(runner, corrupt):
    op = runner.operations[0]
    run = op.run
    runner.operations[0] = dataclasses.replace(op, run=lambda: corrupt(run()))


def _shift_energy(result, delta=1e-5):
    out = [dict(per_fam) for per_fam in result]
    n_r = min(out[0])
    out[0][n_r] = dataclasses.replace(out[0][n_r], E=out[0][n_r].E + delta)
    return out


def _break_monotonicity(outcome):
    code, path = outcome
    with open(path) as fh:
        doc = json.load(fh)
    recs = doc["verdicts"][0]["records"]
    recs[1]["E"] = recs[0]["E"] - 1e-3
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return code, path


@pytest.mark.parametrize("name", ["coulomb_levels", "wide_spectrum"])
def test_energy_shifted_by_1e5_is_a_failed_operation(name, tmp_path):
    runner = Runner(_operations(name, tmp_path))
    _corrupt_first(runner, _shift_energy)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (len(runner.operations), 1)


def test_non_monotone_sweep_is_a_failed_operation(tmp_path):
    runner = Runner(_operations("verify_sweep", tmp_path))
    _corrupt_first(runner, _break_monotonicity)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (len(runner.operations), 1)


def test_check_that_raises_is_a_failed_operation(tmp_path):
    runner = Runner(_operations("verify_sweep", tmp_path))
    _corrupt_first(runner, lambda outcome: (0, str(tmp_path / "missing.json")))
    op = runner.operations[0]
    runner.operations[0] = dataclasses.replace(op, check=lambda out: out[2])
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (len(runner.operations), 1)


def test_traced_pass_sees_every_layer_and_restores_the_package(tmp_path):
    originals = (diracmono.solver.solve_batch, diracmono.numerics.simpson_weights,
                 diracmono.PotentialFamily.evaluate)
    runner = Runner(_operations("verify_sweep", tmp_path))
    rec = Recorder()
    with Instrumentation(rec):
        # names bound at import time are patched where they are used
        assert diracmono.monotonicity.solve_batch is diracmono.solver.solve_batch
        assert diracmono.solver.simpson_weights is not originals[1]
        assert diracmono.propagation.expm_traceless_2x2 is diracmono.numerics.expm_traceless_2x2
        assert diracmono.cli.sweep is diracmono.monotonicity.sweep
        runner.run_pass(rec)
    assert (diracmono.solver.solve_batch, diracmono.numerics.simpson_weights,
            diracmono.PotentialFamily.evaluate) == originals
    assert runner.failed == 0

    m = layer_metrics(rec.spans)
    assert set(m) == set(PER_LAYER) - {"trace.overhead_s", "trace.wrapper_us"}
    assert m["trace.spans"] == len(rec.spans)
    for name in ("propagation.propagate.s", "numerics.expm_traceless_2x2.s",
                 "numerics.simpson_weights.s", "numerics.derivative_weights.s",
                 "solver.scan.s", "solver.coarse_refine.s", "solver.fine.s",
                 "solver.dense.s", "potentials.evaluate.s", "monotonicity.sweep.self_s",
                 "monotonicity.w_residual.s", "cli.main.self_s"):
        assert m[name] > 0, name
    assert m["propagation.propagate.step_elems"] == m["numerics.expm_traceless_2x2.elems"]
    assert m["solver.rounds_per_solve"] >= 1.0
    # every span closes inside its parent, and ops are numbered per call
    spans = rec.spans
    assert all(s[1] <= s[2] for s in spans)
    assert all(spans[s[3]][1] <= s[1] and s[2] <= spans[s[3]][2] for s in spans if s[3] >= 0)
    assert {s[4] for s in spans} == set(range(len(runner.operations)))


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coulomb_levels",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
