"""Workload inputs, the public calls that run them, and their output checks.

Every workload is a list of operations. An operation is one public call of
the package: one ``solve_batch`` or one in-process ``diracmono verify``. It
fails when it raises, returns a non-zero exit code, or fails a check.

The checks use no stored copy of the program's output. The Coulomb energies
come from the Dirac-Coulomb closed form, written out here again rather than
imported from ``diracmono.coulomb``; everything else is a property the method
must have (the paper's monotonicity theorem, the Hellmann-Feynman identity,
node counts, ordering in n_r).

Seed 0 gives the acceptance configurations; any other seed moves the
couplings by at most 1 % (0.5 % of the spacing for wide_spectrum), which keeps
every state in place and the work per pass nearly the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import diracmono as dm
import diracmono.cli  # noqa: F401  (set-up imports the CLI as users do)

WORKLOADS = ("coulomb_levels", "verify_sweep", "wide_spectrum")

E_TOL = 1e-6          # acceptance criterion 1: |E_solver - E_closed_form|
HF_REL, HF_FLOOR = 1e-5, 1e-7   # acceptance criterion 2: HF residual rule


@dataclass
class Operation:
    """One public call, timed, and the check of what it returned."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]   # problems found; empty means correct


def dirac_coulomb_energy(alpha: float, j: float, n_r: int, m: float = 1.0) -> float:
    """Closed-form Dirac-Coulomb level for V = -alpha/r, n_r nodes, tau = -1."""
    kappa = j + 0.5
    gamma = math.sqrt(kappa * kappa - alpha * alpha)
    return m / math.sqrt(1.0 + (alpha / (n_r + gamma)) ** 2)


def _jitter(rng: random.Random, seed: int, scale: float) -> float:
    return 0.0 if seed == 0 else rng.uniform(-scale, scale)


# ---------------------------------------------------------------------------
# solve_batch workloads
# ---------------------------------------------------------------------------

@dataclass
class BatchInput:
    channel: object
    alphas: list
    n_r: list
    dense: bool

    def families(self):
        return [dm.pure_coulomb(al) for al in self.alphas]


def check_batch(inp: BatchInput, result) -> list:
    """Closed form to E_TOL, E nonincreasing in alpha (dV/dalpha = -1/r <= 0),
    E increasing in n_r, and nodes == n_r for every dense state."""
    problems = []
    j = inp.channel.j
    if len(result) != len(inp.alphas):
        return [f"{len(result)} result entries for {len(inp.alphas)} couplings"]
    energies = np.empty((len(inp.alphas), len(inp.n_r)))
    for f, (alpha, per_fam) in enumerate(zip(inp.alphas, result)):
        if sorted(per_fam) != sorted(inp.n_r):
            problems.append(f"alpha={alpha}: levels {sorted(per_fam)} returned")
            continue
        for i, n_r in enumerate(inp.n_r):
            st = per_fam[n_r]
            energies[f, i] = st.E
            err = abs(st.E - dirac_coulomb_energy(alpha, j, n_r))
            if not err <= E_TOL:
                problems.append(f"alpha={alpha} j={j} n_r={n_r}: |dE| = {err:.3e}")
            if inp.dense and getattr(st, "psi1", None) is None:
                problems.append(f"alpha={alpha} n_r={n_r}: no wavefunction")
            elif inp.dense and st.nodes != n_r:
                problems.append(f"alpha={alpha} n_r={n_r}: {st.nodes} nodes")
    if problems:
        return problems
    by_alpha = energies[np.argsort(inp.alphas)]
    if np.any(np.diff(by_alpha, axis=0) > 0):
        problems.append("E increases with alpha at fixed n_r")
    if np.any(np.diff(energies, axis=1) <= 0):
        problems.append("E does not increase with n_r")
    return problems


def _batch_op(label: str, inp: BatchInput) -> Operation:
    families = inp.families()
    flags = [inp.dense] * len(families)

    def run():
        return dm.solve_batch(inp.channel, families, inp.n_r, dense_flags=flags)

    return Operation(label, run, lambda res: check_batch(inp, res))


def coulomb_levels_inputs(seed: int, small: bool = False) -> list:
    """Acceptance criterion 1: per channel j in {1/2, 3/2}, three pure-Coulomb
    couplings x n_r 0..2, all dense (18 states)."""
    rng = random.Random(seed)
    base = (0.2, 0.5) if small else (0.2, 0.5, 0.9)
    alphas = [al * (1.0 + _jitter(rng, seed, 0.01)) for al in base]
    n_r = [0, 1] if small else [0, 1, 2]
    js = (0.5,) if small else (0.5, 1.5)
    return [BatchInput(dm.ChannelSpec(d=3, tau=-1, j=j), alphas, n_r, True)
            for j in js]


def wide_spectrum_inputs(seed: int, small: bool = False) -> list:
    """One eigenvalues-only batch: 16 couplings in [0.3, 0.9], j = 1/2, n_r 0..3."""
    rng = random.Random(seed)
    n_fam = 4 if small else 16
    grid = np.linspace(0.3, 0.9, n_fam)
    step = grid[1] - grid[0]
    alphas = [float(al) + _jitter(rng, seed, 0.005 * step) for al in grid]
    n_r = [0, 1] if small else [0, 1, 2, 3]
    return [BatchInput(dm.ChannelSpec(d=3, tau=-1, j=0.5), alphas, n_r, False)]


# ---------------------------------------------------------------------------
# verify workload
# ---------------------------------------------------------------------------

@dataclass
class VerifyInput:
    alpha: float
    channel_args: list
    a_from: float
    a_to: float
    steps: int
    n_r: list

    def argv(self, output: str) -> list:
        return ["verify", "--family", "cutoff-coulomb", "--alpha", repr(self.alpha),
                "--a", "1", "--active", "a", *self.channel_args,
                "--from", repr(self.a_from), "--to", repr(self.a_to),
                "--steps", str(self.steps),
                "--nr", ",".join(str(n) for n in self.n_r),
                "--format", "json", "--output", output]


def check_verify(inp: VerifyInput, outcome) -> list:
    """Exit code 0; the HF rule at every record; E(a) nondecreasing in a
    (dV/da = alpha/(r+a)^2 >= 0), read from the E column; E(n_r=1) > E(n_r=0)."""
    code, path = outcome
    if code != 0:
        return [f"exit code {code}"]
    try:
        with open(path) as fh:
            doc = json.load(fh)
        verdicts = {v["n_r"]: v["records"] for v in doc["verdicts"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output {path}: {exc}"]
    if sorted(verdicts) != sorted(inp.n_r):
        return [f"levels {sorted(verdicts)} written, {inp.n_r} requested"]
    problems = []
    a_grid = np.linspace(inp.a_from, inp.a_to, inp.steps)
    energies = {}
    for n_r, recs in verdicts.items():
        a = np.array([r["a"] for r in recs])
        if a.shape != a_grid.shape or not np.allclose(a, a_grid, rtol=0, atol=1e-12):
            problems.append(f"n_r={n_r}: a grid {a.tolist()}")
            continue
        for r in recs:
            bound = max(HF_REL * abs(r["dE_da_hf"]), HF_FLOOR)
            if not abs(r["dE_da_fd"] - r["dE_da_hf"]) <= bound:
                problems.append(f"n_r={n_r} a={r['a']:.6g}: HF residual above bound")
        e = np.array([r["E"] for r in recs])
        if np.any(np.diff(e) < 0):
            problems.append(f"n_r={n_r}: E(a) decreases")
        energies[n_r] = e
    if not problems and 0 in energies and 1 in energies:
        if np.any(energies[1] <= energies[0]):
            problems.append("E(n_r=1) <= E(n_r=0)")
    return problems


def _verify_op(label: str, inp: VerifyInput, output: str) -> Operation:
    argv = inp.argv(output)

    def run():
        with contextlib.suppress(FileNotFoundError):
            os.remove(output)   # a failed run must not leave an older pass's file
        with contextlib.redirect_stdout(io.StringIO()):
            code = dm.cli.main(argv)
        return code, output

    return Operation(label, run, lambda out: check_verify(inp, out))


def verify_sweep_inputs(seed: int, small: bool = False) -> list:
    """Three verify runs on cutoff-Coulomb, active a: the criterion 2 sweep
    (d = 3, tau = -1, j = 1/2, a in [0.1, 2] x 20, n_r 0,1), then d = 1 with
    a in [0.6, 1.4] x 5, even parity n_r 0,1 and odd parity n_r 0."""
    rng = random.Random(seed)
    alpha = 1.0 + _jitter(rng, seed, 0.01)
    d3 = ["--d", "3", "--tau", "-1", "--j", "0.5"]
    if small:
        return [VerifyInput(alpha, d3, 0.6, 1.4, 3, [0, 1]),
                VerifyInput(alpha, ["--d", "1", "--parity", "odd"], 0.6, 1.4, 2, [0])]
    return [VerifyInput(alpha, d3, 0.1, 2.0, 20, [0, 1]),
            VerifyInput(alpha, ["--d", "1", "--parity", "even"], 0.6, 1.4, 5, [0, 1]),
            VerifyInput(alpha, ["--d", "1", "--parity", "odd"], 0.6, 1.4, 5, [0])]


# ---------------------------------------------------------------------------

def build_operations(name: str, seed: int, out_dir: str, small: bool = False) -> list:
    """The operations of one pass of workload `name`, in order; `small` gives
    the reduced size the self-test runs."""
    if name == "coulomb_levels":
        return [_batch_op(f"solve_batch[{i}]", inp)
                for i, inp in enumerate(coulomb_levels_inputs(seed, small))]
    if name == "wide_spectrum":
        return [_batch_op("solve_batch[0]", inp) for inp in wide_spectrum_inputs(seed, small)]
    if name == "verify_sweep":
        return [_verify_op(f"verify[{i}]", inp, os.path.join(out_dir, f"verify-{i}.json"))
                for i, inp in enumerate(verify_sweep_inputs(seed, small))]
    raise ValueError(f"unknown workload {name!r}")
