"""Command-line front end.

Subcommands: solve, sweep, verify, compare, oracle. Everything is
deterministic (no randomness, no timestamps), numeric output uses 17
significant digits so doubles round-trip exactly, and the exit-code contract
is:

    0 success (including a not-applicable verify)
    2 configuration error (bad flags, invalid family/channel, bad level)
    3 no bound state with the requested node count
    4 numerical failure
    5 sweep aborted part-way (partial file retained, '# ABORTED' trailer)
    6 a selected verification check failed
    7 comparison precondition failed (potentials not pointwise ordered)

A flat key=value config file can be passed with --config; explicit flags
override file values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .coulomb import CoulombLevel, coulomb_energy, coulomb_energy_derivative
from .errors import (
    ConfigurationError,
    DiracmonoError,
    DomainError,
    NoSuchStateError,
    PointwiseOrderError,
    SweepAbortedError,
    UnsupportedRegimeError,
)
from .monotonicity import compare_potentials, sweep, verdict
from .potentials import SignClass, classify_sign, make_family
from .solver import ChannelSpec, SolveConfig, solve

CSV_HEADER = "a,E,dE_da_fd,dE_da_hf,hf_residual,orth_residual,w_residual,nodes"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_STATE = 3
EXIT_NUMERICAL = 4
EXIT_ABORTED = 5
EXIT_CHECK_FAILED = 6
EXIT_NOT_ORDERED = 7


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value file; flags override it")
    fam = p.add_argument_group("potential family")
    fam.add_argument("--family", help="pure-coulomb | cutoff-coulomb | coupling | indefinite-demo")
    fam.add_argument("--alpha", type=float)
    fam.add_argument("--a", type=float)
    fam.add_argument("--b", type=float)
    fam.add_argument("--shape", help="coupling shape: exp | cutoff | yukawa")
    fam.add_argument("--active", help="parameter playing the sweep role")
    chan = p.add_argument_group("channel")
    chan.add_argument("--d", type=int)
    chan.add_argument("--tau", type=int)
    chan.add_argument("--j", type=float)
    chan.add_argument("--parity", choices=("even", "odd"))
    chan.add_argument("--mass", type=float)
    num = p.add_argument_group("numerics")
    num.add_argument("--r-max", type=float, dest="r_max")
    num.add_argument("--n-grid", type=int, dest="n_grid")
    num.add_argument("--r0", type=float)
    num.add_argument("--e-tol", type=float, dest="e_tol")
    num.add_argument("--step-density", type=float, dest="step_density",
                     help="multiplier on the number of radial steps, in [0.4, 8]")
    num.add_argument("--scan-points", type=int, dest="scan_points")
    num.add_argument("--r-match", type=float, dest="r_match")
    out = p.add_argument_group("output")
    out.add_argument("--output", help="write results to this path")
    out.add_argument("--format", choices=("csv", "json"))


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    ap = argparse.ArgumentParser(
        prog="diracmono",
        description="Radial Dirac bound states and spectral monotonicity checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one bound state")
    _add_common(p)
    p.add_argument("--nr", help="node count of the upper component")
    p.add_argument("--dump-psi", dest="dump_psi", help="write r psi1 psi2 columns")

    p = sub.add_parser("sweep", help="E(a) sweep with derivative identities")
    _add_common(p)
    p.add_argument("--nr")
    p.add_argument("--from", dest="from_", type=float)
    p.add_argument("--to", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--scale", choices=("linear", "log"))
    p.add_argument("--h-step", dest="h_step", type=float)

    p = sub.add_parser("verify", help="monotonicity and identity verdicts")
    _add_common(p)
    p.add_argument("--nr", help="node count(s), comma separated")
    p.add_argument("--from", dest="from_", type=float)
    p.add_argument("--to", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--scale", choices=("linear", "log"))
    p.add_argument("--h-step", dest="h_step", type=float)
    p.add_argument("--checks", help="subset of hf,orth,w,monotone")
    p.add_argument("--tol-hf", dest="tol_hf", type=float,
                   help="absolute bound on |dE_fd - dE_hf| (default: spec rule)")
    p.add_argument("--tol-orth", dest="tol_orth", type=float)
    p.add_argument("--tol-w", dest="tol_w", type=float)
    p.add_argument("--tol-sign", dest="tol_sign", type=float)

    p = sub.add_parser("compare", help="eigenvalue order for V1 <= V2")
    _add_common(p)
    p.add_argument("--nr")
    p.add_argument("--family2")
    p.add_argument("--alpha2", type=float)
    p.add_argument("--a2", type=float)
    p.add_argument("--b2", type=float)
    p.add_argument("--shape2")

    p = sub.add_parser("oracle", help="exact Coulomb levels and dE/dalpha")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--alpha-list", dest="alpha_list",
                   help="comma-separated alpha values (overrides --alpha)")
    return ap, sub.choices


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key == "from":
                    key = "from_"
                values[key] = val
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv twice when --config is given: its values become string
    defaults of the subcommand's options, which argparse types like flags,
    and explicit flags override them. Keys naming no option are ignored."""
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        options = vars(args).keys() - {"command", "config"}
        values = _load_config_file(args.config)
        subparsers[args.command].set_defaults(
            **{k: v for k, v in values.items() if k in options})
        args = parser.parse_args(argv)
    return args


def _family_from(args, suffix: str = ""):
    name = getattr(args, "family" + suffix, None)
    if not name:
        raise ConfigurationError("a potential family is required (--family)")
    params = {}
    for key in ("alpha", "a", "b"):
        val = getattr(args, key + suffix, None)
        if val is not None:
            params[key] = val
    shape = getattr(args, "shape" + suffix, None)
    active = getattr(args, "active", None) if not suffix else None
    return make_family(name, params, active=active, shape=shape)


def _channel_from(args) -> ChannelSpec:
    if args.d is None:
        raise ConfigurationError("the spatial dimension is required (--d)")
    kw = dict(d=args.d)
    if args.tau is not None:
        kw["tau"] = args.tau
    if args.j is not None:
        kw["j"] = args.j
    if args.parity is not None:
        kw["parity"] = args.parity
    if args.mass is not None:
        kw["m"] = args.mass
    return ChannelSpec(**kw)


def _solve_config_from(args) -> SolveConfig:
    kw = {}
    for key in ("r_max", "n_grid", "r0", "e_tol", "step_density",
                "scan_points", "r_match"):
        val = getattr(args, key, None)
        if val is not None:
            kw[key] = val
    return SolveConfig(**kw)


def _nr_single(args) -> int:
    if args.nr is None:
        raise ConfigurationError("a node count is required (--nr)")
    try:
        return int(args.nr)
    except ValueError:
        raise ConfigurationError(f"--nr must be an integer, got {args.nr!r}") from None


def _nr_list(args) -> list[int]:
    if args.nr is None:
        return [0]
    try:
        return [int(s) for s in str(args.nr).split(",") if s != ""]
    except ValueError:
        raise ConfigurationError(f"--nr must be integers, got {args.nr!r}") from None


def _a_grid(args, family):
    p = family.active_param
    a0 = family.params[p]
    lo = args.from_ if args.from_ is not None else 0.5 * a0
    hi = args.to if args.to is not None else 2.0 * a0
    steps = args.steps if args.steps is not None else 8
    if steps < 2:
        raise ConfigurationError("a sweep needs at least 2 points (--steps >= 2)")
    if not hi > lo:
        raise ConfigurationError("sweep needs --to > --from")
    if (args.scale or "linear") == "log":
        if lo <= 0:
            raise ConfigurationError("log scale needs positive --from")
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


def _write_text(path: str | None, text: str):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def records_csv(records) -> str:
    """Sweep records as the CSV written by `diracmono sweep`."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            _fmt(r.a), _fmt(r.E), _fmt(r.dE_fd), _fmt(r.dE_hf),
            _fmt(r.hf_residual), _fmt(r.orth_residual), _fmt(r.w_residual),
            str(r.nodes),
        ]))
    return "\n".join(lines) + "\n"


def _records_json(records, family, channel, n_r) -> str:
    doc = {
        "family": {"name": family.name, "params": dict(family.params),
                   "active": family.active_param},
        "channel": {"d": channel.d, "tau": channel.tau, "j": channel.j,
                    "parity": channel.parity, "m": channel.m},
        "n_r": n_r,
        "records": [{
            "a": r.a, "E": r.E, "dE_da_fd": r.dE_fd, "dE_da_hf": r.dE_hf,
            "hf_residual": r.hf_residual, "orth_residual": r.orth_residual,
            "w_residual": r.w_residual, "nodes": r.nodes,
        } for r in records],
    }
    return json.dumps(doc, indent=1) + "\n"


def cmd_solve(args) -> int:
    family = _family_from(args)
    channel = _channel_from(args)
    config = _solve_config_from(args)
    state = solve(channel, family, _nr_single(args), config)
    lines = [
        f"E = {_fmt(state.E)}",
        f"nodes = {state.nodes}",
        f"norm_residual = {_fmt(state.norm_residual)}",
        f"match_residual = {_fmt(state.match_residual)}",
    ]
    print("\n".join(lines))
    if args.output:
        doc = {
            "E": state.E, "nodes": state.nodes,
            "norm_residual": state.norm_residual,
            "match_residual": state.match_residual,
            "family": {"name": family.name, "params": dict(family.params)},
            "channel": {"d": channel.d, "tau": channel.tau, "j": channel.j,
                        "parity": channel.parity, "m": channel.m},
        }
        if (args.format or "json") == "json":
            _write_text(args.output, json.dumps(doc, indent=1) + "\n")
        else:
            head = "E,nodes,norm_residual,match_residual"
            row = ",".join([_fmt(state.E), str(state.nodes),
                            _fmt(state.norm_residual), _fmt(state.match_residual)])
            _write_text(args.output, f"{head}\n{row}\n")
    if args.dump_psi:
        rows = [f"{_fmt(r)} {_fmt(p1)} {_fmt(p2)}"
                for r, p1, p2 in zip(state.grid, state.psi1, state.psi2)]
        _write_text(args.dump_psi, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    family = _family_from(args)
    channel = _channel_from(args)
    config = _solve_config_from(args)
    n_r = _nr_single(args)
    grid = _a_grid(args, family)
    fmt = args.format or "csv"
    try:
        records = sweep(family, channel, n_r, grid, config, h=args.h_step)
    except SweepAbortedError as exc:
        if fmt == "csv":
            text = records_csv(exc.records) + "# ABORTED\n"
        else:
            doc = json.loads(_records_json(exc.records, family, channel, n_r))
            doc["aborted"] = True
            doc["abort_reason"] = str(exc.cause)
            text = json.dumps(doc, indent=1) + "\n"
        _write_text(args.output, text)
        print(f"sweep aborted: {exc.cause}", file=sys.stderr)
        return EXIT_ABORTED
    if fmt == "csv":
        _write_text(args.output, records_csv(records))
    else:
        _write_text(args.output, _records_json(records, family, channel, n_r))
    return EXIT_OK


_HF_REL = 1e-5
_HF_FLOOR = 1e-7
_DEFAULT_TOLS = {"orth": 1e-5, "w": 1e-4, "sign": 1e-8}


def cmd_verify(args) -> int:
    family = _family_from(args)
    channel = _channel_from(args)
    config = _solve_config_from(args)
    checks = [c.strip() for c in (args.checks or "hf,orth,w,monotone").split(",") if c]
    unknown = set(checks) - {"hf", "orth", "w", "monotone"}
    if unknown:
        raise ConfigurationError(f"unknown checks: {sorted(unknown)}")
    sign = classify_sign(family,
                         r_max=50.0 * family.length_scale(channel.m))
    if sign is SignClass.INDEFINITE:
        report = {"status": "not-applicable",
                  "reason": "dV/d(active) changes sign; the monotonicity "
                            "law makes no claim for this family"}
        print("status: not-applicable (indefinite parameter derivative)")
        if args.output:
            _write_text(args.output, json.dumps(report, indent=1) + "\n")
        return EXIT_OK

    tol_orth = args.tol_orth if args.tol_orth is not None else _DEFAULT_TOLS["orth"]
    tol_w = args.tol_w if args.tol_w is not None else _DEFAULT_TOLS["w"]
    tol_sign = args.tol_sign if args.tol_sign is not None else _DEFAULT_TOLS["sign"]

    grid = _a_grid(args, family)
    all_ok = True
    reports = []
    for n_r in _nr_list(args):
        records = sweep(family, channel, n_r, grid, config, h=args.h_step)
        vd = verdict(records, sign, tol_sign=tol_sign)
        results = {}
        if "hf" in checks:
            if args.tol_hf is not None:
                ok = all(r.hf_residual <= args.tol_hf for r in records)
            else:
                ok = all(r.hf_residual <= max(_HF_REL * abs(r.dE_hf), _HF_FLOOR)
                         for r in records)
            results["hf"] = ok
        if "orth" in checks:
            results["orth"] = vd.max_orth_residual <= tol_orth
        if "w" in checks:
            results["w"] = vd.max_w_residual <= tol_w
        if "monotone" in checks:
            results["monotone"] = vd.passed
        ok_nr = all(results.values())
        all_ok = all_ok and ok_nr
        print(f"n_r = {n_r}: hypothesis {vd.hypothesis.value}, "
              f"conclusion {vd.conclusion}")
        for name, ok in results.items():
            print(f"  check {name}: {'pass' if ok else 'FAIL'}")
        print(f"  max residuals: hf {_fmt(vd.max_hf_residual)}, "
              f"orth {_fmt(vd.max_orth_residual)}, w {_fmt(vd.max_w_residual)}")
        reports.append({
            "n_r": n_r, "status": "pass" if ok_nr else "fail",
            "hypothesis": vd.hypothesis.value, "conclusion": vd.conclusion,
            "checks": results,
            "max_hf_residual": vd.max_hf_residual,
            "max_orth_residual": vd.max_orth_residual,
            "max_w_residual": vd.max_w_residual,
            "records": [{"a": r.a, "E": r.E, "dE_da_hf": r.dE_hf,
                         "dE_da_fd": r.dE_fd} for r in records],
        })
    if args.output:
        doc = {"status": "pass" if all_ok else "fail", "verdicts": reports}
        _write_text(args.output, json.dumps(doc, indent=1) + "\n")
    print(f"status: {'pass' if all_ok else 'fail'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_compare(args) -> int:
    v1 = _family_from(args)
    v2 = _family_from(args, suffix="2")
    channel = _channel_from(args)
    config = _solve_config_from(args)
    n_r = _nr_single(args)
    result = compare_potentials(v1, v2, channel, n_r, config)
    print(f"E1 = {_fmt(result.e1)}")
    print(f"E2 = {_fmt(result.e2)}")
    print(f"ordering: {'E1 <= E2 holds' if result.verdict.passed else 'FAILED'}")
    if args.output:
        doc = {
            "E1": result.e1, "E2": result.e2,
            "status": result.verdict.status,
            "t_grid": list(result.t_grid), "E_t": list(result.e_t),
        }
        _write_text(args.output, json.dumps(doc, indent=1) + "\n")
    return EXIT_OK if result.verdict.passed else EXIT_CHECK_FAILED


def cmd_oracle(args) -> int:
    if args.n is None or args.j is None:
        raise ConfigurationError("oracle needs --n and --j")
    if args.alpha_list:
        alphas = [float(s) for s in args.alpha_list.split(",") if s]
    elif args.alpha is not None:
        alphas = [args.alpha]
    else:
        raise ConfigurationError("oracle needs --alpha or --alpha-list")
    lines = ["n,j,alpha,E,dE_dalpha"]
    for al in alphas:
        level = CoulombLevel(n=args.n, j=args.j, alpha=al)
        lines.append(",".join([
            str(args.n), _fmt(args.j), _fmt(al),
            _fmt(coulomb_energy(level)), _fmt(coulomb_energy_derivative(level)),
        ]))
    _write_text(args.output, "\n".join(lines) + "\n")
    if args.output:
        print(f"wrote {len(alphas)} level(s) to {args.output}")
    return EXIT_OK


_DISPATCH = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "compare": cmd_compare,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _DISPATCH[args.command](args)
    except (ConfigurationError, DomainError, UnsupportedRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoSuchStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_STATE
    except PointwiseOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ORDERED
    except SweepAbortedError as exc:  # only reachable outside cmd_sweep
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    except DiracmonoError as exc:  # NumericalError and any other package error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
