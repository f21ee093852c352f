"""Black-box CLI contract: flags, exit codes, file formats, determinism."""

import json

import pytest

from diracmono import cli, solver
from diracmono.cli import CSV_HEADER, main
from diracmono.errors import (
    ConfigurationError,
    DiracmonoError,
    DomainError,
    GridMismatchError,
    LevelCrossingError,
    NoSuchStateError,
    NumericalError,
    PointwiseOrderError,
    SweepAbortedError,
    UnsupportedRegimeError,
)

from conftest import point_by_point

CHAN = ["--d", "3", "--tau", "-1", "--j", "0.5"]
FAST = ["--n-grid", "1200"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_prints_oracle_energy(capsys):
    code, out, _ = run(["solve", "--family", "pure-coulomb", "--alpha", "0.5",
                        *CHAN, "--nr", "0", *FAST], capsys)
    assert code == 0
    e_line = [ln for ln in out.splitlines() if ln.startswith("E = ")][0]
    assert abs(float(e_line.split("=")[1]) - 0.8660254037844386) < 1e-6
    assert "nodes = 0" in out
    assert "norm_residual" in out and "match_residual" in out


def test_solve_dump_psi(tmp_path, capsys):
    dump = tmp_path / "psi.dat"
    code, _, _ = run(["solve", "--family", "cutoff-coulomb", "--alpha", "1",
                      "--a", "0.5", *CHAN, "--nr", "0", *FAST,
                      "--dump-psi", str(dump)], capsys)
    assert code == 0
    rows = dump.read_text().strip().splitlines()
    assert len(rows) == 1200
    assert all(len(row.split()) == 3 for row in rows[:5])


def test_invalid_flag_combination_is_config_error(capsys):
    code, _, err = run(["solve", "--family", "pure-coulomb", "--alpha", "0.5",
                        "--d", "1", "--tau", "-1", "--nr", "0"], capsys)
    assert code == 2
    assert "parity" in err


def test_missing_family_is_config_error(capsys):
    code, _, _ = run(["solve", *CHAN, "--nr", "0"], capsys)
    assert code == 2


def test_unbound_family_is_no_such_state(capsys):
    code, _, err = run(["solve", "--family", "coupling", "--shape", "exp",
                        "--a", "0", *CHAN, "--nr", "0", *FAST], capsys)
    assert code == 3
    assert "no state" in err


def test_sweep_csv_contract(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "1",
            "--active", "a", "--from", "0.4", "--to", "1.2", "--steps", "3",
            *CHAN, "--nr", "0", *FAST, "--output", str(out_file)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert len(first) == 8
    assert float(first[0]) == 0.4
    # 17 significant digits survive a round-trip
    assert float(first[1]) == float(f"{float(first[1]):.17g}")
    # E column increases with a
    energies = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert energies[0] < energies[1] < energies[2]


def test_sweep_deterministic_bytes(tmp_path, capsys):
    files = []
    for name in ("a.csv", "b.csv"):
        out_file = tmp_path / name
        argv = ["sweep", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "1",
                "--active", "a", "--from", "0.5", "--to", "1.0", "--steps", "2",
                *CHAN, "--nr", "0", *FAST, "--output", str(out_file)]
        assert main(argv) == 0
        capsys.readouterr()
        files.append(out_file.read_bytes())
    assert files[0] == files[1]


def test_sweep_degenerate_grid_rejected(capsys):
    code, _, _ = run(["sweep", "--family", "cutoff-coulomb", "--alpha", "1",
                      "--a", "1", "--active", "a", "--from", "0.5", "--to", "1.0",
                      "--steps", "1", *CHAN, "--nr", "0"], capsys)
    assert code == 2


def test_sweep_json_round_trip(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    argv = ["sweep", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "1",
            "--active", "a", "--from", "0.5", "--to", "1.0", "--steps", "2",
            *CHAN, "--nr", "0", *FAST, "--format", "json",
            "--output", str(out_file)]
    assert main(argv) == 0
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    assert doc["n_r"] == 0 and len(doc["records"]) == 2
    # emit(parse(emit(x))) is byte-stable: floats round-trip exactly
    again = json.dumps(doc, indent=1) + "\n"
    assert json.loads(again) == doc


def test_sweep_abort_partial_file(tmp_path, capsys):
    out_file = tmp_path / "aborted.csv"
    argv = ["sweep", "--family", "pure-coulomb", "--alpha", "0.8",
            "--active", "alpha", "--from", "0.8", "--to", "1.2", "--steps", "5",
            *CHAN, "--nr", "0", *FAST, "--output", str(out_file)]
    code, _, err = run(argv, capsys)
    assert code == 5
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[-1] == "# ABORTED"
    assert len(lines) == 4  # header + 2 completed rows + trailer


@pytest.mark.parametrize("command, nr, message", [
    ("verify", "--nr=-1", "node counts are non-negative"),
    ("sweep", "--nr=-1", "node counts are non-negative"),
    ("verify", "--nr=,", "--nr lists no node count"),    # would check nothing
])
def test_bad_level_request_exits_2(command, nr, message, tmp_path, capsys):
    # refused before any point is solved: a usage error, not an aborted
    # sweep or a pass, and no file written
    out_file = tmp_path / "out.csv"
    argv = [command, "--family", "cutoff-coulomb", "--alpha", "1", "--a", "1",
            "--active", "a", *CHAN, "--from", "0.5", "--to", "1.0", "--steps", "2",
            nr, *FAST, "--output", str(out_file)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and message in err
    assert not out_file.exists()


@pytest.mark.parametrize("command, step", [
    ("sweep", "0"), ("verify", "0"), ("verify", "nan"), ("verify", "inf"),
])
def test_bad_parameter_step_exits_2(command, step, tmp_path, capsys):
    # refused before any stencil is solved: no division by zero, and no
    # aborted sweep from a stencil of non-finite parameters
    out_file = tmp_path / "out.csv"
    argv = [command, "--family", "cutoff-coulomb", "--alpha", "1", "--a", "1",
            "--active", "a", *CHAN, "--from", "0.5", "--to", "1.0", "--steps", "2",
            "--nr", "0", "--h-step", step, *FAST, "--output", str(out_file)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and "parameter step must be finite and non-zero" in err
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_stencil_outside_the_domain_exits_2(command, tmp_path, capsys):
    # a = 0.5 with h = 5 puts stencil members at a = -4.5 and -2, where
    # cutoff-coulomb is undefined: refused before any solve, naming the
    # parameter, the point and the step, not an aborted sweep
    out_file = tmp_path / "out.csv"
    argv = [command, "--family", "cutoff-coulomb", "--alpha", "1", "--a", "1",
            "--active", "a", *CHAN, "--from", "0.5", "--to", "1", "--steps", "2",
            "--nr", "0", "--h-step", "5", *FAST, "--output", str(out_file)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and "stencil of a = 0.5 with step h = 5 reaches a = -4.5" in err
    assert not out_file.exists()


VERIFY_RUNS = [  # a short criterion 2 sweep and a d = 1 even-parity sweep
    ["--family", "cutoff-coulomb", "--alpha", "1", "--a", "1", "--active", "a",
     *CHAN, "--from", "0.1", "--to", "2", "--steps", "5", "--nr", "0,1"],
    ["--family", "cutoff-coulomb", "--alpha", "1", "--a", "1", "--active", "a",
     "--d", "1", "--parity", "even", "--from", "0.6", "--to", "1.4", "--steps", "3",
     "--nr", "0,1"],
]


@pytest.mark.parametrize("args", VERIFY_RUNS)
def test_verify_batched_matches_point_by_point(args, tmp_path, monkeypatch, capsys):
    # the same verdicts, statuses and checks from one batch per sweep as from
    # the per-point solves, with E within 1e-9
    docs = []
    for path in ("batched", "per-point"):
        if path == "per-point":
            point_by_point(monkeypatch)
        out_file = tmp_path / f"{path}.json"
        code, _, _ = run(["verify", *args, "--format", "json", "--output", str(out_file)],
                         capsys)
        assert code == 0
        docs.append(json.loads(out_file.read_text()))
    batched, reference = docs
    assert batched["status"] == reference["status"] == "pass"
    assert len(batched["verdicts"]) == len(reference["verdicts"]) == 2
    for vb, vr in zip(batched["verdicts"], reference["verdicts"]):
        for key in ("n_r", "status", "hypothesis", "conclusion", "checks"):
            assert vb[key] == vr[key], key
        for rb, rr in zip(vb["records"], vr["records"], strict=True):
            assert rb["a"] == rr["a"]
            assert abs(rb["E"] - rr["E"]) <= 1e-9


def test_verify_builds_one_workspace_per_level(monkeypatch, capsys):
    # acceptance criterion 2 (20 points, n_r 0 and 1): every stencil of a
    # level shares one workspace, where each point once built its own
    builds = []
    init = solver._Workspace.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(len(args[1]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(solver._Workspace, "__init__", counting_init)
    code, _, _ = run(["verify", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "1",
                      "--active", "a", *CHAN, "--from", "0.1", "--to", "2",
                      "--steps", "20", "--nr", "0,1"], capsys)
    assert code == 0
    assert builds == [100, 100]  # 5 stencil members x 20 points, once per level


def test_verify_abort_matches_per_level_path(monkeypatch, capsys):
    # screening unbinds n_r = 1 at b ~ 0.2 (-0.5 exp(-b r)/r, d = 3) while
    # n_r = 0 stays bound: verify prints the whole n_r = 0 report, exactly as
    # a run of n_r = 0 alone does, then aborts n_r = 1 (exit 5) with the
    # message of the per-point solves
    args = ["verify", "--family", "coupling", "--shape", "yukawa", "--a", "0.5",
            "--b", "0.1", "--active", "b", *CHAN, "--from", "0.05", "--to", "0.3",
            "--steps", "4"]
    code, out, err = run([*args, "--nr", "0,1"], capsys)
    assert code == 5
    code_0, out_0, _ = run([*args, "--nr", "0"], capsys)
    assert code_0 == 0
    assert out_0.endswith("status: pass\n")
    assert out == out_0[:-len("status: pass\n")]
    assert err.startswith("error: sweep aborted at a = 0.216667: state n_r=1 is not "
                          "resolvable at every stencil point")
    point_by_point(monkeypatch)
    assert run([*args, "--nr", "1"], capsys)[2] == err


def test_verify_cutoff_passes(capsys):
    argv = ["verify", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "0.8",
            "--active", "a", "--from", "0.4", "--to", "1.2", "--steps", "3",
            *CHAN, "--nr", "0", *FAST]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "status: pass" in out


def test_verify_unreachable_tolerance_fails(capsys):
    argv = ["verify", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "0.8",
            "--active", "a", "--from", "0.4", "--to", "1.2", "--steps", "3",
            *CHAN, "--nr", "0", *FAST, "--tol-hf", "1e-15"]
    code, out, _ = run(argv, capsys)
    assert code == 6
    assert "FAIL" in out


def test_verify_indefinite_not_applicable(capsys):
    argv = ["verify", "--family", "indefinite-demo", "--a", "1",
            *CHAN, "--nr", "0"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "not-applicable" in out


def test_verify_check_selection(capsys):
    argv = ["verify", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "0.8",
            "--active", "a", "--from", "0.5", "--to", "1.1", "--steps", "2",
            *CHAN, "--nr", "0", *FAST, "--checks", "monotone"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "check monotone: pass" in out and "check hf" not in out


def test_compare_ordered_and_crossing(capsys):
    base = ["compare", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "0.5",
            "--family2", "cutoff-coulomb", "--alpha2", "1", "--a2", "1.0",
            *CHAN, "--nr", "0", *FAST]
    code, out, _ = run(base, capsys)
    assert code == 0
    e1 = float([ln for ln in out.splitlines() if ln.startswith("E1")][0].split("=")[1])
    e2 = float([ln for ln in out.splitlines() if ln.startswith("E2")][0].split("=")[1])
    assert e1 <= e2

    crossing = ["compare", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "1.0",
                "--family2", "cutoff-coulomb", "--alpha2", "0.6", "--a2", "0.3",
                *CHAN, "--nr", "0", *FAST]
    code, _, err = run(crossing, capsys)
    assert code == 7
    assert "ordered" in err


def test_compare_identical(capsys):
    argv = ["compare", "--family", "cutoff-coulomb", "--alpha", "1", "--a", "0.7",
            "--family2", "cutoff-coulomb", "--alpha2", "1", "--a2", "0.7",
            *CHAN, "--nr", "0", *FAST]
    code, out, _ = run(argv, capsys)
    assert code == 0


def test_oracle_table(capsys):
    code, out, _ = run(["oracle", "--n", "1", "--j", "0.5",
                        "--alpha-list", "0.5,0.9"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,j,alpha,E,dE_dalpha"
    row = lines[1].split(",")
    assert abs(float(row[3]) - 0.8660254037844386) < 1e-12
    assert abs(float(row[4]) + 0.5773502691896258) < 1e-12
    row2 = lines[2].split(",")
    assert abs(float(row2[3]) - 0.4358898943540673) < 1e-12


def test_oracle_second_level(capsys):
    code, out, _ = run(["oracle", "--n", "2", "--j", "0.5", "--alpha", "0.5"],
                       capsys)
    assert code == 0
    assert abs(float(out.strip().splitlines()[1].split(",")[3])
               - 0.9659258262890683) < 1e-12


def test_oracle_invalid_level(capsys):
    code, _, _ = run(["oracle", "--n", "1", "--j", "0.5", "--alpha", "1.1"], capsys)
    assert code == 2


@pytest.mark.parametrize("alphas, message", [
    ("0.2,abc", "--alpha-list must be numbers"),
    (",", "--alpha-list lists no alpha"),
])
def test_oracle_bad_alpha_list_exits_2(alphas, message, capsys):
    code, out, err = run(["oracle", "--n", "1", "--j", "0.5", "--alpha-list", alphas],
                         capsys)
    assert code == 2
    assert out == "" and message in err


def test_oracle_refuses_options_it_does_not_read(capsys):
    # the closed-form levels are in units of m: a --mass the oracle would
    # ignore is a usage error, not a table of E/m labelled E
    with pytest.raises(SystemExit) as exc_info:
        main(["oracle", "--n", "1", "--j", "0.5", "--alpha", "0.5", "--mass", "2"])
    assert exc_info.value.code == 2
    assert "--mass" in capsys.readouterr().err


def test_zero_r_match_exits_2(capsys):
    code, out, err = run(["solve", "--family", "pure-coulomb", "--alpha", "0.5",
                          *CHAN, "--nr", "0", "--r-match", "0"], capsys)
    assert code == 2
    assert out == "" and "r_match must be positive" in err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = pure-coulomb\nalpha = 0.5\nd = 3\ntau = -1\n"
                   "j = 0.5\nnr = 0\nn_grid = 1200\n")
    code, out, _ = run(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    e_file = float([ln for ln in out.splitlines() if ln.startswith("E = ")][0].split("=")[1])
    assert abs(e_file - 0.8660254037844386) < 1e-6

    # explicit flag overrides the file value
    code, out, _ = run(["solve", "--config", str(cfg), "--alpha", "0.9"], capsys)
    assert code == 0
    e_cli = float([ln for ln in out.splitlines() if ln.startswith("E = ")][0].split("=")[1])
    assert abs(e_cli - 0.4358898943540673) < 1e-6


def test_malformed_config_value_is_usage_error(tmp_path, capsys):
    # a file value is typed like the flag it stands for: exit 2, no traceback
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = pure-coulomb\nalpha = abc\nd = 3\ntau = -1\n"
                   "j = 0.5\nnr = 0\n")
    with pytest.raises(SystemExit) as exc_info:
        main(["solve", "--config", str(cfg)])
    assert exc_info.value.code == 2
    # the message names the file and the key, not a flag the user never typed
    err = capsys.readouterr().err
    assert f"config file {cfg}: alpha: invalid float value: 'abc'" in err
    assert "--alpha:" not in err
    # a value outside an option's choices is refused the same way
    cfg.write_text("family = pure-coulomb\nalpha = 0.5\nd = 1\nparity = up\nnr = 0\n")
    with pytest.raises(SystemExit) as exc_info:
        main(["solve", "--config", str(cfg)])
    assert exc_info.value.code == 2
    assert f"config file {cfg}: parity: invalid choice: 'up'" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    # a key no subcommand knows (a typo, a removed option) is refused
    cfg = tmp_path / "run.cfg"
    base = "family = pure-coulomb\nalpha = 0.5\nd = 3\ntau = -1\nj = 0.5\nnr = 0\n"
    for key in ("e_toll = 1e-9", "ode_abs_tol = 1e-12"):
        cfg.write_text(base + key + "\n")
        with pytest.raises(SystemExit) as exc_info:
            main(["solve", "--config", str(cfg)])
        assert exc_info.value.code == 2
        name = key.split(" ")[0]
        assert f"config file {cfg}: {name}: " in capsys.readouterr().err
    # a key of another subcommand is accepted, so one file serves them all
    cfg.write_text(base + "n_grid = 1200\nchecks = hf\n")
    code, out, _ = run(["solve", "--config", str(cfg)], capsys)
    assert code == 0 and "E = " in out


def test_supercritical_is_config_error(capsys):
    code, _, _ = run(["solve", "--family", "pure-coulomb", "--alpha", "1.2",
                      *CHAN, "--nr", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("args", [
    ["--family", "coupling", "--shape", "cutoff", "--a", "19.5", "--b", "0.15",
     "--d", "4", "--tau", "-1", "--j", "0.5"],
    ["--family", "cutoff-coulomb", "--alpha", "1.58", "--a", "0.054",
     "--d", "1", "--parity", "odd"],
])
def test_deep_regular_well_exits_2(args, capsys):
    code, out, err = run(["solve", *args, "--nr", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: deep regular well")


def test_r_max_above_cap_is_config_error(capsys):
    code, out, err = run(["solve", "--family", "pure-coulomb", "--alpha", "0.5",
                          *CHAN, "--nr", "0", "--r-max", "1e6"], capsys)
    assert code == 2
    assert out == ""
    assert "r_max" in err and "cap 4000/m" in err


@pytest.mark.parametrize("argv, name", [
    (["--family", "pure-coulomb", "--alpha", "0.5", "--e-tol", "inf"], "e_tol"),
    (["--family", "pure-coulomb", "--alpha", "0.5", "--mass", "inf"], "mass"),
    (["--family", "cutoff-coulomb", "--alpha", "1", "--a", "inf"], "cutoff-coulomb"),
])
def test_non_finite_input_is_config_error(argv, name, capsys):
    code, out, err = run(["solve", *argv, *CHAN, "--nr", "0"], capsys)
    assert code == 2
    assert out == ""
    assert name in err and "finite" in err


def test_loose_tolerance_reports_computed_match_residual(capsys):
    # at --e-tol 1e-3 the fine bracket is already closed on entry, so no
    # search step runs; the residual is the larger one at the bracket ends
    code, out, _ = run(["solve", "--family", "pure-coulomb", "--alpha", "0.5",
                        *CHAN, "--nr", "0", "--e-tol", "1e-3"], capsys)
    assert code == 0
    fields = dict(line.split(" = ") for line in out.splitlines())
    assert abs(float(fields["E"]) - 0.8660254037844386) < 1e-3
    assert float(fields["match_residual"]) > 0


@pytest.mark.parametrize("error, code", [
    (ConfigurationError("bad flag"), 2),
    (DomainError("outside the gap"), 2),
    (UnsupportedRegimeError("supercritical"), 2),
    (NoSuchStateError("no such state", found=[(0.9, 0)]), 3),
    (NumericalError("lost bracket"), 4),
    (LevelCrossingError("node label changed"), 4),
    (GridMismatchError("other grid"), 4),
    (DiracmonoError("any other package error"), 4),
    (SweepAbortedError("aborted", records=[]), 5),
    (PointwiseOrderError("not ordered"), 7),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_package_error_exit_code(error, code, monkeypatch, capsys):
    def fail(args):
        raise error

    monkeypatch.setitem(cli._DISPATCH, "solve", fail)
    assert run(["solve"], capsys) == (code, "", f"error: {error}\n")
