import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from taumres import cli
from taumres.discretization import FIRST_ORDER, SECOND_ORDER
from taumres.pde import PRECONDITIONERS, example2_problem, setup_operators
from taumres.spectrum import SpectrumReport


# ---------------------------------------------------------------------------
# parsing

def test_parse_example2_basic():
    cfg = cli.parse_config(["example2", "--n1", "31", "--alphas", "1.9,1.9"])
    assert cfg.command == "example2"
    assert cfg.n1 == 31
    assert cfg.alphas == ((1.9, 1.9),)
    assert cfg.scheme is None       # example2 reads no scheme: it runs the second-order one
    assert cli._COMMANDS["example2"][1] == SECOND_ORDER
    assert cfg.tol == 1e-8
    assert cfg.maxit == 100


def test_parse_defaults_all_pairs():
    cfg = cli.parse_config(["example1"])
    assert len(cfg.alphas) == 9
    assert (cfg.scheme, cfg.precond) == (None, None)   # the options example1 does not read
    assert cli._COMMANDS["example1"][1] == FIRST_ORDER


def test_parse_repeatable_alpha_pairs():
    cfg = cli.parse_config(["solve", "--alphas", "1.1,1.5", "--alphas", "1.9,1.9"])
    assert cfg.alphas == ((1.1, 1.5), (1.9, 1.9))


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_config([])
    assert exc.value.code != 0


def test_malformed_alpha_pair_rejected():
    with pytest.raises(SystemExit):
        cli.parse_config(["solve", "--alphas", "1.5"])


def test_contradictory_scheme_rejected(capsys):
    # the examples fix their scheme, so naming one, even their own, is refused
    for command in ("example1", "example2"):
        for scheme in ("first", "second"):
            with pytest.raises(SystemExit) as exc:
                cli.parse_config([command, "--scheme", scheme])
            assert exc.value.code == 2
            assert f"{command} does not read scheme" in capsys.readouterr().err


def test_config_file_flag_precedence(tmp_path):
    cfile = tmp_path / "run.json"
    cfile.write_text(json.dumps({"tol": 1e-6, "n1": 5, "alphas": "1.5,1.9"}))
    cfg = cli.parse_config(["solve", "--config", str(cfile), "--tol", "1e-8"])
    assert cfg.tol == 1e-8          # flag wins
    assert cfg.n1 == 5              # file fills the rest
    assert cfg.alphas == ((1.5, 1.9),)
    cfg = cli.parse_config(["solve", "--config", str(cfile)])
    assert cfg.tol == 1e-6


def test_bad_config_file_rejected(tmp_path):
    cfile = tmp_path / "bad.json"
    cfile.write_text("[1, 2]")
    with pytest.raises(SystemExit):
        cli.parse_config(["solve", "--config", str(cfile)])
    with pytest.raises(SystemExit):
        cli.parse_config(["solve", "--config", str(tmp_path / "missing.json")])


def test_invalid_values_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.parse_config(["solve", "--n1", "0"])
    for tol in ("-1", "inf", "nan"):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["solve", "--tol", tol])
        assert exc.value.code == 2
    # --seed is gone, so it is an unknown flag
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["selftest", "--seed", "-1"])
    assert exc.value.code == 2
    # an empty path is refused, not replaced by the default file name
    for command in ("solve", "spectrum"):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config([command, "--out", ""])
        assert exc.value.code == 2
    capsys.readouterr()
    # the scheme words are strict: a scheme constant is no word
    for scheme in ("second_order", "bogus"):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["solve", "--scheme", scheme])
        assert exc.value.code == 2
        assert "'first', 'second'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.parse_config(["frobnicate"])


def test_spectrum_past_the_dense_cap_is_usage_error(capsys):
    # refused at parse time, not by a traceback after the table header
    assert cli.parse_config(["spectrum", "--n1", "64"]).n1 == 64
    for precond in ("tau", "identity"):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["spectrum", "--n1", "65", "--precond", precond])
        assert exc.value.code == 2
        assert "n1**2 <= 4096" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# running

def run_cli(args):
    return cli.run(cli.parse_config(args))


def test_example2_small_run(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = run_cli(["example2", "--n1", "7", "--alphas", "1.9,1.9", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    row = dict(zip(cli.CSV_COLUMNS, cells))
    assert row["preconditioner"] == "tau"
    assert row["converged"] == "true"
    assert float(row["err_inf"]) > 0
    assert int(row["iters"]) <= 11
    table = capsys.readouterr().out
    assert "alpha1" in table and "tau" in table


def test_example1_emits_both_preconditioners(tmp_path):
    out = tmp_path / "rows.csv"
    code = run_cli(["example1", "--n1", "7", "--alphas", "1.9,1.9",
                    "--maxit", "400", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[3] == "tau"
    assert lines[2].split(",")[3] == "identity"
    assert lines[1].split(",")[7] == ""  # no exact solution -> empty err_inf


def test_exit_code_two_on_nonconvergence(tmp_path):
    code = run_cli(["example2", "--n1", "7", "--alphas", "1.5,1.5",
                    "--maxit", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_exit_code_four_on_io_failure(tmp_path, capsys):
    code = run_cli(["example2", "--n1", "7", "--alphas", "1.9,1.9",
                    "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_deterministic_csv_except_wall_seconds(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["example2", "--n1", "7", "--alphas", "1.5,1.9"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0

    def strip_wall(path):
        return ["," .join(ln.split(",")[:-1]) for ln in path.read_text().splitlines()]

    assert strip_wall(out1) == strip_wall(out2)


def test_jobs_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ["example2", "--n1", "7", "--alphas", "1.1,1.5", "--alphas", "1.9,1.9"]
    assert run_cli(base + ["--out", str(serial)]) == 0
    assert run_cli(base + ["--jobs", "2", "--out", str(parallel)]) == 0

    def strip_wall(path):
        return ["," .join(ln.split(",")[:-1]) for ln in path.read_text().splitlines()]

    assert strip_wall(serial) == strip_wall(parallel)


def test_spectrum_command_exports_csv(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = run_cli(["spectrum", "--n1", "7", "--scheme", "first",
                    "--alphas", "1.5,1.5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 50
    assert "violations" in capsys.readouterr().out


def test_spectrum_identity_precond_unconstrained(tmp_path):
    out = tmp_path / "spec.csv"
    code = run_cli(["spectrum", "--n1", "5", "--precond", "identity",
                    "--alphas", "1.5,1.9", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_spectrum_violation_exit_code(tmp_path, monkeypatch):
    def fake_spectrum(A, P, params):
        return SpectrumReport(A.n, np.zeros(A.n), 0.5, 0.5, 2.25, 3, "main_second_order")

    monkeypatch.setattr(cli, "preconditioned_spectrum", fake_spectrum)
    code = run_cli(["spectrum", "--n1", "3", "--out", str(tmp_path / "s.csv")])
    assert code == 3


SELFTEST_LINES = [f"[selftest] {check}: PASS" for check in (
    "multilevel sine transform", "multilevel Toeplitz operator",
    "tau preconditioner square root", "preconditioned spectrum theorem")]


def test_selftest_command(capsys):
    assert run_cli(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == SELFTEST_LINES


def test_cli_runs_as_a_process():
    # the __main__ entry and argparse's exit codes, end to end
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def taumres(*args):
        return subprocess.run([sys.executable, "-m", "taumres.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    done = taumres("selftest")
    assert (done.returncode, done.stdout.splitlines(), done.stderr) == (0, SELFTEST_LINES, "")
    done = taumres("selftest", "--seed", "0")
    assert done.returncode == 2
    assert "unrecognized arguments: --seed 0" in done.stderr
    done = taumres("selftest", "--n1", "7")
    assert (done.returncode, done.stdout) == (2, "")
    assert "selftest does not read n1" in done.stderr


def test_multiple_spectrum_pairs_write_suffixed_files(tmp_path):
    out = tmp_path / "spec.csv"
    code = run_cli(["spectrum", "--n1", "5", "--scheme", "first",
                    "--alphas", "1.5,1.5", "--alphas", "1.9,1.9", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "spec_1.5_1.5.csv").exists()
    assert (tmp_path / "spec_1.9_1.9.csv").exists()


def test_multiple_spectrum_pairs_keep_a_non_csv_suffix(tmp_path):
    out = tmp_path / "spec.out"
    code = run_cli(["spectrum", "--n1", "5", "--scheme", "first",
                    "--alphas", "1.5,1.5", "--alphas", "1.9,1.9", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "spec_1.5_1.5.out").exists()
    assert (tmp_path / "spec_1.9_1.9.out").exists()
    assert not out.exists()


def test_config_file_values_are_checked(tmp_path, capsys):
    cfile = tmp_path / "run.json"
    for bad in ({"precond": "foo"}, {"scheme": "bogus"}, {"scheme": "second_order"},
                {"seed": -1}, {"seed": 0}, {"alphas": "1.5,2.5"},
                {"n1": 31.7}, {"maxit": 2.9}, {"tol": True}, {"n1": True}, {"seed": "3"},
                {"jobs": float("inf")}, {"tol": "1e-8"}, {"scheme": ["second"]}, {"out": 5},
                {"alphas": 5}, {"alphas": ["1.5,1.5", 1.9]}, {"alphas": {"1.5,1.5": 1}},
                {"n_1": 63}, {"n_1": None}, {"n1": 31.7, "maxit": 2.9, "tol": True, "n_1": 63},
                {"tol": float("inf")}, {"tol": float("nan")}, {"tol": float("-inf")},
                {"config": "other.json"}, {"command": "example1"}, {"out": ""}):
        cfile.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["solve", "--config", str(cfile)])
        assert exc.value.code == 2
    assert "'n_1'" in capsys.readouterr().err
    # integral numbers are counts, whatever their JSON spelling
    cfile.write_text(json.dumps({"n1": 31.0, "maxit": 7, "tol": 1}))
    cfg = cli.parse_config(["solve", "--config", str(cfile)])
    assert (cfg.n1, cfg.maxit, cfg.tol) == (31, 7, 1.0)
    # null leaves a key at its default
    cfile.write_text(json.dumps({"out": None, "scheme": None, "n1": None, "alphas": None}))
    assert cli.parse_config(["solve", "--config", str(cfile)]) == cli.parse_config(["solve"])


@pytest.mark.parametrize("bad", [
    {"scheme": "bogus"}, {"scheme": ["second"]}, {"scheme": "first"},
    {"precond": "foo"}, {"precond": ["tau"]},
    {"alphas": ((2.5, 1.5),)}, {"alphas": ((1.5,),)}, {"alphas": ()}, {"alphas": 5},
    {"alphas": (1.5, 1.5)}, {"alphas": (("1.5", "1.5"),)},
    {"out": 5}, {"out": ""},
    {"jobs": float("inf")}, {"n1": True}, {"tol": "1e-8"}, {"maxit": 2.9},
], ids=repr)
def test_every_run_value_is_refused_at_construction(bad):
    # a library caller meets the same check as a flag or a config file, before any run
    with pytest.raises(ValueError):
        cli.RunConfig("solve", **bad)


def test_preconditioner_name_has_one_check(capsys):
    # RunConfig calls the set-up's own check: one message, exit 2 from a flag
    msg = r"unknown preconditioner 'foo', expected one of \('tau', 'identity'\)"
    with pytest.raises(ValueError, match=msg):
        cli.RunConfig("solve", precond="foo")
    with pytest.raises(ValueError, match=msg):
        setup_operators(example2_problem(3, (1.5, 1.5)), "foo")
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["example2", "--precond", "foo"])
    assert exc.value.code == 2
    assert "unknown preconditioner 'foo'" in capsys.readouterr().err
    assert {cli.RunConfig("solve", precond=p).precond for p in PRECONDITIONERS} == {"tau", "identity"}


def test_run_values_are_stored_converted():
    cfg = cli.RunConfig("solve", tol=1, maxit=7.0, alphas=[[1.5, 1.9]])
    assert (cfg.tol, cfg.maxit, cfg.alphas) == (1.0, 7, ((1.5, 1.9),))
    assert type(cfg.tol) is float and type(cfg.maxit) is int


def test_option_table_is_the_run_config(capsys):
    fieldnames = {f.name for f in fields(cli.RunConfig)} - {"command"}
    assert set(cli._OPTIONS) == fieldnames
    with pytest.raises(SystemExit):
        cli.parse_config(["--help"])
    usage = capsys.readouterr().out
    assert all(f"--{key}" in usage for key in cli._OPTIONS)


@pytest.mark.parametrize("precond", PRECONDITIONERS)
def test_example1_refuses_precond(precond, tmp_path, capsys):
    # example1 runs every preconditioner, so it reads no precond and stores none
    assert cli.RunConfig("example1").precond is None
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["example1", "--precond", precond])
    assert exc.value.code == 2
    assert "example1 does not read precond" in capsys.readouterr().err
    cfile = tmp_path / "run.json"
    cfile.write_text(json.dumps({"precond": precond}))
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["example1", "--config", str(cfile)])
    assert exc.value.code == 2
    assert cli.parse_config(["example2", "--config", str(cfile)]).precond == precond
    with pytest.raises(ValueError, match="example1 does not read precond"):
        cli.RunConfig("example1", precond=precond)


# the options each command reads; every other (command, option) pair is refused
EXAMPLE_READS = {"n1", "alphas", "tol", "maxit", "out", "jobs"}
READS = {
    "example1": EXAMPLE_READS,
    "example2": EXAMPLE_READS | {"precond"},
    "solve": set(cli._OPTIONS),
    "spectrum": {"n1", "alphas", "scheme", "precond", "out"},
    "selftest": set(),
}
# one valid flag value per option
FLAG_VALUES = {"n1": "5", "alphas": "1.5,1.9", "scheme": "first", "precond": "identity",
               "tol": "1e-6", "maxit": "50", "out": "x.csv", "jobs": "2"}


def test_command_table_reads_26_pairs():
    assert {c: set(reads) for c, (reads, _) in cli._COMMANDS.items()} == READS
    assert sum(map(len, READS.values())) == 26
    assert cli.COMMANDS == tuple(READS)


@pytest.mark.parametrize("option", list(cli._OPTIONS))
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_option_is_read_or_refused(command, option, capsys):
    argv = [command, f"--{option}", FLAG_VALUES[option]]
    if option in READS[command]:
        assert getattr(cli.parse_config(argv), option) is not None
        return
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(argv)
    assert exc.value.code == 2
    assert f"{command} does not read {option}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("example1", "precond", "tau"), ("example2", "scheme", "second"),
    ("spectrum", "maxit", 50), ("selftest", "out", "x.csv")])
def test_unread_key_is_refused_from_a_file_and_a_library(command, key, value, tmp_path, capsys):
    cfile = tmp_path / "run.json"
    cfile.write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit) as exc:
        cli.parse_config([command, "--config", str(cfile)])
    assert exc.value.code == 2
    assert f"{command} does not read {key}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"{command} does not read {key}"):
        cli.RunConfig(command, **{key: value})
    # null leaves the key unset, which every command accepts
    cfile.write_text(json.dumps({key: None}))
    assert cli.parse_config([command, "--config", str(cfile)]) == cli.RunConfig(command)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_run_config_round_trips(command):
    cfg = cli.RunConfig(command)
    assert cli.RunConfig(**asdict(cfg)) == cfg
    assert all((getattr(cfg, name) is None) == (name not in READS[command] or name == "out")
               for name in cli._OPTIONS)
    set_all = cli.parse_config([command] + [arg for name in sorted(READS[command])
                                            for arg in (f"--{name}", FLAG_VALUES[name])])
    assert cli.RunConfig(**asdict(set_all)) == set_all


def test_alpha_out_of_range_is_usage_error(capsys):
    for pair in ("2.5,1.5", "1.5,1.0", "nan,1.5"):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["example2", "--alphas", pair])
        assert exc.value.code == 2
        assert "(1, 2)" in capsys.readouterr().err
