"""The experiments' invariants, pinned: every first-step row of both examples at n1 = 31
and 63 against a committed table, and the runners' exit codes at n1 = 31.  A change that
moves an iteration count, a convergence flag or an exit code shows up as a failure here; a
change to the table is a diff of tests/data/first_steps.json."""

import json
import pathlib

import pytest

from taumres import cli
from taumres.pde import example1_problem, example2_problem, first_step_row

TABLE = json.loads((pathlib.Path(__file__).parent / "data" / "first_steps.json")
                   .read_text(encoding="utf-8"))
PROBLEMS = {"example1": example1_problem, "example2": example2_problem}
# relres and err_inf agree to this relative tolerance: tight enough to catch any change
# to a solve, loose enough for reordered sums (at n1 = 127, one against two BLAS threads
# moved relres by about 2e-14)
RTOL = 1e-6


def test_first_steps_match_the_committed_table():
    assert [table["n1"] for table in TABLE["tables"]] == [31, 63]
    for table in TABLE["tables"]:
        assert len(table["rows"]) == 27
        for want in table["rows"]:
            problem = PROBLEMS[want["example"]](table["n1"], (want["alpha1"], want["alpha2"]))
            got = first_step_row(problem, want["preconditioner"], TABLE["tol"], TABLE["maxit"])
            case = {k: want[k] for k in ("example", "alpha1", "alpha2", "preconditioner")}
            case["n1"] = table["n1"]
            assert (got["iters"], got["converged"]) == (want["iters"], want["converged"]), case
            assert got["relres"] == pytest.approx(want["relres"], rel=RTOL), case
            if want["err_inf"] is None:
                assert got["err_inf"] is None, case
            else:
                assert got["err_inf"] == pytest.approx(want["err_inf"], rel=RTOL), case


@pytest.mark.parametrize("args, code", [
    (["example1", "--n1", "31"], 2),   # plain MINRES stops at maxit = 100
    (["example2", "--n1", "31"], 0),
    (["spectrum", "--n1", "15"], 0),
], ids=["example1", "example2", "spectrum"])
def test_runner_exit_codes(args, code, tmp_path):
    assert cli.run(cli.parse_config(args + ["--out", str(tmp_path / "out.csv")])) == code
