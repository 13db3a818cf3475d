"""Tests of the benchmark harness on small versions of its workloads.

    python -m pytest -q bench/test_bench.py

A wrong answer injected into the library from outside must make the
harness count failed ops; the traced run must account for the whole op.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
from taumres import krylov, pde, spectrum, tau

SMALL = {
    "solve": harness.first_step("solve", pde.example2_problem, 15, ((1.1, 1.1), (1.9, 1.9)),
                                precond=True, maxit=100),
    "unprecond": harness.first_step("unprecond", pde.example1_problem, 15,
                                    ((1.9, 1.1), (1.5, 1.1)), precond=False, maxit=1000,
                                    drift_tol=harness.UNPRECOND_DRIFT),
    "march": harness.march("march", 7, (1.5, 1.5)),
    "dense": harness.dense_spectrum("dense", 7, (1.5, 1.9)),
}


@pytest.fixture(scope="module")
def refs():
    return {name: harness.reference_values(wl) for name, wl in SMALL.items()}


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_SLICE_S", 0.0)


def run(name, refs, trace=False, seed=3):
    return harness.run(SMALL[name], seed, 0.01, trace, refs=refs[name])


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_correct_program_passes(name, trace, refs):
    record = run(name, refs, trace)
    result = record["result"]
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_OPS
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in expected]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["missing_bindings"] == []


def _perturbed(fn, scale):
    def wrong(*args, **kwargs):
        x, rep = fn(*args, **kwargs)
        return x * scale, rep
    return wrong


@pytest.mark.parametrize("name, target, scale", [
    ("solve", "step_second_order", 1.001),
    ("unprecond", "step_first_order", 1.0001),
])
def test_perturbed_solution_fails(name, target, scale, refs, monkeypatch):
    monkeypatch.setattr(pde, target, _perturbed(getattr(pde, target), scale))
    record = run(name, refs)
    assert record["result"]["failed"] == record["result"]["attempted"] >= harness.MIN_OPS
    assert record["fail_frac"] == 1.0
    assert not record["result"]["correct"]


def test_non_spd_preconditioner_fails(refs, monkeypatch):
    apply_inverse = tau.TauPreconditioner.apply_inverse
    monkeypatch.setattr(tau.TauPreconditioner, "apply_inverse",
                        lambda self, x: -apply_inverse(self, x))
    record = run("solve", refs)
    assert record["fail_frac"] == 1.0
    assert any("BreakdownError" in msg for msg in record["failures"])


def test_unconverged_or_perturbed_march_fails(refs, monkeypatch):
    run_steps = pde.run_steps
    one_iteration = krylov.MinresConfig(maxit=1)
    monkeypatch.setattr(pde, "run_steps",
                        lambda problem, **kw: run_steps(problem, cfg=one_iteration, **kw))
    assert run("march", refs)["fail_frac"] == 1.0
    loose = krylov.MinresConfig(tol=1e-6)
    monkeypatch.setattr(pde, "run_steps",
                        lambda problem, **kw: run_steps(problem, cfg=loose, **kw))
    record = run("march", refs)
    assert record["fail_frac"] == 1.0
    assert any("drifted" in msg for msg in record["failures"])
    monkeypatch.setattr(pde, "run_steps", _perturbed(run_steps, 1.01))
    assert run("march", refs)["fail_frac"] == 1.0


def test_wrong_spectrum_fails(refs, monkeypatch):
    sym_eig = spectrum.sym_eig
    monkeypatch.setattr(spectrum, "sym_eig", lambda M: 1.01 * sym_eig(M))
    record = run("dense", refs)
    assert record["fail_frac"] == 1.0
    assert any("ev_max" in msg for msg in record["failures"])


def test_traced_layers_account_for_the_op(refs):
    metrics = {k: m["value"] for k, m in run("unprecond", refs, trace=True)["result"]["metrics"].items()}
    assert metrics["transforms.dst1_multi.calls"] == 0
    assert metrics["tau.apply_inverse.calls"] == 0
    assert metrics["krylov.pminres.calls"] == 2
    total = sum(v for k, v in metrics.items() if k.startswith("layer.")) \
        + metrics["untraced.remainder_share"]
    assert total == pytest.approx(1.0, abs=1e-6)

    metrics = {k: m["value"] for k, m in run("solve", refs, trace=True)["result"]["metrics"].items()}
    # two DSTs per P^-1 application
    assert metrics["transforms.dst1_multi.calls"] == 2 * metrics["tau.apply_inverse.calls"] > 0
    assert metrics["toeplitz.apply.calls"] == metrics["toeplitz.apply_symmetrized.calls"] + 2


def test_shims_are_removed_after_a_traced_run(refs):
    before = (pde.pminres, pde.sample_grid, tau.dst1_multi, tau.TauPreconditioner.apply_inverse)
    run("solve", refs, trace=True)
    assert (pde.pminres, pde.sample_grid, tau.dst1_multi,
            tau.TauPreconditioner.apply_inverse) == before
    assert pde.pminres is krylov.pminres


def test_seed_sets_input_order(refs):
    orders = {tuple(run("unprecond", refs, seed=s)["input_order"]) for s in range(6)}
    assert orders == {("1.9,1.1", "1.5,1.1"), ("1.5,1.1", "1.9,1.1")}
    assert run("unprecond", refs, seed=4)["input_order"] == run("unprecond", refs, seed=4)["input_order"]


def test_timed_returns_the_result_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    result, wall, ref = harness.timed(sum, range(3_000_000))
    assert result == sum(range(3_000_000))
    assert wall > 0 and ref > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        harness.timed(lambda: 1 / 0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_the_library(tmp_path):
    bench = Path(harness.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "unprecond", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_file_covers_every_workload_input():
    refs = json.loads(harness.REFERENCE_PATH.read_text())
    assert {name: sorted(r) for name, r in refs.items()} == {
        name: sorted(harness.pair_key(p) for p in wl.inputs) for name, wl in harness.WORKLOADS.items()}
    assert all(np.isfinite(v["iters"]) for r in refs.values() for v in r.values())
