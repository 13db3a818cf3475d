import dataclasses
import math

import numpy as np
import pytest

from taumres.discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams,
                                    GridSpec, assemble_operator)
from taumres import pde
from taumres.krylov import MinresConfig, pminres
from taumres.pde import (FractionalProblem, example1_problem, example2_problem,
                         first_step_row, run_steps, sample_grid, setup_operators,
                         step_first_order, step_second_order)
from taumres.tau import build_preconditioner
from taumres.toeplitz import MultilevelOperator, Toeplitz1D, flip

from conftest import run_fresh, traced_peak


# ---------------------------------------------------------------------------
# sampling

def test_sample_constant():
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (2, 3))
    out = sample_grid(grid, lambda x1, x2: 4.5 + 0.0 * x1 * x2)
    assert np.array_equal(out, np.full(6, 4.5))


def test_sample_1d_coordinates():
    grid = GridSpec((0.0,), (1.0,), (3,))
    assert sample_grid(grid, lambda x: x) == pytest.approx([0.25, 0.5, 0.75], abs=1e-15)


@pytest.mark.parametrize("n1", [63, 255])
def test_example2_samples_equal_the_one_line_formula(n1):
    prob = example2_problem(n1, (1.5, 1.9))
    x1, x2 = np.meshgrid(prob.grid.axis_points(0), prob.grid.axis_points(1),
                         indexing="ij", sparse=True)

    def formula(t):
        return (math.exp(t) * x1 ** 2 * (2.0 - x1) ** 2 * x2 ** 2 * (2.0 - x2) ** 2).reshape(-1)

    assert np.array_equal(sample_grid(prob.grid, prob.u0), formula(0.0))
    for t in (prob.tau_step, 0.5, prob.T):
        assert np.array_equal(sample_grid(prob.grid, prob.exact, t), formula(t))
    assert pde.example2_exact(0.5, 1.5, 0.2) == math.exp(0.2) * 0.25 * 2.25 * 2.25 * 0.25


def example2_source_formula(x1, x2, t, a1, a2):
    """example2's f, with 8, -24, 24 the coefficients of its sums over i = 2, 3, 4."""
    def sums(x, a, dp, dm):
        return (8.0 * (dp * x ** (2 - a) + dm * (2.0 - x) ** (2 - a)) / math.gamma(3 - a)
                - 24.0 * (dp * x ** (3 - a) + dm * (2.0 - x) ** (3 - a)) / math.gamma(4 - a)
                + 24.0 * (dp * x ** (4 - a) + dm * (2.0 - x) ** (4 - a)) / math.gamma(5 - a))
    phi1, phi2 = x1 ** 2 * (2.0 - x1) ** 2, x2 ** 2 * (2.0 - x2) ** 2
    return math.exp(t) * (phi1 * phi2 - phi2 * sums(x1, a1, 3.0, 1.0) - phi1 * sums(x2, a2, 2.0, 1.0))


@pytest.mark.parametrize("n1", [63, 255])
def test_sources_equal_the_one_line_formulas(n1):
    for alphas in ((1.1, 1.9), (1.5, 1.5), (1.9, 1.1)):
        prob = example2_problem(n1, alphas)
        x1, x2 = np.meshgrid(prob.grid.axis_points(0), prob.grid.axis_points(1),
                             indexing="ij", sparse=True)
        for t in (0.5 * prob.tau_step, 0.5, prob.T - 0.5 * prob.tau_step):
            assert np.array_equal(sample_grid(prob.grid, prob.source, t),
                                  example2_source_formula(x1, x2, t, *alphas).reshape(-1))
    prob = example1_problem(n1, (1.5, 1.9))
    x1, x2 = np.meshgrid(prob.grid.axis_points(0), prob.grid.axis_points(1),
                         indexing="ij", sparse=True)
    for t in (prob.tau_step, 0.5, prob.T):
        formula = 100.0 * np.sin(10.0 * x1) * np.cos(x2) + np.sin(10.0 * t) * x1 * x2
        assert np.array_equal(sample_grid(prob.grid, prob.source, t), formula.reshape(-1))


def test_sample_2d_lexicographic():
    grid = GridSpec((0.0, 0.0), (3.0, 3.0), (2, 2))
    out = sample_grid(grid, lambda x1, x2: x1 + 10.0 * x2)
    # points (1,1),(1,2),(2,1),(2,2) in units of h=1
    assert out == pytest.approx([11.0, 21.0, 12.0, 22.0], abs=1e-14)


def test_sample_refuses_flat_values_on_a_2d_grid():
    # x1.ravel() would be laid along x2 on a square grid and fail to broadcast on another
    for n in ((3, 3), (3, 4)):
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), n)
        with pytest.raises(ValueError, match="a scalar or 2-D, not of shape"):
            sample_grid(grid, lambda x1, x2: x1.ravel())
    with pytest.raises(ValueError, match="a scalar or 2-D"):
        sample_grid(grid, lambda x1, x2, t: np.zeros((1, 3, 4)), 0.0)


def test_sample_refuses_values_of_another_grid():
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (3, 4))
    with pytest.raises(ValueError, match=r"of shape \(2, 4\): each axis of length 1 or the grid's"):
        sample_grid(grid, lambda x1, x2: np.zeros((2, 4)))
    # an axis of length 1 is spread over the grid
    assert np.array_equal(sample_grid(grid, lambda x1, x2: x1), np.repeat(grid.axis_points(0), 4))


def test_sample_passes_time():
    grid = GridSpec((0.0,), (1.0,), (2,))
    out = sample_grid(grid, lambda x, t: x * t, 3.0)
    assert out == pytest.approx([1.0, 2.0], abs=1e-14)


GLOBAL_SAMPLE = np.arange(12.0).reshape(3, 4).copy()   # owns its data


def test_sample_never_aliases_a_callers_array():
    # a global, a closure's cached array, a view, a read-only and an F-ordered array are copied
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (3, 4))
    cached = np.arange(12.0).reshape(3, 4).copy()
    frozen = cached.copy()
    frozen.setflags(write=False)
    wide = np.arange(24.0).reshape(3, 8)
    for held in (GLOBAL_SAMPLE, cached, wide[:, ::2], frozen, np.asfortranarray(cached)):
        before = held.copy()
        out = sample_grid(grid, lambda x1, x2: held)
        assert not np.shares_memory(out, held)
        assert np.array_equal(out, held.reshape(-1))
        out[:] = -1.0
        assert np.array_equal(held, before)


@pytest.mark.parametrize("fn", [
    lambda x1, x2: 4.5, lambda x1, x2: x1, lambda x1, x2: x2, lambda x1, x2: x1 * x2,
    lambda x1, x2: np.ones((3, 4), dtype=int), lambda x1, x2: np.asfortranarray(x1 * x2),
    lambda x1, x2: GLOBAL_SAMPLE], ids=["scalar", "x1-only", "x2-only", "fresh", "int",
                                        "f-ordered", "global"])
def test_every_sample_is_a_fresh_writeable_vector(fn):
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (3, 4))
    out = sample_grid(grid, fn)
    assert out.shape == (12,) and out.dtype == np.float64
    assert out.flags.c_contiguous and out.flags.writeable


@pytest.mark.parametrize("fn, bound", [
    (lambda x1, x2: 2.0 * x1, 1.3), (lambda x1, x2: 2.0 * x2, 1.3), ("u0", 2.1)],
    ids=["x1-only", "x2-only", "full-size"])
def test_sample_writes_once(fn, bound):
    # a result with an axis of length 1 is written once at full size (it was twice);
    # a full-size result is fn's own array plus the one copy
    prob = example2_problem(255, (1.5, 1.9))
    fn = prob.u0 if fn == "u0" else fn
    sample_grid(prob.grid, fn)
    assert traced_peak(sample_grid, prob.grid, fn) <= bound * 8 * prob.grid.size


# ---------------------------------------------------------------------------
# single steps

def scalar_problem():
    return FractionalProblem(
        grid=GridSpec((0.0,), (1.0,), (1,)),
        params=FractionalParams((1.5,), (1.0,), (1.0,), SECOND_ORDER),
        T=1.0, M=4,
        source=lambda x, t: 3.0 + t + 0.0 * x,
        u0=lambda x: 2.0 + 0.0 * x,
    )


def test_problem_invariants():
    prob = scalar_problem()
    assert prob.nu * prob.tau_step == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        FractionalProblem(prob.grid, prob.params, 1.0, 0, prob.source, prob.u0)
    for T, M in ((np.nan, 4), (np.inf, 4), (-1.0, 4), (1.0, 2.5), (1.0, np.nan)):
        with pytest.raises(ValueError):
            FractionalProblem(prob.grid, prob.params, T, M, prob.source, prob.u0)
    assert FractionalProblem(prob.grid, prob.params, 1.0, 4.0, prob.source, prob.u0).M == 4


def test_problem_refuses_a_non_finite_nu():
    # nu = M/T overflows for a tiny T or an M past the float range: refused here, by the names
    # the caller passed
    prob = scalar_problem()
    for T, M in ((1e-320, 1), (1e-300, 10 ** 9), (1.0, 10 ** 400)):
        with pytest.raises(ValueError, match=f"M/T must be finite, got M = {M} and T = {T}"):
            FractionalProblem(prob.grid, prob.params, T, M, prob.source, prob.u0)
    assert FractionalProblem(prob.grid, prob.params, 1e-308, 1, prob.source, prob.u0).nu < math.inf


def test_second_order_zero_step():
    prob = FractionalProblem(
        grid=GridSpec((0.0,), (1.0,), (7,)),
        params=FractionalParams((1.5,), (1.0,), (2.0,), SECOND_ORDER),
        T=1.0, M=8,
        source=lambda x, t: 0.0 * x,
        u0=lambda x: 0.0 * x,
    )
    A = assemble_operator(prob.params, prob.grid, prob.nu)
    P = build_preconditioner(prob.params, prob.grid, prob.nu)
    u1, rep = step_second_order(prob, A, P, np.zeros(7), 0.0)
    assert np.array_equal(u1, np.zeros(7))
    assert rep.iters <= 1
    assert rep.converged


def test_second_order_scalar_closed_form():
    prob = scalar_problem()
    A = assemble_operator(prob.params, prob.grid, prob.nu)
    P = build_preconditioner(prob.params, prob.grid, prob.nu)
    u0 = sample_grid(prob.grid, prob.u0)
    u1, rep = step_second_order(prob, A, P, u0, 0.0, MinresConfig(tol=1e-13))
    B = 2.0 * (1.0 / (2.0 * 0.5 ** 1.5)) * 0.875
    nu = prob.nu
    # the source 3 + t is sampled at the midpoint tau/2
    expect = ((nu - B) * 2.0 + 3.0 + 0.5 * prob.tau_step) / (nu + B)
    assert u1[0] == pytest.approx(expect, abs=1e-13)
    assert rep.step == 1
    assert rep.err_inf is None


def test_second_order_rejects_first_order_params():
    prob = example1_problem(3, (1.5, 1.5))
    A = assemble_operator(prob.params, prob.grid, prob.nu)
    with pytest.raises(ValueError):
        step_second_order(prob, A, None, np.zeros(9), 0.0)


def test_first_order_zero_step():
    prob = FractionalProblem(
        grid=GridSpec((0.0,), (1.0,), (5,)),
        params=FractionalParams((1.5,), (1.0,), (2.0,), FIRST_ORDER),
        T=1.0, M=8,
        source=lambda x, t: 0.0 * x,
        u0=lambda x: 0.0 * x,
    )
    A = assemble_operator(prob.params, prob.grid, prob.nu)
    u1, rep = step_first_order(prob, A, None, np.zeros(5), prob.tau_step)
    assert np.array_equal(u1, np.zeros(5))
    assert rep.iters <= 1
    assert rep.converged


def test_stalled_solve_reports_an_unmoved_residual():
    # A = 0 stalls MINRES in its first iteration with an empty history: the
    # residual is the right-hand side's, relres 1, not 0
    prob = example1_problem(3, (1.5, 1.5))
    A = MultilevelOperator(prob.grid.n, 0.0,
                           [Toeplitz1D(np.zeros(m), np.zeros(m)) for m in prob.grid.n])
    u1, rep = step_first_order(prob, A, None, np.ones(prob.grid.size), prob.tau_step)
    assert (rep.iters, rep.converged, rep.relres) == (0, False, 1.0)
    assert np.array_equal(u1, np.zeros(prob.grid.size))


def test_first_order_scalar_closed_form():
    prob = FractionalProblem(
        grid=GridSpec((0.0,), (1.0,), (1,)),
        params=FractionalParams((1.5,), (1.0,), (1.0,), FIRST_ORDER),
        T=1.0, M=4,
        source=lambda x, t: 3.0 + t + 0.0 * x,
        u0=lambda x: 2.0 + 0.0 * x,
    )
    A = assemble_operator(prob.params, prob.grid, prob.nu)
    u_prev = sample_grid(prob.grid, prob.u0)
    u1, rep = step_first_order(prob, A, None, u_prev, prob.tau_step,
                               MinresConfig(tol=1e-13))
    # (nu + B) u1 = nu*u0 + f(tau) with B = 2 * (1/0.5^1.5) * 1.5 (first-order scaling)
    B = 2.0 * (1.0 / 0.5 ** 1.5) * 1.5
    expect = (prob.nu * 2.0 + 3.0 + prob.tau_step) / (prob.nu + B)
    assert u1[0] == pytest.approx(expect, abs=1e-13)
    assert rep.step == 1


def test_example1_first_step_converges():
    prob = example1_problem(15, (1.5, 1.5))
    A = assemble_operator(prob.params, prob.grid, prob.nu)
    P = build_preconditioner(prob.params, prob.grid, prob.nu)
    u1, rep = step_first_order(prob, A, P, np.zeros(prob.grid.size), prob.tau_step)
    assert rep.converged
    assert rep.err_inf is None
    assert np.max(np.abs(u1)) > 0


def test_example2_first_step_error_matches_frozen_run():
    prob = example2_problem(15, (1.5, 1.5))
    A = assemble_operator(prob.params, prob.grid, prob.nu)
    P = build_preconditioner(prob.params, prob.grid, prob.nu)
    u0 = sample_grid(prob.grid, prob.u0)
    u1, rep = step_second_order(prob, A, P, u0, 0.0)
    assert rep.converged
    assert rep.err_inf is not None
    # frozen from the dense-verified reference run of this implementation;
    # coarse-grid error is pre-asymptotic, an order above the fine-grid trend
    assert rep.err_inf == pytest.approx(0.015322140913161822, rel=1e-6)


def test_solves_never_import_scipy():
    # scipy would bring a second OpenBLAS (~22 MB of RSS): importing the package, a first
    # step, a march and a dense spectrum (numpy's own LAPACK) must leave it unimported
    out = run_fresh("""
import sys
from taumres.pde import example2_problem, first_step_row, run_steps, setup_operators
from taumres.spectrum import preconditioned_spectrum
problem = example2_problem(15, (1.5, 1.5))
first_step_row(problem, "tau", 1e-8, 100)
run_steps(problem)
preconditioned_spectrum(*setup_operators(problem, "tau"), problem.params)
print("scipy" in sys.modules)
""")
    assert out.split() == ["False"]


def test_symmetric_degeneracy_matches_direct_solve(rng):
    # d+ = d- makes A symmetric: solving YAx = Yb must agree with MINRES on A
    params = FractionalParams((1.5, 1.7), (1.0, 2.0), (1.0, 2.0), SECOND_ORDER)
    grid = GridSpec((0, 0), (1, 1), (7, 7))
    A = assemble_operator(params, grid, 5.0)
    dense = A.materialize()
    assert np.array_equal(dense, dense.T)
    b = rng.standard_normal(49)
    via_flip = pminres(A.apply_symmetrized, None, b[::-1].copy(),
                       MinresConfig(tol=1e-12, maxit=300))
    direct = pminres(A.apply, None, b, MinresConfig(tol=1e-12, maxit=300))
    assert via_flip.converged and direct.converged
    assert np.max(np.abs(via_flip.x - direct.x)) <= 1e-9 * max(np.max(np.abs(direct.x)), 1.0)


def first_step_setup(example, n1, preconditioner):
    # operators, initial data and the paper's x0 = 1/sqrt(n): the caller's arrays
    prob = example(n1, (1.5, 1.5))
    A, P = setup_operators(prob, preconditioner)
    n = prob.grid.size
    cfg = MinresConfig(tol=1e-8, maxit=1000, x0=np.full(n, 1.0 / math.sqrt(n)))
    u0 = sample_grid(prob.grid, prob.u0)
    if example is example2_problem:
        return lambda: step_second_order(prob, A, P, u0, 0.0, cfg)
    return lambda: step_first_order(prob, A, P, u0, prob.tau_step, cfg)


@pytest.mark.parametrize("example, preconditioner, bound", [
    (example2_problem, "tau", 12.75),
    (example1_problem, "identity", 11.25),
])
def test_first_step_working_set(example, preconditioner, bound):
    # beyond the caller's arrays a solve holds x, b, the six MINRES buffers
    # and one operator's output and temporaries; no right-hand side in the
    # steppers and no workspace at the closing A x
    step = first_step_setup(example, 127, preconditioner)
    step()   # the operators' cached kernels and sine blocks are built once
    assert traced_peak(step) <= bound * 8 * 127 ** 2


def test_steps_solve_the_flipped_right_hand_side():
    # the documented right-hand sides, flipped, give the steppers' iterates byte for byte
    prob = example2_problem(15, (1.5, 1.9))
    A, P = setup_operators(prob, "tau")
    u0 = sample_grid(prob.grid, prob.u0)
    n, tau = prob.grid.size, prob.tau_step
    cfg = MinresConfig(tol=1e-10, maxit=100, x0=np.full(n, 1.0 / math.sqrt(n)))
    b = 2.0 * prob.nu * u0 - A.apply(u0) + sample_grid(prob.grid, prob.source, 0.5 * tau)
    x, _ = step_second_order(prob, A, P, u0, 0.0, cfg)
    ref = pminres(A.apply_symmetrized, P.apply_inverse, flip(A.dims, b), cfg).x
    assert x.tobytes() == ref.tobytes()

    prob = example1_problem(15, (1.9, 1.1))
    A, _ = setup_operators(prob, "identity")
    b = prob.nu * x + sample_grid(prob.grid, prob.source, prob.tau_step)
    y, _ = step_first_order(prob, A, None, x, prob.tau_step, cfg)
    assert y.tobytes() == pminres(A.apply_symmetrized, None, flip(A.dims, b), cfg).x.tobytes()


# ---------------------------------------------------------------------------
# first-step rows

def test_example1_first_step_row_shape():
    prob = example1_problem(9, (1.5, 1.5))
    rows = [first_step_row(prob, pc, 1e-8, 100) for pc in ("tau", "identity")]
    assert [r["preconditioner"] for r in rows] == ["tau", "identity"]
    for r in rows:
        assert r["n"] == 81
        assert r["err_inf"] is None
        assert r["iters"] >= 1
        assert r["wall_seconds"] > 0
    assert rows[0]["iters"] < rows[1]["iters"]


def test_example2_first_step_row_shape():
    row = first_step_row(example2_problem(9, (1.9, 1.9)), "tau", 1e-8, 100)
    assert row["preconditioner"] == "tau"
    assert row["converged"] is True
    assert row["err_inf"] > 0
    assert row["relres"] <= 1e-8


def test_example1_mesh_independence_sample():
    its = []
    for n1 in (31, 63):
        row = first_step_row(example1_problem(n1, (1.5, 1.5)), "tau", 1e-8, 100)
        assert row["converged"]
        its.append(row["iters"])
    assert abs(its[0] - its[1]) <= 2
    assert max(its) <= 16


def test_example2_error_ratio_sample():
    errs = []
    for n1 in (63, 127):
        row = first_step_row(example2_problem(n1, (1.5, 1.5)), "tau", 1e-8, 100)
        errs.append(row["err_inf"])
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def manual_march(prob, step, t_of_k):
    A = assemble_operator(prob.params, prob.grid, prob.nu)
    P = build_preconditioner(prob.params, prob.grid, prob.nu)
    v = sample_grid(prob.grid, prob.u0)
    reports = []
    for k in range(prob.M):
        v, rep = step(prob, A, P, v, t_of_k(k))
        reports.append(rep)
    return v, reports


def test_run_steps_marches_and_tracks_error():
    prob = dataclasses.replace(example2_problem(7, (1.5, 1.5)), M=3)
    u, reports = run_steps(prob)
    assert [r.step for r in reports] == [1, 2, 3]
    assert all(r.converged and r.err_inf > 0 for r in reports)
    # step by step the same as manual Crank-Nicolson steps from t_k = k tau
    v, manual = manual_march(prob, step_second_order, lambda k: k * prob.tau_step)
    assert np.array_equal(u, v)
    assert reports == manual


def test_run_steps_first_order():
    prob = dataclasses.replace(example1_problem(5, (1.5, 1.9)), M=3)
    u, reports = run_steps(prob)
    assert [r.step for r in reports] == [1, 2, 3]
    assert all(r.converged and r.err_inf is None for r in reports)
    # step by step the same as manual backward Euler steps onto t = (k+1) tau
    v, manual = manual_march(prob, step_first_order, lambda k: (k + 1) * prob.tau_step)
    assert np.array_equal(u, v)
    assert reports == manual
    assert np.max(np.abs(u)) > 0


def test_first_step_row_needs_a_2d_problem(monkeypatch):
    def one_d(x, t=0.0):
        return 0.0 * x

    def three_d(x1, x2, x3, t=0.0):
        return 0.0 * x1 * x2 * x3

    flat = FractionalProblem(GridSpec((0.0,), (1.0,), (7,)),
                             FractionalParams((1.5,), (1.0,), (1.0,)), 1.0, 8, one_d, one_d)
    cube = FractionalProblem(GridSpec((0.0,) * 3, (1.0,) * 3, (5, 5, 5)),
                             FractionalParams((1.5,) * 3, (1.0,) * 3, (1.0,) * 3),
                             1.0, 6, three_d, three_d)
    # refused before any set-up
    monkeypatch.setattr(pde, "setup_operators", None)
    for prob, d in ((flat, 1), (cube, 3)):
        with pytest.raises(ValueError, match=f"{d}-D"):
            first_step_row(prob, "tau", 1e-8, 100)


def test_unknown_preconditioner_rejected():
    prob = example2_problem(3, (1.5, 1.5))
    for bad in ("Tau", "none", None):
        with pytest.raises(ValueError, match="unknown preconditioner"):
            run_steps(prob, preconditioner=bad)
        with pytest.raises(ValueError, match="unknown preconditioner"):
            first_step_row(prob, bad, 1e-8, 100)


@pytest.mark.parametrize("prob", [
    example1_problem(15, (1.1, 1.9)), example2_problem(15, (1.5, 1.9)),
    FractionalProblem(GridSpec((0,) * 3, (1,) * 3, (4, 5, 6)),
                      FractionalParams((1.5, 1.3, 1.7), (1.0, 0.0, 2.0), (1.0, 0.0, 0.5)),
                      1.0, 3, lambda *x: 0.0, lambda *x: 0.0),
], ids=["example1", "example2", "3d-one-off"])
def test_setup_builds_each_grunwald_block_once(prob, monkeypatch):
    # one Toeplitz1D per direction, the operator's own level: no throwaway
    # Grünwald block, and none for the preconditioner, which reads the
    # same per-direction columns and rows
    made = []
    init = Toeplitz1D.__init__
    monkeypatch.setattr(Toeplitz1D, "__init__", lambda self, *a: made.append(self) or init(self, *a))
    A, _ = setup_operators(prob, "tau")
    assert len(made) == len(prob.grid.n)
    assert all(K is level for K, level in zip(made, A.levels))
    made.clear()
    build_preconditioner(prob.params, prob.grid, prob.nu)
    assert made == []
