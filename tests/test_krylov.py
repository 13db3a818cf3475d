import math
import weakref

import numpy as np
import pytest

from taumres import transforms
from taumres.krylov import (BreakdownError, MinresConfig, MinresResult, bound_curve,
                            pminres)
from taumres.pde import example1_problem, example2_problem, flip, sample_grid, setup_operators

from conftest import rel_err, run_fresh


def dense_op(A):
    return lambda v: A @ v


def test_identity_system_one_iteration(rng):
    b = rng.standard_normal(6)
    res = pminres(dense_op(np.eye(6)), None, b)
    assert res.converged
    assert res.iters == 1
    assert np.max(np.abs(res.x - b)) <= 1e-12


def test_indefinite_2x2_exact_in_two(rng):
    A = np.diag([1.0, -1.0])
    res = pminres(dense_op(A), None, np.array([1.0, 1.0]), MinresConfig(tol=1e-12))
    assert res.converged
    assert res.iters <= 2
    assert res.x == pytest.approx([1.0, -1.0], abs=1e-12)


def test_ideal_preconditioner_one_iteration(rng):
    Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    A = Q @ np.diag(rng.uniform(0.5, 9.0, 12)) @ Q.T
    b = rng.standard_normal(12)
    res = pminres(dense_op(A), lambda v: np.linalg.solve(A, v), b, MinresConfig(tol=1e-10))
    assert res.converged
    assert res.iters == 1
    assert np.linalg.norm(A @ res.x - b) <= 1e-8 * np.linalg.norm(b)


@pytest.mark.parametrize("n", (4, 16, 32))
def test_krylov_finite_termination(n, rng):
    # without reorthogonalization the exact n-step termination slips by a
    # few Lanczos-drift iterations (the stock reference solver matches
    # this behaviour to within one iteration on identical systems)
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    res = pminres(dense_op(A), None, b, MinresConfig(tol=1e-12, maxit=n + 12))
    assert res.converged
    assert res.true_relres <= 1e-10


def test_krylov_exact_termination_well_separated():
    # a clean +-cluster spectrum retains n-step termination in floating point
    ev = np.array([1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = Q @ np.diag(ev) @ Q.T
    b = rng.standard_normal(6)
    res = pminres(dense_op(A), None, b, MinresConfig(tol=1e-12, maxit=6))
    assert res.converged
    assert res.iters <= 6


def test_history_monotone_and_true_residual_consistent(rng):
    n = 40
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    res = pminres(dense_op(A), None, b, MinresConfig(tol=1e-9, maxit=200))
    hist = np.array(res.relres_history)
    assert np.all(np.diff(hist) <= 1e-14)
    assert res.converged
    assert res.true_relres <= 10 * 1e-9


def test_preconditioned_equals_plain_for_identity_preconditioner(rng):
    n = 24
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    r1 = pminres(dense_op(A), None, b, MinresConfig(tol=1e-10, maxit=n))
    r2 = pminres(dense_op(A), lambda v: v.copy(), b, MinresConfig(tol=1e-10, maxit=n))
    assert r1.iters == r2.iters
    assert np.max(np.abs(r1.x - r2.x)) <= 1e-12


def test_spd_preconditioner_accelerates(rng):
    n = 48
    ev = np.concatenate((np.linspace(1, 2, n - 1), [4000.0]))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(ev) @ Q.T
    b = rng.standard_normal(n)
    plain = pminres(dense_op(A), None, b, MinresConfig(tol=1e-10, maxit=200))
    precond = pminres(dense_op(A), lambda v: v / ev.mean(), b,
                      MinresConfig(tol=1e-10, maxit=200))
    assert precond.converged and plain.converged
    # diagonal scaling alone cannot hurt here
    assert precond.iters <= plain.iters + 2


def test_zero_rhs_returns_immediately():
    res = pminres(dense_op(np.eye(3)), None, np.zeros(3))
    assert res.converged
    assert res.iters == 0
    assert np.array_equal(res.x, np.zeros(3))
    assert res.true_relres == 0.0
    # with b = 0 an x0 can leave a residual: true_relres is then absolute
    A = np.diag([1.0, 2.0, 3.0])
    res = pminres(dense_op(A), None, np.zeros(3), MinresConfig(maxit=1, x0=np.ones(3)))
    assert not res.converged
    assert res.true_relres == np.linalg.norm(A @ res.x) > 0.5


def test_nonzero_initial_guess(rng):
    A = np.diag([3.0, -1.0, 2.0, 5.0])
    x_true = rng.standard_normal(4)
    b = A @ x_true
    res = pminres(dense_op(A), None, b, MinresConfig(tol=1e-12, maxit=10, x0=x_true))
    assert res.converged
    assert res.iters == 0
    res = pminres(dense_op(A), None, b,
                  MinresConfig(tol=1e-12, maxit=10, x0=rng.standard_normal(4)))
    assert res.converged
    assert np.max(np.abs(res.x - x_true)) <= 1e-9


def test_maxit_reached_returns_result(rng):
    n = 60
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    res = pminres(dense_op(A), None, b, MinresConfig(tol=1e-14, maxit=3))
    assert isinstance(res, MinresResult)
    assert not res.converged
    assert res.iters == 3
    assert len(res.relres_history) == 3


def test_non_spd_preconditioner_breaks_down(rng):
    n = 8
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    with pytest.raises(BreakdownError):
        pminres(dense_op(A), lambda v: -v, b)
    with pytest.raises(BreakdownError):
        pminres(dense_op(A), lambda v: np.zeros_like(v), b)


def test_singular_operator_stops_cleanly(rng):
    b = rng.standard_normal(5)
    res = pminres(lambda v: np.zeros_like(v), None, b, MinresConfig(maxit=10))
    assert not res.converged
    assert np.all(np.isfinite(res.x))
    assert res.true_relres == pytest.approx(1.0, abs=1e-12)


def test_non_finite_input_rejected(rng):
    b = rng.standard_normal(5)
    b[2] = np.nan
    with pytest.raises(ValueError):
        pminres(dense_op(np.eye(5)), None, b)
    x0 = np.zeros(5)
    x0[0] = np.inf
    with pytest.raises(ValueError):
        pminres(dense_op(np.eye(5)), None, np.ones(5), MinresConfig(x0=x0))


@pytest.mark.parametrize("b", (np.float64(1.0), np.ones((3, 3))), ids=("0-d", "3x3"))
def test_rhs_that_is_not_a_vector_rejected(b):
    # refused before the first product, not by an IndexError or TypeError
    # from inside the recurrence
    def never(x):
        raise AssertionError("no product may run")

    with pytest.raises(ValueError, match="1-D vector"):
        pminres(never, never, b)


def test_non_finite_operator_output_breaks_down(rng):
    # a diagonal operator that returns a NaN from its 4th call on; without the
    # check the iteration would run to maxit and return NaN residuals
    d = np.linspace(1.0, 10.0, 50)
    calls = []

    def apply_a(v):
        calls.append(1)
        out = d * v
        if len(calls) >= 4:
            out[0] = np.nan
        return out

    with pytest.raises(BreakdownError):
        pminres(apply_a, None, rng.standard_normal(50), MinresConfig(tol=1e-14, maxit=100))
    assert len(calls) <= 4
    with pytest.raises(BreakdownError):
        pminres(dense_op(np.eye(5)), lambda r: np.full_like(r, np.inf), np.ones(5))


def test_reused_output_buffers_match_fresh_arrays(rng):
    # the recurrences run in place on solver-owned buffers, so an operator or
    # preconditioner that hands back one reused buffer must give bit for bit
    # the result of one that returns fresh arrays; b and x0 stay untouched
    n = 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(rng.uniform(-4.0, 6.0, n)) @ Q.T
    M = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    b_copy, x0_copy = b.copy(), x0.copy()

    def reused(K):
        out = np.empty(n)
        return lambda v: np.matmul(K, v, out=out)

    cfg = MinresConfig(tol=1e-12, maxit=60, x0=x0)
    for pinv_fresh, pinv_reused in ((None, None), (dense_op(M), reused(M))):
        fresh = pminres(dense_op(A), pinv_fresh, b, cfg)
        again = pminres(reused(A), pinv_reused, b, cfg)
        assert fresh.iters > 2
        assert np.array_equal(again.x, fresh.x)
        assert again.relres_history == fresh.relres_history
        assert again.true_relres == fresh.true_relres
    assert np.array_equal(b, b_copy)
    assert np.array_equal(x0, x0_copy)


def test_strided_operator_output_is_read_by_value(rng):
    # the BLAS passes read q as raw memory, so an operator output that is a strided view
    # must give bit for bit the result of a contiguous one
    n = 40
    A = rng.standard_normal((n, n))
    A = A + A.T
    b = rng.standard_normal(n)

    def strided(v):
        out = np.zeros(2 * n)
        out[::2] = A @ v
        return out[::2]

    cfg = MinresConfig(tol=1e-12, maxit=60)
    want, got = pminres(dense_op(A), None, b, cfg), pminres(strided, None, b, cfg)
    assert want.iters > 2
    assert got.x.tobytes() == want.x.tobytes()
    assert got.relres_history == want.relres_history

def test_config_validation():
    for bad in ({"tol": 0.0}, {"tol": np.inf}, {"tol": np.nan}, {"maxit": 0},
                {"maxit": 2.5}, {"maxit": np.inf}, {"maxit": np.nan}):
        with pytest.raises(ValueError):
            MinresConfig(**bad)
    assert pminres(dense_op(np.eye(3)), None, np.ones(3), MinresConfig(maxit=3.0)).converged
    with pytest.raises(ValueError):
        pminres(dense_op(np.eye(3)), None, np.zeros(3),
                MinresConfig(x0=np.zeros(4)))


def test_bound_curve_frozen_values():
    curve = bound_curve(0.0, 4)
    assert curve[0] == 2.0
    assert curve[2] == pytest.approx(1.0, abs=1e-15)
    curve = bound_curve(0.6, 4)
    rho = 3.8 / 5.8
    assert curve[4] == pytest.approx(2.0 * rho ** 2, abs=1e-15)
    assert curve[4] == pytest.approx(0.8585017835909632, abs=1e-12)
    with pytest.raises(ValueError):
        bound_curve(-1.0, 4)


def test_bound_curve_shape_and_monotone():
    curve = bound_curve(0.25, 9)
    assert curve.shape == (10,)
    assert np.all(np.diff(curve) <= 0)


def test_preconditioner_output_dies_before_the_next_product(rng):
    # z is scaled into the solver's own buffer and dropped, so no earlier
    # P^-1 output is alive while A runs, the closing A x included
    n = 30
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(rng.uniform(-4.0, 6.0, n)) @ Q.T
    M = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
    outputs, alive = [], []

    def apply_a(v):
        alive.append(sum(ref() is not None for ref in outputs))
        return A @ v

    def apply_pinv(v):
        z = M @ v
        outputs.append(weakref.ref(z))
        return z

    res = pminres(apply_a, apply_pinv, rng.standard_normal(n),
                  MinresConfig(tol=1e-12, maxit=60, x0=rng.standard_normal(n)))
    assert res.iters > 5
    assert len(alive) == res.iters + 2 and len(outputs) == res.iters + 1
    assert alive == [0] * len(alive)


def first_step_system(example, preconditioner):
    # the first-step system at n1 = 31 (alpha (1.5, 1.5)) with the paper's x0 = 1/sqrt(n)
    prob = example(31, (1.5, 1.5))
    A, P = setup_operators(prob, preconditioner)
    b = flip(A.dims, sample_grid(prob.grid, prob.u0))
    cfg = MinresConfig(tol=1e-8, maxit=100, x0=np.full(b.size, 1.0 / math.sqrt(b.size)))
    return A.apply_symmetrized, None if P is None else P.apply_inverse, b, cfg


@pytest.mark.parametrize("example, preconditioner, tol", [
    (example1_problem, "identity", 1e-9), (example2_problem, "tau", 1e-13)],
    ids=["example1", "example2"])
def test_numpy_kernels_match_the_blas_ones(example, preconditioner, tol, monkeypatch):
    # a numpy without scipy-openblas runs the same recurrences as numpy operations: the
    # same iterations, and x to rounding.  OpenBLAS's daxpy rounds y + a x once (a fused
    # multiply-add), numpy twice; 100 unpreconditioned iterations amplify that to about
    # 3e-11 in x
    system = first_step_system(example, preconditioner)
    want = pminres(*system)
    monkeypatch.setattr(transforms, "_openblas", lambda: None)
    got = pminres(*system)
    assert (got.iters, got.converged) == (want.iters, want.converged)
    assert len(got.relres_history) == len(want.relres_history) == want.iters
    assert rel_err(got.x, want.x) <= tol
    assert got.true_relres == pytest.approx(want.true_relres, rel=1e-6)


class CountingBlas:
    """numpy's OpenBLAS with every ``dscal`` and ``daxpy`` call counted."""

    def __init__(self, lib):
        self.lib, self.calls = lib, {"scipy_dscal_64_": 0, "scipy_daxpy_64_": 0}

    def __getattr__(self, name):
        routine = getattr(self.lib, name)

        def counted(*args):
            self.calls[name] += 1
            return routine(*args)
        return counted


def test_recurrences_run_the_blas_numpy_ships(monkeypatch):
    # with a numpy wheel's scipy-openblas every iteration is two dscal and five daxpy
    # passes into it, and a solve imports no scipy; only a numpy on another BLAS takes
    # the numpy kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    lib = transforms._openblas()
    assert (lib is not None) == (blas == "scipy-openblas")
    if lib is None:
        return
    system = first_step_system(example2_problem, "tau")
    want = pminres(*system)
    counting = CountingBlas(lib)
    monkeypatch.setattr(transforms, "_openblas", lambda: counting)
    got = pminres(*system)
    assert counting.calls == {"scipy_dscal_64_": 2 * want.iters,
                              "scipy_daxpy_64_": 5 * want.iters}
    assert got.x.tobytes() == want.x.tobytes()
    out = run_fresh("""
import sys
import numpy as np
from taumres.krylov import pminres
pminres(lambda v: 2.0 * v, lambda r: 0.5 * r, np.ones(50))
print("scipy" in sys.modules)
""")
    assert out.split() == ["False"]
