"""Acceptance suite: one test per numbered criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success) and asserts the criterion at its stated tolerance.
Desk-scale grids (n = 225, 961) keep every dense verification cheap.
Iterative checks run on larger grids: criterion 9 up to n1 = 255, and
criterion 10's iteration window on the grids its bound was calibrated
for, n1 = 255, 511, 1023 (n up to about 1.05M).
CPU timings are out of scope.
"""

import math
import time

import numpy as np
import pytest

from taumres.discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams,
                                    GridSpec, assemble_operator,
                                    epsilon_bound, grunwald_g, weights_second)
from taumres.krylov import MinresConfig, bound_curve, pminres
from taumres.pde import (example1_problem, example2_problem, first_step_row, run_steps,
                         sample_grid)
from taumres.spectrum import (equivalence_spectrum, ideal_preconditioned_spectrum,
                              preconditioned_spectrum)
from taumres.tau import build_preconditioner
from taumres.toeplitz import MultilevelOperator, Toeplitz1D
from taumres.transforms import dst1_multi

from conftest import (grunwald_block, rel_err, sine_matrix, symbol_closed, symbol_series,
                      tau_dense_oracle, toeplitz_dense, two_sided)

ALPHA_VALUES = (1.1, 1.5, 1.9)
ALPHA_PAIRS = tuple((a, b) for a in ALPHA_VALUES for b in ALPHA_VALUES)
SCHEMES = (FIRST_ORDER, SECOND_ORDER)
EX1 = ((2.0, 0.3), (0.5, 1.0))
EX2 = ((3.0, 2.0), (1.0, 1.0))


def report(num, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violation(s))"
    print(f"\n[acceptance] criterion {num}: {status}")
    assert not failures, f"criterion {num}:\n" + "\n".join(failures)


def example_params(coeffs, alphas, scheme):
    return FractionalParams(alphas, coeffs[0], coeffs[1], scheme)


def example_setup(coeffs, alphas, scheme, n1):
    """Operator and preconditioner of the matching experiment's first step."""
    params = example_params(coeffs, alphas, scheme)
    if coeffs is EX1:
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (n1, n1))
        nu = float(math.ceil(n1 ** alphas[0]))
    else:
        grid = GridSpec((0.0, 0.0), (2.0, 2.0), (n1, n1))
        nu = float(n1 + 1)
    A = assemble_operator(params, grid, nu)
    P = build_preconditioner(params, grid, nu)
    return params, A, P


def test_criterion_01_transform_correctness():
    rng = np.random.default_rng(1)
    failures = []
    t0 = time.perf_counter()
    for m in (1, 3, 7, 15, 31, 63, 255, 511):
        S = sine_matrix(m)
        for _ in range(100):
            x = rng.standard_normal(m)
            y = dst1_multi((m,), x)
            if np.max(np.abs(dst1_multi((m,), y) - x)) > 1e-12 * max(np.max(np.abs(x)), 1.0):
                failures.append(f"involution failed at m={m}")
            if abs(np.linalg.norm(y) - np.linalg.norm(x)) > 1e-12 * np.linalg.norm(x):
                failures.append(f"Parseval failed at m={m}")
            if rel_err(y, S @ x) > 1e-13:
                failures.append(f"fft vs direct exceeded 1e-13 at m={m}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 5s")
    report(1, failures)


def test_criterion_02_operator_oracle_equivalence():
    rng = np.random.default_rng(2)
    failures = []
    t0 = time.perf_counter()
    for k in range(50):
        d = int(rng.integers(1, 4))
        hi = {1: 1025, 2: 64, 3: 17}[d]
        while True:
            dims = tuple(int(rng.integers(1, hi)) for _ in range(d))
            if int(np.prod(dims)) <= 4096:
                break
        levels = []
        for m in dims:
            col = rng.standard_normal(m)
            row = np.concatenate((col[:1], rng.standard_normal(m - 1))) if m > 1 else col
            levels.append(two_sided(Toeplitz1D(col, row), rng.uniform(0, 3), rng.uniform(0, 3)))
        A = MultilevelOperator(dims, rng.uniform(0, 5), levels)
        dense = A.materialize()
        x = rng.standard_normal(A.n)
        if rel_err(A.apply(x), dense @ x) > 1e-11:
            failures.append(f"config {k} dims={dims}: apply vs dense exceeded 1e-11")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 60s")
    report(2, failures)


def test_criterion_03_symmetrization():
    failures = []
    for scheme, coeffs in ((FIRST_ORDER, EX1), (SECOND_ORDER, EX2)):
        for n1 in (15, 31):
            _, A, _ = example_setup(coeffs, (1.5, 1.5), scheme, n1)
            dense = A.materialize()
            ya = dense[::-1, :]
            defect = np.max(np.abs(ya - ya.T))
            if defect > 1e-13 * np.max(np.abs(ya)):
                failures.append(f"{scheme} dims ({n1},{n1}): defect {defect:.2e}")
    report(3, failures)


def test_criterion_04_coefficient_lemma_suite():
    rng = np.random.default_rng(4)
    failures = []
    for alpha in 1.0 + rng.uniform(0.01, 0.99, 50):
        w = weights_second(alpha, 1000)
        if abs(w[0] - alpha / 2) > 1e-13:
            failures.append(f"alpha={alpha}: w0 != alpha/2")
        if not w[1] < 0 or abs(w[1] - (2 - alpha - alpha ** 2) / 2) > 1e-13:
            failures.append(f"alpha={alpha}: w1 sign/closed form")
        if abs(w[2] - alpha * (alpha ** 2 + alpha - 4) / 4) > 1e-13:
            failures.append(f"alpha={alpha}: w2 closed form")
        if not (1.0 >= w[0] >= w[3]) or np.any(np.diff(w[3:]) > 1e-16) or np.any(w[3:] < 0):
            failures.append(f"alpha={alpha}: monotonicity 1 >= w0 >= w3 >= ... >= 0")
        if not np.all(np.cumsum(w)[2:] < 0):
            failures.append(f"alpha={alpha}: partial sums not negative")
        g = grunwald_g(alpha, 1000)
        if g[0] != 1.0 or abs(g[1] + alpha) > 1e-13 or np.any(g[2:] <= 0) \
                or np.any(np.diff(g[2:]) >= 0):
            failures.append(f"alpha={alpha}: first-order table invariants")
    report(4, failures)


def test_criterion_05_symbol_consistency():
    failures = []
    thetas = (np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2, 3 * np.pi / 4, -3 * np.pi / 4)
    for scheme in SCHEMES:
        table_of = grunwald_g if scheme == FIRST_ORDER else weights_second
        for alpha in ALPHA_VALUES:
            tab = table_of(alpha, 10 ** 4 + 2)
            for th in thetas:
                closed = symbol_closed(alpha, th, scheme)
                if abs(symbol_series(tab, th, 10 ** 4) - closed) > 1e-3:
                    failures.append(f"{scheme} alpha={alpha} theta={th:.3f}: series vs closed")
                # the cited positivity lemma requires Re > 0 off theta = 0
                # (the criterion text carries a sign typo; see decisions ledger)
                if not closed.real > 0:
                    failures.append(f"{scheme} alpha={alpha} theta={th:.3f}: Re not positive")
    report(5, failures)


def test_criterion_06_tau_lemma_interval():
    failures = []
    for scheme in SCHEMES:
        for alpha in ALPHA_VALUES:
            for m in (8, 16, 32):
                L = grunwald_block(alpha, m, scheme)
                h = 0.5 * (L.col + L.row)   # first column of the symmetric part
                C = np.linalg.cholesky(tau_dense_oracle(h))
                M = np.linalg.solve(C, np.linalg.solve(C, toeplitz_dense(h).T).T)
                ev = np.linalg.eigvalsh(0.5 * (M + M.T))
                if not (ev.min() > 0.5 + 1e-10 and ev.max() < 1.5 - 1e-10):
                    failures.append(
                        f"{scheme} alpha={alpha} m={m}: eigenvalues "
                        f"[{ev.min():.12f}, {ev.max():.12f}] leave (1/2, 3/2)")
    report(6, failures)


def test_criterion_07_spectral_equivalence():
    failures = []
    for scheme in SCHEMES:
        for coeffs in (EX1, EX2):
            for n1 in (7, 15):
                for alphas in ALPHA_PAIRS:
                    _, A, P = example_setup(coeffs, alphas, scheme, n1)
                    rep = equivalence_spectrum(A, P)
                    if rep.violations:
                        failures.append(
                            f"{scheme} coeffs={coeffs} alphas={alphas} n1={n1}: "
                            f"{rep.violations} violations")
    report(7, failures)


def test_criterion_08_main_theorems():
    failures = []
    t0 = time.perf_counter()
    for scheme, coeffs in ((FIRST_ORDER, EX1), (SECOND_ORDER, EX2)):
        for n1 in (15, 31):
            for alphas in ALPHA_PAIRS:
                params, A, P = example_setup(coeffs, alphas, scheme, n1)
                rep = preconditioned_spectrum(A, P, params)
                if rep.violations:
                    failures.append(f"{scheme} alphas={alphas} n1={n1}: "
                                    f"{rep.violations} violations of the +-(1/2, 3/2(1+eps)) band")
        for n1 in (7, 31):
            for alphas in ALPHA_PAIRS:
                params, A, _ = example_setup(coeffs, alphas, scheme, n1)
                rep = ideal_preconditioned_spectrum(A, params)
                if rep.violations or np.min(np.abs(rep.eigenvalues)) < 1.0 - 1e-8:
                    failures.append(f"{scheme} alphas={alphas} n1={n1}: "
                                    "ideal preconditioner magnitudes")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeded 10 min")
    report(8, failures)


SIZES_EX1 = (31, 63, 127, 255)
IDENTITY_MAXIT = 1000


@pytest.fixture(scope="module")
def example1_counts():
    counts = {}
    for alphas in ALPHA_PAIRS:
        tau_counts, id_counts = [], []
        for n1 in SIZES_EX1:
            problem = example1_problem(n1, alphas)
            tau_counts.append(first_step_row(problem, "tau", 1e-8, 100)["iters"])
            id_counts.append(first_step_row(problem, "identity", 1e-8, IDENTITY_MAXIT)["iters"])
        counts[alphas] = (tau_counts, id_counts)
    return counts


# Plain MINRES needs more iterations under refinement only where the
# spread of A's spectrum grows.  Direction i contributes v_i W_i with
# v_i ~ h^-alpha_i and W_i's eigenvalues between O(h^alpha_i) and O(1), so
# it spans [O(1), O(h^-alpha_i)].  example1_problem takes the time step
# tau = 1/ceil(n1^alpha1), so nu = 1/tau ~ h^-alpha1, and
# cond(A) ~ 1 + C h^(alpha1 - max alpha).  That grows without bound when
# alpha1 < max alpha.  Otherwise it stays bounded: the counts reach a plateau
# and wobble by a few iterations (measured for (1.1, 1.1): 142, 151, 154, 152
# at n1 = 31..255, then 150 at n1 = 511).
def identity_growth_expected(alphas):
    """Whether Example 1's unpreconditioned counts must grow with n1."""
    nu_exponent = alphas[0]
    operator_exponent = max(alphas)
    return operator_exponent > nu_exponent


def test_criterion_09_mesh_independence(example1_counts):
    failures = []
    for alphas, (tau_counts, id_counts) in example1_counts.items():
        if max(tau_counts) - min(tau_counts) > 2:
            failures.append(f"alphas={alphas}: tau counts {tau_counts} spread > 2")
        if max(tau_counts) > 16:
            failures.append(f"alphas={alphas}: tau counts {tau_counts} exceed 16")
        if not all(i > t for i, t in zip(id_counts, tau_counts)):
            failures.append(f"alphas={alphas}: identity counts {id_counts} not larger")
        nus = [example1_problem(n1, alphas).nu for n1 in SIZES_EX1]
        if nus != [math.ceil(n1 ** alphas[0]) for n1 in SIZES_EX1]:
            failures.append(f"alphas={alphas}: nu {nus} no longer ceil(n1^alpha1); "
                            "re-derive where identity counts must grow")
        if identity_growth_expected(alphas) \
                and not all(b >= a for a, b in zip(id_counts, id_counts[1:])):
            failures.append(f"alphas={alphas}: identity counts {id_counts} do not grow "
                            f"with n1 although alpha1 < max alpha")
    report(9, failures)


# The order of accuracy is read from the error at T of a full march.  The
# err_inf of an example2 first_step_row is the error after one step, a
# local error of size tau (tau^2 + h^2) whose ratios tend to 8.  The iteration window was
# calibrated on large grids; on desk grids the (1.1, 1.1) counts are still
# falling (15, 14, 13, 12 at n1 = 15..127).
SIZES_EX2_ERROR = (15, 31, 63, 127)
SIZES_EX2_ITERS = (255, 511, 1023)


@pytest.fixture(scope="module")
def example2_runs():
    out = {}
    for alphas in ((1.1, 1.1), (1.9, 1.9)):
        marches = [run_steps(example2_problem(n1, alphas))[1] for n1 in SIZES_EX2_ERROR]
        rows = [first_step_row(example2_problem(n1, alphas), "tau", 1e-8, 100)
                for n1 in SIZES_EX2_ITERS]
        out[alphas] = (marches, rows)
    return out


def test_criterion_10_example2_accuracy(example2_runs):
    failures = []
    for alphas, (marches, rows) in example2_runs.items():
        errs = [reports[-1].err_inf for reports in marches]
        its = [r["iters"] for r in rows]
        for i, n1 in enumerate(SIZES_EX2_ERROR[:-1]):
            ratio = errs[i] / errs[i + 1]
            if not 3.0 <= ratio <= 5.0:
                failures.append(f"alphas={alphas}: Err({n1})/Err({2 * n1 + 1}) at T "
                                f"= {ratio:.2f} outside [3, 5]")
        if max(its) > 11:
            failures.append(f"alphas={alphas}: tau iterations {its} at n1={SIZES_EX2_ITERS} "
                            "exceed 11")
        if max(its) - min(its) > 2:
            failures.append(f"alphas={alphas}: tau iterations {its} at n1={SIZES_EX2_ITERS} "
                            "spread > 2")
        if not all(rep.converged for reports in marches for rep in reports) \
                or not all(r["converged"] for r in rows):
            failures.append(f"alphas={alphas}: a solve failed to converge")
    report(10, failures)


def test_criterion_11_minres_theory_compliance():
    failures = []
    problem = example2_problem(15, (1.5, 1.5))
    params = problem.params
    A = assemble_operator(params, problem.grid, problem.nu)
    P = build_preconditioner(params, problem.grid, problem.nu)
    u0 = sample_grid(problem.grid, problem.u0)
    b = 2.0 * problem.nu * u0 - A.apply(u0) \
        + sample_grid(problem.grid, problem.source, 0.5 * problem.tau_step)
    n = problem.grid.size
    res = pminres(A.apply_symmetrized, P.apply_inverse, b[::-1].copy(),
                  MinresConfig(tol=1e-8, maxit=100, x0=np.ones(n) / math.sqrt(n)))
    eps = epsilon_bound(params)
    curve = bound_curve(eps, len(res.relres_history))
    for k, rel in enumerate(res.relres_history, start=1):
        if rel > curve[k] + 1e-12:
            failures.append(f"iteration {k}: relres {rel:.3e} above bound {curve[k]:.3e}")
    report(11, failures)


def test_criterion_12_degeneracy():
    failures = []
    coeffs = ((2.0, 3.0), (2.0, 3.0))
    for scheme in SCHEMES:
        params = example_params(coeffs, (1.5, 1.9), scheme)
        if epsilon_bound(params) != 0.0:
            failures.append(f"{scheme}: epsilon bound not exactly zero")
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (15, 15))
        A = assemble_operator(params, grid, 16.0)
        dense = A.materialize()
        if not np.array_equal(dense, dense.T):
            failures.append(f"{scheme}: assembled operator not symmetric to machine precision")
        P = build_preconditioner(params, grid, 16.0)
        rep = preconditioned_spectrum(A, P, params)
        mags = np.abs(rep.eigenvalues)
        if rep.violations or mags.min() < 0.5 - 1e-8 or mags.max() > 1.5 + 1e-8:
            failures.append(f"{scheme}: eigenvalues leave +-(0.5, 1.5)")
    report(12, failures)
