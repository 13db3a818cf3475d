"""Built-in oracle battery: cheap independent checks of every layer.

Each check recomputes expected values from first principles (dense
matrices, direct sums, closed forms) and compares against the fast
paths.  Intended for `taumres selftest`; the pytest suite covers the
same ground more exhaustively.
"""

import math
import time

import numpy as np

from .discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams, GridSpec,
                             build_L, epsilon_bound, grunwald_g, omega_bound,
                             symbol_closed, symbol_series, weights_first,
                             weights_second)
from .krylov import MinresConfig, pminres
from .tau import build_preconditioner, tau_dense, tau_eigs, tau_eigs_direct
from .toeplitz import MultilevelOperator, Toeplitz1D, flip
from .transforms import DENSE_AXIS_MAX, _axis_path, circular_convolve, dst1

__all__ = ["run_selftest"]


def _rel(err, ref):
    return err / max(ref, 1e-300)


def _check_transforms(rng):
    for m in (1, 3, 7, 31, 64, 255):
        x = rng.standard_normal(m)
        direct = dst1(x, method="direct")
        fast = dst1(x)
        if _rel(np.max(np.abs(direct - fast)), np.max(np.abs(direct))) > 1e-13:
            return "fft path disagrees with direct path"
        if np.max(np.abs(dst1(fast) - x)) > 1e-12 * max(np.max(np.abs(x)), 1.0):
            return "transform is not an involution"
        if abs(np.linalg.norm(fast) - np.linalg.norm(x)) > 1e-12 * np.linalg.norm(x):
            return "transform does not preserve the 2-norm"
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    direct = np.array([sum(a[k] * b[(j - k) % 8] for k in range(8)) for j in range(8)])
    if np.max(np.abs(circular_convolve(a, b) - direct)) > 1e-12 * np.max(np.abs(direct)):
        return "circular convolution disagrees with the direct sum"
    return None


def _check_toeplitz(rng):
    for m in (1, 2, 17, 64):
        T = Toeplitz1D(np.concatenate(([1.0], rng.standard_normal(m - 1))),
                       np.concatenate(([1.0], rng.standard_normal(m - 1))))
        x = rng.standard_normal(m)
        ref = T.dense() @ x
        if _rel(np.max(np.abs(T.matvec(x) - ref)), np.max(np.abs(ref))) > 1e-12:
            return f"Toeplitz matvec disagrees with dense product at m={m}"
    for dims in ((6,), (3, 4), (2, 3, 4)):
        levels = []
        for m in dims:
            col = rng.standard_normal(m)
            row = np.concatenate((col[:1], rng.standard_normal(m - 1)))
            levels.append((Toeplitz1D(col, row), rng.uniform(0, 2), rng.uniform(0, 2)))
        A = MultilevelOperator(dims, rng.uniform(0, 3), levels)
        x = rng.standard_normal(A.n)
        dense = A.materialize()
        if _rel(np.max(np.abs(A.apply(x) - dense @ x)), np.max(np.abs(dense @ x))) > 1e-11:
            return f"multilevel apply disagrees with dense assembly at dims={dims}"
        ya = dense[::-1, :]
        if np.max(np.abs(ya - ya.T)) > 1e-13 * np.max(np.abs(ya)):
            return f"Y*A is not symmetric at dims={dims}"
        if np.any(flip(dims, flip(dims, x)) != x):
            return "flip is not an involution"
    return None


def _check_coefficients():
    for alpha in (1.1, 1.5, 1.9):
        w = weights_second(alpha, 50).values
        if abs(w[1] - 0.5 * (2 - alpha - alpha ** 2)) > 1e-13:
            return "w_1 closed form mismatch"
        if abs(w[2] - 0.25 * alpha * (alpha ** 2 + alpha - 4)) > 1e-13:
            return "w_2 closed form mismatch"
        if not (w[0] >= w[3] >= w[4] >= 0):
            return "weight monotonicity violated"
        g = grunwald_g(alpha, 4)
        binom = [1.0, -alpha, alpha * (alpha - 1) / 2, -alpha * (alpha - 1) * (alpha - 2) / 6]
        if np.max(np.abs(g[:4] - binom)) > 1e-13:
            return "grunwald recurrence disagrees with binomial"
        for scheme, tab in ((SECOND_ORDER, weights_second(alpha, 10 ** 4 + 2)),
                            (FIRST_ORDER, weights_first(alpha, 10 ** 4 + 2))):
            for theta in (-np.pi / 2, np.pi / 4):
                diff = abs(symbol_series(tab, theta, 10 ** 4) - symbol_closed(alpha, theta, scheme))
                if diff > 1e-3:
                    return f"symbol series vs closed form differ by {diff:.1e}"
                if symbol_closed(alpha, theta, scheme).real <= 0:
                    return "symbol real part is not positive off theta=0"
    return None


def _check_tau(rng):
    for m in (1, 2, 5, 16):
        col = rng.standard_normal(m)
        full = tau_dense(Toeplitz1D(col))
        q_fast = tau_eigs(col).q
        q_cos = tau_eigs_direct(col).q
        if np.max(np.abs(q_fast - q_cos)) > 1e-12 * max(np.max(np.abs(q_cos)), 1.0):
            return "DST eigenvalue route disagrees with cosine sum"
        if np.max(np.abs(np.sort(q_fast) - np.linalg.eigvalsh(full))) > 1e-10 * max(np.max(np.abs(q_fast)), 1.0):
            return "tau eigenvalues disagree with dense eigendecomposition"
    for alpha in (1.1, 1.5, 1.9):
        L = build_L(alpha, 8, SECOND_ORDER)
        if tau_eigs(0.5 * (L.col + L.row)).q.min() <= 0:
            return "tau spectrum of H(L) is not positive"
    params = FractionalParams((1.5, 1.9), (3.0, 2.0), (1.0, 1.0))
    grid = GridSpec((0, 0), (2, 2), (5, 5))
    P = build_preconditioner(params, grid, 7.0)
    x = rng.standard_normal(P.n)
    if np.max(np.abs(P.apply(P.apply_inverse(x)) - x)) > 1e-11 * np.max(np.abs(x)):
        return "P P^{-1} round trip failed"
    twice = P.apply_inv_sqrt(P.apply_inv_sqrt(x))
    if np.max(np.abs(twice - P.apply_inverse(x))) > 1e-11 * np.max(np.abs(x)):
        return "inverse square root applied twice is not the inverse"
    return None


def _check_minres(rng):
    b = rng.standard_normal(9)
    res = pminres(lambda v: v, None, b)
    if res.iters > 1 or not res.converged:
        return "identity system did not converge in one iteration"
    res = pminres(lambda v: np.array([v[0], -v[1]]), None, np.array([1.0, 1.0]),
                  MinresConfig(tol=1e-12))
    if res.iters > 2 or np.max(np.abs(res.x - [1.0, -1.0])) > 1e-10:
        return "2x2 indefinite system not solved exactly in two iterations"
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    A = Q @ np.diag(rng.uniform(1, 10, 20)) @ Q.T
    b = rng.standard_normal(20)
    res = pminres(lambda v: A @ v, lambda v: np.linalg.solve(A, v), b,
                  MinresConfig(tol=1e-10))
    if res.iters > 1:
        return "ideally preconditioned SPD system took more than one iteration"
    if abs(epsilon_bound(FractionalParams((1.5,), (1.0,), (0.0,))) - 1.0) > 1e-14:
        return "epsilon bound mismatch for one-sided coefficients"
    if abs(omega_bound(0.0) - math.sqrt(0.5)) > 1e-15:
        return "omega bound mismatch at zero"
    return None


_PATH_LABELS = {"full": "full dense product, O(n*n1)",
                "fold": "fold and two half-size products, O(n*n1/2)",
                "fft": "FFT, O(n log n1)"}


def _scaling_report():
    # below and above FOLD_MIN, and the first 2^k - 1 past the cutoff, which runs by FFT
    lines = []
    for n1 in (63, 127, 255, (1 << DENSE_AXIS_MAX.bit_length()) - 1):
        params = FractionalParams((1.5, 1.5), (2.0, 3.0), (1.0, 1.0))
        grid = GridSpec((0, 0), (1, 1), (n1, n1))
        P = build_preconditioner(params, grid, 1.0)
        x = np.ones(P.n)
        P.apply_inverse(x)
        t0 = time.perf_counter()
        reps = 5
        for _ in range(reps):
            P.apply_inverse(x)
        secs = (time.perf_counter() - t0) / reps
        lines.append((n1, n1 * n1, secs, _PATH_LABELS[_axis_path(n1)]))
    return lines


def run_selftest(seed=0, verbose=True):
    """Run every oracle check; returns True when all pass."""
    rng = np.random.default_rng(seed)
    checks = [
        ("sine transform and convolution", lambda: _check_transforms(rng)),
        ("Toeplitz and multilevel operators", lambda: _check_toeplitz(rng)),
        ("Grünwald coefficients and symbols", _check_coefficients),
        ("tau algebra and preconditioner", lambda: _check_tau(rng)),
        ("MINRES and convergence bounds", lambda: _check_minres(rng)),
    ]
    ok = True
    for name, fn in checks:
        failure = fn()
        ok = ok and failure is None
        if verbose:
            status = "PASS" if failure is None else f"FAIL ({failure})"
            print(f"[selftest] {name}: {status}")
    if verbose:
        for n1, n, secs, path in _scaling_report():
            print(f"[selftest] apply_inverse n1={n1} n={n}: {secs * 1e3:.2f} ms "
                  f"(two DSTs, per axis: {path})")
    return ok
