"""Built-in battery for `taumres selftest`: the fast paths on this machine.

On sizes that reach every per-axis path: ``dst1_multi`` against the dense
sine product per axis, ``A.apply`` against ``A.materialize()``, P^{-1/2}
P^{-1/2} x against P^{-1} x, and the paper's theorem (example2's spectrum
at n1 = 15 inside its interval).  The pytest suite goes deeper per layer.
"""

import itertools
import time

import numpy as np

from .discretization import FractionalParams, GridSpec, assemble_operator
from .pde import ALPHA_PAIRS, example2_problem, setup_operators
from .spectrum import preconditioned_spectrum
from .tau import build_preconditioner
from .toeplitz import DENSE_LEVEL_MAX
from .transforms import DENSE_AXIS_MAX, FOLD_MIN, _axis_path, _sine_matrix, dst1_multi

__all__ = ["run_selftest"]

# one axis on each path of dst1_multi: full product, fold (an odd m on a
# middle axis, so its middle entry) and FFT
_FFT_M = next(m for m in itertools.count(DENSE_AXIS_MAX + 1) if _axis_path(m) == "fft")
_DST_DIMS = (3, FOLD_MIN + 1, _FFT_M)


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)


def _check_dst(rng):
    x = rng.standard_normal(int(np.prod(_DST_DIMS)))
    ref = x.reshape(_DST_DIMS)
    for axis, m in enumerate(_DST_DIMS):
        ref = np.moveaxis(np.tensordot(_sine_matrix(m), ref, axes=([1], [axis])), 0, axis)
    if _rel(dst1_multi(_DST_DIMS, x), ref.reshape(-1)) > 1e-13:
        return f"dst1_multi disagrees with the dense sine product at dims={_DST_DIMS}"
    return None


def _check_operator(rng):
    # a two-sided operator with one FFT level and one dense level
    dims = (DENSE_LEVEL_MAX + 1, 2)
    params = FractionalParams((1.3, 1.8), (3.0, 2.0), (1.0, 0.5))
    A = assemble_operator(params, GridSpec((0, 0), (1, 1), dims), 2.0)
    x = rng.standard_normal(A.n)
    if _rel(A.apply(x), A.materialize() @ x) > 1e-11:
        return f"multilevel apply disagrees with dense assembly at dims={dims}"
    return None


def _check_inv_sqrt(rng):
    params = FractionalParams((1.3, 1.8, 1.5), (1.0, 2.0, 0.5), (2.0, 0.5, 1.0))
    P = build_preconditioner(params, GridSpec((0,) * 3, (1,) * 3, _DST_DIMS), 2.0)
    x = rng.standard_normal(P.n)
    if abs(P.apply_inv_sqrt(P.apply_inv_sqrt(x)) - P.apply_inverse(x)).max() > 1e-11 * abs(x).max():
        return f"P^-1/2 P^-1/2 x misses P^-1 x at dims={_DST_DIMS}"
    return None


def _check_theorem():
    for pair in ALPHA_PAIRS:
        problem = example2_problem(15, pair)
        A, P = setup_operators(problem, "tau")
        rep = preconditioned_spectrum(A, P, problem.params)
        if rep.violations:
            return f"{rep.violations} eigenvalues of P^-1 Y A leave the interval at alphas={pair}"
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


def run_selftest(seed=0):
    """Run and print every check, then the apply_inverse timings; returns True when all pass."""
    rng = np.random.default_rng(seed)
    checks = [
        ("multilevel sine transform", lambda: _check_dst(rng)),
        ("multilevel Toeplitz operator", lambda: _check_operator(rng)),
        ("tau preconditioner square root", lambda: _check_inv_sqrt(rng)),
        ("preconditioned spectrum theorem", _check_theorem),
    ]
    ok = True
    for name, fn in checks:
        failure = fn()
        ok = ok and failure is None
        status = "PASS" if failure is None else f"FAIL ({failure})"
        print(f"[selftest] {name}: {status}")
    for n1, n, secs, path in _scaling_report():
        print(f"[selftest] apply_inverse n1={n1} n={n}: {secs * 1e3:.2f} ms "
              f"(two DSTs, per axis: {path})")
    return ok
