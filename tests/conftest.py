import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from taumres.discretization import FIRST_ORDER, SECOND_ORDER, grunwald_g, weights_second
from taumres.tau import tau_eigs
from taumres.toeplitz import Toeplitz1D


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# one test per scheme, its id the scheme's name as the spectrum tags spell it
each_scheme = pytest.mark.parametrize("scheme", (FIRST_ORDER, SECOND_ORDER),
                                      ids=("first_order", "second_order"))


# ---------------------------------------------------------------------------
# Independent dense oracles (kept free of the library's fast paths)

def sine_matrix(m):
    """Dense orthonormal DST-I matrix (angles reduced mod 2*pi exactly, in integers)."""
    j = np.arange(1, m + 1)
    return np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (m + 1))) / (m + 1))


def sine_oracle(dims, x):
    """S_{m1} (x) ... (x) S_{md} applied one axis at a time with tensordot."""
    a = x.reshape(dims)
    for axis, m in enumerate(dims):
        a = np.moveaxis(np.tensordot(sine_matrix(m), a, axes=([1], [axis])), 0, axis)
    return a.reshape(-1)


def toeplitz_dense(col, row=None):
    """Dense Toeplitz matrix, entry (j, k) col[j - k] for j >= k, else row[k - j] (row
    defaults to col), by index arithmetic."""
    col = np.asarray(col, dtype=float)
    row = col if row is None else np.asarray(row, dtype=float)
    d = np.subtract.outer(np.arange(len(col)), np.arange(len(col)))   # j - k
    return np.where(d >= 0, col[np.abs(d)], row[np.abs(d)])


def kron_chain(mats):
    out = np.array([[1.0]])
    for m in mats:
        out = np.kron(out, m)
    return out


def assemble_dense(dims, nu, level_data):
    """Dense nu*I + sum_i (vp_i W_i + vm_i W_i^T) from (col, row, vp, vm) tuples."""
    n = int(np.prod(dims))
    A = nu * np.eye(n)
    for i, (col, row, vp, vm) in enumerate(level_data):
        blocks = [np.eye(m) for m in dims]
        blocks[i] = toeplitz_dense(col, row)
        W = kron_chain(blocks)
        A += vp * W + vm * W.T
    return A


def operator_dense(A):
    """Dense nu*I + sum_i I (x) K_i (x) I of a MultilevelOperator, from the first columns
    and rows of its levels."""
    return assemble_dense(A.dims, A.nu, [(K.col, K.row, 1.0, 0.0) for K in A.levels])


def operator_product(A, x):
    """A @ x without an n x n matrix: nu*x plus each level's dense block applied along its
    axis with tensordot."""
    X = np.asarray(x, dtype=float).reshape(A.dims)
    out = A.nu * X
    for axis, K in enumerate(A.levels):
        out = out + np.moveaxis(np.tensordot(toeplitz_dense(K.col, K.row), X,
                                             axes=([1], [axis])), 0, axis)
    return out.reshape(-1)


def two_sided(T, vp, vm):
    """The one Toeplitz1D vp * T + vm * T^T; T^T has first column T.row and first row T.col."""
    return Toeplitz1D(vp * T.col + vm * T.row, vp * T.row + vm * T.col)


def grunwald_block(alpha, m, scheme):
    """The Grünwald block L of size m from the scheme's public table c, written out here
    apart from the library's set-up rule: first column -[c_1 .. c_m], first row
    -[c_1, c_0, 0, ...]."""
    c = (weights_second if scheme == SECOND_ORDER else grunwald_g)(alpha, m)
    col = np.array([-c[k] for k in range(1, m + 1)])
    row = np.zeros(m)
    row[0] = -c[1]
    if m > 1:
        row[1] = -c[0]
    return Toeplitz1D(col, row)


def tau_dense_oracle(col):
    """Dense tau(T) of the symmetric Toeplitz T with first column col: T minus the Hankel correction."""
    m = len(col)
    T = np.array([[col[abs(j - k)] for k in range(m)] for j in range(m)])
    H = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            s = j + k
            if s + 2 <= m - 1:
                H[j, k] = col[s + 2]
            elif s >= m + 1:
                H[j, k] = col[2 * m - s]
    return T - H


def tau_eigs_cosine(col):
    """Sine-basis eigenvalues of tau(T) by the explicit cosine sum, O(m^2)."""
    col = np.asarray(col, dtype=float)
    m = len(col)
    i = np.arange(1, m + 1)
    return col[0] + 2.0 * np.cos(np.pi * np.outer(i, np.arange(1, m)) / (m + 1)) @ col[1:]


def tau_lam_reference(params, grid, nu):
    """The tau preconditioner's eigenvalues as first built: a Grünwald block per direction,
    a full nu vector, then one n-size sum lam + (v+_i + v-_i) q_i per active direction."""
    lam = np.full(grid.n, float(nu))
    for i in range(params.d):
        # the scalings in closed form, in the library's order of operations
        s = (0.5 if params.scheme == SECOND_ORDER else 1.0) / grid.h[i] ** params.alpha[i]
        vp, vm = params.d_plus[i] * s, params.d_minus[i] * s
        if vp + vm == 0.0:
            continue
        L = grunwald_block(params.alpha[i], grid.n[i], params.scheme)
        shape = [1] * params.d
        shape[i] = grid.n[i]
        lam = lam + (vp + vm) * tau_eigs(0.5 * (L.col + L.row)).reshape(shape)
    return lam.reshape(-1)


def congruence_oracle(A, P):
    """Dense (P^{-1/2} Y A P^{-1/2})^T, column j into row j, symmetric up to rounding.

    n column applications of the solver's own ``A.apply_symmetrized`` between two
    ``P.apply_inv_sqrt``.
    """
    M = np.empty((A.n, A.n))
    e = np.zeros(A.n)
    for j in range(A.n):
        e[j] = 1.0
        M[j] = P.apply_inv_sqrt(A.apply_symmetrized(P.apply_inv_sqrt(e)))
        e[j] = 0.0
    return M


def equivalence_oracle(A, P):
    """Sorted eigenvalues of P^{-1} H(A), H(A) = (A + A^T)/2: the spectral-equivalence lemma's
    matrix, a step of the tau theorem's proof that no library spectrum computes.

    They are those of the symmetric C H(A) C, C = P^{-1/2} = S diag(lam^{-1/2}) S, with the
    dense S from ``sine_matrix`` and H(A) from ``operator_dense``.
    """
    dense = operator_dense(A)
    S = kron_chain([sine_matrix(m) for m in A.dims])
    C = (S / np.sqrt(P.lam)) @ S
    return np.linalg.eigvalsh(C @ (0.5 * (dense + dense.T)) @ C)


def ideal_oracle(A):
    """Dense C^{-1} (Y A) C^{-T} with C the Cholesky factor of H(A) = (A + A^T)/2.

    Its eigenvalues are those of H(A)^{-1} Y A; a non-SPD H(A) raises LinAlgError.
    """
    dense = operator_dense(A)
    C = np.linalg.cholesky(0.5 * (dense + dense.T))
    return np.linalg.solve(C, np.linalg.solve(C, dense[::-1, :].T).T)


def convolve_direct(a, b):
    """Circular convolution by its defining sum, one output entry at a time."""
    L = len(a)
    k = np.arange(L)
    return np.array([a @ b[(j - k) % L] for j in range(L)])


def traced_peak(f, *args):
    """Peak bytes numpy and Python allocate while f(*args) runs.

    Blind to C-level ``malloc``: LAPACK's work arrays, and the Fortran copy that
    ``np.linalg.eigvalsh`` makes of its input.  ``run_fresh`` reads such copies off RSS.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def run_fresh(code):
    """stdout of ``code`` run by a fresh interpreter that imports taumres from this tree."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def rel_err(got, ref):
    ref = np.asarray(ref, dtype=float)
    scale = np.max(np.abs(ref))
    if scale == 0.0:
        return np.max(np.abs(got))
    return np.max(np.abs(got - ref)) / scale


# ---------------------------------------------------------------------------
# Lemma oracles: generating functions of the Grünwald blocks and the
# contraction factor of the preconditioned MINRES bound

def symbol_series(c, theta, K):
    """Truncated generating-function series -sum_k c_{k+1} e^{i k theta} of a table c.

    The k = 0 term (-c_1, the diagonal) enters first; the single negative
    index k = -1 joins from K >= 1 onward together with k = 1..K.
    Requires table entries up to c_{K+1}.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if K + 2 > len(c):
        raise ValueError(f"K={K} needs {K + 2} table entries, table has {len(c)}")
    k = np.arange(1, K + 1)
    s = c[1] + np.sum(c[k + 1] * np.exp(1j * k * theta))
    if K >= 1:
        s += c[0] * np.exp(-1j * theta)
    return -s


def symbol_closed(alpha, theta, scheme=SECOND_ORDER):
    """Closed-form generating function of the Grünwald block.

    First order:  -e^{-i theta} (1 - e^{i theta})^alpha.
    Second order: -[(alpha/2) e^{-i theta} + (2-alpha)/2] (1 - e^{i theta})^alpha.
    Principal branch; the value at theta = 0 is 0 by continuity.  The
    formula is evaluated for any positive order (boundary sanity checks
    use alpha = 2); the (1, 2) restriction applies to the tables.
    ``scheme`` is ``FIRST_ORDER`` or ``SECOND_ORDER``.
    """
    if scheme not in (FIRST_ORDER, SECOND_ORDER):
        raise ValueError(f"unknown scheme {scheme!r}")
    if theta == 0.0:
        return 0.0 + 0.0j
    zp = (1.0 - np.exp(1j * theta)) ** alpha
    if scheme == FIRST_ORDER:
        return -np.exp(-1j * theta) * zp
    return -(0.5 * alpha * np.exp(-1j * theta) + 0.5 * (2.0 - alpha)) * zp


def omega_bound(epsilon):
    """Contraction factor sqrt((2 + 3 eps) / (4 + 3 eps)) in (sqrt(1/2), 1)."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return math.sqrt((2.0 + 3.0 * epsilon) / (4.0 + 3.0 * epsilon))
