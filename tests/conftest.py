import math
import tracemalloc

import numpy as np
import pytest

from taumres.discretization import build_L, level_scales
from taumres.tau import tau_eigs
from taumres.toeplitz import Toeplitz1D


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
    col = np.asarray(col, dtype=float)
    row = col if row is None else np.asarray(row, dtype=float)
    m = len(col)
    return np.array([[col[j - k] if j >= k else row[k - j] for k in range(m)]
                     for j in range(m)])


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


def two_sided(T, vp, vm):
    """The one Toeplitz1D vp * T + vm * T^T; T^T has first column T.row and first row T.col."""
    return Toeplitz1D(vp * T.col + vm * T.row, vp * T.row + vm * T.col)


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
    for i, (vp, vm) in enumerate(level_scales(params, grid)):
        if vp + vm == 0.0:
            continue
        L = build_L(params.alpha[i], grid.n[i], params.scheme)
        shape = [1] * params.d
        shape[i] = grid.n[i]
        lam = lam + (vp + vm) * tau_eigs(0.5 * (L.col + L.row)).reshape(shape)
    return lam.reshape(-1)


def convolve_direct(a, b):
    """Circular convolution by its defining sum, one output entry at a time."""
    L = len(a)
    k = np.arange(L)
    return np.array([a @ b[(j - k) % L] for j in range(L)])


def traced_peak(f, *args):
    """Peak bytes numpy and Python allocate while f(*args) runs (not LAPACK's own work arrays)."""
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


def symbol_closed(alpha, theta, scheme="second_order"):
    """Closed-form generating function of the Grünwald block.

    First order:  -e^{-i theta} (1 - e^{i theta})^alpha.
    Second order: -[(alpha/2) e^{-i theta} + (2-alpha)/2] (1 - e^{i theta})^alpha.
    Principal branch; the value at theta = 0 is 0 by continuity.  The
    formula is evaluated for any positive order (boundary sanity checks
    use alpha = 2); the (1, 2) restriction applies to the tables.
    ``scheme`` is the value of ``FIRST_ORDER`` or ``SECOND_ORDER``.
    """
    if scheme not in ("first_order", "second_order"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if theta == 0.0:
        return 0.0 + 0.0j
    zp = (1.0 - np.exp(1j * theta)) ** alpha
    if scheme == "first_order":
        return -np.exp(-1j * theta) * zp
    return -(0.5 * alpha * np.exp(-1j * theta) + 0.5 * (2.0 - alpha)) * zp


def omega_bound(epsilon):
    """Contraction factor sqrt((2 + 3 eps) / (4 + 3 eps)) in (sqrt(1/2), 1)."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return math.sqrt((2.0 + 3.0 * epsilon) / (4.0 + 3.0 * epsilon))
