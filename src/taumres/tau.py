"""Tau-algebra preconditioners diagonalized by the sine transform.

For a symmetric Toeplitz matrix T with first column t, the tau matrix is
tau(T) = T - H with H the Hankel correction whose first column is
(t_3, ..., t_m, 0, 0) and last column (0, 0, t_m, ..., t_3).  It is
diagonalized by the DST-I, tau(T) = S diag(q) S, with

    q_i = t_1 + 2 sum_{j>=2} t_j cos(pi*i*(j-1)/(m+1)).

Only q is computed, as a read-only array, by the DST first-column identity
in O(m log m) (``tau_eigs``); the dense tau(T) and the cosine sum are the
test suite's oracles.  The multilevel preconditioner is built from the tau
approximations of the symmetric parts of the per-direction Grünwald
blocks and stored as its eigenvalue vector in the multilevel sine basis,
so P^{-1} and P^{-1/2} (P itself is never applied) share one body: two
multilevel DSTs around one elementwise scaling.  Per axis each DST is one
full dense product, the exact even/odd fold with two half-size products,
or real FFTs of length 2(n_i+1), by the rule of ``transforms``.  Set-up
costs one 1-D DST per active direction, on a column taken straight from
the scheme's coefficient table (no Grünwald block is built), plus one
n-size write of the Kronecker sum; S e_1 is taken in closed form.
"""

import functools
import math

import numpy as np

from .discretization import _grunwald_col_row, level_scales
from .transforms import _as_real, _check_dims, _count, _dst1_fft_axis, dst1_multi

__all__ = ["TauPreconditioner", "tau_eigs", "build_preconditioner"]


def tau_eigs(col):
    """Sine-basis eigenvalues q of tau(T), for a finite first column, read-only, in O(m log m).

    By the DST first-column identity q = diag(S e_1)^{-1} (S tau(T) e_1),
    where col is T's first column; the first column u of tau(T) is
    t_j - t_{j+2}, and (S e_1)_k = sqrt(2/(m+1)) * sin(pi*k/(m+1)).
    """
    u = _as_real(col, "first column", shape=(None,), finite=True, copy=True)
    m = _count(u.shape[0], "the length of the first column")
    if m > 2:
        u[:m - 2] -= u[2:]   # overlapping operands are read before they are written
    s_e1 = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.arange(1, m + 1) / (m + 1))
    q = _dst1_fft_axis(u, 0) / s_e1
    q.setflags(write=False)
    return q


class TauPreconditioner:
    """SPD multilevel tau preconditioner P = S diag(lam) S.

    ``lam`` is the full length-n eigenvalue vector in the multilevel
    sine basis (Kronecker sum of per-direction tau spectra plus nu).
    Immutable; all applications are pure.
    """

    def __init__(self, dims, lam):
        self.dims = _check_dims(dims)
        self.n = math.prod(self.dims)
        lam = _as_real(lam, "preconditioner eigenvalues", shape=(self.n,), finite=True, copy=True)
        if lam.min() <= 0.0:
            raise ValueError(f"preconditioner not positive definite: min eigenvalue {lam.min()}")
        lam.setflags(write=False)
        self.lam = lam

    def __repr__(self):
        return f"TauPreconditioner(dims={self.dims})"

    @functools.cached_property
    def _inv_sqrt(self):
        # built on first use: only the spectrum code applies P^{-1/2}
        return np.sqrt(1.0 / self.lam)

    def _sine_scaled(self, x, scale, w):
        # S diag(w) S x, or S diag(w)^{-1} S x with scale = np.divide: the
        # first DST's result is the one new array, scaled and transformed
        # again in place, and returned
        y = dst1_multi(self.dims, x)
        scale(y, w, out=y)
        return dst1_multi(self.dims, y, out=y)

    def apply_inverse(self, x):
        """P^{-1} @ x."""
        return self._sine_scaled(x, np.divide, self.lam)

    def apply_inv_sqrt(self, x):
        """P^{-1/2} @ x; applying twice equals ``apply_inverse``."""
        return self._sine_scaled(x, np.multiply, self._inv_sqrt)


def build_preconditioner(params, grid, nu):
    """Multilevel tau preconditioner for the symmetrized system.

    Per direction, q_i is the tau spectrum of the first column of the
    symmetric part of the Grünwald block, (col + row) / 2 of the block's
    first column and row; the eigenvalue vector is the Kronecker sum
    nu + sum_i (v+_i + v-_i) q_i, added in that order by broadcasting, so
    only the last sum is n long.
    """
    if len(grid.n) != params.d:
        raise ValueError(f"grid has {len(grid.n)} directions, params has {params.d}")
    nu = _as_real(nu, "nu", shape=(), finite=True)
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    lam = np.full((1,) * params.d, nu)
    for i, (vp, vm) in enumerate(level_scales(params, grid)):
        if vp + vm == 0.0:
            continue
        col, row = _grunwald_col_row(params.alpha[i], grid.n[i], params.scheme)
        q = tau_eigs(0.5 * (col + row))
        shape = [1] * params.d
        shape[i] = grid.n[i]
        lam = lam + (vp + vm) * q.reshape(shape)
    # a view when every direction is active; else the one copy to full size
    return TauPreconditioner(grid.n, np.broadcast_to(lam, grid.n).reshape(-1))
