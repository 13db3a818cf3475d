"""Tau-algebra preconditioners diagonalized by the sine transform.

For a symmetric Toeplitz matrix T with first column t, the tau matrix is
tau(T) = T - H with H the Hankel correction whose first column is
(t_3, ..., t_m, 0, 0) and last column (0, 0, t_m, ..., t_3).  It is
diagonalized by the DST-I, tau(T) = S diag(q) S, with

    q_i = t_1 + 2 sum_{j>=2} t_j cos(pi*i*(j-1)/(m+1)).

Only q is computed, as a read-only array, by the DST first-column identity
in O(m log m) (``tau_eigs``); the dense tau(T) and the cosine sum are the
test suite's oracles.  The multilevel preconditioner P = S diag(lam) S
writes lam = nu + sum_i I (x) q_i (x) I, the Kronecker sum of one such
finite spectrum per axis, itself, and checks it by nu plus the per-axis
extremes (exact: rounded addition is monotone in each operand, so lam's
extremes are those sums); P^{-1} and P^{-1/2} (P itself is never
applied) share one body: two multilevel DSTs around one elementwise
division, by lam or by sqrt(lam).  Per axis each DST is one full dense
product, the exact even/odd fold with two half-size products, or real
FFTs of length 2(n_i+1), by the rule of ``transforms``.
``build_preconditioner`` takes each q_i by one 1-D DST of the symmetric
part's first column, from the operator's per-direction rule
(``discretization._directions``; no Grünwald block is built); S e_1 is
taken in closed form.
"""

import functools
import math

import numpy as np

from .discretization import _directions
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

    ``spectra`` holds one real sine-basis spectrum q_i of length dims[i]
    per axis (zeros for a direction that adds nothing) and ``nu >= 0``;
    ``lam = nu + sum_i I (x) q_i (x) I`` is their Kronecker sum, a new
    read-only length-n array that shares memory with no caller's array,
    checked finite and positive by nu plus the per-axis extremes (lam's
    own, bit for bit).  Immutable; all applications are pure.
    """

    def __init__(self, dims, nu, spectra):
        self.dims = _check_dims(dims)
        self.n = math.prod(self.dims)
        spectra = tuple(spectra)
        if len(spectra) != len(self.dims):
            raise ValueError(f"{len(self.dims)} dims but {len(spectra)} spectra")
        nu = _as_real(nu, "nu", shape=(), finite=True)
        if nu < 0:
            raise ValueError(f"nu must be nonnegative, got {nu}")
        spectra = [_as_real(q, f"spectrum of axis {i}", shape=(m,), finite=True)
                   for i, (m, q) in enumerate(zip(self.dims, spectra))]
        with np.errstate(over="ignore"):   # an overflowed sum is refused just below
            lam = functools.reduce(np.add.outer, spectra, nu).reshape(-1)
            lo = functools.reduce(np.add, [q.min() for q in spectra], nu)
            hi = functools.reduce(np.add, [q.max() for q in spectra], nu)
        if not -math.inf < lo <= hi < math.inf:   # finite spectra overflow only to an extreme
            raise ValueError("preconditioner eigenvalues have non-finite entries")
        if lo <= 0.0:
            raise ValueError(f"preconditioner not positive definite: min eigenvalue {lo}")
        lam.setflags(write=False)
        self.lam = lam

    def __repr__(self):
        return f"TauPreconditioner(dims={self.dims})"

    def _sine_scaled(self, x, w):
        # S diag(w)^{-1} S x: the first DST's result is the one new array,
        # divided and transformed again in place, and returned
        y = dst1_multi(self.dims, x)
        y /= w
        return dst1_multi(self.dims, y, out=y)

    def apply_inverse(self, x):
        """P^{-1} @ x."""
        return self._sine_scaled(x, self.lam)

    def apply_inv_sqrt(self, x):
        """P^{-1/2} @ x; applying twice equals ``apply_inverse``."""
        return self._sine_scaled(x, np.sqrt(self.lam))


def build_preconditioner(params, grid, nu):
    """Multilevel tau preconditioner for the symmetrized system.

    Per direction (``_directions``, the operator's rule), q_i is the tau
    spectrum of the first column of the symmetric part of the Grünwald
    block, (col + row) / 2 of the block's first column and row, scaled by
    v+_i + v-_i; ``TauPreconditioner`` adds them to nu as a Kronecker sum.
    """
    return TauPreconditioner(grid.n, nu, [(vp + vm) * tau_eigs(0.5 * (col + row))
                                          for vp, vm, col, row in _directions(params, grid)])
