"""Tau-algebra preconditioners diagonalized by the sine transform.

For a symmetric Toeplitz matrix T with first column t, the tau matrix is
tau(T) = T - H with H the Hankel correction whose first column is
(t_3, ..., t_m, 0, 0) and last column (0, 0, t_m, ..., t_3).  It is
diagonalized by the DST-I, tau(T) = S diag(q) S, with

    q_i = t_1 + 2 sum_{j>=2} t_j cos(pi*i*(j-1)/(m+1)).

Only q is computed, by the DST first-column identity in O(m log m)
(``tau_eigs``); the dense tau(T) and the cosine sum are the test
suite's oracles.  The multilevel preconditioner is built from the tau approximations of
the symmetric parts of the per-direction Grünwald blocks and stored as
its eigenvalue vector in the multilevel sine basis, so applying P, its
inverse or its inverse square root costs two multilevel DSTs around one
elementwise scaling.  Per axis each DST is one full dense product, the
exact even/odd fold with two half-size products, or real FFTs of length
2(n_i+1), by the rule of ``transforms``.  Set-up costs one 1-D DST per
direction; S e_1 is taken in closed form.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .discretization import build_L, level_scales
from .transforms import dst1, dst1_multi

__all__ = ["Tau1D", "TauPreconditioner", "tau_eigs", "build_preconditioner"]


@dataclass(frozen=True)
class Tau1D:
    """Eigenvalues of a uni-level tau matrix in the sine basis."""

    m: int
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.m,):
            raise ValueError(f"expected {self.m} eigenvalues, got shape {q.shape}")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


def tau_eigs(col):
    """Eigenvalues via the DST first-column identity in O(m log m).

    q = diag(S e_1)^{-1} (S tau(T) e_1); the first column of tau(T) is
    t_j - t_{j+2}, and (S e_1)_k = sqrt(2/(m+1)) * sin(pi*k/(m+1)).
    """
    col = np.asarray(col, dtype=float)
    m = col.shape[0]
    if m < 1:
        raise ValueError("empty eigenvalue problem")
    u = col.copy()
    if m > 2:
        u[:m - 2] -= col[2:]
    s_e1 = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.arange(1, m + 1) / (m + 1))
    return Tau1D(m, dst1(u) / s_e1)


class TauPreconditioner:
    """SPD multilevel tau preconditioner P = S diag(lam) S.

    ``lam`` is the full length-n eigenvalue vector in the multilevel
    sine basis (Kronecker sum of per-direction tau spectra plus nu).
    Immutable; all applications are pure.
    """

    def __init__(self, dims, lam, nu=0.0):
        self.dims = tuple(int(m) for m in dims)
        self.n = int(np.prod(self.dims))
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.n,):
            raise ValueError(f"expected {self.n} eigenvalues, got shape {lam.shape}")
        if not np.all(np.isfinite(lam)):
            raise ValueError("preconditioner eigenvalues have non-finite entries")
        if lam.min() <= 0.0:
            raise ValueError(f"preconditioner not positive definite: min eigenvalue {lam.min()}")
        lam = lam.copy()
        lam.setflags(write=False)
        self.lam = lam
        self.nu = float(nu)

    def __repr__(self):
        return f"TauPreconditioner(dims={self.dims}, nu={self.nu})"

    @functools.cached_property
    def _inv_sqrt(self):
        # built on first use: only the spectrum code applies P^{-1/2}
        return np.sqrt(1.0 / self.lam)

    # the first DST's result is the one new array: it is scaled and
    # transformed again in place, and returned

    def apply(self, x):
        """P @ x."""
        y = dst1_multi(self.dims, x)
        y *= self.lam
        return dst1_multi(self.dims, y, out=y)

    def apply_inverse(self, x):
        """P^{-1} @ x."""
        y = dst1_multi(self.dims, x)
        y /= self.lam
        return dst1_multi(self.dims, y, out=y)

    def apply_inv_sqrt(self, x):
        """P^{-1/2} @ x; applying twice equals ``apply_inverse``."""
        y = dst1_multi(self.dims, x)
        y *= self._inv_sqrt
        return dst1_multi(self.dims, y, out=y)


def build_preconditioner(params, grid, nu):
    """Multilevel tau preconditioner for the symmetrized system.

    Per direction, q_i is the tau spectrum of the first column of the
    symmetric part of the Grünwald block; the eigenvalue vector is the
    Kronecker sum nu + sum_i (v+_i + v-_i) q_i.
    """
    if len(grid.n) != params.d:
        raise ValueError(f"grid has {len(grid.n)} directions, params has {params.d}")
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    lam = np.full(grid.n, float(nu))
    for i, (vp, vm) in enumerate(level_scales(params, grid)):
        if vp + vm == 0.0:
            continue
        L = build_L(params.alpha[i], grid.n[i], params.scheme)
        q = tau_eigs(0.5 * (L.col + L.row)).q
        shape = [1] * params.d
        shape[i] = grid.n[i]
        lam = lam + (vp + vm) * q.reshape(shape)
    return TauPreconditioner(grid.n, lam.reshape(-1), nu=nu)
