"""Uni-level and multilevel Toeplitz operators.

A ``Toeplitz1D`` stores first column and first row; its matvec uses a
circulant embedding padded to a power of two.  ``MultilevelOperator``
represents the Kronecker-sum form

    nu*I + sum_i ( v_plus[i] * W_i + v_minus[i] * W_i^T ),
    W_i = I (x) L_i (x) I,

applied axis by axis on the lexicographically ordered vector, each
level as one kernel.  A level on an axis with m_i <= DENSE_LEVEL_MAX is
the dense matrix

    K_i = v_plus[i] * L_i + v_minus[i] * L_i^T,

one BLAS product per axis.  On a longer axis the circulant embedding of
L_i^T is the cyclic reversal of L_i's, and the real FFT of a reversed
real vector is the complex conjugate, so with c_i the rFFT of L_i's
embedding the level is the single kernel

    k_i = v_plus[i] * c_i + v_minus[i] * conj(c_i):

one forward and one inverse FFT per axis, run on contiguous blocks of
fibres (``transforms._fibre_blocks``) and added into the result block by
block.  ``apply`` is the only product; the dense spectra of ``spectrum``
build their matrices from it column by column, or from the dense
materialization, capped at MATERIALIZE_CAP unknowns.  ``materialize``
holds one n x n array: nu*I, into whose (l, r) diagonal blocks, viewed
as ``(left, m_i, right, left, m_i, right)``, each level adds
v_plus[i] * L_i and then v_minus[i] * L_i^T, the nonzero blocks of W_i
and W_i^T.
"""

import functools
import math

import numpy as np

from .transforms import _axis_matmul, _check_dims, _fibre_blocks

__all__ = ["Toeplitz1D", "MultilevelOperator", "flip"]

MATERIALIZE_CAP = 4096

# Longest axis whose level is applied as a dense m x m product.  Measured in
# example2 first-step solves (2 vCPUs, one BLAS thread), dense took 12-34%
# less time per iteration at m = 767 and 895; at m = 1023 the FFT level
# gave the solve_large benchmark workload 2.6% lower op_s and 12% lower
# peak_rss_mb, since each dense level holds m^2 floats.  With the blocked
# FFT level, apply_symmetrized per call took FFT/dense 1.40 at m = 767,
# 1.10 at 895 and 0.85 at 1023.
DENSE_LEVEL_MAX = 895


class Toeplitz1D:
    """Toeplitz matrix stored by first column and first row.

    Entry (j, k) is ``col[j-k]`` for j >= k and ``row[k-j]`` otherwise.
    ``row`` defaults to ``col`` (symmetric matrix).
    """

    def __init__(self, col, row=None):
        col = np.array(col, dtype=float)
        row = col if row is None else np.array(row, dtype=float)
        if col.ndim != 1 or row.shape != col.shape:
            raise ValueError("col and row must be equal-length vectors")
        if col.shape[0] < 1:
            raise ValueError("empty Toeplitz matrix")
        if col[0] != row[0]:
            raise ValueError(f"col[0]={col[0]} and row[0]={row[0]} must agree")
        col.setflags(write=False)
        row.setflags(write=False)
        self.col = col
        self.row = row
        self.m = col.shape[0]

    def __repr__(self):
        return f"Toeplitz1D(m={self.m})"

    @functools.cached_property
    def _embedding(self):
        # (L, rFFT of the circulant kernel) with L the least power of two >= 2m-1
        L = 1 << (2 * self.m - 2).bit_length()
        c = np.zeros(L)
        c[:self.m] = self.col
        c[L - self.m + 1:] = self.row[1:][::-1]
        return L, np.fft.rfft(c)

    def matvec(self, x):
        """T @ x in O(m log m) via the circulant embedding."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.m:
            raise ValueError(f"expected trailing dimension {self.m}, got shape {x.shape}")
        L, chat = self._embedding
        out = np.zeros(x.shape)
        _axis_apply(x, x.ndim - 1, chat, L, out)
        return out

    def dense(self):
        idx = np.subtract.outer(np.arange(self.m), np.arange(self.m))
        return np.where(idx >= 0, self.col[np.abs(idx)], self.row[np.abs(idx)])


def flip(dims, x):
    """Apply the multilevel anti-identity Y = Y_{n1} (x) ... (x) Y_{nd}.

    Under lexicographic ordering the Kronecker product of per-axis
    reversals is the full reversal of the flat vector.
    """
    dims = _check_dims(dims)
    n = math.prod(dims)
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n} for dims {dims}, got shape {x.shape}")
    return x[::-1].copy()


def _axis_apply(X, axis, kernel, L, out):
    """Add the circulant product along ``axis`` >= 0 to ``out``.

    Per block of fibres: contiguous copy, rfft to length L, multiply,
    irfft, keep the first m entries.
    """
    m = X.shape[axis]
    for xs, os in zip(_fibre_blocks(X, axis), _fibre_blocks(out, axis)):
        Y = np.fft.rfft(np.ascontiguousarray(xs), n=L, axis=-1)
        Y *= kernel
        os += np.fft.irfft(Y, n=L, axis=-1)[:, :m]


class MultilevelOperator:
    """Kronecker-sum operator ``nu*I + sum_i (v+_i W_i + v-_i W_i^T)``.

    ``levels`` is a sequence of ``(Toeplitz1D, v_plus, v_minus)`` with one
    entry per dimension; level i acts along axis i of the reshaped
    vector.  Immutable after construction; ``apply`` is pure.
    """

    def __init__(self, dims, nu, levels):
        dims = _check_dims(dims)
        levels = list(levels)
        if len(levels) != len(dims):
            raise ValueError(f"{len(dims)} dims but {len(levels)} levels")
        for m, (T, vp, vm) in zip(dims, levels):
            if T.m != m:
                raise ValueError(f"level size {T.m} does not match dim {m}")
            if not (math.isfinite(vp) and math.isfinite(vm)) or vp < 0 or vm < 0:
                raise ValueError(f"level coefficients must be finite and nonnegative, "
                                 f"got {vp} and {vm}")
        if not math.isfinite(nu) or nu < 0:
            raise ValueError(f"nu must be finite and nonnegative, got {nu}")
        self.dims = dims
        self.n = math.prod(dims)
        self.nu = float(nu)
        self.levels = [(T, float(vp), float(vm)) for T, vp, vm in levels]

    def __repr__(self):
        return f"MultilevelOperator(dims={self.dims}, nu={self.nu})"

    @functools.cached_property
    def _kernels(self):
        # built on first use, so assembly costs no product; vanishing levels
        # are skipped.  One (axis, L, kernel) per level, L = None on a dense one
        kernels = []
        for axis, (T, vp, vm) in enumerate(self.levels):
            if vp + vm == 0.0:
                continue
            if T.m <= DENSE_LEVEL_MAX:
                D = T.dense()
                kernels.append((axis, None, vp * D + vm * D.T))
            else:
                L, chat = T._embedding
                kernels.append((axis, L, vp * chat + vm * np.conj(chat)))
        return kernels

    def apply(self, x):
        """A @ x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        X = x.reshape(self.dims)
        out = self.nu * X
        for axis, L, kernel in self._kernels:
            if L is None:
                out += _axis_matmul(X, axis, kernel)
            else:
                _axis_apply(X, axis, kernel, L, out)
        return out.reshape(self.n)

    def apply_symmetrized(self, x):
        """(Y A) @ x; the induced dense matrix is symmetric."""
        return self.apply(x)[::-1].copy()

    def materialize(self):
        """Dense n x n assembly, built in place; refuses n > MATERIALIZE_CAP."""
        if self.n > MATERIALIZE_CAP:
            raise ValueError(f"materialize capped at n={MATERIALIZE_CAP}, operator has n={self.n}")
        A = np.eye(self.n)
        A *= self.nu
        for axis, (T, vp, vm) in enumerate(self.levels):
            m = self.dims[axis]
            left, right = math.prod(self.dims[:axis]), math.prod(self.dims[axis + 1:])
            blocks = A.reshape(left, m, right, left, m, right)
            D = T.dense()
            terms = [v * K for v, K in ((vp, D), (vm, D.T)) if v != 0.0]
            for l in range(left):
                for r in range(right):
                    for K in terms:
                        blocks[l, :, r, l, :, r] += K
        return A
