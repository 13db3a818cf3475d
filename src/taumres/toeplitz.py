"""Uni-level and multilevel Toeplitz operators.

A ``Toeplitz1D`` stores first column and first row and owns the one
product of a level: ``_axis_apply`` adds T applied to every fibre along
one axis of an array.  On an axis with m <= DENSE_LEVEL_MAX its kernel is
the dense matrix, one BLAS product per axis.  On a longer axis it is the
rFFT of the circulant embedding padded to a power of two: one forward and
one inverse FFT per axis, run on contiguous blocks of fibres
(``transforms._fibre_blocks``) and added into the result block by block.
``matvec`` runs the product along the last axis.

``MultilevelOperator`` represents the Kronecker-sum form

    nu*I + sum_i I (x) K_i (x) I,

with one nonsymmetric Toeplitz level K_i per axis, applied axis by axis
on the lexicographically ordered vector; for the Grünwald operators
``discretization.assemble_operator`` builds K_i = v_plus[i] * L_i +
v_minus[i] * L_i^T.  A level whose entries all vanish costs no product.
``apply`` is the only product of the operator; the dense spectra of
``spectrum`` build their matrices from it column by column, or from the
dense materialization, capped at MATERIALIZE_CAP unknowns.
``materialize`` holds one n x n array: nu*I, into whose (l, r) diagonal
blocks, viewed as ``(left, m_i, right, left, m_i, right)``, each level
adds K_i.
"""

import functools
import math

import numpy as np

from .transforms import _as_real, _axis_matmul, _check_dims, _count, _fibre_blocks

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
    ``row`` defaults to ``col`` (symmetric matrix).  Entries must be finite.
    """

    def __init__(self, col, row=None):
        col = _as_real(col, "col", shape=(None,), finite=True, copy=True)
        row = col if row is None else _as_real(row, "row", shape=col.shape, finite=True, copy=True)
        self.m = _count(col.shape[0], "a Toeplitz size")
        if col[0] != row[0]:
            raise ValueError(f"col[0]={col[0]} and row[0]={row[0]} must agree")
        col.setflags(write=False)
        row.setflags(write=False)
        self.col = col
        self.row = row

    def __repr__(self):
        return f"Toeplitz1D(m={self.m})"

    @functools.cached_property
    def _kernel(self):
        # built on first use, so assembly costs no product.  The dense matrix,
        # or the rFFT of the circulant embedding of length L, the least power
        # of two >= 2m-1
        if self.m <= DENSE_LEVEL_MAX:
            return self.dense()
        L = 1 << (2 * self.m - 2).bit_length()
        c = np.zeros(L)
        c[:self.m] = self.col
        c[L - self.m + 1:] = self.row[1:][::-1]
        return np.fft.rfft(c)

    def _axis_apply(self, X, axis, out):
        """Add T applied to every fibre of X along ``axis`` >= 0 to ``out``.

        Dense: one BLAS product.  FFT: per block of fibres, contiguous copy,
        rfft to length L, multiply, irfft, keep the first m entries.
        """
        kernel = self._kernel
        if kernel.ndim == 2:
            out += _axis_matmul(X, axis, kernel)
            return
        L = 2 * (kernel.shape[0] - 1)
        for xs, os in zip(_fibre_blocks(X, axis), _fibre_blocks(out, axis)):
            Y = np.fft.rfft(np.ascontiguousarray(xs), n=L, axis=-1)
            Y *= kernel
            os += np.fft.irfft(Y, n=L, axis=-1)[:, :self.m]

    def matvec(self, x):
        """T @ x along the last axis of x."""
        x = _as_real(x, "x")
        if x.ndim < 1 or x.shape[-1] != self.m:
            raise ValueError(f"expected trailing dimension {self.m}, got shape {x.shape}")
        out = np.zeros(x.shape)
        self._axis_apply(x, x.ndim - 1, out)
        return out

    def dense(self):
        idx = np.subtract.outer(np.arange(self.m), np.arange(self.m))
        return np.where(idx >= 0, self.col[np.abs(idx)], self.row[np.abs(idx)])


def flip(dims, x):
    """Apply the multilevel anti-identity Y = Y_{n1} (x) ... (x) Y_{nd}.

    Under lexicographic ordering the Kronecker product of per-axis
    reversals is the full reversal of the flat vector.
    """
    return _as_real(x, "x", shape=(math.prod(_check_dims(dims)),))[::-1].copy()


class MultilevelOperator:
    """Kronecker-sum operator ``nu*I + sum_i I (x) K_i (x) I``.

    ``levels`` holds one ``Toeplitz1D`` K_i per dimension; level i acts
    along axis i of the reshaped vector.  Immutable after construction;
    ``apply`` is pure.
    """

    def __init__(self, dims, nu, levels):
        dims = _check_dims(dims)
        levels = tuple(levels)
        if len(levels) != len(dims):
            raise ValueError(f"{len(dims)} dims but {len(levels)} levels")
        for m, K in zip(dims, levels):
            if not isinstance(K, Toeplitz1D) or K.m != m:
                raise ValueError(f"level {K!r} is not a Toeplitz1D of size {m}")
        self.nu = _as_real(nu, "nu", shape=(), finite=True)
        if self.nu < 0:
            raise ValueError(f"nu must be nonnegative, got {nu}")
        self.dims = dims
        self.n = math.prod(dims)
        self.levels = levels
        self._active = [(axis, K) for axis, K in enumerate(levels) if K.col.any() or K.row.any()]

    def __repr__(self):
        return f"MultilevelOperator(dims={self.dims}, nu={self.nu})"

    def apply(self, x):
        """A @ x."""
        X = _as_real(x, "x", shape=(self.n,)).reshape(self.dims)
        out = self.nu * X
        for axis, K in self._active:
            K._axis_apply(X, axis, out)
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
        for axis, K in enumerate(self.levels):
            m = self.dims[axis]
            left, right = math.prod(self.dims[:axis]), math.prod(self.dims[axis + 1:])
            blocks = A.reshape(left, m, right, left, m, right)
            D = K.dense()
            for l in range(left):
                for r in range(right):
                    blocks[l, :, r, l, :, r] += D
        return A
