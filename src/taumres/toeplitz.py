"""Uni-level and multilevel Toeplitz operators.

A ``Toeplitz1D`` stores first column and first row and owns the one
product of a level: ``_axis_apply`` adds T applied to every fibre along
one axis of an array.  On an axis with m <= DENSE_LEVEL_MAX its kernel is
the dense matrix, one BLAS product per axis.  On a longer axis it is the
rFFTs of the blocks T11, T12 and T21 of T = [[T11, T12], [T21, T22]], split
at h = ceil(m/2) and embedded in circulants of length L, the least power of
two >= 2h-1 (1024 at m = 1023, half the whole matrix's embedding); T22 is the
leading block of T11.  Two forward and two inverse FFTs of length L per axis
run on contiguous copies of blocks of fibres (``transforms._fibre_blocks``),
added into the result block by block: per call at (1023, 1023) on 2 vCPUs,
0.93x (axis 1) and 0.88x (axis 0) the time of one length-2048 FFT pair.
``matvec`` runs the product along the last axis.

``MultilevelOperator`` represents the Kronecker-sum form

    nu*I + sum_i I (x) K_i (x) I,

with one nonsymmetric Toeplitz level K_i per axis, applied axis by axis
on the lexicographically ordered vector; for the Grünwald operators
``discretization.assemble_operator`` builds K_i = v_plus[i] * L_i +
v_minus[i] * L_i^T.  A level whose entries all vanish costs no product.
``apply`` is the only product of the operator.  Dense matrices, capped
at MATERIALIZE_CAP unknowns, come from one block assembly (``_kron_sum``)
that holds one n x n array: ``materialize`` adds the levels K_i, the
dense spectra of ``spectrum`` the levels in a sine basis, such as S_i K_i S_i.
"""

import functools
import math

import numpy as np

from .transforms import _as_real, _axis_matmul, _check_dims, _count, _fibre_blocks

__all__ = ["Toeplitz1D", "MultilevelOperator", "flip"]

# The one limit on a dense n x n matrix: ``materialize`` and every dense
# spectrum (``spectrum``, the ``taumres spectrum`` command) refuse n above it
MATERIALIZE_CAP = 4096

# Longest axis whose level is applied as a dense m x m product.  Measured in
# example2 first-step solves (2 vCPUs, one BLAS thread), dense took 12-34%
# less time per iteration at m = 767 and 895; at m = 1023 the FFT level
# gave the solve_large benchmark workload 2.6% lower op_s and 12% lower
# peak_rss_mb, since each dense level holds m^2 floats.  With the 2 x 2
# block FFT level, example2's apply_symmetrized per call took FFT/dense
# 1.06-1.10 at m = 767, 0.84-0.91 at 895 and 0.67-0.74 at 1023 (two runs);
# the cutoff stays, since no workload has an axis between 256 and 1022.
DENSE_LEVEL_MAX = 895


class Toeplitz1D:
    """Toeplitz matrix stored by first column and first row.

    Entry (j, k) is ``col[j-k]`` for j >= k and ``row[k-j]`` otherwise.
    Entries must be finite.
    """

    def __init__(self, col, row):
        col = _as_real(col, "col", shape=(None,), finite=True, copy=True)
        row = _as_real(row, "row", shape=col.shape, finite=True, copy=True)
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
        # or the block rFFTs (module docstring): entry (j, k) of a p x q block
        # whose corner sits at row minus column s is t_{s+j-k}, at (j - k) mod L
        m = self.m
        if m <= DENSE_LEVEL_MAX:
            return self.dense()
        h = m - m // 2
        L = 1 << (2 * h - 2).bit_length()
        t = np.concatenate((self.row[:0:-1], self.col))   # t_d = t[m-1+d]
        c = np.zeros((3, L))
        for ci, s, p, q in zip(c, (0, -h, h), (h, h, m - h), (h, m - h, h)):
            d = np.arange(1 - q, p)
            ci[d] = t[m - 1 + s + d]
        return np.fft.rfft(c)

    def _axis_apply(self, X, axis, out):
        """Add T applied to every fibre of X along ``axis`` >= 0 to ``out``.

        Dense: one BLAS product.  FFT: per block of fibres, the top h and
        bottom m-h entries of a contiguous copy rfft'd to length L, combined
        by the 2 x 2 block kernel, irfft'd and the first h and m-h entries kept.
        """
        kernel = self._kernel
        if kernel.dtype != complex:
            out += _axis_matmul(X, axis, kernel)
            return
        K11, K12, K21 = kernel
        L, h = 2 * (kernel.shape[1] - 1), self.m - self.m // 2
        for xs, os in zip(_fibre_blocks(X, axis), _fibre_blocks(out, axis)):
            xs = np.ascontiguousarray(xs)
            Ft = np.fft.rfft(xs[:, :h], n=L, axis=-1)
            Fb = np.fft.rfft(xs[:, h:], n=L, axis=-1)
            os[:, :h] += np.fft.irfft(Ft * K11 + Fb * K12, n=L, axis=-1)[:, :h]
            os[:, h:] += np.fft.irfft(Ft * K21 + Fb * K11, n=L, axis=-1)[:, :self.m - h]

    def matvec(self, x):
        """T @ x along the last axis of x."""
        x = _as_real(x, "x")
        if x.ndim < 1 or x.shape[-1] != self.m:
            raise ValueError(f"expected trailing dimension {self.m}, got shape {x.shape}")
        out = np.zeros(x.shape)
        self._axis_apply(x, x.ndim - 1, out)
        return out

    def dense(self):
        # row j: the window of (row[m-1], ..., row[1], col) ending at col[j], reversed
        v = np.concatenate((self.row[:0:-1], self.col))
        return np.lib.stride_tricks.sliding_window_view(v, self.m)[:, ::-1].copy()


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
        return _kron_sum(self.dims, self.nu, (K.dense() for K in self.levels))


def _kron_sum(dims, nu, blocks):
    """Dense nu*I + sum_i I (x) B_i (x) I; in 1-D the C-contiguous B_1 is written and returned."""
    if len(dims) == 1:
        (A,) = blocks
        A.reshape(-1)[::dims[0] + 1] += nu
        return A
    A = np.eye(math.prod(dims))
    A *= nu
    for axis, B in enumerate(blocks):
        # the (l, r) diagonal blocks of A viewed as (left, m_i, right, left, m_i, right)
        shape = (math.prod(dims[:axis]), dims[axis], math.prod(dims[axis + 1:]))
        diagonal = np.einsum("lirljr->lrij", A.reshape(shape + shape))
        diagonal += B
    return A
