"""Orthonormal sine transform (DST-I) and FFT-based circular convolution.

The transform realized here is the symmetric orthogonal matrix

    S[j, k] = sqrt(2/(m+1)) * sin(pi*j*k/(m+1)),   j, k = 1..m,

which is its own inverse.  The FFT path pads each fibre to
u = (0, x_1, ..., x_m, 0, ..., 0) of length 2(m+1); the imaginary part of
its real FFT is U_k = -sum_j x_j sin(pi*j*k/(m+1)), so y = -sqrt(2/(m+1)) * Im U.
The half-length DST-I (one FFT of length m+1 and a running sum for the
odd outputs) is not used: the running sum divides the rounding error of
its input by about sin(pi/(m+1)), and P P^{-1} x of the tau
preconditioner at dims (2, 513) then missed x by 7e-11 instead of 3e-13.
The direct path materializes S and costs O(m^2).

FFTs along an axis run _FIBRE_BLOCK fibres at a time: each block is
gathered into a contiguous buffer (for a non-last axis, a transposed
copy), so every FFT reads contiguous rows and a block's temporaries stay
in cache.  ``_fibre_blocks`` is shared with ``toeplitz``.

Per-axis rule of ``dst1_multi``: an axis of length m <= DENSE_AXIS_MAX is
applied as one dense BLAS product with the m x m sine matrix (O(n*m)
flops), a longer axis by FFT (O(n log m)).  ``_axis_matmul`` is the one
dense per-axis product, shared with ``toeplitz.MultilevelOperator``.
``dst1`` always takes the FFT path unless asked for the direct one.
"""

import functools
import math

import numpy as np

__all__ = ["DENSE_AXIS_MAX", "dst1", "dst1_multi", "circular_convolve"]

# Longest axis applied densely by dst1_multi.  dst1_multi on (m, m), FFT
# time over dense time per call (2 vCPUs, one BLAS thread, two interleaved
# runs): m = 255 1.32/1.25, 287 1.22/1.04, 351 1.10/1.20, 383 0.92/0.88,
# 447 1.00/1.02, 511 0.82/0.73, 767 0.70/0.66.  Lengths with a large prime
# factor in 2(m+1) are slow by FFT (m = 513: 5.6/4.9).
DENSE_AXIS_MAX = 351

# Fibres per FFT block: 32 fibres padded to 2048 points hold about 1 MB of
# buffers, which stays in cache.  At m = 1023, blocks of 32 and 64 were the
# fastest per call; 16 and 128 were 2-20% slower.
_FIBRE_BLOCK = 32

_METHODS = ("fft", "direct")
_DIRECT_MAX = 4096


def _sine_factor(m):
    return np.sqrt(2.0 / (m + 1))


@functools.lru_cache(maxsize=64)
def _sine_matrix(m):
    # jk is reduced mod 2(m+1) before scaling by pi: sin of the unreduced
    # angle, up to about pi*m radians, had errors of 2e-13 at m = 512
    j = np.arange(1, m + 1)
    S = _sine_factor(m) * np.sin(np.pi * (np.outer(j, j) % (2 * (m + 1))) / (m + 1))
    S.setflags(write=False)
    return S


def _axis_matmul(X, axis, K):
    """K @ (each fibre of X along ``axis`` >= 0) as one BLAS product, without moveaxis."""
    m = X.shape[axis]
    left = math.prod(X.shape[:axis])
    if axis == X.ndim - 1:
        return (X.reshape(left, m) @ K.T).reshape(X.shape)
    return np.matmul(K, X.reshape(left, m, -1)).reshape(X.shape)


def _fibre_blocks(X, axis):
    """Views (k, m), k <= _FIBRE_BLOCK, of the fibres of X along ``axis`` >= 0, one per row.

    X must be C-contiguous when the views are written to.
    """
    m = X.shape[axis]
    left = math.prod(X.shape[:axis])
    right = math.prod(X.shape[axis + 1:])
    X3 = X.reshape(left, m, right)
    if right == 1:
        return [X3[i:i + _FIBRE_BLOCK, :, 0] for i in range(0, left, _FIBRE_BLOCK)]
    return [X3[i, :, j:j + _FIBRE_BLOCK].T
            for i in range(left) for j in range(0, right, _FIBRE_BLOCK)]


def _dst1_fft_axis(X, axis):
    """DST-I along ``axis`` >= 0: one real FFT of length 2(m+1) per fibre."""
    m = X.shape[axis]
    scale = -_sine_factor(m)
    out = np.empty(X.shape)
    u = np.zeros((min(_FIBRE_BLOCK, X.size // m), m + 1))
    for xs, ys in zip(_fibre_blocks(X, axis), _fibre_blocks(out, axis)):
        k = xs.shape[0]
        u[:k, 1:] = xs
        U = np.fft.rfft(u[:k], n=2 * (m + 1), axis=-1)
        np.multiply(U.imag[:, 1:m + 1], scale, out=ys)
    return out


def dst1(x, method="fft"):
    """Apply the orthonormal DST-I to a vector.

    ``method`` selects the fast FFT path or the dense O(m^2) reference
    evaluation; S is an involution, so applying it twice returns ``x``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    m = x.shape[0]
    if m < 1:
        raise ValueError(f"transform length must be positive, got {m}")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {_METHODS}")
    if method == "direct":
        if m > _DIRECT_MAX:
            raise ValueError(f"direct method capped at m={_DIRECT_MAX}, got {m}")
        return _sine_matrix(m) @ x
    return _dst1_fft_axis(x, 0)


def dst1_multi(dims, x):
    """Apply the tensorized DST-I ``S_{m1} (x) ... (x) S_{md}``.

    ``x`` is a flat vector in lexicographic order with dimension 1
    outermost; the transform is applied axis by axis, densely on axes
    with m <= DENSE_AXIS_MAX and by FFT on longer ones.
    """
    dims = tuple(int(m) for m in dims)
    if any(m < 1 for m in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    x = np.asarray(x, dtype=float)
    n = int(np.prod(dims))
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n} for dims {dims}, got shape {x.shape}")
    a = x.reshape(dims)
    for axis, m in enumerate(dims):
        if m <= DENSE_AXIS_MAX:
            a = _axis_matmul(a, axis, _sine_matrix(m))
        else:
            a = _dst1_fft_axis(a, axis)
    return a.reshape(n)


def circular_convolve(a, b):
    """Cyclic convolution ``out[j] = sum_k a[k] * b[(j-k) mod L]``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length vectors, got {a.shape} and {b.shape}")
    L = a.shape[0]
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=L)
