"""Orthonormal sine transform (DST-I) and FFT-based circular convolution.

The transform realized here is the symmetric orthogonal matrix

    S[j, k] = sqrt(2/(m+1)) * sin(pi*j*k/(m+1)),   j, k = 1..m,

which is its own inverse.  The FFT path evaluates S @ x through a real
FFT of the odd extension of length 2*(m+1); the direct path materializes
S and costs O(m^2).

Per-axis rule of ``dst1_multi``: an axis of length m <= DENSE_AXIS_MAX is
applied as one dense BLAS product with the m x m sine matrix (O(n*m)
flops), a longer axis by FFT (O(n log m)); the DST's crossover lies
between m = 511 and 767.  ``_axis_matmul`` is the one dense per-axis
product, shared with ``toeplitz.MultilevelOperator``.
"""

import functools
import math

import numpy as np

__all__ = ["DENSE_AXIS_MAX", "dst1", "dst1_multi", "circular_convolve"]

DENSE_AXIS_MAX = 512

_METHODS = ("fft", "direct")
_DIRECT_MAX = 4096


def _sine_factor(m):
    return np.sqrt(2.0 / (m + 1))


@functools.lru_cache(maxsize=64)
def _sine_matrix(m):
    j = np.arange(1, m + 1)
    S = _sine_factor(m) * np.sin(np.pi * np.outer(j, j) / (m + 1))
    S.setflags(write=False)
    return S


def _axis_matmul(X, axis, K):
    """K @ (each fibre of X along ``axis`` >= 0) as one BLAS product, without moveaxis."""
    m = X.shape[axis]
    left = math.prod(X.shape[:axis])
    if axis == X.ndim - 1:
        return (X.reshape(left, m) @ K.T).reshape(X.shape)
    return np.matmul(K, X.reshape(left, m, -1)).reshape(X.shape)


def _dst1_fft_axis(a, axis):
    """DST-I along one axis via real FFT of the odd extension."""
    a = np.moveaxis(a, axis, -1)
    m = a.shape[-1]
    v = np.zeros(a.shape[:-1] + (2 * (m + 1),))
    v[..., 1:m + 1] = a
    v[..., m + 2:] = -a[..., ::-1]
    y = np.fft.rfft(v, axis=-1)
    out = (-0.5 * _sine_factor(m)) * y.imag[..., 1:m + 1]
    return np.moveaxis(out, -1, axis)


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
