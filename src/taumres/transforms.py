"""Orthonormal sine transform (DST-I) and FFT-based circular convolution.

The transform realized here is the symmetric orthogonal matrix

    S[j, k] = sqrt(2/(m+1)) * sin(pi*j*k/(m+1)),   j, k = 1..m,

which is its own inverse.  The fast path evaluates S @ x through a real
FFT of the odd extension of length 2*(m+1); the direct path materializes
S and is kept as an O(m^2) reference.
"""

import functools

import numpy as np

__all__ = ["dst1", "dst1_multi", "circular_convolve"]

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


def dst1_multi(dims, x, method="fft"):
    """Apply the tensorized DST-I ``S_{m1} (x) ... (x) S_{md}``.

    ``x`` is a flat vector in lexicographic order with dimension 1
    outermost; the transform is applied axis by axis.
    """
    dims = tuple(int(m) for m in dims)
    if any(m < 1 for m in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    x = np.asarray(x, dtype=float)
    n = int(np.prod(dims))
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n} for dims {dims}, got shape {x.shape}")
    a = x.reshape(dims)
    if method == "direct":
        for axis, m in enumerate(dims):
            a = np.moveaxis(np.moveaxis(a, axis, -1) @ _sine_matrix(m), -1, axis)
    else:
        for axis in range(len(dims)):
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
