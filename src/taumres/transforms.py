"""Orthonormal sine transform (DST-I), one vector or tensorized over axes.

The transform realized here is the symmetric orthogonal matrix

    S[j, k] = sqrt(2/(m+1)) * sin(pi*j*k/(m+1)),   j, k = 1..m,

which is its own inverse.  The FFT path pads each fibre to
u = (0, x_1, ..., x_m, 0, ..., 0) of length 2(m+1); the imaginary part of
its real FFT is U_k = -sum_j x_j sin(pi*j*k/(m+1)), so y = -sqrt(2/(m+1)) * Im U.
The half-length DST-I (one FFT of length m+1 and a running sum for the
odd outputs) is not used: the running sum divides the rounding error of
its input by about sin(pi/(m+1)), and P P^{-1} x of the tau
preconditioner at dims (2, 513) then missed x by 7e-11 instead of 3e-13.

The dense fold is exact.  S[m+1-j, k] = (-1)^(k+1) S[j, k] (Britanak, Yip
and Rao, Discrete Cosine and Sine Transforms, 2007), so with the pairs
x_j +- x_{m+1-j} (one add each, no running sum) the odd coefficients
k = 1, 3, ... are one product with a ceil(m/2)-square block of S and the
even ones one product with an (m/2)-square block: half the flops of the
full product, and no rounding error is amplified (the folded transform
matched the dense oracle to 2e-15 relative).  The sums and differences
fill one work buffer as two contiguous blocks on every axis, and the
products write straight to the odd and even positions (natural order).

FFTs along an axis run _FIBRE_BLOCK fibres at a time, so a block's
buffers stay in cache.  The DST gathers each block into one contiguous
padded (k, m+1) buffer allocated per call, on every axis, so no FFT runs
strided; off the last axis the result is staged in that buffer and copied
out.  Per call on 2 vCPUs the axis-0 DST took 0.87x the time of (m, k) slab
buffers laid out like the blocks at (1023, 1023), 0.81x at (511, 511), bit
for bit the same.  ``_fibre_blocks`` is shared with the FFT product of a
``toeplitz.Toeplitz1D`` level, which also gathers each block contiguously.

Per-axis rule of ``dst1_multi`` (``_axis_path``): an axis with
m < FOLD_MIN is one full dense BLAS product with the m x m sine matrix
(O(n*m) flops); up to DENSE_AXIS_MAX it is folded (O(n*m/2)); a longer
axis goes by FFT (O(n log m)), unless 2(m+1) has a prime factor above 7,
for which numpy's FFT is slow: such an axis stays folded up to
AWKWARD_AXIS_MAX.  ``_axis_matmul`` is the one full per-axis product,
shared with the dense product of a ``toeplitz.Toeplitz1D`` level.
``dst1_multi`` is the one public entry, for a single vector too (dims
``(m,)``); ``tau.tau_eigs`` builds the preconditioner by the FFT path
``_dst1_fft_axis`` directly.  This lowest layer also holds the library's
one input rule: ``_as_real`` for every number, ``_is_whole`` for counts.
"""

import functools
import math
import numbers

import numpy as np

__all__ = ["FOLD_MIN", "DENSE_AXIS_MAX", "AWKWARD_AXIS_MAX", "dst1_multi"]

# The per-axis rule, measured inside MINRES: example2 first-step solves at
# n1 = m, alpha = (1.5, 1.5), time per iteration with the axis forced onto
# each path, interleaved medians (2 vCPUs, one BLAS thread).
# FOLD_MIN: full over fold time 0.82 at m = 63, 0.91 at 79, 0.95 at 95,
# 1.05 at 103, 1.08 at 111, 1.12 at 127.
FOLD_MIN = 100
# DENSE_AXIS_MAX: FFT over fold time 1.07 at m = 255, 1.09 at 287, 0.99 at
# 319, 1.01 at 351, 1.00 at 383, 1.01 at 447, 0.88 at 511, 0.90 at 575,
# 0.87 at 639, 0.95 at 671, 0.84 at 767.  Per call on (m, m) the FFT
# already wins from 319 on: 1.37 at 255, 0.98 at 287, 0.85 at 319, 0.79
# at 383, 0.90 at 447, 0.68 at 511.
DENSE_AXIS_MAX = 287
# AWKWARD_AXIS_MAX: per call on (m, 128), FFT over fold time with p the
# largest prime factor of 2(m+1).  p = 11 or 13: 1.58 at m = 351, 1.46 at
# 415, 1.07 at 703, 0.86 at 831, 0.96 at 1000, 0.85 at 1055, 0.76 at 1247.
# Larger p: 4.7 at 513 (p = 257), 1.69 at 800 (89), 1.23 at 900 (53).
# Up to the cap as well: 3.8 at 1030 (1031), 3.5 at 1100 (367), 2.2 at
# 2002 (2003), 1.00 at 1702 (131), but 0.90 at 1500 (79) and 0.74 at 2046
# (89); past it the FFT won at 2302 (47), 0.71.
AWKWARD_AXIS_MAX = 2047

# Fibres per FFT block: 32 fibres padded to 2048 points hold about 1 MB of
# buffers, which stays in cache.  At m = 1023, blocks of 32 and 64 were the
# fastest per call; 16 and 128 were 2-20% slower.
_FIBRE_BLOCK = 32


def _sine_factor(m):
    return np.sqrt(2.0 / (m + 1))


def _sine_block(m, rows, cols):
    # S[rows, cols] for 1-based indices.  jk is reduced mod 2(m+1) before
    # scaling by pi: sin of the unreduced angle, up to about pi*m radians,
    # had errors of 2e-13 at m = 512
    S = _sine_factor(m) * np.sin(np.pi * (np.outer(rows, cols) % (2 * (m + 1))) / (m + 1))
    S.setflags(write=False)
    return S


@functools.lru_cache(maxsize=64)
def _sine_matrix(m):
    j = np.arange(1, m + 1)
    return _sine_block(m, j, j)


# An entry holds m^2 doubles, 33.5 MB at m = AWKWARD_AXIS_MAX: the cache keeps
# _HALVES_CACHED lengths, the axes of a 3-D problem and one more, so at most 134 MB
_HALVES_CACHED = 4


@functools.lru_cache(maxsize=_HALVES_CACHED)
def _sine_halves(m):
    # S_odd (rows k = 1, 3, ... on columns j <= ceil(m/2)), S_even (rows
    # k = 2, 4, ... on j <= m/2) and their transposes, all C-contiguous: a
    # product with a transposed view as its right factor ran about 25%
    # slower at m = 127
    j = np.arange(1, m + 1)
    odd, even, half, low = j[0::2], j[1::2], j[:m - m // 2], j[:m // 2]
    return (_sine_block(m, odd, half), _sine_block(m, even, low),
            _sine_block(m, half, odd), _sine_block(m, low, even))


def _axis_matmul(X, axis, K):
    """K @ (each fibre of X along ``axis`` >= 0) as one BLAS product, without moveaxis."""
    m = X.shape[axis]
    left = math.prod(X.shape[:axis])
    if axis == X.ndim - 1:
        return (X.reshape(left, m) @ K.T).reshape(X.shape)
    return np.matmul(K, X.reshape(left, m, -1)).reshape(X.shape)


def _fold(X, axis, work, out):
    """S along ``axis`` >= 0 by the even/odd fold (module docstring); ``out`` may be X.

    ``work`` (n floats) holds P (left, ceil(m/2), right), then Q (left, m/2,
    right).  The products write to the strided odd and even positions of
    ``out``: that cost no more than a contiguous output plus an interleaving copy.
    """
    X3 = X.reshape(math.prod(X.shape[:axis]), X.shape[axis], -1)
    left, m, right = X3.shape
    h, o = m // 2, m - m // 2
    P = work.reshape(-1)[:left * o * right].reshape(left, o, right)
    Q = work.reshape(-1)[left * o * right:].reshape(left, h, right)
    top, bot = X3[:, :h], X3[:, m - h:][:, ::-1]
    np.add(top, bot, out=P[:, :h])
    P[:, h:] = X3[:, h:o]
    np.subtract(top, bot, out=Q)
    S_odd, S_even, S_odd_t, S_even_t = _sine_halves(m)
    Y3 = out.reshape(X3.shape)
    if right == 1:
        np.matmul(P[:, :, 0], S_odd_t, out=Y3[:, 0::2, 0])
        np.matmul(Q[:, :, 0], S_even_t, out=Y3[:, 1::2, 0])
    else:
        np.matmul(S_odd, P, out=Y3[:, 0::2])
        np.matmul(S_even, Q, out=Y3[:, 1::2])
    return out


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


def _dst1_fft_axis(X, axis, out=None):
    """DST-I along ``axis`` >= 0: one real FFT of length 2(m+1) per fibre.

    ``out`` may be X itself: every block is copied into the padded buffer
    before it is written.
    """
    m = X.shape[axis]
    scale = -_sine_factor(m)
    out = np.empty(X.shape) if out is None else out
    # one contiguous padded input and one transform per call, on every axis;
    # off the last axis a block's result passes through u on its way out, as
    # a strided product output ran 1.07x slower at (1023, 1023)
    last = axis == X.ndim - 1
    k_max = min(_FIBRE_BLOCK, X.size // m)
    u, U = np.zeros((k_max, m + 1)), np.empty((k_max, m + 2), dtype=complex)
    for xs, ys in zip(_fibre_blocks(X, axis), _fibre_blocks(out, axis)):
        k = xs.shape[0]
        u[:k, 1:] = xs
        np.fft.rfft(u[:k], n=2 * (m + 1), axis=-1, out=U[:k])
        np.multiply(U.imag[:k, 1:m + 1], scale, out=ys if last else u[:k, 1:])
        if not last:
            ys[...] = u[:k, 1:]
    return out


def _smooth(n):
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def _axis_path(m):
    """How dst1_multi applies S along an axis of length m: "full", "fold" or "fft"."""
    if m < FOLD_MIN:
        return "full"
    if m <= DENSE_AXIS_MAX or (m <= AWKWARD_AXIS_MAX and not _smooth(2 * (m + 1))):
        return "fold"
    return "fft"


def _is_whole(v):
    """The one rule for sizes and counts: 2 and 2.0 are whole; 2.5, nan, True and "2" are not."""
    return type(v) is int or not isinstance(v, bool) and isinstance(v, numbers.Real) and (
        isinstance(v, numbers.Integral) or float(v).is_integer())


def _count(v, what, low=1):
    """``v`` as an int; ValueError unless it is whole (``_is_whole``) and at least ``low``."""
    if not (_is_whole(v) and v >= low):
        raise ValueError(f"{what} must be a whole number >= {low}, got {v!r}")
    return int(v)


def _check_dims(dims):
    """``dims`` as a tuple of ints; ValueError unless it holds one or more whole numbers >= 1."""
    if not np.iterable(dims) or not (dims := tuple(dims)):
        raise ValueError(f"sizes must be one or more positive integers, got {dims!r}")
    return tuple(_count(m, "a size") for m in dims)


def _as_real(x, what, shape=None, finite=False, copy=False):
    """The one input rule for numbers: ``x`` as a float array (a float for shape ()).

    ValueError for complex, boolean, text or object entries (never cut to the real part
    or parsed), another shape (None matches any length) and, with ``finite``, a non-finite
    entry.  Float64 is copied only on ``copy``; finiteness is counted (.all() is slower).
    """
    if type(x) is float and shape == () and (not finite or math.isfinite(x)):
        return float(x)   # numpy's per-call cost would dominate a set-up's dozens of calls
    try:
        a = np.asarray(x)
    except ValueError:   # numpy's "inhomogeneous shape"
        raise ValueError(f"{what} must be a regular array, not a ragged nested sequence") from None
    # numpy reads a bool among numbers in a list as 0 or 1, so lists are scanned
    if a.dtype.kind not in "iuf" or (a.ndim and not isinstance(x, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat)):
        raise ValueError(f"{what} must hold real numbers, not complex, boolean, text or objects")
    if shape is not None and (a.ndim != len(shape) or a.shape != shape and any(
            s is not None and s != m for s, m in zip(shape, a.shape))):
        want = {0: "a scalar", 1: "a 1-D vector"}.get(len(shape), f"a {len(shape)}-D array")
        raise ValueError(f"{what} must be {want} of shape {shape}, got shape {a.shape}")
    a = np.array(a, dtype=float) if copy else np.asarray(a, dtype=float)
    if finite and np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(f"{what} has non-finite entries")
    return float(a) if shape == () else a


def dst1_multi(dims, x, out=None):
    """Apply the tensorized DST-I ``S = S_{m1} (x) ... (x) S_{md}``.

    ``x`` is a flat vector in lexicographic order with dimension 1
    outermost.  Each axis runs by its ``_axis_path``: one full dense
    product, the even/odd fold and two half-size products, or FFTs.  The
    result is a new array, or ``out`` (a C-contiguous float vector of n
    entries; it may be ``x`` itself, which is then transformed in place).
    """
    dims = _check_dims(dims)
    x = _as_real(x, "x", shape=(math.prod(dims),))
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == x.shape
                                and out.dtype == float and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float vector of length {x.size}")
    paths = [_axis_path(m) for m in dims]
    xa = x.reshape(dims)
    own = None if out is None else out.reshape(dims)
    a = xa
    # the fold's scratch is allocated before the output: the other order
    # ran the example2 march at n1 = 127 2-6% slower in benchmark runs
    # (likely the allocator trimming the freed scratch off the heap top)
    work = np.empty(dims) if "fold" in paths else None
    for axis, (m, path) in enumerate(zip(dims, paths)):
        if path == "full":
            a = _axis_matmul(a, axis, _sine_matrix(m))
            continue
        # folds and FFTs write in place once a is no longer the caller's x
        target = (np.empty(dims) if own is None else own) if a is xa else a
        if path == "fft":
            a = _dst1_fft_axis(a, axis, out=target)
        else:
            a = _fold(a, axis, work, target)
    if own is not None and a is not own:
        own[...] = a
    return a.reshape(-1) if own is None else out
