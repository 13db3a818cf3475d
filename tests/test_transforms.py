import itertools
import tracemalloc

import numpy as np
import pytest

from taumres import transforms
from taumres.transforms import (AWKWARD_AXIS_MAX, DENSE_AXIS_MAX, FOLD_MIN, _axis_path,
                                _dst1_fft_axis, dst1_multi)

from conftest import kron_chain, rel_err, sine_matrix, sine_oracle

SIZES = (1, 3, 7, 15, 31, 63, 255, 511)

# the first length past the dense cutoff that runs by FFT; 513 (2 * 514 =
# 4 * 257) is an awkward FFT length, folded although it is past the cutoff
FFT_M = next(m for m in itertools.count(DENSE_AXIS_MAX + 1) if _axis_path(m) == "fft")
AWKWARD_M = 513


def test_length_one_is_identity():
    assert dst1_multi((1,), [5.0]) == pytest.approx([5.0], abs=0)


def test_unit_vector_m3_frozen():
    # sqrt(1/2) * sin(pi*j/4), j = 1..3
    out = dst1_multi((3,), [1.0, 0.0, 0.0])
    assert out == pytest.approx([0.5, 0.7071067811865476, 0.5], abs=1e-15)


# SIZES reach the full product, the fold (255) and the FFT (511)
@pytest.mark.parametrize("m", SIZES)
def test_involution_and_parseval(m, rng):
    for _ in range(5):
        x = rng.standard_normal(m)
        y = dst1_multi((m,), x)
        assert np.max(np.abs(dst1_multi((m,), y) - x)) <= 1e-12 * max(np.max(np.abs(x)), 1.0)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)


# the FFT path, which tau_eigs takes at every length, at every m up to 33
# (both parities of m and of m+1) and on long axes; 513 has the awkward FFT
# length 2*514 = 4*257
@pytest.mark.parametrize("m", tuple(range(1, 34)) + (63, 100, 127, 128, 255, 511, 513, 1023))
def test_fft_matches_direct_and_dense(m, rng):
    x = rng.standard_normal(m)
    assert rel_err(_dst1_fft_axis(x, 0), sine_matrix(m) @ x) <= 1e-13


# the FFT axis first, in the middle and last of a 3-D array; the last three
# hold more fibres than one FFT block, with a partial last block
@pytest.mark.parametrize("dims", ((FFT_M, 2, 3), (2, FFT_M, 3), (2, 3, FFT_M), (FFT_M, 70),
                                  (70, FFT_M), (2, FFT_M, 33)))
def test_multi_fft_axis_matches_tensordot_oracle(dims, rng):
    x = rng.standard_normal(int(np.prod(dims)))
    assert rel_err(dst1_multi(dims, x), sine_oracle(dims, x)) <= 1e-13


def test_axis_path_rule():
    assert [_axis_path(m) for m in (1, FOLD_MIN - 1, FOLD_MIN, DENSE_AXIS_MAX)] == \
        ["full", "full", "fold", "fold"]
    assert _axis_path(FFT_M) == "fft" and _axis_path(AWKWARD_M) == "fold"
    assert _axis_path(1023) == "fft"  # 2 * 1024 is a power of two
    # 2 * 1031 and 2 * 3 * 367: the FFT took 3.8x and 3.5x the fold's time
    assert _axis_path(1030) == _axis_path(1100) == "fold"
    # past the awkward cap even a length with a large prime factor goes by FFT
    awkward_past_cap = next(m for m in itertools.count(AWKWARD_AXIS_MAX + 1)
                            if not transforms._smooth(2 * (m + 1)))
    assert _axis_path(awkward_past_cap) == "fft"


def test_sine_halves_cache_holds_a_few_lengths(rng):
    # a folded axis caches its sine blocks, m^2 doubles; long awkward lengths must not pile
    # up: the cache keeps _HALVES_CACHED lengths, at most 134 MB however long they are
    cap = transforms._HALVES_CACHED
    assert cap * 8 * (AWKWARD_AXIS_MAX ** 2 + 1) <= 134.1e6
    lengths = [m for m in range(1025, AWKWARD_AXIS_MAX) if _axis_path(m) == "fold"][:cap + 3]
    transforms._sine_halves.cache_clear()
    tracemalloc.start()
    try:
        for m in lengths:
            dst1_multi((m,), np.ones(m))
        held = tracemalloc.get_traced_memory()[0]   # the vectors are gone, the cache is not
    finally:
        tracemalloc.stop()
        transforms._sine_halves.cache_clear()
    assert held <= cap * 8 * (max(lengths) ** 2 + 1) < 8 * sum(m * m for m in lengths)
    # a march at n1 = 127 folds one length: its blocks are built once
    x = rng.standard_normal(127 * 127)
    for _ in range(2):
        dst1_multi((127, 127), x)
    assert transforms._sine_halves.cache_info().misses == 1


# every m folds here: odd and even m, with and without a middle row, on the
# last axis (one product per half) and on a leading or middle axis (batched)
@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 62, 63, 64, 127, 128))
def test_fold_matches_sine_oracle(m, rng, monkeypatch):
    monkeypatch.setattr(transforms, "FOLD_MIN", 1)
    for dims in ((m,), (m, 3), (3, m), (2, m, 2)):
        assert _axis_path(m) == "fold"
        x = rng.standard_normal(int(np.prod(dims)))
        y = dst1_multi(dims, x)
        assert rel_err(y, sine_oracle(dims, x)) <= 1e-13
        # S is an involution
        assert np.max(np.abs(dst1_multi(dims, y) - x)) <= 1e-13 * np.max(np.abs(x))


# 3-D arrays that mix full, folded and FFT axes, and lengths on both sides
# of each boundary of the path rule
@pytest.mark.parametrize("dims", ((FOLD_MIN - 1, FOLD_MIN, 2), (2, FOLD_MIN, FOLD_MIN - 1),
                                  (FFT_M, 2, FOLD_MIN), (FOLD_MIN, FFT_M, 3),
                                  (3, FOLD_MIN + 1, FFT_M), (AWKWARD_M, 3, FOLD_MIN - 1),
                                  (AWKWARD_M, 1, FFT_M), (DENSE_AXIS_MAX, FFT_M), (1100, 3)))
def test_mixed_paths_match_tensordot_oracle(dims, rng):
    x = rng.standard_normal(int(np.prod(dims)))
    xc = x.copy()
    y = dst1_multi(dims, x)
    assert rel_err(y, sine_oracle(dims, x)) <= 1e-13
    assert np.max(np.abs(dst1_multi(dims, y) - x)) <= 1e-13 * np.max(np.abs(x))
    assert np.array_equal(x, xc)


def test_multi_trivial_cases(rng):
    assert dst1_multi((1, 1), [3.25]) == pytest.approx([3.25], abs=0)
    x = rng.standard_normal(9)
    assert np.max(np.abs(dst1_multi((3, 3), dst1_multi((3, 3), x)) - x)) <= 1e-13


def test_multi_matches_kronecker_oracle(rng):
    # the last two put an axis on each side of the dense/FFT cutoff
    for dims in ((2, 3), (2, 3, 4), (5, 4), (FFT_M, 3), (3, DENSE_AXIS_MAX)):
        n = int(np.prod(dims))
        S = kron_chain([sine_matrix(m) for m in dims])
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert rel_err(dst1_multi(dims, e1), S[:, 0]) <= 1e-13
        x = rng.standard_normal(n)
        assert rel_err(dst1_multi(dims, x), S @ x) <= 1e-12


def test_multi_rejects_bad_length():
    with pytest.raises(ValueError):
        dst1_multi((2, 3), np.zeros(5))
    for dims in ((), (3, 0)):
        with pytest.raises(ValueError):
            dst1_multi(dims, np.zeros(1))
    # a non-integral size is refused, not truncated to (2,)
    with pytest.raises(ValueError):
        dst1_multi((2.5,), np.zeros(2))


# TauPreconditioner scales the first DST's result and transforms it again
# in place; every path, an FFT axis first and last, a full axis after a
# folded or FFT one, and the fold of an odd m (its middle entry) on the last
# and on a middle axis
@pytest.mark.parametrize("dims", ((1,), (1, 1), (3, 4), (FOLD_MIN, 2), (FFT_M,), (2, FFT_M),
                                  (FOLD_MIN, 3, FFT_M), (2, FOLD_MIN + 1),
                                  (2, FOLD_MIN + 1, 3), (FFT_M, 3)))
def test_multi_new_array_or_out(dims, rng):
    x = rng.standard_normal(int(np.prod(dims)))
    expected = sine_oracle(dims, x)
    y = dst1_multi(dims, x)
    assert not np.shares_memory(y, x)
    out = np.empty(x.size)
    assert dst1_multi(dims, x, out=out) is out
    assert np.array_equal(out, y)
    assert dst1_multi(dims, x, out=x) is x
    assert np.array_equal(x, y) and rel_err(x, expected) <= 1e-13


def test_multi_rejects_bad_out():
    x = np.zeros(6)
    for out in (np.zeros(5), np.zeros((2, 3)), np.zeros(12)[::2], np.zeros(6, dtype=int),
                [0.0] * 6):
        with pytest.raises(ValueError):
            dst1_multi((2, 3), x, out=out)
