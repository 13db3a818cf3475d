import numpy as np
import pytest

from taumres.discretization import SECOND_ORDER
from taumres.toeplitz import DENSE_LEVEL_MAX, MultilevelOperator, Toeplitz1D, flip

from conftest import (assemble_dense, convolve_direct, grunwald_block, operator_dense, rel_err,
                      toeplitz_dense, traced_peak, two_sided)


def random_toeplitz(rng, m):
    col = rng.standard_normal(m)
    row = np.concatenate((col[:1], rng.standard_normal(m - 1))) if m > 1 else col
    return Toeplitz1D(col, row)


def random_operator(rng, dims):
    levels = [two_sided(random_toeplitz(rng, m), rng.uniform(0, 2), rng.uniform(0, 2))
              for m in dims]
    return MultilevelOperator(dims, rng.uniform(0, 3), levels)


# ---------------------------------------------------------------------------
# Toeplitz1D

def test_identity_matvec():
    T = Toeplitz1D([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert T.matvec([1.0, 2.0, 3.0]) == pytest.approx([1.0, 2.0, 3.0], abs=1e-14)


def test_tridiagonal_frozen():
    T = Toeplitz1D([2.0, -1.0, 0.0], [2.0, -1.0, 0.0])
    assert T.matvec([1.0, 1.0, 1.0]) == pytest.approx([1.0, 0.0, 1.0], abs=1e-13)


# the last three sizes take the FFT product, with equal halves (even m) and
# unequal ones (odd m), the others the dense one
@pytest.mark.parametrize("m", (1, 2, 3, 13, 64, DENSE_LEVEL_MAX + 1, DENSE_LEVEL_MAX + 2, 1023))
def test_matvec_matches_dense(m, rng):
    T = random_toeplitz(rng, m)
    x = rng.standard_normal(m)
    dense = toeplitz_dense(T.col, T.row)
    assert rel_err(T.matvec(x), dense @ x) <= 1e-12
    # the transpose is the Toeplitz matrix with column and row swapped
    AT = MultilevelOperator((m,), 0.0, [Toeplitz1D(T.row, T.col)])
    assert rel_err(AT.apply(x), dense.T @ x) <= 1e-12


@pytest.mark.parametrize("m", (5, DENSE_LEVEL_MAX + 1, DENSE_LEVEL_MAX + 2, 1023))
def test_matvec_is_the_operator_product(m, rng):
    # one product per level: matvec and a one-level operator run the same code
    T = random_toeplitz(rng, m)
    x = rng.standard_normal(m)
    assert np.array_equal(T.matvec(x), MultilevelOperator((m,), 0.0, [T]).apply(x))


def test_matvec_is_circulant_embedding(rng):
    # a product equals explicit circular convolutions with embedded kernels:
    # at a dense size one of length the least power of two >= 2m - 1; an FFT
    # level runs on the 2 x 2 blocks of T split at h = ceil(m/2), each one a
    # convolution of length L, the least power of two >= 2h - 1, which is half
    # the whole embedding's length, and T22 is the leading block of T11
    def convolve(B, x, L):
        # B's first column from entry 0 on, the rest of its first row at the end
        kernel = np.zeros(L)
        kernel[:B.shape[0]] = B[:, 0]
        kernel[L - B.shape[1] + 1:] = B[0, 1:][::-1]
        return convolve_direct(kernel, np.concatenate((x, np.zeros(L - x.size))))[:B.shape[0]]

    T = random_toeplitz(rng, 6)
    x = rng.standard_normal(6)
    assert rel_err(T.matvec(x), convolve(toeplitz_dense(T.col, T.row), x, 16)) <= 1e-13
    for m in (DENSE_LEVEL_MAX + 1, DENSE_LEVEL_MAX + 2):
        T = random_toeplitz(rng, m)
        x = rng.standard_normal(m)
        D = toeplitz_dense(T.col, T.row)
        h = m - m // 2
        L = 1 << (2 * h - 2).bit_length()
        assert 2 * L == 1 << (2 * m - 2).bit_length() and T._kernel.shape == (3, L // 2 + 1)
        assert np.array_equal(D[h:, h:], D[:m - h, :m - h])
        top = convolve(D[:h, :h], x[:h], L) + convolve(D[:h, h:], x[h:], L)
        bottom = convolve(D[h:, :h], x[:h], L) + convolve(D[:m - h, :m - h], x[h:], L)
        assert rel_err(T.matvec(x), np.concatenate((top, bottom))) <= 1e-13


def test_dense_entry_layout():
    T = Toeplitz1D([1.0, 2.0, 3.0], [1.0, 9.0, 8.0])
    expect = np.array([[1.0, 9.0, 8.0], [2.0, 1.0, 9.0], [3.0, 2.0, 1.0]])
    assert np.array_equal(T.dense(), expect)


@pytest.mark.parametrize("m", (1, 2, 7, 64))
def test_dense_is_the_gather_by_offset_bit_for_bit(m, rng):
    # the first formula: entry (j, k) gathered from col or row at |j - k|
    T = random_toeplitz(rng, m)
    idx = np.subtract.outer(np.arange(m), np.arange(m))
    expect = np.where(idx >= 0, T.col[np.abs(idx)], T.row[np.abs(idx)])
    dense = T.dense()
    assert dense.tobytes() == expect.tobytes() and dense.flags.c_contiguous


def test_dense_holds_one_matrix(rng):
    T = random_toeplitz(rng, 1023)
    assert traced_peak(T.dense) <= 1.01 * 8 * T.m ** 2


def test_corner_mismatch_rejected():
    with pytest.raises(ValueError):
        Toeplitz1D([1.0, 2.0], [3.0, 4.0])



def test_symmetric_part():
    # H(T) is the symmetric Toeplitz matrix with first column (col + row)/2,
    # the column the tau preconditioner is built from
    T = Toeplitz1D([1.0, 2.0, 3.0], [1.0, 9.0, 8.0])
    ref = 0.5 * (toeplitz_dense(T.col, T.row) + toeplitz_dense(T.col, T.row).T)
    assert np.allclose(toeplitz_dense(0.5 * (T.col + T.row)), ref, atol=1e-15)


# ---------------------------------------------------------------------------
# flip

def test_flip_examples():
    assert np.array_equal(flip((3,), [1.0, 2.0, 3.0]), [3.0, 2.0, 1.0])
    assert np.array_equal(flip((2, 2), [1.0, 2.0, 3.0, 4.0]), [4.0, 3.0, 2.0, 1.0])


def test_flip_involution(rng):
    x = rng.standard_normal(12)
    assert np.array_equal(flip((3, 4), flip((3, 4), x)), x)


def test_flip_rejects_bad_length():
    with pytest.raises(ValueError):
        flip((2, 2), np.zeros(5))


# ---------------------------------------------------------------------------
# MultilevelOperator

def test_apply_identity_when_no_levels_active(rng, monkeypatch):
    dims = (3, 4)
    levels = [two_sided(random_toeplitz(rng, m), 0.0, 0.0) for m in dims]
    A = MultilevelOperator(dims, 1.0, levels)
    x = rng.standard_normal(12)
    # a level whose entries all vanish costs no product
    monkeypatch.setattr(Toeplitz1D, "_axis_apply", None)
    assert np.array_equal(A.apply(x), x)


def test_apply_reduces_to_toeplitz_in_1d(rng):
    T = random_toeplitz(rng, 9)
    A = MultilevelOperator((9,), 0.5, [two_sided(T, 1.25, 0.75)])
    x = rng.standard_normal(9)
    ref = 0.5 * x + 1.25 * T.matvec(x) + 0.75 * toeplitz_dense(T.col, T.row).T @ x
    assert rel_err(A.apply(x), ref) <= 1e-14


def test_apply_matches_explicit_2x2_kron(rng):
    dims = (2, 2)
    T1 = random_toeplitz(rng, 2)
    T2 = random_toeplitz(rng, 2)
    nu, v1p, v1m, v2p, v2m = 0.7, 1.1, 0.3, 0.9, 1.7
    A = MultilevelOperator(dims, nu, [two_sided(T1, v1p, v1m), two_sided(T2, v2p, v2m)])
    dense = assemble_dense(dims, nu, [(T1.col, T1.row, v1p, v1m),
                                      (T2.col, T2.row, v2p, v2m)])
    x = rng.standard_normal(4)
    assert rel_err(A.apply(x), dense @ x) <= 1e-13


# one (n_i, sides) entry per axis: sides "+-" is two-sided, "+" or "-"
# one-sided (v- = 0 or v+ = 0) and "" vanishing (v+ = v- = 0, skipped);
# the last six sit at or past the cutoff: an FFT axis (DENSE_LEVEL_MAX + 1)
# next to a dense one, either way round, a dense axis of exactly
# DENSE_LEVEL_MAX, FFT axes with unequal halves (odd m) alone and next to a
# dense one, and an odd FFT axis in the middle of three with one vanishing
ORACLE_DIMS = (
    ((5, "+-"),),
    ((3, "+-"), (4, "+-")),
    ((2, "+-"), (3, "+-"), (4, "+-")),
    ((1, "+-"),),
    ((2, "+"),),
    ((31, "-"),),
    ((63, ""),),
    ((1, "+-"), (7, "+")),
    ((15, ""), (2, "+-")),
    ((5, "+"), (1, ""), (3, "+-")),
    ((7, "-"), (2, "+-"), (1, "+")),
    ((DENSE_LEVEL_MAX + 1, "+-"), (2, "+-")),
    ((2, "+-"), (DENSE_LEVEL_MAX + 1, "+-")),
    ((DENSE_LEVEL_MAX, "+-"), (2, "+-")),
    ((DENSE_LEVEL_MAX + 2, "+-"), (2, "-")),
    ((1023, "+-"),),
    ((1, "+"), (DENSE_LEVEL_MAX + 2, "+-"), (2, "")),
)


@pytest.mark.parametrize("dims", ORACLE_DIMS)
def test_apply_and_transpose_match_dense(dims, rng):
    sizes = tuple(m for m, _ in dims)
    triples = [(random_toeplitz(rng, m),
                rng.uniform(0, 2) if "+" in sides else 0.0,
                rng.uniform(0, 2) if "-" in sides else 0.0) for m, sides in dims]
    nu = rng.uniform(0, 3)
    A = MultilevelOperator(sizes, nu, [two_sided(*t) for t in triples])
    dense = assemble_dense(sizes, nu, [(T.col, T.row, vp, vm) for T, vp, vm in triples])
    x = rng.standard_normal(A.n)
    assert rel_err(A.apply(x), dense @ x) <= 1e-12
    assert rel_err(A.apply_symmetrized(x), dense[::-1, :] @ x) <= 1e-12


def test_symmetric_part_halves_sum(rng):
    # H(A) = (A + A^T)/2 is the Kronecker sum of the symmetric levels H(K_i),
    # with H(K_i) = (v+_i + v-_i) H(L_i) the symmetric Toeplitz matrix of first
    # column (col + row)/2: the sum the tau preconditioner approximates
    A = random_operator(rng, (3, 5))
    dense = operator_dense(A)
    halves = [(0.5 * (K.col + K.row), None, 1.0, 0.0) for K in A.levels]
    ref = assemble_dense(A.dims, A.nu, halves)
    assert np.max(np.abs(0.5 * (dense + dense.T) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_symmetric_part_equals_apply_for_symmetric_operator(rng):
    col = rng.standard_normal(4)
    T = Toeplitz1D(col, col)
    A = MultilevelOperator((4,), 1.0, [two_sided(T, 0.8, 0.8)])
    x = rng.standard_normal(4)
    dense = operator_dense(A)
    assert np.array_equal(dense, dense.T)
    assert rel_err(A.apply(x), dense.T @ x) <= 1e-14


def test_symmetric_part_grunwald_block():
    # the symmetric part of a one-sided Grünwald level is the symmetric
    # Toeplitz matrix the tau preconditioner is built from
    L = grunwald_block(1.5, 3, SECOND_ORDER)
    dense = operator_dense(MultilevelOperator((3,), 0.0, [two_sided(L, 1.0, 0.0)]))
    assert rel_err(0.5 * (dense + dense.T), toeplitz_dense(0.5 * (L.col + L.row))) <= 1e-15


def test_symmetrized_grunwald_block_dense(rng):
    L = grunwald_block(1.5, 3, SECOND_ORDER)
    A = MultilevelOperator((3,), 2.0, [two_sided(L, 1.5, 0.5)])
    x = rng.standard_normal(3)
    dense = 2.0 * np.eye(3) + 1.5 * toeplitz_dense(L.col, L.row) \
        + 0.5 * toeplitz_dense(L.col, L.row).T
    ref = dense[::-1, :] @ x
    assert rel_err(A.apply_symmetrized(x), ref) <= 1e-13


def test_symmetrized_is_flip_of_apply(rng):
    A = random_operator(rng, (3, 4))
    x = rng.standard_normal(12)
    assert np.array_equal(A.apply_symmetrized(x), A.apply(x)[::-1])
    ident = MultilevelOperator((3, 4), 1.0, [two_sided(random_toeplitz(rng, 3), 0, 0),
                                             two_sided(random_toeplitz(rng, 4), 0, 0)])
    assert np.array_equal(ident.apply_symmetrized(x), flip((3, 4), x))


def test_symmetrized_dense_is_symmetric(rng):
    A = random_operator(rng, (4, 5))
    dense = operator_dense(A)
    ya = dense[::-1, :]
    assert np.max(np.abs(ya - ya.T)) <= 1e-13 * np.max(np.abs(ya))


def test_dimension_validation(rng):
    A = random_operator(rng, (3, 4))
    with pytest.raises(ValueError):
        A.apply(np.zeros(13))
    with pytest.raises(ValueError):
        MultilevelOperator((3,), 1.0, [random_toeplitz(rng, 4)])
    with pytest.raises(ValueError):
        MultilevelOperator((3,), -1.0, [random_toeplitz(rng, 3)])
    # a level is one Toeplitz1D, not a (T, v+, v-) triple
    with pytest.raises(ValueError):
        MultilevelOperator((3,), 1.0, [(random_toeplitz(rng, 3), 1.0, 1.0)])
    # a non-integral size is refused, not truncated to 3
    with pytest.raises(ValueError):
        MultilevelOperator((3.9,), 1.0, [random_toeplitz(rng, 3)])
    with pytest.raises(ValueError):
        flip((3.5,), np.zeros(3))


def test_non_finite_coefficients_rejected(rng):
    T = random_toeplitz(rng, 3)
    for nu in (np.nan, np.inf):
        with pytest.raises(ValueError):
            MultilevelOperator((3,), nu, [T])
    # a non-finite level entry is refused as such when the level is built: not
    # left to make the product nan, nor taken for a corner mismatch
    for col, row in (([1.0, 1.0], [1.0, np.inf]), ([np.nan, 1.0], [np.nan, 2.0]),
                     ([1.0, -np.inf, 0.0], None), (T.col, [T.col[0], 1.0, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            MultilevelOperator((len(col),), 1.0, [Toeplitz1D(col, row)])
