import itertools

import numpy as np
import pytest

from taumres.discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams,
                                    GridSpec, build_L, level_scales)
from taumres.tau import TauPreconditioner, build_preconditioner, tau_eigs
from taumres.transforms import DENSE_AXIS_MAX, FOLD_MIN, _axis_path

from conftest import (kron_chain, rel_err, sine_matrix, sine_oracle, tau_dense_oracle,
                      tau_eigs_cosine, tau_lam_reference, toeplitz_dense)

# the first length past the dense cutoff that runs by FFT
FFT_M = next(m for m in itertools.count(DENSE_AXIS_MAX + 1) if _axis_path(m) == "fft")


def symmetric_part_col(alpha, m, scheme):
    """First column of H(L) = (L + L^T)/2 for the Grünwald block L."""
    L = build_L(alpha, m, scheme)
    return 0.5 * (L.col + L.row)


def tau_from_eigs(col):
    """Dense S diag(q) S from the library's sine-basis eigenvalues."""
    S = sine_matrix(len(col))
    return S @ np.diag(tau_eigs(np.asarray(col, dtype=float))) @ S


# ---------------------------------------------------------------------------
# tau matrices, through the sine basis and the dense oracle

def test_tridiagonal_is_its_own_tau():
    col = [2.0, -1.0, 0.0, 0.0]
    assert np.array_equal(tau_dense_oracle(col), toeplitz_dense(col))
    assert rel_err(tau_from_eigs(col), toeplitz_dense(col)) <= 1e-14


def test_tau_hand_example_m4():
    col = [4.0, 1.0, 1.0, 1.0]
    expect = np.array([[3.0, 0.0, 1.0, 1.0],
                       [0.0, 4.0, 1.0, 1.0],
                       [1.0, 1.0, 4.0, 0.0],
                       [1.0, 1.0, 0.0, 3.0]])
    assert np.array_equal(tau_dense_oracle(col), expect)
    assert rel_err(tau_from_eigs(col), expect) <= 1e-14


def test_tau_size_one():
    assert np.array_equal(tau_dense_oracle([4.5]), [[4.5]])
    assert np.array_equal(tau_from_eigs([4.5]), [[4.5]])


@pytest.mark.parametrize("m", (1, 2, 3, 5, 12, 33))
def test_tau_matches_oracle_and_diagonalization(m, rng):
    col = rng.standard_normal(m)
    assert rel_err(tau_from_eigs(col), tau_dense_oracle(col)) <= 1e-13


# ---------------------------------------------------------------------------
# tau_eigs

def test_laplacian_eigenvalues_frozen():
    q = tau_eigs(np.array([2.0, -1.0, 0.0]))
    expect = [2.0 - 2.0 * np.cos(np.pi / 4), 2.0, 2.0 - 2.0 * np.cos(3 * np.pi / 4)]
    assert q == pytest.approx(expect, abs=1e-14)
    assert q == pytest.approx([0.5857864376269049, 2.0, 3.414213562373095], abs=1e-14)
    assert not q.flags.writeable


def test_eigs_size_one():
    assert tau_eigs(np.array([3.25])) == pytest.approx([3.25], abs=0)
    # the first column must be a nonempty vector
    for bad in (np.zeros(0), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            tau_eigs(bad)


@pytest.mark.parametrize("m", (1, 2, 3, 4, 8, 31, 64, 1023))
def test_dst_route_matches_cosine_sum(m, rng):
    col = rng.standard_normal(m)
    q_fast = tau_eigs(col)
    q_cos = tau_eigs_cosine(col)
    assert np.max(np.abs(q_fast - q_cos)) <= 1e-12 * max(np.max(np.abs(q_cos)), 1.0)


@pytest.mark.parametrize("m", (2, 5, 16, 64))
def test_eigs_match_dense_eigendecomposition(m, rng):
    col = rng.standard_normal(m)
    q = np.sort(tau_eigs(col))
    ev = np.linalg.eigvalsh(tau_dense_oracle(col))
    assert np.max(np.abs(q - ev)) <= 1e-10 * max(np.max(np.abs(ev)), 1.0)


def test_eigs_of_grunwald_symmetric_part_positive():
    for scheme in (FIRST_ORDER, SECOND_ORDER):
        for alpha in (1.1, 1.5, 1.9):
            col = symmetric_part_col(alpha, 8, scheme)
            q = tau_eigs(col)
            assert q.min() > 0
            ev = np.linalg.eigvalsh(tau_dense_oracle(col))
            assert np.max(np.abs(np.sort(q) - ev)) <= 1e-12


# ---------------------------------------------------------------------------
# preconditioner

def inverse_of(P):
    """Dense P^{-1}, one column P^{-1} e_j at a time."""
    return np.column_stack([P.apply_inverse(e) for e in np.eye(P.n)])


def test_degenerate_preconditioner_is_scaled_identity():
    params = FractionalParams((1.5, 1.9), (0.0, 0.0), (0.0, 0.0))
    grid = GridSpec((0, 0), (1, 1), (3, 4))
    P = build_preconditioner(params, grid, 3.0)
    assert np.array_equal(P.lam, np.full(12, 3.0))
    x = np.arange(12.0)
    assert P.apply_inverse(x) == pytest.approx(x / 3.0, abs=1e-14)


@pytest.mark.parametrize("scheme", [FIRST_ORDER, SECOND_ORDER])
@pytest.mark.parametrize("dims, d_plus, d_minus", [
    ((17,), (2.0,), (1.0,)),
    ((9, 12), (3.0, 2.0), (1.0, 1.0)),
    ((5, 6, 7), (1.0, 0.5, 2.0), (0.3, 1.0, 0.0)),
    ((9, 12), (0.0, 2.0), (0.0, 1.0)),
    ((9, 12), (3.0, 0.0), (1.0, 0.0)),
    ((5, 6, 7), (1.0, 0.0, 2.0), (0.3, 0.0, 1.0)),
    ((5, 6, 7), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
], ids=["1d", "2d", "3d", "2d-first-off", "2d-last-off", "3d-middle-off", "3d-all-off"])
def test_spectrum_bit_identical_to_block_built_reference(scheme, dims, d_plus, d_minus):
    # the columns from the coefficient table and the broadcast Kronecker sum give
    # the very bits of Grünwald blocks built per direction and n-size sums
    d = len(dims)
    params = FractionalParams((1.3, 1.7, 1.9)[:d], d_plus, d_minus, scheme)
    grid = GridSpec((0.0,) * d, (2.0,) * d, dims)
    for nu in (0.25, 3.5):
        assert np.array_equal(build_preconditioner(params, grid, nu).lam,
                              tau_lam_reference(params, grid, nu))


def test_preconditioner_dense_identity_1d():
    params = FractionalParams((1.5,), (2.0,), (1.0,), SECOND_ORDER)
    grid = GridSpec((0.0,), (1.0,), (16,))
    nu = 2.5
    P = build_preconditioner(params, grid, nu)
    (vp, vm), = level_scales(params, grid)
    col = symmetric_part_col(1.5, 16, SECOND_ORDER)
    dense = nu * np.eye(16) + (vp + vm) * tau_dense_oracle(col)
    S = sine_matrix(16)
    assert rel_err(S @ np.diag(P.lam) @ S, dense) <= 1e-11
    assert rel_err(inverse_of(P), np.linalg.inv(dense)) <= 1e-11


def test_preconditioner_dense_identity_2d():
    params = FractionalParams((1.5, 1.9), (3.0, 2.0), (1.0, 1.0), SECOND_ORDER)
    grid = GridSpec((0, 0), (2, 2), (3, 3))
    nu = 4.0
    P = build_preconditioner(params, grid, nu)
    dense = nu * np.eye(9)
    for i, (vp, vm) in enumerate(level_scales(params, grid)):
        col = symmetric_part_col(params.alpha[i], 3, params.scheme)
        blocks = [np.eye(3), np.eye(3)]
        blocks[i] = tau_dense_oracle(col)
        dense = dense + (vp + vm) * kron_chain(blocks)
    assert rel_err(inverse_of(P), np.linalg.inv(dense)) <= 1e-11


def test_apply_inverse_round_trip(rng):
    params = FractionalParams((1.5,), (2.0,), (1.0,), SECOND_ORDER)
    grid = GridSpec((0.0,), (1.0,), (16,))
    P = build_preconditioner(params, grid, 1.0)
    (vp, vm), = level_scales(params, grid)
    col = symmetric_part_col(1.5, 16, SECOND_ORDER)
    dense = 1.0 * np.eye(16) + (vp + vm) * tau_dense_oracle(col)
    x = rng.standard_normal(16)
    assert np.max(np.abs(dense @ P.apply_inverse(x) - x)) <= 1e-11 * np.max(np.abs(x))
    assert np.array_equal(P.apply_inverse(np.zeros(16)), np.zeros(16))


def test_inv_sqrt_squares_to_inverse(rng):
    params = FractionalParams((1.3, 1.8), (1.0, 2.0), (2.0, 0.5), SECOND_ORDER)
    grid = GridSpec((0, 0), (1, 1), (4, 5))
    P = build_preconditioner(params, grid, 2.0)
    x = rng.standard_normal(20)
    twice = P.apply_inv_sqrt(P.apply_inv_sqrt(x))
    assert np.max(np.abs(twice - P.apply_inverse(x))) <= 1e-11 * np.max(np.abs(x))


def test_constant_spectrum_inv_sqrt():
    P = TauPreconditioner((4,), np.full(4, 4.0))
    x = np.arange(4.0)
    assert P.apply_inv_sqrt(x) == pytest.approx(x / 2.0, abs=1e-14)


def test_dense_inv_sqrt_eigenvalues(rng):
    params = FractionalParams((1.5,), (1.0,), (2.0,), FIRST_ORDER)
    grid = GridSpec((0.0,), (1.0,), (12,))
    P = build_preconditioner(params, grid, 1.5)
    M = np.column_stack([P.apply_inv_sqrt(e) for e in np.eye(12)])
    assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
    ev = np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))
    assert ev == pytest.approx(np.sort(P.lam ** -0.5), abs=1e-11)


@pytest.mark.parametrize("scheme", (FIRST_ORDER, SECOND_ORDER))
def test_positivity_sweep(scheme):
    for d in (1, 2):
        for alpha in (1.1, 1.5, 1.9):
            for n in (7, 15, 31):
                for nu in (0.0, 1.0, 1000.0):
                    params = FractionalParams((alpha,) * d, (2.0,) * d, (0.5,) * d, scheme)
                    grid = GridSpec((0.0,) * d, (1.0,) * d, (n,) * d)
                    P = build_preconditioner(params, grid, nu)
                    assert P.lam.min() > 0


def test_three_level_preconditioner_round_trip(rng):
    params = FractionalParams((1.2, 1.5, 1.8), (1.0, 2.0, 0.5), (2.0, 1.0, 1.5),
                              SECOND_ORDER)
    grid = GridSpec((0, 0, 0), (1, 1, 1), (3, 4, 5))
    P = build_preconditioner(params, grid, 2.0)
    assert P.lam.shape == (60,)
    assert P.lam.min() > 0
    x = rng.standard_normal(60)
    S = kron_chain([sine_matrix(m) for m in grid.n])
    assert np.max(np.abs(S @ (P.lam * (S @ P.apply_inverse(x))) - x)) <= \
        1e-11 * np.max(np.abs(x))
    inverse = inverse_of(P)
    assert np.max(np.abs(inverse - inverse.T)) <= 1e-12 * np.max(np.abs(inverse))
    # Kronecker-sum structure: the spectrum equals the broadcast sum of levels
    qs = []
    for i in range(3):
        col = symmetric_part_col(params.alpha[i], grid.n[i], SECOND_ORDER)
        vp, vm = level_scales(params, grid)[i]
        qs.append((vp + vm) * tau_eigs(col))
    lam = 2.0 + qs[0][:, None, None] + qs[1][None, :, None] + qs[2][None, None, :]
    assert np.max(np.abs(P.lam - lam.reshape(-1))) <= 1e-11 * np.max(np.abs(lam))


def test_round_trip_and_sine_oracle_across_cutoff(rng):
    # the second axis is the first length past the dense cutoff that runs by FFT
    params = FractionalParams((1.5, 1.8), (2.0, 1.0), (1.0, 0.5), SECOND_ORDER)
    grid = GridSpec((0, 0), (1, 1), (2, FFT_M))
    P = build_preconditioner(params, grid, 1.0)
    x = rng.standard_normal(P.n)
    S = kron_chain([sine_matrix(m) for m in grid.n])
    assert np.max(np.abs(S @ (P.lam * (S @ P.apply_inverse(x))) - x)) <= \
        1e-11 * np.max(np.abs(x))
    assert rel_err(P.apply_inverse(x), S @ ((S @ x) / P.lam)) <= 1e-11


# grids on both sides of each boundary of the per-axis rule (full product,
# fold, FFT), including a 3-D grid that mixes all three
@pytest.mark.parametrize("dims", ((FOLD_MIN - 1, FOLD_MIN), (FOLD_MIN, FOLD_MIN - 1),
                                  (FFT_M, FOLD_MIN), (FOLD_MIN + 1, FFT_M),
                                  (3, FOLD_MIN, FFT_M), (FFT_M, FFT_M)))
def test_applications_across_the_path_rule(dims, rng):
    d = len(dims)
    params = FractionalParams((1.3, 1.8, 1.5)[:d], (1.0, 2.0, 0.5)[:d], (2.0, 0.5, 1.0)[:d],
                              SECOND_ORDER)
    P = build_preconditioner(params, GridSpec((0,) * d, (1,) * d, dims), 2.0)
    x = rng.standard_normal(P.n)
    xc = x.copy()
    scale = np.max(np.abs(x))
    inv = P.apply_inverse(x)
    assert rel_err(inv, sine_oracle(dims, sine_oracle(dims, x) / P.lam)) <= 1e-11
    assert np.max(np.abs(sine_oracle(dims, P.lam * sine_oracle(dims, inv)) - x)) <= \
        1e-11 * scale
    twice = P.apply_inv_sqrt(P.apply_inv_sqrt(x))
    assert np.max(np.abs(twice - inv)) <= 1e-11 * scale
    assert np.array_equal(x, xc)


def test_nonpositive_spectrum_rejected():
    with pytest.raises(ValueError):
        TauPreconditioner((3,), np.array([1.0, 0.0, 2.0]))


def test_non_finite_spectrum_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            TauPreconditioner((3,), np.array([1.0, bad, 2.0]))


def test_dimension_validation(rng):
    params = FractionalParams((1.5,), (1.0,), (1.0,))
    grid = GridSpec((0.0,), (1.0,), (8,))
    P = build_preconditioner(params, grid, 1.0)
    with pytest.raises(ValueError):
        P.apply_inverse(np.zeros(9))
    with pytest.raises(ValueError):
        build_preconditioner(params, GridSpec((0, 0), (1, 1), (3, 3)), 1.0)
    with pytest.raises(ValueError):
        build_preconditioner(params, grid, -1.0)
    with pytest.raises(ValueError):
        TauPreconditioner((2.9,), np.ones(2))


def test_lemma_interval_for_tau_of_symmetric_part():
    # eigenvalues of tau(H(L))^{-1} H(L) stay inside (1/2, 3/2)
    for scheme in (FIRST_ORDER, SECOND_ORDER):
        for alpha in (1.1, 1.5, 1.9):
            for m in (8, 16, 32):
                col = symmetric_part_col(alpha, m, scheme)
                H = toeplitz_dense(col)
                C = np.linalg.cholesky(tau_dense_oracle(col))
                M = np.linalg.solve(C, np.linalg.solve(C, H.T).T)
                ev = np.linalg.eigvalsh(0.5 * (M + M.T))
                assert ev.min() > 0.5 + 1e-10
                assert ev.max() < 1.5 - 1e-10
