import functools
import itertools
import re
import warnings

import numpy as np
import pytest

from taumres.discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams,
                                    GridSpec, _directions)
from taumres.pde import example2_problem
from taumres.tau import TauPreconditioner, build_preconditioner, tau_eigs
from taumres.transforms import DENSE_AXIS_MAX, FOLD_MIN, _axis_path

from conftest import (each_scheme, grunwald_block, kron_chain, rel_err, sine_matrix,
                      sine_oracle, tau_dense_oracle, tau_eigs_cosine, tau_lam_reference,
                      toeplitz_dense, traced_peak)

# the first length past the dense cutoff that runs by FFT
FFT_M = next(m for m in itertools.count(DENSE_AXIS_MAX + 1) if _axis_path(m) == "fft")


def symmetric_part_col(alpha, m, scheme):
    """First column of H(L) = (L + L^T)/2 for the Grünwald block L."""
    L = grunwald_block(alpha, m, scheme)
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


@each_scheme
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
    (vp, vm, _, _), = _directions(params, grid)
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
    for i, (vp, vm, _, _) in enumerate(_directions(params, grid)):
        col = symmetric_part_col(params.alpha[i], 3, params.scheme)
        blocks = [np.eye(3), np.eye(3)]
        blocks[i] = tau_dense_oracle(col)
        dense = dense + (vp + vm) * kron_chain(blocks)
    assert rel_err(inverse_of(P), np.linalg.inv(dense)) <= 1e-11


def test_apply_inverse_round_trip(rng):
    params = FractionalParams((1.5,), (2.0,), (1.0,), SECOND_ORDER)
    grid = GridSpec((0.0,), (1.0,), (16,))
    P = build_preconditioner(params, grid, 1.0)
    (vp, vm, _, _), = _directions(params, grid)
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
    # lam = 1 + 1 + 2 = 4 everywhere, by the Kronecker sum of two constant spectra
    P = TauPreconditioner((2, 2), 1.0, [np.full(2, 1.0), np.full(2, 2.0)])
    assert np.array_equal(P.lam, np.full(4, 4.0))
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


@each_scheme
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
    for i, (vp, vm, _, _) in enumerate(_directions(params, grid)):
        col = symmetric_part_col(params.alpha[i], grid.n[i], SECOND_ORDER)
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
    # in one spectrum, and spread over two whose Kronecker sum reaches it
    for bad in (0.0, -1.0):
        for nu, spectra in ((0.0, [[1.0, bad, 2.0]]), (1.0, [[1.0, bad - 1.0, 2.0], [0.0, 3.0]])):
            with pytest.raises(ValueError, match="not positive definite"):
                TauPreconditioner((3, 2)[:len(spectra)], nu, spectra)


def test_non_finite_spectrum_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        for spectra in ([[1.0, bad, 2.0]], [[1.0, 2.0, 3.0], [bad]]):
            with pytest.raises(ValueError, match="non-finite"):
                TauPreconditioner((3, 1)[:len(spectra)], 1.0, spectra)
    # +inf on one axis and -inf on another would sum to NaN, with an "invalid" warning
    # before the check; a non-finite spectrum is refused as such instead
    for dims, spectra in (((1, 1), [[np.inf], [-np.inf]]), ((1, 1, 1), [[1.0], [np.inf], [-np.inf]])):
        with pytest.raises(ValueError, match=r"spectrum of axis \d has non-finite entries"):
            TauPreconditioner(dims, 1.0, spectra)


def kronecker_sum(nu, spectra):
    """lam = nu + sum_i I (x) q_i (x) I, n-size, by the outer-sum chain."""
    with np.errstate(over="ignore"):
        return functools.reduce(np.add.outer, [np.asarray(q, dtype=float) for q in spectra],
                                float(nu)).reshape(-1)


def shortcut_cases(dims, nu, rng):
    """Seeded spectra, one axis zero or not, whose smallest sum is random, 0 or one ulp off it."""
    cases = []
    for zero_axis in (None, 0):
        spectra = [np.zeros(m) if i == zero_axis else rng.uniform(-1.0, 2.0, m)
                   for i, m in enumerate(dims)]
        cases.append(spectra)
        # the last axis's minimum is moved to cancel the sum of all others', in their order
        rest = functools.reduce(np.add, [q.min() for q in spectra[:-1]], nu)
        for target in (-rest, np.nextafter(-rest, 1.0), np.nextafter(-rest, -1.0)):
            last = spectra[-1] - spectra[-1].min() + target
            assert last.min() == target
            cases.append(spectra[:-1] + [last])
    return cases


@pytest.mark.parametrize("nu", [0.0, 0.75])
@pytest.mark.parametrize("dims", [(7,), (5, 4), (3, 4, 2)], ids=["1d", "2d", "3d"])
def test_extremes_from_the_spectra_decide_as_the_kronecker_sum(dims, nu, rng):
    # the per-axis extremes stand for lam's: the same decision and the same printed
    # minimum as lam.min() of an independent Kronecker sum, and the same lam bit for bit
    decided = set()
    for spectra in shortcut_cases(dims, nu, rng):
        ref = kronecker_sum(nu, spectra)
        if ref.min() > 0.0:
            P = TauPreconditioner(dims, nu, spectra)
            assert P.lam.tobytes() == ref.tobytes()
            decided.add("accepted")
        else:
            with pytest.raises(ValueError, match=re.escape(f"min eigenvalue {ref.min()}") + "$"):
                TauPreconditioner(dims, nu, spectra)
            decided.add("refused")
    assert decided == {"accepted", "refused"}


def test_overflowed_sum_is_refused_as_non_finite():
    # finite spectra whose Kronecker sum overflows reach the one finite
    # check, with no overflow warning first
    for dims, nu, spectra in (((1, 1), 0.0, [[1e308], [1e308]]), ((1,), 1e308, [[1e308]]),
                              ((2, 1), 0.0, [[1.0, 1e308], [1e308]]),
                              ((1, 1), 0.0, [[-1e308], [-1e308]])):
        assert not np.isfinite(kronecker_sum(nu, spectra)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="eigenvalues have non-finite entries"):
                TauPreconditioner(dims, nu, spectra)


def test_constructor_refuses_spectra_that_miss_the_dims():
    for spectra in ([np.ones(3)], [np.ones(3), np.ones(2), np.ones(1)], []):
        with pytest.raises(ValueError, match="2 dims but"):
            TauPreconditioner((3, 2), 1.0, spectra)
    for spectra in ([np.ones(2), np.ones(2)], [np.ones(3), np.ones((2, 1))], [np.ones(3), 1.0]):
        with pytest.raises(ValueError, match="spectrum of axis"):
            TauPreconditioner((3, 2), 1.0, spectra)


def test_constructor_refuses_a_negative_or_non_finite_nu():
    # the rule and message of MultilevelOperator
    with pytest.raises(ValueError, match="nu must be nonnegative, got -1.0"):
        TauPreconditioner((3,), -1.0, [np.ones(3)])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="nu has non-finite entries"):
            TauPreconditioner((3,), bad, [np.ones(3)])


def test_lam_shares_no_caller_memory():
    # lam is a new read-only array: no spectrum given is kept, so a later write
    # to one (a read-only owner made writeable again too) never reaches P
    q0, q1 = np.array([1.0, 2.0, 3.0]), np.array([0.5])
    q1.setflags(write=False)
    P = TauPreconditioner((3, 1), 0.0, [q0, q1])
    assert not P.lam.flags.writeable
    assert not any(np.shares_memory(P.lam, q) for q in (q0, q1))
    q0[1] = 7.0
    q1.setflags(write=True)
    q1[0] = -1.0
    assert np.array_equal(P.lam, [1.5, 2.5, 3.5])
    with pytest.raises(ValueError):
        P.lam[0] = 1.0
    # a view, a list and another dtype alike; in one direction too
    base = np.arange(1.0, 5.0)
    for given in (base[:3], [1.0, 2.0, 3.0], np.arange(1, 4), np.arange(1.0, 4.0, dtype=np.float32)):
        P = TauPreconditioner((3,), 0.0, [given])
        assert P.lam.dtype == np.float64 and not np.shares_memory(P.lam, base)
        assert np.array_equal(P.lam, [1.0, 2.0, 3.0]) and not P.lam.flags.writeable
    built = build_preconditioner(FractionalParams((1.5,), (1.0,), (1.0,)),
                                 GridSpec((0.0,), (1.0,), (8,)), 1.0)
    assert not built.lam.flags.writeable


@pytest.mark.parametrize("d_plus, d_minus", [((3.0, 2.0), (1.0, 1.0)), ((0.0, 2.0), (0.0, 1.0))],
                         ids=["both-active", "first-off"])
def test_build_writes_the_spectrum_once(d_plus, d_minus):
    # one n-size write into the vector the preconditioner keeps: no second copy, no mask;
    # through build_preconditioner and through the constructor alike
    prob = example2_problem(255, (1.5, 1.9))
    params = FractionalParams(prob.params.alpha, d_plus, d_minus, prob.params.scheme)
    spectra = [(vp + vm) * np.linspace(1.0, 2.0, m) for vp, vm, m in zip(d_plus, d_minus, prob.grid.n)]
    build_preconditioner(params, prob.grid, prob.nu)   # warm numpy's caches
    for build, args in ((build_preconditioner, (params, prob.grid, prob.nu)),
                        (TauPreconditioner, (prob.grid.n, prob.nu, spectra))):
        assert traced_peak(build, *args) <= 1.3 * 8 * prob.grid.size


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
        TauPreconditioner((2.9,), 1.0, [np.ones(2)])


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
