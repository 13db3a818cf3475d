import math

import numpy as np
import pytest

from taumres.discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams,
                                    GridSpec, _directions, assemble_operator, epsilon_bound,
                                    grunwald_g, weights_second)
from taumres.tau import build_preconditioner
from taumres.toeplitz import Toeplitz1D

from conftest import (assemble_dense, each_scheme, grunwald_block, omega_bound, operator_dense,
                      rel_err, symbol_closed, symbol_series, toeplitz_dense)

ALPHAS = (1.1, 1.5, 1.9)


# ---------------------------------------------------------------------------
# coefficient tables

def test_grunwald_frozen():
    g = grunwald_g(1.5, 3)
    assert g == pytest.approx([1.0, -1.5, 0.375, 0.0625], abs=1e-15)


def test_grunwald_starts_at_one(rng):
    for alpha in 1.0 + rng.uniform(0.01, 0.99, 10):
        assert grunwald_g(alpha, 0)[0] == 1.0


def test_grunwald_is_the_recurrence_bit_for_bit(rng):
    # the table is the recurrence g_k = (1 - (alpha+1)/k) g_{k-1}, evaluated
    # with the loop's roundings, so every operator built from it keeps its bits
    for alpha in (1.1, 1.5, 1.9, *(1.0 + rng.uniform(0.01, 0.99, 5))):
        for K in (0, 1, 2, 63, 1024):
            ref = np.empty(K + 1)
            ref[0] = 1.0
            for k in range(1, K + 1):
                ref[k] = (1.0 - (alpha + 1.0) / k) * ref[k - 1]
            assert grunwald_g(alpha, K).tobytes() == ref.tobytes()


def test_grunwald_matches_binomial_closed_form():
    # (-1)^k * C(alpha, k) via gamma functions
    alpha = 1.5
    g = grunwald_g(alpha, 10)
    for k in range(11):
        binom = math.gamma(alpha + 1) / (math.gamma(k + 1) * math.gamma(alpha - k + 1))
        assert abs(g[k] - (-1) ** k * binom) <= 1e-14


def test_weights_second_frozen():
    w = weights_second(1.5, 3)
    assert w == pytest.approx([0.75, -0.875, -0.09375, 0.140625], abs=1e-15)
    assert not w.flags.writeable


def test_weights_second_closed_forms(rng):
    for alpha in 1.0 + rng.uniform(0.01, 0.99, 20):
        w = weights_second(alpha, 5)
        assert w[0] == pytest.approx(alpha / 2, abs=1e-15)
        assert w[1] == pytest.approx((2 - alpha - alpha ** 2) / 2, abs=1e-13)
        assert w[1] < 0
        assert w[2] == pytest.approx(alpha * (alpha ** 2 + alpha - 4) / 4, abs=1e-13)


def test_weights_second_combination_identity():
    w = weights_second(1.5, 3)
    lhs = w[0] + w[2] - w[3]
    assert lhs == pytest.approx(0.515625, abs=1e-15)
    assert lhs == pytest.approx(1.5 ** 2 * 0.5 * 5.5 / 12, abs=1e-15)


def test_weight_invariants_random_alpha(rng):
    for alpha in 1.0 + rng.uniform(0.01, 0.99, 20):
        w = weights_second(alpha, 200)
        assert 1.0 >= w[0] >= w[3]
        assert np.all(np.diff(w[3:]) <= 1e-16)
        assert np.all(w[3:] >= 0)
        sums = np.cumsum(w)
        assert np.all(sums[2:] < 0)


def test_weights_first_frozen_and_sums():
    g = grunwald_g(1.5, 1000)
    assert g[:4] == pytest.approx([1.0, -1.5, 0.375, 0.0625], abs=1e-15)
    assert not g.flags.writeable
    assert np.all(g[2:] > 0)
    assert np.all(np.diff(g[2:]) < 0)
    sums = np.cumsum(g)
    assert np.all(sums[1:] < 0)
    # partial sums rise toward zero as K grows
    assert sums[10] < sums[100] < sums[1000] < 0


def test_alpha_out_of_range_rejected():
    for bad in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(ValueError):
            grunwald_g(bad, 4)
        with pytest.raises(ValueError):
            weights_second(bad, 4)


# ---------------------------------------------------------------------------
# Grünwald blocks and operator assembly

def build_L(alpha, m, scheme):
    """The Grünwald block L of size m as the set-up builds it: ``_directions`` on a
    one-direction problem, whose ``GridSpec`` checks the size m."""
    params = FractionalParams((alpha,), (1.0,), (0.0,), scheme)
    ((_, _, col, row),) = _directions(params, GridSpec((0.0,), (1.0,), (m,)))
    return Toeplitz1D(col, row)


def test_build_L_second_order_frozen():
    L = build_L(1.5, 3, SECOND_ORDER)
    assert L.col == pytest.approx([0.875, 0.09375, -0.140625], abs=1e-15)
    assert L.row == pytest.approx([0.875, -0.75, 0.0], abs=1e-15)


def test_build_L_size_one():
    L = build_L(1.5, 1, SECOND_ORDER)
    assert L.dense()[0, 0] == pytest.approx(0.875, abs=1e-15)


def test_build_L_first_order_frozen():
    L = build_L(1.5, 2, FIRST_ORDER)
    assert L.col == pytest.approx([1.5, -0.375], abs=1e-15)
    assert L.row == pytest.approx([1.5, -1.0], abs=1e-15)


def test_build_L_diagonal_positive():
    for alpha in ALPHAS:
        for scheme in (FIRST_ORDER, SECOND_ORDER):
            assert build_L(alpha, 4, scheme).col[0] > 0


def test_assemble_scalar_case():
    params = FractionalParams((1.5,), (1.0,), (1.0,), SECOND_ORDER)
    grid = GridSpec((0.0,), (1.0,), (1,))
    assert grid.h == (0.5,)
    A = assemble_operator(params, grid, 0.0)
    assert operator_dense(A)[0, 0] == pytest.approx(2.4748737341529163, abs=1e-14)


def test_assemble_identity_degeneracy():
    params = FractionalParams((1.5, 1.9), (0.0, 0.0), (0.0, 0.0), SECOND_ORDER)
    grid = GridSpec((0, 0), (1, 1), (2, 3))
    A = assemble_operator(params, grid, 7.0)
    assert np.array_equal(operator_dense(A), 7.0 * np.eye(6))


@each_scheme
def test_assemble_matches_kron_oracle(scheme):
    params = FractionalParams((1.5, 1.9), (3.0, 2.0), (1.0, 1.0), scheme)
    grid = GridSpec((0, 0), (2, 2), (3, 3))
    nu = 4.0
    A = assemble_operator(params, grid, nu)
    half = 0.5 if scheme == SECOND_ORDER else 1.0
    level_data = []
    for i in range(2):
        L = grunwald_block(params.alpha[i], 3, scheme)
        s = half / grid.h[i] ** params.alpha[i]
        level_data.append((L.col, L.row, 3.0 * s if i == 0 else 2.0 * s, 1.0 * s))
    dense = assemble_dense((3, 3), nu, level_data)
    assert rel_err(operator_dense(A), dense) <= 1e-14


@each_scheme
@pytest.mark.parametrize("d_minus", ((1.0, 0.5), (1.0, 0.0)), ids=("two_sided", "one_sided"))
def test_assembled_level_is_the_two_sided_block_bit_for_bit(scheme, d_minus):
    # K_i = v+_i L_i + v-_i L_i^T byte for byte as the dense sum: a dense
    # level's product, and with it every desk-scale CSV, is exactly that sum's
    params = FractionalParams((1.5, 1.9), (3.0, 2.0), d_minus, scheme)
    grid = GridSpec((0, 0), (2, 1), (7, 5))
    A = assemble_operator(params, grid, 1.0)
    for i, ((vp, vm, _, _), K) in enumerate(zip(_directions(params, grid), A.levels)):
        D = grunwald_block(params.alpha[i], grid.n[i], scheme).dense()
        assert K.dense().tobytes() == (vp * D + vm * D.T).tobytes()


@each_scheme
def test_directions_are_the_block_and_the_closed_form_scalings(scheme):
    # the one per-direction rule: L_i's first column and row as ``grunwald_block``
    # writes them out, and v+-_i = (0.5 if second order else 1.0) / h_i**alpha_i * d+-_i
    params = FractionalParams((1.3, 1.7, 1.9), (3.0, 0.0, 2.0), (1.0, 0.0, 0.5), scheme)
    grid = GridSpec((0, 0, -1), (2, 1, 1), (7, 1, 5))
    directions = list(_directions(params, grid))
    assert len(directions) == 3
    half = 0.5 if scheme == SECOND_ORDER else 1.0
    for i, (vp, vm, col, row) in enumerate(directions):
        s = half / grid.h[i] ** params.alpha[i]
        assert (vp, vm) == (params.d_plus[i] * s, params.d_minus[i] * s)
        L = grunwald_block(params.alpha[i], grid.n[i], scheme)
        assert col.tobytes() == L.col.tobytes() and row.tobytes() == L.row.tobytes()


def test_direction_count_mismatch_is_refused_by_both_builders():
    params = FractionalParams((1.5, 1.5), (1.0, 1.0), (1.0, 1.0))
    for grid in (GridSpec((0,), (1,), (4,)), GridSpec((0,) * 3, (1,) * 3, (4, 4, 4))):
        for build in (assemble_operator, build_preconditioner):
            with pytest.raises(ValueError, match=rf"^grid has {len(grid.n)} directions, params has 2$"):
                build(params, grid, 1.0)


# ---------------------------------------------------------------------------
# generating functions

def piecewise_symbol(alpha, theta, scheme):
    """Trigonometric piecewise form of the generating function (test oracle).

    The imaginary sign of the second-order branch follows the series
    convention (the cited display carries the conjugate).
    """
    if theta < 0:
        return np.conj(piecewise_symbol(alpha, -theta, scheme))
    t = (2.0 * np.sin(theta / 2.0)) ** alpha
    if scheme == FIRST_ORDER:
        x = 0.5 * alpha * (np.pi - theta) + theta
        return -t * (np.cos(x) - 1j * np.sin(x))
    c1 = np.cos(0.5 * alpha * (theta - np.pi) - theta)
    c2 = np.cos(0.5 * alpha * (theta - np.pi))
    s1 = np.sin(0.5 * alpha * (theta - np.pi) - theta)
    s2 = np.sin(0.5 * alpha * (theta - np.pi))
    return -t * (0.5 * alpha * c1 + 0.5 * (2 - alpha) * c2
                 + 1j * (0.5 * alpha * s1 + 0.5 * (2 - alpha) * s2))


@each_scheme
def test_closed_form_matches_piecewise(scheme):
    thetas = np.linspace(-np.pi + 1e-3, np.pi - 1e-3, 41)
    for alpha in ALPHAS:
        for th in thetas:
            if th == 0.0:
                continue
            assert abs(symbol_closed(alpha, th, scheme) - piecewise_symbol(alpha, th, scheme)) <= 1e-12


def test_symbol_zero_at_origin():
    for scheme in (FIRST_ORDER, SECOND_ORDER):
        assert symbol_closed(1.5, 0.0, scheme) == 0.0


def test_symbol_boundary_order_sanity():
    # integer power: -e^{-i pi} (1 - e^{i pi})^2 = 4
    val = symbol_closed(2.0, np.pi, FIRST_ORDER)
    assert val == pytest.approx(4.0 + 0.0j, abs=1e-12)


def test_series_constant_term():
    tab = weights_second(1.5, 4)
    assert symbol_series(tab, 0.37, 0) == pytest.approx(0.875, abs=1e-15)


def test_series_partial_sums_vanish_at_origin():
    tab = weights_second(1.5, 5000)
    prev = abs(symbol_series(tab, 0.0, 10))
    for K in (100, 1000, 4000):
        cur = abs(symbol_series(tab, 0.0, K))
        assert cur < prev
        prev = cur
    assert prev < 1e-3


@each_scheme
def test_series_converges_to_closed_form(scheme):
    table_of = grunwald_g if scheme == FIRST_ORDER else weights_second
    for alpha in ALPHAS:
        tab = table_of(alpha, 10 ** 4 + 2)
        for theta in (np.pi / 4, -np.pi / 2, 3 * np.pi / 4):
            diff = abs(symbol_series(tab, theta, 10 ** 4) - symbol_closed(alpha, theta, scheme))
            assert diff <= 1e-3


def test_series_error_decays_with_truncation():
    tab = weights_second(1.5, 10 ** 4 + 2)
    closed = symbol_closed(1.5, np.pi / 2, SECOND_ORDER)
    diffs = [abs(symbol_series(tab, np.pi / 2, K) - closed) for K in (10, 100, 1000, 10 ** 4)]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_series_truncation_bounds():
    tab = weights_second(1.5, 10)
    with pytest.raises(ValueError):
        symbol_series(tab, 0.1, 10)
    with pytest.raises(ValueError):
        symbol_series(tab, 0.1, -1)


@each_scheme
def test_symbol_real_part_positive_and_parity(scheme):
    thetas = np.linspace(-np.pi, np.pi, 81)
    for alpha in ALPHAS:
        vals = np.array([symbol_closed(alpha, th, scheme) for th in thetas])
        off = thetas != 0.0
        assert np.all(vals[off].real > 0)
        # real part even, imaginary part odd
        rev = vals[::-1]
        assert np.max(np.abs(vals.real - rev.real)) <= 1e-12 * np.max(np.abs(vals.real))
        assert np.max(np.abs(vals.imag + rev.imag)) <= 1e-12 * np.max(np.abs(vals.imag) + 1e-30)


@each_scheme
def test_imag_real_ratio_supremum_is_tangent(scheme):
    # sup |Im g / Re g| over theta equals |tan(alpha pi / 2)|, attained as
    # theta -> 0 (grid stays above the 1 - cos(theta) cancellation zone)
    thetas = np.geomspace(1e-4, np.pi, 4000)
    for alpha in ALPHAS:
        vals = np.array([symbol_closed(alpha, th, scheme) for th in thetas])
        ratio = np.abs(vals.imag / vals.real)
        tan = abs(math.tan(alpha * math.pi / 2))
        assert ratio.max() <= tan * (1.0 + 1e-6)
        assert ratio.max() == pytest.approx(tan, rel=1e-3)


def test_epsilon_bounds_two_dimensional_symbol():
    # the per-direction envelope bounds |Im f / Re f| of the full symbol
    params = FractionalParams((1.5, 1.9), (3.0, 2.0), (1.0, 1.0), SECOND_ORDER)
    grid = np.linspace(-np.pi + 1e-3, np.pi - 1e-3, 151)
    eps = epsilon_bound(params)
    vp = [(0.5 * d) for d in params.d_plus]
    vm = [(0.5 * d) for d in params.d_minus]
    worst = 0.0
    for t1 in grid:
        g1 = vp[0] * symbol_closed(1.5, t1) + vm[0] * symbol_closed(1.5, -t1)
        for t2 in grid:
            g2 = vp[1] * symbol_closed(1.9, t2) + vm[1] * symbol_closed(1.9, -t2)
            f = g1 + g2
            if f.real != 0:
                worst = max(worst, abs(f.imag / f.real))
    assert worst <= eps + 1e-9


@each_scheme
def test_symmetric_part_of_block_is_spd(scheme):
    for alpha in ALPHAS:
        for m in (8, 64):
            L = grunwald_block(alpha, m, scheme)
            H = toeplitz_dense(0.5 * (L.col + L.row))
            assert np.linalg.eigvalsh(H).min() > 0


def test_symmetry_split_of_generating_function(rng):
    # v+ g(th) + v- g(-th) splits into (v+ + v-) Re g + i (v+ - v-) Im g
    vp, vm = 1.3, 0.4
    for th in rng.uniform(-np.pi, np.pi, 20):
        g = symbol_closed(1.5, th, SECOND_ORDER)
        lhs = vp * g + vm * symbol_closed(1.5, -th, SECOND_ORDER)
        rhs = (vp + vm) * g.real + 1j * (vp - vm) * g.imag
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# convergence bounds

def test_epsilon_zero_for_balanced_coefficients():
    params = FractionalParams((1.5, 1.9), (2.0, 3.0), (2.0, 3.0))
    assert epsilon_bound(params) == 0.0


def test_epsilon_one_sided():
    params = FractionalParams((1.5,), (1.0,), (0.0,))
    assert epsilon_bound(params) == pytest.approx(1.0, abs=1e-13)


def test_epsilon_example_coefficients():
    params = FractionalParams((1.5, 1.5), (2.0, 0.3), (0.5, 1.0), FIRST_ORDER)
    assert epsilon_bound(params) == pytest.approx(0.6, abs=1e-13)


def test_epsilon_scaling_invariance():
    p1 = FractionalParams((1.3, 1.7), (2.0, 0.3), (0.5, 1.0))
    p2 = FractionalParams((1.3, 1.7), (6.0, 0.9), (1.5, 3.0))
    assert epsilon_bound(p1) == pytest.approx(epsilon_bound(p2), rel=1e-14)


def test_epsilon_skips_vanishing_direction():
    # a direction with d+ + d- = 0 adds nothing to the symbol and is skipped
    params = FractionalParams((1.5, 1.9), (2.0, 0.0), (1.0, 0.0))
    assert epsilon_bound(params) == pytest.approx(1.0 / 3.0, abs=1e-13)
    params = FractionalParams((1.5, 1.5), (0.0, 0.0), (0.0, 0.0))
    assert epsilon_bound(params) == 0.0


def test_omega_frozen_values():
    assert omega_bound(0.0) == pytest.approx(0.7071067811865476, abs=1e-16)
    assert omega_bound(0.6) == pytest.approx(math.sqrt(3.8 / 5.8), abs=1e-16)


def test_omega_monotone_below_one():
    eps = np.linspace(0.0, 50.0, 200)
    om = np.array([omega_bound(e) for e in eps])
    assert np.all(np.diff(om) > 0)
    assert np.all(om < 1.0)
    assert np.all(om >= math.sqrt(0.5))
    with pytest.raises(ValueError):
        omega_bound(-0.1)


# ---------------------------------------------------------------------------
# parameter containers

def test_gridspec_step_identity():
    grid = GridSpec((0.0, -1.0), (1.0, 3.0), (3, 7))
    for ai, bi, ni, hi in zip(grid.a, grid.b, grid.n, grid.h):
        assert abs(hi * (ni + 1) - (bi - ai)) <= 1e-14 * (bi - ai)
    assert grid.axis_points(0) == pytest.approx([0.25, 0.5, 0.75], abs=1e-15)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0,), (0.0,), (3,))
    with pytest.raises(ValueError):
        GridSpec((0.0,), (1.0,), (0,))
    # sizes and endpoints are never reinterpreted: no truncation, no NaN h
    for a, b, n in (((0.0,), (1.0,), (3.5,)), ((np.nan,), (1.0,), (3,)),
                    ((0.0,), (np.inf,), (3,)), ((-np.inf,), (1.0,), (3,))):
        with pytest.raises(ValueError):
            GridSpec(a, b, n)
    assert GridSpec((0.0,), (1.0,), (3.0,)).n == (3,)


def test_gridspec_size_does_not_wrap():
    # numpy's int64 product of (2**32, 2**32) wraps to 0
    assert GridSpec((0, 0), (1, 1), (2**32, 2**32)).size == 2**64


def test_params_validation():
    with pytest.raises(ValueError):
        FractionalParams((2.5,), (1.0,), (1.0,))
    with pytest.raises(ValueError):
        FractionalParams((1.5,), (-1.0,), (1.0,))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            FractionalParams((1.5,), (bad,), (1.0,))
        with pytest.raises(ValueError):
            FractionalParams((1.5,), (1.0,), (bad,))
    with pytest.raises(ValueError):
        FractionalParams((1.5,), (1.0,), (1.0,), "third_order")
    with pytest.raises(ValueError):
        build_L(1.5, 0, SECOND_ORDER)
