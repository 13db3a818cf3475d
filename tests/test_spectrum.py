import re

import numpy as np
import pytest

from taumres.discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams,
                                    GridSpec, assemble_operator)
from taumres import spectrum
from taumres.spectrum import (SpectrumReport, equivalence_spectrum,
                              export_spectrum_csv, ideal_preconditioned_spectrum,
                              preconditioned_spectrum, sym_eig,
                              unpreconditioned_spectrum)
from taumres.tau import TauPreconditioner, build_preconditioner
from taumres.toeplitz import MultilevelOperator

from conftest import assemble_dense, kron_chain, sine_matrix, traced_peak

EX1 = ((2.0, 0.3), (0.5, 1.0))   # d_plus, d_minus per direction
EX2 = ((3.0, 2.0), (1.0, 1.0))


def setup(dims, alphas, dpm, scheme, nu=10.0, box=1.0):
    params = FractionalParams(alphas, dpm[0], dpm[1], scheme)
    grid = GridSpec((0.0,) * len(dims), (box,) * len(dims), dims)
    A = assemble_operator(params, grid, nu)
    P = build_preconditioner(params, grid, nu)
    return params, A, P


# ---------------------------------------------------------------------------
# sym_eig

def test_sym_eig_diagonal():
    assert sym_eig(np.diag([3.0, 1.0, 2.0])) == pytest.approx([1.0, 2.0, 3.0], abs=1e-14)


def test_sym_eig_laplacian_closed_form():
    T = 2.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    expect = np.sort(2.0 - 2.0 * np.cos(np.pi * np.arange(1, 5) / 5))
    assert sym_eig(T) == pytest.approx(expect, abs=1e-12)


def test_sym_eig_trace_invariance(rng):
    M = rng.standard_normal((20, 20))
    M = 0.5 * (M + M.T)
    ev = sym_eig(M)
    assert np.sum(ev) == pytest.approx(np.trace(M), rel=1e-10)
    assert np.all(np.diff(ev) >= 0)


def test_sym_eig_rejects_nonsymmetric_and_oversized(rng, monkeypatch):
    with pytest.raises(ValueError):
        sym_eig(rng.standard_normal((5, 5)))
    monkeypatch.setattr(spectrum, "SYM_EIG_CAP", 9)
    with pytest.raises(ValueError):
        sym_eig(np.eye(10))
    assert np.array_equal(sym_eig(np.eye(9)), np.ones(9))


def test_sym_eig_refuses_non_finite_entries():
    # max|M - M^T| is NaN for these, and NaN > tol is false: the gate must not let them by
    M = np.eye(4)
    M[1, 2] = M[2, 1] = np.inf
    with pytest.raises(spectrum.SymmetryError, match="non-finite"):
        sym_eig(M)
    M = np.eye(4)
    M[1, 2] = np.nan
    with pytest.raises(spectrum.SymmetryError, match="non-finite"):
        sym_eig(M)
    # an entry above the diagonal in another tile than its mirror
    M = np.eye(spectrum._TILE + 1)
    M[0, spectrum._TILE] = np.nan
    with pytest.raises(spectrum.SymmetryError, match="non-finite"):
        sym_eig(M)


def test_sym_eig_solves_the_symmetric_part_in_place(rng):
    # several tiles, a ragged last one; M is overwritten by exactly (M + M^T)/2
    n = 2 * spectrum._TILE + 37
    M = rng.standard_normal((n, n))
    M = M + M.T
    M[n - 1, 3] += 1e-13
    H = 0.5 * (M + M.T)
    ev = sym_eig(M)
    assert np.array_equal(M, H)
    assert np.array_equal(ev, np.linalg.eigvalsh(H))
    # a read-only input is copied, not written
    R = rng.standard_normal((n, n))
    R = R + R.T
    R[5, n - 2] += 1e-13
    R.setflags(write=False)
    before = R.copy()
    assert np.array_equal(sym_eig(R), np.linalg.eigvalsh(0.5 * (before + before.T)))
    assert np.array_equal(R, before)


def test_sym_eig_gate_reports_the_whole_matrix_defect(rng):
    n = 2 * spectrum._TILE + 5
    M = rng.standard_normal((n, n))
    M = M + M.T
    M[n - 1, 1] += 1e-6
    defect = np.max(np.abs(M - M.T))
    before = M.copy()
    with pytest.raises(spectrum.SymmetryError, match=re.escape(f"defect {defect:.2e}")):
        sym_eig(M)
    assert np.array_equal(M, before)   # a refused matrix is left as it was


def test_sym_eig_holds_no_n_by_n_temporary(rng):
    n = 1024
    M = rng.standard_normal((n, n))
    M = M + M.T
    assert traced_peak(sym_eig, M) < 0.25 * M.nbytes


# ---------------------------------------------------------------------------
# preconditioned spectra

def test_degenerate_operator_gives_flip_spectrum():
    # no spatial part: A = nu*I, P = nu*I, so P^{-1} Y A = Y with eigenvalues +-1
    params, A, P = setup((3, 4), (1.5, 1.9), ((0.0, 0.0), (0.0, 0.0)), SECOND_ORDER, nu=2.0)
    rep = preconditioned_spectrum(A, P, params)
    assert rep.epsilon_star == 0.0
    assert np.max(np.abs(np.abs(rep.eigenvalues) - 1.0)) <= 1e-12
    assert rep.violations == 0


def test_example1_main_theorem_small():
    params, A, P = setup((15, 15), (1.5, 1.5), EX1, FIRST_ORDER, nu=16.0)
    rep = preconditioned_spectrum(A, P, params)
    assert rep.which_theorem == "main_first_order"
    assert rep.epsilon_star == pytest.approx(0.6, abs=1e-13)
    assert rep.interval_hi == pytest.approx(1.5 * 1.6, abs=1e-13)
    assert rep.violations == 0
    assert np.all(np.diff(rep.eigenvalues) >= 0)


def test_balanced_coefficients_land_in_unit_band():
    params, A, P = setup((4, 4), (1.3, 1.7), ((1.0, 2.0), (1.0, 2.0)), SECOND_ORDER, nu=1.0)
    rep = preconditioned_spectrum(A, P, params)
    assert rep.epsilon_star == 0.0
    mags = np.abs(rep.eigenvalues)
    assert rep.violations == 0
    assert mags.min() >= 0.5 - 1e-8
    assert mags.max() <= 1.5 + 1e-8


def test_ideal_spectrum_identity_case():
    params, A, _ = setup((3,), (1.5,), ((0.0,), (0.0,)), SECOND_ORDER, nu=2.0)
    rep = ideal_preconditioned_spectrum(A, params)
    assert np.max(np.abs(np.abs(rep.eigenvalues) - 1.0)) <= 1e-12
    assert rep.violations == 0


def test_ideal_spectrum_example1():
    params, A, _ = setup((7, 7), (1.1, 1.9), EX1, FIRST_ORDER, nu=8.0)
    rep = ideal_preconditioned_spectrum(A, params)
    assert rep.which_theorem == "ideal"
    assert rep.violations == 0
    assert np.min(np.abs(rep.eigenvalues)) >= 1.0 - 1e-8


def test_equivalence_exact_identity_when_tau_is_exact():
    params, A, P = setup((4, 5), (1.5, 1.9), ((0.0, 0.0), (0.0, 0.0)), SECOND_ORDER, nu=3.0)
    rep = equivalence_spectrum(A, P)
    assert np.max(np.abs(rep.eigenvalues - 1.0)) <= 1e-12
    assert rep.violations == 0


def test_equivalence_1d_interval():
    params, A, P = setup((32,), (1.5,), ((1.0,), (1.0,)), SECOND_ORDER, nu=0.0)
    rep = equivalence_spectrum(A, P)
    assert rep.violations == 0
    assert rep.eigenvalues.min() > 0.5
    assert rep.eigenvalues.max() < 1.5


@pytest.mark.parametrize("scheme", (FIRST_ORDER, SECOND_ORDER))
def test_equivalence_example2_small(scheme):
    params, A, P = setup((15, 15), (1.5, 1.9), EX2, scheme, nu=16.0, box=2.0)
    rep = equivalence_spectrum(A, P)
    assert rep.which_theorem == "equivalence"
    assert rep.violations == 0


@pytest.mark.parametrize("dpm", (EX2, ((1.0, 0.0), (0.0, 2.0))), ids=("two_sided", "one_sided"))
def test_equivalence_matches_dense_oracle(dpm):
    # eigenvalues of P^{-1} H(A) from dense P = S diag(lam) S and H(A) = (A + A^T)/2
    params, A, P = setup((5, 7), (1.3, 1.8), dpm, SECOND_ORDER, nu=3.0)
    dense = assemble_dense(A.dims, A.nu, [(K.col, K.row, 1.0, 0.0) for K in A.levels])
    S = kron_chain([sine_matrix(m) for m in A.dims])
    ev = np.linalg.eigvals(np.linalg.solve(S @ np.diag(P.lam) @ S, 0.5 * (dense + dense.T)))
    assert np.max(np.abs(ev.imag)) <= 1e-10
    rep = equivalence_spectrum(A, P)
    assert np.max(np.abs(rep.eigenvalues - np.sort(ev.real))) <= 1e-10
    assert rep.violations == 0


def test_spectrum_invariant_under_joint_scaling():
    p1, A1, P1 = setup((5, 5), (1.5, 1.9), EX2, SECOND_ORDER, nu=4.0)
    c = 37.0
    scaled = tuple(tuple(c * v for v in side) for side in EX2)
    p2, A2, P2 = setup((5, 5), (1.5, 1.9), scaled, SECOND_ORDER, nu=c * 4.0)
    r1 = preconditioned_spectrum(A1, P1, p1)
    r2 = preconditioned_spectrum(A2, P2, p2)
    assert np.max(np.abs(r1.eigenvalues - r2.eigenvalues)) <= 1e-10
    assert r1.epsilon_star == pytest.approx(r2.epsilon_star, rel=1e-13)


def test_symmetry_defect_raises():
    class Broken:
        dims = (4,)
        n = 4

        def apply(self, x):
            out = np.zeros(4)
            out[0] = x[1] * 2.0
            out[1] = x[2]
            return out

        def apply_symmetrized(self, x):
            return self.apply(x)[::-1].copy()

    P = TauPreconditioner((4,), np.ones(4))
    params = FractionalParams((1.5,), (1.0,), (1.0,))
    with pytest.raises(RuntimeError):
        preconditioned_spectrum(Broken(), P, params)


def test_symmetrized_product_without_the_flip_raises(monkeypatch):
    # the spectrum runs the solver's own Y A: a product that skips the
    # reversal is the nonsymmetric A, and the gate refuses it
    params, A, P = setup((5, 4), (1.5, 1.9), EX2, SECOND_ORDER)
    monkeypatch.setattr(MultilevelOperator, "apply_symmetrized", MultilevelOperator.apply)
    with pytest.raises(spectrum.SymmetryError):
        preconditioned_spectrum(A, P, params)


def test_preconditioner_on_other_dims_rejected():
    # P on (5, 3) has A's size but not its axes; its spectrum would read as a theorem failure
    params, A, _ = setup((3, 5), (1.5, 1.9), EX2, SECOND_ORDER)
    _, _, P = setup((5, 3), (1.9, 1.5), EX2, SECOND_ORDER)
    with pytest.raises(ValueError, match="dims"):
        preconditioned_spectrum(A, P, params)
    with pytest.raises(ValueError, match="dims"):
        equivalence_spectrum(A, P)


def test_unpreconditioned_spectrum_has_no_interval():
    params, A, _ = setup((5, 5), (1.5, 1.5), EX1, FIRST_ORDER, nu=6.0)
    rep = unpreconditioned_spectrum(A)
    assert rep.which_theorem == "none"
    assert rep.violations == 0
    assert rep.n == 25
    # spectrum of Y*A is that of the dense symmetrized matrix
    dense = A.materialize()[::-1, :]
    assert rep.eigenvalues == pytest.approx(np.linalg.eigvalsh(0.5 * (dense + dense.T)),
                                            abs=1e-10)


@pytest.mark.parametrize("which", ("preconditioned", "equivalence", "unpreconditioned"))
def test_spectrum_holds_one_matrix(which):
    # the spectrum's own matrix; LAPACK's copy inside eigvalsh is not traced
    params, A, P = setup((31, 31), (1.5, 1.9), EX2, SECOND_ORDER, nu=32.0, box=2.0)
    run = {"preconditioned": lambda: preconditioned_spectrum(A, P, params),
           "equivalence": lambda: equivalence_spectrum(A, P),
           "unpreconditioned": lambda: unpreconditioned_spectrum(A)}[which]
    assert traced_peak(run) <= 1.25 * 8 * A.n ** 2


def test_ideal_spectrum_holds_three_matrices():
    # A, H(A) and its factor, then A, the factor and one solve: never four
    # matrices, and the eigenvalues of the all-at-once formula bit for bit
    params, A, _ = setup((31, 31), (1.5, 1.9), EX2, SECOND_ORDER, nu=32.0, box=2.0)
    assert traced_peak(ideal_preconditioned_spectrum, A, params) <= 3.01 * 8 * A.n ** 2
    dense = A.materialize()
    C = np.linalg.cholesky(0.5 * (dense + dense.T))
    M = np.linalg.solve(C, np.linalg.solve(C, dense[::-1, :].T).T)
    assert np.array_equal(ideal_preconditioned_spectrum(A, params).eigenvalues, sym_eig(M))


# ---------------------------------------------------------------------------
# CSV export

def test_export_empty_report(tmp_path):
    rep = SpectrumReport(0, np.array([]), 0.0, 0.5, 1.5, 0, "none")
    path = tmp_path / "spec.csv"
    export_spectrum_csv(rep, path)
    assert path.read_bytes() == b"index,eigenvalue\n"


def test_export_four_rows(tmp_path):
    rep = SpectrumReport(4, np.array([-1.5, -0.5, 0.5, 1.5]), 0.0, 0.5, 1.5, 0, "none")
    path = tmp_path / "spec.csv"
    export_spectrum_csv(rep, path)
    lines = path.read_text().split("\n")
    assert len([ln for ln in lines if ln]) == 5


def test_export_round_trip(tmp_path, rng):
    ev = np.sort(rng.standard_normal(17))
    rep = SpectrumReport(17, ev, 0.0, 0.5, 1.5, 0, "none")
    path = tmp_path / "spec.csv"
    export_spectrum_csv(rep, path)
    lines = path.read_text().splitlines()
    parsed = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.array_equal(parsed, ev)
    assert "\r" not in path.read_text()
