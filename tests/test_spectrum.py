import re
import sys

import numpy as np
import pytest

from taumres.discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams,
                                    GridSpec, assemble_operator, epsilon_bound)
from taumres import spectrum, toeplitz
from taumres.pde import example2_problem, setup_operators
from taumres.spectrum import (SpectrumReport, equivalence_spectrum,
                              export_spectrum_csv, ideal_preconditioned_spectrum,
                              preconditioned_spectrum, sym_eig,
                              unpreconditioned_spectrum)
from taumres.tau import TauPreconditioner, build_preconditioner
from taumres.toeplitz import MultilevelOperator, Toeplitz1D

from conftest import (assemble_dense, congruence_oracle, each_scheme, ideal_oracle, kron_chain,
                      rel_err, run_fresh, sine_matrix, traced_peak)

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
    monkeypatch.setattr(toeplitz, "MATERIALIZE_CAP", 9)
    with pytest.raises(ValueError, match="dense eigensolve capped at n=9"):
        sym_eig(np.eye(10))
    assert np.array_equal(sym_eig(np.eye(9)), np.ones(9))
    for shape in ((0, 0), (0, 3)):
        with pytest.raises(ValueError, match=r"non-empty square \(n, n\) matrix"):
            sym_eig(np.zeros(shape))


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
    # several tiles, a ragged last one; the eigenvalues are exactly those of (M + M^T)/2,
    # solved in M's own buffer, which is consumed: bit for bit those of an explicitly
    # symmetrized, C-contiguous, writable copy, and eigvalsh's to another LAPACK's rounding
    n = 2 * spectrum._TILE + 37
    M = rng.standard_normal((n, n))
    M = M + M.T
    M[n - 1, 3] += 1e-13
    H = 0.5 * (M + M.T)
    want = sym_eig(H.copy())
    assert rel_err(want, np.linalg.eigvalsh(H)) <= 1e-13
    # a read-only input and non-C-contiguous views are copied, not written
    R = M.copy()
    R.setflags(write=False)
    assert np.array_equal(sym_eig(R), want)
    assert np.array_equal(R, M)
    for view in (M.T[:, :], M[::-1, ::-1]):
        before = view.copy()
        assert np.array_equal(sym_eig(view), sym_eig(0.5 * (before + before.T)))
        assert np.array_equal(view, before)
    assert rel_err(sym_eig(M[::-1, ::-1]), want) <= 1e-13   # P H P: rounding differs
    assert np.array_equal(sym_eig(M), want)


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


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in Linux's KiB")
def test_sym_eig_copies_no_matrix_outside_numpy():
    # traced_peak misses a C-level copy such as np.linalg.eigvalsh's Fortran buffer, so
    # peak RSS is read in a fresh process: numpy's LAPACK looked up first, M built with no
    # second n x n array (tile by tile), and no growth by anything near M across the solve
    out = run_fresh("""
import resource, sys
import numpy as np
from taumres import spectrum
spectrum.sym_eig(np.eye(3))
M = np.empty((3072, 3072))
np.random.default_rng(0).standard_normal(out=M)
spectrum._symmetrize(M)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
spectrum.sym_eig(M)
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before), M.nbytes)
print(spectrum._dsyevd_2stage() is not None, "scipy" in sys.modules)
""")
    grown, nbytes, in_place, scipy = out.split()
    assert (in_place, scipy) == ("True", "False")
    assert int(grown) < 0.5 * int(nbytes)


def test_sym_eig_runs_the_lapack_numpy_ships():
    # a numpy wheel bundles scipy-openblas, whose two-stage dsyevd_2stage sym_eig calls in
    # place, not the one-stage dsyevd; only a numpy on another LAPACK takes the eigvalsh
    # fallback
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    routine = spectrum._dsyevd_2stage()
    assert (routine is not None) == (lapack == "scipy-openblas")
    if routine is not None:
        assert routine.__name__ == "scipy_dsyevd_2stage_64_"


def test_sym_eig_fallback_matches_dsyevd(rng, monkeypatch):
    M = rng.standard_normal((300, 300))
    M = M + M.T
    params, A, P = setup((15, 15), (1.5, 1.5), EX2, SECOND_ORDER, nu=16.0)
    want = [sym_eig(M.copy()), preconditioned_spectrum(A, P, params).eigenvalues]
    monkeypatch.setattr(spectrum, "_dsyevd_2stage", lambda: None)   # a numpy on another LAPACK
    got = [sym_eig(M.copy()), preconditioned_spectrum(A, P, params).eigenvalues]
    for g, w in zip(got, want):
        assert rel_err(g, w) <= 1e-13


@pytest.mark.parametrize("lapack", ["dsyevd", "eigvalsh"])
def test_sym_eig_gate_holds_on_either_path(lapack, rng, monkeypatch):
    if lapack == "eigvalsh":
        monkeypatch.setattr(spectrum, "_dsyevd_2stage", lambda: None)
    M = np.eye(4)
    M[1, 2] = M[2, 1] = np.inf
    with pytest.raises(spectrum.SymmetryError, match="non-finite"):
        sym_eig(M)
    with pytest.raises(spectrum.SymmetryError, match="not symmetric"):
        sym_eig(rng.standard_normal((5, 5)))
    assert np.array_equal(sym_eig(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])


def test_sym_eig_raises_a_lapack_failure(monkeypatch):
    # dsyevd_2stage's info != 0 (an illegal argument, or no convergence) is numpy's
    # LinAlgError
    def failing(*args):
        args[10].value = 3   # info, the eleventh argument

    monkeypatch.setattr(spectrum, "_dsyevd_2stage", lambda: failing)
    with pytest.raises(np.linalg.LinAlgError, match=r"dsyevd_2stage failed \(info 3\)"):
        sym_eig(np.eye(4))


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


@each_scheme
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


@each_scheme
@pytest.mark.parametrize("dims, alphas, dpm", (
    ((7, 7), (1.1, 1.9), EX1),
    ((15, 15), (1.5, 1.9), EX2),
    ((31,), (1.5,), ((3.0,), (1.0,))),
    ((5, 6, 7), (1.3, 1.5, 1.8), ((1.0, 0.0, 2.0), (0.5, 0.0, 1.0)))),
    ids=("n1=7", "n1=15", "1d", "3d_middle_off"))
def test_spectra_match_the_column_oracle(scheme, dims, alphas, dpm):
    # the sine-basis assembly is orthogonally similar to the column-built congruence
    params, A, P = setup(dims, alphas, dpm, scheme)
    ref = sym_eig(congruence_oracle(A, P, flipped=True))
    assert rel_err(preconditioned_spectrum(A, P, params).eigenvalues, ref) <= 1e-12
    N = congruence_oracle(A, P, flipped=False)
    ref = sym_eig(0.5 * (N + N.T))
    assert rel_err(equivalence_spectrum(A, P).eigenvalues, ref) <= 1e-12
    ref = sym_eig(ideal_oracle(A))
    assert rel_err(ideal_preconditioned_spectrum(A, params).eigenvalues, ref) <= 1e-12


@pytest.mark.parametrize("dims, alphas, dpm", (
    ((31,), (1.5,), ((3.0,), (1.0,))),
    ((15, 15), (1.5, 1.9), EX2),
    ((5, 6, 7), (1.3, 1.5, 1.8), ((1.0, 0.0, 2.0), (0.5, 0.0, 1.0)))),
    ids=("1d", "n1=15", "3d_middle_off"))
def test_no_theorem_spectrum_reads_the_physical_matrix(dims, alphas, dpm, monkeypatch):
    # the oracles are built first; then no dense A and no product over the physical-space
    # matrix is at hand, and every theorem spectrum still matches its oracle to 1e-12
    params, A, P = setup(dims, alphas, dpm, SECOND_ORDER, nu=32.0, box=2.0)
    flipped = sym_eig(congruence_oracle(A, P, flipped=True))
    N = congruence_oracle(A, P, flipped=False)
    unflipped = sym_eig(0.5 * (N + N.T))
    ideal = sym_eig(ideal_oracle(A))

    def refuse(*args, **kwargs):
        raise AssertionError("a theorem spectrum reached for the physical-space matrix")

    monkeypatch.setattr(MultilevelOperator, "materialize", refuse)
    monkeypatch.setattr(spectrum, "_axis_matmul", refuse, raising=False)
    assert rel_err(preconditioned_spectrum(A, P, params).eigenvalues, flipped) <= 1e-12
    assert rel_err(equivalence_spectrum(A, P).eigenvalues, unflipped) <= 1e-12
    assert rel_err(ideal_preconditioned_spectrum(A, params).eigenvalues, ideal) <= 1e-12
    with pytest.raises(AssertionError, match="physical-space"):
        unpreconditioned_spectrum(A)


def test_symmetry_defect_raises():
    # an operator whose symmetrized product is not Y A: the matrix built
    # from its levels (here A = I) does not reproduce that product
    class Broken(MultilevelOperator):
        def apply_symmetrized(self, x):
            out = np.zeros(4)
            out[0] = x[1] * 2.0
            out[1] = x[2]
            return out[::-1].copy()

    A = Broken((4,), 1.0, [Toeplitz1D(np.zeros(4), np.zeros(4))])
    P = TauPreconditioner((4,), 1.0, [np.zeros(4)])
    params = FractionalParams((1.5,), (1.0,), (1.0,))
    with pytest.raises(RuntimeError):
        preconditioned_spectrum(A, P, params)


@pytest.mark.parametrize("target", ("apply_inverse", "_axis_apply"))
def test_broken_solver_product_raises(target, monkeypatch):
    # P^{-1} scaled by 1.01, or one level's product perturbed: the seeded
    # probe finds that the assembled matrix misses the solver's product
    params, A, P = setup((5, 4), (1.5, 1.9), EX2, SECOND_ORDER)
    if target == "apply_inverse":
        apply_inverse = TauPreconditioner.apply_inverse
        monkeypatch.setattr(TauPreconditioner, "apply_inverse",
                            lambda self, x: 1.01 * apply_inverse(self, x))
    else:
        axis_apply = Toeplitz1D._axis_apply
        monkeypatch.setattr(Toeplitz1D, "_axis_apply",
                            lambda self, X, axis, out: axis_apply(self, 1.001 * X, axis, out))
    with pytest.raises(spectrum.SymmetryError, match="solver's product"):
        preconditioned_spectrum(A, P, params)
    with pytest.raises(spectrum.SymmetryError, match="solver's product"):
        equivalence_spectrum(A, P)


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


def test_params_of_other_direction_count_rejected():
    # the 1-D params of A's second direction give eps* = 0.053 for A's 0.5: a wrong band
    params, A, P = setup((7, 7), (1.5, 1.9), EX2, SECOND_ORDER)
    params_1d = FractionalParams((1.9,), (2.0,), (1.0,), SECOND_ORDER)
    assert epsilon_bound(params_1d) == pytest.approx(0.0528, abs=1e-4)
    assert epsilon_bound(params) == pytest.approx(0.5)
    for run in (lambda: preconditioned_spectrum(A, P, params_1d),
                lambda: ideal_preconditioned_spectrum(A, params_1d)):
        with pytest.raises(ValueError, match="1 directions, the operator 2"):
            run()


def test_ideal_spectrum_refuses_a_non_spd_symmetric_part():
    # nu = 0 and a level with a negative diagonal: H(A) has a negative eigenvalue
    A = MultilevelOperator((4, 3), 0.0, [Toeplitz1D([-2.0, 1.0, 0.0, 0.0], [-2.0, 0.5, 0.0, 0.0]),
                                         Toeplitz1D([1.0, -0.5, 0.0], [1.0, -0.5, 0.0])])
    params = FractionalParams((1.5, 1.5), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(RuntimeError, match="not positive definite"):
        ideal_preconditioned_spectrum(A, params)


def test_ideal_spectrum_beyond_a_thousand_unknowns():
    # n = 2025 > 1024: the ideal spectrum has no cap of its own below MATERIALIZE_CAP
    problem = example2_problem(45, (1.5, 1.5))
    A, _ = setup_operators(problem, "identity")
    rep = ideal_preconditioned_spectrum(A, problem.params)
    assert rep.n == 2025
    assert rep.violations == 0
    assert np.min(np.abs(rep.eigenvalues)) >= 1.0 - 1e-8


@pytest.mark.parametrize("dims", ((65, 65), (4225,)), ids=("example2", "1d"))
def test_every_spectrum_refuses_past_the_dense_cap_before_allocating(dims):
    # n = 4225 > MATERIALIZE_CAP: one n x n matrix would be 143 MB.  (65, 65)
    # is example2's set-up at n1 = 65; in 1-D the level's own dense block is n x n too
    d = len(dims)
    params, A, P = setup(dims, (1.5, 1.9)[:d], (EX2[0][:d], EX2[1][:d]), SECOND_ORDER,
                         nu=66.0, box=2.0)
    assert A.n == 4225 > toeplitz.MATERIALIZE_CAP
    for run in (lambda: preconditioned_spectrum(A, P, params),
                lambda: equivalence_spectrum(A, P),
                lambda: ideal_preconditioned_spectrum(A, params),
                lambda: unpreconditioned_spectrum(A)):
        def refused():
            with pytest.raises(ValueError, match=f"capped at n={toeplitz.MATERIALIZE_CAP},"):
                run()
        assert traced_peak(refused) < 2 ** 20


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
    # the rows are reversed in place 32 pairs at a time: even and odd n, a ragged last chunk
    for dims in ((10, 13), (9, 15)):
        _, A, _ = setup(dims, (1.5, 1.5), EX1, FIRST_ORDER, nu=6.0)
        assert np.array_equal(unpreconditioned_spectrum(A).eigenvalues,
                              sym_eig(A.materialize()[::-1, :]))


@pytest.mark.parametrize("which", ("preconditioned", "equivalence", "unpreconditioned", "ideal"))
def test_spectrum_holds_one_matrix(which):
    # the spectrum's own matrix, which LAPACK diagonalizes in place (its C-level work arrays
    # are not traced; the RSS test above covers copies).  In 1-D the level's dense block
    # becomes the matrix; the ideal one's 1-D peak is the next test's
    cases = (((31, 31), (1.5, 1.9), EX2), ((1023,), (1.5,), ((3.0,), (1.0,))))
    for dims, alphas, dpm in cases[:1] if which == "ideal" else cases:
        params, A, P = setup(dims, alphas, dpm, SECOND_ORDER, nu=32.0, box=2.0)
        run = {"preconditioned": lambda: preconditioned_spectrum(A, P, params),
               "equivalence": lambda: equivalence_spectrum(A, P),
               "unpreconditioned": lambda: unpreconditioned_spectrum(A),
               "ideal": lambda: ideal_preconditioned_spectrum(A, params)}[which]
        assert traced_peak(run) <= 1.25 * 8 * A.n ** 2, dims


def test_ideal_spectrum_matches_the_oracle_in_two_matrices():
    # at most two: its peak, one matrix, is test_spectrum_holds_one_matrix[ideal]'s
    params, A, _ = setup((31, 31), (1.5, 1.9), EX2, SECOND_ORDER, nu=32.0, box=2.0)
    ref = sym_eig(ideal_oracle(A))
    assert rel_err(ideal_preconditioned_spectrum(A, params).eigenvalues, ref) <= 1e-12


def test_ideal_spectrum_holds_three_matrices():
    # in 1-D the eigenvectors are n x n too: they, the sine-basis level and one product of the two
    params, A, _ = setup((1023,), (1.5,), ((3.0,), (1.0,)), SECOND_ORDER, nu=32.0, box=2.0)
    assert traced_peak(ideal_preconditioned_spectrum, A, params) <= 3.01 * 8 * A.n ** 2


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
