"""Dense spectral verification of the preconditioned-eigenvalue theorems.

Each theorem is the spectrum of one symmetric matrix.  For an SPD
preconditioner P, P^{-1} (Y A) has the eigenvalues of P^{-1/2} (Y A) P^{-1/2},
whose columns come matrix-free from the solver's own ``A.apply_symmetrized``
and ``P.apply_inv_sqrt``.  ``A.apply`` gives N = P^{-1/2} A P^{-1/2}, and
as P^{-1/2} is symmetric, (N + N^T)/2 = P^{-1/2} H(A) P^{-1/2} with
H(A) = (A + A^T)/2, so P^{-1} H(A) needs no H(A) operator; P must act on
A's dims, not a permutation of them.  The ideal and unpreconditioned
spectra start from ``A.materialize()``.  Every matrix passes the one
symmetry gate of ``sym_eig``; reports carry the theorem interval and a
count of eigenvalues outside it beyond INTERVAL_TOL (EQUIVALENCE_TOL for
the equivalence band, which has no eps*).

Memory: a spectrum holds two n x n matrices at its peak, the one it
builds and LAPACK's own copy inside ``eigvalsh``.  ``sym_eig`` gates and
symmetrizes tile by tile and overwrites its argument by its symmetric
part.  The ideal spectrum's dense factorization (n <= IDEAL_CAP) holds
three, each dropped at its last use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretization import FIRST_ORDER, epsilon_bound
from .transforms import _as_real

__all__ = ["SpectrumReport", "SymmetryError", "sym_eig", "preconditioned_spectrum",
           "ideal_preconditioned_spectrum", "equivalence_spectrum",
           "unpreconditioned_spectrum", "export_spectrum_csv"]

SYM_EIG_CAP = 4096
SYM_TOL = 1e-10
IDEAL_CAP = 1024
INTERVAL_TOL = 1e-8
EQUIVALENCE_TOL = 1e-10
_TILE = 128           # tile edge of sym_eig's gate and symmetrization


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted spectrum plus the theorem-interval verdict.

    ``interval_lo``/``interval_hi`` bound the magnitude band; for the
    signed theorems the admissible set is the union of +- the band.  A
    report with ``which_theorem == "none"`` carries no constraint and
    zero violations by construction.
    """

    n: int
    eigenvalues: np.ndarray
    epsilon_star: float
    interval_lo: float
    interval_hi: float
    violations: int
    which_theorem: str
    tolerance: float = INTERVAL_TOL

    def __post_init__(self):
        ev = _as_real(self.eigenvalues, "eigenvalues", shape=(None,))
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)


class SymmetryError(ValueError, RuntimeError):
    """A matrix failed ``sym_eig``'s gate; for a spectrum's own matrix, a broken pipeline."""


def _tile_pairs(n):
    # the tile pairs (I, J), I >= J, that cover the lower triangle of an n x n matrix
    for i in range(0, n, _TILE):
        I = slice(i, min(i + _TILE, n))
        for j in range(0, i + 1, _TILE):
            yield I, slice(j, min(j + _TILE, n))


def _symmetrize(M):
    """Overwrite M by (M + M^T)/2, tile pair by tile pair; returns M."""
    for I, J in _tile_pairs(M.shape[0]):
        S = 0.5 * (M[I, J] + M[J, I].T)
        M[I, J] = S
        M[J, I] = S.T
    return M


def sym_eig(M):
    """Sorted eigenvalues of a dense symmetric matrix; overwrites M by its symmetric part.

    The one symmetry gate: refuses (``SymmetryError``) a matrix with a
    non-finite entry or with max|M - M^T| > SYM_TOL * max|M|, then solves
    on (M + M^T)/2, written into M (a read-only M is copied first).
    Refuses n > SYM_EIG_CAP.
    """
    M = _as_real(M, "matrix", shape=(None, None))
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n > SYM_EIG_CAP:
        raise ValueError(f"dense eigensolve capped at n={SYM_EIG_CAP}, got {n}")
    if not M.flags.writeable:
        M = M.copy()
    defects, scales = [], []
    with np.errstate(invalid="ignore"):   # inf - inf; refused below
        for I, J in _tile_pairs(n):
            defects.append(np.max(np.abs(M[I, J] - M[J, I].T)))
            scales += [np.max(np.abs(M[I, J])), np.max(np.abs(M[J, I]))]
    defect, scale = np.max(defects), np.max(scales)   # np.max keeps a NaN
    if not np.isfinite(scale):
        raise SymmetryError("matrix has non-finite entries")
    if defect > SYM_TOL * scale:
        raise SymmetryError(f"matrix is not symmetric to tolerance (defect {defect:.2e})")
    return np.linalg.eigvalsh(_symmetrize(M))


def _report(M, eps, lo, hi, tag, tol=INTERVAL_TOL, signed=True):
    # every spectrum's tail: gate and eigensolve, count outside the band
    ev = sym_eig(M)
    mag = np.abs(ev) if signed else ev
    violations = int(np.count_nonzero((mag < lo - tol) | (mag > hi + tol)))
    return SpectrumReport(M.shape[0], ev, eps, lo, hi, violations, tag, tol)


def _congruence(A, P, flipped):
    """Dense (P^{-1/2} Y A P^{-1/2})^T (without Y unless ``flipped``), column j into row j.

    Every consumer takes the symmetric part, which the transpose shares
    bit for bit, and rows are contiguous stores.
    """
    if P.dims != A.dims:
        raise ValueError(f"preconditioner dims {P.dims} do not match operator dims {A.dims}")
    if A.n > SYM_EIG_CAP:
        raise ValueError(f"dense verification capped at n={SYM_EIG_CAP}, got {A.n}")
    apply = A.apply_symmetrized if flipped else A.apply
    M = np.empty((A.n, A.n))
    e = np.zeros(A.n)
    for j in range(A.n):
        e[j] = 1.0
        M[j] = P.apply_inv_sqrt(apply(P.apply_inv_sqrt(e)))
        e[j] = 0.0
    return M


def preconditioned_spectrum(A, P, params):
    """Spectrum of P^{-1} Y A against +-(1/2, (3/2)(1+eps*)).

    A broken operator pipeline shows as an asymmetric matrix and raises
    ``SymmetryError``, a RuntimeError.
    """
    eps = epsilon_bound(params)
    tag = "main_first_order" if params.scheme == FIRST_ORDER else "main_second_order"
    return _report(_congruence(A, P, flipped=True), eps, 0.5, 1.5 * (1.0 + eps), tag)


def ideal_preconditioned_spectrum(A, params):
    """Spectrum of H(A)^{-1} Y A against +-[1, 1+eps*].

    H(A) is factored densely (Cholesky); the symmetric congruence
    C^{-1} (Y A) C^{-T} shares the generalized spectrum.
    """
    if A.n > IDEAL_CAP:
        raise ValueError(f"ideal-preconditioner verification capped at n={IDEAL_CAP}, got {A.n}")
    eps = epsilon_bound(params)
    # at most three matrices are alive: A, H(A) and C, then A, C and X, then
    # C, X and M.  H(A) is formed in place, the bits of 0.5 * (dense + dense.T)
    dense = A.materialize()
    H = dense.T + dense
    H *= 0.5
    try:
        C = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("H(A) is not positive definite; discretization is broken") from exc
    del H
    X = np.linalg.solve(C, dense[::-1, :].T)
    del dense
    M = np.linalg.solve(C, X.T)
    del C, X
    return _report(M, eps, 1.0, 1.0 + eps, "ideal")


def equivalence_spectrum(A, P):
    """Spectrum of P^{-1} H(A), via (N + N^T)/2 with N = P^{-1/2} A P^{-1/2}, against (1/2, 3/2)."""
    N = _congruence(A, P, flipped=False)
    return _report(_symmetrize(N), 0.0, 0.5, 1.5, "equivalence", EQUIVALENCE_TOL,
                   signed=False)


def unpreconditioned_spectrum(A):
    """Spectrum of Y A itself; exported for plotting, no theorem interval."""
    return _report(A.materialize()[::-1, :], math.nan, math.nan, math.nan, "none")


def export_spectrum_csv(report, path):
    """Write ``index,eigenvalue`` rows, 17 significant digits, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,eigenvalue\n")
        for i, ev in enumerate(report.eigenvalues):
            fh.write(f"{i},{ev:.17g}\n")
