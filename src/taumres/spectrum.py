"""Dense spectral verification of the preconditioned-eigenvalue theorems.

All checks go through the symmetric similarity transform: for an SPD
preconditioner P the eigenvalues of P^{-1} (Y A) equal those of
P^{-1/2} (Y A) P^{-1/2}, which is symmetric, so a dense symmetric
eigensolver suffices.  Reports carry the theorem interval and a count of
eigenvalues outside it beyond tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretization import FIRST_ORDER, epsilon_bound
from .toeplitz import flip

__all__ = ["SpectrumReport", "sym_eig", "preconditioned_spectrum",
           "ideal_preconditioned_spectrum", "equivalence_spectrum",
           "unpreconditioned_spectrum", "export_spectrum_csv"]

SYM_EIG_CAP = 4096
SYM_TOL = 1e-10
IDEAL_CAP = 1024
INTERVAL_TOL = 1e-8


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
        ev = np.asarray(self.eigenvalues, dtype=float)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)


def sym_eig(M):
    """Sorted eigenvalues of a dense symmetric matrix; refuses n > SYM_EIG_CAP."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n > SYM_EIG_CAP:
        raise ValueError(f"dense eigensolve capped at n={SYM_EIG_CAP}, got {n}")
    scale = np.max(np.abs(M))
    if scale > 0 and np.max(np.abs(M - M.T)) > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric to tolerance")
    return np.linalg.eigvalsh(M)


def _count_outside(ev, lo, hi, signed, tol):
    mag = np.abs(ev) if signed else ev
    return int(np.count_nonzero((mag < lo - tol) | (mag > hi + tol)))


def _dense_from_columns(n, column_fn):
    M = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        M[:, j] = column_fn(e)
        e[j] = 0.0
    return M


def _symmetrize_checked(M, defect_tol=1e-9):
    scale = max(np.max(np.abs(M)), 1.0)
    defect = np.max(np.abs(M - M.T)) / scale
    if defect > defect_tol:
        raise RuntimeError(f"similarity transform lost symmetry (defect {defect:.2e}); "
                           "operator or preconditioner is inconsistent")
    return 0.5 * (M + M.T)


def preconditioned_spectrum(A, P, params, tol=INTERVAL_TOL):
    """Spectrum of P^{-1} Y A against +-(1/2, (3/2)(1+eps*)).

    Dense columns are assembled matrix-free as
    P^{-1/2} Y A P^{-1/2} e_j and symmetrized (defect must stay below
    1e-9, else the operator pipeline is broken).
    """
    if A.n > SYM_EIG_CAP:
        raise ValueError(f"dense verification capped at n={SYM_EIG_CAP}, got {A.n}")
    eps = epsilon_bound(params)
    M = _dense_from_columns(
        A.n, lambda e: P.apply_inv_sqrt(flip(A.dims, A.apply(P.apply_inv_sqrt(e)))))
    ev = sym_eig(_symmetrize_checked(M))
    lo, hi = 0.5, 1.5 * (1.0 + eps)
    tag = "main_first_order" if params.scheme == FIRST_ORDER else "main_second_order"
    return SpectrumReport(A.n, ev, eps, lo, hi,
                          _count_outside(ev, lo, hi, signed=True, tol=tol), tag, tol)


def ideal_preconditioned_spectrum(A, params, tol=INTERVAL_TOL):
    """Spectrum of H(A)^{-1} Y A against +-[1, 1+eps*].

    H(A) is factored densely (Cholesky); the symmetric congruence
    C^{-1} (Y A) C^{-T} shares the generalized spectrum.
    """
    if A.n > IDEAL_CAP:
        raise ValueError(f"ideal-preconditioner verification capped at n={IDEAL_CAP}, got {A.n}")
    eps = epsilon_bound(params)
    dense = A.materialize()
    HA = 0.5 * (dense + dense.T)
    try:
        C = np.linalg.cholesky(HA)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("H(A) is not positive definite; discretization is broken") from exc
    YA = dense[::-1, :]
    M = np.linalg.solve(C, np.linalg.solve(C, YA.T).T)
    ev = sym_eig(_symmetrize_checked(M))
    lo, hi = 1.0, 1.0 + eps
    return SpectrumReport(A.n, ev, eps, lo, hi,
                          _count_outside(ev, lo, hi, signed=True, tol=tol), "ideal", tol)


def equivalence_spectrum(A, P, tol=1e-10):
    """Spectrum of P^{-1} H(A) against the equivalence interval (1/2, 3/2)."""
    if A.n > SYM_EIG_CAP:
        raise ValueError(f"dense verification capped at n={SYM_EIG_CAP}, got {A.n}")
    M = _dense_from_columns(
        A.n, lambda e: P.apply_inv_sqrt(A.apply_symmetric_part(P.apply_inv_sqrt(e))))
    ev = sym_eig(_symmetrize_checked(M))
    lo, hi = 0.5, 1.5
    return SpectrumReport(A.n, ev, 0.0, lo, hi,
                          _count_outside(ev, lo, hi, signed=False, tol=tol),
                          "equivalence", tol)


def unpreconditioned_spectrum(A):
    """Spectrum of Y A itself; exported for plotting, no theorem interval."""
    dense = A.materialize()
    ev = sym_eig(_symmetrize_checked(dense[::-1, :]))
    return SpectrumReport(A.n, ev, math.nan, math.nan, math.nan, 0, "none")


def export_spectrum_csv(report, path):
    """Write ``index,eigenvalue`` rows, 17 significant digits, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,eigenvalue\n")
        for i, ev in enumerate(report.eigenvalues):
            fh.write(f"{i},{ev:.17g}\n")
