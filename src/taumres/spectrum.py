"""Dense spectral verification of the preconditioned-eigenvalue theorems.

Each theorem is the spectrum of one symmetric matrix.  The multilevel DST-I S
diagonalizes the tau preconditioner, P = S diag(lam) S, takes A to nu*I +
sum_i I (x) S_i K_i S_i and the flip Y to the diagonal D of the signs
(-1)^(k_1 + ... + k_d) of the 0-based modes (Bini and Capovani, 1983).  So
P^{-1} Y A has the eigenvalues of M = diag(lam)^{-1/2} D (S A S) diag(lam)^{-1/2},
assembled by ``toeplitz._kron_sum`` from one 2-D DST per dense level, then
scaled.  Without D, M's symmetric part is similar to P^{-1/2} H(A) P^{-1/2},
H(A) = (A + A^T)/2, so P^{-1} H(A) needs no H(A) operator.  A seeded probe
ties M to the solver: S (lam^{-1/2} * M (lam^{1/2} * S v)) must match
``P.apply_inverse(A.apply_symmetrized(v))`` (``A.apply`` without D).  The ideal
spectrum shares the assembly, with B_i = V_i^T S_i K_i S_i V_i for S_i K_i S_i and the
eigenvalues of H(A) for lam: S H(A) S commutes with D, so one ``eigh`` per level and
mode parity gives V_i (fast diagonalization; Lynch, Rice and Thomas, 1964) and D V = V D.
Every matrix passes ``sym_eig``'s symmetry gate; reports carry the band and a count of
eigenvalues outside it beyond INTERVAL_TOL.

Memory: ``toeplitz.MATERIALIZE_CAP`` is the one dense cap.  A spectrum peaks at one n x n
matrix, which LAPACK's two-stage ``dsyevd_2stage`` diagonalizes in place with a workspace of
about 105 n doubles, 3.3 MB at n = 3969 (the 1-D ideal one at three matrices: B_1, V_1, a
product).
"""

import ctypes
import functools
import math
import pathlib
from dataclasses import dataclass

import numpy as np

from . import toeplitz, transforms
from .discretization import FIRST_ORDER, epsilon_bound
from .transforms import _as_real

__all__ = ["SpectrumReport", "SymmetryError", "sym_eig", "preconditioned_spectrum",
           "ideal_preconditioned_spectrum", "equivalence_spectrum",
           "unpreconditioned_spectrum", "export_spectrum_csv"]

SYM_TOL = 1e-10
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
    """A matrix failed ``sym_eig``'s gate or, in a spectrum, missed the solver's product."""


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
    """Sorted eigenvalues of a dense symmetric matrix; consumes M.

    The one symmetry gate: refuses (``SymmetryError``) a matrix with a
    non-finite entry or with max|M - M^T| > SYM_TOL * max|M|, writes
    (M + M^T)/2 into M and hands M to LAPACK ``dsyevd_2stage`` from numpy's
    own OpenBLAS, which overwrites it in place (a read-only or non-C-contiguous
    M is copied once first).  Its two-stage reduction takes M to band form by
    BLAS-3 products, then to tridiagonal form by bulge chasing in cache, where
    one-stage ``dsytrd`` spends half its flops in BLAS-2 sweeps over all of M
    (Haidar, Ltaief and Dongarra, SC 2011).  A numpy without that library runs
    ``np.linalg.eigvalsh``, which copies M once.  A LAPACK failure raises
    ``np.linalg.LinAlgError``.
    Refuses an empty matrix and n > ``toeplitz.MATERIALIZE_CAP``.
    """
    M = _as_real(M, "matrix", shape=(None, None))
    if M.shape[0] != M.shape[1] or not M.size:
        raise ValueError(f"expected a non-empty square (n, n) matrix, got shape {M.shape}")
    n = M.shape[0]
    if n > toeplitz.MATERIALIZE_CAP:
        raise ValueError(f"dense eigensolve capped at n={toeplitz.MATERIALIZE_CAP}, got {n}")
    if not (M.flags.writeable and M.flags.c_contiguous):
        M = np.array(M, order="C")
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
    M, lapack = _symmetrize(M), _dsyevd_2stage()
    if lapack is None:   # numpy on another LAPACK: eigvalsh copies M, two n x n matrices
        return np.linalg.eigvalsh(M)
    # the symmetric C-order M is its own Fortran-order transpose: LAPACK overwrites it
    dim, info, w = ctypes.c_int64(n), ctypes.c_int64(0), np.empty(n)

    def call(lwork, liwork):   # -1, -1 asks for the workspace sizes
        work, iwork = np.empty(max(lwork, 1)), np.empty(max(liwork, 1), np.int64)
        lapack(b"N", b"L", dim, M.ctypes.data, dim, w.ctypes.data, work.ctypes.data,
               ctypes.c_int64(lwork), iwork.ctypes.data, ctypes.c_int64(liwork), info, 1, 1)
        if info.value:
            raise np.linalg.LinAlgError(f"LAPACK dsyevd_2stage failed (info {info.value})")
        return int(work[0]), int(iwork[0])
    call(*call(-1, -1))
    return w


@functools.cache
def _dsyevd_2stage():
    """numpy's own ILP64 LAPACK ``dsyevd_2stage`` (from the scipy-openblas its wheels bundle),
    else None."""
    root = pathlib.Path(np.__file__).parent
    for lib in (*root.parent.glob("numpy.libs/*scipy_openblas64_*"),   # Linux, Windows
                *root.glob(".dylibs/*scipy_openblas64_*")):            # macOS
        try:
            f = ctypes.CDLL(str(lib)).scipy_dsyevd_2stage_64_
        except (OSError, AttributeError):   # not loadable, or no such symbol
            continue
        # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info; the strings' lengths
        i64, ptr, size = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p, ctypes.c_size_t
        f.argtypes = [ctypes.c_char_p] * 2 + [i64, ptr, i64, ptr, ptr, i64, ptr, i64, i64, size, size]
        f.restype = None
        return f
    return None


def _report(M, eps, lo, hi, tag, tol=INTERVAL_TOL, signed=True):
    # every spectrum's tail: gate and eigensolve, count outside the band
    ev = sym_eig(M)
    mag = np.abs(ev) if signed else ev
    violations = int(np.count_nonzero((mag < lo - tol) | (mag > hi + tol)))
    return SpectrumReport(M.shape[0], ev, eps, lo, hi, violations, tag, tol)


def _epsilon_star(A, params):
    if params.d != len(A.dims):
        raise ValueError(f"params have {params.d} directions, the operator {len(A.dims)}")
    return epsilon_bound(params)


def _sine_levels(A):
    # S_i K_i S_i: one 2-D DST of each dense level, in place, once the dense cap is checked
    if A.n > toeplitz.MATERIALIZE_CAP:
        raise ValueError(f"dense verification capped at n={toeplitz.MATERIALIZE_CAP}, got {A.n}")
    return (transforms.dst1_multi(D.shape, D.reshape(-1), out=D.reshape(-1)).reshape(D.shape)
            for D in (K.dense() for K in A.levels))


def _assemble(A, levels, lam, flipped):
    # diag(lam)^{-1/2} D (nu*I + sum_i I (x) B_i (x) I) diag(lam)^{-1/2}, no D unless flipped
    M = toeplitz._kron_sum(A.dims, A.nu, levels)
    w = np.sqrt(1.0 / lam)
    signs = np.indices(A.dims).sum(axis=0).reshape(-1) % 2 if flipped else 0
    M *= np.where(signs, -w, w)[:, None]
    M *= w
    return M, w


def _sine_basis(A, P, flipped):
    """Dense diag(lam)^{-1/2} D (S A S) diag(lam)^{-1/2} (no D unless ``flipped``), probed."""
    if P.dims != A.dims:
        raise ValueError(f"preconditioner dims {P.dims} do not match operator dims {A.dims}")
    M, w = _assemble(A, _sine_levels(A), P.lam, flipped)
    # S (lam^{-1/2} * M (lam^{1/2} * S v)) against P^{-1} Y A v (P^{-1} A v), to SYM_TOL
    v = np.random.default_rng(0).standard_normal(A.n)
    want = P.apply_inverse((A.apply_symmetrized if flipped else A.apply)(v))
    got = transforms.dst1_multi(A.dims, w * (M @ (transforms.dst1_multi(A.dims, v) / w)))
    if not (defect := np.max(np.abs(got - want))) <= SYM_TOL * np.max(np.abs(want)):
        raise SymmetryError(f"dense matrix misses the solver's product (defect {defect:.2e})")
    return M


def preconditioned_spectrum(A, P, params):
    """Spectrum of P^{-1} Y A against +-(1/2, (3/2)(1+eps*)).

    A broken operator or preconditioner product raises ``SymmetryError``, a RuntimeError.
    """
    eps = _epsilon_star(A, params)
    tag = "main_first_order" if params.scheme == FIRST_ORDER else "main_second_order"
    return _report(_sine_basis(A, P, flipped=True), eps, 0.5, 1.5 * (1.0 + eps), tag)


def ideal_preconditioned_spectrum(A, params):
    """Spectrum of H(A)^{-1} Y A against +-[1, 1+eps*]; RuntimeError unless H(A) is SPD."""
    eps = _epsilon_star(A, params)
    levels, mus = [], []
    for B in _sine_levels(A):
        # B + B^T = 2 S_i H_i S_i couples modes of one parity only: an eigh per parity
        # gives V_i with D_i V_i = V_i D_i exactly, so V^T D = D V^T; B becomes V_i^T B V_i
        V, mu = np.zeros(B.shape), np.empty(len(B))
        for p in (0, 1):
            mu[p::2], V[p::2, p::2] = np.linalg.eigh(B[p::2, p::2] + B[p::2, p::2].T)
        levels.append(np.matmul(V.T @ B, V, out=B))
        mus.append(0.5 * mu)
    lam = functools.reduce(np.add.outer, mus, A.nu).reshape(-1)
    if not lam.min() > 0.0:
        raise RuntimeError("H(A) is not positive definite; discretization is broken")
    return _report(_assemble(A, levels, lam, flipped=True)[0], eps, 1.0, 1.0 + eps, "ideal")


def equivalence_spectrum(A, P):
    """Spectrum of P^{-1} H(A), via the symmetric part of P^{-1/2} A P^{-1/2}, against (1/2, 3/2)."""
    return _report(_symmetrize(_sine_basis(A, P, flipped=False)), 0.0, 0.5, 1.5, "equivalence",
                   EQUIVALENCE_TOL, signed=False)


def unpreconditioned_spectrum(A):
    """Spectrum of Y A itself; exported for plotting, no theorem interval."""
    M = A.materialize()
    n = M.shape[0]
    for i in range(0, n // 2, 32):   # Y: reverse the rows in place, 32 pairs at a time
        j = min(i + 32, n // 2)
        M[i:j], M[n - j:n - i] = M[n - j:n - i][::-1], M[i:j][::-1].copy()
    return _report(M, math.nan, math.nan, math.nan, "none")


def export_spectrum_csv(report, path):
    """Write ``index,eigenvalue`` rows, 17 significant digits, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,eigenvalue\n")
        for i, ev in enumerate(report.eigenvalues):
            fh.write(f"{i},{ev:.17g}\n")
