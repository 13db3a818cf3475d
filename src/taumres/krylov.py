"""Preconditioned MINRES for symmetric indefinite systems.

Standard Lanczos-based MINRES in the inner product induced by an SPD
preconditioner inverse.  The recurrence tracks the preconditioned-norm
residual, which is what the convergence theory bounds; the true 2-norm
residual is recomputed at exit.  The operator's symmetry is not sampled:
Y A is symmetric by construction, which the tests check densely.

Memory: the solver keeps seven n-vectors, x, b and the five buffers
v_old, v, w_old, w and zhat of the recurrences, which run in place.
Each recurrence is one ``scal`` and two ``axpy`` passes into the buffer it
replaces (the update of x one ``axpy``), BLAS-1 calls into numpy's own
OpenBLAS (``transforms._openblas``) with their ``ctypes`` arguments built
once per solve; a numpy without that library runs the same two kernels as
numpy operations.  Per iteration at n = 65,025 the passes took 168 us, the
fourteen numpy calls and the spare n-vector they replace 278 us (2 vCPUs, one
BLAS thread).  An operator or preconditioner output is only read and is
dropped at its last use: P^{-1} v once it is scaled into zhat, A zhat when
the next product replaces it.  Dropping A zhat right after the Lanczos pass
instead lets glibc trim the top of the heap: an unpreconditioned first step
at n1 = 255 then took 2.5x the minor page faults and 1.2x the time.  The
recurrences run in a helper, so their buffers are gone before the closing
b - A x.
"""

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .transforms import _as_real, _count

__all__ = ["MinresConfig", "MinresResult", "BreakdownError", "pminres", "bound_curve"]


class BreakdownError(RuntimeError):
    """Raised when the preconditioner is detected to be non-SPD, or when the
    operator or the preconditioner returns non-finite values."""


@dataclass(frozen=True)
class MinresConfig:
    tol: float = 1e-8
    maxit: int = 100
    x0: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "tol", _as_real(self.tol, "tol", shape=(), finite=True))
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        object.__setattr__(self, "maxit", _count(self.maxit, "maxit"))


@dataclass
class MinresResult:
    x: np.ndarray
    relres_history: list = field(default_factory=list)
    true_relres: float = 0.0
    iters: int = 0
    converged: bool = False


def pminres(apply_a, apply_pinv, b, cfg=None):
    """Solve A x = b, A symmetric, with SPD preconditioner inverse.

    ``apply_a`` and ``apply_pinv`` are callables mapping vectors to
    vectors; ``apply_pinv=None`` gives plain MINRES.  The iteration stops
    once the estimated preconditioned-norm relative residual drops below
    ``cfg.tol``; ``relres_history`` is nonincreasing by construction.
    ``true_relres`` is the recomputed ||b - A x|| / ||b||, or for b = 0
    the absolute residual ||A x||, which a nonzero ``cfg.x0`` can leave.
    A ``b`` that is not a 1-D vector, or a non-finite ``b`` or ``cfg.x0``,
    raises ``ValueError``; non-finite operator or preconditioner output
    raises ``BreakdownError`` in the iteration where it first shows.
    """
    if cfg is None:
        cfg = MinresConfig()
    if apply_pinv is None:
        apply_pinv = lambda r: r
    b = _as_real(b, "right-hand side", shape=(None,), finite=True)
    n = b.shape[0]

    # the true residual is relative to ||b||, or absolute for b = 0
    scale = float(np.linalg.norm(b)) or 1.0
    if cfg.x0 is None:
        x = np.zeros(n)
    else:
        x = _as_real(cfg.x0, "x0", shape=(n,), finite=True, copy=True)
    # the recurrences' buffers are freed before the closing product runs
    history, it, converged = _iterate(apply_a, apply_pinv, b, x, cfg)
    return MinresResult(x, history, float(np.linalg.norm(b - apply_a(x))) / scale, it, converged)


def _iterate(apply_a, apply_pinv, b, x, cfg):
    """The MINRES recurrences from x (updated in place); (history, iterations, converged)."""
    n = b.shape[0]
    v = b.copy() if cfg.x0 is None else b - apply_a(x)
    z = apply_pinv(v)
    g2 = float(z @ v)
    if not math.isfinite(g2):
        raise BreakdownError(f"<r, P^-1 r> = {g2}: non-finite operator or preconditioner output")
    if g2 < 0.0:
        raise BreakdownError(f"<r, P^-1 r> = {g2} < 0: preconditioner is not SPD")
    gamma = math.sqrt(g2)
    if gamma == 0.0:
        if float(np.linalg.norm(v)) != 0.0:
            raise BreakdownError("<r, P^-1 r> = 0 for a nonzero residual: "
                                 "preconditioner is singular")
        # x0 already solves the system
        return [0.0], 0, True

    eta0 = gamma
    eta = gamma
    # solver-owned buffers, updated in place: the next v is written over
    # v_old and the next w over w_old.  With x and b they are all the
    # n-vectors a solve keeps; z is dropped once it is scaled into zhat, and
    # q when the next q replaces it
    v_old = np.zeros(n)
    w = np.zeros(n)
    w_old = np.zeros(n)
    zhat = np.empty(n)
    scal, axpy = _kernels((x, v_old, v, w_old, w, zhat))
    gamma_old = 1.0
    c_old = c = 1.0
    s_old = s = 0.0
    history = []
    converged = False
    it = 0
    while it < cfg.maxit:
        it += 1
        np.divide(z, gamma, out=zhat)
        del z
        # daxpy reads q as n contiguous doubles; q @ zhat refuses another length
        q = np.ascontiguousarray(apply_a(zhat), dtype=float)
        delta = float(q @ zhat)
        # v_new = q - (delta/gamma) v - (gamma/gamma_old) v_old
        scal(-gamma / gamma_old, v_old)
        axpy(1.0, q, v_old)
        axpy(-delta / gamma, v, v_old)
        v_new = v_old
        z = apply_pinv(v_new)
        g2 = float(z @ v_new)
        if not (math.isfinite(delta) and math.isfinite(g2)):
            raise BreakdownError(f"<A z, z> = {delta}, <v, P^-1 v> = {g2} in iteration {it}: "
                                 "non-finite operator or preconditioner output")
        if g2 < 0.0 and g2 < -1e-13 * max(float(v_new @ v_new), 1.0):
            raise BreakdownError(f"<v, P^-1 v> = {g2} < 0: preconditioner is not SPD")
        gamma_new = math.sqrt(max(g2, 0.0))

        a0 = c * delta - c_old * s * gamma
        a1 = math.hypot(a0, gamma_new)
        if a1 == 0.0:
            # stagnation (A singular on the Krylov space); no progress possible
            it -= 1
            break
        a2 = s * delta + c_old * c * gamma
        a3 = s_old * gamma
        c_old, s_old = c, s
        c = a0 / a1
        s = gamma_new / a1
        # w_new = (zhat - a3 w_old - a2 w) / a1, then x += c eta w_new
        scal(-a3 / a1, w_old)
        axpy(1.0 / a1, zhat, w_old)
        axpy(-a2 / a1, w, w_old)
        w_new = w_old
        axpy(c * eta, w_new, x)
        eta = -s * eta

        history.append(abs(eta) / eta0)
        if history[-1] <= cfg.tol:
            converged = True
            break
        if gamma_new == 0.0:
            # Krylov space exhausted: residual cannot decrease further
            break
        v_old, v = v, v_new
        gamma_old, gamma = gamma, gamma_new
        w_old, w = w, w_new

    return history, it, converged


def _kernels(owned):
    """The recurrences' two in-place kernels on n-vectors: ``scal(a, y)``, y <- a y, and
    ``axpy(a, x, y)``, y <- y + a x, where y is one of the ``owned`` buffers.

    With numpy's own OpenBLAS they are its ``dscal`` and ``daxpy``; the size, the
    coefficient and the owned buffers' addresses are ``ctypes`` arguments built here, once
    per solve, so only a foreign x, the operator output q, has its address read per call.
    Without it they are numpy operations.
    """
    lib = transforms._openblas()
    if lib is None:
        return (lambda a, y: np.multiply(y, a, out=y),
                lambda a, x, y: np.add(y, np.multiply(x, a), out=y))
    dscal, daxpy = lib.scipy_dscal_64_, lib.scipy_daxpy_64_
    dscal.restype = daxpy.restype = None
    # Fortran BLAS: every argument by reference; the owned buffers stay alive, and so
    # keep their ids, for the whole solve
    size, one = ctypes.byref(ctypes.c_int64(owned[0].size)), ctypes.byref(ctypes.c_int64(1))
    alpha = ctypes.c_double()
    coefficient = ctypes.byref(alpha)
    address = {id(y): ctypes.c_void_p(y.ctypes.data) for y in owned}

    def scal(a, y):
        alpha.value = a
        dscal(size, coefficient, address[id(y)], one)

    def axpy(a, x, y):
        alpha.value = a
        xp = address.get(id(x))
        daxpy(size, coefficient, ctypes.c_void_p(x.ctypes.data) if xp is None else xp, one,
              address[id(y)], one)

    return scal, axpy


def bound_curve(epsilon, k_max):
    """Residual bound 2 rho^floor(k/2), rho = (kappa-1)/(kappa+1), kappa = 3(1+eps).

    The preconditioned-norm relative residual of MINRES on a system whose
    eigenvalues fill +-(1/2, (3/2)(1+eps)) obeys this curve; entry k of
    the returned vector is the bound after k iterations, k = 0..k_max.
    """
    epsilon = _as_real(epsilon, "epsilon", shape=(), finite=True)
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    kappa = 3.0 * (1.0 + epsilon)
    rho = (kappa - 1.0) / (kappa + 1.0)
    k = np.arange(_count(k_max, "k_max", low=0) + 1)
    return 2.0 * rho ** (k // 2)
