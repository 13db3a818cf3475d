"""Preconditioned MINRES for symmetric indefinite systems.

Standard Lanczos-based MINRES in the inner product induced by an SPD
preconditioner inverse.  The recurrence tracks the preconditioned-norm
residual, which is what the convergence theory bounds; the true 2-norm
residual is recomputed at exit.  The operator's symmetry is not sampled:
Y A is symmetric by construction, which the tests check densely.

Memory: the solver keeps eight n-vectors, x, b and the six buffers
v_old, v, w_old, w, zhat and t of the recurrences, which run in place.
An operator or preconditioner output is only read and is dropped at its
last use: P^{-1} v once it is scaled into zhat, A zhat when the next
product replaces it.  The recurrences run in a helper, so their buffers
are gone before the closing b - A x.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not float(self.maxit).is_integer() or self.maxit < 1:
            raise ValueError(f"maxit must be an integer of at least 1, got {self.maxit}")


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
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"right-hand side must be a 1-D vector, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    n = b.shape[0]

    # the true residual is relative to ||b||, or absolute for b = 0
    scale = float(np.linalg.norm(b)) or 1.0
    if cfg.x0 is None:
        x = np.zeros(n)
    else:
        x = np.array(cfg.x0, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"x0 shape {x.shape} does not match rhs length {n}")
        if not np.all(np.isfinite(x)):
            raise ValueError("x0 has non-finite entries")
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
    t = np.empty(n)
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
        q = apply_a(zhat)
        delta = float(q @ zhat)
        np.multiply(v, delta / gamma, out=t)
        np.subtract(q, t, out=t)
        np.multiply(v_old, gamma / gamma_old, out=v_old)
        v_new = np.subtract(t, v_old, out=v_old)
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
        np.multiply(w_old, a3, out=w_old)
        np.subtract(zhat, w_old, out=w_old)
        np.multiply(w, a2, out=t)
        np.subtract(w_old, t, out=w_old)
        w_new = np.divide(w_old, a1, out=w_old)
        x += np.multiply(w_new, c * eta, out=t)
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


def bound_curve(epsilon, k_max):
    """Residual bound 2 rho^floor(k/2), rho = (kappa-1)/(kappa+1), kappa = 3(1+eps).

    The preconditioned-norm relative residual of MINRES on a system whose
    eigenvalues fill +-(1/2, (3/2)(1+eps)) obeys this curve; entry k of
    the returned vector is the bound after k iterations, k = 0..k_max.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    kappa = 3.0 * (1.0 + epsilon)
    rho = (kappa - 1.0) / (kappa + 1.0)
    k = np.arange(k_max + 1)
    return 2.0 * rho ** (k // 2)
