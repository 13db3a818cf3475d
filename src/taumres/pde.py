"""Time stepping for the fractional diffusion model problem.

Each step solves the symmetrized system Y A u = Y b by preconditioned
MINRES.  Two benchmark setups are provided: a first-order (backward
Euler + shifted Grünwald) problem with a smooth source on the unit
square, and a second-order (Crank-Nicolson + weighted-shifted Grünwald)
problem on (0,2)^2 with a known exact solution.  Each scheme only
builds its right-hand side and hands it on already flipped, so only Y b
is alive while MINRES runs (``step_first_order``, ``step_second_order``);
one helper solves and reports, and both ``run_steps`` and
``first_step_row`` (one result row of the experiments' tables) step
through the two.

Starting vector: ``first_step_row`` starts MINRES from the constant
vector x0 = 1/sqrt(n), the experiments' protocol; every step of
``run_steps`` starts from ``cfg.x0``, which is 0 unless a config sets it.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams, GridSpec,
                             assemble_operator)
from .krylov import MinresConfig, pminres
from .tau import build_preconditioner
from .toeplitz import flip
from .transforms import _as_real, _count

__all__ = ["FractionalProblem", "StepReport", "sample_grid",
           "step_second_order", "step_first_order",
           "example1_problem", "example2_problem",
           "first_step_row", "run_steps", "setup_operators",
           "ALPHA_PAIRS", "PRECONDITIONERS"]

PRECONDITIONERS = ("tau", "identity")
ALPHA_PAIRS = tuple((a1, a2) for a1 in (1.1, 1.5, 1.9) for a2 in (1.1, 1.5, 1.9))


@dataclass(frozen=True)
class FractionalProblem:
    """Model problem data: grid, coefficients, time grid and samplers.

    ``source``/``exact`` are called as f(x1, ..., xd, t) on broadcast
    coordinate arrays; ``u0`` as u0(x1, ..., xd).  T > 0 is finite, M >= 1 whole.
    """

    grid: GridSpec
    params: FractionalParams
    T: float
    M: int
    source: callable
    u0: callable
    exact: callable = None

    def __post_init__(self):
        object.__setattr__(self, "M", _count(self.M, "the number of time steps M"))
        object.__setattr__(self, "T", _as_real(self.T, "final time T", shape=(), finite=True))
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got {self.T}")

    @property
    def tau_step(self):
        return self.T / self.M

    @property
    def nu(self):
        return self.M / self.T


@dataclass
class StepReport:
    step: int
    iters: int
    converged: bool
    relres: float
    err_inf: float = None


def sample_grid(grid, fn, t=None):
    """Sample fn on the interior tensor grid, lexicographic order.

    Dirichlet boundary points are excluded; fn receives broadcastable
    coordinate arrays (and t when given), is evaluated vectorized and
    returns a scalar or a d-D array, never a flat one laid along one axis.
    """
    d = len(grid.n)
    coords = np.meshgrid(*(grid.axis_points(i) for i in range(d)), indexing="ij", sparse=True)
    vals = _as_real(fn(*coords) if t is None else fn(*coords, t), "sampled values")
    if vals.ndim not in (0, d):
        raise ValueError(f"sampled values must be a scalar or {d}-D, not of shape {vals.shape}")
    return np.broadcast_to(vals, grid.n).reshape(grid.size).copy()


def _solve_step(problem, A, P, yb, t, cfg):
    """Solve Y A u = yb, the flipped right-hand side Y b, for the iterate at time t; (u, report)."""
    pinv = P.apply_inverse if P is not None else None
    res = pminres(A.apply_symmetrized, pinv, yb, cfg)
    err = None if problem.exact is None else \
        float(np.max(np.abs(res.x - sample_grid(problem.grid, problem.exact, t))))
    report = StepReport(int(round(t / problem.tau_step)), res.iters, res.converged,
                        res.relres_history[-1] if res.relres_history else 0.0, err)
    return res.x, report


def step_second_order(problem, A, P, u_k, t_k, cfg=None):
    """One Crank-Nicolson step from t_k: (nu I + B) u^{k+1} = (nu I - B) u^k + f^{k+1/2}.

    The right-hand side reuses A through (nu I - B) = 2 nu I - A; the
    source is sampled at the midpoint t_k + tau/2.  Returns the next
    iterate and a report (error measured at t_k + tau when an exact
    solution is available).
    """
    if problem.params.scheme != SECOND_ORDER:
        raise ValueError("step_second_order requires second-order params")
    nu = problem.nu
    tau = problem.tau_step
    # only the flipped right-hand side outlives this line
    yb = flip(A.dims, 2.0 * nu * u_k - A.apply(u_k)
              + sample_grid(problem.grid, problem.source, t_k + 0.5 * tau))
    return _solve_step(problem, A, P, yb, t_k + tau, cfg)


def step_first_order(problem, A, P, u_prev, t_k, cfg=None):
    """One backward Euler step onto t_k: A u^k = nu u^{k-1} + f^k."""
    if problem.params.scheme != FIRST_ORDER:
        raise ValueError("step_first_order requires first-order params")
    yb = flip(A.dims, problem.nu * u_prev + sample_grid(problem.grid, problem.source, t_k))
    return _solve_step(problem, A, P, yb, t_k, cfg)


def _step(problem, A, P, u, k, cfg):
    """Advance u from step k to step k+1 by the problem's scheme."""
    tau = problem.tau_step
    if problem.params.scheme == SECOND_ORDER:
        return step_second_order(problem, A, P, u, k * tau, cfg)
    return step_first_order(problem, A, P, u, (k + 1) * tau, cfg)


def _check_preconditioner(name):
    """The one check of a preconditioner name, for the set-up and the CLI alike."""
    if name not in PRECONDITIONERS:
        raise ValueError(f"unknown preconditioner {name!r}, expected one of {PRECONDITIONERS}")


def setup_operators(problem, preconditioner):
    """Operator A and preconditioner P (None for "identity") of a problem; the one set-up rule."""
    _check_preconditioner(preconditioner)
    A = assemble_operator(problem.params, problem.grid, problem.nu)
    P = build_preconditioner(problem.params, problem.grid, problem.nu) \
        if preconditioner == "tau" else None
    return A, P


def run_steps(problem, preconditioner="tau", cfg=None):
    """March the scheme from u0 over all M steps; returns the final iterate and reports."""
    A, P = setup_operators(problem, preconditioner)
    u = sample_grid(problem.grid, problem.u0)
    reports = []
    for k in range(problem.M):
        u, rep = _step(problem, A, P, u, k, cfg)
        reports.append(rep)
    return u, reports


# ---------------------------------------------------------------------------
# Experiment setups

EXAMPLE1_COEFFS = ((2.0, 0.5), (0.3, 1.0))
EXAMPLE2_COEFFS = ((3.0, 1.0), (2.0, 1.0))


def _example1_source(x1, x2, t):
    return 100.0 * np.sin(10.0 * x1) * np.cos(x2) + np.sin(10.0 * t) * x1 * x2


def example1_problem(n1, alphas):
    """First-order problem on (0,1)^2, zero initial data, tau = 1/ceil(n1^alpha1)."""
    params = FractionalParams(alphas,
                              [d[0] for d in EXAMPLE1_COEFFS],
                              [d[1] for d in EXAMPLE1_COEFFS], FIRST_ORDER)
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (n1, n1))
    M = int(math.ceil(n1 ** alphas[0]))
    return FractionalProblem(grid, params, 1.0, M, _example1_source, lambda x1, x2: 0.0)


def example2_exact(x1, x2, t):
    # the last factor multiplies in place: one full-size temporary on a grid
    v = math.exp(t) * x1 ** 2 * (2.0 - x1) ** 2 * x2 ** 2
    v *= (2.0 - x2) ** 2
    return v


def _example2_source(alphas):
    (d1p, d1m), (d2p, d2m) = EXAMPLE2_COEFFS
    a1, a2 = alphas

    def source(x1, x2, t):
        phi1 = x1 ** 2 * (2.0 - x1) ** 2
        phi2 = x2 ** 2 * (2.0 - x2) ** 2
        s1 = 0.0
        s2 = 0.0
        for i in range(2, 5):
            c = math.comb(2, i - 2) * 2 ** (4 - i) * math.factorial(i) / (-1.0) ** (i - 2)
            s1 = s1 + c * (d1p * x1 ** (i - a1) + d1m * (2.0 - x1) ** (i - a1)) / math.gamma(i + 1 - a1)
            s2 = s2 + c * (d2p * x2 ** (i - a2) + d2m * (2.0 - x2) ** (i - a2)) / math.gamma(i + 1 - a2)
        return math.exp(t) * (phi1 * phi2 - phi2 * s1 - phi1 * s2)

    return source


def example2_problem(n1, alphas):
    """Second-order problem on (0,2)^2 with exact solution, tau = T/(n1+1)."""
    params = FractionalParams(alphas,
                              [d[0] for d in EXAMPLE2_COEFFS],
                              [d[1] for d in EXAMPLE2_COEFFS], SECOND_ORDER)
    grid = GridSpec((0.0, 0.0), (2.0, 2.0), (n1, n1))
    return FractionalProblem(grid, params, 1.0, n1 + 1, _example2_source(alphas),
                             lambda x1, x2: example2_exact(x1, x2, 0.0), example2_exact)


def first_step_row(problem, preconditioner, tol, maxit):
    """The result row of the problem's first step, MINRES started from x0 = 1/sqrt(n).

    ``err_inf`` is the max-norm error after the first step (None without
    an exact solution).  For example2 that is a local error of size
    tau (tau^2 + h^2), whose ratios under refinement tend to 8.  It is not
    a convergence-order quantity; the order shows in the error at T of a
    full march by ``run_steps``.
    """
    if len(problem.grid.n) != 2:
        raise ValueError(f"first_step_row needs a 2-D problem, got {len(problem.grid.n)}-D")
    n = problem.grid.size
    A, P = setup_operators(problem, preconditioner)
    u0 = sample_grid(problem.grid, problem.u0)
    cfg = MinresConfig(tol=tol, maxit=maxit, x0=np.ones(n) / math.sqrt(n))
    t0 = time.perf_counter()
    _, rep = _step(problem, A, P, u0, 0, cfg)
    wall = time.perf_counter() - t0
    return {
        "alpha1": problem.params.alpha[0],
        "alpha2": problem.params.alpha[1],
        "n": n,
        "preconditioner": preconditioner,
        "iters": rep.iters,
        "converged": rep.converged,
        "relres": rep.relres,
        "err_inf": rep.err_inf,
        "wall_seconds": wall,
    }
