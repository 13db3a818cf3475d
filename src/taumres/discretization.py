"""Grünwald discretizations of Riemann-Liouville fractional diffusion.

Generates the first-order (shifted) and second-order (weighted-shifted)
Grünwald coefficient tables, builds each direction's Grünwald block from
its scheme's table in one place (``_directions``, read by the operator
and the tau preconditioner), assembles the time-stepping operators

    A = nu*I + sum_i ( v+_i W_i + v-_i W_i^T ),

and provides the closed-form bound epsilon* of the preconditioned
spectrum.  The generating functions and the contraction factor omega of
the lemmas are test oracles (``tests/conftest.py``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .toeplitz import MultilevelOperator, Toeplitz1D
from .transforms import _as_real, _check_dims, _count

__all__ = [
    "FIRST_ORDER",
    "SECOND_ORDER",
    "FractionalParams",
    "GridSpec",
    "grunwald_g",
    "weights_second",
    "assemble_operator",
    "epsilon_bound",
]

# The two schemes, by the words the command line and config files use too:
# first-order shifted and second-order weighted-shifted Grünwald
FIRST_ORDER = "first"
SECOND_ORDER = "second"
_SCHEMES = (FIRST_ORDER, SECOND_ORDER)


def _check_alpha(alpha):
    alpha = _as_real(alpha, "fractional order", shape=())
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"fractional order must lie in (1, 2), got {alpha}")
    return alpha


def _check_scheme(scheme):
    """The one scheme check, for a flag, a config file, a RunConfig and FractionalParams."""
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {_SCHEMES}")


@dataclass(frozen=True)
class FractionalParams:
    """Orders and diffusion coefficients of the model problem.

    There are one or more directions; ``alpha[i]`` must lie strictly in
    (1, 2); the coefficients are finite and nonnegative.  A direction with
    ``d_plus + d_minus == 0`` makes the spatial operator vanish there
    (allowed for degenerate identity-like operators; ``epsilon_bound`` skips it).
    """

    alpha: tuple
    d_plus: tuple
    d_minus: tuple
    scheme: str = SECOND_ORDER

    def __post_init__(self):
        alpha, d_plus, d_minus = _as_real((self.alpha, self.d_plus, self.d_minus),
                                          "FractionalParams", shape=(3, None), finite=True).tolist()
        if not alpha:
            raise ValueError("FractionalParams needs one or more directions, got none")
        if any(c < 0 for c in d_plus + d_minus):
            raise ValueError("diffusion coefficients must be nonnegative")
        object.__setattr__(self, "alpha", tuple(map(_check_alpha, alpha)))
        object.__setattr__(self, "d_plus", tuple(d_plus))
        object.__setattr__(self, "d_minus", tuple(d_minus))
        _check_scheme(self.scheme)

    @property
    def d(self):
        return len(self.alpha)


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid of interior points on a hyper-rectangle: finite ends, whole n_i >= 1."""

    a: tuple
    b: tuple
    n: tuple
    h: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _check_dims(self.n))
        ends = _as_real((self.a, self.b), "ends a, b", shape=(2, len(self.n)), finite=True).tolist()
        if any(bi <= ai for ai, bi in zip(*ends)):
            raise ValueError("domain endpoints must satisfy b > a")
        object.__setattr__(self, "a", tuple(ends[0]))
        object.__setattr__(self, "b", tuple(ends[1]))
        h = tuple((bi - ai) / (ni + 1) for ai, bi, ni in zip(self.a, self.b, self.n))
        object.__setattr__(self, "h", h)

    @property
    def size(self):
        return math.prod(self.n)

    def axis_points(self, i):
        """Interior points a_i + j*h_i, j = 1..n_i."""
        return self.a[i] + self.h[i] * np.arange(1, self.n[i] + 1)


def grunwald_g(alpha, K):
    """Coefficients g_0..g_K with g_0 = 1, g_k = (1 - (alpha+1)/k) g_{k-1}.

    Equals the alternating binomial (-1)^k C(alpha, k); it is the
    first-order scheme's table.  Like every coefficient table here, the
    result is read-only.
    """
    alpha = _check_alpha(alpha)
    K = _count(K, "K", low=0)
    # the recurrence's factors, multiplied up left to right: the same
    # roundings as a loop over k
    g = np.ones(K + 1)
    g[1:] -= (alpha + 1.0) / np.arange(1, K + 1)
    g = np.cumprod(g)
    g.setflags(write=False)
    return g


def weights_second(alpha, K):
    """Second-order weights w_0 = alpha/2, w_k = (alpha/2) g_k + ((2-alpha)/2) g_{k-1}."""
    g = grunwald_g(alpha, K)
    w = np.empty(g.shape)
    w[0] = 0.5 * alpha
    w[1:] = 0.5 * alpha * g[1:] + 0.5 * (2.0 - alpha) * g[:-1]
    w.setflags(write=False)
    return w


def _directions(params, grid):
    """The one per-direction set-up rule, read by the operator and the tau preconditioner,
    and the one place that knows the Grünwald block: for each direction i, the scheme's
    scalings v+_i, v-_i and the first column -[c_1 .. c_m] and first row -[c_1, c_0, 0, ...]
    of L_i of size m = n_i, from the scheme's table c, as new arrays."""
    if len(grid.n) != params.d:
        raise ValueError(f"grid has {len(grid.n)} directions, params has {params.d}")
    half, table = (0.5, weights_second) if params.scheme == SECOND_ORDER else (1.0, grunwald_g)
    for alpha, h, m, dp, dm in zip(params.alpha, grid.h, grid.n, params.d_plus, params.d_minus):
        s = half / h ** alpha
        c = table(alpha, m)
        row = np.zeros(m)
        row[:2] = -c[1::-1][:m]   # -c_1, then -c_0 when m > 1
        yield dp * s, dm * s, -c[1:], row


def assemble_operator(params, grid, nu):
    """Assemble nu*I + sum_i (v+_i W_i + v-_i W_i^T) for the given scheme.

    Level i is the one Toeplitz matrix K_i = v+_i L_i + v-_i L_i^T, built
    from L_i's first column and row (``_directions``); L_i^T has first
    column L_i's row and first row L_i's column.
    """
    return MultilevelOperator(grid.n, nu, [Toeplitz1D(vp * col + vm * row, vp * row + vm * col)
                                           for vp, vm, col, row in _directions(params, grid)])


def epsilon_bound(params):
    """Closed-form essup bound max_i |d+_i - d-_i|/(d+_i + d-_i) |tan(alpha_i pi/2)|.

    A direction with d+_i + d-_i = 0 adds nothing to the symbol and is
    skipped; when every direction vanishes the bound is 0.
    """
    eps = 0.0
    for a, dp, dm in zip(params.alpha, params.d_plus, params.d_minus):
        if dp + dm == 0.0:
            continue
        eps = max(eps, abs(dp - dm) / (dp + dm) * abs(math.tan(0.5 * a * math.pi)))
    return eps
