"""Tau-preconditioned MINRES for symmetrized multilevel Toeplitz systems.

Solves the nonsymmetric multilevel Toeplitz systems arising from
Riemann-Liouville fractional diffusion equations by flipping them into
symmetric Hankel form and running MINRES with a sine-transform
diagonalized multilevel tau preconditioner, and verifies the governing
eigenvalue-interval bounds densely at desk scale.
"""

from .discretization import (FIRST_ORDER, SECOND_ORDER, FractionalParams, GridSpec,
                             assemble_operator, epsilon_bound, grunwald_g, weights_second)
from .krylov import BreakdownError, MinresConfig, MinresResult, bound_curve, pminres
from .pde import (ALPHA_PAIRS, FractionalProblem, StepReport, example1_problem,
                  example2_problem, first_step_row, run_steps, sample_grid,
                  step_first_order, step_second_order)
from .spectrum import (SpectrumReport, export_spectrum_csv, ideal_preconditioned_spectrum,
                       preconditioned_spectrum, sym_eig, unpreconditioned_spectrum)
from .tau import TauPreconditioner, build_preconditioner, tau_eigs
from .toeplitz import MultilevelOperator, Toeplitz1D, flip
from .transforms import dst1_multi

__version__ = "0.1.0"

__all__ = [
    "FIRST_ORDER", "SECOND_ORDER",
    "FractionalParams", "GridSpec",
    "assemble_operator", "epsilon_bound",
    "grunwald_g", "weights_second",
    "BreakdownError", "MinresConfig", "MinresResult", "bound_curve", "pminres",
    "ALPHA_PAIRS", "FractionalProblem", "StepReport", "example1_problem",
    "example2_problem", "first_step_row", "run_steps",
    "sample_grid", "step_first_order", "step_second_order",
    "SpectrumReport", "export_spectrum_csv",
    "ideal_preconditioned_spectrum", "preconditioned_spectrum", "sym_eig",
    "unpreconditioned_spectrum",
    "TauPreconditioner", "build_preconditioner", "tau_eigs",
    "MultilevelOperator", "Toeplitz1D", "flip",
    "dst1_multi",
]
