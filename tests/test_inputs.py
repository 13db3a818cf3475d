"""The one input rule: every number a caller passes is a real number, or a ValueError."""

import warnings

import numpy as np
import pytest

from taumres.discretization import FractionalParams, GridSpec, assemble_operator, grunwald_g
from taumres.krylov import MinresConfig, bound_curve, pminres
from taumres.pde import FractionalProblem, sample_grid
from taumres.spectrum import sym_eig
from taumres.tau import TauPreconditioner, build_preconditioner, tau_eigs
from taumres.toeplitz import MultilevelOperator, Toeplitz1D, flip
from taumres.transforms import _check_dims, dst1_multi

# integer-valued data, so int and float32 copies hold the same numbers
X = np.array([3.0, -1.0, 2.0, 0.0, 5.0, 1.0])
COL = np.array([4.0, -1.0, 2.0])
ROW = np.array([4.0, 3.0, -2.0])
PARAMS = FractionalParams((1.5, 1.9), (3.0, 2.0), (1.0, 1.0))
GRID = GridSpec((0.0, 0.0), (1.0, 1.0), (2, 3))
A = assemble_operator(PARAMS, GRID, 2.0)

# every entry that takes an array from its caller: (valid input, the call)
ARRAY_ENTRIES = {
    "dst1_multi": (X, lambda v: dst1_multi((2, 3), v)),
    "flip": (X, lambda v: flip((2, 3), v)),
    "MultilevelOperator.apply": (X, A.apply),
    "Toeplitz1D.matvec": (X.reshape(2, 3), lambda v: Toeplitz1D(COL, ROW).matvec(v)),
    "Toeplitz1D col": (COL, lambda v: Toeplitz1D(v, ROW).dense()),
    "Toeplitz1D row": (ROW, lambda v: Toeplitz1D(COL, v).dense()),
    "tau_eigs": (COL, tau_eigs),
    # a per-axis spectrum, read through the lam it is summed into
    "TauPreconditioner lam": (COL, lambda v: TauPreconditioner((2, 3), 2.0, [ROW[:2], v]).lam),
    "pminres b": (X, lambda v: pminres(A.apply_symmetrized, None, v).x),
    "pminres x0": (X, lambda v: pminres(A.apply_symmetrized, None, X, MinresConfig(x0=v)).x),
    "sample_grid": (X.reshape(2, 3), lambda v: sample_grid(GRID, lambda x1, x2: v)),
    "sym_eig": (np.add.outer(COL, COL), sym_eig),
}


def bool_in_a_list(v):
    # numpy would read this list as numbers, the True as 1.0
    o = v.astype(object)
    o.flat[0] = True
    return o.tolist()


BAD_ARRAYS = {
    "complex array": lambda v: v + 1j,
    "complex list": lambda v: (v + 1j).tolist(),
    "bool array": lambda v: v > 0,
    "bool in a list": bool_in_a_list,
    "numeric text": lambda v: v.astype(str),
    "object array": lambda v: v.astype(object),
}


@pytest.mark.parametrize("bad", BAD_ARRAYS)
@pytest.mark.parametrize("entry", ARRAY_ENTRIES)
def test_array_entry_refuses_non_real_input(entry, bad):
    valid, call = ARRAY_ENTRIES[entry]
    # refused as such: not cut to the real part with a ComplexWarning, not parsed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="real numbers"):
            call(BAD_ARRAYS[bad](valid.copy()))


@pytest.mark.parametrize("entry", ARRAY_ENTRIES)
def test_array_entry_reads_int_and_float32_as_float64(entry):
    valid, call = ARRAY_ENTRIES[entry]
    expected = call(valid.copy())
    for dtype in (np.int64, np.float32):
        got = call(valid.astype(dtype))
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


# every real scalar a caller passes: the call with a valid value, and that value
SCALAR_ENTRIES = {
    "FractionalParams alpha": (lambda v: FractionalParams((v, 1.5), (1.0, 1.0), (1.0, 1.0)), 1.5),
    "FractionalParams d_plus": (lambda v: FractionalParams((1.5,), (v,), (1.0,)), 2.0),
    "GridSpec a": (lambda v: GridSpec((v,), (1.0,), (3,)), 0.0),
    "GridSpec b": (lambda v: GridSpec((0.0,), (v,), (3,)), 2.0),
    "MinresConfig tol": (lambda v: MinresConfig(tol=v), 1e-8),
    "FractionalProblem T": (lambda v: FractionalProblem(GRID, PARAMS, v, 4, None, None), 1.0),
    "MultilevelOperator nu": (lambda v: MultilevelOperator((3,), v, [Toeplitz1D(COL, COL)]), 2.0),
    "TauPreconditioner nu": (lambda v: TauPreconditioner((3,), v, [COL]), 2.0),
    "build_preconditioner nu": (lambda v: build_preconditioner(PARAMS, GRID, v), 2.0),
    "grunwald_g alpha": (lambda v: grunwald_g(v, 3), 1.5),
    "bound_curve epsilon": (lambda v: bound_curve(v, 3), 0.5),
}


@pytest.mark.parametrize("bad", (1.5 + 0j, 1.0 + 1j, True, "1.5", np.float64(np.nan)),
                         ids=("complex", "complex-imaginary", "bool", "text", "nan"))
@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
def test_scalar_entry_refuses_non_real_input(entry, bad):
    call, valid = SCALAR_ENTRIES[entry]
    call(valid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            call(bad)


@pytest.mark.parametrize("call", (
    lambda: GridSpec((0, 0), (1, 1), (True, 3)),
    lambda: MinresConfig(maxit=True),
    lambda: MinresConfig(tol=True),
    lambda: FractionalProblem(GRID, PARAMS, 1.0, True, None, None),
    lambda: grunwald_g(1.5, True),
    lambda: _check_dims(("3",)),
    lambda: _check_dims(3),
    lambda: GridSpec((0,), (1,), (2.5,)),
    lambda: bound_curve(0.5, -1),
    lambda: tau_eigs([1.0, np.nan]),
    lambda: FractionalParams((), (), ()),
), ids=("GridSpec-n-bool", "maxit-bool", "tol-bool", "M-bool", "grunwald-K-bool",
        "dims-text", "dims-not-a-sequence", "GridSpec-n-fraction", "k_max-negative", "tau_eigs-nan",
        "params-no-direction"))
def test_counts_and_finite_columns_refuse(call):
    with pytest.raises(ValueError):
        call()


def test_whole_floats_are_counts():
    assert GridSpec((0, 0), (1, 1), (2.0, 3)).n == (2, 3)
    assert MinresConfig(maxit=2.0).maxit == 2
    assert FractionalProblem(GRID, PARAMS, 1.0, 4.0, None, None).M == 4
    assert np.array_equal(grunwald_g(1.5, 3.0), grunwald_g(1.5, 3))
    # a whole float size sets up the same operator as the integer one
    operators = [assemble_operator(PARAMS, GridSpec((0, 0), (1, 1), n), 1.0).materialize()
                 for n in ((2.0, 3.0), (2, 3))]
    assert np.array_equal(*operators)
    assert np.array_equal(bound_curve(0.5, 4.0), bound_curve(0.5, 4))
    assert _check_dims((np.int64(2), 3.0)) == (2, 3)


@pytest.mark.parametrize("call, what", [
    (lambda: FractionalParams((1.5, 1.5, 1.5), (1, 1), (1, 1)), "FractionalParams"),
    (lambda: GridSpec((0, 0), (1,), (3, 3)), "ends a, b"),
], ids=("FractionalParams", "GridSpec"))
def test_ragged_sequence_gets_the_rule_s_message(call, what):
    # not numpy's "inhomogeneous shape"
    with pytest.raises(ValueError, match=f"^{what} must be a regular array, not a ragged"):
        call()
