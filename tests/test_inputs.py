"""Every count and every inverse temperature the library takes is checked by one rule.

A count is an integral value (a numpy integer too) within its range: a
fraction or a bool is a ``TypeError``, a value out of range a
``ValueError``, and both name the input.  beta is positive and finite, and
a grid and a model that state different betas are refused.
"""

import math

import numpy as np
import pytest

import cspi
from cspi import (
    BosonPoly,
    FockBasis,
    MatsubaraGrid,
    Ordering,
    QuadraticModel,
    SymbolPoly,
    berry_determinant_log,
    check_resolution_identity,
    cutoff_dFdA,
    normal_discrete_dFdA,
    parse_operator,
    partition_function,
    prefactor_log_closed,
    prefactor_log_empirical,
    run_flow,
    symmetrize,
    weyl_discrete_dFdA,
    weyl_discrete_logZ_quadratic,
)

MODEL = QuadraticModel(A=1.0, beta=1.0)
SYMBOL = SymbolPoly({((1, 1),): 1.0}, 1, Ordering.NORMAL)
PATH = np.ones((4, 1), dtype=complex)

#: (entry point, call with the count, the name it is refused under, lowest
#: value, highest value or None, a value that is accepted)
COUNTS = [
    ("MatsubaraGrid", lambda v: MatsubaraGrid(v, 1.0), "N", 1, None, 5),
    ("berry_determinant_log N", lambda v: berry_determinant_log(v), "N", 1, None, 5),
    ("berry_determinant_log modes", lambda v: berry_determinant_log(5, v), "modes", 1, None, 2),
    ("prefactor_log_closed b", lambda v: prefactor_log_closed(v, 1.0), "b", 0, None, 2),
    ("prefactor_log_closed modes", lambda v: prefactor_log_closed(2, 1.0, v), "modes", 1, None, 2),
    ("prefactor_log_empirical N", lambda v: prefactor_log_empirical(v, 0, 1.0), "N", 1, None, 11),
    ("prefactor_log_empirical b", lambda v: prefactor_log_empirical(11, v, 1.0), "b", 0, 5, 2),
    (
        "prefactor_log_empirical modes",
        lambda v: prefactor_log_empirical(11, 2, 1.0, v),
        "modes",
        1,
        None,
        2,
    ),
    ("cutoff_dFdA", lambda v: cutoff_dFdA(MODEL, v, Ordering.NORMAL), "b", 0, None, 10),
    ("FockBasis modes", lambda v: FockBasis(v, 2), "modes", 1, None, 2),
    ("FockBasis cap", lambda v: FockBasis(1, v), "n_max", 0, None, 2),
    (
        "check_resolution_identity radial",
        lambda v: check_resolution_identity(FockBasis(1, 2), v, 8),
        "radial",
        1,
        None,
        8,
    ),
    (
        "check_resolution_identity angular",
        lambda v: check_resolution_identity(FockBasis(1, 2), 8, v),
        "angular",
        1,
        None,
        8,
    ),
    (
        "check_resolution_identity margin",
        lambda v: check_resolution_identity(FockBasis(1, 2), 8, 8, margin=v),
        "margin",
        0,
        None,
        1,
    ),
    ("run_flow modes", lambda v: run_flow(MODEL, MatsubaraGrid(101, 1.0), 10, v), "modes", 1, None, 2),
    ("run_flow b_floor", lambda v: run_flow(MODEL, MatsubaraGrid(101, 1.0), v), "b_floor", 0, 49, 10),
    ("BosonPoly", lambda v: BosonPoly({}, v), "modes", 1, None, 2),
    ("BosonPoly.unit", lambda v: BosonPoly.unit(v), "modes", 1, None, 2),
    ("symmetrize", lambda v: symmetrize([], v), "modes", 1, None, 2),
    ("SymbolPoly", lambda v: SymbolPoly({}, v, Ordering.WEYL), "modes", 1, None, 2),
    ("BosonPoly.create mode", lambda v: BosonPoly.create(v, 3), "mode", 0, 2, 1),
    ("BosonPoly.create modes", lambda v: BosonPoly.create(0, v), "modes", 1, None, 2),
    ("BosonPoly.create default modes", lambda v: BosonPoly.create(v), "mode", 0, None, 1),
    ("BosonPoly.annihilate mode", lambda v: BosonPoly.annihilate(v, 3), "mode", 0, 2, 1),
    ("BosonPoly.annihilate modes", lambda v: BosonPoly.annihilate(0, v), "modes", 1, None, 2),
    ("parse_operator", lambda v: parse_operator("ad_0*a_0", v), "modes", 1, None, 2),
    ("SymbolPoly.path_sum", lambda v: SYMBOL.path_sum(PATH, v), "shift", 0, 1, 1),
]

#: (entry point, call with beta)
BETAS = [
    ("MatsubaraGrid", lambda beta: MatsubaraGrid(3, beta)),
    ("QuadraticModel", lambda beta: QuadraticModel(1.0, beta)),
    ("prefactor_log_closed", lambda beta: prefactor_log_closed(2, beta)),
    ("prefactor_log_empirical", lambda beta: prefactor_log_empirical(11, 2, beta)),
    ("partition_function", lambda beta: partition_function(np.eye(2), beta)),
]

#: the lattice functions that take beta from both a grid and a model
GRID_AND_MODEL = [
    ("normal_discrete_dFdA", normal_discrete_dFdA),
    ("weyl_discrete_dFdA", weyl_discrete_dFdA),
    ("weyl_discrete_logZ_quadratic", weyl_discrete_logZ_quadratic),
    ("run_flow", lambda grid, model: run_flow(model, grid, 10)),
]


def _refusal(call, value):
    with pytest.raises((TypeError, ValueError)) as exc:
        call(value)
    return exc


@pytest.mark.parametrize(
    "call, name, lo, hi, good", [row[1:] for row in COUNTS], ids=[row[0] for row in COUNTS]
)
def test_counts_checked_by_one_rule(call, name, lo, hi, good):
    cases = [
        (good + 0.5, TypeError),  # was truncated, scaled by, or summed up to
        (float(good), TypeError),  # an integral float is no count either
        (True, TypeError),  # was read as 1
        (lo - 1, ValueError),
    ]
    if hi is not None:
        cases.append((hi + 1, ValueError))
    for value, error in cases:
        exc = _refusal(call, value)
        assert exc.type is error, (value, exc.value)
        assert str(exc.value).startswith(f"{name} must be"), (value, exc.value)
    call(np.int64(good))  # numpy integers are counts
    call(good)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("call", [row[1] for row in BETAS], ids=[row[0] for row in BETAS])
def test_beta_checked_by_one_rule(call, beta):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        call(beta)


@pytest.mark.parametrize("fn", [row[1] for row in GRID_AND_MODEL], ids=[row[0] for row in GRID_AND_MODEL])
def test_grid_and_model_beta_must_agree(fn):
    # N = 101 at beta 5 with a beta 1 model: the grid's beta was read, giving
    # the beta = 5 value (0.00627 for normal_discrete_dFdA, not 0.582)
    with pytest.raises(ValueError, match="beta"):
        fn(MatsubaraGrid(101, 5.0), QuadraticModel(1.0, 1.0))
    with pytest.raises(ValueError, match="beta"):
        fn(MatsubaraGrid(101, 1.0), QuadraticModel(1.0, 1.0 + 2**-52))
    fn(MatsubaraGrid(101, 5.0), QuadraticModel(1.0, 5.0))


def test_cutoff_reads_beta_from_the_model():
    # the window is b alone; beta (formerly stated again in CutoffSpec and
    # never read there) comes from the model
    assert "CutoffSpec" not in cspi.__all__ and not hasattr(cspi, "CutoffSpec")
    hot = cutoff_dFdA(QuadraticModel(1.0, 1.0), 10, Ordering.NORMAL)
    cold = cutoff_dFdA(QuadraticModel(1.0, 5.0), 10, Ordering.NORMAL)
    assert hot == cutoff_dFdA(QuadraticModel(5.0, 0.2), 10, Ordering.NORMAL)
    assert cold == cutoff_dFdA(QuadraticModel(5.0, 1.0), 10, Ordering.NORMAL)
    assert hot != cold


@pytest.mark.parametrize(
    "call, error, name",
    [
        (lambda: cutoff_dFdA(MODEL, 2.5, Ordering.NORMAL), TypeError, "b"),  # gave 0.5653
        (lambda: prefactor_log_empirical(101, 2.5, 1.0), TypeError, "b"),  # gave 14.62
        (lambda: prefactor_log_closed(2, 1.0, modes=1.5), TypeError, "modes"),  # scaled by 1.5
        (lambda: run_flow(MODEL, MatsubaraGrid(101, 1.0), 10, modes=1.5), TypeError, "modes"),
        (lambda: check_resolution_identity(FockBasis(1, 4), 32, 2.5), TypeError, "angular"),
        (lambda: BosonPoly.create(5, modes=2), ValueError, "mode"),  # was the unit operator
        (lambda: BosonPoly.annihilate(-1, modes=2), ValueError, "mode"),  # was the unit operator
        (lambda: MatsubaraGrid(True, 1.0), TypeError, "N"),  # was N = 1
        (lambda: partition_function(np.eye(2), math.inf), ValueError, "beta"),  # was 0.0
        (lambda: FockBasis(1, 2.5), TypeError, "n_max"),  # "'float' object is not iterable"
        (lambda: FockBasis(2, (2, 1)), TypeError, "n_max"),  # one cap serves every mode
        (
            lambda: normal_discrete_dFdA(MatsubaraGrid(101, 5.0), QuadraticModel(1.0, 1.0)),
            ValueError,
            "grid beta",
        ),
    ],
    ids=[
        "cutoff b",
        "prefactor_log_empirical b",
        "prefactor_log_closed modes",
        "run_flow modes",
        "identity angular",
        "create",
        "annihilate",
        "grid bool N",
        "partition_function beta",
        "FockBasis cap",
        "FockBasis caps",
        "beta mismatch",
    ],
)
def test_silent_wrong_answers_refused(call, error, name):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value).startswith(name)
