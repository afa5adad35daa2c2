"""Frequency-shell renormalization of the symmetric-order lattice integral.

One step integrates out the conjugate pair of Fourier amplitudes at the
highest remaining frequency shell.  For a quadratic model the pair integral
is exactly Gaussian and diagonal in frequency, so the whole factor is
absorbed into the running normalization:

    log c  +=  -M ln(4 tan^2(w/2))                      (free Berry factor)
             + M ln[ 4 tan^2(w/2) / (4 tan^2(w/2) + (beta A / N)^2) ]

and the quadratic coefficient itself does not flow.  The second line is the
part a Hamiltonian-level bookkeeping would attribute to the energy shift of
the shell; its free-energy-density magnitude is reported as the step's
correction and falls off like 1/shell^2.  The partition function is
conserved at every step: log c plus the Gaussian log Z of the remaining
shells stays equal to the full lattice log Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import MatsubaraGrid
from .errors import NumericalError
from .fock import QuadraticModel


@dataclass(frozen=True)
class FlowState:
    """Running normalization, effective coefficient, and current shell."""

    log_c: float
    A_eff: float
    shell: int
    grid: MatsubaraGrid
    modes: int = 1


@dataclass(frozen=True)
class FlowResult:
    final: FlowState
    shells: np.ndarray       # descending shell index, one entry per step
    corrections: np.ndarray  # Hamiltonian-level correction per step
    log_c_series: np.ndarray  # log_c after each step


def initial_state(grid: MatsubaraGrid, model: QuadraticModel, modes: int = 1) -> FlowState:
    """Flow start: nothing integrated out, log c = (N-1) M ln 2, shell = (N-1)/2."""
    grid.require_odd("the frequency-shell flow")
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    return FlowState(
        log_c=(grid.N - 1) * modes * math.log(2.0),
        A_eff=model.A,
        shell=(grid.N - 1) // 2,
        grid=grid,
        modes=modes,
    )


def renorm_step(state: FlowState, model: QuadraticModel) -> tuple[FlowState, float]:
    """Integrate out the +-omega pair at the current shell (quadratic model).

    Returns the advanced state and the magnitude of the free-energy-density
    change attributed to the Hamiltonian term (the normalization flow is
    tracked separately in log_c and is not part of the correction).
    """
    if state.shell < 1:
        raise ValueError(f"no nonzero frequency shell left to integrate (shell={state.shell})")
    N = state.grid.N
    half_tan = math.tan(math.pi * state.shell / N)
    c = state.grid.beta * state.A_eff / N

    pair = (c - 2j * half_tan) * (c + 2j * half_tan)  # exact Gaussian pair integral
    if not abs(pair.imag) < 1e-12:
        raise NumericalError(f"conjugate pair product must be real, got {pair}")

    berry_log = -state.modes * math.log(4.0 * half_tan * half_tan)
    correction_log = -state.modes * math.log1p(c * c / (4.0 * half_tan * half_tan))
    # quadratic action is diagonal in frequency: no induced shift on A_eff
    advanced = FlowState(
        log_c=state.log_c + berry_log + correction_log,
        A_eff=state.A_eff,
        shell=state.shell - 1,
        grid=state.grid,
        modes=state.modes,
    )
    correction = abs(correction_log) / state.grid.beta
    return advanced, correction


def remaining_gaussian_logZ(state: FlowState, model: QuadraticModel) -> float:
    """Gaussian log Z of the shells still present, |n| <= state.shell.

    Partner of log_c in the conservation identity
    ``log_c + remaining == full lattice log Z``; the constant beta A / 2 per
    mode belongs to the Hamiltonian sum and stays here until the end.
    """
    if state.A_eff <= 0:
        raise ValueError("remaining Gaussian log Z needs A_eff > 0")
    N = state.grid.N
    c = state.grid.beta * state.A_eff / N
    n = np.arange(state.shell, 0, -1)
    half_tan = np.tan(np.pi * n / N)
    log_sum = float(np.sum(np.log(c * c + 4.0 * half_tan * half_tan))) + math.log(c)
    return state.modes * (state.grid.beta * state.A_eff / 2.0 - log_sum)


def run_flow(
    model: QuadraticModel,
    grid: MatsubaraGrid,
    b_floor: int,
    modes: int = 1,
) -> FlowResult:
    """Iterate :func:`renorm_step` from the top shell down to ``b_floor``.

    The accumulated correction beyond the floor inherits the 1/b tail of
    sum 1/shell^2, so it vanishes in the double limit 1 << b << B.
    """
    top = (grid.N - 1) // 2
    if not 0 <= b_floor < top:
        raise ValueError(f"need 0 <= b_floor < (N-1)/2 = {top}, got {b_floor}")
    state = initial_state(grid, model, modes)
    steps = top - b_floor
    shells = np.empty(steps, dtype=int)
    corrections = np.empty(steps)
    log_c_series = np.empty(steps)
    for i in range(steps):
        shells[i] = state.shell
        state, corrections[i] = renorm_step(state, model)
        log_c_series[i] = state.log_c
    return FlowResult(state, shells, corrections, log_c_series)
