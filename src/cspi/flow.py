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

Since the steps do not feed back into each other, :func:`run_flow` takes
them all at once as arrays over the shells, and log c after each step is a
prefix sum of the step terms.  That prefix sum is compensated (the exact
rounding error of every addition is summed alongside), because a plain
float sum over 10^5 or more shells drifts past the 1e-9 conservation gate;
:func:`remaining_gaussian_logZ` reads its partner sums off the same kind of
prefix.  :func:`initial_state` and :func:`renorm_step` remain as the
single-step API, with the same per-step arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Prefix sums of ``x``, each carrying the rounding errors of the steps before it.

    ``np.cumsum`` adds left to right, so step i rounds ``s[i-1] + x[i]`` to
    ``s[i]``.  TwoSum recovers that rounding error exactly, and adding the
    prefix sums of the errors back is Ogita, Rump & Oishi's Sum2 (SIAM J.
    Sci. Comput. 26, 2005) in prefix form: every prefix comes out as if it
    were summed in twice the working precision and then rounded once.
    """
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s))[:-1]
    x_part = s - prev
    err = (prev - (s - x_part)) + (x - x_part)
    return s + np.cumsum(err)


def _shell_logs(state: FlowState, shells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-shell (Berry, correction) parts of the log pair integral at ``state``'s A_eff.

    The one place the per-step formulas live: :func:`renorm_step` calls it
    with one shell, :func:`run_flow` with all of them.
    """
    N = state.grid.N
    half_tan = np.tan(np.pi * shells / N)
    c = state.grid.beta * state.A_eff / N

    pair = (c - 2j * half_tan) * (c + 2j * half_tan)  # exact Gaussian pair integral
    # relative: numpy's complex product may round its two cross terms differently
    residue = (np.abs(pair.imag) / pair.real).max(initial=0.0)
    if not residue < 1e-12:
        raise NumericalError(f"conjugate pair products must be real, relative residue {residue}")

    tan_sq4 = 4.0 * half_tan * half_tan
    berry_log = -state.modes * np.log(tan_sq4)
    correction_log = -state.modes * np.log1p(c * c / tan_sq4)
    return berry_log, correction_log


def renorm_step(state: FlowState) -> tuple[FlowState, float]:
    """Integrate out the +-omega pair at the current shell (quadratic model).

    Returns the advanced state and the magnitude of the free-energy-density
    change attributed to the Hamiltonian term (the normalization flow is
    tracked separately in log_c and is not part of the correction).
    """
    if state.shell < 1:
        raise ValueError(f"no nonzero frequency shell left to integrate (shell={state.shell})")
    (berry_log,), (correction_log,) = _shell_logs(state, np.array([state.shell]))
    # quadratic action is diagonal in frequency: no induced shift on A_eff
    log_c = float(state.log_c + berry_log + correction_log)
    advanced = replace(state, log_c=log_c, shell=state.shell - 1)
    return advanced, float(abs(correction_log)) / state.grid.beta


def remaining_gaussian_logZ(state: FlowState) -> float | np.ndarray:
    """Gaussian log Z of the shells still present, |n| <= state.shell.

    Partner of log_c in the conservation identity
    ``log_c + remaining == full lattice log Z``; the constant beta A / 2 per
    mode belongs to the Hamiltonian sum and stays here until the end.
    ``state.shell`` may also be an integer array; the result is then one
    log Z per entry, all read off one compensated prefix sum of the pair
    terms ln(c^2 + 4 tan^2(pi n / N)), n = 1 .. max shell.
    """
    if state.A_eff <= 0:
        raise ValueError("remaining Gaussian log Z needs A_eff > 0")
    N = state.grid.N
    c = state.grid.beta * state.A_eff / N
    shell = np.asarray(state.shell)
    n = np.arange(1, int(shell.max(initial=0)) + 1)
    half_tan = np.tan(np.pi * n / N)
    pair_logs = np.log(c * c + 4.0 * half_tan * half_tan)
    prefix = np.concatenate(([0.0], _compensated_cumsum(pair_logs)))  # prefix[s] = sum over n <= s
    remaining = state.modes * (state.grid.beta * state.A_eff / 2.0 - math.log(c) - prefix[shell])
    return float(remaining) if remaining.ndim == 0 else remaining


def run_flow(
    model: QuadraticModel,
    grid: MatsubaraGrid,
    b_floor: int,
    modes: int = 1,
) -> FlowResult:
    """Integrate out every shell from the top one down to ``b_floor + 1``.

    Same steps as iterating :func:`renorm_step`, done as array code over all
    shells at once: one tangent per shell, the per-step Berry and correction
    logs, and ``log_c`` after each step as the initial value plus a
    compensated prefix sum of the steps, so the accumulated rounding stays
    at a few ulps of log_c instead of growing with the number of shells.

    The accumulated correction beyond the floor inherits the 1/b tail of
    sum 1/shell^2, so it vanishes in the double limit 1 << b << B.
    """
    top = (grid.N - 1) // 2
    if not 0 <= b_floor < top:
        raise ValueError(f"need 0 <= b_floor < (N-1)/2 = {top}, got {b_floor}")
    start = initial_state(grid, model, modes)
    shells = np.arange(top, b_floor, -1)
    berry_log, correction_log = _shell_logs(start, shells)
    log_c_series = start.log_c + _compensated_cumsum(berry_log + correction_log)
    final = replace(start, log_c=float(log_c_series[-1]), shell=b_floor)
    return FlowResult(final, shells, np.abs(correction_log) / grid.beta, log_c_series)
