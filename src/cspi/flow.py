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

Since the steps do not feed back into each other, the flow is one walk up
the shells, in the blocks of tangents that :mod:`cspi.discrete` hands out.
For odd N, prod_{k=1}^{B} tan(pi k / N) = sqrt(N) with B = (N - 1)/2, so the
Berry logs of all shells add up to (N - 1) ln 2 + ln N and log c after the
step at shell s is

    M [sum_{k<s} ln(4 tan^2_k) - ln N]  -  M sum_{k>=s} log1p(c^2 / 4 tan^2_k),

with c = beta A / N: an ascending prefix of the Berry logs, less a suffix of
the corrections, and never a difference of two numbers of size N ln 2.  Both
sums are compensated, because a plain float sum over 10^5 or more shells
drifts past the 1e-9 conservation gate.  The Berry prefix carries its state
from block to block, so it comes out bit for bit as over the whole array; of
the corrections the walk keeps only the total, known after the last block.

The remaining shells' log Z is a prefix of the pair logs ln(c^2 + 4 tan^2),
so the conservation residual is a prefix of the per-shell defect
ln(4 tan^2) - ln(c^2 + 4 tan^2) + log1p(c^2 / 4 tan^2), zero in exact
arithmetic and a few ulps of the logs in floats: a plain running sum of it
rounds at its own scale, never at N ln 2.  Below the floor, with no
correction, the defect is of size c^2 / 4 tan^2 and is summed compensated.
:func:`_walk` is the one walk, below the floor and then through the steps:
:func:`run_flow` keeps every step and so holds O(N) arrays, and ``cspi
flow`` keeps the fit window's corrections, in a few blocks at any N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import MatsubaraGrid, _lattice_c, _shell_blocks, _Sum2, weyl_discrete_logZ_quadratic
from .errors import NumericalError, _count, _finite, _within_budget
from .fock import QuadraticModel


@dataclass(frozen=True)
class FlowResult:
    shells: np.ndarray       # descending shell index, one entry per step
    corrections: np.ndarray  # Hamiltonian-level correction per step
    log_c_series: np.ndarray  # log_c after each step
    # |log_c + remaining-shell Gaussian log Z - full lattice log Z| after each
    # step; None for A <= 0, where the zero mode makes the lattice log Z diverge
    conservation_residuals: np.ndarray | None


def _flow_inputs(model: QuadraticModel, grid: MatsubaraGrid, b_floor, modes) -> tuple[int, int]:
    """``b_floor`` and ``modes`` checked for a flow of ``model`` on ``grid``."""
    if grid.N < 3:  # below N = 3 no shell lies above the floor 0
        raise ValueError(f"the flow needs N >= 3, one shell above the floor; got N={grid.N}")
    grid.require_odd("the frequency-shell flow")
    modes = _count(modes, "modes", 1)
    b_floor = _count(b_floor, "b_floor", 0, (grid.N - 1) // 2 - 1)
    _lattice_c(grid, model)  # refuses a grid and a model whose betas differ
    return b_floor, modes


def _walk(model: QuadraticModel, grid: MatsubaraGrid, b_floor: int, modes: int, keep):
    """Walk the shells upward once, in blocks; hand each block of steps to ``keep``.

    The inputs come checked by :func:`_flow_inputs`; a c^2 that is not finite
    is refused before any block.  The shells below the floor feed the Berry
    sum by ``below`` and the defect total by ``add``.  Then each block of
    steps, shells ``first, first + 1, ...``, goes to ``keep(first,
    correction_log, berry, berry_log, defect_below)``: the steps' log1p(c^2 /
    4 tan^2) and Berry logs, the :class:`_Sum2` ``berry`` of the Berry logs
    below ``first``, which ``keep`` may feed ``berry_log`` to by ``below``,
    and the defect sums from the floor to each step.  The corrections go to
    ``add``, so a block's one prefix scan is the defect's.  Returns
    ``(log_c_shift, residual, final_log_c, max_residual)``: log c after a
    step is M [Berry sum - ln N + correction sum below it] less
    ``log_c_shift``; ``residual`` turns defect sums into conservation
    residuals in place (it and ``max_residual`` are ``None`` for A <= 0,
    where the defect stands for no residual).  Rounding is monotone, so the
    defect sums' extremes give the largest residual.  The correction total
    comes from the steps, never from the closed-form log Z.
    """
    c = _lattice_c(grid, model)
    c_sq = c * c
    if not math.isfinite(c_sq):  # refused before the floor's sums would take inf - inf
        raise NumericalError(f"flow step terms are not finite at beta A / N = {c:g}")
    conserved = model.A > 0  # else the zero mode makes the lattice log Z diverge
    log_N = math.log(grid.N)
    # the shells |n| < s left after the step at s have log Z = beta A / 2 - ln c less their pair
    # logs (beta A / 2 per mode belongs to the Hamiltonian sum), and log c brings -ln N
    remaining_const = grid.beta * model.A / 2.0 - math.log(c) - log_N if conserved else 0.0
    berry_sum, correction_sum, floor_defect = _Sum2(), _Sum2(), _Sum2()
    for _, half_tan in _shell_blocks(grid.N, 1, b_floor):  # below the floor: no steps
        tan_sq4 = 4.0 * half_tan * half_tan
        berry_log = np.log(tan_sq4)
        berry_sum.below(berry_log)
        floor_defect.add(berry_log - np.log(c_sq + tan_sq4))
    floor_log_c = (berry_sum.total - log_N) * modes

    defect_carry, defect_lo, defect_hi = 0.0, math.inf, -math.inf
    for first, half_tan in _shell_blocks(grid.N, b_floor + 1, (grid.N - 1) // 2):
        tan_sq4 = 4.0 * half_tan * half_tan
        berry_log = np.log(tan_sq4)
        correction_log = np.log1p(c_sq / tan_sq4)
        if not (np.isfinite(berry_log).all() and np.isfinite(correction_log).all()):
            raise NumericalError(f"flow step terms are not finite at beta A / N = {c:g}")
        defect = berry_log - np.log(c_sq + tan_sq4) + correction_log
        # the defect sum below each step, then the carry into the next block
        defect_below = np.concatenate(([defect_carry], defect)).cumsum()
        defect_below, defect_carry = defect_below[:-1], defect_below[-1]
        defect_lo = min(defect_lo, defect_below.min())
        defect_hi = max(defect_hi, defect_below.max())
        correction_sum.add(correction_log)
        keep(first, correction_log, berry_sum, berry_log, defect_below)

    log_c_shift = modes * correction_sum.total
    final_log_c = _finite(floor_log_c - log_c_shift, "flow log c")
    if not conserved:
        return log_c_shift, None, final_log_c, None
    residual_shift = log_c_shift + modes * weyl_discrete_logZ_quadratic(grid, model)

    def residual(defect_below: np.ndarray) -> np.ndarray:
        defect_below += floor_defect.total
        defect_below += remaining_const
        defect_below *= modes
        defect_below -= residual_shift
        return np.abs(defect_below, out=defect_below)

    max_residual = float(residual(np.array([defect_lo, defect_hi])).max())
    return log_c_shift, residual, final_log_c, max_residual


def run_flow(
    model: QuadraticModel,
    grid: MatsubaraGrid,
    b_floor: int,
    modes: int = 1,
) -> FlowResult:
    """Integrate out every shell from the top one down to ``b_floor + 1``.

    ``log_c`` after each step comes from two compensated sums, an ascending
    prefix of the Berry logs and a suffix of the corrections, so its rounding
    stays at a few ulps of log_c instead of growing with the number of
    shells.  The conservation residual after each step, log c plus the
    remaining shells' Gaussian log Z less the closed-form lattice log Z, is a
    running sum of the per-shell defect.  Log c after the last step is
    ``log_c_series[-1]``; the quadratic coefficient does not flow.

    :func:`_walk` goes up the shells once, in the blocks of
    :func:`~cspi.discrete._shell_blocks`, and its steps are written into the
    outputs, whose order is the flow's, top shell first; the shifts are then
    applied in place.  Outputs over :data:`~cspi.errors.BYTES_MAX` bytes
    are a ``ValueError`` before any is made.

    The accumulated correction beyond the floor inherits the 1/b tail of
    sum 1/shell^2, so it vanishes in the double limit 1 << b << B.
    """
    b_floor, modes = _flow_inputs(model, grid, b_floor, modes)
    top = (grid.N - 1) // 2
    steps = top - b_floor
    conserved = model.A > 0
    out_bytes = steps * 8 * (4 if conserved else 3)  # shells, corrections, log c, residuals
    _within_budget(out_bytes, f"the flow at N = {grid.N}")
    shells = np.arange(top, b_floor, -1)  # the flow's order
    corrections = np.empty(steps)
    log_c_series = np.empty(steps)
    residuals = np.empty(steps) if conserved else None
    log_N = math.log(grid.N)
    correction_sum = _Sum2()  # the correction prefixes, as the walk keeps only the total

    def keep(first, correction_log, berry, berry_log, defect_below):
        out = slice(top - first - len(berry_log) + 1, top - first + 1)  # shell s at top - s
        corrections[out] = (modes * correction_log / grid.beta)[::-1]
        log_c = berry.below(berry_log)
        log_c -= log_N
        log_c += correction_sum.below(correction_log)
        log_c *= modes
        log_c_series[out] = log_c[::-1]
        if conserved:
            residuals[out] = defect_below[::-1]

    log_c_shift, residual, _, _ = _walk(model, grid, b_floor, modes, keep)
    log_c_series -= log_c_shift
    if conserved:
        residual(residuals)
    return FlowResult(shells, corrections, log_c_series, residuals)
