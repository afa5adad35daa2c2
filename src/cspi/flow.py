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
them as arrays over blocks of shells, each block from its own table of the
shells' tangents.  log c after each step is a prefix sum of the step terms,
and the remaining shells' log Z is read off a prefix sum of the pair terms
of the same table.  Both prefix sums are compensated (the exact rounding
error of every addition is summed alongside), because a plain float sum
over 10^5 or more shells drifts past the 1e-9 conservation gate.  The
compensated sums carry their state from one block to the next, so they
come out bit for bit as over the whole array, while the working memory
stays a few blocks: only the returned arrays grow with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import MatsubaraGrid, _lattice_c, weyl_discrete_logZ_quadratic
from .errors import NumericalError, _count, _finite
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
    # |log_c + remaining-shell Gaussian log Z - full lattice log Z| after each
    # step; None for A <= 0, where the zero mode makes the lattice log Z diverge
    conservation_residuals: np.ndarray | None


def _half_tan(n: np.ndarray, N: int) -> np.ndarray:
    """tan(pi n / N) for integer shells 0 < n < N/2, to about an ulp up to the pole.

    Near pi/2 the rounding of the argument pi n / N is amplified by the
    pole, up to ~N eps / pi relative at the top shell.  Past N/4 the value
    is taken as 1 / tan(pi (N - 2n) / (2N)) instead, whose argument is small
    and carries only its own relative rounding.
    """
    low = 4 * n <= N
    half_tan = np.empty(n.shape)
    half_tan[low] = np.tan(np.pi * n[low] / N)
    half_tan[~low] = 1.0 / np.tan(np.pi * (N - 2 * n[~low]) / (2 * N))
    return half_tan


#: shells per block of the flow's passes: a float64 block is 64 KB, so the
#: block's working arrays stay in a core's L2 cache
_SHELL_BLOCK = 8192


class _Sum2:
    """Compensated prefix sums of a sequence fed one block at a time.

    ``np.cumsum`` adds left to right, so step i rounds ``s[i-1] + x[i]`` to
    ``s[i]``.  TwoSum recovers that rounding error exactly, and adding the
    prefix sums of the errors back is Ogita, Rump & Oishi's Sum2 (SIAM J.
    Sci. Comput. 26, 2005) in prefix form: every prefix comes out as if it
    were summed in twice the working precision and then rounded once.

    The state between blocks is the running sum ``s`` and the running sum
    ``e`` of the errors.  ``s`` heads the next block's cumsum and ``e`` is
    added to its first error, so each addition sees the same two floats as
    in one pass over the whole sequence, and the prefixes are the same bits.
    """

    def __init__(self) -> None:
        self.s = 0.0
        self.e = 0.0

    def prefix(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write the prefix sums through the block ``x`` into ``out``, which may be ``x``."""
        running = np.empty(len(x) + 1)
        running[0] = self.s
        running[1:] = x
        np.cumsum(running, out=running)
        s, prev = running[1:], running[:-1]
        x_part = s - prev
        err = prev - (s - x_part)
        err += x - x_part
        err[0] += self.e
        np.cumsum(err, out=err)
        self.s, self.e = running[-1], err[-1]
        np.add(s, err, out=out)


def run_flow(
    model: QuadraticModel,
    grid: MatsubaraGrid,
    b_floor: int,
    modes: int = 1,
) -> FlowResult:
    """Integrate out every shell from the top one down to ``b_floor + 1``.

    The flow starts at log c = (N-1) M ln 2 with every shell present.  One
    tangent per shell gives the per-step Berry and correction logs, and
    ``log_c`` after each step is the start value plus a compensated prefix
    sum of the steps, so the accumulated rounding stays at a few ulps of
    log_c instead of growing with the number of shells.  The same tangents
    give the remaining shells' Gaussian log Z after each step, and with it
    the conservation residual against the closed-form lattice log Z.

    Two passes over blocks of :data:`_SHELL_BLOCK` shells do the work.  The
    first walks the shells upwards: it writes each step's term, correction
    and remaining-shell log Z into the outputs, whose order is the flow's,
    top shell first.  The second walks the steps in flow order, summing
    them into log c and forming the residuals in place.

    The accumulated correction beyond the floor inherits the 1/b tail of
    sum 1/shell^2, so it vanishes in the double limit 1 << b << B.
    """
    grid.require_odd("the frequency-shell flow")
    modes = _count(modes, "modes", 1)
    N = grid.N
    top = (N - 1) // 2
    b_floor = _count(b_floor, "b_floor", 0, top - 1)
    c = _lattice_c(grid, model)
    conserved = model.A > 0  # else the zero mode makes the lattice log Z diverge
    steps = top - b_floor
    shells = np.arange(top, b_floor, -1)  # the flow's order
    corrections = np.empty(steps)
    log_c_series = np.empty(steps)  # each step's term until the second pass
    # remaining-shell log Z until the second pass turns it into the residual
    residuals = np.empty(steps) if conserved else None
    if conserved:
        # after the step at shell s the shells |n| <= s - 1 remain; their pair
        # terms are summed from n = 1 up, and the constant beta A / 2 per mode
        # belongs to the Hamiltonian sum
        remaining_const = grid.beta * model.A / 2.0 - math.log(c)
        pair_sum, below = _Sum2(), 0.0  # below: the pair terms of the shells under the block

    residue = 0.0
    steps_finite = True
    for lo in range(1, top + 1, _SHELL_BLOCK):
        hi = min(lo + _SHELL_BLOCK, top + 1)
        half_tan = _half_tan(np.arange(lo, hi), N)
        with np.errstate(over="ignore"):  # an overflowing c^2 fails the step check below
            imag = 2j * half_tan
            pair = (c - imag) * (c + imag)  # exact Gaussian pair integral
        # relative: numpy's complex product may round its two cross terms differently
        residue = np.maximum(residue, (np.abs(pair.imag) / pair.real).max(initial=0.0))
        tan_sq4 = 4.0 * half_tan * half_tan

        first = max(lo, b_floor + 1)  # the block's lowest shell that is a step
        # the block's steps, shells first..hi-1, sit at top-first..top-hi+1 of the outputs
        out = slice(top - first, top - hi if top - hi >= 0 else None, -1)
        if conserved:
            pair_prefix = np.empty(hi - lo + 1)  # below, then through each shell
            pair_prefix[0] = below
            with np.errstate(invalid="ignore"):  # non-finite terms fail the step check
                pair_sum.prefix(np.log(c * c + tan_sq4), pair_prefix[1:])
            below = pair_prefix[-1]
            remaining = residuals[out]
            np.subtract(remaining_const, pair_prefix[first - lo : hi - lo], out=remaining)
            remaining *= modes
        step_tan_sq4 = tan_sq4[first - lo :]
        correction_log = -modes * np.log1p(c * c / step_tan_sq4)
        step = log_c_series[out]
        np.multiply(-modes, np.log(step_tan_sq4), out=step)
        step += correction_log  # Berry + correction
        steps_finite = steps_finite and bool(np.isfinite(step).all())
        np.divide(np.abs(correction_log), grid.beta, out=corrections[out])

    if not residue < 1e-12:
        raise NumericalError(f"conjugate pair products must be real, relative residue {residue}")
    if not steps_finite:
        raise NumericalError(f"flow step terms are not finite at beta A / N = {c:g}")

    log_c_sum = _Sum2()
    start = (N - 1) * modes * math.log(2.0)
    full = modes * weyl_discrete_logZ_quadratic(grid, model) if conserved else None
    for lo in range(0, steps, _SHELL_BLOCK):
        block = slice(lo, lo + _SHELL_BLOCK)
        log_c = log_c_series[block]
        log_c_sum.prefix(log_c, log_c)
        np.add(start, log_c, out=log_c)
        if conserved:
            residual = residuals[block]
            residual += log_c
            residual -= full
            np.abs(residual, out=residual)
    final_log_c = _finite(float(log_c_series[-1]), "flow log c")

    final = FlowState(final_log_c, model.A, b_floor, grid, modes)
    return FlowResult(final, shells, corrections, log_c_series, residuals)
