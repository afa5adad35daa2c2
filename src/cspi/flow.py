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
them all at once as arrays over the shells, from one table of the shells'
tangents.  log c after each step is a prefix sum of the step terms, and the
remaining shells' log Z is read off a prefix sum of the pair terms of the
same table.  Both prefix sums are compensated (the exact rounding error of
every addition is summed alongside), because a plain float sum over 10^5
or more shells drifts past the 1e-9 conservation gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import MatsubaraGrid, weyl_discrete_logZ_quadratic
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

    The accumulated correction beyond the floor inherits the 1/b tail of
    sum 1/shell^2, so it vanishes in the double limit 1 << b << B.
    """
    grid.require_odd("the frequency-shell flow")
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    N = grid.N
    top = (N - 1) // 2
    if not 0 <= b_floor < top:
        raise ValueError(f"need 0 <= b_floor < (N-1)/2 = {top}, got {b_floor}")
    c = grid.beta * model.A / N
    shells = np.arange(top, 0, -1)  # the flow's order; steps visit the first top - b_floor
    half_tan = _half_tan(shells, N)
    with np.errstate(over="ignore"):  # an overflowing c^2 fails the step check below
        pair = (c - 2j * half_tan) * (c + 2j * half_tan)  # exact Gaussian pair integral
    # relative: numpy's complex product may round its two cross terms differently
    residue = (np.abs(pair.imag) / pair.real).max(initial=0.0)
    if not residue < 1e-12:
        raise NumericalError(f"conjugate pair products must be real, relative residue {residue}")

    tan_sq4 = 4.0 * half_tan * half_tan
    del half_tan, pair  # 24 bytes a shell that the prefix sums below do not need
    step_tan_sq4, shells = tan_sq4[: top - b_floor], shells[: top - b_floor]
    correction_log = -modes * np.log1p(c * c / step_tan_sq4)
    steps = -modes * np.log(step_tan_sq4) + correction_log  # Berry + correction
    if not np.isfinite(steps).all():
        raise NumericalError(f"flow step terms are not finite at beta A / N = {c:g}")
    log_c_series = (N - 1) * modes * math.log(2.0) + _compensated_cumsum(steps)
    if not math.isfinite(log_c_series[-1]):
        raise NumericalError(f"flow log c is not finite: {log_c_series[-1]}")

    residuals = None
    if model.A > 0:
        # pair terms summed from n = 1 up; after the step at shell s the
        # shells |n| <= s - 1 remain, and the constant beta A / 2 per mode
        # belongs to the Hamiltonian sum
        prefix = np.concatenate(([0.0], _compensated_cumsum(np.log(c * c + tan_sq4[::-1]))))
        remaining = modes * (grid.beta * model.A / 2.0 - math.log(c) - prefix[shells - 1])
        full = modes * weyl_discrete_logZ_quadratic(grid, model)
        residuals = np.abs(log_c_series + remaining - full)

    final = FlowState(float(log_c_series[-1]), model.A, b_floor, grid, modes)
    return FlowResult(final, shells, np.abs(correction_log) / grid.beta, log_c_series, residuals)
