"""Continuum-limit machinery: sharp-cutoff Matsubara sums and the
normalization prefactor of the cutoff functional integral.

The cutoff is a hard symmetric window |l| <= b on the index of the continuum
frequency omega_l = 2 pi l / beta (smooth windows would change the high-frequency
bookkeeping these sums are about); the window is the bare count b, and beta
is the model's, so a sum depends on b and beta A alone.  The normal-order
cutoff series lands on (1/2) coth(beta A / 2) -- off by the constant the
exact answer subtracts -- while the Weyl shift of -1/2 makes it exact; the
difference between orderings is b-independent.  The cutoff sum is one
closed form at every b, a difference of the imaginary parts of two digamma
values (DLMF 5.5.2, 5.11.2), so neither its cost nor its memory grows with
b.  The prefactor's O(b) shell sum walks the shell blocks of
:mod:`cspi.discrete`, which the flow walks too.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import KAPPA, Ordering
from .discrete import MatsubaraGrid, _shell_blocks, _Sum2
from .errors import SingularityError
from .errors import _count, _finite, _inverse_temperature
from .fock import QuadraticModel


#: B_2k / 2k, k = 8 .. 1, highest first for Horner: the asymptotic series of
#: digamma (DLMF 5.11.2), to well below an ulp from |z| = 10 on
_PSI_SERIES = (-3617 / 8160, 1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)


def _psi_series(K: int, a: float) -> float:
    """Im[1/(2z) + sum_k B_2k / (2k z^2k)] at z = K + i a: arg z less Im psi(z) (DLMF 5.11.2)."""
    inv = 1.0 / complex(K, a)
    w = inv * inv
    series = 0.0
    for coeff in _PSI_SERIES:
        series = series * w + coeff
    return (0.5 * inv + series * w).imag


def cutoff_dFdA(model: QuadraticModel, b: int, ordering: Ordering) -> float:
    """Re sum_{|l|<=b} 1/(i beta omega_l + beta A) plus the ordering's kappa.

    With x = beta A and a = |x| / 2 pi the sum is odd in x and equals

        sign(x) [1/|x| + P / pi],  P = a sum_{l=1}^{b} 1/(l^2 + a^2)
                                     = Im[psi(1 + i a) - psi(b + 1 + i a)],

    in O(1) operations at every b.  The recurrence psi(z) = psi(z + 1) - 1/z
    (DLMF 5.5.2) adds the terms a/(k^2 + a^2) for k < K = min(b + 1, 10).
    The rest is arg(K + i a) - arg(b + 1 + i a), one atan2 of a (b + 1 - K)
    over K (b + 1) + a^2, less the difference of the two DLMF 5.11.2 series,
    which both start at |z| >= 10 or else cancel exactly (K = b + 1).  Every
    a^2 is scaled by max(a, 1), so it cannot overflow, and ``math.fsum``
    adds the pieces of P with one rounding.  Both summands are positive, so
    nothing cancels.  As b grows, P / pi approaches (1/2) coth(x/2) - 1/x
    like 1/b, so the normal-order value approaches (1/2) coth(x/2) and the
    Weyl value the exact derivative.
    """
    b = _count(b, "b", 0)
    bA = model.beta * model.A
    if bA == 0:
        raise SingularityError("cutoff dF/dA has a pole at beta A = 0")
    a = abs(bA) / (2.0 * math.pi)
    scale = max(a, 1.0)
    a_s, a2_s = a / scale, a * (a / scale)
    K = min(b + 1, 10)
    head = [a_s / (k * k / scale + a2_s) for k in range(1, K)]
    arg_gap = math.atan2(a_s * (b + 1 - K), K * (b + 1) / scale + a2_s)
    P = math.fsum((*head, arg_gap, _psi_series(b + 1, a), -_psi_series(K, a)))
    total = math.copysign(1.0 / abs(bA) + P / math.pi, bA)
    return _finite(total, "cutoff sum") + KAPPA[ordering]


def prefactor_log_closed(b: int, beta: float, modes: int = 1) -> float:
    """log of the closed-form prefactor [beta^-(2b+1) (2 pi)^(2b) (b!)^2]^M."""
    b, modes = _count(b, "b", 0), _count(modes, "modes", 1)
    _inverse_temperature(beta)
    return modes * (
        -(2 * b + 1) * math.log(beta)
        + 2 * b * math.log(2.0 * math.pi)
        + 2.0 * math.lgamma(b + 1)
    )


def prefactor_log_empirical(N: int, b: int, beta: float, modes: int = 1) -> float:
    """log of (N/beta)^{(2b+1)M} times the lattice shell product for c_{B,b}.

    c_{B,b} = 2^{(N-1)M} prod_{B'=b+1}^{B} (4 tan^2(pi B'/N))^{-M} with
    B = (N-1)/2.  Approaches the closed form in the regime 1 << b << B with
    b^3 << B^2.

    For odd N, prod_{k=1}^{B} tan(pi k/N) = sqrt(N), so the log shell
    product over b < k <= B is 2(B-b) ln 2 + ln N - sum_{k<=b} ln tan^2(pi k/N).
    Substituting it leaves the O(b) sum

        M [ sum_{k=1}^{b} 2 ln(2 N tan(pi k/N)) - (2b+1) ln beta ],

    whose terms approach ln((2 pi k)^2), those of the closed form, and which
    never subtracts the two numbers of size N ln 2 the O(N) product does.
    The shells come from :mod:`cspi.discrete`'s shell walk, one block at a
    time, into the total feed of a compensated sum, so the memory stays one
    block at any b.
    """
    MatsubaraGrid(N, beta).require_odd("the lattice shell product")
    modes = _count(modes, "modes", 1)
    b = _count(b, "b", 0, (N - 1) // 2)
    shell_sum = _Sum2()
    for _, half_tan in _shell_blocks(N, 1, b):
        shell_sum.add(2.0 * np.log(2 * N * half_tan))
    return modes * (shell_sum.total - (2 * b + 1) * math.log(beta))
