"""Continuum-limit machinery: sharp-cutoff Matsubara sums and the
normalization prefactor of the cutoff functional integral.

The cutoff is a hard symmetric window |l| <= b on the continuum frequencies
omega_l = 2 pi l / beta (smooth windows would change the high-frequency
bookkeeping these sums are about); the window is the bare count b, and beta
is the model's, so a sum depends on b and beta A alone.  The normal-order
cutoff series lands on (1/2) coth(beta A / 2) -- off by the constant the
exact answer subtracts -- while the Weyl shift of -1/2 makes it exact; the
difference between orderings is b-independent.  The cutoff sum is evaluated
in closed form, as that limit minus its tail beyond b, which is the
imaginary part of the digamma function (DLMF 5.5.2, 5.11.2); its cost does
not grow with b.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import KAPPA, Ordering
from .errors import EvenSliceCountError, SingularityError
from .errors import _count, _finite, _inverse_temperature
from .fock import QuadraticModel


#: B_2k / 2k, k = 1 .. 8: the asymptotic series of digamma (DLMF 5.11.2)
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160)


def _im_psi(b: int, a: float) -> float:
    """Im psi(b + 1 + i a) for a >= 0, which is a * sum_{l>b} 1/(l^2 + a^2).

    The recurrence psi(z) = psi(z + 1) - 1/z (DLMF 5.5.2) adds the terms
    a/(K^2 + a^2) from K = b + 1 while |K + i a| < 20; the rest is
    arg z - Im[1/(2z) + sum_k B_2k / (2k z^2k)] at z = K + i a (DLMF 5.11.2).
    Every part is positive or alternates with terms shrinking by 1/|z|^2, so
    nothing cancels, down to a -> 0.
    """
    K, head = b + 1, 0.0
    while K * K + a * a < 400.0:
        head += a / (K * K + a * a)
        K += 1
    z = complex(K, a)
    w = 1.0 / (z * z)
    series = 0.0
    for coeff in reversed(_PSI_SERIES):
        series = series * w + coeff
    return head + math.atan2(a, K) - (0.5 / z + series * w).imag


def cutoff_dFdA(model: QuadraticModel, b: int, ordering: Ordering) -> float:
    """Re sum_{|l|<=b} 1/(i beta omega_l + beta A) plus the ordering's kappa.

    With x = beta A and a = |x| / 2 pi the sum is odd in x, and for x > 0

        (1/2) coth(x/2) - (x / 2 pi^2) sum_{l>b} 1/(l^2 + a^2)
            = (1/2) coth(x/2) - Im psi(b + 1 + i a) / pi,

    the b -> infinity limit minus its tail, in O(1) operations.  The tail
    falls off like 1/b, so the normal-order value approaches (1/2) coth(x/2)
    and the Weyl value approaches the exact derivative.  Below b = a the
    tail is close to (1/2) coth(x/2) and the difference loses digits, so
    there the sum is added directly, in fewer than a terms: each +-l pair is
    the real 2 / (x + (2 pi l)^2 / x), so that x^2 cannot overflow, from
    l = b down, then l = 0 adds 1/x.
    """
    b = _count(b, "b", 0)
    if model.A == 0:
        raise SingularityError("cutoff dF/dA has a pole at A = 0")
    bA = model.beta * model.A
    a = abs(bA) / (2.0 * math.pi)
    if b < a:
        ell = np.arange(b, 0, -1)
        total = float(np.sum(2.0 / (bA + (2.0 * np.pi * ell) ** 2 / bA))) + 1.0 / bA
    else:
        half = 0.5 * abs(bA)
        # |x| = 5e-324 halves to 0, where the sum (about 1/x) overflows anyway
        coth_half = 0.5 / math.tanh(half) if half else math.inf
        total = math.copysign(coth_half - _im_psi(b, a) / math.pi, bA)
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

        M [ sum_{k=1}^{b} ln(4 N^2 tan^2(pi k/N)) - (2b+1) ln beta ],

    whose terms approach ln((2 pi k)^2), those of the closed form, and which
    never subtracts the two numbers of size N ln 2 the O(N) product does.
    """
    if _count(N, "N", 1) % 2 == 0:
        raise EvenSliceCountError(f"shell product is defined for odd N, got {N}")
    _inverse_temperature(beta)
    modes = _count(modes, "modes", 1)
    b = _count(b, "b", 0, (N - 1) // 2)
    scaled_tan = N * np.tan(np.pi * np.arange(1, b + 1) / N)
    if not np.all(np.isfinite(scaled_tan)) or np.any(scaled_tan == 0.0):
        raise SingularityError("tangent pole in the shell product")
    shell_log = float(np.sum(np.log(4.0 * scaled_tan * scaled_tan)))
    return modes * (shell_log - (2 * b + 1) * math.log(beta))
