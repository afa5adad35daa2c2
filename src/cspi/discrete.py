"""Exact discrete path-integral constructions on the imaginary-time lattice.

The three actions share one body, :func:`_action`, and differ by one row of
its table ``_ACTIONS``: the slice shift of the Hamiltonian's plain variables
and the name its errors give.  The normal order couples adjacent slices
through H(z_l^dag, z_{l+1}) (shift 1); the anti-normal and symmetric orders
take equal-slice arguments (shift 0).  The symmetric order alone replaces
the kinetic difference with the tan(omega/2)-weighted frequency sum, and
exists only for odd N, where the underlying determinant 2^{1-N} is nonzero.
The Hamiltonian sum over the slices is :meth:`SymbolPoly.path_sum`, with
no per-slice symbol values.

The harmonic lattice Gaussians are closed forms, O(1) in N: factoring
z^N - 1 over the N-th roots of unity sums their frequency sums exactly (the
O(N) paired sums live on in the tests as the oracle).  Products live in the
log domain (2^{N-1} overflows doubles near N ~ 2100).  They depend on N and
c = beta A / N alone, and refuse a grid and a model that state different betas.

The shell walk lives here too: :func:`_shell_blocks` hands out the odd
lattice's shell tangents block by block, and :class:`_Sum2` sums over the
blocks compensated, for the frequency-shell flow and the prefactor alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Ordering, SymbolPoly
from .errors import EvenSliceCountError, ModeMismatchError, NumericalError, OrderingTagError
from .errors import SingularityError, _count, _finite, _inverse_temperature
from .fock import QuadraticModel


@dataclass(frozen=True)
class MatsubaraGrid:
    """Imaginary-time lattice: N slices over total length beta, step beta/N."""

    N: int
    beta: float

    def __post_init__(self):
        _count(self.N, "N", 1)
        _inverse_temperature(self.beta)

    @property
    def delta(self) -> float:
        return self.beta / self.N

    def require_odd(self, what: str) -> None:
        if self.N % 2 == 0:
            raise EvenSliceCountError(
                f"{what} needs odd N (the symmetric-order determinant vanishes "
                f"for even N); got N={self.N}"
            )


def _half_tan(n: np.ndarray, N: int) -> np.ndarray:
    """tan(pi n / N) for ascending integer shells 0 < n < N/2, to about an ulp up to the pole.

    Near pi/2 the rounding of the argument pi n / N is amplified by the
    pole, up to ~N eps / pi relative at the top shell.  Past N/4 the value
    is taken as 1 / tan(pi (N - 2n) / (2N)) instead, whose argument is small
    and carries only its own relative rounding.  The shells with 4n <= N
    are a prefix of ``n``, and each part is formed as one contiguous array.
    """
    split = int(np.searchsorted(n, N // 4, side="right"))
    if split == len(n):  # no shell past N/4, as at the prefactor's few shells
        return np.tan(np.pi * n / N)
    half_tan = np.empty(len(n))
    np.tan(np.pi * n[:split] / N, out=half_tan[:split])
    np.divide(1.0, np.tan(np.pi * (N - 2 * n[split:]) / (2 * N)), out=half_tan[split:])
    return half_tan


#: shells per block of the shell walk: a float64 block is 64 KB, so the
#: block's working arrays stay in a core's L2 cache
_SHELL_BLOCK = 8192


def _shell_blocks(N: int, first: int, last: int):
    """``(lo, tan(pi n / N))`` for each block of shells n = lo, lo + 1, ... in first .. last.

    The one loop over shell blocks: no caller holds more than a block of
    shells.  The tangents are elementwise, so where a block starts moves no bit.
    """
    for lo in range(first, last + 1, _SHELL_BLOCK):
        yield lo, _half_tan(np.arange(lo, min(lo + _SHELL_BLOCK, last + 1), dtype=float), N)


class _Sum2:
    """Compensated sums of a sequence fed one block at a time, by one of two feeds.

    The state between blocks is a running sum ``s`` and a running sum ``e``
    of the rounding errors; the total is ``s + e`` rounded once.  Feeding by
    :meth:`below` gives every prefix: ``np.cumsum`` adds left to right, and
    the cumsum of each addition's exact TwoSum error added back is Ogita,
    Rump & Oishi's Sum2 (SIAM J. Sci. Comput. 26, 2005) in prefix form, as
    if summed in twice the working precision and rounded once.  ``s`` heads
    the next block's cumsum and ``e`` is added to its first error, so the
    prefixes are the bits of one pass over the whole sequence.  Feeding by
    :meth:`add` keeps the total alone and makes no sequential scan.
    """

    def __init__(self) -> None:
        self.s = 0.0
        self.e = 0.0

    def below(self, x: np.ndarray) -> np.ndarray:
        """The compensated sums of everything fed before each entry of the block ``x``; feeds it.

        The sum before x[i] is the prefix through x[i-1], and before x[0] the
        last prefix of the blocks before: its running sum plus its carried
        error, rounded once.
        """
        running = np.empty(len(x) + 1)
        running[0] = self.s
        running[1:] = x
        running.cumsum(out=running)
        s, prev = running[1:], running[:-1]
        x_part = s - prev
        err = np.empty(len(x) + 1)  # e, then the TwoSum error of each addition
        err[0] = self.e
        add_err = err[1:]
        np.subtract(s, x_part, out=add_err)
        np.subtract(prev, add_err, out=add_err)
        np.subtract(x, x_part, out=x_part)
        add_err += x_part
        err.cumsum(out=err)
        self.s, self.e = running[-1], err[-1]
        return np.add(prev, err[:-1], out=x_part)

    def add(self, x: np.ndarray) -> None:
        """Feed the block ``x`` to the total alone; a nan or inf in it makes the total nan.

        ExtractVector (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008):
        against sigma = 2^k >= (n + 2) max|x| the high parts (sigma + x) -
        sigma are multiples of eps sigma (eps = 2^-53) with partial sums below
        sigma, so ``np.sum`` adds them exactly; only the sum of the n low
        parts, each at most eps sigma, rounds, by at most about 2 n^3 eps^2
        max|x|, the order of Sum2's (n eps)^2 sum|x|.  On one-signed blocks,
        as the shell walks feed it, both totals are the exact sum rounded
        once, save at ties, so where the blocks start changes no bit of them.
        """
        sigma = math.ldexp(1.0, math.frexp((len(x) + 2) * float(np.abs(x).max(initial=0.0)))[1])
        split = sigma + x
        split -= sigma  # the high parts
        high = float(split.sum())
        np.subtract(x, split, out=split)  # the low parts
        s = self.s + high  # TwoSum: s_high is the part of high that s holds
        s_high = s - self.s
        self.e += (self.s - (s - s_high)) + (high - s_high) + float(split.sum())
        self.s = s

    @property
    def total(self) -> float:
        """The sum of everything fed so far."""
        return float(self.s + self.e)


class DiscretePath:
    """Periodic complex path: N slices x M modes, in time or frequency form.

    Frequency rows follow DFT order: row ``n % N`` holds the signed
    frequency index n.  Periodicity (z_N = z_0) is implicit in all slice
    arithmetic via cyclic indexing.
    """

    def __init__(self, values, domain: str = "time"):
        if domain not in ("time", "frequency"):
            raise ValueError(f"domain must be 'time' or 'frequency', got {domain!r}")
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, np.newaxis]
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("path values must have shape (N,) or (N, M)")
        if not np.isfinite(values).all():
            raise ValueError("path values must be finite")
        self.values = values
        self.domain = domain

    @property
    def slices(self) -> int:
        return self.values.shape[0]

    @property
    def modes(self) -> int:
        return self.values.shape[1]


def _values(path: DiscretePath, domain: str) -> np.ndarray:
    """``path``'s values in ``domain``: its own, or their unitary transform."""
    if path.domain == domain:
        return path.values
    if domain == "frequency":
        return np.fft.fft(path.values, axis=0, norm="ortho")
    return np.fft.ifft(path.values, axis=0, norm="ortho")


def _transformed(path: DiscretePath, domain: str, what: str) -> DiscretePath:
    """``path`` in ``domain``; a transform that overflows is a :class:`NumericalError`."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        values = _values(path, domain)
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} of the path is not finite")
    return DiscretePath(values, domain)


def dft(path: DiscretePath) -> DiscretePath:
    """Unitary transform to frequency amplitudes: z_l = N^{-1/2} sum z_w e^{iwl}."""
    if path.domain != "time":
        raise ValueError("dft expects a time-domain path")
    return _transformed(path, "frequency", "dft")


def idft(path: DiscretePath) -> DiscretePath:
    """Inverse of :func:`dft`; round trip is the identity to unitary precision."""
    if path.domain != "frequency":
        raise ValueError("idft expects a frequency-domain path")
    return _transformed(path, "time", "idft")


#: each ordering's action: the slice shift s of the Hamiltonian's plain
#: variables, H(z_l^dag, z_{l+s}), and the name its errors give
_ACTIONS = {
    Ordering.NORMAL: (1, "normal-order action"),
    Ordering.ANTINORMAL: (0, "anti-normal-order action"),
    Ordering.WEYL: (0, "symmetric-order action"),
}


def _action(path: DiscretePath, H: SymbolPoly, grid: MatsubaraGrid, ordering: Ordering) -> complex:
    """-(kinetic + Delta sum_l H(z_l^dag, z_{l+s})), with the shift s of ``_ACTIONS``.

    The kinetic term is sum_l z_l^dag (z_l - z_{l+1}), or for the symmetric
    order -2i sum_w |z_w|^2 tan(w/2) over the frequency amplitudes.
    """
    if ordering is Ordering.WEYL:
        grid.require_odd("the symmetric-order action")
    if H.ordering is not ordering:
        raise OrderingTagError(
            f"action for {ordering.value} order got a symbol tagged "
            f"{H.ordering.value}; the slice coupling differs between "
            "orderings, so mixing them silently would be wrong"
        )
    if path.modes != H.modes:
        raise ModeMismatchError(f"path has {path.modes} modes, symbol has {H.modes}")
    if path.slices != grid.N:
        raise ValueError(f"path has {path.slices} slices, grid expects {grid.N}")
    shift, what = _ACTIONS[ordering]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        z = _values(path, "time")
        if ordering is Ordering.WEYL:
            # tan(w/2) = tan(pi n / N) for the signed index n of each DFT row.  np.tan,
            # not _half_tan: near the pole the two differ by up to 5e-12 relative at
            # N = 100003, which would move the Berry sum off the benchmark oracle's np.tan
            n = np.arange(grid.N)
            n[(grid.N + 1) // 2 :] -= grid.N
            power = np.abs(_values(path, "frequency")) ** 2
            kinetic = -2j * np.sum(power * np.tan(np.pi * n / grid.N)[:, np.newaxis])
        else:
            kinetic = np.sum(np.conj(z) * (z - np.roll(z, -1, axis=0)))
        value = complex(-(kinetic + grid.delta * H.path_sum(z, shift)))
    return _finite(value, what)


def action_normal(path: DiscretePath, H: SymbolPoly, grid: MatsubaraGrid) -> complex:
    """- sum_l [ z_l^dag (z_l - z_{l+1}) + Delta H(z_l^dag, z_{l+1}) ].

    The Hamiltonian takes cross-slice arguments: conjugates from slice l,
    plain variables from slice l+1.
    """
    return _action(path, H, grid, Ordering.NORMAL)


def action_antinormal(path: DiscretePath, h: SymbolPoly, grid: MatsubaraGrid) -> complex:
    """- sum_l [ z_l^dag (z_l - z_{l+1}) + Delta h(z_l^dag, z_l) ];  equal-slice h."""
    return _action(path, h, grid, Ordering.ANTINORMAL)


def action_weyl(path: DiscretePath, HW: SymbolPoly, grid: MatsubaraGrid) -> complex:
    """2i sum_w z_w^dag z_w tan(w/2) - sum_l Delta HW(z_l^dag, z_l);  odd N only."""
    return _action(path, HW, grid, Ordering.WEYL)


@dataclass(frozen=True)
class BerryDeterminant:
    """prod_w (1 + e^{iw})/2 per mode, in log form; zero is flagged, not -inf."""

    log_value: float | None
    is_zero: bool


def berry_determinant_log(N: int, modes: int = 1) -> BerryDeterminant:
    """Closed form of the kinetic determinant factor: (2^{1-N})^M, odd N only.

    Follows from factoring z^N - 1 over the N-th roots of unity at z = -1;
    even N contains omega = pi, whose factor vanishes and kills the
    symmetric-order construction.
    """
    N, modes = _count(N, "N", 1), _count(modes, "modes", 1)
    if N % 2 == 0:
        return BerryDeterminant(None, True)
    return BerryDeterminant((1 - N) * modes * math.log(2.0), False)


def _lattice_c(grid: MatsubaraGrid, model: QuadraticModel) -> float:
    """c = beta A / N; a grid and a model that state different betas are refused."""
    if grid.beta != model.beta:
        raise ValueError(f"grid beta {grid.beta} differs from model beta {model.beta}")
    return grid.beta * model.A / grid.N


def normal_discrete_dFdA(grid: MatsubaraGrid, model: QuadraticModel) -> float:
    """dF/dA of the exact normal-order lattice Gaussian, any N >= 1.

    (1/N) sum_w 1 / (e^{-iw} - q), q = 1 - beta A / N, runs over the N-th
    roots of unity, so it equals q^{N-1} / (1 - q^N).  Powers of q in (0, 1)
    go through log1p/expm1; |q| > 1 uses 1 / (q^{1-N} - q), which cannot
    overflow.  Besides A = 0, q = -1 at even N (omega = pi) is a pole.
    Converges to the exact value like 1/N.
    """
    if model.A == 0:
        raise SingularityError("normal-order dF/dA has a pole at A = 0")
    N = grid.N
    c = _lattice_c(grid, model)
    q = 1.0 - c
    if 0 < c < 1:
        log_q = math.log1p(-c)
        value = math.exp((N - 1) * log_q) / -math.expm1(N * log_q)
    elif c < 0:  # q^{1-N} - q = q (q^{-N} - 1)
        value = 1.0 / (q * math.expm1(-N * math.log1p(-c)))
    elif q >= -1:
        if q**N == 1:
            raise SingularityError(f"the omega = pi denominator vanishes at beta*A/N = {c}")
        value = q ** (N - 1) / (1.0 - q**N)
    else:
        value = 1.0 / (q ** (1 - N) - q)
    return _finite(value, "normal-order dF/dA")


def _weyl_powers(c: float, N: int) -> tuple[float, float]:
    """r^{N-1} and 1 - r^N for r = (2 - c)/(2 + c), c >= 0; via log1p/expm1 below c = 2."""
    if c < 2:
        log_r = math.log1p(-c / 2.0) - math.log1p(c / 2.0)
        return math.exp((N - 1) * log_r), -math.expm1(N * log_r)
    r = (2.0 - c) / (2.0 + c)
    return r ** (N - 1), 1.0 - r**N


def weyl_discrete_dFdA(grid: MatsubaraGrid, model: QuadraticModel) -> float:
    """dF/dA of the symmetric-order lattice Gaussian (A-derivative of logZ).

    -1/2 + (1/N) sum_w 1 / (c - 2i tan(w/2)), c = beta A / N, which is
    -c / (2 (2 + c)) + 4 r^{N-1} / ((2 + c)^2 (1 - r^N)); the first term is
    written so, because -1/2 + 1/(2 + c) cancels.  The sum is odd in c (the
    tangents come in +- pairs), which gives A < 0.  Same N -> infinity limit
    as the exact derivative.
    """
    grid.require_odd("the symmetric-order lattice dF/dA")
    if model.A == 0:
        raise SingularityError("symmetric-order dF/dA has a pole at A = 0")
    N = grid.N
    c = _lattice_c(grid, model)
    s = abs(c)
    r_prev, one_minus_r_N = _weyl_powers(s, N)
    tail = 4.0 * r_prev / ((2.0 + s) ** 2 * one_minus_r_N)
    if c > 0:
        value = -c / (2.0 * (2.0 + c)) + tail
    else:  # -(1/(2 + s) + tail) - 1/2
        value = -(4.0 + s) / (2.0 * (2.0 + s)) - tail
    return _finite(value, "symmetric-order dF/dA")


def _weyl_gaussian_excess(c: float) -> float:
    """y - ln(1 + y) for y = c/2 >= 0, without the cancellation of the difference.

    With u = c/(4 + c), ln(1 + y) = 2 atanh(u) and y = 2u/(1 - u), so the
    difference is 2 sum_{k>=2} a_k u^k, a_k = 1 for even k and 1 - 1/k for
    odd k: positive terms, summed in pairs until they stop counting.  From
    c = 2 (u = 1/3) on the plain difference loses at most two bits; a NaN
    takes that branch too, so the loop always ends.
    """
    if not c < 2:
        return c / 2.0 - math.log1p(c / 2.0)
    u = c / (4.0 + c)
    u2 = u * u
    total, power, j = 0.0, u2, 1
    while True:  # u^(2j) (1 + 2j u / (2j + 1))
        pair = power * (1.0 + 2 * j * u / (2 * j + 1))
        if total + pair == total:
            return 2.0 * total
        total += pair
        power *= u2
        j += 1


def weyl_discrete_logZ_quadratic(grid: MatsubaraGrid, model: QuadraticModel) -> float:
    """log of the symmetric-order lattice partition function, harmonic model.

    With HW = A zbar z - A/2 the integral is Gaussian per frequency,
    logZ_N = (N-1) ln 2 + beta A / 2 - sum_w ln(c - 2i tan(w/2)), c = beta A / N.
    With u = e^{iw} and r = (2 - c)/(2 + c) each factor is
    (2 + c)(1 - r u)/(1 + u), and over the N-th roots of unity
    prod (1 - r u) = 1 - r^N and prod (1 + u) = 2 (odd N), so
    logZ_N = beta A / 2 - N ln(1 + c/2) - ln(1 - r^N).  Converges to
    -ln(1 - e^{-beta A}).

    beta A / 2 - N ln(1 + c/2) = N (y - ln(1 + y)), y = c/2, is taken from
    a series with positive terms, since the two sides of the difference are
    each about beta A / 2 while it is about beta A c / 8.  ln(1 - r^N) is
    log1p(-r^N) while r^N < 1/2 and ln(-expm1(N ln r)) above.
    """
    grid.require_odd("the symmetric-order lattice partition function")
    if model.A <= 0:
        raise SingularityError(
            "the frequency-domain Gaussian needs A > 0 (omega = 0 diverges otherwise)"
        )
    N = grid.N
    c = _lattice_c(grid, model)
    if c < 2:
        N_log_r = N * (math.log1p(-c / 2.0) - math.log1p(c / 2.0))
        r_N = math.exp(N_log_r)
        log_tail = math.log1p(-r_N) if r_N < 0.5 else math.log(-math.expm1(N_log_r))
    else:  # r <= 0, so r^N <= 0 at odd N
        log_tail = math.log1p(-(((2.0 - c) / (2.0 + c)) ** N))
    value = N * _weyl_gaussian_excess(c) - log_tail
    return _finite(value, "symmetric-order log Z")
