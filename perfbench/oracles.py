"""Reference values, computed without calling cspi.

* Lattice, cutoff, prefactor and flow quantities: mpmath closed forms, each
  cross-checked against a direct mpmath sum at small N (see the tests).
* Ordering symbols and symmetrized products: exact ``Fraction`` arithmetic
  on the generated Gaussian-rational coefficients.
* Fock matrices and partition functions: a vectorised builder over occupancy
  arrays plus ``numpy.linalg.eigvalsh``.
* Path actions: an evaluator with per-mode power tables, and the unitary
  transform as numpy's unnormalised FFT scaled by N^(-1/2).

All of this runs outside every timed region.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath
import numpy as np

mp = mpmath.mp
DPS = 40

#: largest number of correct digits reported; exact agreement maps here
MAX_DIGITS = 17.0


def rel_error(got, ref) -> float:
    ref = complex(ref)
    scale = abs(ref)
    return abs(complex(got) - ref) / scale if scale else abs(complex(got))


def digits(rel: float) -> float:
    return min(MAX_DIGITS, -math.log10(rel)) if rel > 0 else MAX_DIGITS


# ---------------------------------------------------------------------------
# lattice closed forms (mpmath)
# ---------------------------------------------------------------------------


def exact_dFdA(A, beta):
    with mp.workdps(DPS):
        return 1 / mpmath.expm1(mpmath.mpf(beta) * A)


def normal_dFdA(N, A, beta):
    """(1-c)^(N-1) / (1 - (1-c)^N), c = beta A / N."""
    with mp.workdps(DPS):
        q = 1 - mpmath.mpf(beta) * A / N
        return q ** (N - 1) / (1 - q**N)


def _weyl_parts(N, A, beta):
    c = mpmath.mpf(beta) * A / N
    return c, (2 - c) / (2 + c)


def weyl_logZ(N, A, beta):
    """beta A / 2 - N ln(1 + c/2) - ln(1 - r^N), r = (2 - c)/(2 + c)."""
    with mp.workdps(DPS):
        c, r = _weyl_parts(N, A, beta)
        return mpmath.mpf(beta) * A / 2 - N * mpmath.log1p(c / 2) - mpmath.log(1 - r**N)


def weyl_dFdA(N, A, beta):
    """-(1/beta) d(log Z)/dA of :func:`weyl_logZ`."""
    with mp.workdps(DPS):
        c, r = _weyl_parts(N, A, beta)
        return -mpmath.mpf(1) / 2 + 1 / (2 + c) + 4 * r ** (N - 1) / ((2 + c) ** 2 * (1 - r**N))


def cutoff_dFdA(b, A, beta, shift):
    """1/x + (x / 2 pi^2) sum_{l<=b} 1/(l^2 + y^2) + shift, x = beta A, y = x / 2 pi;
    the sum is [Im psi(1 + iy) - Im psi(b + 1 + iy)] / y."""
    with mp.workdps(DPS):
        x = mpmath.mpf(beta) * A
        y = x / (2 * mp.pi)
        s = (mpmath.im(mpmath.digamma(1 + 1j * y)) - mpmath.im(mpmath.digamma(b + 1 + 1j * y))) / y
        return 1 / x + x / (2 * mp.pi**2) * s + shift


def _log_tan_sq_sum(N, upto, c2=0):
    """sum_{k=1}^{upto} ln(c2 + 4 tan^2(pi k / N)), summed directly."""
    return mpmath.fsum(mpmath.log(c2 + 4 * mpmath.tan(mp.pi * k / N) ** 2) for k in range(1, upto + 1))


def _shell_log_sum(N):
    """sum_{k=1}^{(N-1)/2} ln(4 tan^2(pi k / N)) = (N-1) ln 2 + ln N, from
    prod_{k=1}^{(N-1)/2} tan(pi k / N) = sqrt(N)."""
    return (N - 1) * mpmath.log(2) + mpmath.log(N)


def prefactor_log_empirical(N, b, beta, modes=1):
    with mp.workdps(DPS):
        shells = _shell_log_sum(N) - _log_tan_sq_sum(N, b)
        return modes * ((2 * b + 1) * mpmath.log(mpmath.mpf(N) / beta) + (N - 1) * mpmath.log(2) - shells)


def prefactor_log_closed(b, beta, modes=1):
    with mp.workdps(DPS):
        return modes * (-(2 * b + 1) * mpmath.log(beta) + 2 * b * mpmath.log(2 * mp.pi) + 2 * mpmath.loggamma(b + 1))


def flow_final(N, A, beta, b_floor, modes=1):
    """(final log_c, accumulated correction) of the flow from shell (N-1)/2 down to b_floor + 1.

    The full pair sum comes from the closed-form Weyl log Z; only the b_floor
    lowest shells are summed directly.
    """
    with mp.workdps(DPS):
        c = mpmath.mpf(beta) * A / N
        pairs_all = (N - 1) * mpmath.log(2) + mpmath.mpf(beta) * A / 2 - mpmath.log(c) - weyl_logZ(N, A, beta)
        pairs = pairs_all - _log_tan_sq_sum(N, b_floor, c * c)
        free = _shell_log_sum(N) - _log_tan_sq_sum(N, b_floor)
        log_c = modes * ((N - 1) * mpmath.log(2) - pairs)
        return log_c, modes * (pairs - free) / beta


# direct O(N) sums, the cross-check for the closed forms at small N


def direct_normal_dFdA(N, A, beta):
    with mp.workdps(DPS):
        c = mpmath.mpf(beta) * A / N
        return mpmath.re(mpmath.fsum(1 / (N * (mpmath.expjpi(-2 * mpmath.mpf(n) / N) - 1 + c)) for n in range(N)))


def direct_weyl_logZ(N, A, beta):
    with mp.workdps(DPS):
        c = mpmath.mpf(beta) * A / N
        terms = [mpmath.log(c - 2j * mpmath.tan(mp.pi * n / N)) for n in range(-(N // 2), N // 2 + 1)]
        return mpmath.re((N - 1) * mpmath.log(2) + mpmath.mpf(beta) * A / 2 - mpmath.fsum(terms))


def direct_weyl_dFdA(N, A, beta):
    with mp.workdps(DPS):
        c = mpmath.mpf(beta) * A / N
        s = mpmath.fsum(1 / (N * (c - 2j * mpmath.tan(mp.pi * n / N))) for n in range(-(N // 2), N // 2 + 1))
        return mpmath.re(s) - mpmath.mpf(1) / 2


def direct_cutoff_dFdA(b, A, beta, shift):
    with mp.workdps(DPS):
        x = mpmath.mpf(beta) * A
        return mpmath.re(mpmath.fsum(1 / (2j * mp.pi * l + x) for l in range(-b, b + 1))) + shift


def direct_prefactor_log_empirical(N, b, beta, modes=1):
    with mp.workdps(DPS):
        shells = mpmath.fsum(mpmath.log(4 * mpmath.tan(mp.pi * k / N) ** 2) for k in range(b + 1, (N - 1) // 2 + 1))
        return modes * ((2 * b + 1) * mpmath.log(mpmath.mpf(N) / beta) + (N - 1) * mpmath.log(2) - shells)


def direct_flow_final(N, A, beta, b_floor, modes=1):
    with mp.workdps(DPS):
        c = mpmath.mpf(beta) * A / N
        log_c = (N - 1) * modes * mpmath.log(2)
        acc = 0
        for k in range((N - 1) // 2, b_floor, -1):
            t2 = 4 * mpmath.tan(mp.pi * k / N) ** 2
            log_c -= modes * mpmath.log(c * c + t2)
            acc += modes * mpmath.log1p(c * c / t2) / beta
        return log_c, acc


# ---------------------------------------------------------------------------
# exact ordering algebra (Fraction)
# ---------------------------------------------------------------------------

ZERO = (Fraction(0), Fraction(0))
KAPPA = {"normal": Fraction(0), "weyl": Fraction(-1, 2), "antinormal": Fraction(-1)}


def cross_derivative(terms: dict, kappa: Fraction) -> dict:
    """exp(kappa sum_i d/dzbar_i d/dz_i) on Gaussian-rational terms, exactly."""
    if kappa == 0:
        return dict(terms)
    out: dict = {}
    for key, (re_, im_) in terms.items():
        partial = [((), Fraction(1))]
        for p, q in key:
            partial = [
                (k + ((p - j, q - j),), w * kappa**j * math.comb(p, j) * math.comb(q, j) * math.factorial(j))
                for k, w in partial
                for j in range(min(p, q) + 1)
            ]
        for new_key, w in partial:
            old = out.get(new_key, ZERO)
            out[new_key] = (old[0] + w * re_, old[1] + w * im_)
    return {k: v for k, v in out.items() if v != ZERO}


def symbol(terms: dict, target: str) -> dict:
    return cross_derivative(terms, KAPPA[target])


def symmetrized_product(factors: list, modes: int) -> dict:
    """Normal form of the symmetrized product of ladder factors.

    The symmetrization of a ladder multiset is the Weyl quantization of the
    commuting monomial, so its normal symbol is exp(+1/2 d^2) of that
    monomial, times the product of the factor coefficients.
    """
    re_, im_ = Fraction(1), Fraction(0)
    counts = [[0, 0] for _ in range(modes)]
    for (cr, ci), mode, creation in factors:
        re_, im_ = re_ * cr - im_ * ci, re_ * ci + im_ * cr
        counts[mode][0 if creation else 1] += 1
    key = tuple((c, a) for c, a in counts)
    return cross_derivative({key: (re_, im_)}, Fraction(1, 2))


def as_complex(terms: dict) -> dict:
    return {k: complex(float(r), float(i)) for k, (r, i) in terms.items()}


def terms_rel_error(got: dict, ref: dict) -> float:
    """max |got - ref| over all keys, relative to max |ref|."""
    scale = max((abs(v) for v in ref.values()), default=0.0) or 1.0
    keys = got.keys() | ref.keys()
    return max((abs(got.get(k, 0) - ref.get(k, 0)) for k in keys), default=0.0) / scale


_TERM_SPLIT = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"(zbar|z|ad|a)_(\d+)(?:\^(\d+))?$")


def _parse_coeff(text: str) -> complex:
    if text.startswith("("):
        return complex(text[1:-1].replace("i", "j"))
    if text.endswith("i"):
        return complex(0.0, float(text[:-1]))
    return complex(float(text))


def parse_poly_text(text: str, modes: int) -> dict:
    """Read cspi's printed polynomial form (``format_symbol``/``format_operator``)."""
    if text == "0.0":
        return {}
    parts = _TERM_SPLIT.split(text)
    pieces = [(1, parts[0])] + [(1 if s == "+" else -1, p) for s, p in zip(parts[1::2], parts[2::2])]
    out: dict = {}
    for sign, piece in pieces:
        if piece.startswith("-") and _FACTOR.match(piece[1:].split("*")[0]):
            sign, piece = -sign, piece[1:]  # a leading "-monomial" means coefficient -1
        coeff = 1.0 + 0j
        exps = [[0, 0] for _ in range(modes)]
        for factor in piece.split("*"):
            m = _FACTOR.match(factor)
            if m is None:
                coeff = _parse_coeff(factor)
                continue
            exps[int(m.group(2))][0 if m.group(1) in ("zbar", "ad") else 1] += int(m.group(3) or 1)
        key = tuple((c, a) for c, a in exps)
        out[key] = out.get(key, 0) + sign * coeff
    return out


# ---------------------------------------------------------------------------
# Fock oracle
# ---------------------------------------------------------------------------


def fock_matrix(terms: dict, modes: int, n_max: int) -> np.ndarray:
    """<m|H|n> on the occupancy basis (last mode fastest), one numpy pass per term."""
    dim = (n_max + 1) ** modes
    occ = np.indices((n_max + 1,) * modes).reshape(modes, dim)
    lgam = np.array([math.lgamma(n + 1) for n in range(n_max + 1)])
    H = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    strides = (n_max + 1) ** np.arange(modes - 1, -1, -1)
    for key, coeff in terms.items():
        ok = np.ones(dim, dtype=bool)
        log_w = np.zeros(dim)
        row = np.zeros(dim, dtype=np.int64)
        for i, (c, a) in enumerate(key):
            n = occ[i]
            m = n - a + c
            ok &= (n >= a) & (m <= n_max)
            mm, base = np.clip(m, 0, n_max), np.clip(n - a, 0, n_max)
            # sqrt(n! / (n-a)!) from a^a, then sqrt(m! / (n-a)!) from ad^c
            log_w += 0.5 * (lgam[n] - lgam[base]) + 0.5 * (lgam[mm] - lgam[base])
            row += mm * strides[i]
        H[row[ok], cols[ok]] += coeff * np.exp(log_w[ok])
    return H


def norm_bound(terms: dict, n_max: int) -> float:
    """Upper bound on ||H|| for the occupancy cap: sum |c| prod (n_max + 1)^((c + a) / 2)."""
    return sum(abs(v) * (n_max + 1) ** (sum(c + a for c, a in k) / 2) for k, v in terms.items())


def partition_function(H: np.ndarray, beta: float) -> float:
    return float(np.sum(np.exp(-beta * np.linalg.eigvalsh(H))))


# ---------------------------------------------------------------------------
# path actions
# ---------------------------------------------------------------------------


def _powers(x: np.ndarray, degree: int) -> list:
    out = [np.ones_like(x)]
    for _ in range(degree):
        out.append(out[-1] * x)
    return out


def _evaluate(terms: dict, zb: np.ndarray, z: np.ndarray, block: int = 8192) -> np.ndarray:
    """Symbol values per slice from per-mode power tables, a block of slices at a time."""
    degree = max(max(max(c, a) for c, a in k) for k in terms)
    total = np.zeros(z.shape[0], dtype=complex)
    for lo in range(0, z.shape[0], block):
        powb = [_powers(zb[lo : lo + block, i], degree) for i in range(zb.shape[1])]
        powz = [_powers(z[lo : lo + block, i], degree) for i in range(z.shape[1])]
        for key, coeff in terms.items():
            term = np.full(powb[0][0].shape, coeff, dtype=complex)
            for i, (p, q) in enumerate(key):
                if p:
                    term *= powb[i][p]
                if q:
                    term *= powz[i][q]
            total[lo : lo + block] += term
    return total


def _to_time(values: np.ndarray) -> np.ndarray:
    """z_l = N^(-1/2) sum_w z_w e^(i w l), written as a scaled inverse FFT."""
    return np.fft.ifft(values, axis=0) * math.sqrt(values.shape[0])


def _to_frequency(values: np.ndarray) -> np.ndarray:
    return np.fft.fft(values, axis=0) / math.sqrt(values.shape[0])


def action(kind: str, values: np.ndarray, domain: str, terms: dict, beta: float = 1.0) -> complex:
    """The lattice action of ``kind`` for the exact symbol ``terms`` of that ordering."""
    N = values.shape[0]
    delta = beta / N
    z = values if domain == "time" else _to_time(values)
    zb = np.conj(z)
    if kind == "weyl":
        zf = values if domain == "frequency" else _to_frequency(values)
        n = np.arange(N)
        n = np.where(n < (N + 1) // 2, n, n - N)
        half_tan = np.tan(np.pi * n / N)
        berry = 2j * np.sum(np.abs(zf) ** 2 * half_tan[:, None])
        return complex(berry - delta * np.sum(_evaluate(terms, zb, z)))
    z_next = np.roll(z, -1, axis=0)
    kinetic = np.sum(zb * (z - z_next))
    h = _evaluate(terms, zb, z_next if kind == "normal" else z)
    return complex(-(kinetic + delta * np.sum(h)))
