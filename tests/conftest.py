"""Shared test inputs and independent oracles.

Everything is enumerated deterministically (no RNG): "generic looking"
complex data comes from incommensurate trig waves over integer indices, so
every run sees the same values, and hypothesis runs under one derandomized
profile.  The Fock-side oracles never go through the package's own matrix
builder or quadrature check: one evaluates polynomials from raw ladder
matrices, one is the per-state integer loop the array build replaced, and
one forms the dense Kronecker product of the identity quadrature; the
algebra oracles reorder with integers and ``Fraction`` and never call the
package's product or transforms.  The reference parser builds every term
from ``multiply`` products of validated polynomials, the path the package's
monomial parser leaves.  The flow has two references: one takes its shells
one step at a time, the other takes them all at once as whole arrays.
"""

import cmath
import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("cspi", derandomize=True, database=None, deadline=None)
settings.load_profile("cspi")


def _waves(count: int, salt: float = 0.0) -> np.ndarray:
    k = np.arange(count, dtype=float)
    return np.sin(1.7 * k + salt) + 1j * np.cos(2.3 * k - 0.7 * salt)


def _ladder(n_max: int):
    dim = n_max + 1
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def _poly_matrix(poly, n_max: int) -> np.ndarray:
    """Dense matrix of a normal-form polynomial, built from ladder matrices.

    Independent of cspi.fock: monomials become ad^c @ a^q per mode, modes
    combine by Kronecker product (first mode slowest, matching the package's
    lexicographic basis order).
    """
    a, ad = _ladder(n_max)
    dim = (n_max + 1) ** poly.modes
    total = np.zeros((dim, dim), dtype=complex)
    for key, coeff in poly.terms.items():
        term = None
        for c, q in key:
            factor = np.linalg.matrix_power(ad, c) @ np.linalg.matrix_power(a, q)
            term = factor if term is None else np.kron(term, factor)
        total += coeff * term
    return total


def _block(matrix: np.ndarray, n_max: int, modes: int, margin: int) -> np.ndarray:
    """Sub-block of rows/columns whose occupancies stay below n_max - margin."""
    keep = [
        i
        for i, state in enumerate(itertools.product(range(n_max + 1), repeat=modes))
        if all(n <= n_max - margin for n in state)
    ]
    return matrix[np.ix_(keep, keep)]


def _paired_frequency_sum(term, N: int) -> float:
    """Re sum_n term(n) over the N signed frequency indices, the O(N) way.

    The reference the lattice closed forms and the cutoff sum are checked
    against: ``term`` maps an integer array of indices n to complex values,
    and each conjugate +-n pair is added together, from the top index down
    to n = 1, then the self-paired n = N/2 of an even N, then n = 0 last.
    The pairs cancel each other's imaginary parts; a residue beyond 1e-10
    relative means the oracle itself went wrong.  Its rounding grows like
    N eps (e^{-iw} - 1 and tan(w/2) lose their leading digits at small w).
    """
    n = np.arange((N - 1) // 2, 0, -1)
    total = np.sum(term(n) + term(-n))
    if N % 2 == 0:
        total += term(np.array([N // 2]))[0]
    total += term(np.array([0]))[0]
    assert abs(total.imag) <= 1e-10 * max(1.0, abs(total.real)), total
    return float(total.real)


def _unchecked_model(A: float, beta: float):
    """A QuadraticModel built without its input checks, to reach the in-sum guards."""
    from cspi import QuadraticModel

    model = object.__new__(QuadraticModel)
    object.__setattr__(model, "A", A)
    object.__setattr__(model, "beta", beta)
    return model


def _step_loop_flow(model, grid, b_floor: int, modes: int = 1):
    """The frequency-shell flow one step at a time: the reference for ``run_flow``.

    Starts at log c = (N-1) M ln 2 and integrates out one shell per step,
    from the top one down to ``b_floor + 1``, each from its own one-entry
    tangent table, with the same per-step Berry and correction logs and a
    plain running float sum.  Returns the visited shells, the correction of
    each step and log c after each step.
    """
    from cspi.discrete import _half_tan

    N = grid.N
    c = grid.beta * model.A / N
    log_c = (N - 1) * modes * math.log(2.0)
    shells, corrections, log_c_series = [], [], []
    for shell in range((N - 1) // 2, b_floor, -1):
        half_tan = _half_tan(np.array([shell]), N)
        tan_sq4 = 4.0 * half_tan * half_tan
        (berry_log,) = -modes * np.log(tan_sq4)
        (correction_log,) = -modes * np.log1p(c * c / tan_sq4)
        log_c = float(log_c + berry_log + correction_log)
        shells.append(shell)
        corrections.append(float(abs(correction_log)) / grid.beta)
        log_c_series.append(log_c)
    return shells, corrections, log_c_series


def _whole_array_cumsum_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running sums of ``x`` and the running sums of their TwoSum errors, whole-array."""
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s))[:-1]
    x_part = s - prev
    err = (prev - (s - x_part)) + (x - x_part)
    return s, np.cumsum(err)


def _whole_array_cumsum(x: np.ndarray) -> np.ndarray:
    """Compensated prefix sums of ``x`` over the whole array at once (Sum2 in prefix form)."""
    return np.add(*_whole_array_cumsum_parts(x))


def _whole_array_tables(model, grid, b_floor: int, modes: int):
    """The whole-array flow's checks and tables, bottom shell first.

    Returns c, 4 tan^2 and the Berry logs of every shell, the steps'
    correction logs, ``below(x)`` (the running sums, carried errors and
    compensated sums before each entry of ``x``), log c after each step and
    its shift.
    """
    from cspi import NumericalError
    from cspi.discrete import _half_tan

    grid.require_odd("the frequency-shell flow")
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    N = grid.N
    top = (N - 1) // 2
    if not 0 <= b_floor < top:
        raise ValueError(f"need 0 <= b_floor < (N-1)/2 = {top}, got {b_floor}")
    c = grid.beta * model.A / N
    half_tan = _half_tan(np.arange(1, top + 1), N)
    tan_sq4 = 4.0 * half_tan * half_tan
    berry_log = np.log(tan_sq4)
    correction_log = np.log1p(c * c / tan_sq4[b_floor:])  # the steps, lowest shell first
    if not (np.isfinite(berry_log[b_floor:]).all() and np.isfinite(correction_log).all()):
        raise NumericalError(f"flow step terms are not finite at beta A / N = {c:g}")

    def below(x):  # the running sum and carried error before each entry, and their sum
        hi, lo = _whole_array_cumsum_parts(x)
        hi, lo = np.concatenate(([0.0], hi)), np.concatenate(([0.0], lo))
        return hi, lo, hi + lo

    berry_below = below(berry_log)[2][b_floor:-1]
    correction_sums = below(correction_log)[2]
    log_c_shift = modes * float(correction_sums[-1])
    log_c = modes * ((berry_below - math.log(N)) + correction_sums[:-1]) - log_c_shift
    if not math.isfinite(log_c[0]):
        raise NumericalError(f"flow log c is not finite: {log_c[0]}")
    return c, tan_sq4, berry_log, correction_log, below, log_c, log_c_shift


def _conservation_residuals(model, grid, modes, log_c_shift, before):
    """|M (``before`` + the remaining shells' constant) - shift|, top shell first."""
    from cspi import weyl_discrete_logZ_quadratic

    c = grid.beta * model.A / grid.N
    remaining_const = grid.beta * model.A / 2.0 - math.log(c) - math.log(grid.N)
    shift = log_c_shift + modes * weyl_discrete_logZ_quadratic(grid, model)
    return np.abs(modes * (before + remaining_const) - shift)[::-1]


def _whole_array_flow(model, grid, b_floor: int, modes: int = 1):
    """The frequency-shell flow over whole-array tables: the reference for ``run_flow``.

    One tangent table of every shell, from the bottom up, and one compensated
    prefix sum each of all the Berry logs and all the step corrections, each a
    full-length array.  By prod_{k=1}^{B} tan(pi k/N) = sqrt(N), log c after
    the step at shell s is
    M [sum_{k<s} ln 4 tan^2 - ln N] - M sum_{k>=s} log1p(c^2 / 4 tan^2).
    The residual is a plain prefix sum of the per-shell defect
    ln 4 tan^2 - ln(c^2 + 4 tan^2) + log1p(c^2 / 4 tan^2) from the floor up,
    plus the compensated total of the defect below the floor, where it has
    no correction.  Same checks, messages and arithmetic as the streamed flow, which
    must match it bit for bit.
    """
    from cspi.flow import FlowResult

    c, tan_sq4, berry_log, correction_log, below, log_c, log_c_shift = _whole_array_tables(
        model, grid, b_floor, modes
    )
    residuals = None
    if model.A > 0:
        defect = berry_log - np.log(c * c + tan_sq4)
        defect[b_floor:] += correction_log
        defect_below = np.cumsum(np.concatenate(([0.0], defect[b_floor:-1])))
        before = defect_below + below(defect[:b_floor])[2][-1]
        residuals = _conservation_residuals(model, grid, modes, log_c_shift, before)
    corrections = modes * correction_log / grid.beta
    shells = np.arange((grid.N - 1) // 2, b_floor, -1)
    return FlowResult(shells, corrections[::-1], log_c[::-1], residuals)


def _prefix_difference_residuals(model, grid, b_floor: int, modes: int = 1):
    """The flow's conservation residuals, top shell first, with no defect sum.

    Compensated prefix sums of the Berry logs and of the pair logs
    ln(c^2 + 4 tan^2), both near N ln 2 at the top shells, subtracted apart:
    running sums first, where they agree to a factor 2 (Sterbenz), then the
    carried errors, plus the compensated prefix of the step corrections.
    """
    c, tan_sq4, berry_log, correction_log, below, _, log_c_shift = _whole_array_tables(
        model, grid, b_floor, modes
    )
    berry_hi, berry_lo, _ = (part[b_floor:-1] for part in below(berry_log))
    pair_hi, pair_lo, _ = (part[b_floor:-1] for part in below(np.log(c * c + tan_sq4)))
    differences = (berry_hi - pair_hi) + (berry_lo - pair_lo)
    before = differences + below(correction_log)[2][:-1]
    return _conservation_residuals(model, grid, modes, log_c_shift, before)


def _times_ladder(terms: dict, mode: int, creation: bool) -> dict:
    """Right-multiply integer-weighted normal-form terms by ad_mode or a_mode.

    ad^p a^q ad = ad^(p+1) a^q + q ad^p a^(q-1) by repeated a ad = ad a + 1;
    the other modes commute and ride along.
    """
    out: dict = {}
    for key, weight in terms.items():
        p, q = key[mode]
        if creation:
            moves = [((p + 1, q), weight)] + ([((p, q - 1), weight * q)] if q else [])
        else:
            moves = [((p, q + 1), weight)]
        for pair, w in moves:
            new = key[:mode] + (pair,) + key[mode + 1 :]
            out[new] = out.get(new, 0) + w
    return out


@functools.cache
def _arrangement_sum(pool: tuple, modes: int) -> tuple[dict, int]:
    """Sum and number of the distinct arrangements of a ladder multiset.

    ``pool`` holds ``((mode, is_creation), count)`` items.  Every distinct
    arrangement ends in one of the ladder operators left in the pool, so the
    sum over all of them is the sum over each choice of last operator of the
    sum for the remaining pool, right-multiplied by it.  Memoized on the
    pool, so a degree-8 multiset costs a few hundred right products instead
    of one per arrangement.
    """
    if not any(count for _, count in pool):
        return {((0, 0),) * modes: 1}, 1
    total: dict = {}
    arrangements = 0
    for i, ((mode, creation), count) in enumerate(pool):
        if not count:
            continue
        rest = pool[:i] + (((mode, creation), count - 1),) + pool[i + 1 :]
        terms, number = _arrangement_sum(rest, modes)
        arrangements += number
        for key, weight in _times_ladder(terms, mode, creation).items():
            total[key] = total.get(key, 0) + weight
    return total, arrangements


def _brute_force_symmetrize(factors, modes: int):
    """Average of all distinct arrangements of single ladder operators.

    The test-side oracle for ``cspi.symmetrize``: every arrangement is
    normal-ordered by explicit commutation with integer weights, and the
    exact rational average is rounded to float once, then scaled by the
    product of the factors' coefficients.
    """
    from cspi import BosonPoly

    scale = 1.0 + 0.0j
    counts: dict = {}
    for factor in factors:
        ((key, coeff),) = factor.terms.items()
        ((mode, pair),) = [(i, pair) for i, pair in enumerate(key) if pair != (0, 0)]
        kind = (mode, pair == (1, 0))
        counts[kind] = counts.get(kind, 0) + 1
        scale *= coeff
    terms, arrangements = _arrangement_sum(tuple(sorted(counts.items())), modes)
    return BosonPoly(
        {key: scale * float(Fraction(w, arrangements)) for key, w in terms.items()}, modes
    )


def _fraction_cross_derivatives(terms, kappa: Fraction) -> dict:
    """exp(kappa * sum_i d/dzbar_i d/dz_i) on a term map, weights as exact Fractions.

    zbar^p z^q gains kappa^k C(p,k) C(q,k) k! zbar^(p-k) z^(q-k) per mode;
    the weight is converted to float once per term.  The term order is the
    package's: input keys in order, per mode k ascending, the last mode
    fastest.
    """
    if kappa == 0:
        return dict(terms)
    out: dict = {}
    for key, coeff in terms.items():
        per_mode = [
            [
                ((p - k, q - k), kappa**k * (math.comb(p, k) * math.comb(q, k) * math.factorial(k)))
                for k in range(min(p, q) + 1)
            ]
            for p, q in key
        ]
        for combo in itertools.product(*per_mode):
            weight = Fraction(1)
            for _, w in combo:
                weight *= w
            new_key = tuple(pair for pair, _ in combo)
            out[new_key] = out.get(new_key, 0.0) + coeff * float(weight)
    return out


_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<ad>ad_(?P<ad_idx>\d+))
    | (?P<a>a_(?P<a_idx>\d+))
    | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<num_imag>i)?
    | (?P<iunit>i)
    | (?P<plus>\+) | (?P<minus>-) | (?P<star>\*) | (?P<caret>\^)
    | (?P<lpar>\() | (?P<rpar>\))
    """,
    re.VERBOSE,
)


def _reference_tokenize(text: str) -> list:
    from cspi.expr import ParseError

    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup if m.lastgroup != "num_imag" else "num"
        if kind == "ad":
            tokens.append(("ad", int(m.group("ad_idx")), pos))
        elif kind == "a":
            tokens.append(("a", int(m.group("a_idx")), pos))
        elif kind == "num":
            value = float(m.group("num"))
            imaginary = m.group("num_imag")
            tokens.append(("num", complex(0.0, value) if imaginary else complex(value, 0.0), pos))
        elif kind == "iunit":
            tokens.append(("num", 1j, pos))
        elif kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _ReferenceParser:
    """Recursive descent in which every atom is a BosonPoly and every ``*``
    and power step is a ``BosonPoly`` product, i.e. a call of ``multiply``."""

    def __init__(self, tokens, modes: int):
        self.tokens, self.i, self.modes = tokens, 0, modes

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        from cspi.expr import ParseError

        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[0]!r}", tok[2])
        self.i += 1
        return tok

    def parse_expr(self):
        # the sum keeps an overflowed (non-finite) coefficient, as the package's
        # parser does, so that both refuse it at the end with the same message
        from cspi.algebra import _canonical

        acc = dict(self.parse_term().terms)
        while self.peek()[0] in ("plus", "minus"):
            if self.peek()[0] == "plus":  # a minus is the next term's own sign
                self.take()
            for key, coeff in self.parse_term().terms.items():
                total = acc.get(key, 0.0) + coeff
                if total != 0:
                    acc[key] = total
                else:
                    acc.pop(key, None)
        return _canonical(acc, self.modes)

    def parse_term(self):
        # every minus before a factor flips the sign of the whole term
        negate = False
        acc = None
        while True:
            while self.peek()[0] == "minus":
                self.take()
                negate = not negate
            factor = self.parse_factor()
            acc = factor if acc is None else acc * factor
            if self.peek()[0] != "star":
                return -acc if negate else acc
            self.take()

    def parse_factor(self):
        from cspi import BosonPoly
        from cspi.expr import MAX_POWER, ParseError

        base = self.parse_atom()
        if self.peek()[0] == "caret":
            self.take()
            _, value, pos = self.take("num")
            if value.imag != 0 or not 0 <= value.real <= MAX_POWER or value.real % 1:
                raise ParseError(f"power must be an integer from 0 to {MAX_POWER}", pos)
            acc = BosonPoly.unit(self.modes)
            for _ in range(int(value.real)):
                acc = acc * base
            return acc
        return base

    def parse_atom(self):
        from cspi import BosonPoly
        from cspi.expr import ParseError

        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return value * BosonPoly.unit(self.modes)
        if kind == "ad":
            self.take()
            return BosonPoly.create(value, self.modes)
        if kind == "a":
            self.take()
            return BosonPoly.annihilate(value, self.modes)
        if kind == "lpar":
            self.take()
            inner = self.parse_expr()
            self.take("rpar")
            return inner
        raise ParseError(f"unexpected token {kind!r}", pos)


def _reference_parse_operator(text: str, modes: int | None = None):
    """The parser as products of polynomials: the reference for ``parse_operator``.

    A regex match per token, then one ``multiply`` per ``*`` and per power
    step, with every atom a validated BosonPoly; only the sum of the terms
    shares one dict.  Same grammar, errors and positions as the package's
    monomial parser, which must give the same term lists bit for bit, and
    the same refusal of a term whose coefficient overflowed.
    """
    from cspi.algebra import _canonical
    from cspi.expr import ParseError, format_operator

    tokens = _reference_tokenize(text)
    max_idx = max((tok[1] for tok in tokens if tok[0] in ("ad", "a")), default=-1)
    inferred = max(max_idx + 1, 1)
    if modes is None:
        modes = inferred
    elif modes < inferred:
        raise ParseError(f"expression uses mode {max_idx}, beyond modes={modes}", 0)
    parser = _ReferenceParser(tokens, modes)
    poly = parser.parse_expr()
    parser.take("end")
    for key, coeff in poly.terms.items():
        if not cmath.isfinite(coeff):
            term = format_operator(_canonical({key: coeff}, modes))
            raise ParseError(f"operator term {term} has a non-finite coefficient", 0)
    return poly


@pytest.fixture(scope="session")
def reference_parse_operator():
    return _reference_parse_operator


@pytest.fixture
def brute_force_symmetrize():
    return _brute_force_symmetrize


@pytest.fixture
def fraction_cross_derivatives():
    return _fraction_cross_derivatives


def _loop_hamiltonian_matrix(p, basis) -> np.ndarray:
    """Per-state loop build of <m|p|n>, the reference for the array build.

    Integer weights under one final sqrt, monomials in key order, states in
    basis order; the states and their index are rebuilt here from the cap.
    """
    states = list(itertools.product(range(basis.n_max + 1), repeat=basis.modes))
    index = {state: i for i, state in enumerate(states)}
    dim = len(states)
    H = np.zeros((dim, dim), dtype=complex)
    for key, coeff in p.terms.items():
        for col, state in enumerate(states):
            weight = 1  # exact integer product under a single final sqrt
            target = []
            for n, (c, a) in zip(state, key):
                if n < a:
                    weight = 0
                    break
                for step in range(a):  # a |n> chain: n (n-1) ...
                    weight *= n - step
                m = n - a
                for step in range(c):  # ad |m> chain: (m+1) (m+2) ...
                    weight *= m + 1 + step
                target.append(m + c)
            if weight == 0:
                continue
            row = index.get(tuple(target))
            if row is None:  # created past the cap
                continue
            H[row, col] += coeff * math.sqrt(weight)
    return H


def _kron_identity_deviation(basis, radial_nodes: int, angular_nodes: int, margin: int = 0):
    """Resolution-of-identity deviation from the dense Kronecker product.

    The one-mode quadrature matrix filled entry by entry, its ``np.kron``
    power over the modes the full dim x dim matrix, then the max-norm
    distance from the identity on the block of occupancies <= cap - margin.
    """
    cap = basis.n_max
    t, wt = np.polynomial.laguerre.laggauss(radial_nodes)
    phi = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
    radial = [np.sum(wt * t ** (s / 2.0)) for s in range(2 * cap + 1)]
    angular = {d: np.mean(np.exp(1j * d * phi)) for d in range(-cap, cap + 1)}
    E = np.empty((cap + 1, cap + 1), dtype=complex)
    for m in range(cap + 1):
        for n in range(cap + 1):
            norm = math.sqrt(math.factorial(m)) * math.sqrt(math.factorial(n))
            E[m, n] = radial[m + n] * angular[m - n] / norm
    approx = np.ones((1, 1), dtype=complex)
    for _ in range(basis.modes):
        approx = np.kron(approx, E)
    keep = [
        i
        for i, state in enumerate(itertools.product(range(cap + 1), repeat=basis.modes))
        if max(state) <= cap - margin
    ]
    sub = approx[np.ix_(keep, keep)] - np.eye(len(keep))
    return float(np.abs(sub).max())


@pytest.fixture
def waves():
    return _waves


@pytest.fixture
def paired_frequency_sum():
    return _paired_frequency_sum


@pytest.fixture
def step_loop_flow():
    return _step_loop_flow


@pytest.fixture
def whole_array_flow():
    return _whole_array_flow


@pytest.fixture
def prefix_difference_residuals():
    return _prefix_difference_residuals


@pytest.fixture
def whole_array_cumsum():
    return _whole_array_cumsum


@pytest.fixture
def unchecked_model():
    return _unchecked_model


@pytest.fixture
def poly_matrix():
    return _poly_matrix


@pytest.fixture
def block():
    return _block


@pytest.fixture(scope="session")
def loop_hamiltonian_matrix():
    return _loop_hamiltonian_matrix


@pytest.fixture
def kron_identity_deviation():
    return _kron_identity_deviation
