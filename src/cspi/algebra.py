"""Exact algebra for multi-mode bosonic ladder-operator polynomials.

Operator polynomials are stored in canonical normal form: within every mode
all creation operators stand to the left of all annihilation operators, so a
monomial is fully described by a pair of exponents per mode.  The unique
normal form makes equality testing exact.

Reordering between the three classical symbols (normal, anti-normal and
symmetric/Weyl) is a finite triangular transformation.  If ``N(zbar, z)`` is
the normal symbol of an operator, the symbol that reproduces the operator
under ordering ``t`` is

    sym_t = exp(kappa_t * sum_i d/dzbar_i d/dz_i) N,
    kappa = 0 (normal), -1/2 (Weyl), -1 (anti-normal),

and quantization inverts the exponential with the opposite sign before
promoting monomials ``zbar^p z^q -> ad^p a^q``.  Products and both
transforms contract creation/annihilation pairs with the same weights
s^K * prod_i C(m_i,k_i) C(n_i,k_i) k_i!, K = sum_i k_i, where s = 1 for
products and s = +-kappa for the transforms.  The product over modes is an
integer and s^K a power of two, so every weight is exact in float below
2^53 and scaling a coefficient by it rounds once.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DegreeCapError, ModeMismatchError, _count

#: per-mode pair (creation exponent, annihilation exponent), one per mode
MonomialKey = tuple[tuple[int, int], ...]

#: reordering is combinatorial; refuse blowups beyond this total degree
MAX_DEGREE = 16

#: most slices per block of a half-monomial table (see :func:`_half_tables`)
EVAL_BLOCK = 8192

#: a half-monomial table narrows its block to stay within this many bytes
TABLE_BYTES = 16 * 2**20


class Ordering(Enum):
    """Which quantization map reproduces the operator from its symbol."""

    NORMAL = "normal"
    ANTINORMAL = "antinormal"
    WEYL = "weyl"


#: kappa of each ordering's transform (module docstring; Cahill & Glauber's
#: s = 1 + 2 kappa), also the constant its symbol adds to a cutoff sum
KAPPA = {Ordering.NORMAL: 0.0, Ordering.ANTINORMAL: -1.0, Ordering.WEYL: -0.5}


def _validated_terms(terms: Mapping[MonomialKey, complex], modes: int) -> dict:
    clean: dict[MonomialKey, complex] = {}
    for key, coeff in terms.items():
        key = tuple((operator.index(c), operator.index(a)) for c, a in key)
        if len(key) != modes:
            raise ModeMismatchError(
                f"monomial key {key} has {len(key)} modes, expected {modes}"
            )
        if any(c < 0 or a < 0 for c, a in key):
            raise ValueError(f"negative exponent in monomial key {key}")
        coeff = complex(coeff)
        if not cmath.isfinite(coeff):
            raise ValueError(f"coefficient of monomial key {key} is not finite: {coeff}")
        if coeff != 0:
            clean[key] = coeff
    return clean


def _canonical(terms: Mapping[MonomialKey, complex], modes: int, ordering=None):
    """A BosonPoly (``ordering`` None) or SymbolPoly over terms the algebra made.

    The private constructor for results whose keys are already canonical
    (tuples of ``modes`` non-negative int pairs) and whose coefficients are
    already Python complex: it skips :func:`_validated_terms` but still drops
    exact-zero coefficients.
    """
    poly = object.__new__(BosonPoly if ordering is None else SymbolPoly)
    poly._modes = modes
    poly._ordering = ordering
    poly._terms = {key: coeff for key, coeff in terms.items() if coeff != 0}
    return poly


def _halves(key: MonomialKey) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The exponent vectors (p, q) of the monomial zbar^p z^q."""
    return tuple(c for c, _ in key), tuple(a for _, a in key)


def _half_tables(variables: Sequence, halves: Sequence, shift: int = 0):
    """Each term's pair of half-monomial table rows, and the filled table blocks.

    ``variables`` are the path's variables, each a length-n array over the
    slices, and ``halves`` holds each term's exponent vectors (x, y), one
    entry per variable; the table row of a vector e holds prod_i v_i^(e_i).
    Rows are filled in order, one step each: the zero vector is a row of
    ones, a unit vector copies its variable, and any other vector is the row
    of e less one power of the last variable it uses, times that variable.
    The generator yields (lo, width, table), column j holding slice
    (lo + j) mod n for j < width + ``shift``, so with ``shift`` = 1 the
    extra column carries the next block's first slice (z_n = z_0 at the
    end).  One table is refilled for every block; its width is at most
    :data:`EVAL_BLOCK`, narrowed so that the table stays within
    :data:`TABLE_BYTES`, but never below one slice.
    """
    row: dict[tuple[int, ...], int] = {}
    steps: list = []  # None: ones; i: copy variable i; (a, b): row a times row b

    def add(e, step) -> int:
        row[e] = len(steps)
        steps.append(step)
        return row[e]

    def index(e) -> int:
        """The row of e, added after the rows it is built from."""
        if e in row:
            return row[e]
        if not any(e):
            return add(e, None)
        i = max(j for j, k in enumerate(e) if k)
        unit = tuple(int(j == i) for j in range(len(e)))
        # the powers of variable i are added in a loop, lowest first, so the
        # recursion only drops variables: it is at most len(e) deep at any degree
        below = e[:i] + (0,) + e[i + 1 :]
        for k in range(1, e[i] + 1):
            power = e[:i] + (k,) + e[i + 1 :]
            if power not in row:
                add(power, i if power == unit else (index(below), index(unit)))
            below = power
        return row[e]

    def blocks():
        n = len(variables[0])
        cap = TABLE_BYTES // (np.dtype(complex).itemsize * max(len(steps), 1)) - shift
        block = max(1, min(EVAL_BLOCK, n, cap))
        table = np.ones((len(steps), block + shift), dtype=complex)
        for lo in range(0, n, block):
            width = min(block, n - lo)
            columns = width + shift
            for r, step in enumerate(steps):
                if step is None:
                    continue
                if isinstance(step, int):
                    source = variables[step]
                    table[r, :width] = source[lo : lo + width]
                    if shift:
                        table[r, width] = source[(lo + width) % n]
                else:
                    a, b = step
                    np.multiply(table[a, :columns], table[b, :columns], out=table[r, :columns])
            yield lo, width, table

    return [(index(x), index(y)) for x, y in halves], blocks()


def _conjugate_pairs(rows: Sequence[tuple[int, int]]):
    """One dot per unordered pair of table rows, for an equal-slice path sum.

    With the path's own conjugate as the conjugated argument, the term with
    rows (q, p) sums to conj(vdot(Y_p, Y_q)), the conjugate of its partner
    (p, q).  Returns the row pairs to take a dot of, each in the orientation
    of the first term that uses it, and for each term the index of its dot
    and whether it takes the conjugate.
    """
    first: dict[tuple[int, int], int] = {}
    pairs, plan = [], []
    for p, q in rows:
        j = first.get((q, p))
        if j is None:  # rows are distinct, so (p, p) is never found here
            first[p, q] = len(pairs)
            plan.append((len(pairs), False))
            pairs.append((p, q))
        else:
            plan.append((j, True))
    return pairs, plan


class _Poly:
    """Immutable term map shared by operators and their symbols.

    ``terms`` maps a :data:`MonomialKey` to a complex coefficient; terms
    with coefficient exactly zero are never stored (comparisons own the
    epsilons, storage does not).  ``_ordering`` is None for an operator and
    the symbol's :class:`Ordering` otherwise; polynomials with different
    tags never compare equal or add.
    """

    __slots__ = ("_terms", "_modes", "_ordering")

    def __init__(
        self, terms: Mapping[MonomialKey, complex], modes: int, ordering: Ordering | None
    ):
        self._modes = modes = _count(modes, "modes", 1)
        self._ordering = ordering
        self._terms = _validated_terms(terms, modes)

    @property
    def terms(self) -> Mapping[MonomialKey, complex]:
        return MappingProxyType(self._terms)

    @property
    def modes(self) -> int:
        return self._modes

    def degree(self) -> int:
        """Largest total degree among stored monomials (0 for the zero poly)."""
        if not self._terms:
            return 0
        return max(sum(c + a for c, a in key) for key in self._terms)

    def _self_adjoint(self, tol: float) -> bool:
        """coeff(p, q) == conj(coeff(q, p)) within ``tol`` for every stored key."""
        for key, coeff in self._terms.items():
            swapped = tuple((a, c) for c, a in key)
            if abs(self._terms.get(swapped, 0.0) - coeff.conjugate()) > tol:
                return False
        return True

    def equals(self, other, tol: float = 0.0) -> bool:
        """Term-by-term comparison with absolute tolerance ``tol``."""
        if (
            not isinstance(other, _Poly)
            or self._modes != other._modes
            or self._ordering is not other._ordering
        ):
            return False
        for key in self._terms.keys() | other._terms.keys():
            if abs(self._terms.get(key, 0.0) - other._terms.get(key, 0.0)) > tol:
                return False
        return True

    def __add__(self, other):
        # a number adds to an operator as a multiple of the unit, not to a symbol
        if self._ordering is None and isinstance(other, (int, float, complex)):
            other = other * BosonPoly.unit(self._modes)
        if type(other) is not type(self):
            return NotImplemented
        if self._modes != other._modes or self._ordering is not other._ordering:
            raise ModeMismatchError("cannot add polynomials with different modes/tags")
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            out[key] = out.get(key, 0.0) + coeff
        return _canonical(out, self._modes, self._ordering)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return _canonical(
                {k: complex(other * c) for k, c in self._terms.items()},
                self._modes,
                self._ordering,
            )
        if self._ordering is None and isinstance(other, BosonPoly):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, _Poly)
            and self._modes == other._modes
            and self._ordering is other._ordering
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self._modes, self._ordering, frozenset(self._terms.items())))


class BosonPoly(_Poly):
    """Polynomial in bosonic creation/annihilation operators, normal form."""

    __slots__ = ()

    def __init__(self, terms: Mapping[MonomialKey, complex], modes: int = 1):
        super().__init__(terms, modes, None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, modes: int = 1) -> "BosonPoly":
        return cls({}, modes)

    @classmethod
    def unit(cls, modes: int = 1) -> "BosonPoly":
        return cls({((0, 0),) * _count(modes, "modes", 1): 1.0}, modes)

    @classmethod
    def create(cls, mode: int = 0, modes: int | None = None) -> "BosonPoly":
        """The creation operator ``ad_mode``; ``modes`` defaults to ``mode + 1``."""
        return cls._ladder((1, 0), mode, modes)

    @classmethod
    def annihilate(cls, mode: int = 0, modes: int | None = None) -> "BosonPoly":
        """The annihilation operator ``a_mode``; ``modes`` defaults to ``mode + 1``."""
        return cls._ladder((0, 1), mode, modes)

    @classmethod
    def _ladder(cls, pair: tuple[int, int], mode: int, modes: int | None) -> "BosonPoly":
        modes = _count(mode, "mode", 0) + 1 if modes is None else _count(modes, "modes", 1)
        mode = _count(mode, "mode", 0, modes - 1)
        key = tuple(pair if i == mode else (0, 0) for i in range(modes))
        return cls({key: 1.0}, modes)

    def adjoint(self) -> "BosonPoly":
        """Formal adjoint; swaps exponents per mode, conjugates coefficients.

        The adjoint of a normal-ordered monomial is again normal-ordered, so
        no reordering is involved.
        """
        out = {
            tuple((a, c) for c, a in key): coeff.conjugate()
            for key, coeff in self._terms.items()
        }
        return _canonical(out, self._modes)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """``self.equals(self.adjoint(), tol)``, without building the adjoint."""
        return self._self_adjoint(tol)

    def __neg__(self):
        return _canonical({k: -c for k, c in self._terms.items()}, self._modes)

    def __sub__(self, other):
        return self + (-other if isinstance(other, BosonPoly) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __repr__(self):
        from .expr import format_operator

        return f"BosonPoly({format_operator(self)!r}, modes={self._modes})"


class SymbolPoly(_Poly):
    """Classical polynomial in conjugate-pair variables, tagged by ordering.

    The key layout mirrors :class:`BosonPoly`: per mode a pair
    (conjugate-variable exponent, plain-variable exponent).  The tag records
    which quantization map reproduces the originating operator.
    """

    __slots__ = ()

    def __init__(
        self,
        terms: Mapping[MonomialKey, complex],
        modes: int = 1,
        ordering: Ordering = Ordering.NORMAL,
    ):
        if not isinstance(ordering, Ordering):
            raise TypeError(f"ordering must be an Ordering, got {ordering!r}")
        super().__init__(terms, modes, ordering)

    @property
    def ordering(self) -> Ordering:
        return self._ordering

    def is_self_conjugate(self, tol: float = 1e-12) -> bool:
        """coeff(p, q) == conj(coeff(q, p)); holds for Hermitian originals."""
        return self._self_adjoint(tol)

    def evaluate(self, conjugated, plain):
        """Evaluate the symbol on given variable values.

        ``conjugated`` supplies the conjugate-variable values (the caller
        conjugates; nothing is conjugated here) and ``plain`` the plain ones.
        Both may be vectors of length ``modes`` or arrays ``(..., modes)``
        for batch evaluation over many path slices; a vector returns a
        Python ``complex``.

        Each term c zbar^p z^q is c X_p Y_q, with the half-monomials
        X_p = prod_i zbar_i^(p_i) of ``conjugated`` and Y_q of ``plain``
        taken from one table (see :func:`_half_tables`), a block of slices
        at a time, and accumulated in term order.  The working memory is the
        output, a table of at most :data:`TABLE_BYTES` (unless a single
        slice of it is larger) and one block-long buffer.
        """
        zb = np.asarray(conjugated, dtype=complex)
        z = np.asarray(plain, dtype=complex)
        if zb.shape != z.shape or zb.ndim == 0 or zb.shape[-1] != self._modes:
            raise ModeMismatchError(
                f"argument shape {zb.shape}/{z.shape} incompatible with "
                f"{self._modes} modes"
            )
        batch = zb.shape[:-1]
        zb, z = zb.reshape(-1, self._modes), z.reshape(-1, self._modes)
        # one variable per column of zbar, then of z
        none = (0,) * self._modes
        halves = [(p + none, none + q) for p, q in map(_halves, self._terms)]
        rows, blocks = _half_tables([*zb.T, *z.T], halves)
        total = np.zeros(z.shape[0], dtype=complex)
        term = np.empty(min(z.shape[0], EVAL_BLOCK), dtype=complex)
        for lo, width, table in blocks:
            acc, buffer = total[lo : lo + width], term[:width]
            for (x, y), coeff in zip(rows, self._terms.values()):
                np.multiply(table[x, :width], coeff, out=buffer)
                buffer *= table[y, :width]
                acc += buffer
        total = total.reshape(batch)
        return total if total.shape else complex(total)

    def path_sum(self, path, shift: int) -> complex:
        """Sum of sym(conj z_l, z_{(l + shift) mod N}) over a periodic path.

        ``path`` holds the plain values z, shape ``(N, modes)``; ``shift``
        is 1 for the cross-slice coupling of the normal-order action and 0
        for the equal-slice anti-normal and symmetric orders.  Since the
        conjugated argument is the conjugate of the path itself, each term
        c zbar^p z^q sums to c vdot(Y_p, Y_q shifted by ``shift``) over the
        half-monomials Y_e = prod_i z_i^(e_i) of the path alone: one
        read-only dot per block, no array of per-slice values.  With
        ``shift`` 1 each term takes its own dot.  With ``shift`` 0 the terms
        (p, q) and (q, p) share one, the second taking its conjugate (see
        :func:`_conjugate_pairs`), so a self-conjugate symbol takes about
        half as many dots as it has terms.  The products c_t d_t are summed
        in term order either way.

        The table (see :func:`_half_tables`) holds one row per exponent
        vector in use and narrows its block so that it stays within
        :data:`TABLE_BYTES` (16 MiB), never below one slice: a 3-mode
        symbol with every half-monomial up to degree 16 needs 969 rows and
        so blocks of about a thousand slices.  Raises ``TypeError`` or
        ``ValueError`` for a ``shift`` other than the integer 0 or 1, and
        :class:`ModeMismatchError` for a path that is not ``(N, modes)``.
        """
        shift = _count(shift, "shift", 0, 1)
        z = np.asarray(path, dtype=complex)
        if z.ndim != 2 or z.shape[1] != self._modes:
            raise ModeMismatchError(
                f"path shape {z.shape} is not (N, {self._modes})"
            )
        rows, blocks = _half_tables(list(z.T), list(map(_halves, self._terms)), shift)
        pairs, plan = (rows, None) if shift else _conjugate_pairs(rows)
        dots = [0j] * len(pairs)
        for _, width, table in blocks:
            conjugated, plain = table[:, :width], table[:, shift : width + shift]
            for t, (p, q) in enumerate(pairs):
                dots[t] += np.vdot(conjugated[p], plain[q])
        if plan is not None:
            dots = [dots[j].conjugate() if flip else dots[j] for j, flip in plan]
        return complex(sum(c * d for c, d in zip(self._terms.values(), dots)))

    def __repr__(self):
        from .expr import format_symbol

        return (
            f"SymbolPoly({format_symbol(self)!r}, modes={self._modes}, "
            f"ordering={self._ordering.value!r})"
        )


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def _contract(terms, s: float) -> dict[MonomialKey, complex]:
    """Sum every per-mode choice of contractions over ``(coeff, modes)`` items.

    ``modes`` lists one ``(P, Q, m, n)`` per mode: contracting k of m
    creation with k of n annihilation operators yields the exponent pair
    (P - k, Q - k) with weight C(m,k) C(n,k) k!, for k = 0 .. min(m, n).
    The integer weights multiply across modes, and the coefficient is scaled
    once by float(weight) * s**K, K the total number of contractions.
    """
    out: dict[MonomialKey, complex] = {}
    for coeff, modes in terms:
        per_mode = []
        for P, Q, m, n in modes:
            choices = [((P, Q), 1, 0)]
            weight = 1
            for k in range(1, min(m, n) + 1):  # C(m,k) C(n,k) k! from its value at k - 1
                weight = weight * (m - k + 1) * (n - k + 1) // k
                choices.append(((P - k, Q - k), weight, k))
            per_mode.append(choices)
        for combo in itertools.product(*per_mode):
            key, weights, contractions = zip(*combo)
            scale = float(math.prod(weights)) * s ** sum(contractions)
            out[key] = out.get(key, 0.0) + coeff * scale
    return out


def multiply(p: BosonPoly, q: BosonPoly) -> BosonPoly:
    """Operator product ``p * q`` re-expressed in canonical normal form.

    Per mode, a^q1 ad^p2 = sum_k C(q1,k) C(p2,k) k! ad^(p2-k) a^(q1-k), so
    contracting k pairs across the middle yields the exponent pair
    (p1+p2-k, q1+q2-k) with an exact integer weight; coefficients stay
    complex floats.  Raises :class:`DegreeCapError` when the result degree
    would exceed :data:`MAX_DEGREE` and :class:`ModeMismatchError` on
    different mode counts.
    """
    if p.modes != q.modes:
        raise ModeMismatchError(
            f"cannot multiply polynomials on {p.modes} and {q.modes} modes"
        )
    if p.degree() + q.degree() > MAX_DEGREE:
        raise DegreeCapError(
            f"product degree {p.degree() + q.degree()} exceeds cap {MAX_DEGREE}"
        )
    terms = (
        (c1 * c2, [(p1 + p2, q1 + q2, q1, p2) for (p1, q1), (p2, q2) in zip(key1, key2)])
        for key1, c1 in p.terms.items()
        for key2, c2 in q.terms.items()
    )
    return _canonical(_contract(terms, 1), p.modes)


def _as_elementary(factor: BosonPoly) -> tuple[complex, MonomialKey]:
    if len(factor.terms) != 1:
        raise ValueError("symmetrizer factors must be single ladder operators")
    ((key, coeff),) = factor.terms.items()
    if sum(c + a for c, a in key) != 1:
        raise ValueError(
            "symmetrizer factors must have total degree 1 (one ladder operator)"
        )
    return coeff, key


def symmetrize(factors: Sequence[BosonPoly], modes: int | None = None) -> BosonPoly:
    """Average of all n! permuted products of the given ladder operators.

    Linear in each slot, so scalar prefactors on the factors multiply out
    front.  An empty factor list yields the unit operator.  The symmetrized
    product of the ladder operators in ``zbar^p z^q`` (per mode, p creation
    and q annihilation operators) is the Weyl quantization of that commuting
    monomial (the s = 0 ordering of Cahill & Glauber, Phys. Rev. 177, 1857
    (1969)), so it is read off :func:`quantize` in O(degree) terms instead
    of multiplying out n! / prod(mult!) distinct arrangements.
    """
    factors = list(factors)
    if factors:
        inferred = factors[0].modes
        if any(f.modes != inferred for f in factors):
            raise ModeMismatchError("symmetrizer factors live on different mode counts")
        modes = inferred if modes is None else modes
        if modes != inferred:
            raise ModeMismatchError("explicit modes disagrees with factors")
    else:
        modes = 1 if modes is None else modes
        return BosonPoly.unit(modes)

    n = len(factors)
    if n > MAX_DEGREE:
        raise DegreeCapError(f"symmetrizing {n} factors exceeds degree cap {MAX_DEGREE}")

    scale = 1.0 + 0.0j
    exponents = [(0, 0)] * modes
    for f in factors:
        coeff, key = _as_elementary(f)
        scale *= coeff
        exponents = [(c + dc, a + da) for (c, a), (dc, da) in zip(exponents, key)]
    return scale * quantize(SymbolPoly({tuple(exponents): 1.0}, modes, Ordering.WEYL))


# ---------------------------------------------------------------------------
# ordering transforms
# ---------------------------------------------------------------------------

def _apply_cross_derivatives(
    terms: Mapping[MonomialKey, complex], kappa: float
) -> Mapping[MonomialKey, complex]:
    """Apply exp(kappa * sum_i d/dzbar_i d/dz_i) to polynomial terms.

    Monomial-wise:  zbar^p z^q  gains  kappa^k C(p,k) C(q,k) k!  times
    zbar^(p-k) z^(q-k)  for every k, independently per mode.
    """
    if kappa == 0:
        return terms
    return _contract(
        ((coeff, [(p, q, p, q) for p, q in key]) for key, coeff in terms.items()), kappa
    )


def to_ordered_form(p: BosonPoly, target: Ordering) -> SymbolPoly:
    """Classical symbol whose quantization under ``target`` reproduces ``p``.

    The normal symbol is the direct monomial readout of the canonical form;
    the anti-normal and Weyl symbols follow by the triangular cross-derivative
    transform (see module docstring).  For the Weyl case this is equivalent
    to rewriting ``p`` as a sum of symmetrized monomials and demoting the
    operators to commuting variables.
    """
    if not isinstance(target, Ordering):
        raise TypeError(f"target must be an Ordering, got {target!r}")
    terms = _apply_cross_derivatives(p.terms, KAPPA[target])
    return _canonical(terms, p.modes, target)


def quantize(s: SymbolPoly) -> BosonPoly:
    """Inverse of :func:`to_ordered_form` for the symbol's own tag.

    The symbol is first pushed to the normal symbol with the opposite
    cross-derivative sign, then monomials map directly:
    ``zbar^p z^q -> ad^p a^q``.
    """
    terms = _apply_cross_derivatives(s.terms, -KAPPA[s.ordering])
    return _canonical(terms, s.modes)
