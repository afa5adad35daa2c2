"""Text parser and printer for operator expressions.

Grammar (whitespace-insensitive)::

    expr    :=  term (('+' | '-') term)*
    term    :=  {'-'} factor ('*' {'-'} factor)*
    factor  :=  atom ['^' INT]
    atom    :=  'ad_'k | 'a_'k | NUMBER | NUMBER 'i' | 'i' | '(' expr ')'

``ad_k`` / ``a_k`` are the creation/annihilation operators of mode ``k``
(k >= 0).  A trailing ``i`` on a number makes it imaginary, so a complex
coefficient is written e.g. ``(1.5-2.0i)``.  A power is an integer from 0 to
:data:`MAX_POWER`.  A minus negates the term it stands in, whether it comes
before the first term, between two terms or after a ``*``, and ``^`` binds
tighter: ``-ad_0^2``, ``2*-ad_0^2`` and ``a_0 + -ad_0^2`` each negate
``ad_0^2``.  ``format_operator`` emits floats with ``repr`` so that
``parse_operator(format_operator(p)) == p`` holds exactly.
"""

from __future__ import annotations

import cmath
import re

from .algebra import (
    MAX_DEGREE,
    BosonPoly,
    MonomialKey,
    SymbolPoly,
    _canonical,
    multiply,
)
from .errors import _count

#: largest exponent of ``^``: a power is one product per unit of its exponent
#: (bit for bit the factor written out), so a larger one would be unbounded work
MAX_POWER = 10_000


class ParseError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"

# A ladder's power is fused into its token when it is a whole ``num`` token of
# at most five digits (MAX_POWER has five); any other power stays caret + num.
_TOKEN_RE = re.compile(
    rf"""
    \s* (?:
      (?P<dag>ad|a)_(?P<idx>\d+) (?:\s*\^\s*(?P<pow>\d{{1,5}})(?![\d.eEi]))?
    | (?P<lit>\(\s*(?P<lit_neg>-)?\s*(?P<lit_re>{_NUMBER})
        \s*(?P<lit_sign>[+-])\s*(?P<lit_im>{_NUMBER})i\s*\))
    | (?P<num>{_NUMBER})(?P<num_imag>i)?
    | (?P<iunit>i)
    | (?P<plus>\+) | (?P<minus>-) | (?P<star>\*) | (?P<caret>\^)
    | (?P<lpar>\() | (?P<rpar>\))
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

_PUNCTUATION = frozenset(("plus", "minus", "star", "caret", "lpar", "rpar"))

_ONE = complex(1.0)


def _literal(negative: bool, real: str, minus: bool, imag: str) -> complex:
    """The value of ``([-]real +- imag i)`` that the parenthesis descent makes.

    Each number is ``complex(x, 0.0) * 1`` as a ``num`` atom, and the two terms
    are summed as :meth:`_Parser.parse_expr` sums them: a zero term is
    skipped, so ``(-0.25+0.0i)`` keeps the imaginary part -0.0 of its negated
    first term, and a literal of two zeros is the zero coefficient.
    """
    first = complex(float(real), 0.0) * _ONE
    second = complex(0.0, float(imag)) * _ONE
    value = (-first if negative else first) if first else 0.0
    if second:  # a nonzero imaginary part: the sum cannot cancel to 0
        value = value + (-second if minus else second)
    return value if value else 0j


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    # One finditer pass: each match is one token with the whitespace before
    # it, and ``bad`` takes any other non-space character, so the matches tile
    # the text up to trailing whitespace and the first ``bad`` is the first
    # unknown character.  A ladder token's value is (mode, power, position of
    # the power), with power 1 and position None when no power is fused.  A
    # parenthesised complex literal is one ``lpar`` token whose value is the
    # literal's coefficient (a bare ``(`` has None), so errors name it as the
    # parenthesis it starts, and it is no ``num`` after ``^``.
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind in _PUNCTUATION:
            append((kind, None, m.end() - 1))
        elif kind == "pow":
            append((m["dag"], (int(m["idx"]), int(m["pow"]), m.start("pow")), m.start("dag")))
        elif kind == "idx":  # a ladder with no fused power
            append((m["dag"], (int(m["idx"]), 1, None), m.start("dag")))
        elif kind == "lit":
            value = _literal(m["lit_neg"] is not None, m["lit_re"], m["lit_sign"] == "-", m["lit_im"])
            append(("lpar", value, m.start("lit")))
        elif kind == "num":
            append(("num", complex(float(m["num"]), 0.0), m.start("num")))
        elif kind == "num_imag":
            append(("num", complex(0.0, float(m["num"])), m.start("num")))
        elif kind == "iunit":
            append(("num", 1j, m.start("iunit")))
        else:
            raise ParseError(f"unexpected character {m['bad']!r}", m.start("bad"))
    append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent that folds bare ladder factors into a monomial.

    A term value is either a monomial ``(coeff, key, degree)`` or a
    :class:`BosonPoly`.  Numbers and complex literals are monomials of
    degree 0.  :meth:`parse_term` folds a bare ladder factor (``ad_k``,
    ``a_k`` or one with a fused power up to the degree cap) straight into a
    running monomial of nonzero coefficient when nothing contracts (no
    ``a_k`` already in it before an ``ad_k``) and the degree stays within
    the cap: it multiplies the coefficient by 1 with the float operations
    :func:`multiply` uses, ``0.0 + (c * 1) * 1.0``, and adds to one mode's
    exponents.  Every other product is one :func:`multiply` call of two
    polynomials, which contracts, refuses a degree past the cap, and lets a
    zero factor absorb every later one, even inf.
    """

    def __init__(self, tokens, modes: int):
        self.tokens = tokens
        self.i = 0
        self.modes = modes
        unit_key = ((0, 0),) * modes
        self.unit = (_ONE, unit_key, 0)

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[0]!r}", tok[2])
        self.i += 1
        return tok

    # -- term values ---------------------------------------------------------

    def _poly(self, value) -> BosonPoly:
        if type(value) is tuple:
            coeff, key, _ = value
            return _canonical({key: coeff}, self.modes)
        return value

    def _product(self, left, right) -> BosonPoly:
        return multiply(self._poly(left), self._poly(right))

    @staticmethod
    def _items(value):
        if type(value) is tuple:
            coeff, key, _ = value
            return ((key, coeff),) if coeff else ()
        return value.terms.items()

    # -- grammar -------------------------------------------------------------

    def parse_expr(self) -> BosonPoly:
        # One dict for the whole sum keeps parsing linear in the term count.
        # It matches chained ``+`` on BosonPoly bit for bit (a ``-`` is the next
        # term's own sign): a sum that cancels to zero drops its key (a later
        # term re-appends it), and keys keep first-insertion order.
        acc = dict(self._items(self.parse_term()))
        while (kind := self.peek()) == "plus" or kind == "minus":
            if kind == "plus":
                self.i += 1
            for key, coeff in self._items(self.parse_term()):
                total = acc.get(key, 0.0) + coeff
                if total != 0:
                    acc[key] = total
                else:
                    acc.pop(key, None)
        return _canonical(acc, self.modes)

    def parse_term(self):
        tokens = self.tokens
        acc = None
        negate = False
        while True:
            kind, value, _ = tokens[self.i]
            if kind == "minus":  # a sign before a factor: it negates the whole term
                negate = not negate
                self.i += 1
                continue
            if (
                (kind == "ad" or kind == "a")
                and value[1] <= MAX_DEGREE
                and tokens[self.i + 1][0] != "caret"
            ):  # a bare ladder factor, of coefficient 1
                if acc is None:  # 1 * 1 steps to 1 exactly: start from the unit
                    acc = self.unit
                mode, n, _ = value
                create = kind == "ad"
                if (
                    type(acc) is tuple
                    and acc[0]
                    and acc[2] + n <= MAX_DEGREE
                    and not (create and n and acc[1][mode][1])
                ):  # multiply's float operations; a nonzero c stays nonzero
                    c, key, degree = acc
                    p, q = key[mode]
                    pair = (p + n, q) if create else (p, q + n)
                    acc = (0.0 + (c * _ONE) * 1.0, key[:mode] + (pair,) + key[mode + 1 :], degree + n)
                    self.i += 1
                else:
                    acc = self._product(acc, self.parse_factor())
            else:
                factor = self.parse_factor()
                acc = factor if acc is None else self._product(acc, factor)
            if tokens[self.i][0] != "star":
                if negate:  # once, on the finished term
                    acc = (-acc[0],) + acc[1:] if type(acc) is tuple else -acc
                return acc
            self.i += 1

    def parse_factor(self):
        base = self.parse_atom()
        kind, value, _ = self.tokens[self.i - 1]  # the atom's last token
        if (kind == "ad" or kind == "a") and value[2] is not None:
            _, power, pos = value
            if power > MAX_POWER:
                raise ParseError(f"power must be an integer from 0 to {MAX_POWER}", pos)
        elif self.peek() == "caret":
            self.i += 1
            _, value, pos = self.take("num")
            if value.imag != 0 or not 0 <= value.real <= MAX_POWER or value.real % 1:
                raise ParseError(f"power must be an integer from 0 to {MAX_POWER}", pos)
            power = int(value.real)
        else:
            return base
        acc = self.unit
        for _ in range(power):
            acc = self._product(acc, base)
        return acc

    def parse_atom(self):
        kind, value, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return (value * _ONE, self.unit[1], 0)
        if kind == "ad":
            return BosonPoly.create(value[0], self.modes)
        if kind == "a":
            return BosonPoly.annihilate(value[0], self.modes)
        if kind == "lpar":
            if value is not None:  # a complex literal, already summed
                return (value, self.unit[1], 0)
            inner = self.parse_expr()
            self.take("rpar")
            return inner
        raise ParseError(f"unexpected token {kind!r}", pos)


def parse_operator(text: str, modes: int | None = None) -> BosonPoly:
    """Parse an operator expression; mode count defaults to 1 + max index.

    A term whose coefficient overflowed to inf or nan is refused with
    :class:`ParseError`, so no caller gets a nan operator.
    """
    tokens = _tokenize(text)
    inferred = 1 + max((tok[1][0] for tok in tokens if tok[0] in ("ad", "a")), default=0)
    modes = inferred if modes is None else _count(modes, "modes", 1)
    if modes < inferred:
        raise ParseError(f"expression uses mode {inferred - 1}, beyond modes={modes}", 0)
    parser = _Parser(tokens, modes)
    poly = parser.parse_expr()
    parser.take("end")
    term = _non_finite_term(poly)  # a coefficient that overflowed: 1e400, 2^2000
    if term is not None:
        raise ParseError(f"operator term {term} has a non-finite coefficient", 0)
    return poly


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_coeff(z: complex) -> str:
    if z.imag == 0:
        return _fmt_float(z.real)
    if z.real == 0:
        return _fmt_float(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return f"({_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i)"


def _fmt_monomial(key: MonomialKey, create_tok: str, annihilate_tok: str) -> str:
    parts = []
    for mode, (c, a) in enumerate(key):
        if c:
            parts.append(f"{create_tok}_{mode}" + (f"^{c}" if c > 1 else ""))
        if a:
            parts.append(f"{annihilate_tok}_{mode}" + (f"^{a}" if a > 1 else ""))
    return "*".join(parts)


def _fmt_poly(terms, create_tok: str, annihilate_tok: str) -> str:
    if not terms:
        return "0.0"
    keys = sorted(terms, key=lambda k: (-sum(c + a for c, a in k), k))
    pieces = []
    for key in keys:
        coeff = terms[key]
        mono = _fmt_monomial(key, create_tok, annihilate_tok)
        if not mono:
            pieces.append(_fmt_coeff(coeff))
        elif coeff == 1:
            pieces.append(mono)
        elif coeff == -1:
            pieces.append("-" + mono)
        else:
            pieces.append(f"{_fmt_coeff(coeff)}*{mono}")
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def format_operator(p: BosonPoly) -> str:
    """Deterministic text form; round-trips exactly through parse_operator."""
    return _fmt_poly(p.terms, "ad", "a")


def format_symbol(s: SymbolPoly) -> str:
    """Text form of a classical symbol, with tokens ``zbar_i`` / ``z_i``."""
    return _fmt_poly(s.terms, "zbar", "z")


def _non_finite_term(p: BosonPoly | SymbolPoly) -> str | None:
    """The text of the first term of ``p`` whose coefficient is inf or nan, or None."""
    tokens = ("zbar", "z") if isinstance(p, SymbolPoly) else ("ad", "a")
    for key, coeff in p.terms.items():
        if not cmath.isfinite(coeff):
            return _fmt_poly({key: coeff}, *tokens)
    return None
