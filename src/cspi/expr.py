"""Text parser and printer for operator expressions.

Grammar (whitespace-insensitive)::

    expr    :=  ['-'] term (('+' | '-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  atom ['^' INT]
    atom    :=  'ad_'k | 'a_'k | NUMBER | NUMBER 'i' | 'i' | '(' expr ')'

``ad_k`` / ``a_k`` are the creation/annihilation operators of mode ``k``
(k >= 0).  A trailing ``i`` on a number makes it imaginary, so a complex
coefficient is written e.g. ``(1.5-2.0i)``.  ``format_operator`` emits
floats with ``repr`` so that ``parse_operator(format_operator(p)) == p``
holds exactly.
"""

from __future__ import annotations

import re

from .algebra import BosonPoly, MonomialKey, SymbolPoly


class ParseError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
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


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup if m.lastgroup != "num_imag" else "num"
        if kind == "ad":
            tokens.append(("ad", int(m.group("ad_idx")), pos))
        elif kind == "a":
            tokens.append(("a", int(m.group("a_idx")), pos))
        elif kind == "num":
            value = float(m.group("num"))
            if m.group("num_imag"):
                tokens.append(("num", complex(0.0, value), pos))
            else:
                tokens.append(("num", complex(value, 0.0), pos))
        elif kind == "iunit":
            tokens.append(("num", 1j, pos))
        elif kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, modes: int):
        self.tokens = tokens
        self.i = 0
        self.modes = modes

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[0]!r}", tok[2])
        self.i += 1
        return tok

    def parse_expr(self) -> BosonPoly:
        # One dict for the whole sum keeps parsing linear in the term count.
        # It matches chained ``+``/``-`` on BosonPoly bit for bit: negation is
        # ``-c``, a sum that cancels to zero drops its key (a later term
        # re-appends it), and keys keep first-insertion order.
        negate = self.peek()[0] == "minus"
        if negate:
            self.take()
        first = self.parse_term().terms
        acc = {k: -c for k, c in first.items()} if negate else dict(first)
        while self.peek()[0] in ("plus", "minus"):
            negate = self.take()[0] == "minus"
            for key, coeff in self.parse_term().terms.items():
                total = acc.get(key, 0.0) + (-coeff if negate else coeff)
                if total != 0:
                    acc[key] = total
                else:
                    acc.pop(key, None)
        return BosonPoly(acc, self.modes)

    def parse_term(self) -> BosonPoly:
        acc = self.parse_factor()
        while self.peek()[0] == "star":
            self.take()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> BosonPoly:
        base = self.parse_atom()
        if self.peek()[0] == "caret":
            self.take()
            kind, value, pos = self.take("num")
            if value.imag != 0 or value.real != int(value.real) or value.real < 0:
                raise ParseError("power must be a non-negative integer", pos)
            power = int(value.real)
            acc = BosonPoly.unit(self.modes)
            for _ in range(power):
                acc = acc * base
            return acc
        return base

    def parse_atom(self) -> BosonPoly:
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
        if kind == "minus":
            self.take()
            return -self.parse_atom()
        raise ParseError(f"unexpected token {kind!r}", pos)


def parse_operator(text: str, modes: int | None = None) -> BosonPoly:
    """Parse an operator expression; mode count defaults to 1 + max index."""
    tokens = _tokenize(text)
    max_idx = max(
        (tok[1] for tok in tokens if tok[0] in ("ad", "a")), default=-1
    )
    inferred = max(max_idx + 1, 1)
    if modes is None:
        modes = inferred
    elif modes < inferred:
        raise ParseError(f"expression uses mode {max_idx}, beyond modes={modes}", 0)
    parser = _Parser(tokens, modes)
    poly = parser.parse_expr()
    parser.take("end")
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
