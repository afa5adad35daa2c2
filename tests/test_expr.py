"""Operator expression parsing and printing."""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cspi.expr
from cspi import BosonPoly, DegreeCapError, multiply
from cspi.expr import ParseError, format_operator, parse_operator


def test_parse_number_operator():
    assert parse_operator("ad_0*a_0") == multiply(BosonPoly.create(0), BosonPoly.annihilate(0))


def test_parse_constants_and_powers():
    assert parse_operator("1") == BosonPoly.unit(1)
    assert parse_operator("ad_0^2*a_0^2") == BosonPoly({((2, 2),): 1.0}, 1)
    assert parse_operator("a_0^0") == BosonPoly.unit(1)


def test_parse_complex_literals():
    p = parse_operator("(1.5-2.0i)*ad_0 + 3.0 + 0.25i")
    assert p == BosonPoly({((1, 0),): 1.5 - 2.0j, ((0, 0),): 3.0 + 0.25j}, 1)
    assert parse_operator("2i*a_0") == BosonPoly({((0, 1),): 2.0j}, 1)
    assert parse_operator("i") == BosonPoly({((0, 0),): 1.0j}, 1)


def test_parse_minus_and_parens():
    p = parse_operator("-(ad_0 - 2.0*a_0)")
    assert p == BosonPoly({((1, 0),): -1.0, ((0, 1),): 2.0}, 1)


def test_parse_multi_mode_inference():
    p = parse_operator("ad_0*a_2")
    assert p.modes == 3
    assert parse_operator("a_0", modes=2).modes == 2
    with pytest.raises(ParseError):
        parse_operator("a_3", modes=2)


def test_parse_operator_products_reorder():
    # a_0*ad_0 lands in canonical normal form
    assert parse_operator("a_0*ad_0") == BosonPoly({((1, 1),): 1.0, ((0, 0),): 1.0}, 1)


@pytest.mark.parametrize(
    "text, position",
    [
        ("ad_0*", 5),
        ("ad_0 $ a_0", 5),
        ("a_0^1.5", 4),
        ("(a_0", 4),
        ("a_0^-2", 4),
        ("a_0^ad_1", 4),
        ("(a_0 ad_1)", 5),
        ("2 a_0", 2),
        ("ad_0 3.5i", 5),
        ("ad_0^2 i", 7),
        ("a_0 (", 4),
        ("a_0\t\n$", 5),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_operator(text)
    assert err.value.position == position


def test_format_round_trips_exactly(waves):
    coeffs = waves(6, salt=2.0)
    polys = [
        BosonPoly({((2, 1),): coeffs[0], ((0, 0),): coeffs[1]}, 1),
        BosonPoly({((1, 0), (0, 3)): coeffs[2], ((1, 1), (1, 1)): coeffs[3]}, 2),
        BosonPoly({((0, 1),): -1.0, ((1, 0),): 1.0}, 1),
        BosonPoly({((0, 0),): complex(coeffs[4].real, 0.0)}, 1),
        BosonPoly({((4, 4),): coeffs[5]}, 1),
        BosonPoly.zero(1),
    ]
    for p in polys:
        assert parse_operator(format_operator(p), modes=p.modes) == p


def test_format_is_deterministic_and_readable():
    p = BosonPoly({((1, 1),): 1.0, ((0, 0),): -0.5}, 1)
    assert format_operator(p) == "ad_0*a_0 - 0.5"


def test_large_operator_parses_and_round_trips(waves):
    # every 3-mode monomial of total degree <= 7: 1716 terms; a third of the
    # coefficients are real so that " - " joins appear in the text
    keys = [
        ((c0, a0), (c1, a1), (c2, a2))
        for c0, a0, c1, a1, c2, a2 in itertools.product(range(8), repeat=6)
        if c0 + a0 + c1 + a1 + c2 + a2 <= 7
    ]
    coeffs = waves(len(keys), salt=0.9)
    terms = {}
    for j, key in enumerate(keys):
        terms[key] = complex(coeffs[j].real, 0.0) if j % 3 == 0 else complex(coeffs[j])
    poly = BosonPoly(terms, 3)
    text = format_operator(poly)
    assert " - " in text
    parsed = parse_operator(text)
    assert len(parsed.terms) == len(keys)
    assert parsed == poly
    assert format_operator(parsed) == text


# -- the monomial parser against the multiply-based reference -----------------

# zeros, products that underflow to 0 (1e-200 * 1e-200), overflow (1e200^2)
# and inf itself (1e400); the imaginary suffix is drawn separately
NUMBERS = ["0", "0.0", "1", "2", "0.5", "1.5", "3.25", ".75", "2.5e3", "1e-200", "1e200", "1e400"]
POWERS = [""] * 6 + ["^0", "^1", "^2", "^3", "^4", "^9", "^17", " ^ 2", "^ 3", " ^1", " ^ 0"]
SPACES = ["", " "]
JUNK = ["$", "*", "^", ")", "(", "^-1", "^1.5", "++", " "]


def _draw_atom(draw, depth: int) -> str:
    kind = draw(st.integers(0, 10))
    if kind < 5 or (kind in (8, 9) and depth == 0):
        return f"{draw(st.sampled_from(['ad', 'a']))}_{draw(st.integers(0, 2))}"
    if kind == 5:
        return draw(st.sampled_from(NUMBERS)) + draw(st.sampled_from(["", "", "i"]))
    if kind == 6:
        return "i"
    if kind == 7:
        return "-" + _draw_atom(draw, depth)
    if kind == 10:  # a complex literal, ( [-]re +- im i ), spaced or not
        pieces = ["(", draw(st.sampled_from(["", "-"])), draw(st.sampled_from(NUMBERS))]
        pieces += [draw(st.sampled_from(["+", "-"])), draw(st.sampled_from(NUMBERS)) + "i", ")"]
        return "".join(piece + draw(st.sampled_from(SPACES)) for piece in pieces)
    return f"({_draw_expression(draw, depth - 1)})"


def _draw_term(draw, depth: int) -> str:
    pieces = []
    for factor in range(draw(st.integers(1, 3))):
        if factor:
            pieces.append("*")
        pieces.append(_draw_atom(draw, depth) + draw(st.sampled_from(POWERS)))
    return "".join(pieces)


def _draw_expression(draw, depth: int) -> str:
    pieces = [draw(st.sampled_from(["", "", "-"]))]
    for term in range(draw(st.integers(1, 3))):
        if term:
            pieces.append(draw(st.sampled_from([" + ", " - ", "+", "-"])))
        pieces.append(_draw_term(draw, depth))
    return "".join(pieces)


@st.composite
def operator_texts(draw):
    """Texts of the grammar, two parentheses deep; one in eight gets a stray
    character anywhere, which may split a token."""
    text = _draw_expression(draw, 2)
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
    return text


def _outcome(parse, text, modes):
    """Term list with keys in order and signed zeros visible, or the refusal."""
    try:
        p = parse(text, modes)
    except ParseError as exc:
        return ("ParseError", exc.position, str(exc))
    except Exception as exc:  # the type is the contract, whatever it is
        return (type(exc).__name__, str(exc))
    return repr((p.modes, [(key, (c.real, c.imag)) for key, c in p.terms.items()]))


@settings(max_examples=300)
@given(operator_texts(), st.sampled_from([None, 3]))
@example("ad_0^17", None)
@example("ad_0^9*a_0^8", None)
@example("0*ad_0^10*ad_0^10", None)
@example("1e-200*1e-200*ad_0^10*ad_0^10", None)
@example("1e400*0*ad_0 + 0*1e400i", None)
@example("a_0^2*ad_0^3", None)
@example("(ad_1 + a_1)^4 - a_0*(0.5-1.5i)*ad_0^2", None)
@example("0*ad_0 + a_0 + ad_0", None)
@example("0 + a_0 + 1", None)
@example("2*-a_0*-(ad_0)^0 ", 2)
@example("-ad_0^2", None)  # a leading minus negates the term: -(ad_0^2)
@example("2*-ad_0^2", None)  # a minus after a star negates the whole term: -(2 ad_0^2)
@example("ad_0*-a_0^3", None)
@example("ad_0*-ad_0^0", None)
@example("( 0.5 - 1.5i )^2", None)  # a spaced complex literal, then a power
@example("(-0.0+1.5i)*a_0", None)
@example("(-0.25+0.0i)", None)  # a zero imaginary term is skipped: imag stays -0.0
@example("(1e400-1e400i)*ad_0", None)
@example("a_0^(2+0i)", None)  # a literal is no power
@example("(-1.5i)*ad_0", None)  # the fold's product turns the real part -0.0 into 0.0
@example("ad_0 ^ 2", None)
@example("a_0^2.0*a_0^1e1", None)  # powers that are not plain integers
@example("ad_0^16*a_0", None)  # the degree cap after a fused power
@example("a_0*a_0*a_0^15", None)  # ... and after two folds
@example("a_0*ad_0^2", None)  # a contraction into a fused power
@example("ad_0^10001", None)  # MAX_POWER refusal at the power's position
@example("a_0^10000", None)  # MAX_POWER itself is allowed, and meets the degree cap
@example("a_0^2^3", None)
@example("1^10000", None)  # a number's power: one multiply call per unit of the exponent
@example("1e-200^3", None)  # underflows to the zero operator
@example("0^0", None)
@example("0^5", None)
@example("(0.5+0.5i)^7", None)
@example("(-0.25+0.0i)^1", None)  # multiply's 0.0 + ... turns the imaginary -0.0 into 0.0
@example("2^2000*ad_0", None)  # overflows to a non-finite coefficient, then folds a ladder
def test_parse_matches_multiply_reference(reference_parse_operator, text, modes):
    assert _outcome(parse_operator, text, modes) == _outcome(reference_parse_operator, text, modes)


# -- one sign rule: a minus negates the term it stands in ------------------------


def _terms_or_refusal(text):
    """The term list with signed zeros visible, or only the refusal's type."""
    outcome = _outcome(parse_operator, text, None)
    return outcome[0] if type(outcome) is tuple else outcome


@pytest.mark.parametrize(
    "text, same_as",
    [
        ("a_0 + -ad_0^2", "a_0 - ad_0^2"),  # it was ad_0^2 + a_0: the minus bound before ^
        ("2*-ad_0^2", "-2*ad_0^2"),
        ("a_0 - -ad_0^2", "a_0 + ad_0^2"),
    ],
)
def test_minus_negates_its_whole_term(text, same_as):
    assert _outcome(parse_operator, text, None) == _outcome(parse_operator, same_as, None)


@st.composite
def complete_texts(draw):
    """Texts of the grammar with no stray character, so a term may follow them."""
    return _draw_expression(draw, 1)


@st.composite
def term_texts(draw):
    """One term of the grammar, two parentheses deep, with or without a sign."""
    return draw(st.sampled_from(["", "", "-"])) + _draw_term(draw, 2)


@settings(max_examples=200)
@given(complete_texts(), operator_texts())
def test_binary_minus_is_the_next_terms_own_sign(a, t):
    assert _terms_or_refusal(f"{a} - {t}") == _terms_or_refusal(f"{a} + -{t}")


@settings(max_examples=200)
@given(term_texts())
def test_leading_minus_negates_every_coefficient(term):
    negated = _terms_or_refusal("-" + term)
    try:
        p = parse_operator(term)
    except Exception as exc:
        assert negated == type(exc).__name__
    else:
        terms = [(key, ((-c).real, (-c).imag)) for key, c in p.terms.items()]
        assert negated == repr((p.modes, terms))


def test_parse_edge_cases():
    for text in ("ad_0^17", "ad_0^9*a_0^8"):
        with pytest.raises(DegreeCapError):
            parse_operator(text)
    # a coefficient that is or rounds to 0 is the zero operator, of degree 0
    assert parse_operator("0*ad_0^10*ad_0^10") == BosonPoly.zero(1)
    assert parse_operator("1e-200*1e-200*ad_0^10*ad_0^10") == BosonPoly.zero(1)
    # a^2 ad^3 = sum_k C(2,k) C(3,k) k! ad^(3-k) a^(2-k)
    p = parse_operator("a_0^2*ad_0^3")
    assert list(p.terms.items()) == [(((3, 2),), 1.0), (((2, 1),), 6.0), (((1, 0),), 6.0)]


@pytest.mark.parametrize(
    "text, term",
    [
        ("1e400*ad_0*a_0", "(nan-nani)*ad_0*a_0"),
        ("2^2000*ad_0*a_0", "(nan-nani)*ad_0*a_0"),
        ("a_0 + 1e308*ad_0 + 1e308*ad_0", "inf*ad_0"),  # finite terms whose sum overflows
        ("1e400i", "(nan+infi)"),
    ],
)
def test_parse_refuses_non_finite_coefficient(text, term):
    with pytest.raises(ParseError) as exc:
        parse_operator(text)
    assert str(exc.value) == f"operator term {term} has a non-finite coefficient (at position 0)"


def test_power_cap(reference_parse_operator):
    # one product per unit of the exponent: 2^1000000 took 1.6 s before its
    # non-finite refusal, and 1^1000000 as long to give 1.0
    assert cspi.expr.MAX_POWER == 10_000
    for parse in (parse_operator, reference_parse_operator):
        for text, position in [("1^1000000", 2), ("2^10001", 2), ("ad_0*1^1e400", 7)]:
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert exc.value.position == position
            assert "power must be an integer from 0 to 10000" in str(exc.value)
        assert parse("1^10000*ad_0") == BosonPoly.create(0)
        assert parse("0.5^0") == BosonPoly.unit(1)


def test_ladder_key_is_built_for_its_own_mode_only():
    # a modes-long key for every mode took 0.27 s and a 62 MiB peak at a_2000
    tracemalloc.start()
    try:
        p = parse_operator("a_2000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert p == BosonPoly.annihilate(2000, modes=2001)
    key = ((0, 1), (0, 0), (0, 0), (1, 0), (0, 0))
    assert parse_operator("ad_3*a_0", modes=5) == BosonPoly({key: 1.0}, 5)


def test_overflow_times_zero_parses_to_zero():
    # the zero factor absorbs the inf before any coefficient is checked
    assert parse_operator("1e400*0*ad_0") == BosonPoly.zero(1)


def test_monomial_terms_skip_multiply(monkeypatch, waves):
    calls = []

    def counting(p, q, *args):
        calls.append(len(p.terms) * len(q.terms))
        return multiply(p, q, *args)

    monkeypatch.setattr(cspi.expr, "multiply", counting)
    keys = [((c0, a0), (c1, a1)) for c0, a0, c1, a1 in itertools.product(range(4), repeat=4)]
    poly = BosonPoly(dict(zip(keys, waves(len(keys), salt=0.3))), 2)
    assert parse_operator(format_operator(poly)) == poly
    assert calls == []
    # the benchmark's shape: a parenthesised literal written as (re+imi) with
    # both parts in repr form, then ad_k^c*a_k^a mode by mode, degree 8 on 3 modes
    terms, pieces = {}, []
    for n, exps in enumerate(e for e in itertools.product(range(3), repeat=6) if sum(e) <= 8):
        key = tuple(zip(exps[::2], exps[1::2]))
        re, im = (n * 5 % 17 - 8) / 4, (n * 7 % 13 - 6) / 4
        if re == im == 0:  # the benchmark writes no zero coefficient
            re = 1.0
        terms[key] = complex(re, im)
        factors = [
            f"{tok}_{mode}" + (f"^{power}" if power > 1 else "")
            for mode, (c, a) in enumerate(key)
            for tok, power in (("ad", c), ("a", a))
            if power
        ]
        coeff = f"({re!r}{'-' if im < 0 else '+'}{abs(im)!r}i)"
        pieces.append("*".join([coeff] + factors))
    text = " + ".join(pieces)
    assert all(f"{c}*" in text for c in ("(-0.5-1.25i)", "(0.25+0.0i)", "(0.0+0.5i)"))
    assert parse_operator(text) == BosonPoly(terms, 3)
    assert calls == []
    # a minus before a bare ladder keeps the fold: the term is negated once, at its end
    assert parse_operator("2*-ad_0^2*-a_1") == BosonPoly({((2, 0), (0, 1)): 2.0}, 2)
    assert calls == []
    parse_operator("(ad_1 + a_1)^2")  # a two-term factor: unit * f, then f * f
    assert calls == [2, 4]
