"""Operator expression parsing and printing."""

import itertools

import pytest

from cspi import BosonPoly, multiply
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
