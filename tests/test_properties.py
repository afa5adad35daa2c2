"""Property tests of the operator algebra (hypothesis, derandomized profile).

The enumerated tests pin single examples; these check the algebraic laws on
drawn polynomials with 1-3 modes.  Where a law holds exactly in float
arithmetic the coefficients are small dyadic rationals, so every product and
sum is exact and ``==`` applies; otherwise the tolerance is relative to the
same computation on absolute values, which bounds every accumulated term.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cspi import BosonPoly, Ordering, multiply, quantize, symmetrize, to_ordered_form
from cspi.expr import format_operator, parse_operator

EPS = np.finfo(float).eps

modes_st = st.integers(1, 3)
general_coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
dyadic_part = st.integers(-16, 16).map(lambda k: k / 4)
dyadic_coeff = st.builds(complex, dyadic_part, dyadic_part)


@st.composite
def keys(draw, modes, max_degree):
    """A monomial key with total degree <= max_degree, each exponent <= 4."""
    budget = max_degree
    exponents = []
    for _ in range(2 * modes):
        k = draw(st.integers(0, min(4, budget)))
        budget -= k
        exponents.append(k)
    return tuple(zip(exponents[0::2], exponents[1::2]))


@st.composite
def polys(draw, modes, max_degree=8, coeffs=general_coeff, max_terms=5):
    terms = draw(st.dictionaries(keys(modes, max_degree), coeffs, max_size=max_terms))
    return BosonPoly(terms, modes)


def _abs(p: BosonPoly) -> BosonPoly:
    return BosonPoly({k: abs(c) for k, c in p.terms.items()}, p.modes)


def _scale(p: BosonPoly) -> float:
    return max((abs(c) for c in p.terms.values()), default=0.0)


@st.composite
def dyadic_pairs(draw):
    modes = draw(modes_st)
    return draw(polys(modes, coeffs=dyadic_coeff)), draw(polys(modes, coeffs=dyadic_coeff))


@given(dyadic_pairs())
def test_product_adjoint_law(pair):
    p, q = pair
    assert multiply(p, q).adjoint() == multiply(q.adjoint(), p.adjoint())


@st.composite
def triples(draw):
    modes = draw(modes_st)
    return tuple(draw(polys(modes, max_degree=5, max_terms=4)) for _ in range(3))


@given(triples())
def test_product_associative(triple):
    p, q, r = triple
    left = multiply(multiply(p, q), r)
    right = multiply(p, multiply(q, r))
    bound = _scale(multiply(multiply(_abs(p), _abs(q)), _abs(r)))
    assert left.equals(right, tol=64 * EPS * bound)


@given(modes_st.flatmap(polys), st.sampled_from(list(Ordering)))
def test_reorder_round_trip(p, ordering):
    back = quantize(to_ordered_form(p, ordering))
    assert back.equals(p, tol=1e-12 * _scale(p))


@given(modes_st.flatmap(lambda m: polys(m, coeffs=st.complex_numbers(allow_nan=False, allow_infinity=False))))
def test_format_parse_round_trip(p):
    assert parse_operator(format_operator(p), modes=p.modes) == p


@st.composite
def ladder_words(draw):
    """(modes, factors, a permutation of the factors): at most 8 scaled ladders."""
    modes = draw(modes_st)
    kinds = draw(st.lists(st.tuples(st.integers(0, modes - 1), st.booleans()), max_size=8))
    coeffs = draw(st.lists(st.sampled_from([1, -1, 1j, 2, 0.5, 1.5 - 0.5j]), min_size=len(kinds), max_size=len(kinds)))
    factors = [
        c * (BosonPoly.create(mode, modes) if creation else BosonPoly.annihilate(mode, modes))
        for c, (mode, creation) in zip(coeffs, kinds)
    ]
    return modes, factors, draw(st.permutations(factors))


@given(ladder_words())
def test_symmetrize_permutation_invariant(word):
    modes, factors, permuted = word
    assert symmetrize(factors, modes) == symmetrize(permuted, modes)
