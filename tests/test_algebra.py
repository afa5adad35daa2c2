"""Operator algebra: products, symmetrizer, ordering transforms."""

import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cspi import (
    BosonPoly,
    DegreeCapError,
    ModeMismatchError,
    Ordering,
    SymbolPoly,
    multiply,
    quantize,
    symmetrize,
    to_ordered_form,
)
from cspi.algebra import EVAL_BLOCK, TABLE_BYTES, _half_tables

A_OP = BosonPoly.annihilate(0)
AD_OP = BosonPoly.create(0)
NUMBER = multiply(AD_OP, A_OP)
AD2A2 = multiply(multiply(AD_OP, AD_OP), multiply(A_OP, A_OP))


def _enumerated_polys(waves):
    """Deterministic family: degree <= 4, modes <= 2, generic coefficients."""
    family = []
    coeffs = waves(12, salt=0.3)
    family.append(BosonPoly({((2, 1),): coeffs[0], ((0, 2),): coeffs[1], ((1, 1),): coeffs[2]}, 1))
    family.append(BosonPoly({((2, 2),): coeffs[3], ((0, 0),): coeffs[4]}, 1))
    family.append(
        BosonPoly(
            {((1, 0), (0, 1)): coeffs[5], ((1, 1), (1, 1)): coeffs[6], ((0, 0), (2, 0)): coeffs[7]},
            2,
        )
    )
    family.append(BosonPoly({((0, 3),): coeffs[8], ((3, 1),): coeffs[9]}, 1))
    family.append(BosonPoly({((1, 2), (1, 0)): coeffs[10], ((0, 0), (0, 0)): coeffs[11]}, 2))
    return family


# -- multiply ----------------------------------------------------------------


def test_multiply_single_commutator():
    # a ad = ad a + 1
    assert multiply(A_OP, AD_OP) == BosonPoly({((1, 1),): 1.0, ((0, 0),): 1.0}, 1)


def test_multiply_number_squared_structure():
    assert multiply(NUMBER, NUMBER) == BosonPoly({((2, 2),): 1.0, ((1, 1),): 1.0}, 1)


def test_multiply_number_squared_fock_oracle(poly_matrix, block):
    # matrix of the reordered product must equal the product of matrices on
    # the truncation-safe block (n_max=8, margin = operator degree)
    product = multiply(NUMBER, NUMBER)
    direct = poly_matrix(NUMBER, 8) @ poly_matrix(NUMBER, 8)
    reordered = poly_matrix(product, 8)
    assert np.abs(block(direct - reordered, 8, 1, 2)).max() < 1e-12


def test_multiply_identity_absorbs(waves):
    for p in _enumerated_polys(waves):
        unit = BosonPoly.unit(p.modes)
        assert multiply(unit, p) == p
        assert multiply(p, unit) == p


def test_multiply_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        multiply(BosonPoly.create(0, 1), BosonPoly.create(0, 2))


def test_multiply_degree_cap():
    high = BosonPoly({((5, 4),): 1.0}, 1)
    with pytest.raises(DegreeCapError):
        multiply(high, high)
    assert multiply(high, high, max_degree=18).degree() == 18


# -- symmetrize --------------------------------------------------------------


def test_symmetrizer_pair():
    # (a ad + ad a)/2 = ad a + 1/2
    assert symmetrize([A_OP, AD_OP]) == BosonPoly({((1, 1),): 1.0, ((0, 0),): 0.5}, 1)


def test_symmetrizer_single_and_empty():
    assert symmetrize([A_OP]) == A_OP
    assert symmetrize([]) == BosonPoly.unit(1)
    assert symmetrize([], modes=2) == BosonPoly.unit(2)


def test_symmetrizer_three_factor_brute_force(poly_matrix):
    # independent oracle: average the 3! explicit matrix products
    result = symmetrize([AD_OP, AD_OP, A_OP])
    assert result == BosonPoly({((2, 1),): 1.0, ((1, 0),): 1.0}, 1)

    n_max = 8
    mats = {id(f): poly_matrix(f, n_max) for f in (AD_OP, A_OP)}
    factors = [mats[id(AD_OP)], mats[id(AD_OP)], mats[id(A_OP)]]
    average = np.zeros_like(factors[0])
    for perm in itertools.permutations(range(3)):
        prod = np.eye(n_max + 1, dtype=complex)
        for i in perm:
            prod = prod @ factors[i]
        average += prod
    average /= math.factorial(3)
    assert np.abs(
        (average - poly_matrix(result, n_max))[: n_max - 2, : n_max - 2]
    ).max() < 1e-12


def test_symmetrizer_permutation_invariant():
    factors = [AD_OP, A_OP, AD_OP, A_OP]
    reference = symmetrize(factors)
    for perm in itertools.permutations(range(4)):
        assert symmetrize([factors[i] for i in perm]) == reference


def test_symmetrizer_linear_in_each_slot():
    # scalar prefactors multiply out front
    scaled = symmetrize([(2.0 + 0.5j) * A_OP, AD_OP])
    assert scaled == (2.0 + 0.5j) * symmetrize([A_OP, AD_OP])


def test_symmetrizer_rejects_composites():
    with pytest.raises(ValueError):
        symmetrize([NUMBER])
    with pytest.raises(DegreeCapError):
        symmetrize([A_OP] * 17)


def test_symmetrizer_accepts_exactly_the_degree_cap():
    # 16 factors is the cap itself, which is allowed
    assert symmetrize([A_OP] * 16) == BosonPoly({((0, 16),): 1.0}, 1)
    mixed = symmetrize([AD_OP, A_OP] * 8)
    assert mixed.degree() == 16
    assert mixed.terms[((8, 8),)] == 1.0


def _ladder_multisets(max_degree=8, max_arrangements=924):
    """Every multiset of single ladder operators on 1-3 modes, as factor lists."""
    for modes in (1, 2, 3):
        kinds = [(mode, creation) for mode in range(modes) for creation in (True, False)]
        for n in range(max_degree + 1):
            for combo in itertools.combinations_with_replacement(kinds, n):
                multiplicities = [combo.count(kind) for kind in kinds]
                arrangements = math.factorial(n) // math.prod(map(math.factorial, multiplicities))
                if arrangements <= max_arrangements:
                    yield modes, [
                        BosonPoly.create(mode, modes) if creation else BosonPoly.annihilate(mode, modes)
                        for mode, creation in combo
                    ]


def test_symmetrize_matches_brute_force(waves, brute_force_symmetrize):
    checked = 0
    for modes, ladders in _ladder_multisets():
        factors = [c * f for c, f in zip(waves(len(ladders), salt=len(ladders)), ladders)]
        result = symmetrize(factors, modes)
        reference = brute_force_symmetrize(factors, modes)
        scale = max(abs(c) for c in reference.terms.values())
        assert result.equals(reference, tol=1e-14 * scale), [str(f) for f in factors]
        checked += 1
    assert checked == 2942


# -- ordering transforms -----------------------------------------------------


def test_number_operator_symbols():
    anti = to_ordered_form(NUMBER, Ordering.ANTINORMAL)
    assert anti == SymbolPoly({((1, 1),): 1.0, ((0, 0),): -1.0}, 1, Ordering.ANTINORMAL)
    weyl = to_ordered_form(NUMBER, Ordering.WEYL)
    assert weyl == SymbolPoly({((1, 1),): 1.0, ((0, 0),): -0.5}, 1, Ordering.WEYL)
    normal = to_ordered_form(NUMBER, Ordering.NORMAL)
    assert normal == SymbolPoly({((1, 1),): 1.0}, 1, Ordering.NORMAL)


def test_quartic_weyl_symbol():
    weyl = to_ordered_form(AD2A2, Ordering.WEYL)
    assert weyl == SymbolPoly(
        {((2, 2),): 1.0, ((1, 1),): -2.0, ((0, 0),): 0.5}, 1, Ordering.WEYL
    )


def test_quantize_examples():
    assert quantize(
        SymbolPoly({((1, 1),): 1.0, ((0, 0),): -1.0}, 1, Ordering.ANTINORMAL)
    ) == NUMBER
    assert quantize(SymbolPoly({((1, 1),): 1.0}, 1, Ordering.WEYL)) == BosonPoly(
        {((1, 1),): 1.0, ((0, 0),): 0.5}, 1
    )
    assert quantize(SymbolPoly({((2, 2),): 1.0}, 1, Ordering.NORMAL)) == AD2A2


@pytest.mark.parametrize("ordering", list(Ordering))
def test_round_trip_enumerated(waves, ordering):
    for p in _enumerated_polys(waves):
        back = quantize(to_ordered_form(p, ordering))
        assert back.equals(p, tol=1e-12)


@pytest.mark.parametrize("ordering", list(Ordering))
def test_round_trip_fock_oracle(waves, poly_matrix, block, ordering):
    for p in _enumerated_polys(waves):
        if p.modes != 1:
            continue
        back = quantize(to_ordered_form(p, ordering))
        diff = poly_matrix(back, 8) - poly_matrix(p, 8)
        assert np.abs(block(diff, 8, 1, p.degree())).max() < 1e-10


@pytest.mark.parametrize("ordering", list(Ordering))
def test_hermitian_symbols_self_conjugate(waves, ordering):
    for q in _enumerated_polys(waves):
        p = q + q.adjoint()
        assert p.is_hermitian()
        assert to_ordered_form(p, ordering).is_self_conjugate(tol=1e-12)


@pytest.mark.parametrize("ordering", list(Ordering))
def test_to_ordered_form_linear(ordering):
    # dyadic coefficients so every float product is exact
    p = BosonPoly({((2, 1),): 0.75, ((1, 1),): -2.0}, 1)
    q = BosonPoly({((2, 2),): 1.5, ((0, 1),): 0.25j}, 1)
    alpha, beta = -1.5, 0.5 + 2.0j
    combined = to_ordered_form(alpha * p + beta * q, ordering)
    separate = alpha * to_ordered_form(p, ordering) + beta * to_ordered_form(q, ordering)
    assert combined == separate


def test_weyl_transform_matches_symmetrizer(poly_matrix, block, brute_force_symmetrize):
    # quantizing the Weyl symbol monomial-by-monomial with the brute-force
    # symmetrizer must rebuild the original operator
    weyl = to_ordered_form(AD2A2, Ordering.WEYL)
    rebuilt = BosonPoly.zero(1)
    for ((c, q),), coeff in weyl.terms.items():
        rebuilt = rebuilt + coeff * brute_force_symmetrize([AD_OP] * c + [A_OP] * q, 1)
    diff = poly_matrix(rebuilt, 10) - poly_matrix(AD2A2, 10)
    assert np.abs(block(diff, 10, 1, 4)).max() < 1e-10


_FRACTION_KAPPA = {
    Ordering.NORMAL: Fraction(0),
    Ordering.WEYL: Fraction(-1, 2),
    Ordering.ANTINORMAL: Fraction(-1),
}


def _exponent_family(waves):
    """Term maps on 1-3 modes with per-mode exponents 0-8, generic coefficients.

    One mode takes all 81 keys; two and three modes take every 41st and
    every 1820th key of the lexicographic enumeration, strides that end on
    the all-8 key, which carries the largest weights.
    """
    for modes, stride in ((1, 1), (2, 41), (3, 1820)):
        keys = list(itertools.product(itertools.product(range(9), repeat=2), repeat=modes))
        keys = keys[::stride]
        assert keys[-1] == ((8, 8),) * modes
        yield modes, dict(zip(keys, waves(len(keys), salt=modes)))


@pytest.mark.parametrize("ordering", list(Ordering))
def test_reordering_weights_bit_identical(waves, fraction_cross_derivatives, ordering):
    # the float weights integer * 2^-K must reproduce the Fraction path
    # term for term: same keys in the same order, values equal under ==
    kappa = _FRACTION_KAPPA[ordering]
    for modes, terms in _exponent_family(waves):
        symbol = to_ordered_form(BosonPoly(terms, modes), ordering)
        expected = fraction_cross_derivatives(terms, kappa)
        assert list(symbol.terms.items()) == [(k, v) for k, v in expected.items() if v != 0]
        back = quantize(SymbolPoly(terms, modes, ordering))
        expected = fraction_cross_derivatives(terms, -kappa)
        assert list(back.terms.items()) == [(k, v) for k, v in expected.items() if v != 0]


# -- storage/value invariants ------------------------------------------------


def test_no_zero_coefficients_stored():
    cancelled = NUMBER - NUMBER
    assert cancelled == BosonPoly.zero(1)
    assert not cancelled.terms
    # quantize(weyl symbol of n) cancels the +1/2 against the -1/2 exactly
    assert ((0, 0),) not in quantize(to_ordered_form(NUMBER, Ordering.WEYL)).terms



def test_scalar_and_operator_combine_through_the_unit():
    # 2 - n takes BosonPoly.__rsub__, 2 + n __radd__: the number is 2 times the unit
    assert 2 - NUMBER == BosonPoly({((0, 0),): 2.0, ((1, 1),): -1.0}, 1)
    assert 2 + NUMBER == BosonPoly({((0, 0),): 2.0, ((1, 1),): 1.0}, 1)

@pytest.mark.parametrize("coeff", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_constructors_refuse_non_finite_coefficients(coeff):
    # a nan operator passed hamiltonian_matrix's Hermitian check (nan compares
    # false) and put nan on the diagonal
    key = ((1, 1), (0, 2))
    with pytest.raises(ValueError, match=re.escape(str(key))):
        BosonPoly({key: coeff, ((0, 0), (0, 0)): 1.0}, 2)
    with pytest.raises(ValueError, match=re.escape(str(key))):
        SymbolPoly({key: coeff}, 2, Ordering.WEYL)


def test_equality_is_term_map_equality():
    assert BosonPoly({((1, 1),): 1.0}, 1) == BosonPoly({((1, 1),): 1.0 + 0.0j}, 1)
    assert BosonPoly({((1, 1),): 1.0}, 1) != BosonPoly({((1, 1),): 1.0 + 1e-15j}, 1)


def test_adjoint_and_hermiticity():
    assert AD_OP.adjoint() == A_OP
    assert not AD_OP.is_hermitian()
    assert (AD_OP + A_OP).is_hermitian()
    mixed = BosonPoly({((2, 0),): 1.0 + 2.0j}, 1)
    assert mixed.adjoint() == BosonPoly({((0, 2),): 1.0 - 2.0j}, 1)


def _near_hermitian(rng, modes):
    """P + P^dagger plus a perturbation of size 1e-13 .. 1e-11 on some terms."""
    keys = list(itertools.product(itertools.product(range(3), repeat=2), repeat=modes))
    picked = rng.choice(len(keys), size=4, replace=False)
    P = BosonPoly({keys[i]: complex(*rng.normal(size=2)) for i in picked}, modes)
    H = dict((P + P.adjoint()).terms)
    for key in list(H)[: rng.integers(0, 3)]:
        H[key] += complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-13, -11)
    return BosonPoly(H, modes)


def test_is_hermitian_agrees_with_adjoint_comparison():
    verdicts = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        poly = _near_hermitian(rng, int(rng.integers(1, 4)))
        symbol = SymbolPoly(poly.terms, poly.modes, Ordering.WEYL)
        for tol in (0.0, 1e-13, 1e-12, 1e-11, 1e-10):
            expected = poly.equals(poly.adjoint(), tol)
            assert poly.is_hermitian(tol) is expected
            assert symbol.is_self_conjugate(tol) is expected
        verdicts.add(poly.is_hermitian())
    assert verdicts == {True, False}


def test_strict_constructors():
    # a fractional exponent or mode count was truncated: this became ad_0 on 1 mode
    with pytest.raises(TypeError):
        BosonPoly({((1.5, 0.7),): 1.0}, modes=1.9)
    with pytest.raises(TypeError):
        BosonPoly({((1.5, 0),): 1.0}, modes=1)
    with pytest.raises(TypeError):
        BosonPoly({((1, 0),): 1.0}, modes=1.0)
    with pytest.raises(TypeError):
        SymbolPoly({((1, 1),): 1.0}, modes=1.5, ordering=Ordering.WEYL)
    with pytest.raises(ValueError):
        BosonPoly({}, modes=0)
    with pytest.raises(TypeError, match="modes"):
        BosonPoly({}, modes=True)
    # a mode outside 0..modes-1 gave the unit operator
    for ladder in (BosonPoly.create, BosonPoly.annihilate):
        for mode in (-1, 2, 5):
            with pytest.raises(ValueError, match="mode must be in 0..1"):
                ladder(mode, modes=2)
        assert ladder(np.int64(1), modes=np.int64(2)) == ladder(1, 2)
    poly = BosonPoly({((np.int64(1), np.int32(0)), (np.uint8(0), 2)): 1.0}, modes=np.int64(2))
    assert poly == BosonPoly({((1, 0), (0, 2)): 1.0}, 2)
    assert type(poly.modes) is int
    assert all(type(e) is int for key in poly.terms for pair in key for e in pair)


def test_operator_and_symbol_never_mix():
    terms = {((1, 1),): 1.0, ((0, 0),): 0.5}
    op = BosonPoly(terms, 1)
    normal = SymbolPoly(terms, 1, Ordering.NORMAL)
    weyl = SymbolPoly(terms, 1, Ordering.WEYL)
    assert op != normal and normal != op
    assert not op.equals(normal) and not normal.equals(op)
    for left, right in ((op, normal), (normal, op)):
        with pytest.raises(TypeError):
            left + right
    assert normal != weyl and not normal.equals(weyl, tol=1.0)
    with pytest.raises(ModeMismatchError):
        normal + weyl
    with pytest.raises(TypeError):
        -normal
    with pytest.raises(TypeError):
        normal + 1
    with pytest.raises(TypeError):
        1 + normal
    with pytest.raises(TypeError):
        normal * op


def test_equal_polynomials_hash_equal():
    for make in (
        lambda terms: BosonPoly(terms, 2),
        lambda terms: SymbolPoly(terms, 2, Ordering.ANTINORMAL),
    ):
        a = make({((1, 0), (0, 1)): 2.0, ((0, 0), (0, 0)): 0.5})
        b = make({((0, 0), (0, 0)): 0.5 + 0.0j, ((1, 0), (0, 1)): 2})
        assert a == b and hash(a) == hash(b)
        assert a + a == 2 * a and hash(a + a) == hash(a * 2)


def test_symbol_evaluation_batched(waves):
    symbol = SymbolPoly({((1, 1),): 2.0, ((0, 0),): -0.5}, 1, Ordering.NORMAL)
    z = waves(4, salt=1.0).reshape(4, 1)
    values = symbol.evaluate(np.conj(z), z)
    expected = 2.0 * np.abs(z[:, 0]) ** 2 - 0.5
    assert np.abs(values - expected).max() < 1e-14



# -- symbol evaluation against a per-term oracle --------------------------------


def _evaluate_per_term(symbol, zb, z):
    """Independent oracle: one numpy power per exponent, one array per term."""
    total = np.zeros(zb.shape[:-1], dtype=complex)
    for key, coeff in symbol.terms.items():
        term = np.full(zb.shape[:-1], coeff, dtype=complex)
        for i, (p, q) in enumerate(key):
            if p:
                term = term * zb[..., i] ** p
            if q:
                term = term * z[..., i] ** q
        total = total + term
    return total


def _random_symbol(rng, modes, degree, draws=40):
    """Seeded symbol: a constant plus ``draws`` monomials of total degree 1..degree."""
    out = {((0, 0),) * modes: complex(*rng.normal(size=2))}
    for _ in range(draws):
        total = int(rng.integers(1, degree + 1))
        exps = rng.multinomial(total, [1 / (2 * modes)] * (2 * modes)).tolist()
        out[tuple(zip(exps[0::2], exps[1::2]))] = complex(*rng.normal(size=2))
    return SymbolPoly(out, modes, Ordering.WEYL)


def _random_args(rng, shape):
    return [0.8 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)) for _ in range(2)]


def _assert_matches_oracle(symbol, zb, z):
    """Agreement to 1e-12 relative to the sum of the term magnitudes, per slice."""
    abs_symbol = SymbolPoly(
        {k: abs(c) for k, c in symbol.terms.items()}, symbol.modes, symbol.ordering
    )
    magnitude = _evaluate_per_term(abs_symbol, np.abs(zb), np.abs(z)).real
    values = symbol.evaluate(zb, z)
    assert values.shape == zb.shape[:-1]
    assert np.all(np.abs(values - _evaluate_per_term(symbol, zb, z)) <= 1e-12 * magnitude)


@pytest.mark.parametrize("modes", [1, 2, 3])
@pytest.mark.parametrize("slices", [1000, EVAL_BLOCK, 2 * EVAL_BLOCK + 37])
def test_symbol_evaluation_matches_per_term_oracle(modes, slices):
    rng = np.random.default_rng(100 * modes + slices % 97)
    for degree in (1, 4, 8):
        symbol = _random_symbol(rng, modes, degree)
        _assert_matches_oracle(symbol, *_random_args(rng, (slices, modes)))


def test_symbol_evaluation_batch_shape_and_vector():
    rng = np.random.default_rng(7)
    symbol = _random_symbol(rng, 2, 8)
    _assert_matches_oracle(symbol, *_random_args(rng, (3, 50, 2)))
    zb, z = _random_args(rng, (2,))
    value = symbol.evaluate(zb, z)
    assert type(value) is complex
    assert abs(value - complex(_evaluate_per_term(symbol, zb, z))) <= 1e-12 * abs(value)


def test_symbol_evaluation_constant_and_zero():
    zb, z = _random_args(np.random.default_rng(8), (5, 2))
    constant = SymbolPoly({((0, 0), (0, 0)): 1.5 - 2.0j}, 2, Ordering.NORMAL)
    assert np.array_equal(constant.evaluate(zb, z), np.full(5, 1.5 - 2.0j))
    zero = SymbolPoly({}, 2, Ordering.NORMAL)
    assert np.array_equal(zero.evaluate(zb, z), np.zeros(5, dtype=complex))
    assert zero.evaluate(zb[0], z[0]) == 0
    assert type(zero.evaluate(zb[0], z[0])) is complex
    assert constant.evaluate(zb[:0], z[:0]).shape == (0,)


@pytest.mark.parametrize(
    "zb_shape, z_shape",
    [((4, 3), (4, 3)), ((4, 2), (5, 2)), ((3,), (3,)), ((), ())],
)
def test_symbol_evaluation_mode_mismatch(zb_shape, z_shape):
    symbol = SymbolPoly({((1, 1), (0, 0)): 1.0}, 2, Ordering.NORMAL)
    with pytest.raises(ModeMismatchError):
        symbol.evaluate(np.ones(zb_shape), np.ones(z_shape))


# -- sums over a periodic path ---------------------------------------------------


def _assert_path_sum_matches_oracle(symbol, z, shift):
    """path_sum against the per-term oracle summed over slices, to 1e-12 of the
    sum of the term magnitudes over all slices."""
    abs_symbol = SymbolPoly(
        {k: abs(c) for k, c in symbol.terms.items()}, symbol.modes, symbol.ordering
    )
    z_shifted = np.roll(z, -shift, axis=0)
    magnitude = np.sum(_evaluate_per_term(abs_symbol, np.abs(z), np.abs(z_shifted)).real)
    expected = np.sum(_evaluate_per_term(symbol, np.conj(z), z_shifted))
    value = symbol.path_sum(z, shift)
    assert type(value) is complex
    assert abs(value - expected) <= 1e-12 * magnitude


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("modes", [1, 2, 3])
@pytest.mark.parametrize(
    "slices", [1, 2, 1000, EVAL_BLOCK, EVAL_BLOCK + 1, 2 * EVAL_BLOCK + 37]
)
def test_path_sum_matches_per_term_oracle(modes, slices, shift):
    rng = np.random.default_rng(1000 * modes + 10 * (slices % 97) + shift)
    for degree in (1, 4, 8):
        symbol = _random_symbol(rng, modes, degree)
        _assert_path_sum_matches_oracle(symbol, _random_args(rng, (slices, modes))[0], shift)


@pytest.mark.parametrize("shift", [0, 1])
def test_path_sum_table_capped(shift):
    # every half-monomial of 3 modes up to degree 16: 969 table rows, which
    # at full blocks of EVAL_BLOCK slices would take 127 MB
    rng = np.random.default_rng(16 + shift)
    terms = {}
    for exps in itertools.product(range(17), repeat=3):
        if sum(exps) == 16:
            terms[tuple((e, 0) for e in exps)] = complex(*rng.normal(size=2))
            terms[tuple((0, e) for e in exps)] = complex(*rng.normal(size=2))
    symbol = SymbolPoly(terms, 3, Ordering.NORMAL)
    z = 0.5 * _random_args(rng, (2 * EVAL_BLOCK + 37, 3))[0]
    tracemalloc.start()
    try:
        symbol.path_sum(z, shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TABLE_BYTES + 2**20
    _assert_path_sum_matches_oracle(symbol, z, shift)


def test_half_table_has_one_row_per_exponent_vector_in_use():
    # the rows a degree-16 half is built from are the vectors below it, so the
    # 3-variable halves of degree 16 fill the 969 vectors of degree <= 16, each
    # once; variables 2, 3, 5 make every row an exact, distinct integer
    halves = [(e, (0, 0, 0)) for e in itertools.product(range(17), repeat=3) if sum(e) == 16]
    rows, blocks = _half_tables([np.full(2, v, dtype=complex) for v in (2, 3, 5)], halves)
    _, _, table = next(blocks)
    assert len(table) == math.comb(16 + 3, 3) == 969
    values = {
        2**a * 3**b * 5**c for a, b, c in itertools.product(range(17), repeat=3) if a + b + c <= 16
    }
    assert set(table[:, 0].real.astype(np.int64).tolist()) == values
    for (x, y), (e, _) in zip(rows, halves):
        assert table[x, 0] == 2 ** e[0] * 3 ** e[1] * 5 ** e[2] and table[y, 0] == 1


@pytest.mark.parametrize("shift", [0, 1])
def test_path_sum_at_a_degree_past_the_recursion_limit(shift):
    # the row plan recurses over variables and loops over powers, so a
    # half-monomial of degree 3000 is no deeper a recursion than one of degree 2
    assert 3000 > sys.getrecursionlimit()
    rng = np.random.default_rng(30)
    z = np.exp(2j * np.pi * rng.random((101, 2)))  # unit modulus: every power stays finite
    terms = {((0, 3000), (0, 0)): 1.0, ((2, 1500), (3, 4)): 0.5j, ((3000, 0), (0, 0)): 1.0}
    _assert_path_sum_matches_oracle(SymbolPoly(terms, 2, Ordering.NORMAL), z, shift)


@pytest.mark.parametrize("shift", [0, 1])
def test_path_sum_constant_and_zero(shift):
    z = _random_args(np.random.default_rng(9), (2 * EVAL_BLOCK + 37, 2))[0]
    constant = SymbolPoly({((0, 0), (0, 0)): 1.5 - 2.0j}, 2, Ordering.NORMAL)
    assert constant.path_sum(z, shift) == (1.5 - 2.0j) * len(z)
    zero = SymbolPoly({}, 2, Ordering.NORMAL)
    assert zero.path_sum(z, shift) == 0
    assert type(zero.path_sum(z, shift)) is complex


def test_path_sum_refusals():
    symbol = SymbolPoly({((1, 1), (0, 0)): 1.0}, 2, Ordering.NORMAL)
    z = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        symbol.path_sum(z, 2)
    with pytest.raises(ValueError):
        symbol.path_sum(z, -1)
    for shift in (1.0, True, 0.5):
        with pytest.raises(TypeError, match="shift"):
            symbol.path_sum(z, shift)
    for shape in [(4, 3), (4,), (2, 4, 2)]:
        with pytest.raises(ModeMismatchError):
            symbol.path_sum(np.ones(shape), 0)


def _self_conjugate(symbol):
    """symbol + its conjugate-swapped partner: every term (p, q) gains (q, p)."""
    terms = dict(symbol.terms)
    for key, coeff in symbol.terms.items():
        swapped = tuple((q, p) for p, q in key)
        terms[swapped] = terms.get(swapped, 0.0) + coeff.conjugate()
    return SymbolPoly(terms, symbol.modes, symbol.ordering)


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("modes", [1, 3])
def test_path_sum_of_self_conjugate_symbol_matches_oracle(modes, shift):
    # the conjugate pairs share one dot at shift 0
    rng = np.random.default_rng(70 + 10 * modes + shift)
    symbol = _self_conjugate(_random_symbol(rng, modes, 8))
    assert symbol.is_self_conjugate()
    z = _random_args(rng, (EVAL_BLOCK + 37, modes))[0]
    _assert_path_sum_matches_oracle(symbol, z, shift)


def test_path_sum_without_partners_matches_oracle():
    # every term has p > q, so no term has a conjugate partner to share a dot
    rng = np.random.default_rng(77)
    terms = {}
    for p, q in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (5, 4), (8, 0)]:
        terms[((p, q), (p - q, 0))] = complex(*rng.normal(size=2))
    symbol = SymbolPoly(terms, 2, Ordering.ANTINORMAL)
    z = _random_args(rng, (2 * EVAL_BLOCK + 37, 2))[0]
    _assert_path_sum_matches_oracle(symbol, z, 0)


@pytest.mark.parametrize("shift", [0, 1])
def test_path_sum_takes_one_dot_per_conjugate_pair(monkeypatch, shift):
    rng = np.random.default_rng(78)
    symbol = _self_conjugate(_random_symbol(rng, 2, 6))
    symbol = SymbolPoly({**symbol.terms, ((3, 0), (0, 2)): 0.5j}, 2, Ordering.WEYL)
    unordered = {min(key, tuple((q, p) for p, q in key)) for key in symbol.terms}
    assert len(symbol.terms) > len(unordered) > len(symbol.terms) / 2
    z = _random_args(rng, (2 * EVAL_BLOCK + 37, 2))[0]
    expected = symbol.path_sum(z, shift)
    calls = []
    vdot = np.vdot

    def counting(a, b):
        calls.append(1)
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", counting)
    assert symbol.path_sum(z, shift) == expected
    blocks = 3  # 2 * EVAL_BLOCK + 37 slices
    assert len(calls) == blocks * (len(symbol.terms) if shift else len(unordered))
