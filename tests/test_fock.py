"""Truncated-Fock-space oracle: matrices, partition functions, quadrature."""

import functools
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cspi.errors
from cspi import (
    BosonPoly,
    FockBasis,
    ModeMismatchError,
    NonHermitianError,
    NumericalError,
    QuadraticModel,
    SingularityError,
    check_resolution_identity,
    coherent_overlap,
    exact_dFdA,
    hamiltonian_matrix,
    multiply,
    parse_operator,
    partition_function,
    suggested_n_max,
)
from cspi.errors import BYTES_MAX
from cspi.fock import RADIAL_NODES_MAX

EPS = np.finfo(float).eps

A_OP = BosonPoly.annihilate(0)
AD_OP = BosonPoly.create(0)
NUMBER = multiply(AD_OP, A_OP)


def test_basis_enumeration_is_lexicographic():
    basis = FockBasis(2, 1)
    assert basis.states == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert basis.dimension == 4
    assert FockBasis(3, 0).states == [(0, 0, 0)]


def test_dense_byte_budget():
    assert BYTES_MAX == 2**30
    assert FockBasis(1, 8191).dimension == 8192  # exactly 2^30 bytes
    assert FockBasis(4, 8).dimension == 6561
    for modes, n_max in [(1, 8192), (5, 8), (10, 8), (2, 90)]:
        with pytest.raises(ValueError, match="GiB budget"):
            FockBasis(modes, n_max)
    message = "a dense matrix over 59049 Fock states needs 52 GiB, over the 1 GiB budget"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            FockBasis(5, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20  # refused before anything is allocated


@pytest.mark.parametrize("modes, n_max, dim", [(2, 2, 9), (3, 1, 8)])
def test_dense_byte_budget_boundary(modes, n_max, dim, monkeypatch):
    # a basis whose complex dim x dim matrix is exactly the budget is built;
    # with one byte less of budget it is refused
    monkeypatch.setattr(cspi.errors, "BYTES_MAX", dim * dim * 16)
    assert FockBasis(modes, n_max).dimension == dim
    monkeypatch.setattr(cspi.errors, "BYTES_MAX", dim * dim * 16 - 1)
    with pytest.raises(ValueError, match=f"over {dim} Fock states needs .* GiB budget"):
        FockBasis(modes, n_max)


def test_basis_grid_and_strides():
    # 70 one-state modes passed numpy's 64-dimension limit of an occupancy grid
    for modes, n_max in [(1, 0), (1, 5), (3, 0), (3, 2), (4, 1), (70, 0)]:
        basis = FockBasis(modes, n_max)
        assert basis.states == list(itertools.product(range(n_max + 1), repeat=modes))
        assert list(basis.strides) == [(n_max + 1) ** (modes - 1 - i) for i in range(modes)]
        assert [n @ basis.strides for n in basis.states] == list(range(basis.dimension))


def test_number_operator_matrix():
    H = hamiltonian_matrix(NUMBER, FockBasis(1, 2))
    assert np.abs(H - np.diag([0.0, 1.0, 2.0])).max() == 0.0


def test_ladder_sum_matrix():
    H = hamiltonian_matrix(A_OP + AD_OP, FockBasis(1, 2))
    expected = np.array(
        [
            [0, math.sqrt(1), 0],
            [math.sqrt(1), 0, math.sqrt(2)],
            [0, math.sqrt(2), 0],
        ]
    )
    assert np.abs(H - expected).max() < 1e-15


def test_quartic_matrix_diagonal():
    quartic = multiply(multiply(AD_OP, AD_OP), multiply(A_OP, A_OP))
    H = hamiltonian_matrix(quartic, FockBasis(1, 3))
    assert np.abs(H - np.diag([0.0, 0.0, 2.0, 6.0])).max() == 0.0


def test_two_mode_hopping_matrix(poly_matrix):
    hop = multiply(BosonPoly.create(0, 2), BosonPoly.annihilate(1, 2))
    hop = hop + hop.adjoint()
    H = hamiltonian_matrix(hop, FockBasis(2, 3))
    assert np.abs(H - poly_matrix(hop, 3)).max() < 1e-13


def _same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@st.composite
def _fock_case(draw):
    """(Hermitian polynomial, occupancy cap): 1-3 modes, cap 0-3, degree <= 6."""
    modes = draw(st.integers(1, 3))
    cap = draw(st.integers(0, 3))

    @st.composite
    def key(draw):
        budget = draw(st.integers(0, 6))
        exponents = []
        for _ in range(2 * modes):
            k = draw(st.integers(0, budget))
            budget -= k
            exponents.append(k)
        return tuple(zip(exponents[0::2], exponents[1::2]))

    coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    p = BosonPoly(draw(st.dictionaries(key(), coeff, max_size=8)), modes)
    return p + p.adjoint(), cap


_PAST_CAP = BosonPoly({((1, 2), (0, 0), (3, 0)): 1 + 2j, ((0, 1), (2, 0), (0, 0)): 0.5}, 3)


@given(_fock_case())
@example((_PAST_CAP + _PAST_CAP.adjoint(), 2))
@example((_PAST_CAP + _PAST_CAP.adjoint(), 0))
@example((BosonPoly({((1, 1),): 1.5, ((2, 0),): 0.25j, ((0, 2),): -0.25j}, 1), 0))
@example((BosonPoly({}, 2), 2))
def test_hamiltonian_matrix_bytes_match_loop(loop_hamiltonian_matrix, case):
    # keys that create past the cap (3 > 2, and every key at cap 0), the one-state
    # block of cap 0, the zero polynomial
    p, cap = case
    basis = FockBasis(p.modes, cap)
    assert _same_bytes(hamiltonian_matrix(p, basis), loop_hamiltonian_matrix(p, basis))


def test_hamiltonian_matrix_bytes_match_loop_at_dim_729(waves, loop_hamiltonian_matrix):
    # every 3-mode monomial with exponents <= 2 and degree <= 8: 651 terms
    exponents = [e for e in itertools.product(range(3), repeat=6) if sum(e) <= 8]
    z = waves(len(exponents), salt=8.0)
    terms = {}
    for j, e in enumerate(exponents):
        key = tuple(zip(e[0::2], e[1::2]))
        dagger = tuple((a, c) for c, a in key)
        if dagger == key:
            terms[key] = 1.0 + abs(z[j])
        else:
            terms[key] = terms[dagger].conjugate() if dagger in terms else z[j]
    op = BosonPoly(terms, 3)
    assert len(op.terms) == 651 and op.degree() == 8
    basis = FockBasis(3, 8)
    assert basis.dimension == 729
    assert _same_bytes(hamiltonian_matrix(op, basis), loop_hamiltonian_matrix(op, basis))


def test_exponents_past_the_cap_reach_no_state():
    huge = BosonPoly({((10**6, 0),): 1.0, ((0, 10**6),): 1.0})
    H = hamiltonian_matrix(huge + NUMBER, FockBasis(1, 3))
    assert np.array_equal(H, np.diag([0.0, 1.0, 2.0, 3.0]))


def test_weights_past_float_range_refused():
    # |a^171 |200>|^2 = 200!/29! is past the float range
    big = BosonPoly({((0, 171),): 1.0, ((171, 0),): 1.0})
    with pytest.raises(OverflowError, match="float range"):
        hamiltonian_matrix(big, FockBasis(1, 200))


def test_non_hermitian_refused():
    with pytest.raises(NonHermitianError):
        hamiltonian_matrix(A_OP, FockBasis(1, 2))


def test_partition_function_values():
    assert partition_function(np.zeros((5, 5)), beta=2.0) == pytest.approx(5.0)
    # truncated harmonic ladder vs the same geometric series summed directly
    n = np.arange(41)
    H = np.diag(n.astype(float))
    Z = partition_function(H, beta=1.0)
    assert Z == pytest.approx(np.exp(-n).sum(), abs=1e-12)
    # and against the closed form, up to the truncation tail
    assert abs(Z - 1.0 / (1.0 - math.exp(-1.0))) < 1e-15 / (1 - math.exp(-1))


def test_partition_function_ground_state_dominance():
    H = np.diag([0.0, 1.0, 2.0])
    assert partition_function(H, beta=60.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "A, beta",
    [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1e308, 10.0)],
)
def test_quadratic_model_validation(A, beta):
    with pytest.raises(ValueError):
        QuadraticModel(A, beta)


def test_partition_function_validation():
    with pytest.raises(ValueError):
        partition_function(np.array([[np.inf]]), beta=1.0)
    with pytest.raises(NonHermitianError):
        partition_function(np.array([[0.0, 1.0], [0.0, 0.0]]), beta=1.0)


def test_partition_function_hermitian_tolerance_edge():
    # the tolerance is 1e-12 times max(1, max |H|), and a deviation equal to it passes
    for top, tol in [(0.5, 1e-12), (4.0, 4e-12)]:
        H = np.diag([top, 0.25])
        H[1, 0] = tol
        assert partition_function(H, beta=1.0) > 0
        H[1, 0] = np.nextafter(tol, 1.0)
        with pytest.raises(NonHermitianError):
            partition_function(H, beta=1.0)


def test_partition_function_outside_float_range(recwarn):
    # -ad^4 a^4 has the energy -8!/4! = -1680 at n = 8: e^1680 overflows, Z is inf
    H = hamiltonian_matrix(parse_operator("-ad_0^4*a_0^4"), FockBasis(1, 8))
    with pytest.raises(NumericalError, match="partition function"):
        partition_function(H, beta=1.0)
    # every Boltzmann weight underflows: Z would be 0.0
    with pytest.raises(NumericalError, match="partition function"):
        partition_function(np.diag([800.0, 801.0]), beta=1.0)
    assert not recwarn.list
    # just inside the range, the value is the plain sum
    Z = partition_function(np.diag([700.0, 701.0]), beta=1.0)
    assert Z == pytest.approx(math.exp(-700) + math.exp(-701), rel=4 * EPS)


def test_partition_function_unitary_invariance(waves):
    H = hamiltonian_matrix(NUMBER + 0.25 * (A_OP + AD_OP), FockBasis(1, 7))
    seed = waves(64, salt=4.0).reshape(8, 8)
    U, _ = np.linalg.qr(seed)
    Z = partition_function(H, beta=1.3)
    Z_rot = partition_function(U @ H @ U.conj().T, beta=1.3)
    assert abs(Z - Z_rot) < 1e-10 * Z


def test_exact_dFdA_closed_form():
    model = QuadraticModel(A=1.0, beta=1.0)
    assert exact_dFdA(model) == pytest.approx(0.5 * (1.0 / math.tanh(0.5) - 1.0), rel=1e-15)
    # large beta*A: coth -> 1; past beta*A ~ 709 e^(beta A) overflows, the answer underflows
    assert exact_dFdA(QuadraticModel(A=50.0, beta=1.0)) < 1e-20
    assert exact_dFdA(QuadraticModel(A=700.0, beta=1.0)) == pytest.approx(math.exp(-700.0), rel=1e-15)
    assert exact_dFdA(QuadraticModel(A=1e6, beta=1.0)) == 0.0
    assert exact_dFdA(QuadraticModel(A=-1e6, beta=1.0)) == -1.0
    # small beta*A: Laurent leading term 1/(beta A)
    tiny = exact_dFdA(QuadraticModel(A=1e-6, beta=1.0))
    assert tiny * 1e-6 == pytest.approx(1.0, rel=1e-5)
    with pytest.raises(SingularityError):
        exact_dFdA(QuadraticModel(A=0.0, beta=1.0))


@pytest.mark.parametrize("A, beta", [(-1e-6, 1.0), (-0.7, 1.3), (-3.0, 2.0), (-40.0, 1.0)])
def test_exact_dFdA_negative_beta_A_against_mpmath(A, beta):
    # beta A < 0 takes 1 / expm1(beta A) directly
    with mpmath.workdps(40):
        exact = 1 / mpmath.expm1(mpmath.mpf(beta) * A)
    value = exact_dFdA(QuadraticModel(A=A, beta=beta))
    assert abs(value / exact - 1) <= 4 * np.finfo(float).eps

@pytest.mark.parametrize("beta_A", [0.2, 0.7, 1.0, 2.5, 5.0])
def test_exact_dFdA_against_central_difference(beta_A):
    # independent oracle: numerical d/dA of -(1/beta) ln Z over the
    # truncated geometric ladder, central difference h = 1e-6
    beta, h = 1.0, 1e-6
    cap = suggested_n_max(QuadraticModel(A=beta_A, beta=beta)) + 20

    def free_energy(A):
        n = np.arange(cap + 1)
        return -math.log(np.exp(-beta * A * n).sum()) / beta

    numeric = (free_energy(beta_A + h) - free_energy(beta_A - h)) / (2 * h)
    assert abs(exact_dFdA(QuadraticModel(A=beta_A, beta=beta)) - numeric) < 1e-6


def test_coherent_overlap_values(waves):
    assert coherent_overlap([0.0], [0.0]) == pytest.approx(1.0)
    assert coherent_overlap([1.0], [1.0]) == pytest.approx(math.e)
    z = waves(3, salt=5.0)
    assert coherent_overlap(z, z) == pytest.approx(np.exp(np.sum(np.abs(z) ** 2)))
    with pytest.raises(ModeMismatchError):
        coherent_overlap([1.0, 2.0], [1.0])


def test_coherent_overlap_against_fock_series(waves):
    # truncated series oracle: per mode sum_n conj(z2)^n z1^n / n!
    z2, z1 = waves(2, salt=6.0), waves(2, salt=7.0)
    series = 1.0
    for mode in range(2):
        terms = [
            (np.conj(z2[mode]) * z1[mode]) ** n / math.factorial(n) for n in range(31)
        ]
        series *= sum(terms)
    assert abs(coherent_overlap(z2, z1) - series) < 1e-10


def test_resolution_identity_vacuum():
    assert check_resolution_identity(FockBasis(1, 0), 2, 4) <= 1e-12


def test_resolution_identity_converged():
    deviation = check_resolution_identity(FockBasis(1, 8), 64, 64, margin=2)
    assert deviation <= 1e-6


def test_resolution_identity_two_modes():
    deviation = check_resolution_identity(FockBasis(2, 3), 24, 16, margin=1)
    assert deviation <= 1e-10


def test_resolution_identity_angular_aliasing():
    # an angular grid that aliases m - n to 0 leaves O(1) off-diagonals
    coarse = check_resolution_identity(FockBasis(1, 8), 64, 4)
    assert coarse > 1e-1
    fine = check_resolution_identity(FockBasis(1, 8), 64, 2 * 8 + 1)
    assert fine <= 1e-10


def test_resolution_identity_accepts_the_largest_radial_rule():
    # RADIAL_NODES_MAX = 186 is the largest rule with finite weights; it is taken
    assert RADIAL_NODES_MAX == 186
    deviation = check_resolution_identity(FockBasis(1, 8), RADIAL_NODES_MAX, 17, margin=2)
    assert 0.0 <= deviation <= 1e-6
    with pytest.raises(ValueError, match="radial must be 1 to 186"):
        check_resolution_identity(FockBasis(1, 8), RADIAL_NODES_MAX + 1, 17)


def test_resolution_identity_angular_saturation():
    # beyond 2 n_max + 1 angular nodes, doubling changes nothing
    d1 = check_resolution_identity(FockBasis(1, 8), 64, 17)
    d2 = check_resolution_identity(FockBasis(1, 8), 64, 34)
    assert abs(d1 - d2) < 1e-10


@pytest.mark.parametrize(
    "modes, n_max, radial, angular, margin",
    [
        (1, 0, 2, 4, 0),
        (1, 8, 64, 64, 2),
        (1, 8, 64, 4, 0),  # aliased: O(1) off-diagonals
        (2, 3, 24, 16, 1),
        (2, 4, 5, 5, 4),  # margin = cap: a one-state block
        (3, 0, 5, 5, 0),  # cap 0: a one-state block
        (3, 3, 8, 3, 0),  # aliased on three modes
        (3, 3, 10, 7, 1),
        (4, 2, 6, 2, 0),  # aliased on four modes
        (4, 3, 3, 2, 1),  # aliased on four modes, three radial nodes
    ],
)
def test_resolution_identity_matches_kron(
    modes, n_max, radial, angular, margin, kron_identity_deviation
):
    basis = FockBasis(modes, n_max)
    got = check_resolution_identity(basis, radial, angular, margin)
    want = kron_identity_deviation(basis, radial, angular, margin)
    assert abs(got - want) <= 4 * EPS * max(1.0, want)


def test_resolution_identity_matches_per_state_products(per_state_identity_deviation, monkeypatch):
    # the diagonal from E's extreme entries gives the bits of every product
    # formed, on every cap within the budget and every even margin; the
    # node sets, the same for every basis, are computed once per count
    laguerre = np.polynomial.laguerre
    monkeypatch.setattr(laguerre, "laggauss", functools.cache(laguerre.laggauss))
    cases = 0
    for modes, n_max in itertools.product(range(1, 6), range(9)):
        if (n_max + 1) ** modes > 8192:
            continue
        basis = FockBasis(modes, n_max)
        for radial, angular, margin in itertools.product(
            [1, 2, 5, 24, 64, RADIAL_NODES_MAX], [1, 3, 4, 17, 64], range(0, n_max + 1, 2)
        ):
            got = check_resolution_identity(basis, radial, angular, margin)
            assert got == per_state_identity_deviation(basis, radial, angular, margin)
            cases += 1
    assert cases == 3360
    basis = FockBasis(10**5, 0)
    got = check_resolution_identity(basis, 64, 64)
    assert got == per_state_identity_deviation(basis, 64, 64)


def test_resolution_identity_angular_closed_form():
    # the angular average is exact: any grid finer than 2 n_max + 1 gives the same
    # bits, even one too large for an array, and 2e6 angles cost no grid memory
    basis = FockBasis(1, 8)
    fine = check_resolution_identity(basis, 64, 17)
    assert check_resolution_identity(basis, 64, 10**30) == fine
    tracemalloc.start()
    try:
        deviation = check_resolution_identity(basis, 64, 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert deviation == fine


def test_resolution_identity_validation():
    with pytest.raises(ValueError):
        check_resolution_identity(FockBasis(1, 2), 0, 8)
    with pytest.raises(ValueError, match="non-negative"):
        check_resolution_identity(FockBasis(1, 2), 8, 8, margin=-1)
    with pytest.raises(ValueError, match="no states"):
        check_resolution_identity(FockBasis(2, 1), 8, 8, margin=2)


def test_resolution_identity_float_range(recwarn):
    # radial moments t^{n} on the 64-node rule overflow first; a 1-node rule
    # (t = 1) reaches the factorial norms, and 171! is past the float range
    with pytest.raises(ValueError, match="radial moments"):
        check_resolution_identity(FockBasis(1, 171), 64, 64, margin=2)
    with pytest.raises(ValueError, match="factorial norms"):
        check_resolution_identity(FockBasis(1, 171), 1, 1)
    assert check_resolution_identity(FockBasis(1, 170), 1, 1) > 0
    assert not recwarn.list


def test_suggested_n_max():
    cap = suggested_n_max(QuadraticModel(A=1.0, beta=1.0))
    assert math.exp(-cap) < 1e-12 <= math.exp(-(cap - 1))
    # a gap so wide that cap 0 would do still gets one excited state; no gap is refused
    assert suggested_n_max(QuadraticModel(A=100.0, beta=1.0)) == 1
    for A in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive gap"):
            suggested_n_max(QuadraticModel(A=A, beta=1.0))
