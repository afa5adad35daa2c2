"""Truncated-Fock-space oracle: matrices, partition functions, quadrature."""

import functools
import itertools
import math
import re
import time
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
from cspi.fock import RADIAL_NODES_MAX, _mode_quadrature

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
    # a count that fits in 64 bits is given in full, a larger one as a power
    for modes, n_max, states in [(64, 1, 2**64), (65, 1, "2^65"), (40, 2, 3**40), (41, 2, "3^41")]:
        with pytest.raises(ValueError, match=re.escape(f"over {states} Fock states needs ")):
            FockBasis(modes, n_max)
    # no count wider than 64 bits is formed: each is refused at once, in little memory
    for modes, n_max in [(166, 8), (4507, 8), (10**7, 2), (10**18, 1)]:
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="Fock states .* GiB budget"):
                FockBasis(modes, n_max)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01 and peak <= 2**20
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
    # matrix indices follow `states`: the number operator of mode i is diagonal
    # with entries n_i, and ad_i takes state n to n + e_i with amplitude
    # sqrt(n_i + 1); 70 one-state modes passed numpy's 64-dimension limit of an
    # occupancy grid
    for modes, n_max in [(1, 0), (1, 5), (3, 0), (3, 2), (4, 1), (70, 0)]:
        basis = FockBasis(modes, n_max)
        states = basis.states
        assert states == list(itertools.product(range(n_max + 1), repeat=modes))
        for i in range(modes):
            a, ad = BosonPoly.annihilate(i, modes), BosonPoly.create(i, modes)
            number = hamiltonian_matrix(multiply(ad, a), basis)
            assert np.array_equal(number, np.diag([float(n[i]) for n in states]))
            steps = np.zeros((len(states), len(states)))
            for col, n in enumerate(states):
                if n[i] < n_max:
                    row = states.index(n[:i] + (n[i] + 1,) + n[i + 1 :])
                    steps[row, col] = steps[col, row] = math.sqrt(n[i] + 1)
            assert np.array_equal(hamiltonian_matrix(a + ad, basis), steps)


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


def _check_from_powers(basis, radial: int, angular: int, margin: int) -> float:
    """The identity check's deviation from its three powers, each within 1 ulp of mpmath's.

    E's largest and smallest diagonal entry d and d_min to the power modes,
    and max(o, d) to the power modes - 1, o its largest off-diagonal |E|.
    """
    with np.errstate(all="ignore"):
        t, wt = np.polynomial.laguerre.laggauss(radial)
    E = _mode_quadrature(t, wt, angular, basis.n_max - margin)
    d_min, d = float(np.diagonal(E).min()), float(np.diagonal(E).max())
    o = float(np.abs(E - np.diag(np.diagonal(E))).max())
    modes = basis.modes
    with mpmath.workdps(40):
        for x, k in [(d, modes), (d_min, modes), (max(o, d), modes - 1)]:
            assert abs(mpmath.mpf(x**k) - mpmath.mpf(x) ** k) <= math.ulp(x**k)
    return max(d**modes - 1.0, 1.0 - d_min**modes, o * max(o, d) ** (modes - 1))


def test_resolution_identity_matches_per_state_products(per_state_identity_deviation, monkeypatch):
    # the deviation is formed from the correctly rounded powers of E's extreme
    # entries, and the products formed state by state, each rounded modes - 1
    # times, agree within that rounding, on every cap within the budget and
    # every even margin; the node sets, the same for every basis, are computed
    # once per count
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
            assert got == _check_from_powers(basis, radial, angular, margin)
            want = per_state_identity_deviation(basis, radial, angular, margin)
            assert abs(got - want) <= (modes - 1) * 2**-53 * (1.0 + want)
            cases += 1
    assert cases == 3360
    basis = FockBasis(10**5, 0)
    got = check_resolution_identity(basis, 64, 64)
    assert got == _check_from_powers(basis, 64, 64, 0)
    want = per_state_identity_deviation(basis, 64, 64)
    assert abs(got - want) <= (10**5 - 1) * 2**-53 * (1.0 + want)


def test_resolution_identity_memory_is_constant_in_the_mode_count():
    # three powers of one-mode entries, no per-mode list or array
    for modes in [10**9, 10**18]:
        tracemalloc.start()
        try:
            check_resolution_identity(FockBasis(modes, 0), 64, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    # E at cap 0 is d = 1 - 2^-53: the deviation is within an ulp of d^(1e9)
    got = check_resolution_identity(FockBasis(10**9, 0), 64, 64)
    d = float(np.polynomial.laguerre.laggauss(64)[1].sum())
    assert d == 1.0 - 2**-53
    with mpmath.workdps(40):
        want = abs(mpmath.mpf(d) ** 10**9 - 1)
    assert abs(got - want) <= math.ulp(1.0 - got)


def test_resolution_identity_power_past_the_float_range():
    # E at cap 0 is 1 + 2^-52 on 6 radial nodes: its 1e19th power overflows
    assert float(np.polynomial.laguerre.laggauss(6)[1].sum()) == 1.0 + 2**-52
    assert check_resolution_identity(FockBasis(10**19, 0), 6, 1, 0) == math.inf


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
