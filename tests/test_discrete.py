"""Lattice constructions: DFT conventions, actions, determinants, Gaussians."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from cspi import (
    DiscretePath,
    EvenSliceCountError,
    MatsubaraGrid,
    NumericalError,
    Ordering,
    OrderingTagError,
    QuadraticModel,
    SingularityError,
    SymbolPoly,
    action_antinormal,
    action_normal,
    action_weyl,
    berry_determinant_log,
    parse_operator,
    dft,
    exact_dFdA,
    idft,
    normal_discrete_dFdA,
    weyl_discrete_dFdA,
    to_ordered_form,
    weyl_discrete_logZ_quadratic,
)
from cspi.algebra import EVAL_BLOCK

HARMONIC = 1.3  # generic A used in slice-sum oracles


def _symbol(ordering, shift=0.0, coeff=HARMONIC):
    terms = {((1, 1),): coeff}
    if shift:
        terms[((0, 0),)] = shift
    return SymbolPoly(terms, 1, ordering)


# -- grid and transform ------------------------------------------------------


def test_grid_basics():
    grid = MatsubaraGrid(5, 2.0)
    assert grid.delta == pytest.approx(0.4)
    with pytest.raises(ValueError):
        MatsubaraGrid(0, 1.0)
    with pytest.raises(ValueError):
        MatsubaraGrid(3, -1.0)
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError):
            MatsubaraGrid(3, beta)
    with pytest.raises(TypeError):
        MatsubaraGrid(10.5, 1.0)
    with pytest.raises(TypeError, match="N must be an integer"):
        MatsubaraGrid(True, 1.0)  # was a grid of N = 1
    assert MatsubaraGrid(np.int64(5), 2.0).delta == pytest.approx(0.4)


def test_dft_constant_path():
    grid_N = 7
    path = DiscretePath(np.full(grid_N, 0.3 - 0.2j))
    amps = dft(path)
    assert amps.values[0, 0] == pytest.approx(math.sqrt(grid_N) * (0.3 - 0.2j))
    assert np.abs(amps.values[1:, 0]).max() < 1e-15


def test_dft_single_frequency_basis_vector():
    N, n1 = 9, 2
    ell = np.arange(N)
    path = DiscretePath(np.exp(2j * np.pi * n1 * ell / N) / math.sqrt(N))
    amps = dft(path)
    assert amps.values[n1, 0] == pytest.approx(1.0)
    assert np.abs(np.delete(amps.values[:, 0], n1)).max() < 1e-15


def test_dft_round_trip_and_parseval(waves):
    values = np.column_stack([waves(11, salt=1.0), waves(11, salt=2.5)])
    path = DiscretePath(values)
    back = idft(dft(path))
    assert np.abs(back.values - values).max() < 1e-13
    freq = dft(path)
    assert abs(
        np.sum(np.abs(values) ** 2) - np.sum(np.abs(freq.values) ** 2)
    ) < 1e-12
    with pytest.raises(ValueError):
        dft(freq)
    with pytest.raises(ValueError):
        idft(path)



@pytest.mark.parametrize("transform, domain", [(dft, "time"), (idft, "frequency")])
def test_transform_overflow_is_a_numerical_error(transform, domain):
    # every entry is finite but their sum is not: refused by name, with no numpy warning
    path = DiscretePath(np.full(5, 1.7e308), domain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{transform.__name__} of the path"):
            transform(path)

# -- actions -----------------------------------------------------------------


def test_action_normal_trivial_paths():
    grid = MatsubaraGrid(6, 1.5)
    zero = DiscretePath(np.zeros(6, dtype=complex))
    H = _symbol(Ordering.NORMAL)
    assert action_normal(zero, H, grid) == 0.0
    c = 0.4 + 0.7j
    const = DiscretePath(np.full(6, c))
    # kinetic term cancels on constants; Hamiltonian gives -beta A |c|^2
    expected = -grid.beta * HARMONIC * abs(c) ** 2
    assert action_normal(const, H, grid) == pytest.approx(expected, abs=1e-14)


def test_action_normal_three_slice_oracle(waves):
    grid = MatsubaraGrid(3, 0.8)
    z = waves(3, salt=3.0)
    path = DiscretePath(z)
    # independent summation: cross-slice Hamiltonian arguments (l, l+1)
    expected = 0.0
    for l in range(3):
        z_next = z[(l + 1) % 3]
        expected -= np.conj(z[l]) * (z[l] - z_next)
        expected -= grid.delta * HARMONIC * np.conj(z[l]) * z_next
    assert action_normal(path, _symbol(Ordering.NORMAL), grid) == pytest.approx(expected)


def test_action_normal_quartic_oracle(waves):
    grid = MatsubaraGrid(5, 1.1)
    z = waves(5, salt=8.0)
    path = DiscretePath(z)
    H = SymbolPoly({((2, 2),): 0.6, ((1, 1),): HARMONIC}, 1, Ordering.NORMAL)
    expected = 0.0
    for l in range(5):
        z_next = z[(l + 1) % 5]
        expected -= np.conj(z[l]) * (z[l] - z_next)
        expected -= grid.delta * (
            0.6 * np.conj(z[l]) ** 2 * z_next**2 + HARMONIC * np.conj(z[l]) * z_next
        )
    assert action_normal(path, H, grid) == pytest.approx(expected)


def test_action_antinormal_equal_slice(waves):
    grid = MatsubaraGrid(3, 0.8)
    z = waves(3, salt=3.5)
    path = DiscretePath(z)
    h = _symbol(Ordering.ANTINORMAL, shift=-HARMONIC)
    expected = 0.0
    for l in range(3):
        z_next = z[(l + 1) % 3]
        expected -= np.conj(z[l]) * (z[l] - z_next)
        expected -= grid.delta * (HARMONIC * abs(z[l]) ** 2 - HARMONIC)
    assert action_antinormal(path, h, grid) == pytest.approx(expected)
    zero = DiscretePath(np.zeros(3, dtype=complex))
    # constant shift survives on the zero path: -beta * (-A)
    assert action_antinormal(zero, h, grid) == pytest.approx(grid.beta * HARMONIC)
    c = 0.5 - 0.2j
    const = DiscretePath(np.full(3, c))
    assert action_antinormal(const, h, grid) == pytest.approx(
        -grid.beta * (HARMONIC * abs(c) ** 2 - HARMONIC)
    )


@pytest.mark.parametrize("domain", ["time", "frequency"])
def test_actions_on_a_one_slice_path(domain):
    # N = 1: the kinetic and Berry terms vanish (z_1 = z_0, tan(0) = 0) and each
    # action is -beta sym(conj z_0, z_0); a one-point DFT is the identity
    z = np.array([[0.6 - 0.3j, -0.2 + 0.9j]])
    path = DiscretePath(z, domain)
    grid = MatsubaraGrid(1, 1.7)
    terms = {((1, 1), (0, 0)): 1.3, ((2, 0), (0, 1)): 0.5 - 0.25j, ((0, 2), (1, 0)): 0.5 + 0.25j}
    for action, ordering in [
        (action_normal, Ordering.NORMAL),
        (action_antinormal, Ordering.ANTINORMAL),
        (action_weyl, Ordering.WEYL),
    ]:
        symbol = SymbolPoly(terms, 2, ordering)
        expected = -grid.beta * symbol.evaluate(np.conj(z[0]), z[0])
        assert action(path, symbol, grid) == pytest.approx(expected, rel=1e-14, abs=1e-15)
    with pytest.raises(ValueError, match="shape"):  # one slice is the fewest
        DiscretePath(np.zeros((0, 2)), domain)


def test_action_weyl_against_slice_oracle(waves):
    N, beta = 7, 0.9
    grid = MatsubaraGrid(N, beta)
    z = waves(N, salt=4.2)
    path = DiscretePath(z)
    HW = _symbol(Ordering.WEYL, shift=-HARMONIC / 2)
    # oracle: own DFT loop, tan-weighted frequency sum, slice Hamiltonian sum
    berry = 0.0
    for n in range(-(N - 1) // 2, (N - 1) // 2 + 1):
        amp = sum(z[l] * np.exp(-2j * np.pi * n * l / N) for l in range(N)) / math.sqrt(N)
        berry += 2j * abs(amp) ** 2 * math.tan(math.pi * n / N)
    ham = sum(
        (beta / N) * (HARMONIC * abs(z[l]) ** 2 - HARMONIC / 2) for l in range(N)
    )
    assert action_weyl(path, HW, grid) == pytest.approx(berry - ham, abs=1e-12)


def test_action_weyl_single_frequency_path():
    N, beta, n1 = 9, 1.0, 2
    grid = MatsubaraGrid(N, beta)
    amp = 0.8 - 0.3j
    freq = np.zeros((N, 1), dtype=complex)
    freq[n1, 0] = amp
    path = idft(DiscretePath(freq, domain="frequency"))
    HW = _symbol(Ordering.WEYL)
    # sum_l |z_l|^2 = |amp|^2 (Parseval), so the Hamiltonian sum is Delta*A*|amp|^2
    expected = (
        2j * abs(amp) ** 2 * math.tan(math.pi * n1 / N)
        - beta * HARMONIC * abs(amp) ** 2 / N
    )
    assert action_weyl(path, HW, grid) == pytest.approx(expected, abs=1e-12)


def test_action_weyl_berry_term_imaginary(waves):
    grid = MatsubaraGrid(9, 1.0)
    berry_only = SymbolPoly({}, 1, Ordering.WEYL)
    generic = DiscretePath(waves(9, salt=5.5))
    assert abs(action_weyl(generic, berry_only, grid).real) < 1e-12
    real_path = DiscretePath(np.real(waves(9, salt=6.0)).astype(complex))
    assert abs(action_weyl(real_path, berry_only, grid)) < 1e-12


def test_action_weyl_refuses_even_N():
    grid = MatsubaraGrid(8, 1.0)
    path = DiscretePath(np.zeros(8, dtype=complex))
    with pytest.raises(EvenSliceCountError):
        action_weyl(path, _symbol(Ordering.WEYL), grid)


def test_action_tag_mismatch_refused(waves):
    grid = MatsubaraGrid(5, 1.0)
    path = DiscretePath(waves(5))
    with pytest.raises(OrderingTagError):
        action_normal(path, _symbol(Ordering.WEYL), grid)
    with pytest.raises(OrderingTagError):
        action_antinormal(path, _symbol(Ordering.NORMAL), grid)
    with pytest.raises(OrderingTagError):
        action_weyl(path, _symbol(Ordering.ANTINORMAL), grid)


def test_actions_sum_the_hamiltonian_without_per_slice_values(waves, monkeypatch):
    def per_slice(*args):
        raise AssertionError("an action evaluated the symbol slice by slice")

    monkeypatch.setattr(SymbolPoly, "evaluate", per_slice)
    test_action_normal_three_slice_oracle(waves)
    test_action_normal_quartic_oracle(waves)
    test_action_antinormal_equal_slice(waves)
    test_action_weyl_against_slice_oracle(waves)
    test_action_weyl_single_frequency_path()


@pytest.mark.parametrize("domain", ["time", "frequency"])
@pytest.mark.parametrize(
    "action, ordering",
    [
        (action_normal, Ordering.NORMAL),
        (action_antinormal, Ordering.ANTINORMAL),
        (action_weyl, Ordering.WEYL),
    ],
)
def test_actions_refuse_non_finite_paths_and_values(action, ordering, domain):
    grid = MatsubaraGrid(5, 1.0)
    for bad in (math.nan, math.inf, complex(0.5, -math.inf)):
        values = np.full(5, 0.5 + 0.5j)
        values[2] = bad
        with pytest.raises(ValueError, match="finite"):
            DiscretePath(values, domain)
    # finite values whose |z|^2 overflows: the action was (nan+nanj), with warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="action is not finite"):
            action(DiscretePath(np.full(5, 1e200 + 0j), domain), _symbol(ordering), grid)


@pytest.mark.parametrize("shift", [1, 2, 4])
def test_actions_cyclic_shift_invariant(waves, shift):
    N = 7
    grid = MatsubaraGrid(N, 1.2)
    z = waves(N, salt=7.0)
    shifted = np.roll(z, shift)
    pairs = [
        (action_normal, _symbol(Ordering.NORMAL)),
        (action_antinormal, _symbol(Ordering.ANTINORMAL, shift=-HARMONIC)),
        (action_weyl, _symbol(Ordering.WEYL, shift=-HARMONIC / 2)),
    ]
    for evaluator, symbol in pairs:
        original = evaluator(DiscretePath(z), symbol, grid)
        rolled = evaluator(DiscretePath(shifted), symbol, grid)
        assert abs(original - rolled) < 1e-12


#: Hermitian operators on 1-3 modes, with cross-mode and unpaired-power terms
_BIT_OPERATORS = (
    "ad_0*a_0 + 0.5*ad_0^2*a_0^2 + (0.25-0.75i)*ad_0^3 + (0.25+0.75i)*a_0^3",
    "ad_0*a_1 + ad_1*a_0 + ad_0*a_0*ad_1^2*a_1^2 + (0.5+1.5i)*ad_1^2*a_0 + (0.5-1.5i)*ad_0*a_1^2",
    "ad_2*a_2 + (1-2i)*ad_0*ad_1*a_2^2 + (1+2i)*ad_2^2*a_1*a_0 + 0.3*ad_0^2*a_1^2 + 0.3*ad_1^2*a_0^2",
)


def _actions_as_three_bodies(path, symbols, grid):
    """The three actions as each had its own body, formula for formula."""
    k = np.arange(grid.N)
    frequencies = 2.0 * np.pi * np.where(k < (grid.N + 1) // 2, k, k - grid.N) / grid.N
    if path.domain == "time":
        z, z_freq = path.values, np.fft.fft(path.values, axis=0, norm="ortho")
    else:
        z, z_freq = np.fft.ifft(path.values, axis=0, norm="ortho"), path.values
    kinetic = np.sum(np.conj(z) * (z - np.roll(z, -1, axis=0)))
    half_tan = np.tan(frequencies / 2.0)
    berry = 2j * np.sum(np.abs(z_freq) ** 2 * half_tan[:, np.newaxis])
    return (
        complex(-(kinetic + grid.delta * symbols[Ordering.NORMAL].path_sum(z, 1))),
        complex(-(kinetic + grid.delta * symbols[Ordering.ANTINORMAL].path_sum(z, 0))),
        complex(berry - grid.delta * symbols[Ordering.WEYL].path_sum(z, 0)),
    )


@pytest.mark.parametrize("N", [1, 7, 1001, 2 * EVAL_BLOCK + 37, 100003])
@pytest.mark.parametrize("domain", ["time", "frequency"])
@pytest.mark.parametrize("modes", [1, 2, 3])
def test_one_action_body_moves_no_bit(N, domain, modes, waves):
    # tan(pi n / N) is tan(omega_n / 2) bit for bit, since 2 pi n / N halves exactly
    poly = parse_operator(_BIT_OPERATORS[modes - 1])
    symbols = {o: to_ordered_form(poly, o) for o in Ordering}
    grid = MatsubaraGrid(N, 1.3)
    path = DiscretePath(np.column_stack([waves(N, salt=0.9 * m) for m in range(modes)]), domain)
    merged = tuple(
        action(path, symbols[o], grid)
        for action, o in [
            (action_normal, Ordering.NORMAL),
            (action_antinormal, Ordering.ANTINORMAL),
            (action_weyl, Ordering.WEYL),
        ]
    )
    separate = _actions_as_three_bodies(path, symbols, grid)
    # bit for bit, save the sign of a zero part: at N = 1 the Berry sum is exactly 0,
    # and -(-2i * 0 + h) has the imaginary part -0.0 where 2i * 0 - h had +0.0
    def parts(values):
        return [repr(x) if x else "0" for v in values for x in (v.real, v.imag)]

    assert merged == separate and parts(merged) == parts(separate)


# -- determinant product identity ---------------------------------------------


def test_berry_determinant_closed_values():
    assert berry_determinant_log(1).log_value == 0.0
    assert berry_determinant_log(3).log_value == pytest.approx(math.log(0.25))
    even = berry_determinant_log(4)
    assert even.is_zero and even.log_value is None
    assert berry_determinant_log(5, modes=3).log_value == pytest.approx(
        3 * (1 - 5) * math.log(2.0)
    )
    assert berry_determinant_log(np.int64(3)).log_value == pytest.approx(math.log(0.25))
    with pytest.raises(TypeError):
        berry_determinant_log(10.5)
    with pytest.raises(TypeError):
        berry_determinant_log(5, modes=1.5)


def test_berry_determinant_against_direct_product():
    # direct oracle accumulates logs (the raw product underflows near N~2100):
    # the +-w pair product is cos^2(w/2), the w=0 factor is 1
    for N in range(1, 202, 2):
        direct = sum(
            2.0 * math.log(math.cos(math.pi * n / N)) for n in range(1, (N - 1) // 2 + 1)
        )
        assert abs(berry_determinant_log(N).log_value - direct) < 1e-10


# -- frequency-domain Gaussians ------------------------------------------------


def test_normal_discrete_single_slice():
    model = QuadraticModel(A=2.0, beta=1.5)
    value = normal_discrete_dFdA(MatsubaraGrid(1, 1.5), model)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_normal_discrete_converges_to_exact():
    model = QuadraticModel(A=1.0, beta=1.0)
    exact = exact_dFdA(model)
    errors = []
    for N in (10**3, 10**4, 10**5):
        value = normal_discrete_dFdA(MatsubaraGrid(N, 1.0), model)
        errors.append(abs(value - exact))
    assert errors[-1] / exact <= 1e-3
    slope = np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(errors), 1)[0]
    assert abs(slope + 1.0) <= 0.15


def test_normal_discrete_even_N_supported():
    model = QuadraticModel(A=1.0, beta=1.0)
    exact = exact_dFdA(model)
    assert abs(normal_discrete_dFdA(MatsubaraGrid(10**4, 1.0), model) - exact) < 1e-3


def test_normal_discrete_pole_detection():
    with pytest.raises(SingularityError):
        normal_discrete_dFdA(MatsubaraGrid(3, 1.0), QuadraticModel(A=0.0, beta=1.0))
    # beta A / N = 2 puts the omega = pi denominator exactly at zero
    for N in (2, 4, 1000):
        with pytest.raises(SingularityError):
            normal_discrete_dFdA(MatsubaraGrid(N, 1.0), QuadraticModel(A=2.0 * N, beta=1.0))


def test_normal_discrete_dFdA_past_q_minus_one():
    # beta A / N = 3300 / 1101, q = 1 - beta A / N = -1.997: q^N overflows a float,
    # so the value comes from 1 / (q^(1-N) - q)
    N, A = 1101, 3300.0
    value = normal_discrete_dFdA(MatsubaraGrid(N, 1.0), QuadraticModel(A=A, beta=1.0))
    with mpmath.workdps(40):
        q = 1 - mpmath.mpf(A) / N
        exact = q ** (N - 1) / (1 - q**N)
    assert abs(value / exact - 1) <= 4 * np.finfo(float).eps

def test_weyl_logZ_single_slice():
    model = QuadraticModel(A=0.7, beta=2.0)
    value = weyl_discrete_logZ_quadratic(MatsubaraGrid(1, 2.0), model)
    beta_A = 1.4
    assert value == pytest.approx(beta_A / 2.0 - math.log(beta_A), rel=1e-14)


def test_weyl_logZ_converges_to_fock_geometric_series():
    from cspi import FockBasis, hamiltonian_matrix, partition_function, suggested_n_max
    from cspi import BosonPoly, multiply

    model = QuadraticModel(A=1.0, beta=1.0)
    number = multiply(BosonPoly.create(0), BosonPoly.annihilate(0))
    basis = FockBasis(1, suggested_n_max(model))
    target = math.log(partition_function(hamiltonian_matrix(number, basis), 1.0))
    errors = []
    for N in (21, 201, 2001):
        value = weyl_discrete_logZ_quadratic(MatsubaraGrid(N, 1.0), model)
        errors.append(abs(value - target))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] / abs(target) <= 1e-3


def test_weyl_logZ_refusals():
    model = QuadraticModel(A=1.0, beta=1.0)
    with pytest.raises(EvenSliceCountError):
        weyl_discrete_logZ_quadratic(MatsubaraGrid(10, 1.0), model)
    with pytest.raises(SingularityError):
        weyl_discrete_logZ_quadratic(MatsubaraGrid(11, 1.0), QuadraticModel(A=-1.0, beta=1.0))
    with pytest.raises(SingularityError):  # the zero mode diverges at A = 0 as well
        weyl_discrete_logZ_quadratic(MatsubaraGrid(11, 1.0), QuadraticModel(A=0.0, beta=1.0))


def test_weyl_dFdA_values_and_convergence():
    model = QuadraticModel(A=2.0, beta=1.5)
    value = weyl_discrete_dFdA(MatsubaraGrid(1, 1.5), model)
    assert value == pytest.approx(1.0 / 3.0 - 0.5, rel=1e-14)
    model = QuadraticModel(A=1.0, beta=1.0)
    err = abs(weyl_discrete_dFdA(MatsubaraGrid(2001, 1.0), model) - exact_dFdA(model))
    assert err / exact_dFdA(model) < 1e-3
    with pytest.raises(EvenSliceCountError):
        weyl_discrete_dFdA(MatsubaraGrid(4, 1.0), model)


@pytest.mark.parametrize(
    "fn", [normal_discrete_dFdA, weyl_discrete_dFdA, weyl_discrete_logZ_quadratic]
)
def test_paired_sum_residue_raises_numerical_error(fn, unchecked_model):
    # explicit checks, not asserts: they hold under python -O as well
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        fn(MatsubaraGrid(11, 1.0), unchecked_model(math.nan, 1.0))


# -- closed forms against the O(N) paired sums and a 40-digit reference --------

CLOSED_FORMS = [normal_discrete_dFdA, weyl_discrete_dFdA, weyl_discrete_logZ_quadratic]

#: every N the test, README and CI sweeps run, up to the 1e6+1 of the flow
SWEEP_NS = [1, 2, 3, 10, 11, 21, 101, 201, 301, 501, 1000, 1001, 2000, 2001,
            10**4, 10**4 + 1, 10**5, 10**5 + 1, 10**6 + 1]

#: (N, beta A): c = beta A / N >= 1, c = 2 (Weyl r = 0, normal q = -1 at odd N),
#: c > 2, even N, beta A / N = 1e4, A < 0, and |beta A| so small that the
#: powers of q and r sit next to 1
EDGE_CASES = [(3, 4.5), (4, 4.0), (5, 12.5), (5, 10.0), (3, 6.0), (2, 2.5),
              (10, 25.0), (11, -1.0), (101, 1.01e6), (100, 1.0e6), (1001, -30.0),
              (10**6 + 1, 1e-6), (10**6 + 1, -1e-6)]

EPS = np.finfo(float).eps


def _oracle(paired_frequency_sum, fn, N, beta_A):
    """The O(N) frequency sum each closed form replaces, at beta = 1."""
    c = beta_A / N
    if fn is normal_discrete_dFdA:
        return paired_frequency_sum(lambda n: 1.0 / (N * (np.exp(-2j * np.pi * n / N) - 1.0 + c)), N)

    def weyl_factor(n):
        return c - 2j * np.tan(np.pi * n / N)

    if fn is weyl_discrete_dFdA:
        return paired_frequency_sum(lambda n: 1.0 / (N * weyl_factor(n)), N) - 0.5
    log_sum = paired_frequency_sum(lambda n: np.log(weyl_factor(n)), N)
    return (N - 1) * math.log(2.0) + beta_A / 2.0 - log_sum


def _applies(fn, N, beta_A):
    if fn is normal_discrete_dFdA:
        return not (N % 2 == 0 and beta_A == 2 * N)  # the omega = pi pole
    return N % 2 == 1 and (beta_A > 0 or fn is weyl_discrete_dFdA)


def _closed(fn, N, beta_A):
    return fn(MatsubaraGrid(N, 1.0), QuadraticModel(A=beta_A, beta=1.0))


def _assert_matches_oracle(paired_frequency_sum, fn, N, beta_A):
    value = _closed(fn, N, beta_A)
    reference = _oracle(paired_frequency_sum, fn, N, beta_A)
    # the oracle's own rounding grows like N eps (see conftest)
    assert abs(value - reference) <= 16 * EPS * N * max(1.0, abs(value)), (N, beta_A)


@pytest.mark.parametrize("beta_A", [0.25, 1.0, 2.25, -1.0])
@pytest.mark.parametrize("fn", CLOSED_FORMS)
def test_closed_form_matches_paired_sum_on_sweeps(fn, beta_A, paired_frequency_sum):
    for N in SWEEP_NS:
        if _applies(fn, N, beta_A):
            _assert_matches_oracle(paired_frequency_sum, fn, N, beta_A)


@pytest.mark.parametrize("N, beta_A", EDGE_CASES)
@pytest.mark.parametrize("fn", CLOSED_FORMS)
def test_closed_form_matches_paired_sum_at_edges(fn, N, beta_A, paired_frequency_sum):
    if _applies(fn, N, beta_A):
        _assert_matches_oracle(paired_frequency_sum, fn, N, beta_A)


def _mp_closed(fn, N, beta_A):
    c = mpmath.mpf(beta_A) / N
    if fn is normal_discrete_dFdA:
        q = 1 - c
        return q ** (N - 1) / (1 - q**N)
    r = (2 - c) / (2 + c)
    if fn is weyl_discrete_dFdA:
        return -c / (2 * (2 + c)) + 4 * r ** (N - 1) / ((2 + c) ** 2 * (1 - r**N))
    return mpmath.mpf(beta_A) / 2 - N * mpmath.log(1 + c / 2) - mpmath.log(1 - r**N)


def _mp_sum(fn, N, beta_A):
    """The frequency sum itself at 40 digits: ties _mp_closed to the definitions."""
    c = mpmath.mpf(beta_A) / N
    n = range(-((N - 1) // 2), N // 2 + 1)
    if fn is normal_discrete_dFdA:
        terms = [1 / (N * (mpmath.expjpi(-2 * mpmath.mpf(k) / N) - 1 + c)) for k in n]
        return mpmath.re(mpmath.fsum(terms))
    half_tans = [mpmath.tan(mpmath.pi * k / N) for k in n]
    if fn is weyl_discrete_dFdA:
        return mpmath.re(mpmath.fsum(1 / (N * (c - 2j * t)) for t in half_tans)) - mpmath.mpf(0.5)
    log_sum = mpmath.fsum(mpmath.log(c * c + 4 * t * t) for t in half_tans) / 2
    return (N - 1) * mpmath.log(2) + mpmath.mpf(beta_A) / 2 - log_sum


@pytest.mark.parametrize("fn", CLOSED_FORMS)
def test_mpmath_closed_form_is_the_frequency_sum(fn):
    with mpmath.workdps(40):
        small = [(N, beta_A) for N, beta_A in EDGE_CASES if N <= 11]
        for N, beta_A in [(1, 1.0), (11, 2.25), (101, 0.25), (4, 1.0)] + small:
            if _applies(fn, N, beta_A):
                gap = abs(_mp_closed(fn, N, beta_A) - _mp_sum(fn, N, beta_A))
                assert gap < mpmath.mpf(10) ** -30, (N, beta_A)


@pytest.mark.parametrize("fn", CLOSED_FORMS)
def test_closed_form_against_mpmath(fn):
    cases = [(10**k + 1 if k else 1, beta_A) for k in range(8) for beta_A in (0.25, 1.0, 2.25)]
    if fn is weyl_discrete_dFdA:
        # the value is about -c/4, which -1/2 + 1/(2 + c) would bury in its rounding
        cases += [(1001, 30.0), (10**5 + 1, 20.0), (10**7 + 1, 30.0)]
    if fn is weyl_discrete_logZ_quadratic:
        # the value is about beta A c / 8, which beta A / 2 - N ln(1 + c/2) would bury
        cases += [(1001, 30.0), (10**5 + 1, 20.0), (10**7 + 1, 20.0), (10**7 + 1, 30.0)]
    with mpmath.workdps(40):
        for N, beta_A in cases + EDGE_CASES:
            if _applies(fn, N, beta_A):
                reference = _mp_closed(fn, N, beta_A)  # exactly 0 for normal order at c = 1
                error = abs(_closed(fn, N, beta_A) - reference)
                assert error <= 4e-15 * abs(reference), (N, beta_A, float(error))

