"""Sharp-cutoff continuum sums and the normalization prefactor."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from cspi import (
    EvenSliceCountError,
    NumericalError,
    Ordering,
    QuadraticModel,
    SingularityError,
    cutoff_dFdA,
    exact_dFdA,
    prefactor_log_closed,
    prefactor_log_empirical,
)

MODEL = QuadraticModel(A=1.0, beta=1.0)


def test_cutoff_b0_single_term():
    for ordering, shift in [
        (Ordering.NORMAL, 0.0),
        (Ordering.ANTINORMAL, -1.0),
        (Ordering.WEYL, -0.5),
    ]:
        value = cutoff_dFdA(MODEL, 0, ordering)
        assert value == pytest.approx(1.0 + shift, rel=1e-14)


def test_cutoff_normal_converges_to_coth():
    coth_half = 0.5 / math.tanh(0.5)
    errors = []
    for b in (10**3, 10**4, 10**5):
        value = cutoff_dFdA(MODEL, b, Ordering.NORMAL)
        errors.append(abs(value - coth_half))
    slope = np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(errors), 1)[0]
    assert abs(slope + 1.0) <= 0.15
    assert errors[-1] < 1e-5


@pytest.mark.parametrize("b", [0, 1, 7, 100, 12345])
def test_weyl_minus_normal_is_constant_shift(b):
    weyl = cutoff_dFdA(MODEL, b, Ordering.WEYL)
    normal = cutoff_dFdA(MODEL, b, Ordering.NORMAL)
    assert abs((weyl - normal) + 0.5) < 1e-14


@pytest.mark.parametrize("beta_A", [0.5, 1.0, 2.0])
def test_weyl_cutoff_converges_to_exact(beta_A):
    model = QuadraticModel(A=beta_A, beta=1.0)
    value = cutoff_dFdA(model, 10**5, Ordering.WEYL)
    assert abs(value - exact_dFdA(model)) <= 1e-4


@pytest.mark.parametrize("beta_A", [0.25, 1.0, 2.25, -1.0, 1e4])
def test_cutoff_matches_paired_sum(beta_A, paired_frequency_sum):
    # the complex +-l pairs 1/(2 pi i l + beta A), l = -b .. b, are the frequencies of N = 2b + 1
    model = QuadraticModel(A=beta_A, beta=1.0)
    for b in (0, 1, 7, 100, 12345, 10**5):
        oracle = paired_frequency_sum(lambda ell: 1.0 / (2j * np.pi * ell + beta_A), 2 * b + 1)
        value = cutoff_dFdA(model, b, Ordering.NORMAL)
        assert abs(value - oracle) <= 8 * np.finfo(float).eps * abs(oracle), (b, value, oracle)


def _cutoff_reference(b, beta_A):
    """sign(x) [coth(|x|/2)/2 - Im psi(b + 1 + i|x|/2pi)/pi], x = beta A, to 40 digits.

    Below b = |x|/2pi the two terms agree to about log10 |x| digits, which the
    working precision adds.
    """
    with mpmath.workdps(40 + max(0, math.ceil(math.log10(abs(beta_A))))):
        x = abs(mpmath.mpf(beta_A))
        tail = mpmath.im(mpmath.digamma(b + 1 + 1j * x / (2 * mpmath.pi))) / mpmath.pi
        return math.copysign(float(mpmath.coth(x / 2) / 2 - tail), beta_A)


def _eps_error(value, reference):
    return abs(value - reference) / (np.finfo(float).eps * abs(reference))


def test_cutoff_reference_matches_direct_mpmath_sum():
    for beta_A in (0.25, -2.25, 30.0, 1e4):
        for b in (0, 1, 7, 100):
            with mpmath.workdps(40):
                terms = [1 / (2j * mpmath.pi * ell + beta_A) for ell in range(-b, b + 1)]
                direct = float(mpmath.re(mpmath.fsum(terms)))
            assert _eps_error(_cutoff_reference(b, beta_A), direct) <= 1.0, (beta_A, b)


@pytest.mark.parametrize(
    "beta_A",
    [0.25, 1.0, 2.25, 30.0, 1e4, -0.25, -1.0, -2.25, -30.0, -1e4, 1e-8, 700.0, 1e8, -1e8, 1e12, 1e300],
)
def test_cutoff_closed_form_against_mpmath(beta_A):
    # at |beta A| = 1e8 and up most b lie below a = |beta A| / 2 pi; at 1e300, a^2 overflows
    model = QuadraticModel(A=beta_A, beta=1.0)
    for b in (0, 1, 2, 3, 7, 19, 20, 21, 100, 111, 112, 12345, 10**5, 10**6, 10**7, 10**9, 10**12):
        value = cutoff_dFdA(model, b, Ordering.NORMAL)
        assert _eps_error(value, _cutoff_reference(b, beta_A)) <= 4, (b, value)


@pytest.mark.parametrize("beta_A", [1e4, -1e4])
def test_cutoff_regime_boundary(beta_A):
    # around b = |beta A| / 2 pi the tail beyond b is close to the b -> infinity limit
    a = abs(beta_A) / (2 * math.pi)
    model = QuadraticModel(A=beta_A, beta=1.0)
    for b in (math.floor(a), math.ceil(a)):
        value = cutoff_dFdA(model, b, Ordering.NORMAL)
        assert _eps_error(value, _cutoff_reference(b, beta_A)) <= 4, (b, value)


def test_cutoff_cost_independent_of_b(monkeypatch):
    # b = 1e12 terms could not be summed; the closed form builds no array at all
    def no_arange(*args, **kwargs):
        raise AssertionError("the closed form must not build a frequency array")

    monkeypatch.setattr(np, "arange", no_arange)
    value = cutoff_dFdA(MODEL, 10**12, Ordering.NORMAL)
    assert _eps_error(value, _cutoff_reference(10**12, 1.0)) <= 4


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        value = f(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cutoff_memory_independent_of_b():
    # b = 1e6 lies below a = 1.6e11: no term array at any b
    model = QuadraticModel(A=1e12, beta=1.0)
    value, peak = _traced_peak(cutoff_dFdA, model, 10**6, Ordering.NORMAL)
    assert peak < 2**20
    assert _eps_error(value, _cutoff_reference(10**6, 1e12)) <= 4


def test_cutoff_tail_scales_like_inverse_b():
    # tail beyond b is sum 2 beta A / ((2 pi l)^2 + (beta A)^2) <= C / b
    coth_half = 0.5 / math.tanh(0.5)
    for b in (100, 200, 400):
        err = abs(cutoff_dFdA(MODEL, b, Ordering.NORMAL) - coth_half)
        assert err <= (2.0 / (2.0 * math.pi) ** 2) / b * 1.1


def test_cutoff_pole():
    with pytest.raises(SingularityError):
        cutoff_dFdA(QuadraticModel(A=0.0, beta=1.0), 3, Ordering.NORMAL)


def test_cutoff_non_finite_inputs(unchecked_model):
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        cutoff_dFdA(unchecked_model(math.nan, 1.0), 3, Ordering.NORMAL)


def test_prefactor_closed_values():
    assert prefactor_log_closed(0, 1.0) == 0.0
    assert prefactor_log_closed(1, 1.0) == pytest.approx(2.0 * math.log(2.0 * math.pi))
    # beta scaling reads directly off the formula
    for b, beta, modes in [(3, 2.5, 1), (5, 0.7, 2)]:
        delta = prefactor_log_closed(b, beta, modes) - prefactor_log_closed(b, 1.0, modes)
        assert delta == pytest.approx(-modes * (2 * b + 1) * math.log(beta), rel=1e-12)


def test_prefactor_empirical_empty_shell_product():
    N, beta = 11, 1.3
    b = (N - 1) // 2
    expected = (2 * b + 1) * math.log(N / beta) + (N - 1) * math.log(2.0)
    assert prefactor_log_empirical(N, b, beta) == pytest.approx(expected, rel=1e-14)


def test_prefactor_empirical_matches_closed_asymptotically():
    closed = prefactor_log_closed(4, 1.0)
    rels = []
    for N in (10**3 + 1, 10**4 + 1, 10**5 + 1):
        emp = prefactor_log_empirical(N, 4, 1.0)
        rels.append(abs(emp - closed) / abs(closed))
    assert rels == sorted(rels, reverse=True)
    assert rels[-1] <= 1e-2


@pytest.mark.parametrize("N", [3, 5, 21, 101, 201])
def test_root_of_unity_product_identity(N):
    # prod_{w != 0} (1 - e^{iw}) = N; the +-w pair product is 2 - 2 cos w.
    # This identity is what ties the shell product to the closed prefactor.
    log_product = sum(
        math.log(2.0 - 2.0 * math.cos(2.0 * math.pi * n / N))
        for n in range(1, (N - 1) // 2 + 1)
    )
    assert abs(log_product - math.log(N)) < 1e-10


def test_prefactor_empirical_validation():
    # the odd-N rule and message of every symmetric-order entry point
    with pytest.raises(EvenSliceCountError, match="shell product needs odd N"):
        prefactor_log_empirical(10, 2, 1.0)
    with pytest.raises(ValueError):
        prefactor_log_empirical(11, 6, 1.0)
    with pytest.raises(ValueError):
        prefactor_log_empirical(11, -1, 1.0)


def _shell_product_prefactor(N, b, beta, modes=1):
    """The O(N) shell product for c_{B,b}, accumulated in the log domain."""
    shells = np.arange((N - 1) // 2, b, -1)
    half_tan = np.tan(np.pi * shells / N)
    shell_log = float(np.sum(np.log(4.0 * half_tan * half_tan)))
    return (
        (2 * b + 1) * modes * math.log(N / beta)
        + (N - 1) * modes * math.log(2.0)
        - modes * shell_log
    )


@pytest.mark.parametrize("N", [11, 101, 1001, 10001])
def test_prefactor_empirical_matches_shell_product(N):
    # the O(N) oracle subtracts terms of size N ln N, so it is only good to
    # about eps N ln N
    for b in (0, 1, 4, (N - 1) // 2):
        for beta, modes in ((1.0, 1), (0.7, 2)):
            oracle = _shell_product_prefactor(N, b, beta, modes)
            tol = 4 * np.finfo(float).eps * modes * N * math.log(N)
            assert abs(prefactor_log_empirical(N, b, beta, modes) - oracle) <= tol


def test_prefactor_empirical_against_mpmath():
    # 40-digit reference from the tangent-product identity
    # prod_{k<=B} tan(pi k/N) = sqrt(N), itself checked against the direct
    # shell product at small N
    def reference(N, b, beta, direct):
        with mpmath.workdps(40):
            k_top = (N - 1) // 2 if direct else b
            tan_logs = [
                mpmath.log(4 * mpmath.tan(mpmath.pi * k / N) ** 2) for k in range(1, k_top + 1)
            ]
            if direct:
                shells = mpmath.fsum(tan_logs[b:])
            else:
                shells = (N - 1) * mpmath.log(2) + mpmath.log(N) - mpmath.fsum(tan_logs)
            return (2 * b + 1) * mpmath.log(mpmath.mpf(N) / beta) + (N - 1) * mpmath.log(2) - shells

    for N in (11, 101, 1001):
        assert abs(reference(N, 4, 0.7, True) - reference(N, 4, 0.7, False)) < mpmath.mpf(10) ** -30
    for N in (11, 1001, 10**5 + 1, 10**7 + 1):
        for beta in (1.0, 0.7):
            ref = reference(N, 4, beta, False)
            rel = abs(prefactor_log_empirical(N, 4, beta) - ref) / abs(ref)
            assert rel <= 8 * np.finfo(float).eps


def test_prefactor_empirical_memory_is_one_block():
    N, b = 2 * 10**6 + 1, 10**6
    value, peak = _traced_peak(prefactor_log_empirical, N, b, 1.0)
    assert peak < 2**20
    oracle = _shell_product_prefactor(N, b, 1.0)
    assert abs(value - oracle) <= 4 * np.finfo(float).eps * N * math.log(N)


def test_prefactor_empirical_keeps_the_n_tan_scaling():
    # at N = 10^200 + 1 the tangents are about pi k / N: N tan stays near pi k,
    # where 4 tan^2 alone would underflow to 0 and its log to -inf
    value = prefactor_log_empirical(10**200 + 1, 4, 1.0)
    assert abs(value - 21.059124191970653) <= 4 * np.finfo(float).eps * 21.059124191970653
    assert abs(value - prefactor_log_closed(4, 1.0)) < 1e-12


@pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
def test_prefactor_beta_must_be_positive_and_finite(beta):
    with pytest.raises(ValueError, match="beta"):
        prefactor_log_closed(4, beta)
    with pytest.raises(ValueError, match="beta"):
        prefactor_log_empirical(101, 4, beta)
