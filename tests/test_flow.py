"""Frequency-shell renormalization: exactness, scaling, free-theory limit."""

import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cspi.discrete
import cspi.errors
from cspi import (
    EvenSliceCountError,
    MatsubaraGrid,
    NumericalError,
    QuadraticModel,
    prefactor_log_empirical,
    run_flow,
)
from cspi.cli import main
from cspi.discrete import _SHELL_BLOCK, _half_tan, _Sum2
from cspi.errors import BYTES_MAX


def test_free_theory_flow_matches_shell_product():
    # oracle: the closed shell product for c_{B,b}, accumulated in the same
    # descending order the flow visits shells
    N, b_floor = 10**3 + 1, 17
    grid = MatsubaraGrid(N, 1.0)
    model = QuadraticModel(A=0.0, beta=1.0)
    result = run_flow(model, grid, b_floor)
    oracle = (N - 1) * math.log(2.0)
    for shell in range((N - 1) // 2, b_floor, -1):
        half_tan = math.tan(math.pi * shell / N)
        oracle -= math.log(4.0 * half_tan * half_tan)
    assert abs(result.log_c_series[-1] - oracle) <= 1e-12
    assert np.all(result.corrections == 0.0)
    # the lattice log Z diverges at A = 0, so there is no conservation residual
    assert result.conservation_residuals is None


def test_accumulated_correction_tail():
    model = QuadraticModel(A=1.0, beta=1.0)
    grid = MatsubaraGrid(10**4 + 1, 1.0)
    acc100 = run_flow(model, grid, 100).corrections.sum()
    acc200 = run_flow(model, grid, 200).corrections.sum()
    assert acc100 < 1e-2
    # doubling the floor roughly halves the 1/b tail
    assert 0.35 <= acc200 / acc100 <= 0.65


def test_flow_validation(unchecked_model):
    grid = MatsubaraGrid(101, 1.0)
    model = QuadraticModel(A=1.0, beta=1.0)
    with pytest.raises(ValueError):
        run_flow(model, grid, 50)  # b_floor == top shell
    with pytest.raises(ValueError):
        run_flow(model, grid, -1)
    with pytest.raises(ValueError):
        run_flow(model, grid, 10, modes=0)
    with pytest.raises(EvenSliceCountError):
        run_flow(model, MatsubaraGrid(100, 1.0), 10)
    # the step-term check is explicit code, so it also holds under python -O
    with pytest.raises(NumericalError, match="step terms are not finite"):
        run_flow(unchecked_model(math.nan, 1.0), grid, 10)


@pytest.mark.parametrize("N", [1, 2])
def test_flow_below_three_slices_names_N(N, capsys):
    # at N = 1 the b_floor check read "b_floor must be in 0..-1"
    with pytest.raises(ValueError, match=f"needs N >= 3, one shell above the floor; got N={N}$"):
        run_flow(QuadraticModel(A=1.0, beta=1.0), MatsubaraGrid(N, 1.0), 0)
    assert main(["flow", "--N", str(N)]) == 2
    assert capsys.readouterr().err == f"error: the flow needs N >= 3, one shell above the floor; got N={N}\n"


def test_flow_at_three_slices_takes_its_one_step():
    result = run_flow(QuadraticModel(A=1.0, beta=1.0), MatsubaraGrid(3, 1.0), 0)
    assert list(result.shells) == [1]
    assert result.corrections.shape == result.log_c_series.shape == (1,)
    assert result.conservation_residuals[0] <= 1e-9


def test_non_finite_flow_is_an_error():
    # beta A / N = 1e197: c^2 overflows, and the correction logs with it
    with pytest.raises(NumericalError, match="not finite"):
        run_flow(QuadraticModel(A=1e200, beta=1.0), MatsubaraGrid(1001, 1.0), 40)


def test_flow_shell_bookkeeping():
    result = run_flow(QuadraticModel(A=1.0, beta=1.0), MatsubaraGrid(101, 1.0), 10)
    assert list(result.shells) == list(range(50, 10, -1))
    assert result.corrections.shape == result.shells.shape
    assert result.conservation_residuals.shape == result.shells.shape


@pytest.mark.parametrize(
    "A, beta, N",
    [
        (A, beta, N)
        for A, beta in [(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)]
        for N in [10**5 + 1, 10**6 + 1, 2 * 10**6 + 1]
    ]
    + [(1.5, 1.5, 10**7 + 1)],
)
def test_conservation_gate_at_scale(N, A, beta):
    # the same 1e-9 gate as cspi flow; a plain float cumsum of the steps
    # misses it from N ~ 8e4 on, np.tan's top-shell tangents from 2e6 on, and
    # log c summed down from (N - 1) ln 2 at 1e7+1 (1.07e-9)
    result = run_flow(QuadraticModel(A=A, beta=beta), MatsubaraGrid(N, beta), b_floor=40)
    assert result.conservation_residuals.max() <= 1e-9


@pytest.mark.parametrize("A, beta", [(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)])
def test_conservation_residual_is_not_rounded_at_n_ln_2(A, beta):
    # the Berry and pair prefixes reach N ln 2 = 6.9e6, whose ulp is 9.3e-10;
    # as a running sum of the per-shell defect the residual is
    # 2.6e-11 .. 4.9e-11 here, and rounded as one sum it was 6e-10 .. 9e-10
    N = 10**7 + 1
    result = run_flow(QuadraticModel(A=A, beta=beta), MatsubaraGrid(N, beta), b_floor=40)
    assert result.conservation_residuals.max() <= 1e-10


@pytest.mark.parametrize("N", [101, 1001])
def test_run_flow_matches_step_loop(N, step_loop_flow):
    model = QuadraticModel(A=1.3, beta=0.9)
    grid = MatsubaraGrid(N, 0.9)
    b_floor = 3
    result = run_flow(model, grid, b_floor, modes=2)
    shells, corrections, log_c = step_loop_flow(model, grid, b_floor, modes=2)
    assert np.array_equal(result.shells, shells)
    assert np.array_equal(result.corrections, corrections)
    assert np.abs(result.log_c_series - log_c).max() <= 1e-12


@pytest.mark.parametrize("N", [10**3 + 1, 10**6 + 1, 2 * 10**6 + 1, 10**7 + 1])
def test_half_tan_against_mpmath(N):
    # the top shells sit next to the pole, where np.tan(pi n / N) is ~N eps / pi
    # off relative; also the lowest shells and both sides of the switch at N/4
    top = (N - 1) // 2
    n = np.concatenate(
        [np.arange(1, 4), np.arange(N // 4 - 2, N // 4 + 3), np.arange(top - 15, top + 1)]
    )
    with mpmath.workdps(40):
        exact = [mpmath.tan(mpmath.pi * int(k) / N) for k in n]
        rel = [abs(mpmath.mpf(float(t)) / e - 1) for t, e in zip(_half_tan(n, N), exact)]
    assert max(rel) <= 4 * np.finfo(float).eps


def _streamed_prefix(x, block):
    """The compensated prefix sums of ``x``, fed to one ``_Sum2`` in blocks of ``block``.

    Each block's ``below`` gives the sums before its entries, so the sums
    through them are those below shifted by one, and the last is ``total``.
    """
    total, below = _Sum2(), np.empty(len(x) + 1)
    for lo in range(0, len(x), block):
        part = x[lo : lo + block]
        below[lo : lo + len(part)] = total.below(part)
    below[-1] = total.total
    return below[1:]


def test_compensated_prefix_matches_fsum():
    # mixed signs, magnitudes 1e-8 .. 1e8: the sampled prefixes have condition
    # numbers sum|x| / |sum x| up to a few thousand, and a plain cumsum is
    # hundreds of ulps off
    rng = np.random.default_rng(20261018)
    n = 50_000
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    prefix = _streamed_prefix(x, 4999)  # blocks that the sampled prefixes straddle
    for i in range(0, n, 997):
        exact = math.fsum(x[: i + 1])
        assert abs(prefix[i] - exact) <= np.spacing(abs(exact))


def test_large_c_flow_is_finite():
    # c = beta A / N = 1e4: far above every shell's 2 tan, the steps stay finite
    model = QuadraticModel(A=1e6, beta=1.0)
    result = run_flow(model, MatsubaraGrid(101, 1.0), 5)
    assert np.all(np.isfinite(result.log_c_series))
    assert np.all(np.isfinite(result.corrections))


@pytest.mark.parametrize("block", [1, 2, 997, 4999, 50_000])
def test_streamed_prefix_matches_whole_array_sum(block, whole_array_cumsum):
    # the carried state (running sum, running error) makes block edges invisible
    rng = np.random.default_rng(7)
    x = rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-8.0, 8.0, 50_000)
    assert np.array_equal(_streamed_prefix(x, block), whole_array_cumsum(x))


_B = _SHELL_BLOCK
_ORACLE_SIZES = [2 * _B + 1, 2 * _B + 3, 4 * _B + 83, 10**6 + 1]
_ORACLE_FLOORS = [0, 40, _B - 1, _B, _B + 1]


@pytest.mark.parametrize(
    "N, b_floor",
    [(N, b) for N in _ORACLE_SIZES for b in _ORACLE_FLOORS if b < (N - 1) // 2],
)
@pytest.mark.parametrize("A, modes", [(1.3, 1), (1.3, 2), (-0.7, 1)])
def test_run_flow_matches_whole_array_oracle(N, b_floor, A, modes, whole_array_flow):
    # block edges fall inside the steps, on the floor (b_floor = B - 1, B, B + 1)
    # and next to the top shell; A < 0 has no conservation residual
    model, grid = QuadraticModel(A=A, beta=0.9), MatsubaraGrid(N, 0.9)
    result = run_flow(model, grid, b_floor, modes)
    oracle = whole_array_flow(model, grid, b_floor, modes)
    assert np.array_equal(result.shells, oracle.shells)
    assert np.array_equal(result.corrections, oracle.corrections)
    assert np.array_equal(result.log_c_series, oracle.log_c_series)
    if A > 0:
        assert np.array_equal(result.conservation_residuals, oracle.conservation_residuals)
    else:
        assert result.conservation_residuals is None and oracle.conservation_residuals is None


@pytest.mark.parametrize("N", [2 * _B + 1, 4 * _B + 83, 10**6 + 1])
@pytest.mark.parametrize("b_floor, modes", [(0, 1), (40, 2), (_B - 1, 1)])
def test_defect_sum_matches_prefix_difference(N, b_floor, modes, prefix_difference_residuals):
    # the running defect sum against compensated Berry and pair prefixes of
    # size N ln 2 subtracted apart: the two round differently, both at the
    # scale of the residual's own terms, not of N ln 2
    model, grid = QuadraticModel(A=1.3, beta=0.9), MatsubaraGrid(N, 0.9)
    result = run_flow(model, grid, b_floor, modes)
    reference = prefix_difference_residuals(model, grid, b_floor, modes)
    assert np.abs(result.conservation_residuals - reference).max() <= 4e-16


def _flow_rows(argv, capsys):
    """The metric rows of one ``cspi flow`` run, as exact floats (the CSV keeps 17 digits)."""
    main(["flow", *argv])
    lines = capsys.readouterr().out.splitlines()[1:]
    return {name: float(value) for name, value, _ in (line.split(",") for line in lines)}


# (b_floor, fit window, modes): the windows cross the block edge at shell _B
_CLI_CASES = [
    (40, None, 1),
    (0, (1, 8300), 2),
    (_B - 1, (8000, 8400), 1),
    (_B, (8100, 8300), 1),
    (_B + 1, (8100, 8400), 1),
]


@pytest.mark.parametrize(
    "N, b_floor, window, modes",
    [
        (N, b, window, modes)
        for N in _ORACLE_SIZES
        for b, window, modes in _CLI_CASES
        if b < (N - 1) // 2
        and min((window or (50, 500))[1], (N - 1) // 2) > max((window or (50, 500))[0], b + 1)
    ],
)
def test_flow_command_matches_run_flow(N, b_floor, window, modes, capsys):
    # cspi flow streams the shells and keeps a few numbers per block; what it
    # reports is what run_flow's arrays give
    argv = ["--N", str(N), "--A", "1.3", "--beta", "0.9", "--b-floor", str(b_floor)]
    argv += ["--modes", str(modes)]
    if window is not None:
        argv += ["--fit-window", f"{window[0]},{window[1]}"]
    rows = _flow_rows(argv, capsys)
    result = run_flow(QuadraticModel(A=1.3, beta=0.9), MatsubaraGrid(N, 0.9), b_floor, modes)
    assert rows["max_conservation_residual"] == result.conservation_residuals.max()
    assert rows["final_log_c"] == result.log_c_series[-1]
    assert rows["final_A_eff"] == 1.3  # the quadratic coefficient does not flow
    total = result.corrections.sum()
    assert abs(rows["accumulated_correction"] - total) <= 4 * np.spacing(total)
    lo, hi = window or (50, min(500, (N - 1) // 8))
    fit = (result.shells >= max(lo, b_floor + 1)) & (result.shells <= hi)
    slope = np.polyfit(np.log(result.shells[fit]), np.log(result.corrections[fit]), 1)[0]
    assert rows["correction_slope"] == slope


def test_flow_command_memory_is_a_few_blocks(capsys):
    # run_flow's outputs alone would be 32 MB at this N
    main(["flow", "--N", "1001"])  # the first run's imports and caches are not the flow's
    tracemalloc.start()
    try:
        code = main(["flow", "--N", str(2 * 10**6 + 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


def test_run_flow_memory_is_outputs_plus_blocks():
    # the four returned arrays are the only ones that grow with N; everything
    # else is a few blocks of shells, here allowed 32 float64 blocks (2 MB).
    # The whole-array flow peaked at 88 MB, 56 MB over the outputs.
    N = 2 * 10**6 + 1
    model, grid = QuadraticModel(A=1.0, beta=1.0), MatsubaraGrid(N, 1.0)
    allowance = 32 * 8 * _SHELL_BLOCK
    tracemalloc.start()
    try:
        result = run_flow(model, grid, b_floor=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = (
        result.shells, result.corrections, result.log_c_series, result.conservation_residuals
    )
    assert peak <= sum(a.nbytes for a in outputs) + allowance


@pytest.mark.parametrize(
    "A, beta",
    [
        (math.nan, 1.0),  # the step terms are nan
        (1e200, 1.0),  # c^2 overflows: the steps are not finite
        (1e157, 1.0),  # c^2 is finite but c^2 / 4 tan^2 overflows at the low shells
    ],
)
def test_run_flow_errors_match_whole_array_oracle(A, beta, unchecked_model, whole_array_flow):
    # same error, message and warnings as the whole-array flow, although the
    # streamed flow forms every block's pair terms before any check
    grid = MatsubaraGrid(4 * _SHELL_BLOCK + 83, beta)
    outcomes = []
    for flow in (run_flow, whole_array_flow):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError) as exc:
                flow(unchecked_model(A, beta), grid, 40)
        outcomes.append((str(exc.value), sorted({str(w.message) for w in caught})))
    assert outcomes[0] == outcomes[1]


def test_overflowing_c_squared_is_refused_before_any_block(capsys):
    # beta A / N = 1e195 with 9000 shells below the floor: c^2 overflows, and were
    # the floor's blocks fed first, their compensated defect total would split
    # an inf (inf - inf, an invalid-value warning and a traceback under -W error)
    message = "flow step terms are not finite at beta A / N = 9.9999e+194"
    argv = ["--N", "100001", "--A", "1e200", "--b-floor", "9000", "--fit-window", "9100,9500"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=re.escape(message)):
            run_flow(QuadraticModel(A=1e200, beta=1.0), MatsubaraGrid(100001, 1.0), 9000)
        assert main(["flow", *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("block", [1, 7, 64, 999])
@pytest.mark.parametrize("N", [1001, 3001, 20011])
def test_where_a_block_starts_changes_no_bit(N, block, monkeypatch, capsys):
    # the flow starts its step blocks at b_floor + 1 and the prefactor its blocks
    # at 1: the tangents are elementwise, the Berry prefix and the defect sum
    # carry their state, and the one-signed totals are correctly rounded
    model, grid = QuadraticModel(A=1.3, beta=0.9), MatsubaraGrid(N, 0.9)
    floors = [0, 6, 7, 8, 40, 63, 64, 65]

    def outputs():
        flows, stdout = [], []
        for b_floor in floors:
            result = run_flow(model, grid, b_floor)
            flows += [result.shells, result.corrections, result.log_c_series]
            flows.append(result.conservation_residuals)
            main(["flow", "--N", str(N), "--A", "1.3", "--beta", "0.9", "--b-floor", str(b_floor)])
            stdout.append(capsys.readouterr().out)
        bs = [*floors, (N - 1) // 2]
        return flows, stdout, [prefactor_log_empirical(N, b, 0.9) for b in bs]

    flows, stdout, prefactors = outputs()
    monkeypatch.setattr(cspi.discrete, "_SHELL_BLOCK", block)
    blocked_flows, blocked_stdout, blocked_prefactors = outputs()
    assert all(map(np.array_equal, blocked_flows, flows))
    assert blocked_stdout == stdout
    assert blocked_prefactors == prefactors


@pytest.mark.parametrize("N", [999353, 10**6 + 1, 2 * 10**6 + 1])
@pytest.mark.parametrize("A, beta", [(1.0, 1.0), (0.5, 1.5)])
def test_final_log_c_against_mpmath(N, A, beta):
    # by the closed-form lattice log Z, the pair logs of all shells less those
    # at or below the floor: log c = ln c - N ln(1 + c/2) - ln(1 - r^N)
    # + sum_{k <= b} ln(c^2 + 4 tan^2(pi k / N)), r = (2 - c)/(2 + c).
    # Summed down from (N - 1) ln 2, log c was 1.2e-14 .. 5.5e-14 off relative.
    b_floor = 40
    result = run_flow(QuadraticModel(A=A, beta=beta), MatsubaraGrid(N, beta), b_floor)
    with mpmath.workdps(40):
        c = mpmath.mpf(beta) * A / N
        r = (2 - c) / (2 + c)
        low = mpmath.fsum(
            mpmath.log(c * c + 4 * mpmath.tan(mpmath.pi * k / N) ** 2)
            for k in range(1, b_floor + 1)
        )
        exact = mpmath.log(c) - N * mpmath.log1p(c / 2) - mpmath.log(1 - r**N) + low
        rel = abs(mpmath.mpf(result.log_c_series[-1]) / exact - 1)
    assert rel <= 4 * np.finfo(float).eps


def test_run_flow_refuses_outputs_over_budget():
    # one step past the 1 GiB budget: four 8-byte arrays of 2^25 + 1 steps, or
    # three at A = 0, which has no conservation residuals
    b_floor = 40
    for A, step_bytes in [(1.0, 32), (0.0, 24)]:
        N = 2 * (BYTES_MAX // step_bytes + 1 + b_floor) + 1
        model, grid = QuadraticModel(A=A, beta=1.0), MatsubaraGrid(N, 1.0)
        message = f"^the flow at N = {N} needs 1 GiB, over the 1 GiB budget$"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                run_flow(model, grid, b_floor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


def _totals(x, cuts):
    """The totals of ``x`` fed in the blocks between ``cuts``, by ``add`` and by ``below``."""
    edges = [0, *sorted(cuts), len(x)]
    by_add, by_below = _Sum2(), _Sum2()
    for lo, hi in zip(edges, edges[1:]):
        by_add.add(x[lo:hi])
        by_below.below(x[lo:hi])
    return by_add.total, by_below.total


def _total_bound(x) -> Fraction:
    """eps |S| + 8 (n + 2)^3 eps^2 max|x| with eps = 2^-53, S = fsum(x), and one more eps |S|.

    Sum2's total is within eps |S| + gamma_{n-1}^2 sum|x| of S (Ogita, Rump &
    Oishi 2005, Prop. 4.5), and sum|x| <= n max|x|.  ``add`` rounds only its
    low parts, n or fewer of at most eps sigma < 2 (n + 2) eps max|x| each,
    and their sums and carries: at most about 6 n^3 eps^2 max|x| over any
    blocks.  The second eps |S| is the distance of S to fsum's rounding.
    """
    eps = Fraction(1, 2**53)
    big = Fraction(float(np.abs(x).max(initial=0.0)))
    return 2 * eps * abs(Fraction(math.fsum(x))) + 8 * (len(x) + 2) ** 3 * eps**2 * big


_SUMMANDS = st.lists(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False), max_size=200
)


@given(
    _SUMMANDS,
    st.booleans(),
    st.lists(st.integers(min_value=0, max_value=200), max_size=12),
)
@example([1.0] + [2.0**-54] * 4 + [-(2.0**-52)], False, [1, 3])  # exactly 1
@example([2.0**60, 1.0, -(2.0**60), 2.0**-60], False, [])  # exact cancellation
@example([0.7] * 7 + [-4.9], False, [7])
def test_total_feed_matches_fsum(values, one_signed, cuts):
    # random blocks, one-signed as the flow's, or of mixed signs and
    # magnitudes from 1e-300 to 1e300 with cancellation
    x = np.abs(values) if one_signed else np.array(values, dtype=float)
    cuts = [c for c in cuts if c <= len(x)]
    exact = Fraction(math.fsum(x))
    for total in _totals(x, cuts):
        assert abs(Fraction(total) - exact) <= _total_bound(x)


@pytest.mark.parametrize(
    "x, cuts",
    [
        (np.array([]), []),  # nothing fed
        (np.array([1.5, 2.25]), [0, 0, 1, 2, 2]),  # empty blocks before, between and after
        (np.zeros(5), [2]),
        (np.array([-0.0, 0.0, -0.0]), []),
        (np.full(6, 0.5), []),  # (n + 2) max|x| = 4, a power of two; total 3
        (np.full(8, 0.5), [3]),  # total 4
        (np.full(100, 0.1 * 2.0**-60), []),  # a plain sum is an ulp off: sigma scales with x
        (np.array([1.0] + [2.0**-54] * 4 + [-(2.0**-52)]), [2]),  # total 1, a plain sum 1 - eps
        (np.array([3.0, 2.0**-53, 2.0**-53, -1.0]), [1]),  # total 2 + 2^-52 (plain sum 2)
        (np.array([1.0, 2.0**-53, 2.0**-53]), [1, 2]),  # the carries' TwoSum errors add up
        (np.full(11, -0.3636363636363636), []),  # n max|x| = 4 - 4 eps: sigma 4 is too small
        (np.random.default_rng(5).uniform(0.5, 1.0, _B), []),  # a full block
        (np.array([1e20] + [1e-3] * 8191), []),  # one large element among many tiny
        (np.array([1e-3] * 4095 + [1e20] + [1e-3] * 4096), [4000, 4100]),
    ],
)
def test_total_feed_edge_cases(x, cuts):
    # each of these totals is exactly representable or well conditioned: both
    # feeds give fsum's correctly rounded total
    by_add, by_below = _totals(x, cuts)
    assert by_add == by_below == math.fsum(x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 4, 9])
def test_total_feed_keeps_non_finite_values(bad, where):
    x = np.linspace(-3.0, 5.0, 10)
    x[where] = bad
    total = _Sum2()
    total.add(np.ones(3))
    with np.errstate(invalid="ignore"):  # inf - inf in the split
        total.add(x)
    total.add(np.ones(3))
    assert not math.isfinite(total.total)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_shell_below_the_floor_is_an_error(bad, monkeypatch, capsys):
    # a non-finite tangent below the floor reaches only the Berry and defect
    # totals; log c is then not finite, and the walk says so
    half_tan = cspi.discrete._half_tan

    def spoiled(n, N):
        out = half_tan(n, N)
        out[n == 7] = bad
        return out

    monkeypatch.setattr(cspi.discrete, "_half_tan", spoiled)
    model, grid = QuadraticModel(A=1.3, beta=0.9), MatsubaraGrid(1001, 0.9)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="flow log c is not"):
        run_flow(model, grid, 40)
    with np.errstate(invalid="ignore"):
        assert main(["flow", "--N", "1001", "--A", "1.3", "--beta", "0.9"]) == 2
    assert "error: flow log c is not finite: nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "N, b_floor",
    [(N, b) for N in (1001, 2 * _B + 3, 4 * _B + 83) for b in (0, 40, _B - 1, _B + 1) if b < N // 2],
)
def test_flow_command_takes_no_correction_prefix(N, b_floor, monkeypatch, capsys):
    # the only prefix feed cspi flow uses is the Berry sum below the floor,
    # b_floor shells in all; the corrections and the floor defect feed totals
    fed = []
    below = _Sum2.below

    def counted(self, x):
        fed.append(len(x))
        return below(self, x)

    monkeypatch.setattr(_Sum2, "below", counted)
    window = f"{b_floor + 1},{min(b_floor + 400, (N - 1) // 2)}"
    assert main(["flow", "--N", str(N), "--b-floor", str(b_floor), "--fit-window", window]) in (0, 1)
    capsys.readouterr()
    assert sum(fed) == b_floor


@pytest.mark.parametrize("A, step_bytes", [(1.0, 32), (0.0, 24)])
def test_run_flow_budget_boundary(A, step_bytes, monkeypatch):
    # outputs of exactly the budget are made; one byte over, none are
    model, grid, b_floor = QuadraticModel(A=A, beta=1.0), MatsubaraGrid(1001, 1.0), 40
    steps = (grid.N - 1) // 2 - b_floor
    monkeypatch.setattr(cspi.errors, "BYTES_MAX", steps * step_bytes)
    assert len(run_flow(model, grid, b_floor).shells) == steps
    monkeypatch.setattr(cspi.errors, "BYTES_MAX", steps * step_bytes - 1)
    with pytest.raises(ValueError, match="GiB budget"):
        run_flow(model, grid, b_floor)
