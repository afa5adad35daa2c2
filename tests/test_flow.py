"""Frequency-shell renormalization: exactness, scaling, free-theory limit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cspi import (
    EvenSliceCountError,
    FlowState,
    MatsubaraGrid,
    NumericalError,
    QuadraticModel,
    initial_state,
    remaining_gaussian_logZ,
    renorm_step,
    run_flow,
    weyl_discrete_logZ_quadratic,
)
from cspi.flow import _compensated_cumsum


def test_initial_state():
    grid = MatsubaraGrid(11, 1.0)
    state = initial_state(grid, QuadraticModel(A=1.0, beta=1.0))
    assert state.shell == 5
    assert state.log_c == pytest.approx(10 * math.log(2.0))
    assert state.A_eff == 1.0
    with pytest.raises(EvenSliceCountError):
        initial_state(MatsubaraGrid(10, 1.0), QuadraticModel(A=1.0, beta=1.0))


def test_free_theory_step_is_pure_berry_factor():
    grid = MatsubaraGrid(101, 1.0)
    state = initial_state(grid, QuadraticModel(A=0.0, beta=1.0))
    advanced, correction = renorm_step(state)
    assert correction == 0.0
    half_tan = math.tan(math.pi * state.shell / 101)
    assert advanced.log_c == state.log_c - math.log(4.0 * half_tan * half_tan)
    assert advanced.shell == state.shell - 1


def test_single_step_conserves_partition_function():
    model = QuadraticModel(A=1.0, beta=1.0)
    grid = MatsubaraGrid(101, 1.0)
    full = weyl_discrete_logZ_quadratic(grid, model)
    state, _ = renorm_step(initial_state(grid, model))
    assert abs(state.log_c + remaining_gaussian_logZ(state) - full) < 1e-10


def test_conservation_at_every_shell():
    N = 10**4 + 1
    model = QuadraticModel(A=1.0, beta=1.0)
    grid = MatsubaraGrid(N, 1.0)
    result = run_flow(model, grid, b_floor=40)
    full = weyl_discrete_logZ_quadratic(grid, model)
    # remaining-shell Gaussian logZ from prefix sums of the pair terms
    c = model.beta * model.A / N
    n = np.arange(1, (N - 1) // 2 + 1)
    pair_terms = np.log(c * c + 4.0 * np.tan(np.pi * n / N) ** 2)
    prefix = np.concatenate([[0.0], np.cumsum(pair_terms)])
    remaining = model.beta * model.A / 2.0 - math.log(c) - prefix[result.shells - 1]
    residuals = np.abs(result.log_c_series + remaining - full)
    assert residuals.max() <= 1e-9


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
    assert abs(result.final.log_c - oracle) <= 1e-12
    assert np.all(result.corrections == 0.0)


def test_correction_scaling_slope():
    result = run_flow(QuadraticModel(A=1.0, beta=1.0), MatsubaraGrid(10**4 + 1, 1.0), 40)
    window = (result.shells >= 50) & (result.shells <= 500)
    slope = np.polyfit(
        np.log(result.shells[window]), np.log(result.corrections[window]), 1
    )[0]
    assert abs(slope + 2.0) <= 0.2


def test_accumulated_correction_tail():
    model = QuadraticModel(A=1.0, beta=1.0)
    grid = MatsubaraGrid(10**4 + 1, 1.0)
    acc100 = run_flow(model, grid, 100).corrections.sum()
    acc200 = run_flow(model, grid, 200).corrections.sum()
    assert acc100 < 1e-2
    # doubling the floor roughly halves the 1/b tail
    assert 0.35 <= acc200 / acc100 <= 0.65


def test_quadratic_coefficient_does_not_flow():
    result = run_flow(QuadraticModel(A=1.7, beta=0.8), MatsubaraGrid(1001, 0.8), 50)
    assert result.final.A_eff == 1.7


def test_flow_validation():
    grid = MatsubaraGrid(101, 1.0)
    model = QuadraticModel(A=1.0, beta=1.0)
    with pytest.raises(ValueError):
        run_flow(model, grid, 50)  # b_floor == top shell
    with pytest.raises(ValueError):
        run_flow(model, grid, -1)
    state = initial_state(grid, model)
    exhausted = state
    for _ in range(50):
        exhausted, _ = renorm_step(exhausted)
    with pytest.raises(ValueError):
        renorm_step(exhausted)
    # the pair-product check is explicit code, so it also holds under python -O
    broken = FlowState(log_c=0.0, A_eff=math.nan, shell=5, grid=grid)
    with pytest.raises(NumericalError):
        renorm_step(broken)


def test_flow_shell_bookkeeping():
    result = run_flow(QuadraticModel(A=1.0, beta=1.0), MatsubaraGrid(101, 1.0), 10)
    assert list(result.shells) == list(range(50, 10, -1))
    assert result.final.shell == 10
    assert result.corrections.shape == result.shells.shape


@pytest.mark.parametrize("N", [10**5 + 1, 10**6 + 1])
@pytest.mark.parametrize("A, beta", [(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)])
def test_conservation_gate_at_scale(N, A, beta):
    # the same 1e-9 gate as cspi flow; a plain float cumsum of the steps
    # misses it from N ~ 8e4 on
    model = QuadraticModel(A=A, beta=beta)
    grid = MatsubaraGrid(N, beta)
    result = run_flow(model, grid, b_floor=40)
    full = weyl_discrete_logZ_quadratic(grid, model)
    remaining = remaining_gaussian_logZ(replace(result.final, shell=result.shells - 1))
    assert np.abs(result.log_c_series + remaining - full).max() <= 1e-9


def test_remaining_logZ_array_matches_scalar():
    model = QuadraticModel(A=1.2, beta=0.7)
    state = initial_state(MatsubaraGrid(1001, 0.7), model, modes=2)
    shells = np.array([0, 1, 17, 499, 500])
    values = remaining_gaussian_logZ(replace(state, shell=shells))
    for shell, value in zip(shells, values):
        scalar = remaining_gaussian_logZ(replace(state, shell=int(shell)))
        assert isinstance(scalar, float)
        assert value == scalar


@pytest.mark.parametrize("N", [101, 1001])
def test_run_flow_matches_step_loop(N):
    # oracle: the single-step API iterated shell by shell
    model = QuadraticModel(A=1.3, beta=0.9)
    grid = MatsubaraGrid(N, 0.9)
    b_floor = 3
    result = run_flow(model, grid, b_floor, modes=2)
    state = initial_state(grid, model, modes=2)
    shells, corrections, log_c = [], [], []
    while state.shell > b_floor:
        shells.append(state.shell)
        state, correction = renorm_step(state)
        corrections.append(correction)
        log_c.append(state.log_c)
    assert np.array_equal(result.shells, shells)
    assert np.array_equal(result.corrections, corrections)
    assert np.abs(result.log_c_series - log_c).max() <= 1e-12
    assert result.final.shell == state.shell
    assert abs(result.final.log_c - state.log_c) <= 1e-12
    assert (result.final.A_eff, result.final.modes) == (state.A_eff, state.modes)


def test_compensated_prefix_matches_fsum():
    # mixed signs, magnitudes 1e-8 .. 1e8: the sampled prefixes have condition
    # numbers sum|x| / |sum x| up to a few thousand, and a plain cumsum is
    # hundreds of ulps off
    rng = np.random.default_rng(20261018)
    n = 50_000
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    prefix = _compensated_cumsum(x)
    for i in range(0, n, 997):
        exact = math.fsum(x[: i + 1])
        assert abs(prefix[i] - exact) <= np.spacing(abs(exact))


def test_large_c_passes_pair_check():
    # c = beta A / N = 1e4: the pair products' imaginary rounding can reach 1e-11
    # in absolute terms, but ~1e-17 relative to the real part
    model = QuadraticModel(A=1e6, beta=1.0)
    result = run_flow(model, MatsubaraGrid(101, 1.0), 5)
    assert np.all(np.isfinite(result.log_c_series))
    assert np.all(np.isfinite(result.corrections))
