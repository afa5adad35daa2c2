"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is fixed, nothing is calibrated at runtime.
"""

import math

import numpy as np
import pytest

from cspi import (
    BosonPoly,
    FockBasis,
    MatsubaraGrid,
    Ordering,
    QuadraticModel,
    SymbolPoly,
    berry_determinant_log,
    check_resolution_identity,
    cutoff_dFdA,
    dft,
    DiscretePath,
    action_antinormal,
    action_normal,
    action_weyl,
    exact_dFdA,
    hamiltonian_matrix,
    idft,
    multiply,
    normal_discrete_dFdA,
    partition_function,
    prefactor_log_closed,
    prefactor_log_empirical,
    quantize,
    run_flow,
    suggested_n_max,
    to_ordered_form,
    weyl_discrete_logZ_quadratic,
)
from cspi.cli import main as cli_main

A_OP = BosonPoly.annihilate(0)
AD_OP = BosonPoly.create(0)


def _report(number: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_c1_ordering_identities(brute_force_symmetrize):
    A = 1.7
    H = A * multiply(AD_OP, A_OP)
    anti = to_ordered_form(H, Ordering.ANTINORMAL)
    weyl = to_ordered_form(H, Ordering.WEYL)
    exact_shifts = anti == SymbolPoly(
        {((1, 1),): A, ((0, 0),): -A}, 1, Ordering.ANTINORMAL
    ) and weyl == SymbolPoly({((1, 1),): A, ((0, 0),): -A / 2}, 1, Ordering.WEYL)

    # Weyl symbol of ad^2 a^2 vs brute-force symmetrizer, in Fock space
    quartic = multiply(multiply(AD_OP, AD_OP), multiply(A_OP, A_OP))
    symbol = to_ordered_form(quartic, Ordering.WEYL)
    rebuilt = BosonPoly.zero(1)
    for ((c, q),), coeff in symbol.terms.items():
        rebuilt = rebuilt + coeff * brute_force_symmetrize([AD_OP] * c + [A_OP] * q, 1)
    basis = FockBasis(1, 10)
    diff = hamiltonian_matrix(rebuilt, basis) - hamiltonian_matrix(quartic, basis)
    residual = float(np.abs(diff[:7, :7]).max())  # occupancies up to n_max - 4

    _report(
        1,
        "ordering identities",
        exact_shifts and residual <= 1e-10,
        f"shifts exact={exact_shifts}, symmetrizer residual={residual:.2e} <= 1e-10",
    )


def test_c2_product_identity():
    ok = True
    for N in range(1, 202, 2):
        det = berry_determinant_log(N)
        ok = ok and not det.is_zero and det.log_value == (1 - N) * math.log(2.0)
    for N in range(2, 201, 2):
        det = berry_determinant_log(N)
        ok = ok and det.is_zero and det.log_value is None
    _report(2, "product identity", ok, "2^(1-N) for odd N <= 201, zero flag for even N <= 200")


def test_c3_discrete_normal_order_convergence():
    model = QuadraticModel(A=1.0, beta=1.0)
    exact = exact_dFdA(model)
    Ns = [10**3, 10**4, 10**5]
    errors = [
        abs(normal_discrete_dFdA(MatsubaraGrid(N, 1.0), model) - exact) for N in Ns
    ]
    slope = float(np.polyfit(np.log(Ns), np.log(errors), 1)[0])
    rel = errors[-1] / exact
    ok = abs(slope + 1.0) <= 0.15 and rel <= 1e-3
    _report(
        3,
        "discrete normal-order convergence",
        ok,
        f"slope={slope:.3f} within -1+-0.15, rel error at N=1e5 {rel:.2e} <= 1e-3",
    )


def test_c4_discrete_weyl_convergence():
    model = QuadraticModel(A=1.0, beta=1.0)
    number = multiply(AD_OP, A_OP)
    basis = FockBasis(1, suggested_n_max(model))
    target = math.log(partition_function(hamiltonian_matrix(number, basis), 1.0))
    errors = [
        abs(weyl_discrete_logZ_quadratic(MatsubaraGrid(N, 1.0), model) - target)
        for N in (201, 2001)
    ]
    rel = errors[-1] / abs(target)
    ok = rel <= 1e-3 and errors[1] < errors[0]
    _report(
        4,
        "discrete Weyl convergence",
        ok,
        f"rel error at N=2001 {rel:.2e} <= 1e-3, decreasing in N",
    )


def test_c5_continuum_discrepancy():
    model = QuadraticModel(A=1.0, beta=1.0)
    coth_half = 0.5 / math.tanh(0.5)
    bs = [10**3, 10**4, 10**5]
    errors = [
        abs(cutoff_dFdA(model, b, Ordering.NORMAL) - coth_half)
        for b in bs
    ]
    slope = float(np.polyfit(np.log(bs), np.log(errors), 1)[0])
    shift_exact = all(
        abs(
            cutoff_dFdA(model, b, Ordering.WEYL)
            - cutoff_dFdA(model, b, Ordering.NORMAL)
            + 0.5
        )
        < 1e-14
        for b in (0, 1, 10, 1000, 10**5)
    )
    ok = abs(slope + 1.0) <= 0.15 and shift_exact
    _report(
        5,
        "continuum discrepancy",
        ok,
        f"normal-order slope={slope:.3f} within -1+-0.15, Weyl-Normal=-1/2 to 1e-14",
    )


def test_c6_prefactor_asymptotics():
    closed = prefactor_log_closed(4, 1.0)
    rels = [
        abs(prefactor_log_empirical(N, 4, 1.0) - closed) / abs(closed)
        for N in (10**3 + 1, 10**4 + 1, 10**5 + 1)
    ]
    ok = rels[-1] <= 1e-2 and rels[0] > rels[1] > rels[2]
    _report(
        6,
        "prefactor asymptotics",
        ok,
        f"rel diff at N=1e5+1 {rels[-1]:.2e} <= 1e-2, monotone {rels} decreasing",
    )


def test_c7_renormalization_exactness_and_scaling():
    N = 10**4 + 1
    model = QuadraticModel(A=1.0, beta=1.0)
    grid = MatsubaraGrid(N, 1.0)
    result = run_flow(model, grid, b_floor=40)

    # (a) conservation of the partition function at every shell
    full = weyl_discrete_logZ_quadratic(grid, model)
    c = model.beta * model.A / N
    n = np.arange(1, (N - 1) // 2 + 1)
    prefix = np.concatenate(
        [[0.0], np.cumsum(np.log(c * c + 4.0 * np.tan(np.pi * n / N) ** 2))]
    )
    remaining = model.beta * model.A / 2.0 - math.log(c) - prefix[result.shells - 1]
    residual = float(np.abs(result.log_c_series + remaining - full).max())

    # (b) per-shell correction scaling over shells 50..500
    window = (result.shells >= 50) & (result.shells <= 500)
    slope = float(
        np.polyfit(np.log(result.shells[window]), np.log(result.corrections[window]), 1)[0]
    )

    # (c) accumulated correction halves when the floor doubles
    acc100 = run_flow(model, grid, 100).corrections.sum()
    acc200 = run_flow(model, grid, 200).corrections.sum()
    ratio = acc200 / acc100

    ok = residual <= 1e-9 and abs(slope + 2.0) <= 0.2 and 0.35 <= ratio <= 0.65
    _report(
        7,
        "renormalization exactness and scaling",
        ok,
        f"conservation residual={residual:.2e} <= 1e-9, slope={slope:.3f} within "
        f"-2+-0.2, floor-doubling ratio={ratio:.3f} within 0.5+-30%",
    )


def test_c8_resolution_of_identity():
    deviation = check_resolution_identity(FockBasis(1, 8), 64, 64, margin=2)
    _report(8, "resolution of identity", deviation <= 1e-6, f"deviation={deviation:.2e} <= 1e-6")


def test_c9_property_suites(tmp_path, waves):
    # ordering round-trips
    poly = BosonPoly(
        {((2, 1),): 0.3 - 0.8j, ((1, 1),): 1.25, ((0, 2),): -0.5j, ((0, 0),): 2.0}, 1
    )
    round_trips = all(
        quantize(to_ordered_form(poly, t)).equals(poly, tol=1e-12) for t in Ordering
    )

    # Hermiticity of symbols
    hermitian = poly + poly.adjoint()
    self_conjugate = all(
        to_ordered_form(hermitian, t).is_self_conjugate(tol=1e-12) for t in Ordering
    )

    # DFT unitarity / Parseval
    path = DiscretePath(waves(9, salt=9.0))
    freq = dft(path)
    parseval = (
        abs(np.sum(np.abs(path.values) ** 2) - np.sum(np.abs(freq.values) ** 2)) < 1e-12
        and np.abs(idft(freq).values - path.values).max() < 1e-13
    )

    # cyclic-shift invariance of the three actions
    grid = MatsubaraGrid(9, 1.0)
    rolled = DiscretePath(np.roll(path.values, 3, axis=0))
    symbols = {
        action_normal: SymbolPoly({((1, 1),): 1.0}, 1, Ordering.NORMAL),
        action_antinormal: SymbolPoly({((1, 1),): 1.0, ((0, 0),): -1.0}, 1, Ordering.ANTINORMAL),
        action_weyl: SymbolPoly({((1, 1),): 1.0, ((0, 0),): -0.5}, 1, Ordering.WEYL),
    }
    shift_invariant = all(
        abs(evaluator(path, symbol, grid) - evaluator(rolled, symbol, grid)) < 1e-12
        for evaluator, symbol in symbols.items()
    )

    # CLI determinism: byte-identical CSV for identical configs
    first, second = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["free-energy", "--N", "101,1001", "--out", str(first)]) == 0
    assert cli_main(["free-energy", "--N", "101,1001", "--out", str(second)]) == 0
    deterministic = first.read_bytes() == second.read_bytes()

    ok = round_trips and self_conjugate and parseval and shift_invariant and deterministic
    _report(
        9,
        "property suites",
        ok,
        f"round_trips={round_trips}, self_conjugate={self_conjugate}, "
        f"parseval={parseval}, shift_invariant={shift_invariant}, "
        f"cli_deterministic={deterministic}",
    )
