"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests -q"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cspi  # noqa: E402
import cspi.cli  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _dump(obj) -> bytes:
    return repr(obj).encode()


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs(workload):
    gen = inputs.GENERATORS[workload]
    assert _dump(gen(7)) == _dump(gen(7))
    assert _dump(gen(7)) != _dump(gen(8))


def test_inputs_do_not_depend_on_the_process():
    code = "import inputs; print(repr([g(7) for _, g in sorted(inputs.GENERATORS.items())]))"
    outs = [
        subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": h}).stdout
        for h in ("1", "2")
    ]
    assert outs[0] == outs[1] and len(outs[0]) > 1000


@pytest.mark.parametrize("modes,degree", [(1, 5), (2, 8), (3, 4), (3, 8)])
def test_operator_shape_depends_only_on_the_cell(modes, degree):
    ops = [inputs.hermitian_operator(inputs.rng_for("t", s), modes, degree) for s in (1, 2)]
    profiles = [sorted(sum(c + a for c, a in k) for k in op) for op in ops]
    assert profiles[0] == profiles[1] and max(profiles[0]) == degree
    assert ops[0] != ops[1]
    for op in ops:  # Hermitian: coefficient of k^dagger is the conjugate of that of k
        assert all(op[inputs._dagger(k)] == (re, -im) for k, (re, im) in op.items())


def test_path_values_repeat():
    spec = inputs.path_actions(3)["ops"][0]
    assert workloads._path_values(spec).tobytes() == workloads._path_values(spec).tobytes()


def test_log_grid_spans_the_range_with_small_jitter():
    sizes = inputs.log_grid(inputs.rng_for("t", 1), 1e3, 1e7 + 1, 16)
    assert len(sizes) == 16 and min(sizes) >= 1e3 and max(sizes) <= 1e7 + 1
    assert max(sizes) > 0.97e7 and min(sizes) < 1.03e3
    for k, x in enumerate(sizes):
        assert abs(x / (1e3 * (1e4 + 1e-3) ** (k / 15)) - 1) <= 0.0201


@pytest.mark.parametrize("N", [1, 3, 11, 41])
@pytest.mark.parametrize("A,beta", [(1.0, 1.0), (0.7, 1.3)])
def test_lattice_closed_forms_match_direct_sums(N, A, beta):
    assert oracles.normal_dFdA(N, A, beta) == pytest.approx(oracles.direct_normal_dFdA(N, A, beta), rel=1e-30)
    assert oracles.weyl_dFdA(N, A, beta) == pytest.approx(oracles.direct_weyl_dFdA(N, A, beta), rel=1e-30)
    assert oracles.weyl_logZ(N, A, beta) == pytest.approx(oracles.direct_weyl_logZ(N, A, beta), rel=1e-30)


@pytest.mark.parametrize("b", [0, 1, 5, 40])
def test_cutoff_digamma_form_matches_direct_sum(b):
    for shift in (0.0, -0.5, -1.0):
        assert oracles.cutoff_dFdA(b, 0.7, 1.3, shift) == pytest.approx(
            oracles.direct_cutoff_dFdA(b, 0.7, 1.3, shift), rel=1e-30
        )


@pytest.mark.parametrize("N", [9, 41, 101])
def test_shell_product_form_matches_direct_sum(N):
    assert oracles.prefactor_log_empirical(N, 4, 1.3) == pytest.approx(
        oracles.direct_prefactor_log_empirical(N, 4, 1.3), rel=1e-30
    )


@pytest.mark.parametrize("N", [83, 101, 1001])
def test_flow_closed_form_matches_direct_recursion(N):
    closed = oracles.flow_final(N, 0.7, 1.3, 40)
    direct = oracles.direct_flow_final(N, 0.7, 1.3, 40)
    assert closed[0] == pytest.approx(direct[0], rel=1e-28)
    assert closed[1] == pytest.approx(direct[1], rel=1e-25)


def test_symbol_oracle_matches_hand_result():
    # ad a a  ->  Weyl symbol zbar z^2 - z,  anti-normal symbol zbar z^2 - 2 z
    terms = {((1, 2),): (oracles.Fraction(1), oracles.Fraction(0))}
    assert oracles.as_complex(oracles.symbol(terms, "weyl")) == {((1, 2),): 1.0, ((0, 1),): -1.0}
    assert oracles.as_complex(oracles.symbol(terms, "antinormal")) == {((1, 2),): 1.0, ((0, 1),): -2.0}


def test_symmetrized_product_oracle_matches_hand_result():
    # (ad a + a ad) / 2 = ad a + 1/2
    one = (oracles.Fraction(1), oracles.Fraction(0))
    got = oracles.as_complex(oracles.symmetrized_product([(one, 0, True), (one, 0, False)], 1))
    assert got == {((1, 1),): 1.0, ((0, 0),): 0.5}


def test_printed_polynomials_read_back():
    rng = inputs.rng_for("t", 2)
    terms = oracles.as_complex(inputs.hermitian_operator(rng, 2, 4))
    poly = cspi.BosonPoly(terms, 2)
    from cspi.expr import format_operator

    assert oracles.parse_poly_text(format_operator(poly), 2) == dict(poly.terms)
    assert oracles.parse_poly_text(inputs.format_operator_text(inputs.hermitian_operator(rng, 1, 3)), 1)


def test_fock_oracle_matches_number_operator():
    H = oracles.fock_matrix({((1, 1), (0, 0)): 1.0, ((0, 0), (1, 1)): 2.0}, 2, 3)
    occ = [(i, j) for i in range(4) for j in range(4)]
    assert oracles.np.allclose(H.diagonal(), [i + 2 * j for i, j in occ], rtol=1e-14, atol=0)
    assert oracles.np.count_nonzero(H) == 15  # the vacuum entry is 0


def test_action_oracle_matches_quadratic_closed_form():
    # constant path z: normal action = -N delta A |z|^2 for H = A zbar z
    values = oracles.np.full((5, 1), 0.3 + 0.1j)
    got = oracles.action("normal", values, "time", {((1, 1),): 2.0}, beta=1.0)
    assert got == pytest.approx(-2.0 * abs(0.3 + 0.1j) ** 2)


def _wrapped_bindings():
    found = []
    for name, module in list(sys.modules.items()):
        if name == "cspi" or name.startswith("cspi."):
            found += [f"{name}.{a}" for a, v in vars(module).items() if hasattr(v, "__wrapped__")]
    if hasattr(cspi.SymbolPoly.__dict__["evaluate"], "__wrapped__"):
        found.append("SymbolPoly.evaluate")
    return found


def test_tracer_wraps_then_restores_every_binding(capsys):
    original = cspi.cli.normal_discrete_dFdA
    with tracing.Tracer() as tracer:
        assert cspi.cli.normal_discrete_dFdA is not original
        assert cspi.discrete.normal_discrete_dFdA is cspi.cli.normal_discrete_dFdA
        assert "SymbolPoly.evaluate" in _wrapped_bindings()
        assert cspi.cli.main(["free-energy", "--N", "1001,10001"]) == 0
        self_s, calls, counts = tracer.take()
    assert calls["cli.main"] == 1 and calls["normal_discrete_dFdA"] == 2
    assert counts["discrete.freq_terms"] == 2 * (1001 + 10001)
    assert self_s["cli.main"] > 0
    assert _wrapped_bindings() == []
    assert cspi.cli.normal_discrete_dFdA is original
    assert cspi.normal_discrete_dFdA is original


def test_checks_accept_cspi_output_and_reject_a_wrong_value():
    ops = workloads.build("operators", 5)
    reorder = next(op for op in ops if op.spec["kind"] == "reorder" and op.spec["modes"] == 1)
    workloads.attach_references([reorder])
    assert not reorder.check(reorder.run()).failed
    code, out, err = reorder.run()
    header, row = out.splitlines()
    bad = row.rsplit(",", 1)[0] + "," + "7.0 + " + row.rsplit(",", 1)[1]
    verdict = reorder.check((code, header + "\n" + bad + "\n", err))
    assert verdict.failed and verdict.wrong


def test_tally_counts_each_op_once_however_many_passes():
    import run

    def op(name, failed):
        return workloads.Op(name, lambda: None, {}, check=lambda _: workloads.Verdict(failed=failed))

    ops = [op("flow 1001", True), op("flow 1001", True), op("cutoff 10", False)]
    tally = run.Tally(ops)
    for _ in range(3):
        tally.add(ops, [None] * len(ops))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert not tally.wrong


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = run.layer_metrics([({}, {}, {})], [0.0], 0.0)
    layer["trace.wall_s"] = run.metric(1.0, "s")
    assert {k: v["unit"] for k, v in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_quantile_estimate():
    import run

    values = [float(x) for x in range(1, 102)]
    assert run.quantile(values, 0.5) == pytest.approx(51.0, rel=1e-9)
    assert 85 < run.quantile(values, run.tail_percentile(101)) < 95
    assert run.tail_percentile(48) == pytest.approx(37 / 47)
