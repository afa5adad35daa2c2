"""CLI: reports, verdicts, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cspi
from cspi import BosonPoly, cli
from cspi.cli import main


def test_order_command_prints_weyl_symbol(capsys):
    code = main(["order", "--expr", "ad_0*a_0", "--target", "weyl"])
    out = capsys.readouterr()
    assert code == 0
    assert "zbar_0*z_0 - 0.5" in out.out
    assert out.out.startswith("expr,target,symbol\n")


def test_order_trivial_and_quartic(capsys):
    assert main(["order", "--expr", "1", "--target", "normal"]) == 0
    assert "1.0" in capsys.readouterr().out
    assert main(["order", "--expr", "ad_0^2*a_0^2", "--target", "weyl"]) == 0
    out = capsys.readouterr().out
    assert "zbar_0^2*z_0^2 - 2.0*zbar_0*z_0 + 0.5" in out


def test_order_verify_residual(capsys):
    code = main(["order", "--expr", "ad_0^2*a_0^2", "--target", "weyl", "--verify"])
    out = capsys.readouterr()
    assert code == 0
    header, row = out.out.strip().splitlines()
    assert header.endswith(",residual")
    assert float(row.split(",")[-1]) <= 1e-10


def test_order_parse_error_exit_2(capsys):
    assert main(["order", "--expr", "ad_0*", "--target", "weyl"]) == 2
    assert "position" in capsys.readouterr().err


def test_order_unknown_target_exit_2():
    assert main(["order", "--expr", "a_0", "--target", "sideways"]) == 2


@pytest.mark.parametrize(
    "expr, target, message",
    [
        ("1e400*ad_0*a_0", "weyl", "operator term (nan-nani)*ad_0*a_0"),
        ("2^2000*ad_0*a_0", "normal", "operator term (nan-nani)*ad_0*a_0"),
        ("1e308*ad_0^4*a_0^4", "weyl", "weyl symbol term -inf*zbar_0^3*z_0^3"),
    ],
)
def test_order_non_finite_coefficient_exit_2(expr, target, message, capsys):
    assert main(["order", "--expr", expr, "--target", target]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    # the parser refuses an overflowed operator term; the symbol is checked after reordering
    where = " (at position 0)" if message.startswith("operator") else ""
    assert out.err == f"error: {message} has a non-finite coefficient{where}\n"


def test_order_overflow_times_zero_is_zero(capsys):
    assert main(["order", "--expr", "1e400*0*ad_0", "--target", "weyl"]) == 0
    assert capsys.readouterr().out == "expr,target,symbol\n1e400*0*ad_0,weyl,0.0\n"


def test_parser_built_once_keeps_help_and_usage_errors(capsys, monkeypatch):
    # the parser built at import serves every call; help exits 0 and usage errors 2 each time
    monkeypatch.setattr(cli, "build_parser", None)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["cutoff", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cspi cutoff")
        with pytest.raises(SystemExit) as exc:
            main(["cutoff", "--bogus", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_free_energy_sweep_and_even_N_warning(tmp_path, capsys):
    out = tmp_path / "fe.csv"
    code = main(
        ["free-energy", "--A", "1.0", "--beta", "1.0", "--N", "101,1001,2000", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "refused: even N" in captured.err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,method,dFdA,abs_error,note"
    exact_row = lines[1].split(",")
    assert exact_row[1] == "exact" and exact_row[3] == "0"
    refused = [line for line in lines if "refused: even N" in line]
    assert len(refused) == 1 and refused[0].startswith("2000,weyl-discrete")


def test_csv_determinism_across_runs_and_threads(tmp_path):
    args = ["free-energy", "--N", "101,201,301", "--tol", "1e-2", "--out", None]
    outputs = []
    for name in ("a.csv", "b.csv", "c.csv"):
        path = tmp_path / name
        args[-1] = str(path)
        assert main(args) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_json_report_mirrors_csv(tmp_path):
    csv_path = tmp_path / "cut.csv"
    json_path = tmp_path / "cut.json"
    base = ["cutoff", "--b", "10,100", "--ordering", "normal,weyl"]
    assert main(base + ["--out", str(csv_path)]) == 0
    assert main(base + ["--out", str(json_path)]) == 0
    doc = json.loads(json_path.read_text())
    assert doc["verdict"] == "pass"
    assert doc["config"]["command"] == "cutoff"
    assert doc["config"]["b"] == [10, 100]
    csv_lines = csv_path.read_text().strip().splitlines()
    assert doc["columns"] == csv_lines[0].split(",")
    assert [",".join(row) for row in doc["rows"]] == csv_lines[1:]


def test_cutoff_sums_once_per_b(monkeypatch, capsys):
    # the orderings differ by their kappa alone: 3 sums for 3 b, not one per (b, ordering)
    calls = []

    def counted(model, b, ordering):
        calls.append((b, ordering))
        return cspi.cutoff_dFdA(model, b, ordering)

    monkeypatch.setattr(cli, "cutoff_dFdA", counted)
    assert main(["cutoff", "--b", "10,100,1000"]) == 0
    assert calls == [(b, cspi.Ordering.NORMAL) for b in (10, 100, 1000)]
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    model = cspi.QuadraticModel(1.0, 1.0)
    assert [float(row[2]) for row in rows] == [
        cspi.cutoff_dFdA(model, int(row[0]), cspi.Ordering(row[1])) for row in rows
    ]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"A": 2.0, "beta": 1.0, "N": [101], "tol": 1e-2}))
    code = main(["free-energy", "--config", str(cfg), "--N", "501"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\n501,normal-discrete" in out
    assert "101," not in out


@pytest.mark.parametrize("sweep", [{"N": [100.9, 1001.7]}, {"N": [101, True]}, {"b": 10.5}])
def test_non_integral_sweep_config_exit_2(tmp_path, capsys, sweep):
    # sweep values used to be truncated silently (100.9 ran as N = 100)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(sweep))
    command = "cutoff" if "b" in sweep else "free-energy"
    assert main([command, "--config", str(cfg)]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_integral_float_sweep_config_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": [101.0, 1e3 + 1], "tol": 1e-2}))
    assert main(["free-energy", "--config", str(cfg)]) == 0
    assert "\n1001,normal-discrete" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("identity-check", {"n_max": 2.9, "modes": 1.5, "margin": 0.9}, "n_max"),
        ("identity-check", {"radial": 8.5}, "radial"),
        ("identity-check", {"angular": True}, "angular"),
        ("identity-check", {"margin": 0.9}, "margin"),
        ("identity-check", {"modes": 1.5}, "modes"),
        ("flow", {"b_floor": 40.9}, "b_floor"),
        ("flow", {"fit_window": [50, 500.5]}, "fit_window"),
        ("order", {"expr": "ad_0*a_0", "target": "weyl", "verify": "false"}, "verify"),
        ("order", {"expr": "ad_0*a_0", "target": "weyl", "verify": 1}, "verify"),
        ("free-energy", {"beta": True, "A": True}, "A"),
        ("free-energy", {"beta": True}, "beta"),
        ("cutoff", {"A": False}, "A"),
        ("prefactor", {"beta": False}, "beta"),
        ("order", {"expr": 5, "target": "weyl"}, "expr"),
        ("order", {"expr": "ad_0*a_0", "target": 5}, "target"),
        ("cutoff", {"ordering": ["weyl", True]}, "ordering"),
        ("cutoff", {"ordering": {"weyl": 1}}, "ordering"),
        ("cutoff", {"tol": True}, "tol"),
        ("cutoff", {"out": 5}, "out"),
        ("free-energy", {"beta": 10**400}, "beta"),
    ],
)
def test_non_integral_or_non_boolean_setting_exit_2(tmp_path, capsys, command, config, key):
    # these ran with the value truncated, "false" taken as true, true as 1.0,
    # or the number 5 as the expression "5" and the output file "5"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: bad value for {key}: ")


@pytest.mark.parametrize("name", ["missing/x.csv", "missing/x.json", None])
def test_unwritable_out_exits_2(name, tmp_path, capsys):
    # a missing directory, or the directory itself (None), ended in a traceback and exit 1
    path = tmp_path if name is None else tmp_path / name
    assert main(["cutoff", "--b", "10", "--out", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: cannot write report: ")
    assert len(out.err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


def test_integral_float_settings_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_max": 2.0, "radial": 64.0, "margin": 0, "modes": 1.0}))
    assert main(["identity-check", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("n_max,radial,angular,margin,deviation\n2,64,64,0,")


@pytest.mark.parametrize(
    "file_verify, flag, expected", [(True, [], True), (False, ["--verify"], True), (False, [], False)]
)
def test_verify_from_file_and_flag(tmp_path, capsys, file_verify, flag, expected):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"expr": "ad_0*a_0", "target": "weyl", "verify": file_verify}))
    assert main(["order", "--config", str(cfg), *flag]) == 0
    assert capsys.readouterr().out.startswith("expr,target,symbol,residual\n") is expected


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["free-energy", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"N": []}))
    assert main(["free-energy", "--config", str(cfg)]) == 2
    assert main(["free-energy", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["free-energy", "--N", "101", "--A", "nan"],
        ["free-energy", "--N", "101", "--beta", "inf"],
        ["cutoff", "--b", "10", "--A", "inf"],
        ["flow", "--N", "1001", "--beta", "nan"],
        ["cutoff", "--b", "10", "--A", "1e308", "--beta", "10"],
        ["free-energy", "--N", "101", "--A", "1e308", "--beta", "10"],
        ["prefactor", "--N", "101", "--beta", "inf"],
    ],
)
def test_non_finite_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_non_finite_input_exit_2_under_optimize():
    # python -O strips asserts; the input checks must still turn NaN into exit 2
    path = [str(Path(cspi.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cspi.cli", "free-energy", "--N", "101", "--A", "nan"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_verdict_failure_exit_1(capsys):
    code = main(["cutoff", "--b", "10,100", "--tol", "1e-30"])
    captured = capsys.readouterr()
    assert code == 1
    assert "verdict: fail" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # the exact dF/dA underflows to 0 (it used to overflow to "math range error")
        ["free-energy", "--N", "101", "--A", "1000"],
        # beta A / N = 1e4 (the log Z pair-product check used to refuse it)
        ["flow", "--N", "1001", "--A", "1e7", "--b-floor", "5"],
    ],
)
def test_extreme_beta_A_fails_verdict_not_input(argv, capsys):
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == "verdict: fail"
    assert not any(line.startswith(("error:", "Traceback")) for line in lines)


def test_flow_corrections_underflowing_to_zero_fail_the_slope_check(capsys):
    # beta A / N = 1e-303: c^2 underflows to 0, and log(0) of the window's corrections
    # warned and fitted a nan slope (a traceback under -W error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["flow", "--N", "1001", "--A", "1e-300"])
    out = capsys.readouterr()
    assert code == 1
    assert "correction_slope,nan,-2 +- 0.2\n" in out.out
    lines = out.err.splitlines()
    assert "check correction_slope: FAIL (the fit window's corrections underflow to 0)" in lines
    assert lines[-1] == "verdict: fail"


def test_flow_report(capsys):
    # the -2 scaling window [50, 500] needs pi*shell/N well inside the
    # small-angle regime, hence the large lattice
    code = main(["flow", "--N", "10001", "--b-floor", "40"])
    out = capsys.readouterr()
    assert code == 0
    assert "correction_slope" in out.out
    assert "verdict: pass" in out.err


def test_flow_verdict_holds_at_scale(capsys):
    # the conservation gate (1e-9) used to fail from N ~ 8e4 on
    assert main(["flow", "--N", "100001"]) == 0
    assert "check conservation: pass" in capsys.readouterr().err


@pytest.mark.parametrize("N", [1001, 2001])
def test_flow_default_fit_window_stays_below_the_pole(N, tmp_path, capsys):
    # the default window [50, 500] reached the top shell at N = 1001, where
    # tan(pi n / N) is far from pi n / N: slopes -3.81 and -2.21 failed the gate
    out = tmp_path / "flow.json"
    assert main(["flow", "--N", str(N), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["fit_window"] == [50, (N - 1) // 8]


def test_flow_config_echoes_the_default_N(tmp_path, capsys):
    # without --N the flow runs N = 10001; the config used to say "N": []
    out = tmp_path / "flow.json"
    assert main(["flow", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["N"] == [10001]
    assert config["fit_window"] == [50, 500]


def test_flow_given_fit_window_used_as_given(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fit_window": [50, 500]}))
    out = tmp_path / "flow.json"
    assert main(["flow", "--N", "1001", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["config"]["fit_window"] == [50, 500]
    assert "check correction_slope: FAIL" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        # beta A / N = 1e197: the correction logs overflow (it printed nan and exited 1)
        (["flow", "--N", "1001", "--A", "1e200"], "flow step terms are not finite"),
        (["flow", "--N", "1001", "--A", "0"], "needs A > 0"),
        # each row was printed twice, and the doubled sweep failed its own monotonicity
        (["cutoff", "--b", "10,100", "--ordering", "weyl,weyl"], "'weyl' is listed more than once"),
        (["cutoff", "--b", "10", "--ordering", "normal,weyl,normal"], "'normal' is listed"),
    ],
)
def test_flow_and_cutoff_input_errors_exit_2(argv, message, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and message in out.err
    assert len(out.err.splitlines()) == 1


def test_identity_check_report(capsys):
    code = main(["identity-check"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.startswith("n_max,radial,angular,margin,deviation\n")


def test_identity_check_four_modes(capsys):
    # 6561 states: no dense 6561 x 6561 quadrature matrix is formed
    assert main(["identity-check", "--modes", "4", "--n-max", "8"]) == 0
    assert "check deviation: pass" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identity-check", "--margin", "-1"], "margin must be non-negative"),
        (["identity-check", "--n-max", "171"], "radial moments"),
        (
            ["identity-check", "--n-max", "171", "--radial", "1", "--angular", "1", "--margin", "0"],
            "factorial norms",
        ),
    ],
)
def test_identity_check_bad_input_exit_2(argv, message, capsys, recwarn):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not recwarn.list


@pytest.mark.parametrize(
    "argv",
    [
        ["identity-check", "--modes", "5", "--n-max", "8"],
        ["order", "--expr", "a_9", "--target", "weyl", "--verify"],
    ],
)
def test_oversized_dense_build_exit_2(argv, capsys):
    # 52 GiB and 1.8e11 GiB of dense matrix: refused when the basis is made
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GiB budget" in err


def test_order_verify_degree_beyond_n_max(capsys):
    # both matrices are exact on the whole truncated space, so --verify
    # compares all 5 states also when the degree exceeds --n-max
    argv = ["order", "--expr", "ad_0^3*a_0^3", "--target", "weyl", "--verify", "--n-max", "4"]
    assert main(argv) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(row.split(",")[-1]) == 0.0


def test_order_verify_degree_equal_to_n_max(capsys):
    argv = ["order", "--expr", "ad_0^2*a_0^2", "--target", "weyl", "--verify", "--n-max", "4"]
    assert main(argv) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(row.split(",")[-1]) <= 1e-10


def test_order_verify_sees_a_wrong_round_trip_above_the_vacuum(capsys, monkeypatch):
    # an error in n a on every state but the vacuum, which alone lies in the
    # block n <= n_max - degree
    quantize = cli.quantize
    number = BosonPoly({((1, 1),): 1.0}, 1)
    monkeypatch.setattr(cli, "quantize", lambda symbol: quantize(symbol) + 1e-3 * number)
    argv = ["order", "--expr", "ad_0^2*a_0^2", "--target", "weyl", "--verify", "--n-max", "4"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert float(out.out.strip().splitlines()[-1].split(",")[-1]) == pytest.approx(4e-3)
    assert "round_trip_residual: FAIL" in out.err


def test_prefactor_report(capsys):
    code = main(["prefactor", "--N", "1001,10001", "--b", "4"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.startswith("N,b,log_empirical,log_closed,rel_difference\n")


# ---------------------------------------------------------------------------
# one settings table: each command's flags, file keys and config echo
# ---------------------------------------------------------------------------

#: the settings each command reads; a setting's flag is "--" + key, "_" -> "-"
READS = {
    "order": {"expr", "target", "verify", "n_max", "tol", "out"},
    "free-energy": {"A", "beta", "N", "tol", "out"},
    "cutoff": {"A", "beta", "b", "ordering", "tol", "out"},
    "prefactor": {"beta", "N", "b", "modes", "tol", "out"},
    "flow": {"A", "beta", "N", "modes", "b_floor", "fit_window", "tol", "out"},
    "identity-check": {"n_max", "radial", "angular", "margin", "modes", "tol", "out"},
}
SETTINGS = set().union(*READS.values())

#: a small run of each command
SMALL = {
    "order": ["--expr", "ad_0*a_0", "--target", "weyl"],
    "free-energy": ["--N", "101"],
    "cutoff": ["--b", "10"],
    "prefactor": ["--N", "101"],
    "flow": ["--N", "1001"],
    "identity-check": ["--n-max", "2"],
}

#: the config that a small run (SMALL) of each command echoes: every value it
#: ran with, defaults included
ECHO = {
    "order": {"expr": "ad_0*a_0", "target": "weyl", "verify": False, "n_max": 8, "tol": 1e-10},
    "free-energy": {"A": 1.0, "beta": 1.0, "N": [101], "tol": 1e-3},
    "cutoff": {
        "A": 1.0,
        "beta": 1.0,
        "b": [10],
        "ordering": ["normal", "antinormal", "weyl"],
        "tol": 1e-3,
    },
    "prefactor": {"beta": 1.0, "N": [101], "b": [4], "modes": 1, "tol": 1e-2},
    "flow": {
        "A": 1.0,
        "beta": 1.0,
        "N": [1001],
        "modes": 1,
        "b_floor": 40,
        "fit_window": [50, 125],
        "tol": 1e-2,
    },
    "identity-check": {
        "n_max": 2,
        "radial": 64,
        "angular": 64,
        "margin": 2,
        "modes": 1,
        "tol": 1e-6,
    },
}

#: a valid file value for every setting
FILE_VALUES = {
    "A": 2.0,
    "beta": 3.0,
    "N": [11],
    "b": [5],
    "ordering": ["weyl"],
    "expr": "a_0",
    "target": "normal",
    "verify": True,
    "n_max": 3,
    "radial": 8,
    "angular": 8,
    "margin": 0,
    "modes": 2,
    "b_floor": 41,
    "fit_window": [60, 90],
    "tol": 0.5,
    "out": "ignored.csv",
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _report(command, tmp_path, extra=()):
    out = tmp_path / f"{command}.json"
    assert main([command, *SMALL[command], *extra, "--out", str(out)]) in (0, 1)
    return json.loads(out.read_text())


def _config_echo(command, tmp_path, extra=()):
    return _report(command, tmp_path, extra)["config"]


def test_table_flags_match_the_settings_read():
    assert set(cli._COMMANDS) == set(READS)
    assert set(FILE_VALUES) == SETTINGS == {key for key, *_ in cli._SETTINGS}


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_flags_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
    assert flags == {"--help", "--config"} | {_flag(key) for key in READS[command]}


@pytest.mark.parametrize("command", sorted(READS))
def test_config_echo_is_the_settings_read(command, tmp_path, capsys):
    config = _config_echo(command, tmp_path)
    assert config.keys() == {"command"} | READS[command] - {"out"}
    assert config == {"command": command, **ECHO[command]}


@pytest.mark.parametrize("command", sorted(READS))
def test_flag_not_read_exits_2(command, capsys):
    # order --N 7 and free-energy --b 3 used to be accepted and echoed, though
    # never used; with abbreviations free-energy --b would be read as --beta
    for key in sorted(SETTINGS - READS[command]):
        with pytest.raises(SystemExit) as exc:
            main([command, *SMALL[command], _flag(key), "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {_flag(key)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(READS))
def test_flag_not_read_reported_under_the_command_usage(command, capsys):
    # it was reported under the top-level "usage: cspi [-h] {order,...}" line,
    # which does not show the flags the command has
    with pytest.raises(SystemExit) as exc:
        main([command, *SMALL[command], "--bogus", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cspi {command} [-h] [--config CONFIG]")
    assert err.endswith(f"cspi {command}: error: unrecognized arguments: --bogus 3\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["cutoff", "--b", "10", "--tol", "nan"],
        ["identity-check", "--n-max", "2", "--tol", "-1"],
        ["free-energy", "--N", "101", "--tol", "inf"],
        ["order", "--expr", "ad_0*a_0", "--target", "weyl", "--verify", "--tol=-inf"],
    ],
)
def test_tol_must_be_finite_and_non_negative(argv, capsys):
    # nan, -1 and -inf failed every check (exit 1) and inf passed every one
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: bad value for tol: must be finite and non-negative")
    assert len(out.err.splitlines()) == 1


def test_tol_from_file_checked_and_zero_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tol": -1e-3}))
    assert main(["identity-check", "--n-max", "2", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: bad value for tol: ")
    assert main(["order", "--expr", "ad_0*a_0", "--target", "weyl", "--verify", "--tol", "0"]) == 0


@pytest.mark.parametrize("command", sorted(READS))
def test_unknown_file_key_exits_2_and_names_it(command, tmp_path, capsys):
    # {"bta": 2} used to be dropped, and the run used beta = 1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bta": 2, "tol": 0.5}))
    assert main([command, *SMALL[command], "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: config file keys that name no setting: ['bta']\n"


@pytest.mark.parametrize("command", sorted(READS))
def test_file_key_of_another_command_is_ignored(command, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({k: FILE_VALUES[k] for k in SETTINGS - READS[command]}))
    alone = _config_echo(command, tmp_path)
    assert _config_echo(command, tmp_path, ["--config", str(cfg)]) == alone
    assert capsys.readouterr().out == ""


def test_file_values_of_every_read_setting_are_echoed(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({k: FILE_VALUES[k] for k in READS["flow"] - {"out", "N"}}))
    config = _config_echo("flow", tmp_path, ["--config", str(cfg)])
    assert config == {
        "command": "flow",
        "A": 2.0,
        "beta": 3.0,
        "N": [1001],
        "modes": 2,
        "b_floor": 41,
        "fit_window": [60, 90],
        "tol": 0.5,
    }


@pytest.mark.parametrize(
    "command, tol", [("order", 1e-10), ("free-energy", 1e-3), ("identity-check", 1e-6)]
)
def test_config_echoes_the_tolerance_used(command, tol, tmp_path, capsys):
    assert _config_echo(command, tmp_path)["tol"] == tol
    assert _config_echo(command, tmp_path, ["--tol", "0.25"])["tol"] == 0.25


def test_prefactor_modes_from_file_and_flag_are_echoed(tmp_path, capsys):
    # {"modes": 3} tripled the log prefactor, and the report did not say so
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"modes": 3}))
    one = _report("prefactor", tmp_path)
    three = _report("prefactor", tmp_path, ["--config", str(cfg)])
    assert (one["config"]["modes"], three["config"]["modes"]) == (1, 3)
    log_closed = [float(doc["rows"][0][3]) for doc in (one, three)]
    assert log_closed[1] == pytest.approx(3 * log_closed[0], rel=1e-15)
    assert _config_echo("prefactor", tmp_path, ["--modes", "2"])["modes"] == 2


def test_prefactor_echoes_the_b_it_ran(tmp_path, capsys):
    # without --b it ran b = 4 and echoed "b": []
    assert _config_echo("prefactor", tmp_path)["b"] == [4]
    assert _config_echo("prefactor", tmp_path, ["--b", "6"])["b"] == [6]


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["flow", "--N", "1001,2001"], None, "flow runs one N, got [1001, 2001]"),
        (["flow"], {"N": [1001, 2001]}, "flow runs one N, got [1001, 2001]"),
        (["prefactor", "--N", "101", "--b", "4,10"], None, "prefactor runs one b, got [4, 10]"),
        (["prefactor", "--N", "101"], {"b": [4, 10]}, "prefactor runs one b, got [4, 10]"),
    ],
)
def test_one_value_settings_refuse_a_list(argv, config, message, tmp_path, capsys):
    # each used to run the first value alone and drop the rest without a word
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_flow_fit_window_flag(tmp_path, capsys):
    out = tmp_path / "flow.json"
    argv = ["flow", "--N", "1001", "--fit-window", "50,500", "--out", str(out)]
    assert main(argv) == 1  # as given from a file: the window reaches the top shell
    assert json.loads(out.read_text())["config"]["fit_window"] == [50, 500]
    assert "check correction_slope: FAIL" in capsys.readouterr().err
    assert main(["flow", "--N", "1001", "--fit-window", "50"]) == 2
    assert capsys.readouterr().err.startswith("error: bad value for fit_window: ")


@pytest.mark.parametrize("radial", ["187", "250"])
def test_identity_check_radial_above_the_cap_exits_2(radial, capsys, recwarn):
    # 250 was refused with "radial moments up to t^0 overflow float; lower n_max"
    # after three numpy RuntimeWarnings; laggauss weights are NaN from 187 nodes on
    assert main(["identity-check", "--n-max", "2", "--radial", radial]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: radial must be 1 to 186 Gauss-Laguerre nodes")
    assert len(out.err.splitlines()) == 1
    assert not recwarn.list


def test_identity_check_huge_radial_refused_before_laggauss(monkeypatch, capsys):
    # laggauss would build a 1e6 x 1e6 companion matrix
    def laggauss(n):
        raise AssertionError("laggauss called")

    monkeypatch.setattr(np.polynomial.laguerre, "laggauss", laggauss)
    assert main(["identity-check", "--radial", "1000000"]) == 2
    assert "error: radial must be 1 to 186" in capsys.readouterr().err


def test_identity_check_non_finite_weights_exit_2(monkeypatch, capsys, recwarn):
    laggauss = np.polynomial.laguerre.laggauss

    def nan_weights(n):
        t, wt = laggauss(n)
        np.divide(wt, 0.0 * wt, out=wt)  # warns, as numpy's own overflow does
        return t, wt

    monkeypatch.setattr(np.polynomial.laguerre, "laggauss", nan_weights)
    assert main(["identity-check", "--radial", "64"]) == 2
    assert "error: radial must be 1 to 186" in capsys.readouterr().err
    assert not recwarn.list


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(), "error: out of memory"),
        # what numpy raises for an array the host cannot hold
        (MemoryError("Unable to allocate 7.45 GiB"), "error: Unable to allocate 7.45 GiB"),
    ],
)
@pytest.mark.parametrize("command", ["prefactor", "cutoff"])
def test_memory_error_exits_2(command, exc, message, monkeypatch, capsys):
    # a size no budget refused ended in a traceback and exit 1
    def runner(cfg):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, command, (runner, 1e-3))
    assert main([command, "--b", "10"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [message]


# ---------------------------------------------------------------------------
# verdict gates: a value at each bound and the next float past it
# ---------------------------------------------------------------------------


def _checks(capsys) -> list[tuple[str, str]]:
    """The (name, pass or FAIL) of each check line, in report order."""
    lines = capsys.readouterr().err.splitlines()
    return [re.match(r"check (\S+): (pass|FAIL) ", line).groups() for line in lines if line[:6] == "check "]


def _walk_reporting(monkeypatch, log_c_shift=None, max_residual=None):
    """``cli._walk`` with its correction shift or conservation residual replaced."""
    walk = cli._walk

    def patched(*args):
        shift, series, final_log_c, residual = walk(*args)
        return (
            shift if log_c_shift is None else log_c_shift,
            series,
            final_log_c,
            residual if max_residual is None else max_residual,
        )

    monkeypatch.setattr(cli, "_walk", patched)


@pytest.mark.parametrize("residual, verdict", [(1e-9, "pass"), (np.nextafter(1e-9, 1.0), "FAIL")])
def test_flow_conservation_gate_is_1e_9_inclusive(residual, verdict, monkeypatch, capsys):
    _walk_reporting(monkeypatch, max_residual=residual)
    main(["flow", "--N", "1001"])
    assert ("conservation", verdict) in _checks(capsys)


@pytest.mark.parametrize("accumulated, verdict", [(1e-2, "pass"), (np.nextafter(1e-2, 1.0), "FAIL")])
def test_flow_accumulated_correction_gate_is_tol_inclusive(accumulated, verdict, monkeypatch, capsys):
    # beta = 1, so the accumulated correction is the log c shift itself
    _walk_reporting(monkeypatch, log_c_shift=accumulated)
    main(["flow", "--N", "1001"])
    assert ("accumulated_correction", verdict) in _checks(capsys)


@pytest.mark.parametrize(
    "slope, verdict",
    [
        (-2.0, "pass"),
        (-1.8, "pass"),  # |-1.8 + 2| rounds to 0.19999999999999996
        (np.nextafter(-1.8, 0.0), "FAIL"),
        (-2.2, "FAIL"),  # |-2.2 + 2| rounds to 0.20000000000000018
        (np.nextafter(-2.2, 0.0), "pass"),
        (-1.5, "FAIL"),
    ],
)
def test_flow_slope_gate_is_2_plus_minus_0_2(slope, verdict, monkeypatch, capsys):
    # no float slope puts |slope + 2| at 0.2 itself: slope + 2 is a multiple of
    # 2^-52 and 0.2 is not, so the gate's <= and < agree on every slope
    monkeypatch.setattr(np, "polyfit", lambda *args: np.array([slope, 0.0]))
    main(["flow", "--N", "1001"])
    assert ("correction_slope", verdict) in _checks(capsys)


@pytest.mark.parametrize("window, code", [("100,100", 2), ("100,101", 0)])
def test_flow_fit_window_needs_two_shells(window, code, capsys):
    assert main(["flow", "--N", "1001", "--fit-window", window]) == code
    err = capsys.readouterr().err
    refused = "error: fit window [100, 100] selects fewer than 2 shells above b_floor=40\n"
    assert (err == refused) is (code == 2)


def _cutoff_with_errors(monkeypatch, errors: dict) -> None:
    """``cutoff_dFdA`` off the normal-order limit by ``errors[b]`` at each b."""
    def cutoff_dFdA(model, b, ordering):
        return cli.exact_dFdA(model) + 0.5 + errors[b]

    monkeypatch.setattr(cli, "cutoff_dFdA", cutoff_dFdA)


@pytest.mark.parametrize(
    "errors, verdict", [((2e-4, 1e-4), "pass"), ((1e-4, 1e-4), "pass"), ((1e-4, 2e-4), "FAIL")]
)
def test_two_value_sweep_checks_its_monotonicity(errors, verdict, monkeypatch, capsys):
    _cutoff_with_errors(monkeypatch, dict(zip((10, 100), errors)))
    main(["cutoff", "--b", "10,100", "--ordering", "normal"])
    assert _checks(capsys) == [("normal_error_nonincreasing", verdict), ("normal_final_error", "pass")]


def test_one_value_sweep_has_no_monotonicity_check(monkeypatch, capsys):
    _cutoff_with_errors(monkeypatch, {10: 1e-4})
    main(["cutoff", "--b", "10", "--ordering", "normal"])
    assert _checks(capsys) == [("normal_final_error", "pass")]


@pytest.mark.parametrize("below, verdict", [(False, "pass"), (True, "FAIL")])
def test_sweep_final_gate_is_tol_inclusive(below, verdict, capsys):
    argv = ["cutoff", "--b", "10", "--ordering", "normal"]
    main(argv)
    error = float(capsys.readouterr().out.splitlines()[-1].split(",")[-1])  # %.17g: exact
    tol = float(np.nextafter(error, 0.0)) if below else error
    main([*argv, "--tol", repr(tol)])
    assert _checks(capsys) == [("normal_final_error", verdict)]


def test_prefactor_checks_final_first_and_relative_difference(capsys):
    assert main(["prefactor", "--N", "1001,10001", "--b", "4", "--beta", "3"]) == 0
    out, err = capsys.readouterr()
    assert [line.split(": ")[0] for line in err.splitlines() if line.startswith("check ")] == [
        "check final_rel_difference",
        "check rel_difference_nonincreasing",
    ]
    for line in out.splitlines()[1:]:
        _, _, emp, closed, rel = map(float, line.split(","))
        assert abs(closed) != 1 and rel == abs(emp - closed) / abs(closed)


def test_prefactor_difference_is_absolute_when_closed_is_zero(monkeypatch, capsys):
    monkeypatch.setattr(cli, "prefactor_log_closed", lambda *args: 0.0)
    assert main(["prefactor", "--N", "1001", "--b", "4", "--tol", "1e300"]) == 0
    _, _, emp, closed, rel = map(float, capsys.readouterr().out.splitlines()[1].split(","))
    assert closed == 0.0 and rel == abs(emp)


@pytest.mark.parametrize("deviation, verdict", [(1e-6, "pass"), (np.nextafter(1e-6, 1.0), "FAIL")])
def test_identity_check_gate_is_tol_inclusive(deviation, verdict, monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_resolution_identity", lambda *args: deviation)
    main(["identity-check", "--n-max", "2"])
    assert _checks(capsys) == [("deviation", verdict)]
