"""Property suite over ``cspi`` argv and config files: every command, every setting.

The argv half draws values as text, the way a shell passes them: NaN, +-inf,
negative, fractional and malformed numbers, empty lists and list pieces,
duplicates, unknown orderings and malformed expressions, at bounded sizes
(N <= 1e5+1, b <= 1e6, n_max <= 6, modes <= 3), for every setting but
``out``.  Each flag is written ``--key=value``, so a value that starts with
``-`` stays a value.  The config half draws JSON files for every command
with any setting's key, ``out`` included: booleans, values of the wrong JSON
type, NaN and +-Infinity, negative and fractional numbers, empty lists,
duplicates and keys that name no setting, at N <= 1e5.

Whatever the input, a run exits with 0, 1 or 2 and no exception escapes
``main``; exit 2 prints exactly one ``error:`` line and nothing on stdout;
exits 0 and 1 end stderr with the ``verdict:`` line, which rests on at least
one ``check`` line; and a second run prints the same report.  ``order``
without ``verify`` is the one run that checks nothing: it converts an
operator and makes no claim to verify.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cspi import cli

SPECIAL_NUMBERS = [
    "nan", "inf", "-inf", "-1", "0", "-0.0", "2.5", "5e-324", "1e-300", "1e300", "1.8e308", "x", "",
]  # fmt: skip

#: a malformed or out-of-range value of any setting
BAD = st.integers(-3, 3).map(str) | st.sampled_from(SPECIAL_NUMBERS)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _lists(items, min_size=1):
    """Comma-joined pieces; duplicates may occur."""
    return st.lists(items, min_size=min_size, max_size=3).map(",".join)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


_LADDERS = ["ad_0", "a_0", "ad_1", "a_1", "ad_2^2", "a_2^2", "ad_0^3"]
#: (coefficient, its conjugate) of a term
_COEFFS = [("", ""), ("2*", "2*"), ("-", "-"), ("(0.5-1.5i)*", "(0.5+1.5i)*"), ("i*", "-i*"),
           ("1e-200*", "1e-200*"), ("0*", "0*")]  # fmt: skip


def _adjoint(ladder):
    return "a" + ladder[2:] if ladder.startswith("ad") else "ad" + ladder[1:]


@st.composite
def _hermitian_terms(draw):
    """A term plus its adjoint, so that ``--verify`` accepts the sum."""
    coeff, conj = draw(st.sampled_from(_COEFFS))
    ladders = draw(st.lists(st.sampled_from(_LADDERS), min_size=1, max_size=3))
    return f"{coeff}{'*'.join(ladders)} + {conj}{'*'.join(map(_adjoint, ladders[::-1]))}"


_EXPR_JUNK = [
    "ad_0", "a_0", "a_2", "2", "1e400", "(0.5+1.5i)", "(", ")", "+", "-", "*", "^", "^17",
    "^2", " ", "$", "a_", "1.5",
]  # fmt: skip
_ORDERINGS = ["normal", "antinormal", "weyl"]
_ODD = st.integers(0, 50_000).map(lambda k: str(2 * k + 1))  # most lattice commands need odd N

#: each setting's value as text: (a valid value, an invalid one)
VALUES = {
    "A": (_floats(-10, 100), BAD),
    "beta": (_floats(0.1, 10), BAD),
    "tol": (st.sampled_from(["1e-10", "1e-3", "0.5", "0", "1e3"]), BAD),
    "N": (_lists(_ODD | _ints(1, 100_001)), BAD | _lists(BAD, 0)),
    "b": (_lists(_ints(0, 1_000_000) | _ints(0, 20)), BAD | _lists(BAD, 0)),
    "ordering": (
        _lists(st.sampled_from(_ORDERINGS)),
        _lists(st.sampled_from(_ORDERINGS + ["sideways", "WEYL", " weyl", ""]), 0),
    ),
    "expr": (
        st.lists(_hermitian_terms(), min_size=1, max_size=2).map(" + ".join),
        st.lists(st.sampled_from(_EXPR_JUNK), max_size=8).map("".join),
    ),
    "target": (st.sampled_from(_ORDERINGS), st.sampled_from(["sideways", "", "Weyl", "weyl,normal"])),
    "n_max": (_ints(0, 6), BAD),
    "modes": (_ints(1, 3), BAD),
    "radial": (_ints(1, 186), BAD | _ints(187, 200)),
    "angular": (_ints(1, 200), BAD),
    "margin": (_ints(0, 3), BAD | _ints(4, 7)),
    "b_floor": (_ints(0, 100), BAD | _ints(101, 50_001)),
    "fit_window": (
        st.builds(lambda lo, d: f"{lo},{lo + d}", st.integers(0, 1000), st.integers(1, 1000)),
        BAD | _lists(BAD, 0) | _lists(_ints(-1, 50_001), 0),
    ),
}


#: the settings without which a command refuses to run
REQUIRED = {"order": {"expr", "target"}, "free-energy": {"N"}, "cutoff": {"b"}, "prefactor": {"N"}}


@st.composite
def argvs(draw):
    """A command, its required settings and a subset of the others; one value
    in eight is invalid."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for key, _, _, commands, _ in cli._SETTINGS:
        drawn = key in REQUIRED.get(command, ()) or draw(st.booleans())
        if command not in commands or key == "out" or not drawn:
            continue
        if key == "verify":
            argv.append("--verify")
        else:
            good, bad = VALUES[key]
            value = draw(bad if draw(st.integers(0, 7)) == 7 else good)
            argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def _run(argv, report=None):
    """Exit code, stdout, stderr and the text of the ``report`` file it wrote, if any."""
    if report is not None and report.is_file():
        report.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning that escapes is a failure
            code = cli.main(argv)
    written = report.read_text() if report is not None and report.is_file() else None
    return code, out.getvalue(), err.getvalue(), written


def test_every_setting_has_values():
    assert set(VALUES) | {"verify", "out"} == {key for key, *_ in cli._SETTINGS}


@settings(max_examples=1000)
@given(argvs())
@example(["cutoff", "--b=10", "--ordering=,"])
@example(["cutoff", "--b=10", "--ordering=weyl,weyl"])
@example(["flow", "--N=3"])
@example(["prefactor", "--N=1,1", "--b=0"])
@example(["identity-check", "--modes=3", "--n-max=6", "--radial=186", "--angular=200"])
@example(["order", "--expr=2^2000*ad_0", "--target=weyl"])
def test_every_argv_exits_0_1_or_2_with_one_verdict_or_error(argv):
    _assert_one_verdict_or_error(argv, "--verify" in argv)


def _assert_one_verdict_or_error(argv, verifies, report=None):
    """The four properties; ``verifies`` says whether an ``order`` run claims a check."""
    run = _run(argv, report)
    code, out, err, _ = run
    assert code in (0, 1, 2)
    lines = err.splitlines()
    if code == 2:
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert lines and lines[-1].startswith("verdict: "), err
        if argv[0] != "order" or verifies:
            assert any(line.startswith("check ") for line in lines), err
    assert _run(argv, report) == run


def test_a_sweep_with_every_point_refused_rests_on_a_check():
    # beta A / N = 2 is the normal-discrete pole, and N = 2 is even for weyl-discrete
    _assert_one_verdict_or_error(["free-energy", "--N=2", "--A=4"], False)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

#: a JSON value of the wrong type or out of range for any setting
JSON_BAD = st.sampled_from(
    [True, False, None, "x", "", [], {}, [[1]], {"N": 1}, math.nan, math.inf, -math.inf,
     -1, -0.0, 0.5, 2.5, -2.5, 1e300, 10**400, "nan", "-inf", "1e400", "2.5"]
) | st.integers(-3, 3)  # fmt: skip


def _json_lists(items, min_size=1):
    """A JSON list, duplicates allowed, or the same items as one comma-separated string."""
    lists = st.lists(items, min_size=min_size, max_size=3)
    return lists | lists.map(lambda values: ",".join(map(str, values)))


def _json_ints(lo, hi):
    """An int in [lo, hi], as a JSON int, an integral float or a string."""
    return st.integers(lo, hi).flatmap(lambda n: st.sampled_from([n, float(n), str(n)]))


_JSON_ODD = st.integers(0, 49_999).map(lambda k: 2 * k + 1)

#: each setting's value as JSON: (a valid value, an invalid one); ``out`` is
#: a path in the test's report directory, a missing directory or the
#: directory itself, or not a string
JSON_VALUES = {
    "A": (st.floats(-10, 100), JSON_BAD),
    "beta": (st.floats(0.1, 10), JSON_BAD),
    "tol": (st.sampled_from([1e-10, 1e-3, 0.5, 0, 1000, "1e-3"]), JSON_BAD),
    "N": (
        _json_lists(_JSON_ODD | st.integers(1, 100_000)) | _JSON_ODD,
        JSON_BAD | _json_lists(JSON_BAD, 0),
    ),
    "b": (
        _json_lists(st.integers(0, 1_000_000) | st.integers(0, 20)) | _json_ints(0, 20),
        JSON_BAD | _json_lists(JSON_BAD, 0),
    ),
    "ordering": (
        _json_lists(st.sampled_from(_ORDERINGS)) | st.sampled_from(_ORDERINGS),
        JSON_BAD | _json_lists(st.sampled_from(_ORDERINGS + ["sideways", " weyl", "", 1]), 0),
    ),
    "expr": (
        st.lists(_hermitian_terms(), min_size=1, max_size=2).map(" + ".join),
        JSON_BAD | st.lists(st.sampled_from(_EXPR_JUNK), max_size=8).map("".join),
    ),
    "target": (st.sampled_from(_ORDERINGS), JSON_BAD | st.sampled_from(["Weyl", ["weyl"]])),
    "verify": (st.booleans(), JSON_BAD.filter(lambda value: not isinstance(value, bool))),
    "n_max": (_json_ints(0, 6), JSON_BAD),
    "modes": (_json_ints(1, 3), JSON_BAD),
    "radial": (_json_ints(1, 186), JSON_BAD | st.integers(187, 200)),
    "angular": (_json_ints(1, 200), JSON_BAD),
    "margin": (_json_ints(0, 3), JSON_BAD | st.integers(4, 7)),
    "b_floor": (_json_ints(0, 100), JSON_BAD | st.integers(101, 50_001)),
    "fit_window": (
        st.builds(lambda lo, d: [lo, lo + d], st.integers(0, 1000), st.integers(1, 1000))
        | st.builds(lambda lo, d: f"{lo},{lo + d}", st.integers(0, 1000), st.integers(1, 1000)),
        JSON_BAD | _json_lists(JSON_BAD | st.integers(-1, 50_001), 0),
    ),
    "out": (
        st.sampled_from(["report.csv", "report.json"]),
        JSON_BAD.filter(lambda value: not isinstance(value, str))
        | st.sampled_from(["missing/report.csv", ".", ""]),
    ),
}

#: keys that name no setting
_UNKNOWN_KEYS = ["bta", "n-max", "N ", "", "Verify", "command"]


@st.composite
def configs(draw):
    """A command and a config file: the command's required settings, any other
    setting's key (one file may serve several commands), one value in eight
    invalid, and one file in eight with a key that names no setting."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    config = {}
    for key, *_ in cli._SETTINGS:
        if key in REQUIRED.get(command, ()) or draw(st.booleans()):
            good, bad = JSON_VALUES[key]
            config[key] = draw(bad if draw(st.integers(0, 7)) == 7 else good)
    if draw(st.integers(0, 7)) == 7:
        config[draw(st.sampled_from(_UNKNOWN_KEYS))] = draw(JSON_BAD)
    return command, config


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


def test_every_setting_has_json_values():
    assert set(JSON_VALUES) == {key for key, *_ in cli._SETTINGS}


@settings(max_examples=300)
@given(configs())
@example(("free-energy", {"N": [2], "A": 4}))
@example(("cutoff", {"b": 10, "ordering": ["weyl", "weyl"]}))
@example(("identity-check", {"n_max": True}))
@example(("flow", {"N": math.inf}))
@example(("order", {"expr": "ad_0*a_0", "target": "weyl", "verify": True, "n_max": 6.0}))
@example(("prefactor", {"N": [101, 101], "out": "report.json", "beta": math.nan}))
@example(("cutoff", {"b": [10, 20], "out": "report.json"}))
@example(("free-energy", {"N": [2, 101], "out": "missing/report.csv"}))
def test_every_config_file_exits_0_1_or_2_with_one_verdict_or_error(report_dir, case):
    command, config = case
    report = None
    if isinstance(config.get("out"), str):  # a path in the report directory
        report = report_dir / config["out"]
        config = {**config, "out": str(report)}
    path = report_dir / "config.json"
    path.write_text(json.dumps(config))
    _assert_one_verdict_or_error(
        [command, "--config", str(path)], config.get("verify") is True, report
    )
