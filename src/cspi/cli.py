"""Command-line front end.

Each subcommand reproduces one family of checks as a deterministic report:
a CSV table (stdout or ``--out file.csv``) or a JSON document
(``--out file.json``) that mirrors the table plus the effective config and
the pass/fail verdict.  Verdicts and warnings go to stderr; the table is
never polluted, so identical configs give byte-identical CSV.

One table, ``_SETTINGS``, is the whole description of every setting: its
config key, its converter, its default, the commands that read it and its
help.  A command has ``--config`` plus the flag (``--`` + key, ``_`` -> ``-``)
of each setting it reads, and nothing else.  A config file may hold the key
of any setting: one this command does not read is ignored, one that names no
setting is an error.  The run's config is a namespace of ``command`` and
exactly the settings the command reads, under their keys; the JSON config
echoes it, without ``out``, with the values the command ran with (its
verdict tolerance included).  ``_COMMANDS`` maps each command to its runner
and its default tolerance.  A runner returns the table's columns and rows,
its checks and its warning lines; the warnings follow the written report,
so an unwritable report errs alone.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 config/parse error,
a run that ran out of memory, or a report that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from .algebra import KAPPA, Ordering, quantize, to_ordered_form
from .continuum import cutoff_dFdA, prefactor_log_closed, prefactor_log_empirical
from .discrete import MatsubaraGrid, normal_discrete_dFdA, weyl_discrete_dFdA
from .errors import EvenSliceCountError, SingularityError
from .expr import _non_finite_term, format_symbol, parse_operator
from .flow import _flow_inputs, _walk
from .fock import (
    FockBasis,
    QuadraticModel,
    check_resolution_identity,
    exact_dFdA,
    hamiltonian_matrix,
)


class ConfigError(ValueError):
    """Bad run configuration (missing/ill-typed keys, invalid sweeps)."""


def _as_int(value) -> int:
    """An int, an integral float or an integer string; a fraction or a bool is refused."""
    number = int(value) if isinstance(value, str) else value
    if isinstance(number, bool) or not float(number).is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(number)


def _as_float(value) -> float:
    """A float from a number or a numeric string; a bool is refused."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _as_list(item):
    """A converter of a non-empty list: a comma-separated string (empty pieces
    dropped), a JSON list item by item, or any other value as one item."""

    def convert(value) -> list:
        if isinstance(value, str):
            value = [v for v in value.split(",") if v]
        elif not isinstance(value, list):
            value = [value]
        if not value:
            raise ValueError("list must be non-empty")
        return [item(v) for v in value]

    return convert


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _as_tol(value) -> float:
    tol = _as_float(value)
    if not 0 <= tol < math.inf:
        raise ValueError(f"must be finite and non-negative, got {value!r}")
    return tol


def _as_window(value) -> tuple[int, int]:
    window = _as_list(_as_int)(value)
    if len(window) != 2:
        raise ValueError(f"must be two integers lo,hi, got {value!r}")
    return tuple(window)


def load_config(args: argparse.Namespace) -> SimpleNamespace:
    """``command`` and each setting it reads: the default, then the file, then the flag."""
    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = sorted(raw.keys() - {key for key, *_ in _SETTINGS})
        if unknown:
            raise ConfigError(f"config file keys that name no setting: {unknown}")

    flags = {key: value for key, value in vars(args).items() if value is not None}
    cfg = SimpleNamespace(command=args.command)
    for key, convert, default, commands, _ in _SETTINGS:
        if args.command not in commands:
            continue  # one file may serve several commands
        value = _COMMANDS[args.command][1] if key == "tol" else default
        for source in (raw, flags):
            if key in source:
                try:
                    value = convert(source[key])
                except (TypeError, ValueError, OverflowError) as exc:  # 10**400 for a float
                    raise ConfigError(f"bad value for {key}: {exc}") from exc
        setattr(cfg, key, value)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


# ---------------------------------------------------------------------------
# commands: each returns (columns, rows, checks) where checks is a list of
# (name, passed, detail) used for the verdict
# ---------------------------------------------------------------------------


def _require_ordering(name: str | None) -> Ordering:
    try:
        return Ordering(name)
    except ValueError:
        names = sorted(o.value for o in Ordering)
        raise ConfigError(f"target/ordering must be one of {names}, got {name!r}") from None


def _one(command: str, key: str, values, default: int) -> list[int]:
    """A list setting that the command runs at one value; none given is the default."""
    if len(values) > 1:
        raise ConfigError(f"{command} runs one {key}, got {values}")
    return values or [default]


def _sweep_checks(errs: list, nonincreasing: str, final: str, bound: float, bound_text: str):
    """A sweep's verdicts: its errors never grow, and the last one is within bound."""
    checks = []
    if len(errs) > 1:
        mono = all(b <= a for a, b in zip(errs, errs[1:]))
        checks.append((nonincreasing, mono, f"errors {errs}"))
    if errs:
        checks.append((final, errs[-1] <= bound, f"{errs[-1]:.3e} <= {bound_text}"))
    return checks


def cmd_order(cfg: SimpleNamespace):
    if cfg.expr is None:
        raise ConfigError("order needs an operator expression (--expr or config 'expr')")
    target = _require_ordering(cfg.target)
    poly = parse_operator(cfg.expr)  # refuses a coefficient that overflowed
    symbol = to_ordered_form(poly, target)
    term = _non_finite_term(symbol)  # reordering can overflow finite coefficients
    if term is not None:
        raise ConfigError(f"{target.value} symbol term {term} has a non-finite coefficient")
    columns = ["expr", "target", "symbol"]
    row = [cfg.expr, target.value, format_symbol(symbol)]
    checks = []
    if cfg.verify:
        # both matrices come from normal-ordered forms, so every entry of the
        # truncated space is exact and all of them are compared
        basis = FockBasis(poly.modes, cfg.n_max)
        H_original = hamiltonian_matrix(poly, basis)
        H_round_trip = hamiltonian_matrix(quantize(symbol), basis)
        residual = float(np.abs(H_original - H_round_trip).max())
        columns.append("residual")
        row.append(residual)
        checks.append(
            ("round_trip_residual", residual <= cfg.tol, f"{residual:.3e} <= {cfg.tol:g}")
        )
    return columns, [row], checks, []


def cmd_free_energy(cfg: SimpleNamespace):
    if not cfg.N:
        raise ConfigError("free-energy needs a sweep list of N values")
    model = QuadraticModel(cfg.A, cfg.beta)
    exact = exact_dFdA(model)

    rows = [["", "exact", exact, 0.0, ""]]
    methods = {"normal-discrete": normal_discrete_dFdA, "weyl-discrete": weyl_discrete_dFdA}
    for method, dFdA in methods.items():
        for N in cfg.N:
            try:
                value = dFdA(MatsubaraGrid(N, cfg.beta), model)
            except EvenSliceCountError:
                rows.append([N, method, "", "", "refused: even N"])
            except SingularityError as exc:
                rows.append([N, method, "", "", f"singular: {exc}"])
            else:
                rows.append([N, method, value, abs(value - exact), ""])

    warnings = [f"N={row[0]} {row[1]}: {row[4]}" for row in rows if row[4]]
    checks = []
    for method in ("normal-discrete", "weyl-discrete"):
        errs = [row[3] for row in rows if row[1] == method and row[4] == ""]
        # tol * |exact|: fails, not divides, when exact underflows to 0
        names = (f"{method}_error_nonincreasing", f"{method}_final_rel_error")
        checks += _sweep_checks(errs, *names, cfg.tol * abs(exact), f"{cfg.tol:g} * |exact|")
    if not checks:  # every point refused: a verdict on no check would pass
        checks.append(("points_computed", False, f"0 of {len(rows) - 1} points computed"))
    return ["N", "method", "dFdA", "abs_error", "note"], rows, checks, warnings


def cmd_cutoff(cfg: SimpleNamespace):
    if not cfg.b:
        raise ConfigError("cutoff needs a sweep list of b values")
    chosen = []
    for name in cfg.ordering:
        ordering = _require_ordering(name)
        if ordering in chosen:
            raise ConfigError(f"ordering {ordering.value!r} is listed more than once")
        chosen.append(ordering)
    model = QuadraticModel(cfg.A, cfg.beta)
    exact = exact_dFdA(model)
    coth_half = exact + 0.5  # (1/2) coth(beta A / 2)

    # the orderings differ by their kappa alone, and the normal order's is 0
    normal = [cutoff_dFdA(model, b, Ordering.NORMAL) for b in cfg.b]
    rows, checks = [], []
    for ordering in chosen:
        limit = coth_half + KAPPA[ordering]
        errs = []
        for b, normal_value in zip(cfg.b, normal):
            value = normal_value + KAPPA[ordering]
            errs.append(abs(value - limit))
            rows.append([b, ordering.value, value, errs[-1]])
        names = (f"{ordering.value}_error_nonincreasing", f"{ordering.value}_final_error")
        checks += _sweep_checks(errs, *names, cfg.tol, f"{cfg.tol:g}")
    return ["b", "ordering", "dFdA", "abs_error"], rows, checks, []


def cmd_prefactor(cfg: SimpleNamespace):
    if not cfg.N:
        raise ConfigError("prefactor needs a sweep list of (odd) N values")
    cfg.b = _one("prefactor", "b", cfg.b, 4)  # the config echoes the b that ran
    b = cfg.b[0]

    rows = []
    for N in cfg.N:
        emp = prefactor_log_empirical(N, b, cfg.beta, cfg.modes)
        closed = prefactor_log_closed(b, cfg.beta, cfg.modes)
        rel = abs(emp - closed) / abs(closed) if closed != 0 else abs(emp - closed)
        rows.append([N, b, emp, closed, rel])
    rels = [row[4] for row in rows]
    names = ("rel_difference_nonincreasing", "final_rel_difference")
    checks = _sweep_checks(rels, *names, cfg.tol, f"{cfg.tol:g}")[::-1]  # final first
    return ["N", "b", "log_empirical", "log_closed", "rel_difference"], rows, checks, []


def cmd_flow(cfg: SimpleNamespace):
    cfg.N = _one("flow", "N", cfg.N, 10001)  # the config echoes the N that ran
    N = cfg.N[0]
    model = QuadraticModel(cfg.A, cfg.beta)
    grid = MatsubaraGrid(N, cfg.beta)
    b_floor, modes = _flow_inputs(model, grid, cfg.b_floor, cfg.modes)
    if model.A <= 0:
        raise SingularityError("the flow's conservation check needs A > 0 (omega = 0 diverges)")
    if cfg.fit_window is None:
        # near the top shell (N-1)/2, tan(pi n / N) is far from pi n / N and
        # the corrections leave their 1/shell^2 law
        cfg.fit_window = (50, min(500, (N - 1) // 8))
    lo, hi = cfg.fit_window
    fit_lo, fit_hi = max(lo, b_floor + 1), min(hi, (N - 1) // 2)
    if fit_hi - fit_lo < 1:
        raise ConfigError(
            f"fit window [{lo}, {hi}] selects fewer than 2 shells above b_floor={cfg.b_floor}"
        )

    window = []  # the fit window's corrections, block by block

    def keep(first, correction_log, *_):
        if first <= fit_hi and first + len(correction_log) > fit_lo:
            part = correction_log[max(fit_lo - first, 0) : fit_hi + 1 - first]
            window.append(modes * part / grid.beta)

    log_c_shift, _, final_log_c, max_residual = _walk(model, grid, b_floor, modes, keep)
    # the flow's order, top shell first, as contiguous arrays
    shells = np.arange(fit_hi, fit_lo - 1, -1)
    corrections = np.concatenate([part[::-1] for part in reversed(window)])
    if corrections.min() > 0:
        slope = float(np.polyfit(np.log(shells), np.log(corrections), 1)[0])
        slope_detail = f"{slope:.4f} within -2 +- 0.2"
    else:  # c^2 / 4 tan^2 underflowed: a log of 0 would fit a nan slope
        slope, slope_detail = math.nan, "the fit window's corrections underflow to 0"
    # each correction is M log1p(c^2 / 4 tan^2) / beta, and the shift is M times their log1p sum
    accumulated = log_c_shift / grid.beta

    rows = [
        ["correction_slope", slope, "-2 +- 0.2"],
        ["max_conservation_residual", max_residual, "<= 1e-9"],
        ["accumulated_correction", accumulated, f"<= {cfg.tol:g}"],
        ["final_log_c", final_log_c, ""],
        ["final_A_eff", model.A, ""],
    ]
    checks = [
        ("correction_slope", abs(slope + 2.0) <= 0.2, slope_detail),
        ("conservation", max_residual <= 1e-9, f"{max_residual:.3e} <= 1e-9"),
        ("accumulated_correction", accumulated <= cfg.tol, f"{accumulated:.3e} <= {cfg.tol:g}"),
    ]
    return ["metric", "value", "threshold"], rows, checks, []


def cmd_identity_check(cfg: SimpleNamespace):
    basis = FockBasis(cfg.modes, cfg.n_max)
    deviation = check_resolution_identity(basis, cfg.radial, cfg.angular, cfg.margin)
    rows = [[cfg.n_max, cfg.radial, cfg.angular, cfg.margin, deviation]]
    checks = [("deviation", deviation <= cfg.tol, f"{deviation:.3e} <= {cfg.tol:g}")]
    return ["n_max", "radial", "angular", "margin", "deviation"], rows, checks, []


#: every command: name -> (runner, default verdict tolerance)
_COMMANDS = {
    "order": (cmd_order, 1e-10),
    "free-energy": (cmd_free_energy, 1e-3),
    "cutoff": (cmd_cutoff, 1e-3),
    "prefactor": (cmd_prefactor, 1e-2),
    "flow": (cmd_flow, 1e-2),
    "identity-check": (cmd_identity_check, 1e-6),
}

#: every setting: (config key, converter, default, the commands that read it,
#: help).  Its flag is "--" + key with "_" -> "-"; a file value and a flag
#: string pass through the same converter, which refuses a JSON value of the
#: wrong type, and a given flag overrides the file.  A list setting takes a
#: comma-separated flag.  ``tol`` defaults to the command's own tolerance.
#: An absent flag is None, so ``--verify`` defaults to None.
_SETTINGS = (
    ("A", _as_float, 1.0, ("free-energy", "cutoff", "flow"), "quadratic coefficient"),
    ("beta", _as_float, 1.0, ("free-energy", "cutoff", "prefactor", "flow"), "inverse temperature"),
    ("N", _as_list(_as_int), (), ("free-energy", "prefactor", "flow"), "slice count(s)"),
    ("b", _as_list(_as_int), (), ("cutoff", "prefactor"), "cutoff(s)"),
    ("ordering", _as_list(_as_str), ("normal", "antinormal", "weyl"), ("cutoff",), "ordering(s)"),
    ("expr", _as_str, None, ("order",), "operator expression, e.g. 'ad_0*a_0'"),
    ("target", _as_str, None, ("order",), "normal | antinormal | weyl"),
    ("verify", _as_bool, False, ("order",), "report the Fock round-trip residual"),
    ("n_max", _as_int, 8, ("order", "identity-check"), "occupancy cap per mode"),
    ("radial", _as_int, 64, ("identity-check",), "Gauss-Laguerre nodes in |z|^2"),
    ("angular", _as_int, 64, ("identity-check",), "uniform angular nodes"),
    ("margin", _as_int, 2, ("identity-check",), "top occupancies not compared"),
    ("modes", _as_int, 1, ("prefactor", "flow", "identity-check"), "number of modes"),
    ("b_floor", _as_int, 40, ("flow",), "lowest shell kept"),
    # None: [50, min(500, top shell // 4)]
    ("fit_window", _as_window, None, ("flow",), "shells lo,hi of the slope fit"),
    ("tol", _as_tol, None, _COMMANDS, "verdict tolerance (default per command)"),
    ("out", _as_str, None, _COMMANDS, "output path (.csv or .json); default stdout CSV"),
)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _emit(cfg: SimpleNamespace, columns, rows, checks, warnings, passed: bool) -> None:
    formatted = [[_fmt(v) for v in row] for row in rows]
    csv_text = ",".join(columns) + "\n"
    csv_text += "".join(",".join(row) + "\n" for row in formatted)

    if cfg.out and cfg.out.endswith(".json"):
        doc = {
            "config": {key: value for key, value in vars(cfg).items() if key != "out"},
            "columns": columns,
            "rows": formatted,
            "checks": [
                {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks
            ],
            "verdict": "pass" if passed else "fail",
        }
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    for name, ok, detail in checks:
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})", file=sys.stderr)
    print(f"verdict: {'pass' if passed else 'fail'}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspi",
        description="Lattice and continuum coherent-state path-integral checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # no abbreviations: free-energy has no --b, which must not read as --beta
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(command_error=p.error)  # reports under this command's usage line
        p.add_argument("--config", help="JSON config file")
        for key, convert, _, commands, text in _SETTINGS:
            if name in commands:
                switch = {"action": "store_true", "default": None} if convert is _as_bool else {}
                p.add_argument("--" + key.replace("_", "-"), help=text, **switch)
    return parser


#: the parser of :func:`main`, built once per process; parsing leaves it unchanged
_PARSER = build_parser()


def main(argv=None) -> int:
    args, extra = _PARSER.parse_known_args(argv)
    if extra:
        args.command_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = load_config(args)
        columns, rows, checks, warnings = _COMMANDS[args.command][0](cfg)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the last resort for a size no budget refused
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    passed = all(p for _, p, _ in checks)
    try:
        _emit(cfg, columns, rows, checks, warnings, passed)
    except OSError as exc:  # a missing directory, or a directory as --out
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
