"""Command-line front end.

Each subcommand reproduces one family of checks as a deterministic report:
a CSV table (stdout or ``--out file.csv``) or a JSON document
(``--out file.json``) that mirrors the table plus the effective config and
the pass/fail verdict.  Verdicts and warnings go to stderr; the table is
never polluted, so identical configs give byte-identical CSV.

One table, ``_SETTINGS``, knows every setting: its config key, its
``RunConfig`` field, its converter and the commands that read it.  A command
has ``--config`` plus the flag (``--`` + key, ``_`` -> ``-``) of each setting
it reads, and nothing else.  A config file may hold the key of any setting:
one this command does not read is ignored, one that names no setting is an
error.  The JSON config echoes the settings the command read, with the values
it ran with (its verdict tolerance included).  ``_COMMANDS`` maps each command
to its runner and its default tolerance.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 config/parse error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import KAPPA, Ordering, SymbolPoly, quantize, to_ordered_form
from .continuum import cutoff_dFdA, prefactor_log_closed, prefactor_log_empirical
from .discrete import MatsubaraGrid, normal_discrete_dFdA, weyl_discrete_dFdA
from .errors import EvenSliceCountError, SingularityError
from .expr import ParseError, format_symbol, parse_operator
from .flow import run_flow
from .fock import (
    FockBasis,
    QuadraticModel,
    check_resolution_identity,
    exact_dFdA,
    hamiltonian_matrix,
)


class ConfigError(ValueError):
    """Bad run configuration (missing/ill-typed keys, invalid sweeps)."""


@dataclass
class RunConfig:
    """Effective, merged configuration of a single run."""

    command: str
    A: float = 1.0
    beta: float = 1.0
    N_values: list[int] = field(default_factory=list)
    b_values: list[int] = field(default_factory=list)
    orderings: list[str] = field(default_factory=lambda: ["normal", "antinormal", "weyl"])
    expr: str | None = None
    target: str | None = None
    verify: bool = False
    n_max: int = 8
    radial_nodes: int = 64
    angular_nodes: int = 64
    margin: int = 2
    modes: int = 1
    b_floor: int = 40
    fit_window: tuple[int, int] | None = None  # None: [50, min(500, top shell // 4)]
    tol: float | None = None  # None: the command's default, set by load_config
    out: str | None = None

    def echo(self) -> dict:
        """The settings this command read, with the values it ran with."""
        return {
            "command": self.command,
            **{
                key: getattr(self, name)
                for key, name, _, commands, _ in _SETTINGS
                if self.command in commands and key != "out"
            },
        }


def _as_int(value) -> int:
    """An int, an integral float or an integer string; a fraction or a bool is refused."""
    number = int(value) if isinstance(value, str) else value
    if isinstance(number, bool) or not float(number).is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(number)


def _as_int_list(value) -> list[int]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v]
    if not isinstance(value, (list, tuple)):
        value = [value]
    if not value:
        raise ValueError("sweep list must be non-empty")
    return [_as_int(v) for v in value]


def _as_str_list(value) -> list[str]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v]
    out = [str(v) for v in value]
    if not out:
        raise ValueError("list must be non-empty")
    return out


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _as_tol(value) -> float:
    if not 0 <= float(value) < math.inf:
        raise ValueError(f"must be finite and non-negative, got {value!r}")
    return float(value)


def _as_window(value) -> tuple[int, int]:
    window = _as_int_list(value)
    if len(window) != 2:
        raise ValueError(f"must be two integers lo,hi, got {value!r}")
    return tuple(window)


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge the JSON config file (if any) with the flags, for the settings the command reads."""
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
    cfg = RunConfig(command=args.command, tol=_COMMANDS[args.command][1])
    for key, name, convert, commands, _ in _SETTINGS:
        if args.command not in commands:
            continue  # one file may serve several commands
        for source in (raw, flags):
            if key in source:
                try:
                    setattr(cfg, name, convert(source[key]))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad value for {key}: {exc}") from exc
    return cfg


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
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


def _one(command: str, key: str, values: list[int], default: int) -> list[int]:
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


def cmd_order(cfg: RunConfig):
    if cfg.expr is None:
        raise ConfigError("order needs an operator expression (--expr or config 'expr')")
    target = _require_ordering(cfg.target)
    poly = parse_operator(cfg.expr)  # refuses a coefficient that overflowed
    symbol = to_ordered_form(poly, target)
    for key, coeff in symbol.terms.items():  # reordering can overflow finite coefficients
        if not cmath.isfinite(coeff):
            term = format_symbol(SymbolPoly({key: coeff}, symbol.modes, target))
            raise ConfigError(f"{target.value} symbol term {term} has a non-finite coefficient")
    row = [cfg.expr, target.value, format_symbol(symbol)]
    checks = []
    if cfg.verify:
        # both matrices come from normal-ordered forms, so every entry of the
        # truncated space is exact and all of them are compared
        basis = FockBasis(poly.modes, cfg.n_max)
        H_original = hamiltonian_matrix(poly, basis)
        H_round_trip = hamiltonian_matrix(quantize(symbol), basis)
        residual = float(np.abs(H_original - H_round_trip).max())
        row.append(residual)
        checks.append(
            ("round_trip_residual", residual <= cfg.tol, f"{residual:.3e} <= {cfg.tol:g}")
        )
        return ["expr", "target", "symbol", "residual"], [row], checks
    return ["expr", "target", "symbol"], [row], checks


def cmd_free_energy(cfg: RunConfig):
    if not cfg.N_values:
        raise ConfigError("free-energy needs a sweep list of N values")
    model = QuadraticModel(cfg.A, cfg.beta)
    exact = exact_dFdA(model)

    def point(item):
        method, N = item
        try:
            grid = MatsubaraGrid(N, cfg.beta)
            if method == "normal-discrete":
                value = normal_discrete_dFdA(grid, model)
            else:
                value = weyl_discrete_dFdA(grid, model)
            return [N, method, value, abs(value - exact), ""]
        except EvenSliceCountError:
            return [N, method, "", "", "refused: even N"]
        except SingularityError as exc:
            return [N, method, "", "", f"singular: {exc}"]

    points = [("normal-discrete", N) for N in cfg.N_values]
    points += [("weyl-discrete", N) for N in cfg.N_values]
    rows = [["", "exact", exact, 0.0, ""]] + [point(item) for item in points]

    for row in rows:
        if row[4]:
            print(f"warning: N={row[0]} {row[1]}: {row[4]}", file=sys.stderr)

    checks = []
    for method in ("normal-discrete", "weyl-discrete"):
        errs = [row[3] for row in rows if row[1] == method and row[4] == ""]
        # tol * |exact|: fails, not divides, when exact underflows to 0
        names = (f"{method}_error_nonincreasing", f"{method}_final_rel_error")
        checks += _sweep_checks(errs, *names, cfg.tol * abs(exact), f"{cfg.tol:g} * |exact|")
    return ["N", "method", "dFdA", "abs_error", "note"], rows, checks


def cmd_cutoff(cfg: RunConfig):
    if not cfg.b_values:
        raise ConfigError("cutoff needs a sweep list of b values")
    orderings = []
    for name in cfg.orderings:
        ordering = _require_ordering(name)
        if ordering in orderings:
            raise ConfigError(f"ordering {ordering.value!r} is listed more than once")
        orderings.append(ordering)
    model = QuadraticModel(cfg.A, cfg.beta)
    exact = exact_dFdA(model)
    coth_half = exact + 0.5  # (1/2) coth(beta A / 2)

    def point(item):
        b, ordering = item
        value = cutoff_dFdA(model, b, ordering)
        limit = coth_half + KAPPA[ordering]
        return [b, ordering.value, value, abs(value - limit)]

    points = [(b, o) for o in orderings for b in cfg.b_values]
    rows = [point(item) for item in points]

    checks = []
    for ordering in orderings:
        errs = [row[3] for row in rows if row[1] == ordering.value]
        names = (f"{ordering.value}_error_nonincreasing", f"{ordering.value}_final_error")
        checks += _sweep_checks(errs, *names, cfg.tol, f"{cfg.tol:g}")
    return ["b", "ordering", "dFdA", "abs_error"], rows, checks


def cmd_prefactor(cfg: RunConfig):
    if not cfg.N_values:
        raise ConfigError("prefactor needs a sweep list of (odd) N values")
    cfg.b_values = _one("prefactor", "b", cfg.b_values, 4)  # the config echoes the b that ran
    b = cfg.b_values[0]

    def point(N):
        emp = prefactor_log_empirical(N, b, cfg.beta, cfg.modes)
        closed = prefactor_log_closed(b, cfg.beta, cfg.modes)
        rel = abs(emp - closed) / abs(closed) if closed != 0 else abs(emp - closed)
        return [N, b, emp, closed, rel]

    rows = [point(N) for N in cfg.N_values]
    rels = [row[4] for row in rows]
    names = ("rel_difference_nonincreasing", "final_rel_difference")
    checks = _sweep_checks(rels, *names, cfg.tol, f"{cfg.tol:g}")[::-1]  # final first
    return ["N", "b", "log_empirical", "log_closed", "rel_difference"], rows, checks


def cmd_flow(cfg: RunConfig):
    cfg.N_values = _one("flow", "N", cfg.N_values, 10001)  # the config echoes the N that ran
    N = cfg.N_values[0]
    model = QuadraticModel(cfg.A, cfg.beta)
    result = run_flow(model, MatsubaraGrid(N, cfg.beta), cfg.b_floor, cfg.modes)
    if result.conservation_residuals is None:
        raise SingularityError("the flow's conservation check needs A > 0 (omega = 0 diverges)")
    max_residual = float(result.conservation_residuals.max())

    if cfg.fit_window is None:
        # near the top shell (N-1)/2, tan(pi n / N) is far from pi n / N and
        # the corrections leave their 1/shell^2 law
        cfg.fit_window = (50, min(500, (N - 1) // 8))
    lo, hi = cfg.fit_window
    window = (result.shells >= max(lo, cfg.b_floor + 1)) & (result.shells <= hi)
    if window.sum() < 2:
        raise ConfigError(
            f"fit window [{lo}, {hi}] selects fewer than 2 shells above b_floor={cfg.b_floor}"
        )
    slope = float(
        np.polyfit(np.log(result.shells[window]), np.log(result.corrections[window]), 1)[0]
    )
    accumulated = float(result.corrections.sum())

    rows = [
        ["correction_slope", slope, "-2 +- 0.2"],
        ["max_conservation_residual", max_residual, "<= 1e-9"],
        ["accumulated_correction", accumulated, f"<= {cfg.tol:g}"],
        ["final_log_c", result.final.log_c, ""],
        ["final_A_eff", result.final.A_eff, ""],
    ]
    checks = [
        ("correction_slope", abs(slope + 2.0) <= 0.2, f"{slope:.4f} within -2 +- 0.2"),
        ("conservation", max_residual <= 1e-9, f"{max_residual:.3e} <= 1e-9"),
        ("accumulated_correction", accumulated <= cfg.tol, f"{accumulated:.3e} <= {cfg.tol:g}"),
    ]
    return ["metric", "value", "threshold"], rows, checks


def cmd_identity_check(cfg: RunConfig):
    basis = FockBasis(cfg.modes, cfg.n_max)
    deviation = check_resolution_identity(
        basis, cfg.radial_nodes, cfg.angular_nodes, cfg.margin
    )
    rows = [[cfg.n_max, cfg.radial_nodes, cfg.angular_nodes, cfg.margin, deviation]]
    checks = [("deviation", deviation <= cfg.tol, f"{deviation:.3e} <= {cfg.tol:g}")]
    return ["n_max", "radial", "angular", "margin", "deviation"], rows, checks


#: every command: name -> (runner, default verdict tolerance)
_COMMANDS = {
    "order": (cmd_order, 1e-10),
    "free-energy": (cmd_free_energy, 1e-3),
    "cutoff": (cmd_cutoff, 1e-3),
    "prefactor": (cmd_prefactor, 1e-2),
    "flow": (cmd_flow, 1e-2),
    "identity-check": (cmd_identity_check, 1e-6),
}

#: every setting: (config key, RunConfig field, converter, the commands that
#: read it, help).  Its flag is "--" + key with "_" -> "-"; a file value and a
#: flag string pass through the same converter, and a given flag overrides the
#: file.  A list setting takes a comma-separated flag.  An absent flag is
#: None, so ``--verify`` defaults to None.
_SETTINGS = (
    ("A", "A", float, ("free-energy", "cutoff", "flow"), "quadratic coefficient"),
    ("beta", "beta", float, ("free-energy", "cutoff", "prefactor", "flow"), "inverse temperature"),
    ("N", "N_values", _as_int_list, ("free-energy", "prefactor", "flow"), "slice count(s)"),
    ("b", "b_values", _as_int_list, ("cutoff", "prefactor"), "cutoff(s)"),
    ("ordering", "orderings", _as_str_list, ("cutoff",), "ordering(s)"),
    ("expr", "expr", str, ("order",), "operator expression, e.g. 'ad_0*a_0'"),
    ("target", "target", str, ("order",), "normal | antinormal | weyl"),
    ("verify", "verify", _as_bool, ("order",), "report the Fock round-trip residual"),
    ("n_max", "n_max", _as_int, ("order", "identity-check"), "occupancy cap per mode"),
    ("radial", "radial_nodes", _as_int, ("identity-check",), "Gauss-Laguerre nodes in |z|^2"),
    ("angular", "angular_nodes", _as_int, ("identity-check",), "uniform angular nodes"),
    ("margin", "margin", _as_int, ("identity-check",), "top occupancies not compared"),
    ("modes", "modes", _as_int, ("prefactor", "flow", "identity-check"), "number of modes"),
    ("b_floor", "b_floor", _as_int, ("flow",), "lowest shell kept"),
    ("fit_window", "fit_window", _as_window, ("flow",), "shells lo,hi of the slope fit"),
    ("tol", "tol", _as_tol, _COMMANDS, "verdict tolerance (default per command)"),
    ("out", "out", str, _COMMANDS, "output path (.csv or .json); default stdout CSV"),
)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _emit(cfg: RunConfig, columns, rows, checks) -> None:
    formatted = [[_fmt(v) for v in row] for row in rows]
    csv_text = ",".join(columns) + "\n"
    csv_text += "".join(",".join(row) + "\n" for row in formatted)

    if cfg.out and cfg.out.endswith(".json"):
        doc = {
            "config": cfg.echo(),
            "columns": columns,
            "rows": formatted,
            "checks": [
                {"name": name, "passed": passed, "detail": detail}
                for name, passed, detail in checks
            ],
            "verdict": "pass" if all(p for _, p, _ in checks) else "fail",
        }
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    for name, passed, detail in checks:
        print(f"check {name}: {'pass' if passed else 'FAIL'} ({detail})", file=sys.stderr)
    verdict = "pass" if all(p for _, p, _ in checks) else "fail"
    print(f"verdict: {verdict}", file=sys.stderr)


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
        for key, _, convert, commands, text in _SETTINGS:
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
        columns, rows, checks = _COMMANDS[args.command][0](cfg)
    except (ConfigError, ParseError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(cfg, columns, rows, checks)
    return 0 if all(p for _, p, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
