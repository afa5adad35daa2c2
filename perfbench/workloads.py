"""Ops of the two workloads: what each one runs, and how its output is checked.

``build(workload, seed)`` is the set-up: it turns the seeded inputs into ops
whose ``run`` calls cspi (``cspi.cli.main`` in-process, or the public API).
``attach_references(ops)`` then computes each op's reference and sets its
``check``; it never calls cspi for a value it checks.

Two workloads: ``lattice-sweep``, and ``operators``, which runs the
operator-verify ops and then the path-action ops of the same seed.

An op *fails* if it raises, exits non-zero, or disagrees with its reference
beyond the tolerance below.  It is *wrong* (and the run not correct) if it
raises, exits with a usage error (2), prints something unreadable, or
disagrees with its reference; a verdict gate that exits 1 while every output
matches the reference is a failure but not a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import inputs
import oracles

#: relative tolerances, stated per output kind
TOL_LATTICE = 1e-6   # free-energy, cutoff, prefactor and flow values
TOL_TERMS = 1e-12    # symbol and symmetrized-operator coefficients (norm-wise)
TOL_MATRIX = 1e-12   # dense Fock matrix (norm-wise)
TOL_Z = 1e-9         # partition function
TOL_ACTION = 1e-9    # path actions
TOL_IDENTITY = 1e-6  # absolute deviation of the resolution of identity

FLOW_B_FLOOR = 40  # cspi flow's default


@dataclass
class Verdict:
    failed: bool = False
    wrong: bool = False
    note: str = ""
    digits: list = field(default_factory=list)
    diag: dict = field(default_factory=dict)

    def compare(self, label: str, got, ref, tol: float, scale: float | None = None) -> None:
        """Relative error of ``got`` against ``ref`` (or against ``scale``)."""
        err = abs(complex(got) - complex(ref)) / scale if scale else oracles.rel_error(got, ref)
        self.record(label, err, tol)

    def record(self, label: str, err: float, tol: float) -> None:
        self.digits.append(oracles.digits(err))
        if not err <= tol:
            self.fail(f"{label}: rel. error {err:.3e} > {tol:g}", wrong=True)

    def fail(self, note: str, wrong: bool = False) -> None:
        self.failed = True
        self.wrong = self.wrong or wrong
        self.note = f"{self.note}; {note}" if self.note else note


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    spec: dict
    #: builds ``check`` from ``spec``; called by ``attach_references``
    reference: Callable[[dict], Callable[[object], Verdict]] | None = None
    check: Callable[[object], Verdict] | None = None


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    import cspi.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cspi.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _cli_rows(result, verdict: Verdict) -> list[list[str]]:
    """Data rows of a CLI op's CSV; records exit-code failures on ``verdict``."""
    code, stdout, stderr = result
    if code != 0:
        lines = [ln for ln in stderr.splitlines() if "FAIL" in ln or ln.startswith("error")]
        verdict.fail(f"exit {code}: {' | '.join(lines)}", wrong=code != 1)
    rows = [line.split(",") for line in stdout.splitlines()[1:]]
    if not rows and code in (0, 1):
        verdict.fail("no report rows", wrong=True)
    return rows


def _guard(check):
    """A check that cannot read the output counts the op as wrong."""

    def guarded(result) -> Verdict:
        if isinstance(result, BaseException):
            verdict = Verdict()
            verdict.fail(f"raised {type(result).__name__}: {result}", wrong=True)
            return verdict
        try:
            return check(result)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            verdict = Verdict()
            verdict.fail(f"unreadable output: {type(exc).__name__}: {exc}", wrong=True)
            return verdict

    return guarded


# ---------------------------------------------------------------------------
# lattice-sweep
# ---------------------------------------------------------------------------

_SHIFT = {"normal": 0.0, "antinormal": -1.0, "weyl": -0.5}


def _lattice_op(spec: dict) -> Op:
    cmd, sizes = spec["command"], spec["sizes"]
    argv = [cmd, "--beta", repr(spec["beta"])]
    if cmd != "prefactor":
        argv += ["--A", repr(spec["A"])]
    argv += ["--b" if cmd == "cutoff" else "--N", ",".join(map(str, sizes))]
    return Op(f"{cmd} {','.join(map(str, sizes))}", lambda: run_cli(argv), spec, _lattice_reference)


def _lattice_reference(spec: dict):
    cmd, sizes, A, beta = spec["command"], spec["sizes"], spec["A"], spec["beta"]
    if cmd == "free-energy":
        ref = {("", "exact"): oracles.exact_dFdA(A, beta)}
        for N in sizes:
            ref[(str(N), "normal-discrete")] = oracles.normal_dFdA(N, A, beta)
            ref[(str(N), "weyl-discrete")] = oracles.weyl_dFdA(N, A, beta)
        ref = {k: float(v) for k, v in ref.items()}

        def check(result):
            v = Verdict()
            for row in _cli_rows(result, v):
                v.compare(f"{row[1]} N={row[0]}", float(row[2]), ref[(row[0], row[1])], TOL_LATTICE)
            return v

    elif cmd == "cutoff":
        ref = {(str(b), o): float(oracles.cutoff_dFdA(b, A, beta, s)) for b in sizes for o, s in _SHIFT.items()}

        def check(result):
            v = Verdict()
            for row in _cli_rows(result, v):
                value = ref[(row[0], row[1])]
                # relative to the frequency sum itself: a shifted value can sit near 0
                scale = max(abs(value), abs(value - _SHIFT[row[1]]))
                v.compare(f"{row[1]} b={row[0]}", float(row[2]), value, TOL_LATTICE, scale)
            return v

    elif cmd == "prefactor":
        closed = float(oracles.prefactor_log_closed(4, beta))
        ref = {str(N): float(oracles.prefactor_log_empirical(N, 4, beta)) for N in sizes}

        def check(result):
            v = Verdict()
            for row in _cli_rows(result, v):
                v.compare(f"log_empirical N={row[0]}", float(row[2]), ref[row[0]], TOL_LATTICE)
                v.compare(f"log_closed N={row[0]}", float(row[3]), closed, TOL_LATTICE)
            return v

    else:
        log_c, acc = (float(x) for x in oracles.flow_final(sizes[0], A, beta, FLOW_B_FLOOR))
        ref = {"final_log_c": log_c, "accumulated_correction": acc, "final_A_eff": A}

        def check(result):
            v = Verdict()
            rows = {row[0]: float(row[1]) for row in _cli_rows(result, v)}
            for key, value in ref.items():
                v.compare(key, rows[key], value, TOL_LATTICE)
            v.diag["conservation_residual"] = rows["max_conservation_residual"]
            return v

    return check


# ---------------------------------------------------------------------------
# operators, part 1: reorders, verify, symmetrize and dense Fock builds
# ---------------------------------------------------------------------------


def _ladder(coeff, mode, creation, modes):
    import cspi

    unit = cspi.BosonPoly.create(mode, modes) if creation else cspi.BosonPoly.annihilate(mode, modes)
    return complex(float(coeff[0]), float(coeff[1])) * unit


def _operator_op(spec: dict) -> Op:
    import cspi

    kind, modes, degree = spec["kind"], spec["modes"], spec["degree"]
    name = f"{kind} modes={modes} degree={degree}"
    if kind in ("reorder", "verify"):
        argv = ["order", "--expr", inputs.format_operator_text(spec["terms"]), "--target", spec["target"]]
        if kind == "verify":
            argv += ["--verify", "--n-max", str(degree)]
        return Op(f"{name} target={spec['target']}", lambda: run_cli(argv), spec, _operator_reference)
    if kind == "identity-check":
        argv = ["identity-check", "--modes", str(modes), "--n-max", str(degree)]
        return Op(name, lambda: run_cli(argv), spec, _operator_reference)
    if kind == "symmetrize":
        factors = [_ladder(c, m, cr, modes) for c, m, cr in spec["factors"]]
        return Op(f"{name} factors={len(factors)}", lambda: cspi.symmetrize(factors, modes), spec,
                  _operator_reference)

    poly = cspi.BosonPoly(oracles.as_complex(spec["terms"]), modes)
    # scale beta to the operator so exp(-beta E) stays within about e^+-2
    spec["beta"] = 2.0 / oracles.norm_bound(poly.terms, degree)

    def hamiltonian():
        H = cspi.hamiltonian_matrix(poly, cspi.FockBasis(modes, degree))
        return H, cspi.partition_function(H, spec["beta"])

    return Op(name, hamiltonian, spec, _operator_reference)


def _operator_reference(spec: dict):
    kind, modes = spec["kind"], spec["modes"]
    if kind in ("reorder", "verify"):
        ref = oracles.as_complex(oracles.symbol(spec["terms"], spec["target"]))

        def check(result):
            v = Verdict()
            for row in _cli_rows(result, v):
                got = oracles.parse_poly_text(row[2], modes)
                v.record("symbol", oracles.terms_rel_error(got, ref), TOL_TERMS)
            return v

    elif kind == "identity-check":

        def check(result):
            v = Verdict()
            for row in _cli_rows(result, v):
                if not float(row[4]) <= TOL_IDENTITY:
                    v.fail(f"deviation {row[4]} > {TOL_IDENTITY:g}", wrong=True)
            return v

    elif kind == "symmetrize":
        ref = oracles.as_complex(oracles.symmetrized_product(spec["factors"], modes))

        def check(result):
            v = Verdict()
            v.record("terms", oracles.terms_rel_error(dict(result.terms), ref), TOL_TERMS)
            return v

    else:
        H_ref = oracles.fock_matrix(oracles.as_complex(spec["terms"]), modes, spec["degree"])
        Z_ref = oracles.partition_function(H_ref, spec["beta"])
        scale = float(np.abs(H_ref).max())

        def check(result):
            H, Z = result
            v = Verdict()
            v.record("matrix", float(np.abs(H - H_ref).max()) / scale, TOL_MATRIX)
            v.compare("Z", Z, Z_ref, TOL_Z)
            return v

    return check


# ---------------------------------------------------------------------------
# operators, part 2: path actions
# ---------------------------------------------------------------------------


def _path_values(op: dict) -> np.ndarray:
    rng = np.random.default_rng(op["path_seed"])
    raw = rng.standard_normal((op["N"], op["modes"], 2))
    return 0.5 * (raw[..., 0] + 1j * raw[..., 1])


def _path_ops(bank: dict) -> list[Op]:
    import cspi

    symbols = []
    for (modes, _), terms in zip(inputs.CELLS, bank["operators"]):
        poly = cspi.BosonPoly(oracles.as_complex(terms), modes)
        symbols.append({o: cspi.to_ordered_form(poly, cspi.Ordering(o)) for o in inputs.ORDERINGS})
    ops = []
    for spec in bank["ops"]:
        path = cspi.DiscretePath(_path_values(spec), spec["domain"])
        grid = cspi.MatsubaraGrid(spec["N"], 1.0)
        fn = f"action_{spec['action']}"
        sym = symbols[spec["cell"]][spec["action"]]
        spec = dict(spec, terms=bank["operators"][spec["cell"]])
        name = f"{fn} N={spec['N']} modes={spec['modes']} {spec['domain']}"
        # look the function up per call, so a traced pass sees the wrapper
        ops.append(Op(name, lambda fn=fn, path=path, sym=sym, grid=grid: getattr(cspi, fn)(path, sym, grid), spec,
                      _path_reference))
    return ops


def _path_reference(spec: dict):
    exact = oracles.as_complex(oracles.symbol(spec["terms"], spec["action"]))
    ref = oracles.action(spec["action"], _path_values(spec), spec["domain"], exact)

    def check(result):
        v = Verdict()
        v.compare("action", result, ref, TOL_ACTION)
        return v

    return check


# ---------------------------------------------------------------------------


def build(workload: str, seed: int) -> list[Op]:
    """Set-up: seeded inputs turned into runnable ops (calls cspi, no references)."""
    generated = inputs.GENERATORS[workload](seed)
    if workload == "lattice-sweep":
        return [_lattice_op(spec) for spec in generated]
    return [_operator_op(spec) for spec in generated["verify"]] + _path_ops(generated["paths"])


def attach_references(ops: list[Op]) -> None:
    for op in ops:
        op.check = _guard(op.reference(op.spec))


WORKLOADS = tuple(inputs.GENERATORS)
