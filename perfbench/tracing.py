"""Per-layer timing by rebinding cspi's public functions from outside.

``Tracer`` wraps each function in ``TRACED`` and rebinds every module
attribute under ``cspi`` that refers to it (so ``cspi.cli``'s imported names
are covered too).  A wrapper records its span's self time (its duration minus
the spans of wrapped functions it called) and a call count, plus work counts
derived from the arguments.  Leaving the ``with`` block restores every
original binding, so later untraced passes call the unwrapped functions.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

#: module -> traced public functions ("Class.method" for methods)
TRACED = {
    "cspi.cli": ["main"],
    "cspi.expr": ["parse_operator", "format_symbol"],
    "cspi.algebra": ["multiply", "to_ordered_form", "quantize", "symmetrize", "SymbolPoly.evaluate"],
    "cspi.fock": ["hamiltonian_matrix", "partition_function", "check_resolution_identity"],
    "cspi.discrete": [
        "normal_discrete_dFdA",
        "weyl_discrete_dFdA",
        "weyl_discrete_logZ_quadratic",
        "action_normal",
        "action_antinormal",
        "action_weyl",
        "dft",
        "idft",
    ],
    "cspi.continuum": ["cutoff_dFdA", "prefactor_log_empirical"],
    "cspi.flow": ["run_flow"],
}

FREQ_SUMS = ("normal_discrete_dFdA", "weyl_discrete_dFdA", "weyl_discrete_logZ_quadratic")

#: work counters kept by ``_count``
COUNTS = (
    "discrete.freq_terms",
    "flow.shells",
    "algebra.terms_in",
    "algebra.terms_out",
    "fock.entries_computed",
    "fock.matrix_bytes_computed",
)


def span_name(module: str, name: str) -> str:
    return "cli.main" if (module, name) == ("cspi.cli", "main") else name


def _count(name, args, result, counts) -> None:
    """Work done by one call, computed from its arguments and result."""
    if name in FREQ_SUMS:
        counts["discrete.freq_terms"] += args[0].N
    elif name == "run_flow":
        counts["flow.shells"] += (args[1].N - 1) // 2 - args[2]
    elif name in ("to_ordered_form", "quantize"):
        counts["algebra.terms_in"] += len(args[0].terms)
        counts["algebra.terms_out"] += len(result.terms)
    elif name == "multiply":
        counts["algebra.terms_in"] += len(args[0].terms) + len(args[1].terms)
        counts["algebra.terms_out"] += len(result.terms)
    elif name == "symmetrize":
        counts["algebra.terms_in"] += len(args[0])
        counts["algebra.terms_out"] += len(result.terms)
    elif name == "hamiltonian_matrix":
        counts["fock.entries_computed"] += result.size
        counts["fock.matrix_bytes_computed"] += result.nbytes


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def take(self) -> tuple[dict, dict, dict]:
        """Return and reset the totals since the last call."""
        out = (dict(self.self_s), dict(self.calls), dict(self.counts))
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out

    def _wrap(self, name, fn):
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[name] += dt - children[0]
                calls[name] += 1
            _count(name, args, result, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        try:
            traced_modules = {name: importlib.import_module(name) for name in TRACED}
            cspi_modules = [m for n, m in list(sys.modules.items()) if n == "cspi" or n.startswith("cspi.")]
            for module_name, names in TRACED.items():
                module = traced_modules[module_name]
                for name in names:
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(module, cls_name)
                        orig = cls.__dict__[meth]
                        self._rebind(cls, meth, orig, self._wrap(name, orig))
                        continue
                    orig = getattr(module, name)
                    wrapper = self._wrap(span_name(module_name, name), orig)
                    for mod in cspi_modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self._rebind(mod, attr, orig, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _rebind(self, owner, attr, orig, wrapper) -> None:
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)
