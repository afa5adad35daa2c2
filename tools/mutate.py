"""First-order mutation probe: which one-token changes to a module do its tests miss?

Each mutant changes one site of the module's syntax tree:

* ``+`` <-> ``-`` and ``*`` <-> ``/`` (binary and augmented operators);
* ``<`` <-> ``<=`` and ``>`` <-> ``>=``;
* every int or float constant plus 1.

The mutant's source (``ast.unparse``) replaces the module in a temporary
copy of ``src/``, and the given test files run against it in a fresh
``pytest -x``.  A mutant is killed when the run fails or times out; the
survivors are printed with their line, and each one is either a missing
test or an equivalent mutant.  Standard library only; not part of the test
suite.  Run it from the repository root:

    python tools/mutate.py src/cspi/flow.py tests/test_flow.py tests/test_acceptance.py

``--line`` restricts the probe to the sites on the given lines.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
TIMEOUT_S = 300.0  # a mutant that runs longer, say one that loops, counts as killed


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None, str]]:
    """Every mutation site as (node, index into ``Compare.ops`` or None, description)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            op = type(node.op)
            found.append((node, None, f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}"))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(map(type, node.ops)):
                if op in SWAPS:
                    found.append((node, i, f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node, None, f"{node.value!r} -> {node.value + 1!r}"))
    return found


def mutant(source: str, k: int) -> str:
    """The module source with its ``k``-th site mutated."""
    tree = ast.parse(source)
    node, i, _ = sites(tree)[k]
    if isinstance(node, ast.Constant):
        node.value += 1
    elif i is None:
        node.op = SWAPS[type(node.op)]()
    else:
        node.ops[i] = SWAPS[type(node.ops[i])]()
    return ast.unparse(tree)


def passes(src: Path, tests: list[str]) -> bool:
    """Whether ``tests`` pass with ``src`` first on the import path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(cmd, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module under src/, e.g. src/cspi/flow.py")
    parser.add_argument("tests", nargs="+", help="test files or node ids to run on each mutant")
    parser.add_argument("--line", type=int, action="append", help="probe only this line")
    args = parser.parse_args(argv)

    module = Path(args.module).resolve()
    src = Path("src").resolve()
    source = module.read_text()
    chosen = [
        (k, node.lineno, what)
        for k, (node, _, what) in enumerate(sites(ast.parse(source)))
        if args.line is None or node.lineno in args.line
    ]
    lines = source.splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / module.relative_to(src)
        target.write_text(ast.unparse(ast.parse(source)))
        if not passes(copy, args.tests):
            print("the tests fail on the unmutated module; nothing to probe", file=sys.stderr)
            return 2
        survivors = 0
        for k, line, what in chosen:
            target.write_text(mutant(source, k))
            if passes(copy, args.tests):
                survivors += 1
                print(f"{module.name}:{line}: {what}  | {lines[line - 1].strip()}", flush=True)
    killed = len(chosen) - survivors
    print(f"killed {killed} of {len(chosen)} mutants, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
