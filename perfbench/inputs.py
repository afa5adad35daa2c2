"""Seeded inputs for the two workloads.

Everything here is pure Python (no cspi import), so a seed maps to the same
inputs byte for byte on any machine.  Operators are kept as exact Gaussian
rationals: a term map ``key -> (re, im)`` of ``Fraction`` pairs, with keys in
cspi's layout (one ``(creation, annihilation)`` exponent pair per mode).

Sizes come from a log-spaced grid with a small seeded jitter, not from
independent log-uniform draws: with independent draws the largest sizes,
which set a pass's time, its tail latency and peak memory, moved from seed to
seed by 15-45% (measured), so no bound could tell a regression from a seed.
The seed still changes every value an op computes (model parameters,
operators, coefficients, paths), the exact sizes, and the order of the ops.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

#: (modes, degree) cells shared by the operator-verify and path-action ops
CELLS = [(m, d) for m in (1, 2, 3) for d in range(2, 9)]

#: H keeps at most about this many terms.  parse_operator is quadratic in the
#: term count (about 8 s for 2.1k terms), so 1.9k-term operators would not fit
#: a pass in the run budget.
MAX_H_TERMS = 240

ORDERINGS = ("normal", "antinormal", "weyl")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def odd(x: float) -> int:
    n = int(round(x))
    return n if n % 2 else n + 1


def log_grid(rng: random.Random, lo: float, hi: float, points: int, jitter: float = 0.02) -> list[float]:
    """``points`` log-spaced sizes from lo to hi, each scaled by 1 +- jitter, kept in range."""
    a, b = math.log(lo), math.log(hi)
    grid = (math.exp(a + k / (points - 1) * (b - a)) for k in range(points))
    return [min(hi, max(lo, x * (1.0 + rng.uniform(-jitter, jitter)))) for x in grid]


# ---------------------------------------------------------------------------
# lattice-sweep
# ---------------------------------------------------------------------------

SWEEP_POINTS = 9  # top sizes per command over [1e3, 1e7+1], half a decade apart
FLOW_POINTS = 7   # top sizes over [1e3, 1e6+1], half a decade apart
FLOW_MIN_N = 1001  # the default fit window [50, 500] needs shells up to 500


def _sweep(top: float, floor: int) -> list[int]:
    """Three log-spaced odd sizes, a decade apart, ending at ``top``."""
    return [max(floor, odd(top / 10**k)) for k in (2, 1, 0)]


def lattice_sweep(seed: int) -> list[dict]:
    """Requests for free-energy, cutoff, prefactor (one CLI call each) and flow
    (one CLI call per size, since ``cspi flow`` takes a single N)."""
    rng = rng_for("lattice-sweep", seed)
    ops = []

    def model():
        return {"A": rng.uniform(0.5, 1.5), "beta": rng.uniform(0.5, 1.5)}

    for command, floor in (("free-energy", 11), ("cutoff", 10), ("prefactor", 11)):
        for top in log_grid(rng, 1e3, 1e7 + 1, SWEEP_POINTS):
            ops.append({"command": command, "sizes": _sweep(top, floor), **model()})
    for top in log_grid(rng, 1e3, 1e6 + 1, FLOW_POINTS):
        params = model()
        for N in _sweep(top, FLOW_MIN_N):
            ops.append({"command": "flow", "sizes": [N], **params})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def monomials(modes: int, degree: int) -> list[tuple]:
    """All keys of total degree <= degree, in a fixed order."""
    out = []
    for exps in itertools.product(range(degree + 1), repeat=2 * modes):
        if sum(exps) <= degree:
            out.append(tuple((exps[2 * i], exps[2 * i + 1]) for i in range(modes)))
    return out


def _coeff(rng: random.Random, real: bool = False) -> tuple[Fraction, Fraction]:
    while True:
        re, im = rng.randint(-8, 8), 0 if real else rng.randint(-8, 8)
        if re or im:
            return Fraction(re, 4), Fraction(im, 4)


def _dagger(key: tuple) -> tuple:
    return tuple((a, c) for c, a in key)


def hermitian_operator(rng: random.Random, modes: int, degree: int) -> dict:
    """A seeded Hermitian H = P + P^dagger over the monomials of degree <= degree.

    Monomials come in adjoint classes: self-adjoint keys (real coefficient)
    and pairs {k, k^dagger} (conjugate coefficients).  The same share of each
    kind of class at each total degree is drawn, so the term count and the
    degree profile (which set the cost of parsing and reordering) depend only
    on (modes, degree); at least one pair of the top degree is drawn, so H
    has degree exactly ``degree``.
    """
    pool = monomials(modes, degree)
    share = min(1.0, MAX_H_TERMS / len(pool))
    groups: dict = {}
    for key in pool:
        if key <= _dagger(key):  # one representative per adjoint class
            kind = (key == _dagger(key), sum(c + a for c, a in key))
            groups.setdefault(kind, []).append(key)
    terms = {}
    for (single, deg), keys in sorted(groups.items()):
        n = round(share * len(keys))
        if deg == degree and not single:
            n = max(n, 1)
        for key in rng.sample(keys, n):
            if single:
                terms[key] = _coeff(rng, real=True)
            else:
                re, im = _coeff(rng)
                terms[key] = (re, im)
                terms[_dagger(key)] = (re, -im)
    return terms


def format_coeff(re: Fraction, im: Fraction) -> str:
    """``(re+imi)`` with floats in ``repr`` form, which the expression parser reads back exactly."""
    sign = "-" if im < 0 else "+"
    return f"({float(re)!r}{sign}{float(abs(im))!r}i)"


def format_operator_text(terms: dict) -> str:
    """Expression text in the grammar of ``cspi.expr``; factors in normal order."""
    pieces = []
    for key in sorted(terms):
        factors = []
        for mode, (c, a) in enumerate(key):
            if c:
                factors.append(f"ad_{mode}" + (f"^{c}" if c > 1 else ""))
            if a:
                factors.append(f"a_{mode}" + (f"^{a}" if a > 1 else ""))
        pieces.append("*".join([format_coeff(*terms[key])] + factors))
    return " + ".join(pieces)


# ---------------------------------------------------------------------------
# operators, part 1: reorders, verify, symmetrize and dense Fock builds
# ---------------------------------------------------------------------------

#: the non-reorder op of each cell, fixed by the cell so that the cost of a
#: pass does not depend on the seed; (3, 8) gets the dim-729 dense build
EXTRA_KINDS = ("symmetrize", "identity-check", "verify", "hamiltonian")

#: per-mode (creation count, annihilation count) of the symmetrized multiset,
#: for the symmetrize cells; at most 924 distinct arrangements each
SYMMETRIZE_SHAPES = {
    1: [[(6, 6)], [(4, 4)]],
    2: [[(2, 2), (1, 1)], [(3, 3), (1, 0)]],
    3: [[(2, 2), (1, 0), (0, 1)]],
}


def _symmetrize_factors(rng: random.Random, modes: int, shape: list) -> list:
    """Ladder factors ``(coeff, mode, is_creation)`` in a seeded order."""
    perm = list(range(modes))
    rng.shuffle(perm)
    factors = []
    for mode, (c, a) in zip(perm, shape):
        factors += [(_coeff(rng), mode, True) for _ in range(c)]
        factors += [(_coeff(rng), mode, False) for _ in range(a)]
    rng.shuffle(factors)
    return factors


def operator_verify(seed: int) -> list[dict]:
    rng = rng_for("operator-verify", seed)
    shapes = {m: list(s) for m, s in SYMMETRIZE_SHAPES.items()}
    ops = []
    for cell, (modes, degree) in enumerate(CELLS):
        for j in range(3):
            ops.append({
                "kind": "reorder",
                "modes": modes,
                "degree": degree,
                "terms": hermitian_operator(rng, modes, degree),
                "target": ORDERINGS[(cell + j) % 3],
            })
        kind = EXTRA_KINDS[(modes + degree) % 4]
        op = {"kind": kind, "modes": modes, "degree": degree}
        if kind == "symmetrize":
            op["factors"] = _symmetrize_factors(rng, modes, shapes[modes].pop(0))
        elif kind in ("verify", "hamiltonian"):
            op["terms"] = hermitian_operator(rng, modes, degree)
            op["target"] = ORDERINGS[(cell + 2) % 3]
        ops.append(op)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# operators, part 2: path actions
# ---------------------------------------------------------------------------

ACTION_POINTS = 7  # path lengths over [1e3+1, 1e5+1], a third of a decade apart


def path_actions(seed: int) -> dict:
    """One Hermitian operator per cell and a bank of (cell, N, action, domain) ops.

    Each cell runs all three actions, on path lengths taken round-robin from
    one grid so that every length is used equally often; the cell fixes the
    pairing, so the cost of a pass does not depend on the seed.  Path values
    are not stored here: ``path_seed`` feeds numpy's generator when the
    benchmark materialises them.
    """
    rng = rng_for("path-actions", seed)
    operators = [hermitian_operator(rng, m, d) for m, d in CELLS]
    sizes = log_grid(rng, 1e3 + 1, 1e5 + 1, ACTION_POINTS)
    ops = []
    for cell, (modes, _) in enumerate(CELLS):
        for j, action in enumerate(ORDERINGS):
            ops.append({
                "cell": cell,
                "modes": modes,
                "N": odd(sizes[(cell + 2 * j) % ACTION_POINTS]),
                "action": action,
                "domain": "frequency" if (cell + j) % 2 else "time",
                "path_seed": rng.getrandbits(63),
            })
    rng.shuffle(ops)
    return {"operators": operators, "ops": ops}


def operators(seed: int) -> dict:
    """The ``operators`` workload: operator-verify ops, then path-action ops."""
    return {"verify": operator_verify(seed), "paths": path_actions(seed)}


GENERATORS = {
    "lattice-sweep": lattice_sweep,
    "operators": operators,
}
