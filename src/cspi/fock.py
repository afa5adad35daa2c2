"""Truncated-Fock-space ground truth.

Dense matrices of operator polynomials in the occupancy basis, exact
partition functions by Hermitian eigendecomposition, the closed-form
harmonic free-energy derivative, coherent-state overlaps, and a quadrature
check of the coherent-state resolution of identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import BosonPoly
from .errors import ModeMismatchError, NonHermitianError, NumericalError, SingularityError
from .errors import _count, _inverse_temperature, _within_budget


@dataclass(frozen=True)
class QuadraticModel:
    """Single-mode quadratic Hamiltonian  A * ad a  at inverse temperature beta."""

    A: float
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.A):
            raise ValueError(f"A must be finite, got {self.A}")
        _inverse_temperature(self.beta)
        if not math.isfinite(self.A * self.beta):
            raise ValueError(f"A * beta must be finite, got {self.A} * {self.beta}")


#: most Gauss-Laguerre nodes of the identity check: numpy's ``laggauss``
#: weights overflow to NaN from 187 nodes on (numpy 2.4), and a count of
#: n builds an n x n companion matrix, so a huge count would exhaust memory
RADIAL_NODES_MAX = 186


class FockBasis:
    """Occupancy-number basis with one occupancy cap ``n_max`` for every mode.

    Basis vectors are enumerated lexicographically in the occupancy vector
    ``n = (n_0, ..., n_{M-1})`` with the last mode varying fastest, i.e.
    ``(0,0), (0,1), ..., (1,0), ...``.  This order is part of the contract:
    matrix indices from :func:`hamiltonian_matrix` refer to it.

    A basis whose dim x dim complex matrix, as :func:`hamiltonian_matrix`
    builds it, would exceed :data:`~cspi.errors.BYTES_MAX` raises
    ``ValueError`` before any state is enumerated; so does every basis past
    2^64 states, whose count is then named as a power (``9^200``).
    """

    def __init__(self, modes: int, n_max: int):
        modes = _count(modes, "modes", 1)
        n_max = _count(n_max, "n_max", 0)
        dim = 1
        for _ in range(modes if n_max else 0):  # dim at least doubles: 65 rounds at most
            if dim > 2**64 // (n_max + 1):
                _within_budget(math.inf, f"a dense matrix over {n_max + 1}^{modes} Fock states")
            dim *= n_max + 1
        _within_budget(16 * dim * dim, f"a dense matrix over {dim} Fock states")  # complex128
        self.modes = modes
        self.n_max = n_max

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** self.modes

    @property
    def states(self) -> list[tuple[int, ...]]:
        """Occupancy vectors in basis order."""
        return list(itertools.product(range(self.n_max + 1), repeat=self.modes))


def _ladder_weights(cap: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared ladder-chain amplitudes on occupancies 0..cap, as exact float tables.

    ``fall[a, n] = n!/(n-a)!`` is |a^a |n>|^2 and ``rise[c, m] = (m+c)!/m!``
    is |ad^c |m>|^2, for exponents up to ``top``; both are 0 where the chain
    leaves 0..cap (a > n, or m + c > cap), which is what drops those matrix
    elements.  Entries are integers, exact while below 2^53.
    """
    n = np.arange(cap + 1, dtype=float)
    fall = np.ones((top + 1, cap + 1))
    rise = np.ones((top + 1, cap + 1))
    for k in range(1, top + 1):
        fall[k] = fall[k - 1] * np.maximum(n - k + 1, 0)
        rise[k] = rise[k - 1] * np.where(n + k <= cap, n + k, 0)
    return fall, rise


def hamiltonian_matrix(p: BosonPoly, basis: FockBasis) -> np.ndarray:
    """Matrix elements <m|p|n> in the documented basis order.

    Entries are exact: applying ``p`` to a column state only leaks out of
    the truncated space at the top, which affects rows beyond the cap and
    is dropped.  Non-Hermitian input is refused since every downstream use
    (partition functions) assumes Hermiticity.

    Monomial ``ad^c a^a`` (per mode) maps column ``n`` to row
    ``n + (c - a) @ strides`` with amplitude ``sqrt(w)``, ``w`` the product
    over the modes of :func:`_ladder_weights` entries, all from one table.
    ``w`` is an integer, so it is exact in float while below 2^53
    (``cap^degree`` bounds it), and the entries are then byte-identical to
    an integer weight rounded once under the sqrt.  Monomials are scattered
    in chunks of at most ``dim``, key by key, so an entry several monomials
    reach sums them in key order.
    """
    if p.modes != basis.modes:
        raise ModeMismatchError(
            f"polynomial on {p.modes} modes, basis on {basis.modes}"
        )
    if not p.is_hermitian():
        raise NonHermitianError("hamiltonian_matrix requires a Hermitian polynomial")
    dim = basis.dimension
    H = np.zeros(dim * dim, dtype=complex)
    if not p.terms:
        return H.reshape(dim, dim)
    keys = np.array(list(p.terms), dtype=np.intp).reshape(-1, basis.modes, 2)
    # an exponent past the cap reaches no state: cap + 1 stands for all of them
    keys = np.minimum(keys, basis.n_max + 1)
    coeffs = np.array(list(p.terms.values()), dtype=complex)
    strides = (basis.n_max + 1) ** np.arange(basis.modes - 1, -1, -1)
    shifts = (keys[:, :, 0] - keys[:, :, 1]) @ strides * dim
    n = np.arange(basis.n_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        fall, rise = _ladder_weights(basis.n_max, int(keys.max()))
        for start in range(0, len(coeffs), dim):
            chunk = keys[start : start + dim]
            weight = np.ones((len(chunk), 1))
            for i in range(basis.modes):
                # mode i's factors over n = 0..cap, spread over the grid, last mode fastest
                a, c = chunk[:, i, 1, None], chunk[:, i, 0, None]
                factor = fall[a, n] * rise[c, np.maximum(n - a, 0)]
                weight = (weight[:, :, None] * factor[:, None, :]).reshape(len(chunk), -1)
            if not np.isfinite(weight).all():
                raise OverflowError("Fock ladder weights exceed the float range")
            t, col = np.nonzero(weight)  # key-major, as the entries must be summed
            flat = col * (dim + 1) + shifts[start + t]
            np.add.at(H, flat, coeffs[start + t] * np.sqrt(weight[t, col]))
    return H.reshape(dim, dim)


def partition_function(H: np.ndarray, beta: float) -> float:
    """Tr exp(-beta H) by Hermitian eigendecomposition; a Z outside (0, inf) is a NumericalError."""
    H = np.asarray(H)
    _inverse_temperature(beta)
    if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
        raise ValueError("Hamiltonian matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > 1e-12 * scale:
        raise NonHermitianError("partition_function requires a Hermitian matrix")
    energies = np.linalg.eigvalsh(H)
    with np.errstate(over="ignore", under="ignore"):  # refused below instead
        Z = float(np.sum(np.exp(-beta * energies)))
    if not 0.0 < Z < math.inf:
        raise NumericalError(f"partition function {Z} is outside the float range at beta = {beta}")
    return Z


def exact_dFdA(model: QuadraticModel) -> float:
    """d(free energy)/dA for the harmonic model: (coth(beta A / 2) - 1) / 2.

    Evaluated as 1/(e^(beta A) - 1), which is the same function and stays
    accurate for small beta*A, over e^(-beta A) for beta*A > 0 so that it
    underflows to 0 instead of overflowing.  The derivative removes additive
    constants, so this is the ordering-insensitive reference value.
    """
    if model.A == 0:
        raise SingularityError("dF/dA diverges like 1/(beta A) at A = 0")
    x = model.beta * model.A
    return math.exp(-x) / -math.expm1(-x) if x > 0 else 1.0 / math.expm1(x)


def suggested_n_max(model: QuadraticModel, rel_tol: float = 1e-12) -> int:
    """Smallest cap with Boltzmann tail weight below ``rel_tol`` relative to Z."""
    if model.A <= 0:
        raise ValueError("truncation selection needs a positive gap A")
    return max(1, math.ceil(-math.log(rel_tol) / (model.beta * model.A)))


def coherent_overlap(z2, z1) -> complex:
    """Overlap <z2|z1> = exp(z2^dag z1) of unnormalized coherent states."""
    z2 = np.asarray(z2, dtype=complex).ravel()
    z1 = np.asarray(z1, dtype=complex).ravel()
    if z2.shape != z1.shape:
        raise ModeMismatchError(
            f"coherent vectors of lengths {z2.size} and {z1.size}"
        )
    return complex(np.exp(np.vdot(z2, z1)))


def _mode_quadrature(t, wt, angular_nodes: int, top: int) -> np.ndarray:
    """Quadrature of integral |z><z| e^{-|z|^2} / pi on one mode, occupancies 0..top."""
    s = np.arange(2 * top + 1)
    with np.errstate(over="ignore"):
        # radial moments: integral t^{(m+n)/2} e^{-t} dt on the node set
        radial = np.sum(wt * t ** (s[:, None] / 2.0), axis=1)
    if not np.isfinite(radial).all():
        raise ValueError(f"radial moments up to t^{top} overflow float; lower n_max")
    try:
        norms = np.sqrt([float(math.factorial(n)) for n in range(top + 1)])
    except OverflowError:
        raise ValueError(
            f"factorial norms up to sqrt({top}!) overflow float; lower n_max"
        ) from None
    # angular averages (1/K) sum_k e^{2 pi i d k / K}, d = m - n: exactly 1
    # where K divides d, else 0
    angular = np.array([float(d % angular_nodes == 0) for d in range(-top, top + 1)])
    m, n = np.indices((top + 1, top + 1))
    return radial[m + n] * angular[m - n + top] / np.multiply.outer(norms, norms)


def check_resolution_identity(
    basis: FockBasis,
    radial_nodes: int,
    angular_nodes: int,
    margin: int = 0,
) -> float:
    """Quadrature deviation of  integral |z><z| e^{-|z|^2} / pi  from identity.

    Per mode the complex plane is integrated on Gauss-Laguerre nodes in
    t = r^2 crossed with K = angular_nodes uniform angles, whose average of
    e^{i(m-n)phi} is exactly 1 where K divides m - n, else 0: off-diagonal
    elements die only when K does not alias m - n to 0, and under-resolved
    grids leave O(1) spurious entries.  Returns the max-norm deviation on
    the sub-block of occupancies <= n_max - margin.  ``radial_nodes`` outside
    1..:data:`RADIAL_NODES_MAX` is refused before any node is computed.

    The quadrature matrix is the Kronecker product of one block E per mode,
    all alike, and is never formed.  E's diagonal is non-negative, so the
    diagonal deviation |prod_i E[n_i, n_i] - 1| is largest at d_min^modes or
    d^modes, the powers of its smallest and largest entry; an off-diagonal
    entry is off the diagonal of E in at least one mode, so its largest size
    is o * max(o, d)^(modes - 1), o the largest off-diagonal |E| (0 for a
    one-state block).  Memory is (top + 1)^2, top the block's top occupancy.
    """
    radial_refused = (
        f"radial must be 1 to {RADIAL_NODES_MAX} Gauss-Laguerre nodes (beyond, their"
        f" weights leave the float range), got {radial_nodes}"
    )
    if _count(radial_nodes, "radial", 1) > RADIAL_NODES_MAX:
        raise ValueError(radial_refused)
    _count(angular_nodes, "angular", 1)
    top = basis.n_max - _count(margin, "margin", 0)  # the block's top occupancy
    if top < 0:
        raise ValueError(f"margin {margin} leaves no states in the block")
    with np.errstate(all="ignore"):
        t, wt = np.polynomial.laguerre.laggauss(radial_nodes)
    if not np.isfinite(wt).all():
        raise ValueError(radial_refused)

    E = _mode_quadrature(t, wt, angular_nodes, top)
    d_min, d = float(np.diagonal(E).min()), float(np.diagonal(E).max())
    o = float(np.abs(E[~np.eye(top + 1, dtype=bool)]).max(initial=0.0))
    try:
        diagonal = max(d**basis.modes - 1.0, 1.0 - d_min**basis.modes)
        return max(diagonal, o * max(o, d) ** (basis.modes - 1))
    except OverflowError:  # a power past the float range: d > 1 on ~1e18 modes
        return math.inf
