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
from typing import Sequence

import numpy as np

from .algebra import BosonPoly
from .errors import ModeMismatchError, NonHermitianError, SingularityError


@dataclass(frozen=True)
class QuadraticModel:
    """Single-mode quadratic Hamiltonian  A * ad a  at inverse temperature beta."""

    A: float
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.A):
            raise ValueError(f"A must be finite, got {self.A}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.A * self.beta):
            raise ValueError(f"A * beta must be finite, got {self.A} * {self.beta}")


#: largest dense complex matrix over a basis, in bytes; every user of a
#: :class:`FockBasis` builds dim x dim matrices, so larger bases are refused
DENSE_BYTES_MAX = 2**30


class FockBasis:
    """Occupancy-number basis with a per-mode cap.

    Basis vectors are enumerated lexicographically in the occupancy vector
    ``n = (n_0, ..., n_{M-1})`` with the last mode varying fastest, i.e.
    ``(0,0), (0,1), ..., (1,0), ...``.  This order is part of the contract:
    matrix indices from :func:`hamiltonian_matrix` refer to it.

    A basis whose dim x dim complex matrix would exceed
    :data:`DENSE_BYTES_MAX` raises ``ValueError`` before any state is
    enumerated.
    """

    def __init__(self, modes: int, n_max: int | Sequence[int]):
        if modes < 1:
            raise ValueError("modes must be a positive integer")
        caps = (n_max,) * modes if isinstance(n_max, int) else tuple(n_max)
        if len(caps) != modes:
            raise ModeMismatchError(f"{len(caps)} caps given for {modes} modes")
        if any(c < 0 for c in caps):
            raise ValueError("occupancy caps must be non-negative")
        dim = math.prod(c + 1 for c in caps)
        dense_bytes = dim * dim * np.dtype(complex).itemsize
        if dense_bytes > DENSE_BYTES_MAX:
            raise ValueError(
                f"a dense matrix over {dim} Fock states needs {dense_bytes / 2**30:.3g} GiB, "
                f"over the {DENSE_BYTES_MAX / 2**30:g} GiB budget"
            )
        self.modes = modes
        self.n_max = caps
        self.states: list[tuple[int, ...]] = list(
            itertools.product(*(range(c + 1) for c in caps))
        )
        self.index = {state: i for i, state in enumerate(self.states)}

    @property
    def dimension(self) -> int:
        return len(self.states)

    def block_indices(self, margin: int) -> np.ndarray:
        """Indices of states with every occupancy <= cap - margin."""
        keep = [
            i
            for i, state in enumerate(self.states)
            if all(n <= cap - margin for n, cap in zip(state, self.n_max))
        ]
        if not keep:
            raise ValueError(f"margin {margin} leaves no states in the block")
        return np.array(keep, dtype=int)


def hamiltonian_matrix(p: BosonPoly, basis: FockBasis) -> np.ndarray:
    """Matrix elements <m|p|n> in the documented basis order.

    Entries are exact: applying ``p`` to a column state only leaks out of
    the truncated space at the top, which affects rows beyond the cap and
    is dropped.  Non-Hermitian input is refused since every downstream use
    (partition functions) assumes Hermiticity.
    """
    if p.modes != basis.modes:
        raise ModeMismatchError(
            f"polynomial on {p.modes} modes, basis on {basis.modes}"
        )
    if not p.is_hermitian():
        raise NonHermitianError("hamiltonian_matrix requires a Hermitian polynomial")
    dim = basis.dimension
    H = np.zeros((dim, dim), dtype=complex)
    for key, coeff in p.terms.items():
        for col, state in enumerate(basis.states):
            weight = 1  # exact integer product under a single final sqrt
            target = []
            for n, (c, a) in zip(state, key):
                if n < a:
                    weight = 0
                    break
                for step in range(a):  # a |n> chain: n (n-1) ...
                    weight *= n - step
                m = n - a
                for step in range(c):  # ad |m> chain: (m+1) (m+2) ...
                    weight *= m + 1 + step
                target.append(m + c)
            if weight == 0:
                continue
            row = basis.index.get(tuple(target))
            if row is None:  # created past the cap
                continue
            H[row, col] += coeff * math.sqrt(weight)
    return H


def partition_function(H: np.ndarray, beta: float) -> float:
    """Tr exp(-beta H) by Hermitian eigendecomposition; strictly positive."""
    H = np.asarray(H)
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
        raise ValueError("Hamiltonian matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > 1e-12 * scale:
        raise NonHermitianError("partition_function requires a Hermitian matrix")
    energies = np.linalg.eigvalsh(H)
    return float(np.sum(np.exp(-beta * energies)))


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


def check_resolution_identity(
    basis: FockBasis,
    radial_nodes: int,
    angular_nodes: int,
    margin: int = 0,
) -> float:
    """Quadrature deviation of  integral |z><z| e^{-|z|^2} / pi  from identity.

    Per mode the complex plane is integrated on Gauss-Laguerre nodes in
    t = r^2 crossed with a uniform angular grid.  Off-diagonal elements
    carry a phase e^{i(m-n)phi} and die on the angular grid only when
    angular_nodes does not alias m - n to 0; under-resolved grids leave
    O(1) spurious entries.  Returns the max-norm deviation on the sub-block
    of occupancies <= n_max - margin.
    """
    if radial_nodes < 1 or angular_nodes < 1:
        raise ValueError("quadrature sizes must be >= 1")
    t, wt = np.polynomial.laguerre.laggauss(radial_nodes)
    phi = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes

    per_mode = []
    for cap in basis.n_max:
        occ = np.arange(cap + 1)
        # radial moments: integral t^{(m+n)/2} e^{-t} dt on the node set
        radial = np.array(
            [np.sum(wt * t ** (s / 2.0)) for s in range(2 * cap + 1)]
        )
        # angular averages: (1/K) sum_k e^{i d phi_k}, d = m - n
        angular = {
            d: np.mean(np.exp(1j * d * phi)) for d in range(-cap, cap + 1)
        }
        norms = np.array([math.sqrt(math.factorial(n)) for n in occ])
        E = np.empty((cap + 1, cap + 1), dtype=complex)
        for m in occ:
            for n in occ:
                E[m, n] = radial[m + n] * angular[m - n] / (norms[m] * norms[n])
        per_mode.append(E)

    approx = per_mode[0]
    for E in per_mode[1:]:
        approx = np.kron(approx, E)
    keep = basis.block_indices(margin)
    sub = approx[np.ix_(keep, keep)] - np.eye(keep.size)
    return float(np.abs(sub).max())
