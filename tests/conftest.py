"""Shared test inputs and independent oracles.

Everything is enumerated deterministically (no RNG): "generic looking"
complex data comes from incommensurate trig waves over integer indices, so
every run sees the same values.  The Fock-side oracle here evaluates
polynomials from raw ladder matrices and never goes through the package's
own matrix builder.
"""

import numpy as np
import pytest


def _waves(count: int, salt: float = 0.0) -> np.ndarray:
    k = np.arange(count, dtype=float)
    return np.sin(1.7 * k + salt) + 1j * np.cos(2.3 * k - 0.7 * salt)


def _ladder(n_max: int):
    dim = n_max + 1
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def _poly_matrix(poly, n_max: int) -> np.ndarray:
    """Dense matrix of a normal-form polynomial, built from ladder matrices.

    Independent of cspi.fock: monomials become ad^c @ a^q per mode, modes
    combine by Kronecker product (first mode slowest, matching the package's
    lexicographic basis order).
    """
    a, ad = _ladder(n_max)
    dim = (n_max + 1) ** poly.modes
    total = np.zeros((dim, dim), dtype=complex)
    for key, coeff in poly.terms.items():
        term = None
        for c, q in key:
            factor = np.linalg.matrix_power(ad, c) @ np.linalg.matrix_power(a, q)
            term = factor if term is None else np.kron(term, factor)
        total += coeff * term
    return total


def _block(matrix: np.ndarray, n_max: int, modes: int, margin: int) -> np.ndarray:
    """Sub-block of rows/columns whose occupancies stay below n_max - margin."""
    import itertools

    keep = [
        i
        for i, state in enumerate(itertools.product(range(n_max + 1), repeat=modes))
        if all(n <= n_max - margin for n in state)
    ]
    return matrix[np.ix_(keep, keep)]


def _paired_frequency_sum(term, N: int) -> float:
    """Re sum_n term(n) over the N signed frequency indices, the O(N) way.

    The reference the lattice closed forms and the cutoff sum are checked
    against: ``term`` maps an integer array of indices n to complex values,
    and each conjugate +-n pair is added together, from the top index down
    to n = 1, then the self-paired n = N/2 of an even N, then n = 0 last.
    The pairs cancel each other's imaginary parts; a residue beyond 1e-10
    relative means the oracle itself went wrong.  Its rounding grows like
    N eps (e^{-iw} - 1 and tan(w/2) lose their leading digits at small w).
    """
    n = np.arange((N - 1) // 2, 0, -1)
    total = np.sum(term(n) + term(-n))
    if N % 2 == 0:
        total += term(np.array([N // 2]))[0]
    total += term(np.array([0]))[0]
    assert abs(total.imag) <= 1e-10 * max(1.0, abs(total.real)), total
    return float(total.real)


def _unchecked_model(A: float, beta: float):
    """A QuadraticModel built without its input checks, to reach the in-sum guards."""
    from cspi import QuadraticModel

    model = object.__new__(QuadraticModel)
    object.__setattr__(model, "A", A)
    object.__setattr__(model, "beta", beta)
    return model


@pytest.fixture
def waves():
    return _waves


@pytest.fixture
def paired_frequency_sum():
    return _paired_frequency_sum


@pytest.fixture
def unchecked_model():
    return _unchecked_model


@pytest.fixture
def poly_matrix():
    return _poly_matrix


@pytest.fixture
def block():
    return _block
