"""Discrete coherent-state path integrals for thermal bosons.

Exact operator-ordering algebra, the three lattice path-integral
constructions and their frequency-domain Gaussian evaluations, sharp-cutoff
continuum sums, frequency-shell renormalization, and a truncated-Fock-space
oracle that everything is validated against.
"""

from .algebra import (
    DEFAULT_MAX_DEGREE,
    BosonPoly,
    Ordering,
    SymbolPoly,
    multiply,
    quantize,
    symmetrize,
    to_ordered_form,
)
from .continuum import (
    cutoff_dFdA,
    prefactor_log_closed,
    prefactor_log_empirical,
)
from .discrete import (
    BerryDeterminant,
    DiscretePath,
    MatsubaraGrid,
    action_antinormal,
    action_normal,
    action_weyl,
    berry_determinant_log,
    dft,
    idft,
    normal_discrete_dFdA,
    weyl_discrete_dFdA,
    weyl_discrete_logZ_quadratic,
)
from .errors import (
    DegreeCapError,
    EvenSliceCountError,
    ModeMismatchError,
    NonHermitianError,
    NumericalError,
    OrderingTagError,
    SingularityError,
)
from .expr import ParseError, format_operator, format_symbol, parse_operator
from .flow import FlowResult, run_flow
from .fock import (
    FockBasis,
    QuadraticModel,
    check_resolution_identity,
    coherent_overlap,
    exact_dFdA,
    hamiltonian_matrix,
    partition_function,
    suggested_n_max,
)

__all__ = [
    "DEFAULT_MAX_DEGREE",
    "BosonPoly",
    "Ordering",
    "SymbolPoly",
    "multiply",
    "quantize",
    "symmetrize",
    "to_ordered_form",
    "cutoff_dFdA",
    "prefactor_log_closed",
    "prefactor_log_empirical",
    "BerryDeterminant",
    "DiscretePath",
    "MatsubaraGrid",
    "action_antinormal",
    "action_normal",
    "action_weyl",
    "berry_determinant_log",
    "dft",
    "idft",
    "normal_discrete_dFdA",
    "weyl_discrete_dFdA",
    "weyl_discrete_logZ_quadratic",
    "DegreeCapError",
    "EvenSliceCountError",
    "ModeMismatchError",
    "NonHermitianError",
    "NumericalError",
    "OrderingTagError",
    "SingularityError",
    "ParseError",
    "format_operator",
    "format_symbol",
    "parse_operator",
    "FlowResult",
    "run_flow",
    "FockBasis",
    "QuadraticModel",
    "check_resolution_identity",
    "coherent_overlap",
    "exact_dFdA",
    "hamiltonian_matrix",
    "partition_function",
    "suggested_n_max",
]

__version__ = "0.1.0"
