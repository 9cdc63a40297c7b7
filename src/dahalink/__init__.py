"""dahalink: exact construction of rank-one double affine Hecke algebra
modules and the Leonard pairs they carry.

The package builds finite-dimensional modules on which four generators act
with prescribed eigenvalue data, splits each module along the first
generator's eigenspaces, certifies the resulting Leonard pairs, computes
their q-Racah parametrizations, and decides when two abstractly given
Leonard pairs arise together on such a module ("linked" pairs).

All arithmetic is exact, over Q or a single quadratic extension Q(sqrt(D)).
"""

from __future__ import annotations

from .exactfield import (
    FieldContext,
    FieldElement,
    QQ,
    Rational,
    is_valid_q,
    sqrt_in_field,
)
from .exactlinalg import ExactMatrix, Subspace
from .leonard import (
    HuangData,
    LeonardPair,
    ParameterArray,
    build_pair_from_huang,
    check_huang_admissible,
    huang_data_from_array,
    huang_equivalent,
    parameter_arrays,
    recognize_leonard_pair,
)
from .daha import (
    HqModule,
    HqParams,
    XType,
    build_module,
    eigenvalue_ladder,
    is_feasible,
    link_check,
    link_construct,
    restricted_leonard_pairs,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [
    "FieldContext",
    "FieldElement",
    "QQ",
    "Rational",
    "is_valid_q",
    "sqrt_in_field",
    "ExactMatrix",
    "Subspace",
    "LeonardPair",
    "ParameterArray",
    "HuangData",
    "recognize_leonard_pair",
    "parameter_arrays",
    "huang_data_from_array",
    "check_huang_admissible",
    "huang_equivalent",
    "build_pair_from_huang",
    "XType",
    "HqParams",
    "HqModule",
    "validate_params",
    "eigenvalue_ladder",
    "build_module",
    "is_feasible",
    "restricted_leonard_pairs",
    "link_check",
    "link_construct",
    "__version__",
]
