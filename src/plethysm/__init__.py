"""Exact highest weight vector bases for S^k(S^m(C^n)) and Λ^k(S^m(C^n)), k <= 3.

The plethysms are modeled inside the polynomials on an n-by-k matrix of
variables, multihomogeneous of degree m in each column.  Everything is
computed over Z with a graded lexicographic monomial order, so every claim
(basis property, leading monomials, multiplicities) is checked exactly.
"""

from .actions import (
    add_row_multiple,
    antisymmetrize,
    is_sign_equivariant,
    is_sk_invariant,
    is_un_invariant,
    permute_columns,
    raising_operator,
    symmetrize,
)
from .hwv import (
    BadShapeError,
    DecompositionEntry,
    DecompositionReport,
    GeneratorWord,
    WordK2,
    beta_general,
    decompose,
    enumerate_basis,
    generators_k2,
    generators_k3,
    multiplicity_closed_form,
    phi_images_k3,
    t_general,
    verify_discriminant_relation,
    words_for_weight,
)
from .oracle import (
    InstanceTooLargeError,
    hwv_kernel_multiplicity,
    multiplicities_by_kostka,
    oracle_report_json,
    weight_table_plethysm,
    weyl_dimension,
)
from .polynomials import (
    Monomial,
    NotIsobaricError,
    NotMultihomogeneousError,
    Polynomial,
    ZeroPolynomialError,
    variable,
)
from .tableaux import (
    ShapeTooTallError,
    Tableau,
    content_monomial,
    delta_tableau,
    enumerate_sst,
    kostka,
    normalize_partition,
    pad,
    specht_map,
    specht_polynomial,
    standard_monomial_basis,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "BadShapeError",
    "CheckResult",
    "DecompositionEntry",
    "DecompositionReport",
    "GeneratorWord",
    "InstanceTooLargeError",
    "Monomial",
    "NotIsobaricError",
    "NotMultihomogeneousError",
    "Polynomial",
    "ShapeTooTallError",
    "Tableau",
    "WordK2",
    "ZeroPolynomialError",
    "add_row_multiple",
    "antisymmetrize",
    "beta_general",
    "content_monomial",
    "decompose",
    "delta_tableau",
    "enumerate_basis",
    "enumerate_sst",
    "generators_k2",
    "generators_k3",
    "hwv_kernel_multiplicity",
    "is_sign_equivariant",
    "is_sk_invariant",
    "is_un_invariant",
    "kostka",
    "multiplicities_by_kostka",
    "multiplicity_closed_form",
    "normalize_partition",
    "oracle_report_json",
    "pad",
    "permute_columns",
    "phi_images_k3",
    "raising_operator",
    "run_verification",
    "specht_map",
    "specht_polynomial",
    "standard_monomial_basis",
    "symmetrize",
    "t_general",
    "variable",
    "verify_discriminant_relation",
    "weight_table_plethysm",
    "weyl_dimension",
    "words_for_weight",
]
