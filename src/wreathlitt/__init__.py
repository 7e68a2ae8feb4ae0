"""Exact branching coefficients from GL_n(C) to the wreath products
mu_m^n semidirect S_n, computed by a plethystic generating series and
cross-verified against independent character-theoretic oracles.
"""

from .branching import (
    BranchingTable,
    HypothesisViolationError,
    branching_coefficient,
    branching_series,
    branching_table,
)
from .exactnum import (
    Cyclotomic,
    NotRationalError,
    cyclotomic_polynomial,
    euler_phi,
    to_rational,
    zeta,
)
from .oracle import (
    VerificationReport,
    branching_by_character_average,
    branching_by_pairing,
    run_identity_suite,
    run_numeric_suite,
    run_verification,
)
from .partitions import (
    Partition,
    SizeMismatchError,
    centralizer_order,
    format_partition,
    parse_partition,
    partitions_of,
    specht_dimension,
    symmetric_group_character,
)
from .symfunc import (
    SymSeries,
    hall_inner_product,
    omega_at_root,
    plethysm,
    s_basis,
    stretch,
)
from .wreath import (
    WreathLabel,
    WreathSeries,
    evaluation_kernel,
    format_label,
    frobenius_characteristic,
    irreducible_dimension,
    parse_label,
    power_trace,
    schur_at_eigenvalues,
    wreath_class_labels,
    wreath_inner_product,
)

__version__ = "0.1.0"
