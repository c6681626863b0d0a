"""Binary pq^2-periodic threshold sequences from Euler quotients modulo pq.

Exact integer and GF(2)-polynomial tooling to generate the sequences, measure
their least period and linear complexity by two independent methods, compare
against the closed-form minimal polynomial, and audit the underlying coset
structure of the unit group.
"""

from .errors import (
    DomainError,
    EqseqError,
    InternalConsistencyError,
    ParseError,
    ResourceError,
    UnsupportedInputError,
)
from .eulerq import (
    EulerQuotientTable,
    build_table,
    coset_index,
    derive_generators,
    euler_quotient,
    two_coset_index,
)
from .gf2poly import Gf2Poly, compose_power, cyclotomic_f2, gcd, generating_polynomial
from .lincomp import (
    AnalysisReport,
    analyze_period,
    berlekamp_massey,
    minimal_polynomial_gcd,
    predicted_minimal_polynomial,
    synthesize_sequence,
    verify_theorem,
)
from .ntcore import (
    GroupGenerators,
    PrimePair,
    crt_lift,
    factorize,
    find_common_primitive_root,
    is_prime,
    multiplicative_order,
    pow_wide_mod,
    wieferich_ok,
)
from .sequence import BitSequence, balance, generate_by_cosets, generate_threshold, least_period
from .structverify import (
    CosetPartition,
    StructureReport,
    audit_structure,
    build_partition,
    lemma_failures,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BitSequence",
    "CosetPartition",
    "DomainError",
    "EqseqError",
    "EulerQuotientTable",
    "Gf2Poly",
    "GroupGenerators",
    "InternalConsistencyError",
    "ParseError",
    "PrimePair",
    "ResourceError",
    "StructureReport",
    "UnsupportedInputError",
    "analyze_period",
    "audit_structure",
    "balance",
    "berlekamp_massey",
    "build_partition",
    "build_table",
    "compose_power",
    "coset_index",
    "crt_lift",
    "cyclotomic_f2",
    "derive_generators",
    "euler_quotient",
    "factorize",
    "find_common_primitive_root",
    "gcd",
    "generate_by_cosets",
    "generate_threshold",
    "generating_polynomial",
    "is_prime",
    "least_period",
    "lemma_failures",
    "minimal_polynomial_gcd",
    "multiplicative_order",
    "pow_wide_mod",
    "predicted_minimal_polynomial",
    "synthesize_sequence",
    "two_coset_index",
    "verify_theorem",
    "wieferich_ok",
]
