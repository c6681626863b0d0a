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
    coset_index,
    derive_generators,
    euler_quotient,
    two_coset_index,
)
from .gf2poly import Gf2Poly, cyclotomic_f2, gcd
from .lincomp import (
    AnalysisReport,
    analyze_period,
    berlekamp_massey,
    predicted_minimal_polynomial,
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
    wieferich_ok,
)
from .sequence import BitSequence, generate_threshold, least_period
from .structverify import (
    StructureReport,
    audit_structure,
    build_partition,
    lemma_failures,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BitSequence",
    "DomainError",
    "EqseqError",
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
    "berlekamp_massey",
    "build_partition",
    "coset_index",
    "crt_lift",
    "cyclotomic_f2",
    "derive_generators",
    "euler_quotient",
    "factorize",
    "find_common_primitive_root",
    "gcd",
    "generate_threshold",
    "is_prime",
    "least_period",
    "lemma_failures",
    "multiplicative_order",
    "predicted_minimal_polynomial",
    "two_coset_index",
    "verify_theorem",
    "wieferich_ok",
]
