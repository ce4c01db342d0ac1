"""Rank-metric coset coding for secure linear network coding.

Subpackages:
    gf          arithmetic in GF(q) and GF(q^m)
    linalg      matrices over both fields, expansion, rank enumeration
    rankmetric  Gabidulin codes: encode, rank-error decoding
    scheme      combined secrecy + error-correction layer; one decoder
                for a known transfer of any rank, errors and erasures
    network     adversarial channel model and noncoherent lifting
    audit       exhaustive secrecy and reliability verification
    cli         command line front end
"""

from .audit import (
    ReliabilityReport,
    SecrecyReport,
    brute_force_decode,
    entropy_of_distribution,
    reliability_audit,
    secrecy_audit,
)
from .errors import (
    BudgetExceededError,
    InconsistentSystemError,
    ParameterError,
    SingularMatrixError,
    UnderdeterminedSystemError,
    ValidationError,
)
from .gf import ExtField, PrimeField, find_irreducible, is_irreducible
from .network import (
    ChannelRealization,
    noncoherent_decode,
    sample_realization,
    transmit,
    transmit_lifted,
)
from .rankmetric import GabidulinCode
from .scheme import (
    SchemeInstance,
    SchemeParams,
    build_broken_instance,
    build_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ChannelRealization",
    "ExtField",
    "GabidulinCode",
    "InconsistentSystemError",
    "ParameterError",
    "PrimeField",
    "ReliabilityReport",
    "SchemeInstance",
    "SchemeParams",
    "SecrecyReport",
    "SingularMatrixError",
    "UnderdeterminedSystemError",
    "ValidationError",
    "brute_force_decode",
    "build_broken_instance",
    "build_instance",
    "entropy_of_distribution",
    "find_irreducible",
    "is_irreducible",
    "noncoherent_decode",
    "reliability_audit",
    "sample_realization",
    "secrecy_audit",
    "transmit",
    "transmit_lifted",
    "__version__",
]
