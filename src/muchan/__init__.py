"""muchan: mixed-unitary rank analysis for quantum channels.

Representations (Kraus, Choi, complementary channels, operator systems),
mixed-unitary rank bounds and certificates, constructive decompositions,
a Stiefel-manifold isometry search, and a gallery of explicit fixtures.
"""
from .tolerances import DEFAULT_TOL, Tolerance
from .exceptions import (FileFormatError, MuchanError, NumericalError,
                         ValidationError)
from .linalg import (dagger, dirsum, frob_inner, haar_isometry, haar_unitary,
                     kron, numerical_rank, schur_product, unvec, vec)
from .channels import (ChannelProfile, ChoiMatrix, KrausChannel,
                       OperatorSystemBasis, apply, channel_profile, choi_of,
                       complementary, dephasing_channel, direct_sum,
                       identity_channel, minimal_kraus, minimize_kraus,
                       operator_system, schur_channel)
from .analysis import (GapRankCertificate, MixedUnitaryDecomposition,
                       RankBoundsReport, SchurEquivalence, VerificationResult,
                       certified_gap_rank, decomposition_from_isometry,
                       decompositions_equivalent, rank_bounds,
                       schur_equivalence_check, uniqueness_certificate,
                       verify_decomposition)
from .constructive import (ToroidalDecomposition, decompose_low_dim,
                           toroidal_decompose_small,
                           toroidal_from_decomposition, zero_diagonal_unitary)
from .search import (MurankReport, RestartRecord, SearchConfig, SearchResult,
                     murank_search, search_isometry, traceless_image_basis)
from . import gallery, io

__version__ = "0.1.0"

__all__ = [
    "Tolerance", "DEFAULT_TOL",
    "MuchanError", "ValidationError", "NumericalError", "FileFormatError",
    "vec", "unvec", "dagger", "frob_inner", "numerical_rank", "haar_isometry",
    "haar_unitary", "kron", "schur_product", "dirsum",
    "KrausChannel", "ChoiMatrix", "OperatorSystemBasis", "choi_of",
    "minimal_kraus", "minimize_kraus", "apply", "complementary",
    "operator_system", "direct_sum", "schur_channel", "identity_channel",
    "dephasing_channel", "ChannelProfile", "channel_profile",
    "MixedUnitaryDecomposition", "VerificationResult", "RankBoundsReport",
    "GapRankCertificate", "SchurEquivalence", "verify_decomposition",
    "rank_bounds", "uniqueness_certificate", "certified_gap_rank",
    "decompositions_equivalent", "schur_equivalence_check",
    "decomposition_from_isometry",
    "ToroidalDecomposition", "zero_diagonal_unitary", "decompose_low_dim",
    "toroidal_decompose_small", "toroidal_from_decomposition",
    "SearchConfig", "SearchResult", "RestartRecord", "MurankReport",
    "traceless_image_basis",
    "search_isometry", "murank_search",
    "gallery", "io",
]
