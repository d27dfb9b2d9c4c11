"""Projection-cost-preserving sketches with checkable guarantees.

A sketch here is a skinny stand-in for a wide matrix: Ã = AS (plus a
fixed scalar c) such that every rank-at-most-k projection sees nearly
the same residual cost on Ã as on A.  The package builds such sketches
several ways, certifies them through two sufficient conditions, audits
them empirically against adversarial probe projections, and transfers
approximate solutions found on the sketch back to the original matrix.
"""

from .audit import (
    PcpReport,
    ProbeSet,
    SolveResult,
    TransferCheck,
    Verification,
    approx_transfer_check,
    generate_probes,
    implication_harness,
    pcp_report,
    sketch_and_solve,
    verify_sketch,
)
from .errors import (
    ConfigError,
    DimensionError,
    Error,
    InvalidInputError,
    InvalidMatrixError,
    InvalidOverestimateError,
    InvalidRankError,
    TooLargeError,
    UnsupportedFamilyError,
    WidthNotReducingWarning,
    ZeroMatrixError,
)
from .generators import GeneratorSpec, gen_synthetic, parse_generator_spec
from .guarantees import (
    Certificate,
    JlMomentEstimate,
    certify,
    jl_moment_estimate,
    spectral_approx_error,
)
from .linalg import (
    Factored,
    Projection,
    factor,
    frob2,
    haar_subspace,
    projection_cost,
    svd,
    tail_index_p,
)
from .matio import load_matrix, save_matrix
from .rng import Stream, derive_seed, rng_for
from .sketch import (
    METHODS,
    Sketch,
    SketchParams,
    gaussian_sketch,
    gaussian_width,
    leverage_residual_sample,
    make_sketch,
    non_oblivious_rp,
    orthogonal_sketch,
    ridge_leverage_sample,
    ridge_scores,
    svd_sketch,
)
from .solvers import (
    Clustering,
    best_rank_k_projection,
    cluster_indicator_projection,
    exhaustive_kmeans,
    kmeans_cost,
    lloyd_kmeans,
    partition_costs,
    partitions,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Clustering",
    "ConfigError",
    "DimensionError",
    "Error",
    "Factored",
    "GeneratorSpec",
    "InvalidInputError",
    "InvalidMatrixError",
    "InvalidOverestimateError",
    "InvalidRankError",
    "JlMomentEstimate",
    "METHODS",
    "PcpReport",
    "ProbeSet",
    "Projection",
    "Sketch",
    "SketchParams",
    "SolveResult",
    "Stream",
    "TooLargeError",
    "TransferCheck",
    "UnsupportedFamilyError",
    "Verification",
    "WidthNotReducingWarning",
    "ZeroMatrixError",
    "approx_transfer_check",
    "best_rank_k_projection",
    "certify",
    "cluster_indicator_projection",
    "derive_seed",
    "exhaustive_kmeans",
    "factor",
    "frob2",
    "gaussian_sketch",
    "gaussian_width",
    "gen_synthetic",
    "generate_probes",
    "haar_subspace",
    "implication_harness",
    "jl_moment_estimate",
    "kmeans_cost",
    "leverage_residual_sample",
    "lloyd_kmeans",
    "load_matrix",
    "make_sketch",
    "non_oblivious_rp",
    "orthogonal_sketch",
    "parse_generator_spec",
    "partition_costs",
    "partitions",
    "pcp_report",
    "projection_cost",
    "ridge_leverage_sample",
    "ridge_scores",
    "rng_for",
    "save_matrix",
    "sketch_and_solve",
    "spectral_approx_error",
    "svd",
    "svd_sketch",
    "tail_index_p",
    "verify_sketch",
]
