"""rankrange: rank-k admissible regions of unitary matrices and
constructive compression projectors.

For a unitary matrix with spectrum on the unit circle, the rank-k
admissible set is the intersection of N disk segments cut by the chords
joining each eigenvalue to its k-th cyclic successor. For dimensions
N in {3k-2 (k >= 5), 3k-1, 3k} (and k = 1 at any N) this package builds,
for any strict interior target, an explicit rank-k orthogonal projector P
with P sigma P = lambda P, and verifies it numerically.
"""

from .errors import (BothHeavy, DegenerateDenominator, EigensolveFailed,
                     EmptyRegion, EmptySpectrum, GramFailure,
                     InternalInvariantError, InvalidRank,
                     LambdaOutsideRegion, MathRejection, NoConvexSolution,
                     NoSolution, NotUnitary, ParseError, RankRangeError,
                     ShapeMismatch, TooLarge, UnsupportedDimension)
from .spectra import (EigenSystem, ReflectionMap, canonical_phase,
                      ingest_matrix, ingest_spectrum, reflect_labels)
from .region import (BOUNDARY, INSIDE, OUTSIDE, BruteForceOracle,
                     ChordConstraint, OmegaRegion, boundary_samples,
                     build_region, constraint_margins, contains,
                     interior_point, region_margin)
from .triangles import (TriangleSpec, solve_barycentric, triangle,
                        validate_triangle)
from .pairing import (PairParameters, SharedVertexProblem,
                      VectorCoefficients, discriminant_coeffs,
                      gauge_parameters, solve_pair)
from .blocks import isotropic_pair, pair_isotropy_residual
from .decomposition import (DecompositionPlan, Pairing, Projector,
                            VerificationReport, caratheodory_rank1,
                            construct_projector, plan,
                            three_k_minus_1_patterns, three_k_minus_2_patterns,
                            three_k_patterns, verify_projector)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY", "INSIDE", "OUTSIDE",
    "BothHeavy", "BruteForceOracle", "ChordConstraint",
    "DecompositionPlan", "DegenerateDenominator",
    "EigenSystem", "EigensolveFailed", "EmptyRegion", "EmptySpectrum",
    "GramFailure", "InternalInvariantError", "InvalidRank",
    "LambdaOutsideRegion", "MathRejection", "NoConvexSolution", "NoSolution",
    "NotUnitary", "OmegaRegion", "PairParameters", "Pairing", "ParseError",
    "Projector",
    "RankRangeError", "ReflectionMap", "ShapeMismatch", "SharedVertexProblem",
    "TooLarge", "TriangleSpec", "UnsupportedDimension", "VectorCoefficients",
    "VerificationReport", "boundary_samples", "build_region",
    "canonical_phase", "caratheodory_rank1", "constraint_margins",
    "construct_projector", "contains", "discriminant_coeffs",
    "gauge_parameters", "ingest_matrix", "ingest_spectrum",
    "interior_point", "isotropic_pair",
    "pair_isotropy_residual", "plan", "reflect_labels", "region_margin",
    "solve_barycentric", "solve_pair",
    "three_k_minus_1_patterns", "three_k_minus_2_patterns",
    "three_k_patterns", "triangle", "validate_triangle", "verify_projector",
]
