"""affgeo: two-view geometry with affine correspondences.

An affine correspondence (AC) couples a point pair with the 2x2 linear map
between their local neighbourhoods. The package provides the decomposition
and synthesis of such maps, epipolar and affine constraint residuals with
their Sampson distances, linear model solvers from ACs, affine-aware robust
estimation, evaluation metrics, and seeded synthetic scenes with exact ground
truth for verification.
"""

from .core import (
    AffineCorrespondence,
    AffineDecomposition,
    CameraIntrinsics,
    ac_array,
    decompose_affine,
    relative_frame,
    rotation2,
    synthesize_affine,
    wrap_angle,
)
from .errors import AffgeoError
from .metrics import (
    MatchEvalReport,
    MmaCurve,
    PoseError,
    affine_similarity,
    evaluate_matches,
    mma_at_threshold,
    mma_curve,
    mma_score,
    pose_auc,
    pose_error,
    rmse,
)
from .residuals import (
    FundamentalMatrix,
    affine_constraint_residual,
    epipolar_residual,
    generic_sampson,
    sampson_affine,
    sampson_point,
)
from .robust import (
    RansacConfig,
    RobustEstimate,
    adaptive_iteration_bound,
    ransac_fundamental,
    ransac_homography,
    ransac_pose,
)
from .solvers import (
    EssentialMatrix,
    Homography,
    RelativePose,
    apply_homography,
    decompose_essential,
    essential_from_fundamental,
    fundamental_from_acs,
    gt_affine_from_homography,
    homography_from_acs,
)
from .synthdata import CameraSpec, NoiseSpec, SyntheticScene, generate_scene, sample_acs

__version__ = "0.1.0"

__all__ = [
    "AffgeoError",
    "AffineCorrespondence",
    "AffineDecomposition",
    "CameraIntrinsics",
    "CameraSpec",
    "EssentialMatrix",
    "FundamentalMatrix",
    "Homography",
    "MatchEvalReport",
    "MmaCurve",
    "NoiseSpec",
    "PoseError",
    "RansacConfig",
    "RelativePose",
    "RobustEstimate",
    "SyntheticScene",
    "ac_array",
    "adaptive_iteration_bound",
    "affine_constraint_residual",
    "affine_similarity",
    "apply_homography",
    "decompose_affine",
    "decompose_essential",
    "epipolar_residual",
    "essential_from_fundamental",
    "evaluate_matches",
    "fundamental_from_acs",
    "generate_scene",
    "generic_sampson",
    "gt_affine_from_homography",
    "homography_from_acs",
    "mma_at_threshold",
    "mma_curve",
    "mma_score",
    "pose_auc",
    "pose_error",
    "ransac_fundamental",
    "ransac_homography",
    "ransac_pose",
    "relative_frame",
    "rmse",
    "rotation2",
    "sample_acs",
    "sampson_affine",
    "sampson_point",
    "synthesize_affine",
    "wrap_angle",
]
