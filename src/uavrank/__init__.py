"""Deterministic ray tracing, MIMO channel rank mapping, and Kriging-based
rank prediction for UAV air-to-ground links in simple rural 3D scenes."""

from .scene import (
    ArrayConfig,
    Building,
    Material,
    Scene,
    SceneError,
    Tower,
    Tree,
    grid_positions,
    load_scene,
    permittivity,
    serialize_scene,
)
from .raytrace import (
    PathTable,
    RayPath,
    foliage_loss,
    fresnel_reflection,
    path_gain,
    trace_paths,
)
from .channel import (
    ChannelMatrix,
    OutOfCoverageError,
    channel_rank,
    rss,
    steering_vector,
    synthesize_channel,
)
from .covermap import (
    CoverageGrid,
    RankGrid,
    compute_coverage,
    compute_rank_grid,
    joint_coverage,
    rss_cdf,
)
from .correlation import (
    CorrelationModel,
    bin_correlations,
    build_rank_vectors,
    evaluate_model,
    fit_biexponential,
)
from .kriging import (
    KrigingConfig,
    KrigingSolution,
    krige_rank,
    solve_weights,
)
from .baseline import baseline_rank
from .evaluate import (
    MAEReport,
    Trace,
    calibrate_offset,
    loo_evaluate,
    rank_histogram,
)
from .synth import (
    correlated_field_factor,
    synthetic_grid_positions,
    synthetic_rank_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
