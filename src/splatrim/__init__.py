"""Gradient-aware splat-scene compression on a self-contained CPU rasterizer."""

from .core import (
    Camera,
    GaussianSet,
    activated_opacity,
    covariance_from_rotation_scale,
    normalize_quaternions,
    sh_to_color,
)
from .errors import (
    DatasetError,
    DivergedRunError,
    EmptySceneError,
    InvalidParameterError,
    InvalidStateError,
    SplatError,
)
from .metrics import (
    LossConfig,
    compression_ratio,
    dssim_loss,
    l1_loss,
    model_size_bytes,
    psnr,
    ssim,
    training_loss,
)
from .prune import (
    GradientStats,
    PruneCriterion,
    PruneReport,
    PruneSchedule,
    apply_mask,
    per_iteration_fraction,
    prune_mask,
    quantile,
)
from .render import (
    ParamGradients,
    Projected2D,
    RenderConfig,
    RenderOutput,
    project,
    rasterize,
    rasterize_backward,
)
from .sceneio import (
    load_dataset,
    make_synthetic,
    perturb_scene,
    read_ply,
    read_ppm,
    write_ply,
    write_ppm,
)
from .train import (
    OptimizerConfig,
    OptimizerState,
    TrainRun,
    evaluate,
    finetune,
    finetune_step,
    load_run_config,
    one_shot_prune,
    run_iterative_prune,
)

__version__ = "0.1.0"
