"""Seeded inputs for the benchmark workloads.

Every scene comes from the package's own synthetic generator
(``make_synthetic``), seeded from the workload seed. The finetune-desk start
scene copies the construction of the acceptance suite's desk benchmark
(``tests/benchlib.py``) instead of importing it, so an edit to the tests
cannot shift the workload: the ground-truth splats are ranked by rendered
contribution, the low 72 % drop to a wide near-invisible logit band, and the
rest are perturbed. The dim band is what gives prune events something to
remove; from a plain perturbed start the gradient rule keeps almost every
splat.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from splatrim import render, sceneio
from splatrim.metrics import LossConfig
from splatrim.render import RenderConfig
from splatrim.train import OptimizerConfig

DESK_RENDER = RenderConfig(tile_size=8, alpha_skip=0.0)
DESK_OPT = OptimizerConfig(opacity_lr=2e-3, scale_lr=1e-3)
DESK_LOSS = LossConfig(lam=0.2)
GAMMA_TARGET = 0.5      # finetune-desk and scene-io prune to this over their events
DIM_FRACTION = 0.72
DIM_BAND_TOP = -8.0     # logit of the brightest dim splat
DIM_BAND_SPREAD = 34.0  # uniform logit spread below the top
DIM_LOG_SCALE = float(np.log(0.02))

SCORE_SIGMA = 0.012      # fitted to finetune-desk's prune events, see gradient_scores
CLOSEUP_FOCAL_SCALE = 10.0  # scene-io's close-up views of the scene center

BACKGROUND = np.zeros(3)


@dataclass(frozen=True)
class Seeds:
    """Sub-seeds derived from the one workload seed."""

    scene: int
    init: int
    baseline: int
    pipeline: int
    scores: int

    @staticmethod
    def of(seed: int) -> "Seeds":
        return Seeds(
            scene=seed, init=seed + 100, baseline=seed + 1,
            pipeline=seed + 2, scores=seed + 3,
        )


def synthetic(out_dir: Path, seed: int, n_gaussians: int, n_views: int, image_size: int):
    """Ground-truth scene plus (train, test) views decoded from disk."""
    scene, manifest = sceneio.make_synthetic(
        out_dir, seed=seed, n_gaussians=n_gaussians, n_views=n_views,
        image_size=image_size,
    )
    train = sceneio.load_dataset(manifest, split="train")
    test = sceneio.load_dataset(manifest, split="test")
    return scene, train, test


def contribution_rank(scene, views) -> np.ndarray:
    """Total rendered contribution per splat across views.

    Backpropagating an all-ones image gradient puts the summed compositing
    weight of each splat into its DC color gradient.
    """
    total = np.zeros(scene.count)
    ones = np.ones((views[0][0].height, views[0][0].width, 3))
    for camera, _ in views:
        out = render.rasterize(scene, camera, BACKGROUND, DESK_RENDER)
        grads, _ = render.rasterize_backward(scene, camera, out, ones)
        total += grads.sh_coeffs[:, 0, :].sum(axis=1)
    return total


def pretrained_style_init(scene, views, seed: int, dim_fraction: float = DIM_FRACTION):
    """Perturbed copy with the low-contribution splats dropped to a dim band."""
    perturbed = sceneio.perturb_scene(
        scene, seed=seed, opacity_sigma=0.1, scale_sigma=0.05, color_sigma=0.1
    )
    weights = contribution_rank(scene, views)
    dim_idx = np.argsort(weights)[: int(dim_fraction * scene.count)]
    rng = np.random.default_rng(seed + 1)
    logits = perturbed.opacity_logits.astype(np.float64)
    logits[dim_idx] = DIM_BAND_TOP - rng.uniform(0.0, DIM_BAND_SPREAD, dim_idx.size)
    scales = perturbed.log_scales.astype(np.float64)
    scales[dim_idx] = DIM_LOG_SCALE + rng.normal(0.0, 0.05, (dim_idx.size, 3))
    return perturbed.with_updates(
        opacity_logits=logits.astype(np.float32),
        log_scales=scales.astype(np.float32),
    )


def gradient_scores(seed: int, event: int, scene) -> np.ndarray:
    """Stand-in gradient scores accumulated between two prune events.

    The scores are the activated opacities times log-normal noise of sigma
    ``SCORE_SIGMA``, drawn afresh for each event as the pipeline resets its
    statistics after every prune. Sigma is fitted to the prune events of
    finetune-desk (seeds 0-5, 60 events), where the real gradient-aware mask
    keeps 8.9 % of the splats below the opacity threshold (5-17 % per event)
    and removes 6.07 % of the scene per event, with no zero scores and no
    ties at the gradient threshold. On the 10^5-splat scene this sigma keeps
    9.2 % and removes 6.08 %; the noise gives no zeros or ties either.
    """
    noise = np.random.default_rng([seed, event]).lognormal(0.0, SCORE_SIGMA, scene.count)
    return scene.activated_opacities() * noise
