"""Desk-scale benchmark construction shared by the acceptance suite.

The end-to-end experiments start from a "pretrained" baseline that stands in
for a fully trained splat scene. Real trained scenes carry a bottom-heavy
opacity profile (most splats are nearly invisible); the stand-in reproduces
that structure by ranking the ground-truth splats by their actual rendered
contribution and dropping the low ranks to a wide, near-invisible logit
band, then fine-tuning the result back above the quality bar.

Two details keep the pruning signal well-posed. Training disables the alpha
skip threshold: a skipped splat would carry an exactly-zero gradient, and a
large population of zero scores would tie at the gradient quantile and
defeat the keep-union. And the opacity/scale steps are kept small so Adam's
sign-driven updates can neither resurrect the dim pool nor random-walk its
footprints.
"""

from dataclasses import dataclass

import numpy as np

from splatrim.core import GaussianSet
from splatrim.metrics import LossConfig
from splatrim.render import RenderConfig, rasterize, rasterize_backward
from splatrim.sceneio import load_dataset, make_synthetic, perturb_scene
from splatrim.train import OptimizerConfig, evaluate, finetune

BENCH_RENDER = RenderConfig(tile_size=8, alpha_skip=0.0)
BENCH_OPT = OptimizerConfig(opacity_lr=2e-3, scale_lr=1e-3)
BENCH_LOSS = LossConfig(lam=0.2)

N_GAUSSIANS = 2000
N_VIEWS = 8
IMAGE_SIZE = 64
DIM_FRACTION = 0.72
DIM_BAND_TOP = -8.0    # logit of the brightest dim splat
DIM_BAND_SPREAD = 34.0  # uniform logit spread below the top
DIM_LOG_SCALE = np.log(0.02)
BASELINE_ITERS = 600


def contribution_rank(scene: GaussianSet, views) -> np.ndarray:
    """Total rendered contribution per splat across views.

    Backpropagating an all-ones image gradient puts the summed compositing
    weight of each splat into its DC color gradient.
    """
    total = np.zeros(scene.count)
    ones = np.ones((views[0][0].height, views[0][0].width, 3))
    for camera, _ in views:
        out = rasterize(scene, camera, np.zeros(3), BENCH_RENDER, for_backward=True)
        grads, _ = rasterize_backward(scene, camera, out, ones)
        total += grads.sh_coeffs[:, 0, :].sum(axis=1)
    return total


def pretrained_style_init(
    scene: GaussianSet, views, seed: int, dim_fraction: float = DIM_FRACTION
) -> GaussianSet:
    """Perturbed copy with the low-contribution splats dropped to a dim band."""
    perturbed = perturb_scene(
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


@dataclass
class Benchmark:
    scene: GaussianSet        # ground truth generator scene
    baseline: GaussianSet     # fine-tuned perturbed copy ("pretrained" stand-in)
    train_views: list
    test_views: list
    baseline_psnr: float
    baseline_ssim: float


def build_benchmark(
    out_dir, scene_seed: int, run_seed: int = 1, dim_fraction: float = DIM_FRACTION
) -> Benchmark:
    scene, manifest = make_synthetic(
        out_dir, seed=scene_seed, n_gaussians=N_GAUSSIANS,
        n_views=N_VIEWS, image_size=IMAGE_SIZE,
    )
    train_views = load_dataset(manifest, split="train")
    test_views = load_dataset(manifest, split="test")
    start = pretrained_style_init(
        scene, train_views + test_views, seed=scene_seed + 100,
        dim_fraction=dim_fraction,
    )
    baseline, _ = finetune(
        start, train_views, BASELINE_ITERS,
        loss_cfg=BENCH_LOSS, opt_cfg=BENCH_OPT, seed=run_seed, render_cfg=BENCH_RENDER,
    )
    quality = evaluate(baseline, test_views, BENCH_RENDER)
    return Benchmark(
        scene=scene,
        baseline=baseline,
        train_views=train_views,
        test_views=test_views,
        baseline_psnr=quality["psnr"],
        baseline_ssim=quality["ssim"],
    )
