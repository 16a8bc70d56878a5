"""Fine-tuning and the iterative prune pipeline.

The pipeline starts from an already-optimized scene: alternate ``interval``
optimizer steps with a prune event for ``steps`` rounds, then run an
extended fine-tune. The one-shot variant scores every Gaussian with a
no-update gradient pass over all views, prunes once, and fine-tunes.
Plain ``finetune`` runs the steps alone. One loop, ``_finetune_loop``, takes
every optimizer step of all three pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SH_COEFFS, Camera, GaussianSet, normalize_quaternions
from .errors import DivergedRunError, EmptySceneError, InvalidParameterError
from .metrics import LossConfig, psnr, training_loss
from .prune import (
    PruneCriterion,
    PruneReport,
    PruneSchedule,
    PruneStepRecord,
    apply_mask,
    prune_mask,
)
from .render import (
    GradientStats,
    RenderConfig,
    accumulate_gradient_stats,
    rasterize,
    rasterize_backward,
)

BACKGROUND = np.zeros(3)


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam hyperparameters with per-group learning rates."""

    position_lr_init: float = 1.6e-4
    position_lr_final: float = 1.6e-6
    sh_dc_lr: float = 2.5e-3
    sh_rest_lr: float = 2.5e-3 / 20.0
    opacity_lr: float = 5e-2
    scale_lr: float = 5e-3
    rotation_lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-15


_GROUPS = ("positions", "rotations", "log_scales", "opacity_logits", "sh_coeffs")


@dataclass
class OptimizerState:
    """Adam moments, congruent with the scene and filtered jointly on prune."""

    config: OptimizerConfig
    total_steps: int
    step_count: int = 0
    moments1: dict = field(default_factory=dict)
    moments2: dict = field(default_factory=dict)
    # Per group, four float64 arrays of its shape that a step computes into:
    # the next first and second moments (swapped with the current ones once
    # the step succeeds), the update and a scratch array. Allocated at the
    # first step on a scene size; ``filter`` starts without them.
    _work: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def create(scene: GaussianSet, config: OptimizerConfig, total_steps: int) -> "OptimizerState":
        state = OptimizerState(config=config, total_steps=max(total_steps, 1))
        for name in _GROUPS:
            arr = getattr(scene, name)
            state.moments1[name] = np.zeros(arr.shape, np.float64)
            state.moments2[name] = np.zeros(arr.shape, np.float64)
        return state

    def position_lr(self, step: int | None = None) -> float:
        """Position learning rate at ``step`` (default: the steps taken so far)."""
        cfg = self.config
        if cfg.position_lr_init == 0.0:
            return 0.0
        step = self.step_count if step is None else step
        frac = min(step / self.total_steps, 1.0)
        return cfg.position_lr_init * (cfg.position_lr_final / cfg.position_lr_init) ** frac

    def _group_lr(self, name: str, step: int) -> float | np.ndarray:
        """Learning rate of a group; for the SH coefficients, one per band and
        colour as a (16, 3) array: the DC band at its own rate, higher bands
        slower."""
        cfg = self.config
        if name == "positions":
            return self.position_lr(step)
        if name == "rotations":
            return cfg.rotation_lr
        if name == "log_scales":
            return cfg.scale_lr
        if name == "sh_coeffs":
            rate = np.full((SH_COEFFS, 3), cfg.sh_rest_lr)
            rate[0] = cfg.sh_dc_lr
            return rate
        return cfg.opacity_lr

    def step(self, scene: GaussianSet, grads) -> GaussianSet:
        """One Adam update in storage space; renormalizes quaternions.

        Parameter arrays whose update is identically zero are passed through
        untouched, so a zero-learning-rate step leaves the scene bit-exact.
        The step is all or nothing: if any updated parameter is not finite it
        raises ``DivergedRunError`` at this step and leaves the moments and
        the step count as they were.
        """
        step = self.step_count + 1
        cfg = self.config
        bias1 = 1.0 - cfg.beta1**step
        bias2 = 1.0 - cfg.beta2**step
        new_arrays = {}
        for name in _GROUPS:
            grad = getattr(grads, name)
            work = self._work.get(name)
            if work is None or work[0].shape != grad.shape:
                work = self._work[name] = [np.empty(grad.shape) for _ in range(4)]
            m, v, delta, tmp = work
            np.multiply(self.moments1[name], cfg.beta1, out=m)
            m += np.multiply(grad, 1.0 - cfg.beta1, out=tmp)
            np.multiply(self.moments2[name], cfg.beta2, out=v)
            np.multiply(grad, 1.0 - cfg.beta2, out=tmp)
            tmp *= grad
            v += tmp
            np.divide(m, bias1, out=delta)
            delta *= self._group_lr(name, step)
            np.divide(v, bias2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += cfg.eps
            delta /= tmp
            if not np.any(delta):
                continue
            param = getattr(scene, name)
            if name == "rotations":
                updated = normalize_quaternions(np.subtract(param, delta, out=tmp))
                updated = updated.astype(np.float32)
            else:
                # float64 arithmetic, rounded once to float32 on the way out
                updated = np.subtract(param, delta, out=np.empty_like(param))
            if not np.isfinite(updated).all():
                raise DivergedRunError(step, f"non-finite {name} update at iteration {step}")
            new_arrays[name] = updated
        self.step_count = step
        for name, work in self._work.items():
            self.moments1[name], work[0] = work[0], self.moments1[name]
            self.moments2[name], work[1] = work[1], self.moments2[name]
        if not new_arrays:
            return scene
        return scene.with_updates(**new_arrays)

    def filter(self, keep: np.ndarray) -> "OptimizerState":
        state = OptimizerState(
            config=self.config, total_steps=self.total_steps, step_count=self.step_count
        )
        state.moments1 = {k: v[keep] for k, v in self.moments1.items()}
        state.moments2 = {k: v[keep] for k, v in self.moments2.items()}
        return state


def load_run_config(path) -> dict[str, str]:
    """Flat key-value run configuration: one ``key value`` pair per line.

    Blank lines and ``#`` comments are ignored. Values stay strings; the
    consumer (CLI or caller) owns the typing.
    """
    from pathlib import Path

    config: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise InvalidParameterError(f"{path}:{lineno}: expected 'key value'")
        config[parts[0]] = parts[1].strip()
    return config


@dataclass
class HistoryEntry:
    iteration: int
    loss: float
    psnr: float
    count: int


@dataclass
class TrainRun:
    """Per-iteration record of one training run."""

    history: list[HistoryEntry] = field(default_factory=list)

    def log(self, loss: float, psnr_db: float, count: int) -> None:
        """Record the next iteration; iterations count from 1."""
        self.history.append(HistoryEntry(len(self.history) + 1, loss, psnr_db, count))


@dataclass
class FinetuneResult:
    scene: GaussianSet
    loss: float
    psnr: float
    grad_norms: np.ndarray  # ||dL/d mean2d|| per Gaussian


def finetune_step(
    scene: GaussianSet,
    optimizer: OptimizerState,
    camera: Camera,
    target: np.ndarray,
    loss_cfg: LossConfig,
    render_cfg: RenderConfig | None = None,
    background: np.ndarray = BACKGROUND,
) -> FinetuneResult:
    """Render one view, take one optimizer step, return the gradient norms."""
    if scene.count == 0:
        raise InvalidParameterError("cannot fine-tune an empty scene")
    render_cfg = render_cfg or RenderConfig()
    out = rasterize(scene, camera, background, render_cfg, for_backward=True)
    # divergence shows up as non-finite parameters poisoning the render
    iteration = optimizer.step_count + 1
    if not np.all(np.isfinite(out.image)):
        raise DivergedRunError(iteration, f"non-finite render at iteration {iteration}")
    loss, d_image = training_loss(out.image, target, loss_cfg)
    if not np.isfinite(loss):
        raise DivergedRunError(iteration, f"non-finite loss at iteration {iteration}")
    grads, norms = rasterize_backward(scene, camera, out, d_image)
    new_scene = optimizer.step(scene, grads)
    return FinetuneResult(
        scene=new_scene, loss=loss, psnr=psnr(out.image, target), grad_norms=norms
    )


class _ViewCycler:
    """Cycles through dataset views, reshuffling each epoch with a seeded RNG."""

    def __init__(self, n_views: int, rng: np.random.Generator):
        self.n_views = n_views
        self.rng = rng
        self.order = []

    def next(self) -> int:
        if not self.order:
            self.order = list(self.rng.permutation(self.n_views))
        return int(self.order.pop(0))


def _finetune_loop(
    scene: GaussianSet,
    optimizer: OptimizerState,
    dataset: list[tuple[Camera, np.ndarray]],
    cycler: _ViewCycler,
    iters: int,
    loss_cfg: LossConfig,
    render_cfg: RenderConfig | None,
    run: TrainRun,
    stats: GradientStats | None = None,
) -> tuple[GaussianSet, GradientStats | None]:
    """``iters`` optimizer steps on cycled views, each logged to ``run``.

    Pass ``stats`` when a prune event follows: each step's gradient norms
    are added to it and the updated stats are returned.
    """
    for _ in range(iters):
        camera, target = dataset[cycler.next()]
        result = finetune_step(scene, optimizer, camera, target, loss_cfg, render_cfg)
        scene = result.scene
        if stats is not None:
            stats = accumulate_gradient_stats(stats, result.grad_norms)
        run.log(result.loss, result.psnr, scene.count)
    return scene, stats


def _prune_event(
    scene: GaussianSet,
    optimizer: OptimizerState,
    stats: GradientStats,
    criterion: PruneCriterion,
    gamma_iter: float,
    report: PruneReport,
    iteration: int,
) -> tuple[GaussianSet, OptimizerState]:
    keep, op_thr, gr_thr = prune_mask(
        scene.activated_opacities(), stats.scores(), gamma_iter, criterion
    )
    if not np.any(keep):
        raise EmptySceneError(f"prune at iteration {iteration} would empty the scene")
    kept = int(keep.sum())
    report.add(
        PruneStepRecord(
            iteration=iteration,
            gamma_iter=gamma_iter,
            kept=kept,
            removed=keep.size - kept,
            opacity_threshold=op_thr,
            gradient_threshold=gr_thr,
        )
    )
    return apply_mask(scene, keep), optimizer.filter(keep)


def run_iterative_prune(
    scene: GaussianSet,
    dataset: list[tuple[Camera, np.ndarray]],
    schedule: PruneSchedule,
    loss_cfg: LossConfig | None = None,
    opt_cfg: OptimizerConfig | None = None,
    seed: int = 0,
    render_cfg: RenderConfig | None = None,
) -> tuple[GaussianSet, PruneReport, TrainRun]:
    """Alternate fine-tuning with prune events, then an extended fine-tune."""
    if not dataset:
        raise InvalidParameterError("dataset is empty")
    loss_cfg = loss_cfg or LossConfig()
    total = schedule.interval * schedule.steps + schedule.finetune_iters
    optimizer = OptimizerState.create(scene, opt_cfg or OptimizerConfig(), total)
    run = TrainRun()
    report = PruneReport(initial_count=scene.count)
    cycler = _ViewCycler(len(dataset), np.random.default_rng(seed))

    for _ in range(schedule.steps):
        scene, stats = _finetune_loop(
            scene, optimizer, dataset, cycler, schedule.interval, loss_cfg, render_cfg,
            run, GradientStats.zeros(scene.count),
        )
        scene, optimizer = _prune_event(
            scene, optimizer, stats, schedule.criterion, schedule.gamma_iter, report,
            len(run.history),
        )
    scene, _ = _finetune_loop(
        scene, optimizer, dataset, cycler, schedule.finetune_iters, loss_cfg, render_cfg, run
    )
    return scene, report, run


def score_pass(
    scene: GaussianSet,
    dataset: list[tuple[Camera, np.ndarray]],
    loss_cfg: LossConfig,
    render_cfg: RenderConfig | None = None,
) -> GradientStats:
    """Gradient statistics from one backward pass per view, with no updates."""
    stats = GradientStats.zeros(scene.count)
    render_cfg = render_cfg or RenderConfig()
    for camera, target in dataset:
        out = rasterize(scene, camera, BACKGROUND, render_cfg, for_backward=True)
        _, d_image = training_loss(out.image, target, loss_cfg)
        _, norms = rasterize_backward(scene, camera, out, d_image)
        del out  # free this view's kept pair state before the next view renders
        stats = accumulate_gradient_stats(stats, norms)
    return stats


def one_shot_prune(
    scene: GaussianSet,
    dataset: list[tuple[Camera, np.ndarray]],
    gamma: float,
    finetune_iters: int,
    criterion: PruneCriterion = PruneCriterion.GRADIENT_AWARE,
    loss_cfg: LossConfig | None = None,
    opt_cfg: OptimizerConfig | None = None,
    seed: int = 0,
    render_cfg: RenderConfig | None = None,
) -> tuple[GaussianSet, PruneReport, TrainRun]:
    """Prune the full target fraction in one event, then fine-tune."""
    if not dataset:
        raise InvalidParameterError("dataset is empty")
    # a one-event schedule validates gamma and finetune_iters up front
    PruneSchedule(gamma_target=gamma, steps=1, finetune_iters=finetune_iters)
    loss_cfg = loss_cfg or LossConfig()
    run = TrainRun()
    report = PruneReport(initial_count=scene.count)

    stats = score_pass(scene, dataset, loss_cfg, render_cfg)
    optimizer = OptimizerState.create(scene, opt_cfg or OptimizerConfig(), finetune_iters)
    scene, optimizer = _prune_event(scene, optimizer, stats, criterion, gamma, report, 0)
    cycler = _ViewCycler(len(dataset), np.random.default_rng(seed))
    scene, _ = _finetune_loop(
        scene, optimizer, dataset, cycler, finetune_iters, loss_cfg, render_cfg, run
    )
    return scene, report, run


def finetune(
    scene: GaussianSet,
    dataset: list[tuple[Camera, np.ndarray]],
    iters: int,
    loss_cfg: LossConfig | None = None,
    opt_cfg: OptimizerConfig | None = None,
    seed: int = 0,
    render_cfg: RenderConfig | None = None,
) -> tuple[GaussianSet, TrainRun]:
    """Pure fine-tuning: ``iters`` optimizer steps with no prune event."""
    if iters < 1:
        raise InvalidParameterError("iters must be >= 1")
    if not dataset:
        raise InvalidParameterError("dataset is empty")
    optimizer = OptimizerState.create(scene, opt_cfg or OptimizerConfig(), iters)
    run = TrainRun()
    cycler = _ViewCycler(len(dataset), np.random.default_rng(seed))
    scene, _ = _finetune_loop(
        scene, optimizer, dataset, cycler, iters, loss_cfg or LossConfig(), render_cfg, run
    )
    return scene, run


def evaluate(
    scene: GaussianSet,
    dataset: list[tuple[Camera, np.ndarray]],
    loss_cfg: LossConfig | None = None,
    render_cfg: RenderConfig | None = None,
) -> dict:
    """Mean PSNR / SSIM of a scene against a set of views."""
    from .metrics import ssim as ssim_fn

    loss_cfg = loss_cfg or LossConfig()
    render_cfg = render_cfg or RenderConfig()
    psnrs, ssims = [], []
    for camera, target in dataset:
        out = rasterize(scene, camera, BACKGROUND, render_cfg)
        psnrs.append(psnr(out.image, target))
        ssims.append(ssim_fn(out.image, target, loss_cfg))
    return {"psnr": float(np.mean(psnrs)), "ssim": float(np.mean(ssims))}
