"""Gradient scores, quantile thresholds, keep masks and the prune schedule.

A prune event removes the Gaussians whose activated opacity falls below the
per-event quantile threshold, unless (in the gradient-aware variant) their
accumulated gradient score clears its own quantile threshold. Spreading a
total sparsity target over ``t`` events uses the compounding per-event
fraction ``1 - (1 - gamma_target)**(1/t)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import PARAMETERS, GaussianSet
from .errors import InvalidParameterError

KEEP_ALL_THRESHOLD = -math.inf


class PruneCriterion(enum.Enum):
    GRADIENT_AWARE = "gradient"
    OPACITY_ONLY = "opacity"


@dataclass(frozen=True)
class PruneSchedule:
    gamma_target: float
    steps: int = 10
    interval: int = 50
    criterion: PruneCriterion = PruneCriterion.GRADIENT_AWARE
    finetune_iters: int = 1000

    def __post_init__(self):
        per_iteration_fraction(self.gamma_target, self.steps)
        if self.interval < 1:
            raise InvalidParameterError("interval must be >= 1")
        if self.finetune_iters < 0:
            raise InvalidParameterError("finetune_iters must be >= 0")

    @property
    def gamma_iter(self) -> float:
        return per_iteration_fraction(self.gamma_target, self.steps)


@dataclass
class PruneStepRecord:
    iteration: int
    gamma_iter: float
    kept: int
    removed: int
    opacity_threshold: float
    gradient_threshold: float
    achieved_sparsity: float  # 1 - kept / the count before the first event


@dataclass
class PruneReport:
    """Per-event bookkeeping plus the sparsity actually achieved."""

    initial_count: int
    records: list[PruneStepRecord] = field(default_factory=list)

    @property
    def final_count(self) -> int:
        return self.records[-1].kept if self.records else self.initial_count

    @property
    def achieved_sparsity(self) -> float:
        return self.records[-1].achieved_sparsity if self.records else 0.0


@dataclass
class GradientStats:
    """Running pruning signal: gradient-norm sums and per-pass hit counts."""

    accum_grad_norm: np.ndarray  # (N,) float64
    hit_count: np.ndarray        # (N,) int64

    @staticmethod
    def zeros(n: int) -> "GradientStats":
        return GradientStats(np.zeros(n), np.zeros(n, np.int64))

    def add(self, norms: np.ndarray) -> None:
        """Add one backward pass worth of per-Gaussian gradient norms, in place."""
        norms = np.asarray(norms, np.float64)
        if norms.shape != self.accum_grad_norm.shape:
            raise InvalidParameterError(
                f"norm length {norms.shape} does not match stats length "
                f"{self.accum_grad_norm.shape}"
            )
        self.accum_grad_norm += norms
        self.hit_count += norms > 0

    def scores(self) -> np.ndarray:
        """Accumulated gradient norm divided by the number of passes that hit."""
        return self.accum_grad_norm / np.maximum(self.hit_count, 1)


def per_iteration_fraction(gamma_target: float, steps: int) -> float:
    """Per-event removal fraction that compounds to ``gamma_target`` over ``steps``."""
    if not 0.0 <= gamma_target < 1.0:
        raise InvalidParameterError("gamma_target must be in [0, 1)")
    if steps < 1:
        raise InvalidParameterError("steps must be >= 1")
    return 1.0 - (1.0 - gamma_target) ** (1.0 / steps)


def quantile(values: np.ndarray, fraction: float) -> float:
    """Lower empirical quantile: the element at sorted index floor(fraction*n).

    Exactly floor(fraction*n) elements sort strictly below the returned value
    when values are distinct; where floor(fraction*n) is 0 it returns -inf,
    so a >= comparison keeps everything.
    """
    values = np.asarray(values, np.float64)
    if values.size == 0:
        raise InvalidParameterError("quantile of empty sequence")
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError("quantile input must be finite")
    if not 0.0 <= fraction < 1.0:
        raise InvalidParameterError("fraction must be in [0, 1)")
    k = int(math.floor(fraction * values.size))
    if k == 0:
        return KEEP_ALL_THRESHOLD
    # Selection, not a sort; np.partition works on a copy, never on the caller's array.
    return float(np.partition(values, k)[k])


def prune_mask(
    opacities: np.ndarray,
    grad_scores: np.ndarray | None,
    gamma_iter: float,
    criterion: PruneCriterion = PruneCriterion.GRADIENT_AWARE,
) -> tuple[np.ndarray, float, float]:
    """Boolean keep-mask for one prune event, with the thresholds it used.

    Gradient-aware keeps the union of the opacity and gradient-score top
    sets; opacity-only keeps the opacity top set alone and reports a
    ``nan`` gradient threshold. Returns ``(keep, opacity_threshold,
    gradient_threshold)``.
    """
    opacities = np.asarray(opacities, np.float64)
    if not 0.0 <= gamma_iter < 1.0:
        raise InvalidParameterError("gamma_iter must be in [0, 1)")
    op_thr = quantile(opacities, gamma_iter)
    keep = opacities >= op_thr
    gr_thr = math.nan
    if criterion is PruneCriterion.GRADIENT_AWARE:
        if grad_scores is None:
            raise InvalidParameterError("gradient-aware pruning needs grad_scores")
        grad_scores = np.asarray(grad_scores, np.float64)
        if grad_scores.shape != opacities.shape:
            raise InvalidParameterError(
                f"length mismatch: {opacities.shape} opacities vs "
                f"{grad_scores.shape} grad scores"
            )
        gr_thr = quantile(grad_scores, gamma_iter)
        keep |= grad_scores >= gr_thr
    return keep, op_thr, gr_thr


def apply_mask(gaussians: GaussianSet, keep: np.ndarray) -> GaussianSet:
    """New scene holding the kept rows in their original relative order."""
    keep = np.asarray(keep)
    if keep.dtype != np.bool_:
        raise InvalidParameterError("keep mask must be boolean")
    if keep.shape != (gaussians.count,):
        raise InvalidParameterError(
            f"mask length {keep.shape} does not match count {gaussians.count}"
        )
    rows = np.flatnonzero(keep)
    raw = gaussians.rotations_raw
    return GaussianSet(
        **{name: getattr(gaussians, name).take(rows, axis=0) for name in PARAMETERS},
        rotations_raw=None if raw is None else raw.take(rows, axis=0),
    )
