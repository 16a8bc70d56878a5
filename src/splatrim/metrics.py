"""Training loss and evaluation metrics.

The training loss blends mean absolute error with structural dissimilarity,
``(1 - lam) * L1 + lam * DSSIM``. Both terms come with analytic gradients
with respect to the rendered image. SSIM uses an 11-tap Gaussian window
(sigma 1.5) with reflect padding; the blur is applied as an explicit matrix
product per axis so its adjoint (the gradient path) is exact, boundary rows
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.0001  # (0.01)^2 on unit dynamic range
SSIM_C2 = 0.0009  # (0.03)^2


@dataclass(frozen=True)
class LossConfig:
    lam: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidParameterError("lam must be in [0, 1]")


def _check_pair(rendered: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rendered = np.asarray(rendered, np.float64)
    target = np.asarray(target, np.float64)
    if rendered.shape != target.shape:
        raise InvalidParameterError(
            f"image shapes differ: {rendered.shape} vs {target.shape}"
        )
    if not (np.all(np.isfinite(rendered)) and np.all(np.isfinite(target))):
        raise InvalidParameterError("images must be finite")
    return rendered, target


def l1_loss(rendered: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute difference and its gradient w.r.t. ``rendered``."""
    rendered, target = _check_pair(rendered, target)
    diff = rendered - target
    value = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return value, grad


@lru_cache(maxsize=32)
def _blur_matrix(n: int) -> np.ndarray:
    """(n, n) matrix applying the reflect-padded 1D Gaussian SSIM blur."""
    half = SSIM_WINDOW // 2
    taps = np.exp(-0.5 * ((np.arange(SSIM_WINDOW) - half) / SSIM_SIGMA) ** 2)
    taps /= taps.sum()
    m = np.zeros((n, n), np.float64)
    for i in range(n):
        for k in range(SSIM_WINDOW):
            j = i - half + k
            if j < 0:
                j = -j
            elif j >= n:
                j = 2 * n - 2 - j
            m[i, j] += taps[k]
    return m


class _SsimState:
    """Per-channel SSIM map plus everything the backward pass reuses."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h, w = x.shape
        self.mv = _blur_matrix(h)
        self.mh = _blur_matrix(w)
        blur = lambda img: self.mv @ img @ self.mh.T
        self.x, self.y = x, y
        self.mu_x = blur(x)
        self.mu_y = blur(y)
        self.var_x = blur(x * x) - self.mu_x**2
        self.var_y = blur(y * y) - self.mu_y**2
        self.cov_xy = blur(x * y) - self.mu_x * self.mu_y
        self.a1 = 2 * self.mu_x * self.mu_y + SSIM_C1
        self.a2 = 2 * self.cov_xy + SSIM_C2
        self.b1 = self.mu_x**2 + self.mu_y**2 + SSIM_C1
        self.b2 = self.var_x + self.var_y + SSIM_C2
        self.map = (self.a1 * self.a2) / (self.b1 * self.b2)

    def backward(self, d_map: np.ndarray) -> np.ndarray:
        """Gradient of sum(d_map * ssim_map) with respect to x."""
        denom = self.b1 * self.b2
        d_a1 = d_map * self.a2 / denom
        d_a2 = d_map * self.a1 / denom
        d_b1 = -d_map * self.map / self.b1
        d_b2 = -d_map * self.map / self.b2
        d_cov = 2 * d_a2
        d_var_x = d_b2
        d_mu_x = 2 * self.mu_y * d_a1 + 2 * self.mu_x * d_b1 \
            - 2 * self.mu_x * d_var_x - self.mu_y * d_cov
        adjoint = lambda g: self.mv.T @ g @ self.mh
        return adjoint(d_mu_x) + 2 * self.x * adjoint(d_var_x) + self.y * adjoint(d_cov)


def _ssim_inputs(rendered, target) -> tuple[np.ndarray, np.ndarray]:
    """Both images checked: (H, W, C), each side at least the SSIM window."""
    rendered, target = _check_pair(rendered, target)
    if rendered.ndim != 3:
        raise InvalidParameterError(f"SSIM takes (H, W, C) images, got shape {rendered.shape}")
    h, w = rendered.shape[:2]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise InvalidParameterError("image smaller than the SSIM window")
    return rendered, target


def ssim(rendered: np.ndarray, target: np.ndarray) -> float:
    """Mean SSIM over pixels and channels; 1.0 for identical images."""
    rendered, target = _ssim_inputs(rendered, target)
    total = 0.0
    for c in range(rendered.shape[2]):
        total += float(np.mean(_SsimState(rendered[..., c], target[..., c]).map))
    return total / rendered.shape[2]


def dssim_loss(rendered: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Structural dissimilarity (1 - SSIM) / 2 and its gradient."""
    rendered, target = _ssim_inputs(rendered, target)
    h, w, channels = rendered.shape
    grad = np.zeros_like(rendered)
    mean_ssim = 0.0
    # d(dssim)/d(map) = -0.5 / (H*W*C), shared by every channel
    d_map = np.full((h, w), -0.5 / (h * w * channels), np.float64)
    for c in range(channels):
        state = _SsimState(rendered[..., c], target[..., c])
        mean_ssim += float(np.mean(state.map)) / channels
        grad[..., c] = state.backward(d_map)
    value = (1.0 - mean_ssim) / 2.0
    return value, grad


def training_loss(
    rendered: np.ndarray, target: np.ndarray, cfg: LossConfig | None = None
) -> tuple[float, np.ndarray]:
    """(1 - lam) * L1 + lam * DSSIM with linearly combined gradients."""
    cfg = cfg or LossConfig()
    l1_value, l1_grad = l1_loss(rendered, target)
    if cfg.lam == 0.0:
        return l1_value, l1_grad
    d_value, d_grad = dssim_loss(rendered, target)
    value = (1.0 - cfg.lam) * l1_value + cfg.lam * d_value
    return value, (1.0 - cfg.lam) * l1_grad + cfg.lam * d_grad


def psnr(rendered: np.ndarray, target: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB on unit dynamic range; inf if equal."""
    rendered, target = _check_pair(rendered, target)
    mse = float(np.mean((rendered - target) ** 2))
    if mse == 0.0:
        return math.inf
    return -10.0 * math.log10(mse)


def model_size_bytes(gaussians) -> int:
    """Serialized scene size: splat file header plus the bytes of each Gaussian."""
    from .sceneio import BYTES_PER_VERTEX, ply_header_bytes

    n = gaussians.count if hasattr(gaussians, "count") else int(gaussians)
    return len(ply_header_bytes(n)) + BYTES_PER_VERTEX * n


def compression_ratio(baseline_bytes: float, pruned_bytes: float) -> float:
    """How many times smaller the pruned scene is than the baseline."""
    if baseline_bytes <= 0 or pruned_bytes <= 0:
        raise InvalidParameterError("sizes must be positive")
    return baseline_bytes / pruned_bytes
