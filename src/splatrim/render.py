"""Differentiable CPU splat rasterizer.

Forward: project each 3D Gaussian to an image-plane ellipse (mean, 2x2
covariance via the perspective Jacobian) and alpha-composite front to back
over (splat, pixel) pairs, built and composited in chunks of whole pixel
rows. A splat reaches a pixel if and only if the pixel centre lies inside its
cutoff ellipse, where ``-d^T conic d / 2 >= -sigma_cutoff**2 / 2`` (every
pixel under ``RenderConfig.exact()``); ``RenderConfig.tile_size`` affects
nothing. Rendered with ``for_backward``, the output keeps each chunk's pair
state. Backward: from that state (or the chunk built once more), reversed
per-pixel scans give the suffix sums and per-splat sums over the pairs chain
the pixel gradients back to every stored parameter.

All screen-space math runs in float64 regardless of the float32 storage so
analytic gradients match central finite differences tightly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    Camera,
    GaussianSet,
    SH_C1,
    SH_C2,
    SH_C3,
    SH_COEFFS,
    activated_opacity,
    quaternion_to_rotation,
    sh_basis,
)
from .errors import InvalidParameterError, InvalidStateError


@dataclass(frozen=True)
class RenderConfig:
    """Rasterizer constants. Oracle tests disable the cut-offs."""

    tile_size: int = 16             # validated; the pair rasterizer reads nothing of it
    sigma_cutoff: float = 3.0       # contributor ellipse, in sigmas
    lowpass: float = 0.3            # px^2 added to the 2D covariance diagonal
    alpha_clamp: float = 0.99
    alpha_skip: float = 1.0 / 255.0
    transmittance_floor: float = 1e-4

    def __post_init__(self):
        if self.tile_size < 1:
            raise InvalidParameterError("tile_size must be >= 1")
        if self.sigma_cutoff <= 0:
            raise InvalidParameterError("sigma_cutoff must be positive")

    @staticmethod
    def exact() -> "RenderConfig":
        """No spatial cut-off, no skips, no early termination."""
        return RenderConfig(
            sigma_cutoff=math.inf, alpha_skip=0.0, transmittance_floor=0.0
        )


@dataclass(frozen=True)
class Projected2D:
    """Screen-space projection of every Gaussian (struct of arrays)."""

    mean2d: np.ndarray   # (N, 2) pixels
    cov2d: np.ndarray    # (N, 2, 2) pixels^2, low-pass dilated
    depth: np.ndarray    # (N,) camera-space z
    visible: np.ndarray  # (N,) bool


@dataclass
class RenderOutput:
    image: np.ndarray                  # (H, W, 3) in [0, 1]
    terminal_transmittance: np.ndarray  # (H, W) in [0, 1]
    background: np.ndarray
    config: RenderConfig
    # The forward's state for the backward pass, valid only for the exact
    # scene and camera objects it rendered: the visible-row projection.
    _prep: _Prepared = field(repr=False)
    _scene: GaussianSet = field(repr=False)
    _camera: Camera = field(repr=False)
    # Per chunk, its read-only pair state; None unless rendered ``for_backward``.
    _kept: list[_Pairs] | None = field(default=None, repr=False)


@dataclass
class ParamGradients:
    """Loss gradients in storage space, one row per Gaussian (zeros if culled)."""

    positions: np.ndarray       # (N, 3)
    rotations: np.ndarray       # (N, 4)
    log_scales: np.ndarray      # (N, 3)
    opacity_logits: np.ndarray  # (N,)
    sh_coeffs: np.ndarray       # (N, 16, 3)

    @staticmethod
    def zeros(n: int) -> "ParamGradients":
        return ParamGradients(
            positions=np.zeros((n, 3)),
            rotations=np.zeros((n, 4)),
            log_scales=np.zeros((n, 3)),
            opacity_logits=np.zeros(n),
            sh_coeffs=np.zeros((n, SH_COEFFS, 3)),
        )


@dataclass
class GradientStats:
    """Running pruning signal: gradient-norm sums and per-pass hit counts."""

    accum_grad_norm: np.ndarray  # (N,) float64
    hit_count: np.ndarray        # (N,) int64

    @staticmethod
    def zeros(n: int) -> "GradientStats":
        return GradientStats(np.zeros(n), np.zeros(n, np.int64))

    def scores(self) -> np.ndarray:
        """Accumulated gradient norm divided by the number of passes that hit."""
        return self.accum_grad_norm / np.maximum(self.hit_count, 1)


def accumulate_gradient_stats(
    stats: GradientStats, per_gaussian_norms: np.ndarray
) -> GradientStats:
    """Add one backward pass worth of gradient norms; returns a new stats object."""
    norms = np.asarray(per_gaussian_norms, np.float64)
    if norms.shape != stats.accum_grad_norm.shape:
        raise InvalidParameterError(
            f"norm length {norms.shape} does not match stats length "
            f"{stats.accum_grad_norm.shape}"
        )
    return GradientStats(
        accum_grad_norm=stats.accum_grad_norm + norms,
        hit_count=stats.hit_count + (norms > 0),
    )


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def project(
    gaussians: GaussianSet,
    camera: Camera,
    config: RenderConfig | None = None,
    identity_jacobian: bool = False,
) -> Projected2D:
    """Screen-space means, dilated 2D covariances, depths, and culling flags.

    ``identity_jacobian`` is a test hook replacing the perspective Jacobian
    with [[1,0,0],[0,1,0]] in the covariance path only.
    """
    config = config or RenderConfig()
    full = _project_full(gaussians, camera, config, identity_jacobian)
    return Projected2D(
        mean2d=full.mean2d, cov2d=full.cov2d, depth=full.depth, visible=full.visible
    )


class _Projection(NamedTuple):
    """Full-length projection plus the intermediates the backward chains through."""

    mean2d: np.ndarray   # (N, 2)
    cov2d: np.ndarray    # (N, 2, 2)
    depth: np.ndarray    # (N,)
    visible: np.ndarray  # (N,) bool
    det: np.ndarray      # (N,) det(cov2d)
    t_cam: np.ndarray    # (N, 3) camera-space position
    p_mat: np.ndarray    # (N, 2, 3) J @ W_rot
    sigma3: np.ndarray   # (N, 3, 3) world covariance M M^T
    m_mat: np.ndarray    # (N, 3, 3) R diag(s)
    rot: np.ndarray      # (N, 3, 3)
    scales: np.ndarray   # (N, 3)
    q_hat: np.ndarray    # (N, 4) unit quaternion


def _project_full(
    gaussians: GaussianSet,
    camera: Camera,
    config: RenderConfig,
    identity_jacobian: bool = False,
) -> _Projection:
    n = gaussians.count
    w2c = camera.world_to_camera
    rot_w2c = w2c[:3, :3]
    pos = gaussians.positions.astype(np.float64)
    t_cam = pos @ rot_w2c.T + w2c[:3, 3]
    z = t_cam[:, 2]

    in_front = z >= camera.near_clip
    safe_z = np.where(z > 1e-12, z, 1.0)

    mean2d = np.zeros((n, 2))
    mean2d[:, 0] = camera.fx * t_cam[:, 0] / safe_z + camera.cx
    mean2d[:, 1] = camera.fy * t_cam[:, 1] / safe_z + camera.cy

    # World covariance from stored rotation + log-scale, quats renormalized
    # so gradients can chain through the normalization.
    q = gaussians.rotations.astype(np.float64)
    q_norm = np.linalg.norm(q, axis=1)
    q_hat = q / np.where(q_norm > 0, q_norm, 1.0)[:, None]
    rot = quaternion_to_rotation(q_hat)
    scales = np.exp(gaussians.log_scales.astype(np.float64))
    m_mat = rot * scales[:, None, :]
    sigma3 = m_mat @ np.swapaxes(m_mat, 1, 2)

    jac = np.zeros((n, 2, 3))
    if identity_jacobian:
        jac[:, 0, 0] = 1.0
        jac[:, 1, 1] = 1.0
    else:
        jac[:, 0, 0] = camera.fx / safe_z
        jac[:, 0, 2] = -camera.fx * t_cam[:, 0] / safe_z**2
        jac[:, 1, 1] = camera.fy / safe_z
        jac[:, 1, 2] = -camera.fy * t_cam[:, 1] / safe_z**2

    p_mat = jac @ rot_w2c  # (N, 2, 3)
    cov2d = p_mat @ sigma3 @ np.swapaxes(p_mat, 1, 2)
    cov2d[:, 0, 0] += config.lowpass
    cov2d[:, 1, 1] += config.lowpass

    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2

    # Cull: behind the near plane, degenerate footprint, or center further
    # than 3 sigma outside the image bounds.
    margin_x = 3.0 * np.sqrt(np.maximum(cov2d[:, 0, 0], 0.0))
    margin_y = 3.0 * np.sqrt(np.maximum(cov2d[:, 1, 1], 0.0))
    on_screen = (
        (mean2d[:, 0] >= -margin_x)
        & (mean2d[:, 0] <= camera.width - 1 + margin_x)
        & (mean2d[:, 1] >= -margin_y)
        & (mean2d[:, 1] <= camera.height - 1 + margin_y)
    )
    visible = in_front & on_screen & (det > 0)

    mean2d[~in_front] = 0.0
    cov2d[~in_front] = 0.0

    return _Projection(
        mean2d=mean2d, cov2d=cov2d, depth=z, visible=visible, det=det, t_cam=t_cam,
        p_mat=p_mat, sigma3=sigma3, m_mat=m_mat, rot=rot, scales=scales, q_hat=q_hat,
    )


@dataclass
class _Prepared:
    """Everything the pair chunks and the backward chain read, visible rows only."""

    vis_idx: np.ndarray      # original indices of visible Gaussians
    front: np.ndarray        # visible rows front to back, by (depth, index)
    mean2d: np.ndarray       # (V, 2)
    cov2d: np.ndarray        # (V, 2, 2) dilated
    conic: np.ndarray        # (V, 2, 2) inverse of dilated cov2d
    color: np.ndarray        # (V, 3) clamped SH color
    color_raw: np.ndarray    # (V, 3) before the clamp (for gradient gating)
    opacity: np.ndarray      # (V,)
    view_dir: np.ndarray     # (V, 3) unnormalized (position - camera center)
    dir_hat: np.ndarray      # (V, 3) unit view direction
    basis: np.ndarray        # (V, 16)
    # Projection intermediates the backward chain reads (see _Projection).
    t_cam: np.ndarray
    p_mat: np.ndarray
    sigma3: np.ndarray
    m_mat: np.ndarray
    rot: np.ndarray
    scales: np.ndarray
    q_hat: np.ndarray


def _prepare(gaussians: GaussianSet, camera: Camera, config: RenderConfig) -> _Prepared:
    full = _project_full(gaussians, camera, config)
    vis_idx = np.flatnonzero(full.visible)
    cov2d = full.cov2d[vis_idx]
    det = full.det[vis_idx]
    conic = np.empty_like(cov2d)
    conic[:, 0, 0] = cov2d[:, 1, 1] / det
    conic[:, 1, 1] = cov2d[:, 0, 0] / det
    conic[:, 0, 1] = conic[:, 1, 0] = -cov2d[:, 0, 1] / det

    dir_raw = gaussians.positions[vis_idx].astype(np.float64) - camera.center
    dir_len = np.linalg.norm(dir_raw, axis=1)
    dir_hat = dir_raw / np.where(dir_len > 0, dir_len, 1.0)[:, None]
    basis = sh_basis(dir_hat)
    sh = gaussians.sh_coeffs[vis_idx].astype(np.float64)
    color_raw = np.einsum("vk,vkc->vc", basis, sh) + 0.5
    color = np.maximum(color_raw, 0.0)
    opacity = activated_opacity(gaussians.opacity_logits[vis_idx].astype(np.float64))

    return _Prepared(
        vis_idx=vis_idx,
        front=np.argsort(full.depth[vis_idx], kind="stable"),
        mean2d=full.mean2d[vis_idx],
        cov2d=cov2d,
        conic=conic,
        color=color,
        color_raw=color_raw,
        opacity=np.atleast_1d(opacity),
        view_dir=dir_raw,
        dir_hat=dir_hat,
        basis=basis,
        t_cam=full.t_cam[vis_idx],
        p_mat=full.p_mat[vis_idx],
        sigma3=full.sigma3[vis_idx],
        m_mat=full.m_mat[vis_idx],
        rot=full.rot[vis_idx],
        scales=full.scales[vis_idx],
        q_hat=full.q_hat[vis_idx],
    )


# ---------------------------------------------------------------------------
# (splat, pixel) pairs
# ---------------------------------------------------------------------------

# A chunk of whole pixel rows closes once it holds this many (splat, pixel)
# pairs, which bounds the per-pair arrays a chunk allocates.
_CHUNK_PAIRS = 1 << 15


class _Pairs(NamedTuple):
    """One chunk's (splat, pixel) pairs, grouped by pixel and front to back
    within a pixel, and what compositing made of them. The per-pixel scans
    run in a flat buffer that gives each occupied pixel one row of a 2-D
    block: the cell in front of its first pair, one behind each, padding."""

    rows: np.ndarray     # (M,) depth rank of each pair's splat (visible row front[rank])
    dx: np.ndarray       # (M,) pixel x minus the splat's mean x
    dy: np.ndarray       # (M,) pixel y minus the splat's mean y
    gauss: np.ndarray    # (M,) Gaussian falloff exp(power)
    alpha: np.ndarray    # (M,)
    trans: np.ndarray    # (M,) transmittance in front of the pair
    active: np.ndarray   # (M,) bool: accepted before termination
    weights: np.ndarray  # (M,) alpha * trans where active, else 0
    slot: np.ndarray     # (M,) scan-buffer cell in front of each pair
    pixels: np.ndarray   # (Q,) flat index y * W + x of each occupied pixel
    counts: np.ndarray   # (Q,) pairs per pixel
    tail: np.ndarray     # (Q,) scan-buffer cell behind each pixel's last pair
    color: np.ndarray    # (Q, 3) pixel colour before the [0, 1] clip
    t_final: np.ndarray  # (Q,) terminal transmittance
    blocks: tuple        # (first cell, pixels, row width) of each block


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each run of ``counts`` starts."""
    return np.cumsum(counts) - counts


def _block_views(buf: np.ndarray, blocks: tuple) -> Iterator[np.ndarray]:
    """The scan buffer as 2-D blocks, one row per pixel."""
    return (buf[first:first + n * width].reshape(n, width) for first, n, width in blocks)


def _pair_chunks(
    prep: _Prepared, camera: Camera, config: RenderConfig, bg: np.ndarray
) -> Iterator[_Pairs]:
    """Composite the visible rows in chunks of whole pixel rows.

    On each pixel row of its ellipse, a visible row reaches the x-span where
    ``a dx^2 + 2 b dx dy + c dy^2 <= sigma_cutoff^2``, (a, b; b, c) being its
    conic. These (row, pixel row) segments, ordered by pixel row and then
    front to back, form chunks that close once they reach ``_CHUNK_PAIRS``
    pairs. Rows are numbered by depth rank, so pixels read them in order."""
    h, w = camera.height, camera.width
    # Per-row coefficients in depth order, which each pair gathers in one
    # ``take``: mean x and y, -a/2, b, -c/2, opacity and colour.
    coef = np.concatenate((
        np.stack((prep.mean2d[:, 0], prep.mean2d[:, 1], -0.5 * prep.conic[:, 0, 0],
                  prep.conic[:, 0, 1], -0.5 * prep.conic[:, 1, 1], prep.opacity)),
        prep.color.T,
    )).take(prep.front, axis=1)
    mx, my, qa, b, qc, opacity = coef[:6]
    a, c = -2.0 * qa, -2.0 * qc  # exactly; (a, b; b, c) is the conic
    s2 = np.full(opacity.shape, config.sigma_cutoff**2)
    if config.alpha_skip > 0.0:
        # Beyond 2 ln(opacity / alpha_skip) the alpha is skipped anyway: shrink
        # the ellipse to that (1e-6 wider, for rounding), dropping only zeros.
        reach = 2.0 * np.log(np.maximum(opacity / config.alpha_skip, 1e-300)) + 1e-6
        np.minimum(s2, reach, out=s2)
    ry = np.sqrt(np.maximum(s2, 0.0) * np.maximum(prep.cov2d[:, 1, 1].take(prep.front), 0.0))
    y0 = np.clip(np.ceil(my - ry), 0, h).astype(np.int64)
    ny = np.maximum(np.clip(np.floor(my + ry), -1, h - 1).astype(np.int64) - y0 + 1, 0)
    ny[s2 < 0.0] = 0
    live = np.flatnonzero(ny)
    ny = ny[live]
    seg_row = np.repeat(live, ny)
    seg_y = np.repeat(y0[live] - _starts(ny), ny) + np.arange(seg_row.size)
    by_y = np.argsort(seg_y.astype(np.min_scalar_type(h)), kind="stable")
    seg_row, seg_y = seg_row.take(by_y), seg_y.take(by_y)
    row_seg = np.searchsorted(seg_y, np.arange(h + 1))  # first segment of each pixel row
    del ry, y0, live, ny, by_y

    # On pixel row y the span is mid +- half, with dy = y - mean y,
    # mid = mean x - b dy / a and half = sqrt(a s2 - (a c - b^2) dy^2) / a.
    sa, sb = a.take(seg_row), b.take(seg_row)
    dy = seg_y - my.take(seg_row)
    half = (a * s2).take(seg_row) - (a * c - b * b).take(seg_row) * dy * dy
    half = np.sqrt(np.maximum(half, 0.0)) / sa
    mid = mx.take(seg_row) - sb * dy / sa
    x0 = np.clip(np.ceil(mid - half), 0, w).astype(np.int64)
    nx = np.maximum(np.clip(np.floor(mid + half), -1, w - 1).astype(np.int64) - x0 + 1, 0)
    seg_pixel = seg_y * w + x0
    seg_cterm = qc.take(seg_row) * dy * dy  # the power's -c/2 dy^2, fixed per segment
    del sa, sb, half, mid, x0, seg_y, s2
    row_pair = np.concatenate(([0], np.cumsum(nx)))[row_seg]  # pairs before each pixel row
    y = 0
    while y < h:
        stop = min(int(np.searchsorted(row_pair, row_pair[y] + _CHUNK_PAIRS)), h)
        if row_pair[stop] > row_pair[y]:
            sl = slice(row_seg[y], row_seg[stop])
            yield _composite(
                coef, seg_row[sl], seg_pixel[sl], nx[sl], dy[sl], seg_cterm[sl],
                y * w, (stop - y) * w, w, config, bg,
            )
        y = stop


def _composite(
    coef: np.ndarray, seg_row: np.ndarray, seg_pixel: np.ndarray, seg_count: np.ndarray,
    seg_dy: np.ndarray, seg_cterm: np.ndarray,
    base: int, n_pixels: int, width: int, config: RenderConfig, bg: np.ndarray,
) -> _Pairs:
    """Composite one chunk: its segments (depth rank, flat pixel of the span's
    first pair, span length, dy, -c/2 dy^2) over its pixels ``base`` to
    ``base + n_pixels``. The pairs are stable-sorted by pixel on the narrowest
    unsigned key, so numpy radix-sorts them; each pixel's transmittance is then
    an exact sequential product, one ``cumprod`` per scan-buffer block."""
    m = int(seg_count.sum())
    seg = np.repeat(np.arange(seg_count.size), seg_count)
    local = (seg_pixel - base - _starts(seg_count)).take(seg)
    local += np.arange(m)
    local = local.astype(np.min_scalar_type(n_pixels - 1))
    order = np.argsort(local, kind="stable")
    counts = np.bincount(local, minlength=n_pixels)
    pixels = np.flatnonzero(counts)
    counts = counts[pixels]
    seg = seg.take(order)
    rows = seg_row.take(seg)
    del local, order
    pixels += base

    # Per-pair coefficients are gathered one row at a time into ``tmp``.
    tmp = np.empty(m)
    dx = np.repeat((pixels % width).astype(np.float64), counts)
    dx -= coef[0].take(rows, out=tmp)
    dy = seg_dy.take(seg)
    # power = -(a dx^2 + 2 b dx dy + c dy^2) / 2
    gauss = coef[3].take(rows)
    gauss *= dx
    gauss *= dy
    np.subtract(seg_cterm.take(seg, out=tmp), gauss, out=gauss)
    coef[2].take(rows, out=tmp)
    tmp *= dx
    tmp *= dx
    gauss += tmp
    np.exp(gauss, out=gauss)
    alpha = coef[5].take(rows)
    alpha *= gauss
    np.minimum(alpha, config.alpha_clamp, out=alpha)
    if config.alpha_skip > 0.0:
        alpha[alpha < config.alpha_skip] = 0.0

    # A pixel's scan row is 2^k + 1 cells wide, 2^k >= its pair count.
    k = np.frexp(counts - 1)[1].astype(np.uint8)
    by_width = np.argsort(k, kind="stable")
    cell0 = np.empty_like(counts)
    cell0[by_width] = _starts((1 << k.take(by_width).astype(np.intp)) + 1)
    n = np.bincount(k)
    k = np.flatnonzero(n)
    n, widths = n[k], (1 << k) + 1
    first = _starts(n * widths)
    blocks = tuple(zip(first.tolist(), n.tolist(), widths.tolist()))
    start = _starts(counts)
    slot = np.repeat(cell0 - start, counts)
    slot += np.arange(m)

    # A pixel's first cell is 1 and the cell behind pair j holds 1 - alpha_j;
    # after the cumprod, the cell in front of pair j holds the transmittance
    # in front of it.
    buf = np.ones(int(first[-1] + n[-1] * widths[-1]))
    behind = buf[1:]
    behind[slot] = np.subtract(1.0, alpha, out=tmp)
    for view in _block_views(buf, blocks):
        np.cumprod(view, axis=1, out=view)
    trans = buf.take(slot)
    weights = alpha * trans
    t_final, active = buf.take(cell0 + counts), np.ones(m, bool)
    # A pair is dropped (with everything behind it) once accepting it would
    # push the transmittance below the floor; it only falls, so check there.
    if (t_final < config.transmittance_floor).any():
        active = behind.take(slot, out=tmp) >= config.transmittance_floor
        weights *= active
        # ``active`` is a prefix of each pixel's pairs: the cell behind the
        # last accepted pair (the first cell if none) is the terminal one.
        t_final = buf.take(cell0 + np.add.reduceat(active, start, dtype=np.intp))
    pixel_of = np.repeat(np.arange(counts.size), counts)  # colours sum in pair order
    color = np.outer(t_final, bg)
    for c in range(3):
        np.multiply(coef[6 + c].take(rows, out=tmp), weights, out=tmp)
        color[:, c] += np.bincount(pixel_of, tmp, minlength=counts.size)
    return _Pairs(
        rows, dx, dy, gauss, alpha, trans, active, weights, slot,
        pixels, counts, cell0 + counts, color, t_final, blocks,
    )


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def rasterize(
    gaussians: GaussianSet,
    camera: Camera,
    background,
    config: RenderConfig | None = None,
    for_backward: bool = False,
) -> RenderOutput:
    """Render the scene front to back over ``background``.

    With ``for_backward`` the output keeps each chunk's pair state (a few
    per-pair arrays), which ``rasterize_backward`` reads instead of building
    it again. Leave it off for renders that no backward follows.
    """
    config = config or RenderConfig()
    bg = np.asarray(background, np.float64)
    if bg.shape != (3,):
        raise InvalidParameterError("background must be an RGB triple")

    h, w = camera.height, camera.width
    image = np.tile(bg, (h * w, 1))
    transmittance = np.ones(h * w)
    prep = _prepare(gaussians, camera, config)
    kept = [] if for_backward else None
    for pairs in _pair_chunks(prep, camera, config, bg):
        image[pairs.pixels] = pairs.color
        transmittance[pairs.pixels] = pairs.t_final
        if kept is not None:
            for arr in pairs[:-1]:
                arr.flags.writeable = False
            kept.append(pairs)

    np.clip(image, 0.0, 1.0, out=image)
    return RenderOutput(
        image=image.reshape(h, w, 3),
        terminal_transmittance=transmittance.reshape(h, w),
        background=bg,
        config=config,
        _prep=prep,
        _scene=gaussians,
        _camera=camera,
        _kept=kept,
    )


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def rasterize_backward(
    gaussians: GaussianSet,
    camera: Camera,
    render_output: RenderOutput,
    d_image: np.ndarray,
) -> tuple[ParamGradients, np.ndarray]:
    """Chain pixel-space gradients back to the 59 stored parameters.

    Returns the parameter gradients and the per-Gaussian L2 norm of the
    gradient with respect to the projected 2D mean. Gaussians that did not
    contribute in the forward pass receive exactly zero gradient.
    ``render_output`` must come from ``rasterize`` on these very ``gaussians``
    and ``camera`` objects: the backward reuses the forward's projection and
    pairs.
    """
    if render_output._scene is not gaussians:
        raise InvalidStateError("render output was not rendered from this scene object")
    if render_output._camera is not camera:
        raise InvalidStateError("render output was not rendered with this camera object")
    d_image = np.asarray(d_image, np.float64)
    if d_image.shape != (camera.height, camera.width, 3):
        raise InvalidStateError(
            f"gradient image shape {d_image.shape} does not match camera "
            f"{(camera.height, camera.width, 3)}"
        )

    config = render_output.config
    bg = render_output.background
    prep = render_output._prep
    chunks = render_output._kept or _pair_chunks(prep, camera, config, bg)
    g_image = d_image.reshape(-1, 3)
    color_t = np.ascontiguousarray(prep.color.take(prep.front, axis=0).T)
    # Per depth rank: d_color (3), then the sums over its pairs of
    # dL/d(alpha) times the Gaussian falloff times 1, dx, dy, dx^2, dx dy and
    # dy^2. Opacity and conic factors are per-row constants, so they are
    # applied once after the chunk loop.
    ranked = np.zeros((9, prep.vis_idx.size))
    for p in chunks:
        g_pix = np.where(p.color <= 1.0, g_image[p.pixels], 0.0)  # adjoint of the [0,1] clip
        g = np.repeat(g_pix.T, p.counts, axis=1)  # (3, M)
        tmp, e = np.empty(p.rows.size), np.zeros(p.rows.size)  # e: c . g per pair
        for k in range(3):
            e += np.multiply(color_t[k].take(p.rows, out=tmp), g[k], out=tmp)
        # dL/d alpha_i = T_i (c_i . g) - (suffix_i + bg-term) / (1 - alpha_i),
        # suffix_i being the sum of weights * (c . g) behind pair i in its
        # pixel: with weights * (c . g) in front of each pair and the
        # background term behind the last, one cumsum from the back leaves it
        # in the cell behind pair i.
        buf = np.zeros(sum(n * width for _, n, width in p.blocks))
        buf[p.slot] = np.multiply(p.weights, e, out=tmp)
        buf[p.tail] = (g_pix @ bg) * p.t_final
        for view in _block_views(buf, p.blocks):
            np.cumsum(view[:, ::-1], axis=1, out=view[:, ::-1])
        suffix = buf[1:].take(p.slot, out=tmp)
        del buf
        suffix /= 1.0 - p.alpha
        d_alpha = np.multiply(p.trans, e, out=e)
        d_alpha -= suffix
        # zero where skipped, terminated, or where the clamp bound alpha
        d_alpha *= (p.alpha > 0) & p.active & (p.alpha < config.alpha_clamp)
        d_alpha *= p.gauss  # dL/d(opacity); dL/d(power) is this times opacity
        g *= p.weights
        d_dx = np.multiply(d_alpha, p.dx, out=tmp)
        d_dy = d_alpha * p.dy
        second = ((d_dx, p.dx), (d_dx, p.dy), (d_dy, p.dy))
        _add_per_row(ranked, p.rows, chain(
            g, (d_alpha, d_dx, d_dy), (u * v for u, v in second)
        ))
    acc = np.empty_like(ranked)
    acc[:, prep.front] = ranked

    # With power = -(a dx^2 + 2 b dx dy + c dy^2) / 2 and dx = x - mean_x:
    # dL/dmean = opacity * conic @ (sum dx, sum dy) and dL/dconic =
    # -opacity / 2 * [[sum dx^2, sum dx dy], [sum dx dy, sum dy^2]].
    o = prep.opacity[:, None]
    d_mean2d = o * np.einsum("vij,vj->vi", prep.conic, acc[4:6].T)
    d_conic = np.empty_like(prep.conic)
    d_conic[:, 0, 0] = acc[6]
    d_conic[:, 0, 1] = d_conic[:, 1, 0] = acc[7]
    d_conic[:, 1, 1] = acc[8]
    d_conic *= -0.5 * o[:, None]
    grads = _chain_to_parameters(
        gaussians, camera, prep, acc[:3].T, acc[3], d_mean2d, d_conic
    )
    norms = np.zeros(gaussians.count)
    norms[prep.vis_idx] = np.linalg.norm(d_mean2d, axis=1)
    return grads, norms


def _add_per_row(acc: np.ndarray, rows: np.ndarray, values) -> None:
    """``acc[k, r] +=`` the sum of the k-th of ``values`` (a generator holds one
    array at a time) over the pairs of row ``r``. Each sum runs on from
    ``acc`` in pair order, so the totals do not depend on the chunking."""
    seeded = np.concatenate((np.arange(acc.shape[1]), rows))
    for k, v in enumerate(values):
        acc[k] = np.bincount(seeded, np.concatenate((acc[k], v)))


def _chain_to_parameters(
    gaussians: GaussianSet,
    camera: Camera,
    prep: _Prepared,
    d_color: np.ndarray,
    d_opacity: np.ndarray,
    d_mean2d: np.ndarray,
    d_conic: np.ndarray,
) -> ParamGradients:
    out = ParamGradients.zeros(gaussians.count)
    vis = prep.vis_idx
    if vis.size == 0:
        return out

    # conic = inv(cov2d): dL/dCov = -conic @ dL/dConic @ conic
    conic = prep.conic
    d_cov2d = -conic @ d_conic @ conic

    p_mat = prep.p_mat  # (V, 2, 3) = J @ W_rot
    d_sigma3 = np.swapaxes(p_mat, 1, 2) @ d_cov2d @ p_mat
    d_p = (d_cov2d + np.swapaxes(d_cov2d, 1, 2)) @ p_mat @ prep.sigma3
    rot_w2c = camera.world_to_camera[:3, :3]
    d_jac = (d_p.reshape(-1, 3) @ rot_w2c.T).reshape(d_p.shape)

    # Perspective chain: both the Jacobian entries and the projected mean
    # depend on the camera-space position t = (x, y, z).
    x, y, z = prep.t_cam[:, 0], prep.t_cam[:, 1], prep.t_cam[:, 2]
    fx, fy = camera.fx, camera.fy
    inv_z = 1.0 / z
    inv_z2 = inv_z * inv_z
    d_t = np.zeros((vis.size, 3))
    d_t[:, 0] = d_jac[:, 0, 2] * (-fx * inv_z2) + d_mean2d[:, 0] * fx * inv_z
    d_t[:, 1] = d_jac[:, 1, 2] * (-fy * inv_z2) + d_mean2d[:, 1] * fy * inv_z
    d_t[:, 2] = (
        d_jac[:, 0, 0] * (-fx * inv_z2)
        + d_jac[:, 1, 1] * (-fy * inv_z2)
        + d_jac[:, 0, 2] * (2 * fx * x * inv_z2 * inv_z)
        + d_jac[:, 1, 2] * (2 * fy * y * inv_z2 * inv_z)
        - d_mean2d[:, 0] * fx * x * inv_z2
        - d_mean2d[:, 1] * fy * y * inv_z2
    )
    d_pos = d_t @ rot_w2c  # R^T d_t, rows of rot_w2c are camera axes

    # Color chain: clamp gate, SH coefficients, and view direction.
    gate = prep.color_raw > 0.0
    d_col = np.where(gate, d_color, 0.0)
    d_sh = prep.basis[:, :, None] * d_col[:, None, :]
    sh = gaussians.sh_coeffs[vis].astype(np.float64)
    d_dir = _sh_direction_gradient(sh, prep.dir_hat, d_col)
    d_pos += _normalize_vjp(prep.view_dir, d_dir)

    # Opacity chain through the logistic.
    o = prep.opacity
    d_logit = o * (1.0 - o) * d_opacity

    # Covariance chain: Sigma3 = M M^T, M = R diag(s), s = exp(log_scales).
    d_m = (d_sigma3 + np.swapaxes(d_sigma3, 1, 2)) @ prep.m_mat
    d_log_scales = prep.scales * np.einsum("vrk,vrk->vk", prep.rot, d_m)
    d_rot_mat = d_m * prep.scales[:, None, :]
    d_qhat = _rotation_quaternion_vjp(prep.q_hat, d_rot_mat)
    q = gaussians.rotations[vis].astype(np.float64)
    d_q = _normalize_vjp(q, d_qhat)

    out.positions[vis] = d_pos
    out.rotations[vis] = d_q
    out.log_scales[vis] = d_log_scales
    out.opacity_logits[vis] = d_logit
    out.sh_coeffs[vis] = d_sh
    return out


def _normalize_vjp(v: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """Gradient through u = v / |v| given dL/du."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    norm = np.where(norm > 0, norm, 1.0)
    unit = v / norm
    return (d_unit - np.sum(d_unit * unit, axis=-1, keepdims=True) * unit) / norm


def _sh_direction_gradient(
    coeffs: np.ndarray, dir_hat: np.ndarray, d_color: np.ndarray
) -> np.ndarray:
    """dL/d(unit direction) for the degree-3 SH color evaluation at ``dir_hat``."""
    db = _sh_basis_jacobian(dir_hat)
    # dL/ddir_k = sum_{l,c} d_color_c * coeffs_{l,c} * db_{l,k}, contracted
    # over c first: one three-operand einsum is about 14x slower.
    return np.einsum("vlk,vl->vk", db, np.einsum("vlc,vc->vl", coeffs, d_color))


def _sh_basis_jacobian(d: np.ndarray) -> np.ndarray:
    """d basis_l / d (x, y, z) of ``sh_basis`` at directions ``d``; (V, 16, 3)."""
    x, y, z = d[:, 0], d[:, 1], d[:, 2]

    # Entries written one by one into a zeroed array; the zero entries stay.
    db = np.zeros(d.shape[:1] + (SH_COEFFS, 3))
    db[:, 1, 1] = -SH_C1
    db[:, 2, 2] = SH_C1
    db[:, 3, 0] = -SH_C1
    db[:, 4, 0] = SH_C2[0] * y
    db[:, 4, 1] = SH_C2[0] * x
    db[:, 5, 1] = SH_C2[1] * z
    db[:, 5, 2] = SH_C2[1] * y
    db[:, 6, 0] = SH_C2[2] * (-2 * x)
    db[:, 6, 1] = SH_C2[2] * (-2 * y)
    db[:, 6, 2] = SH_C2[2] * (4 * z)
    db[:, 7, 0] = SH_C2[3] * z
    db[:, 7, 2] = SH_C2[3] * x
    db[:, 8, 0] = SH_C2[4] * (2 * x)
    db[:, 8, 1] = SH_C2[4] * (-2 * y)
    db[:, 9, 0] = SH_C3[0] * (6 * x * y)
    db[:, 9, 1] = SH_C3[0] * (3 * x * x - 3 * y * y)
    db[:, 10, 0] = SH_C3[1] * (y * z)
    db[:, 10, 1] = SH_C3[1] * (x * z)
    db[:, 10, 2] = SH_C3[1] * (x * y)
    db[:, 11, 0] = SH_C3[2] * (-2 * x * y)
    db[:, 11, 1] = SH_C3[2] * (4 * z * z - x * x - 3 * y * y)
    db[:, 11, 2] = SH_C3[2] * (8 * y * z)
    db[:, 12, 0] = SH_C3[3] * (-6 * x * z)
    db[:, 12, 1] = SH_C3[3] * (-6 * y * z)
    db[:, 12, 2] = SH_C3[3] * (6 * z * z - 3 * x * x - 3 * y * y)
    db[:, 13, 0] = SH_C3[4] * (4 * z * z - 3 * x * x - y * y)
    db[:, 13, 1] = SH_C3[4] * (-2 * x * y)
    db[:, 13, 2] = SH_C3[4] * (8 * x * z)
    db[:, 14, 0] = SH_C3[5] * (2 * x * z)
    db[:, 14, 1] = SH_C3[5] * (-2 * y * z)
    db[:, 14, 2] = SH_C3[5] * (x * x - y * y)
    db[:, 15, 0] = SH_C3[6] * (3 * x * x - 3 * y * y)
    db[:, 15, 1] = SH_C3[6] * (-6 * x * y)
    return db


def _rotation_quaternion_vjp(q_hat: np.ndarray, d_rot: np.ndarray) -> np.ndarray:
    """dL/d(unit quaternion) given dL/dR for R built by quaternion_to_rotation."""
    w, x, y, z = q_hat[:, 0], q_hat[:, 1], q_hat[:, 2], q_hat[:, 3]
    g = d_rot  # (V, 3, 3)
    d_w = 2 * (
        -z * g[:, 0, 1] + y * g[:, 0, 2] + z * g[:, 1, 0]
        - x * g[:, 1, 2] - y * g[:, 2, 0] + x * g[:, 2, 1]
    )
    d_x = 2 * (
        y * g[:, 0, 1] + z * g[:, 0, 2] + y * g[:, 1, 0]
        - 2 * x * g[:, 1, 1] - w * g[:, 1, 2] + z * g[:, 2, 0]
        + w * g[:, 2, 1] - 2 * x * g[:, 2, 2]
    )
    d_y = 2 * (
        -2 * y * g[:, 0, 0] + x * g[:, 0, 1] + w * g[:, 0, 2]
        + x * g[:, 1, 0] + z * g[:, 1, 2] - w * g[:, 2, 0]
        + z * g[:, 2, 1] - 2 * y * g[:, 2, 2]
    )
    d_z = 2 * (
        -2 * z * g[:, 0, 0] - w * g[:, 0, 1] + x * g[:, 0, 2]
        + w * g[:, 1, 0] - 2 * z * g[:, 1, 1] + y * g[:, 1, 2]
        + x * g[:, 2, 0] + y * g[:, 2, 1]
    )
    return np.stack([d_w, d_x, d_y, d_z], axis=1)
