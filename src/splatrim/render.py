"""Differentiable CPU splat rasterizer.

Forward: ``project`` maps each 3D Gaussian to an image-plane ellipse (mean,
2x2 covariance via the perspective Jacobian) in one ``Projected2D`` record,
which also holds the intermediates the backward chains through; the render
keeps its visible rows and alpha-composites them front to back over (splat,
pixel) pairs, built and composited in chunks of whole pixel rows. A splat
reaches a pixel if and only if the pixel centre lies inside its cutoff
ellipse, where ``-d^T conic d / 2 >= -sigma_cutoff**2 / 2`` (every pixel
under ``RenderConfig.exact()``); ``RenderConfig.tile_size`` affects nothing.
Rendered with ``for_backward``, the output keeps each chunk's pair state.
Backward: from that state (or the chunk built once more), reversed per-pixel
scans give the suffix sums and per-splat sums over the pairs chain the pixel
gradients back to every stored parameter, through the kept projection rows.

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
        if not self.sigma_cutoff > 0:
            raise InvalidParameterError("sigma_cutoff must be positive")

    @staticmethod
    def exact() -> "RenderConfig":
        """No spatial cut-off, no skips, no early termination."""
        return RenderConfig(
            sigma_cutoff=math.inf, alpha_skip=0.0, transmittance_floor=0.0
        )


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


class Projected2D(NamedTuple):
    """Screen-space projection of every Gaussian (struct of arrays): the four
    public fields, then the intermediates the backward chains through."""

    mean2d: np.ndarray   # (N, 2) pixels
    cov2d: np.ndarray    # (N, 2, 2) pixels^2, low-pass dilated
    depth: np.ndarray    # (N,) camera-space z
    visible: np.ndarray  # (N,) bool
    det: np.ndarray      # (N,) det(cov2d)
    t_cam: np.ndarray    # (N, 3) camera-space position
    p_mat: np.ndarray    # (N, 2, 3) J @ W_rot
    sigma3: np.ndarray   # (N, 3, 3) world covariance M M^T
    m_mat: np.ndarray    # (N, 3, 3) R diag(s)
    rot: np.ndarray      # (N, 3, 3)
    scales: np.ndarray   # (N, 3)
    q_hat: np.ndarray    # (N, 4) unit quaternion
    q_norm: np.ndarray   # (N,) |q| of the stored quaternion, 1 where it is 0


def project(
    gaussians: GaussianSet, camera: Camera, config: RenderConfig | None = None
) -> Projected2D:
    """Screen-space means, dilated 2D covariances, depths, and culling flags."""
    config = config or RenderConfig()
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
    q_norm = np.where(q_norm > 0, q_norm, 1.0)
    q_hat = q / q_norm[:, None]
    rot = quaternion_to_rotation(q_hat)
    scales = np.exp(gaussians.log_scales.astype(np.float64))
    m_mat = rot * scales[:, None, :]
    sigma3 = m_mat @ np.swapaxes(m_mat, 1, 2)

    jac = np.zeros((n, 2, 3))
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
    # than sigma_cutoff sigmas outside the image bounds (never at an
    # infinite cutoff, which would multiply inf by a zero variance).
    visible = in_front & (det > 0)
    if math.isfinite(config.sigma_cutoff):
        margin_x = config.sigma_cutoff * np.sqrt(np.maximum(cov2d[:, 0, 0], 0.0))
        margin_y = config.sigma_cutoff * np.sqrt(np.maximum(cov2d[:, 1, 1], 0.0))
        visible &= (
            (mean2d[:, 0] >= -margin_x)
            & (mean2d[:, 0] <= camera.width - 1 + margin_x)
            & (mean2d[:, 1] >= -margin_y)
            & (mean2d[:, 1] <= camera.height - 1 + margin_y)
        )

    mean2d[~in_front] = 0.0
    cov2d[~in_front] = 0.0

    return Projected2D(
        mean2d, cov2d, z, visible, det, t_cam, p_mat, sigma3, m_mat, rot, scales, q_hat,
        q_norm,
    )


@dataclass
class _Prepared:
    """Everything the pair chunks and the backward chain read, visible rows only."""

    vis_idx: np.ndarray      # original indices of visible Gaussians
    front: np.ndarray        # visible rows front to back, by (depth, index)
    proj: Projected2D        # the projection's visible rows
    conic: np.ndarray        # (V, 2, 2) inverse of dilated cov2d
    color: np.ndarray        # (V, 3) clamped SH color
    color_raw: np.ndarray    # (V, 3) before the clamp (for gradient gating)
    opacity: np.ndarray      # (V,)
    dir_hat: np.ndarray      # (V, 3) unit view direction (position - camera center)
    dir_len: np.ndarray      # (V,) its length before the normalization, 1 where 0
    basis: np.ndarray        # (V, 16)


def _prepare(gaussians: GaussianSet, camera: Camera, config: RenderConfig) -> _Prepared:
    full = project(gaussians, camera, config)
    vis_idx = np.flatnonzero(full.visible)
    dir_hat = gaussians.positions[vis_idx].astype(np.float64) - camera.center
    dir_len = np.linalg.norm(dir_hat, axis=1)
    dir_len = np.where(dir_len > 0, dir_len, 1.0)
    dir_hat /= dir_len[:, None]
    basis = sh_basis(dir_hat)
    sh = gaussians.sh_coeffs[vis_idx].astype(np.float64)
    color_raw = np.einsum("vk,vkc->vc", basis, sh) + 0.5
    del sh
    color = np.maximum(color_raw, 0.0)
    opacity = activated_opacity(gaussians.opacity_logits[vis_idx].astype(np.float64))
    # Gathered after the colour temporaries, and the all-row record freed at
    # once, so the two never hold memory together.
    proj = Projected2D._make(a[vis_idx] for a in full)
    del full
    cov2d, det = proj.cov2d, proj.det
    conic = np.empty_like(cov2d)
    conic[:, 0, 0] = cov2d[:, 1, 1] / det
    conic[:, 1, 1] = cov2d[:, 0, 0] / det
    conic[:, 0, 1] = conic[:, 1, 0] = -cov2d[:, 0, 1] / det
    return _Prepared(
        vis_idx=vis_idx,
        front=np.argsort(proj.depth, kind="stable"),
        proj=proj,
        conic=conic,
        color=color,
        color_raw=color_raw,
        opacity=np.atleast_1d(opacity),
        dir_hat=dir_hat,
        dir_len=dir_len,
        basis=basis,
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
        np.stack((prep.proj.mean2d[:, 0], prep.proj.mean2d[:, 1], -0.5 * prep.conic[:, 0, 0],
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
    ry = np.sqrt(np.maximum(s2, 0.0) * np.maximum(prep.proj.cov2d[:, 1, 1].take(prep.front), 0.0))
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
    d_conic = acc[6:9] * (-0.5 * prep.opacity)
    grads = _chain_to_parameters(gaussians, camera, prep, acc[:3], acc[3], d_mean2d, d_conic)
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
    """Chain the per-row gradients to the stored parameters.

    ``d_color`` is (3, V), ``d_opacity`` (V,), ``d_mean2d`` (V, 2), and
    ``d_conic`` (3, V) holds dL/d of the conic entries (0, 0), (0, 1) (each
    of the two off-diagonal entries) and (1, 1). The small matrix products
    are written out by component, each over the (V,) row of an entry:
    batched matmuls on 2x2 and 3x3 matrices pay a call per matrix.
    """
    n, vis = gaussians.count, prep.vis_idx
    if vis.size == 0:
        return ParamGradients.zeros(n)
    proj = prep.proj
    # [i, j] is the (V,) row of entry (i, j), contiguous
    p_mat = np.ascontiguousarray(proj.p_mat.transpose(1, 2, 0))  # (2, 3, V)
    rot = np.ascontiguousarray(proj.rot.transpose(1, 2, 0))      # (3, 3, V)

    # conic C = inv(cov2d), so D = dL/dcov2d = -C G C with G = d_conic.
    a, b, c = prep.conic[:, 0, 0], prep.conic[:, 0, 1], prep.conic[:, 1, 1]
    g00, g01, g11 = -d_conic
    cg0, cg1 = a * g00 + b * g01, a * g01 + b * g11  # first row of -C G
    d00, d01 = a * cg0 + b * cg1, b * cg0 + c * cg1
    d11 = b * (b * g00 + c * g01) + c * (b * g01 + c * g11)

    # cov2d = P Sigma3 P^T with P = J W and Sigma3 = R L R^T, L = diag(s^2).
    # With Z = P R, dL/dSigma3 = R (Z^T D Z) R^T and dL/dP = 2 D Z L R^T.
    pr = p_mat[:, 0, None] * rot[0] + p_mat[:, 1, None] * rot[1] + p_mat[:, 2, None] * rot[2]
    dz = np.stack((d00 * pr[0] + d01 * pr[1], d01 * pr[0] + d11 * pr[1]))  # D Z, (2, 3, V)
    lam2 = proj.scales.T ** 2
    lam2 *= 2.0
    dzl = dz * lam2
    d_p = dzl[:, 0, None] * rot[:, 0] + dzl[:, 1, None] * rot[:, 1] + dzl[:, 2, None] * rot[:, 2]
    rot_w2c = camera.world_to_camera[:3, :3]
    d_jac = np.matmul(rot_w2c, d_p)  # (2, 3, V): dL/dJ = dL/dP W^T

    # Perspective chain: J = [[fx/z, 0, -fx x/z^2], [0, fy/z, -fy y/z^2]] and
    # the mean (fx x/z + cx, fy y/z + cy) both depend on t = (x, y, z).
    x, y, z = proj.t_cam.T
    inv_z = 1.0 / z
    fx_z, fy_z = camera.fx * inv_z, camera.fy * inv_z
    q0, q1 = d_jac[0, 2] * inv_z, d_jac[1, 2] * inv_z
    dm0, dm1 = d_mean2d[:, 0], d_mean2d[:, 1]
    d_t = np.stack((
        fx_z * (dm0 - q0),
        fy_z * (dm1 - q1),
        -inv_z * (
            fx_z * (d_jac[0, 0] + x * (dm0 - 2.0 * q0))
            + fy_z * (d_jac[1, 1] + y * (dm1 - 2.0 * q1))
        ),
    ))
    d_pos = rot_w2c.T @ d_t  # (3, V): R^T d_t, rows of rot_w2c are camera axes

    # Color chain: clamp gate, SH coefficients, and view direction through
    # its normalization.
    d_col = np.where(prep.color_raw > 0.0, d_color.T, 0.0)  # (V, 3)
    d_dir = _sh_direction_gradient(gaussians.sh_coeffs[vis], prep.dir_hat, d_col)
    dir_hat = prep.dir_hat.T
    d_dir -= (d_dir * dir_hat).sum(axis=0) * dir_hat
    d_dir /= prep.dir_len
    d_pos += d_dir

    # Opacity chain through the logistic.
    o = prep.opacity
    d_logit = o * (1.0 - o) * d_opacity

    # Scales and rotation, in the splat's frame: S = Z^T D Z. Scaling axis k
    # gives dL/dlog s_k = 2 s_k^2 S_kk; rotating the splat to R (I + [w]x)
    # gives dL/dw = 2 ((l_y - l_z) S_yz, (l_z - l_x) S_xz, (l_x - l_y) S_xy),
    # and the unit quaternion moves by q (0, w) / 2, orthogonally to q, so the
    # stored one gets dL/dq = 2 q (0, dL/dw) / |q|.
    d_log_scales = lam2 * (pr[0] * dz[0] + pr[1] * dz[1])
    s_yz = pr[0, 1] * dz[0, 2] + pr[1, 1] * dz[1, 2]
    s_xz = pr[0, 0] * dz[0, 2] + pr[1, 0] * dz[1, 2]
    s_xy = pr[0, 0] * dz[0, 1] + pr[1, 0] * dz[1, 1]
    inv_norm2 = 2.0 / proj.q_norm
    gx = (lam2[1] - lam2[2]) * s_yz * inv_norm2
    gy = (lam2[2] - lam2[0]) * s_xz * inv_norm2
    gz = (lam2[0] - lam2[1]) * s_xy * inv_norm2
    qw, qx, qy, qz = proj.q_hat.T
    d_q = np.stack((
        -(qx * gx + qy * gy + qz * gz),
        qw * gx + qy * gz - qz * gy,
        qw * gy + qz * gx - qx * gz,
        qw * gz + qx * gy - qy * gx,
    ))

    # dL/dSH = basis (x) gated d_color, both factors scattered to every row:
    # culled rows are 0 * 0.
    basis, col = _rows(n, vis, prep.basis), _rows(n, vis, d_col)
    d_sh = np.empty((n, SH_COEFFS, 3))
    for k in range(3):
        np.multiply(basis, col[:, k, None], out=d_sh[:, :, k])
    return ParamGradients(
        positions=_rows(n, vis, d_pos.T),
        rotations=_rows(n, vis, d_q.T),
        log_scales=_rows(n, vis, d_log_scales.T),
        opacity_logits=_rows(n, vis, d_logit),
        sh_coeffs=d_sh,
    )


def _rows(n: int, vis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``n`` rows of zeros with ``values`` at rows ``vis``."""
    full = np.zeros((n,) + values.shape[1:])
    full[vis] = values
    return full


def _sh_direction_gradient(
    coeffs: np.ndarray, dir_hat: np.ndarray, d_color: np.ndarray
) -> np.ndarray:
    """dL/d(unit direction), (3, V), of the degree-3 SH color at ``dir_hat``
    (V, 3), for coefficients (V, 16, 3) of any float dtype and d_color (V, 3).

    The coefficients are contracted with d_color into one weight per basis
    function; each weight then multiplies the nonzero partial derivatives of
    ``sh_basis``, summed per monomial of the direction."""
    w = coeffs[:, :, 0].T * d_color[:, 0]  # (16, V)
    w += coeffs[:, :, 1].T * d_color[:, 1]
    w += coeffs[:, :, 2].T * d_color[:, 2]
    x, y, z = dir_hat.T
    xx, yy, zz, xy, yz, xz = x * x, y * y, z * z, x * y, y * z, x * z
    xx_yy = xx - yy
    # band 1: -C1 y, C1 z, -C1 x
    g = np.stack((-SH_C1 * w[3], -SH_C1 * w[1], SH_C1 * w[2]))
    # band 2: xy, yz, 2zz - xx - yy, xz, xx - yy
    w4, w5, w7 = SH_C2[0] * w[4], SH_C2[1] * w[5], SH_C2[3] * w[7]
    w6, w8 = (2.0 * SH_C2[2]) * w[6], (2.0 * SH_C2[4]) * w[8]
    g[0] += x * (w8 - w6) + y * w4 + z * w7
    g[1] += x * w4 - y * (w6 + w8) + z * w5
    g[2] += x * w7 + y * w5 + z * (2.0 * w6)
    # band 3: y (3xx - yy), xyz, y (4zz - xx - yy), z (2zz - 3xx - 3yy),
    # x (4zz - xx - yy), z (xx - yy), x (xx - 3yy)
    w9, w10, w11, w12, w13, w14, w15 = (k * w[9 + i] for i, k in enumerate(SH_C3))
    g[0] += (
        xy * (6.0 * w9 - 2.0 * w11) + yz * w10 + xz * (2.0 * w14 - 6.0 * w12)
        + (3.0 * xx_yy) * w15 + (4.0 * zz - 3.0 * xx - yy) * w13
    )
    g[1] += (
        (3.0 * xx_yy) * w9 + xz * w10 + (4.0 * zz - xx - 3.0 * yy) * w11
        - yz * (6.0 * w12 + 2.0 * w14) - xy * (2.0 * w13 + 6.0 * w15)
    )
    g[2] += (
        xy * w10 + yz * (8.0 * w11) + xz * (8.0 * w13)
        + (6.0 * zz - 3.0 * xx - 3.0 * yy) * w12 + xx_yy * w14
    )
    return g
