"""Differentiable CPU splat rasterizer.

Forward: project each 3D Gaussian to an image-plane ellipse (mean, 2x2
covariance via the perspective Jacobian), bin the splats into square tiles of
``RenderConfig.tile_size`` pixels, and alpha-composite them front to back per
pixel. The forward keeps its projection of the visible splats and its
per-tile contributor lists in the ``RenderOutput``; rendered with
``for_backward`` it also keeps each tile's Gaussian falloff and
transmittance. Backward: rebuild each tile's alphas and weights from that
kept state (or, for an output rendered without ``for_backward``, re-run the
same tile routine) and chain the pixel gradients back to every stored
parameter.

All screen-space math runs in float64 regardless of the float32 storage so
analytic gradients match central finite differences tightly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
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

    tile_size: int = 16
    sigma_cutoff: float = 3.0       # contributor bounding box, in sigmas
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
    # scene and camera objects it rendered: the visible-row projection and,
    # per occupied tile keyed (ty, tx), depth-ordered contributor rows into it.
    _prep: _Prepared = field(repr=False)
    _tiles: dict[tuple[int, int], np.ndarray] = field(repr=False)
    _scene: GaussianSet = field(repr=False)
    _camera: Camera = field(repr=False)
    # Per occupied tile, its read-only compositing state; None unless
    # rendered ``for_backward``.
    _kept: dict[tuple[int, int], _TileState] | None = field(default=None, repr=False)

    @property
    def sorted_contributor_lists(self) -> dict[tuple[int, int], np.ndarray]:
        """Depth-ordered original Gaussian indices per occupied tile, keyed (ty, tx)."""
        return {key: self._prep.vis_idx[rows] for key, rows in self._tiles.items()}


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
    """Everything the tile loops and the backward chain read, visible rows only."""

    vis_idx: np.ndarray      # original indices of visible Gaussians
    mean2d: np.ndarray       # (V, 2)
    cov2d: np.ndarray        # (V, 2, 2) dilated
    conic: np.ndarray        # (V, 2, 2) inverse of dilated cov2d
    depth: np.ndarray        # (V,)
    color: np.ndarray        # (V, 3) clamped SH color
    color_raw: np.ndarray    # (V, 3) before the clamp (for gradient gating)
    opacity: np.ndarray      # (V,)
    view_dir: np.ndarray     # (V, 3) unnormalized (position - camera center)
    basis: np.ndarray        # (V, 16)
    # Projection intermediates the backward chain reads (see _Projection).
    t_cam: np.ndarray
    p_mat: np.ndarray
    sigma3: np.ndarray
    m_mat: np.ndarray
    rot: np.ndarray
    scales: np.ndarray
    q_hat: np.ndarray


def _prepare(
    gaussians: GaussianSet, camera: Camera, config: RenderConfig
) -> _Prepared:
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
    color_raw = (
        np.einsum("vk,vkc->vc", basis, gaussians.sh_coeffs[vis_idx].astype(np.float64))
        + 0.5
    )
    color = np.maximum(color_raw, 0.0)
    opacity = activated_opacity(gaussians.opacity_logits[vis_idx].astype(np.float64))

    return _Prepared(
        vis_idx=vis_idx,
        mean2d=full.mean2d[vis_idx],
        cov2d=cov2d,
        conic=conic,
        depth=full.depth[vis_idx],
        color=color,
        color_raw=color_raw,
        opacity=np.atleast_1d(opacity),
        view_dir=dir_raw,
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
# Tile machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _tile_grid(height: int, width: int, tile: int):
    """Per-tile pixel coordinate axes, cached per image geometry."""
    tiles = {}
    for ty in range((height + tile - 1) // tile):
        for tx in range((width + tile - 1) // tile):
            y0, y1 = ty * tile, min((ty + 1) * tile, height)
            x0, x1 = tx * tile, min((tx + 1) * tile, width)
            tiles[(ty, tx)] = (
                slice(y0, y1),
                slice(x0, x1),
                np.arange(x0, x1, dtype=np.float64),
                np.arange(y0, y1, dtype=np.float64),
            )
    return tiles


def _bin_tiles(
    prep: _Prepared, camera: Camera, config: RenderConfig
) -> dict[tuple[int, int], np.ndarray]:
    """Depth-sorted contributor positions (into the visible arrays) per tile."""
    ts = config.tile_size
    n_ty = (camera.height + ts - 1) // ts
    n_tx = (camera.width + ts - 1) // ts
    v = prep.vis_idx.size
    if v == 0:
        return {}

    if math.isfinite(config.sigma_cutoff):
        rx = config.sigma_cutoff * np.sqrt(np.maximum(prep.cov2d[:, 0, 0], 0.0))
        ry = config.sigma_cutoff * np.sqrt(np.maximum(prep.cov2d[:, 1, 1], 0.0))
        tx0 = np.clip(np.floor((prep.mean2d[:, 0] - rx) / ts).astype(np.int64), 0, n_tx - 1)
        tx1 = np.clip(np.floor((prep.mean2d[:, 0] + rx) / ts).astype(np.int64), 0, n_tx - 1)
        ty0 = np.clip(np.floor((prep.mean2d[:, 1] - ry) / ts).astype(np.int64), 0, n_ty - 1)
        ty1 = np.clip(np.floor((prep.mean2d[:, 1] + ry) / ts).astype(np.int64), 0, n_ty - 1)
        keep = ((prep.mean2d[:, 0] + rx) >= 0) & ((prep.mean2d[:, 0] - rx) <= camera.width - 1)
        keep &= ((prep.mean2d[:, 1] + ry) >= 0) & ((prep.mean2d[:, 1] - ry) <= camera.height - 1)
    else:
        tx0 = np.zeros(v, np.int64)
        tx1 = np.full(v, n_tx - 1, np.int64)
        ty0 = np.zeros(v, np.int64)
        ty1 = np.full(v, n_ty - 1, np.int64)
        keep = np.ones(v, bool)

    src = np.flatnonzero(keep)
    if src.size == 0:
        return {}
    wx = tx1[src] - tx0[src] + 1
    wy = ty1[src] - ty0[src] + 1
    counts = wx * wy
    total = int(counts.sum())

    rep = np.repeat(np.arange(src.size), counts)
    offsets = np.arange(total) - np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    pair_vis = src[rep]
    pair_tx = tx0[pair_vis] + offsets % wx[rep]
    pair_ty = ty0[pair_vis] + offsets // wx[rep]
    tile_id = pair_ty * n_tx + pair_tx

    # Primary key tile, then depth, then original index (stable tie-break).
    order = np.lexsort((prep.vis_idx[pair_vis], prep.depth[pair_vis], tile_id))
    tile_sorted = tile_id[order]
    vis_sorted = pair_vis[order]

    bounds = np.flatnonzero(np.diff(tile_sorted)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [tile_sorted.size]))
    tiles = {}
    for s, e in zip(starts, ends):
        tid = int(tile_sorted[s])
        tiles[(tid // n_tx, tid % n_tx)] = vis_sorted[s:e]
    return tiles


class _TileState(NamedTuple):
    """What the backward reads of one tile's forward compositing."""

    gauss: np.ndarray  # (K, P) Gaussian falloff exp(power)
    dxs: np.ndarray    # (K, Wt) pixel x minus each mean
    dys: np.ndarray    # (K, Ht) pixel y minus each mean
    trans: np.ndarray  # (K + 1, P) row i: transmittance in front of contributor i
    pix: np.ndarray    # (P, 3) color before the [0, 1] clip


def _tile_alpha(gauss: np.ndarray, opacity: np.ndarray, config: RenderConfig) -> np.ndarray:
    """(K, P) alphas: falloff times opacity, clamped, small ones skipped."""
    alpha = gauss * opacity[:, None]
    np.minimum(alpha, config.alpha_clamp, out=alpha)
    if config.alpha_skip > 0.0:
        alpha[alpha < config.alpha_skip] = 0.0
    return alpha


def _tile_weights(
    alpha: np.ndarray, trans: np.ndarray, config: RenderConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(K, P) compositing weights and acceptance masks.

    A contributor is dropped (along with everything behind it) as soon as
    accepting it would push the pixel's transmittance below the floor.
    """
    active = trans[1:] >= config.transmittance_floor
    weights = alpha * trans[:-1]
    weights *= active
    return weights, active


def _composite_tile(
    prep: _Prepared,
    members: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    config: RenderConfig,
    bg: np.ndarray,
) -> tuple[_TileState, np.ndarray]:
    """Falloffs, alphas, transmittances, weights and front-to-back
    compositing of one tile's K contributors.

    Returns the tile's state for the backward and its (P,) terminal
    transmittance. The forward calls this for every occupied tile; the
    backward calls it again only for an output rendered without
    ``for_backward``.

    The quadratic form is assembled from per-axis (K, tile) pieces, the only
    full K x P passes being the final broadcast sum and the exp; the K x P
    steps run in place where they can, to keep per-tile temporaries few.
    """
    mx = prep.mean2d[members, 0]
    my = prep.mean2d[members, 1]
    a = prep.conic[members, 0, 0]
    b = prep.conic[members, 0, 1]
    c = prep.conic[members, 1, 1]
    dxs = xs[None, :] - mx[:, None]  # (K, Wt)
    dys = ys[None, :] - my[:, None]  # (K, Ht)
    qx = (-0.5 * a)[:, None] * dxs * dxs
    qy = (-0.5 * c)[:, None] * dys * dys
    bdx = b[:, None] * dxs
    power = bdx[:, None, :] * dys[:, :, None]  # (K, Ht, Wt)
    np.subtract(qy[:, :, None], power, out=power)
    power += qx[:, None, :]
    k = members.size
    gauss = np.exp(power, out=power).reshape(k, -1)
    alpha = _tile_alpha(gauss, prep.opacity[members], config)

    # Row i is the transmittance in front of contributor i; row i + 1 is
    # the transmittance after accepting it.
    trans = np.empty((k + 1, alpha.shape[1]))
    trans[0] = 1.0
    inc = trans[1:]
    np.subtract(1.0, alpha, out=inc)
    np.cumprod(inc, axis=0, out=inc)
    weights, active = _tile_weights(alpha, trans, config)
    # ``active`` is a prefix of each column, so row n_active of ``trans`` is
    # the transmittance behind the last accepted contributor (1 if none).
    t_final = trans[active.sum(axis=0), np.arange(alpha.shape[1])]
    pix = weights.T @ prep.color[members] + t_final[:, None] * bg
    return _TileState(gauss, dxs, dys, trans, pix), t_final


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

    With ``for_backward`` the output keeps each tile's Gaussian falloff and
    transmittance (two K x P arrays per tile), which ``rasterize_backward``
    reads instead of compositing the tile again. Leave it off for renders
    that no backward follows.
    """
    config = config or RenderConfig()
    bg = np.asarray(background, np.float64)
    if bg.shape != (3,):
        raise InvalidParameterError("background must be an RGB triple")

    h, w = camera.height, camera.width
    image = np.tile(bg, (h, w, 1))
    transmittance = np.ones((h, w))

    prep = _prepare(gaussians, camera, config)
    tiles = _bin_tiles(prep, camera, config)
    grid = _tile_grid(h, w, config.tile_size)

    kept = {} if for_backward else None
    for key, members in tiles.items():
        ysl, xsl, xs, ys = grid[key]
        state, t_final = _composite_tile(prep, members, xs, ys, config, bg)
        shape = (ysl.stop - ysl.start, xsl.stop - xsl.start)
        image[ysl, xsl] = state.pix.reshape(shape + (3,))
        transmittance[ysl, xsl] = t_final.reshape(shape)
        if kept is not None:
            for arr in state:
                arr.flags.writeable = False
            kept[key] = state
        # free this tile's K x P arrays before the next tile allocates its own
        del state

    np.clip(image, 0.0, 1.0, out=image)
    return RenderOutput(
        image=image,
        terminal_transmittance=transmittance,
        background=bg,
        config=config,
        _prep=prep,
        _tiles=tiles,
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
    tile lists.
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
    # Per visible row: d_color (3), then the (3, 3) moments of dL/d(alpha)
    # times the Gaussian falloff, summed over the row's pixels in every tile
    # (see _tile_moments). Opacity and conic factors are per-row constants,
    # so they are applied once after the tile loop.
    acc = np.zeros((prep.vis_idx.size, 12))

    kept = render_output._kept
    grid = _tile_grid(camera.height, camera.width, config.tile_size)
    for key, members in render_output._tiles.items():
        ysl, xsl, xs, ys = grid[key]
        gauss, dxs, dys, trans, pix = (
            kept[key] if kept is not None
            else _composite_tile(prep, members, xs, ys, config, bg)[0]
        )
        alpha = _tile_alpha(gauss, prep.opacity[members], config)
        weights, active = _tile_weights(alpha, trans, config)
        t_final = render_output.terminal_transmittance[ysl, xsl].reshape(-1)

        g_pix = d_image[ysl, xsl].reshape(-1, 3)
        g_pix = np.where(pix <= 1.0, g_pix, 0.0)  # adjoint of the [0,1] clip
        k = members.size

        # dL/d alpha_i = T_i (c_i . g) - (suffix_i + bg-term) / (1 - alpha_i),
        # suffix_i being the sum of weights * (c . g) behind contributor i.
        # Rows 0..K-1 of ``behind`` hold weights * (c . g) and row K the
        # background term; one cumsum from the back leaves suffix_i plus the
        # background term in row i + 1.
        e = prep.color[members] @ g_pix.T              # (K, P)
        behind = np.empty((k + 1, e.shape[1]))
        np.multiply(weights, e, out=behind[:k])
        np.multiply(g_pix @ bg, t_final, out=behind[k])
        np.cumsum(behind[::-1], axis=0, out=behind[::-1])
        suffix = behind[1:]
        suffix /= 1.0 - alpha
        d_alpha = np.multiply(trans[:-1], e, out=e)
        d_alpha -= suffix
        # zero where skipped, terminated, or where the clamp bound alpha
        d_alpha *= (alpha > 0) & active & (alpha < config.alpha_clamp)
        d_alpha *= gauss  # dL/d(opacity); dL/d(power) is this times opacity

        mom = _tile_moments(d_alpha.reshape(k, dys.shape[1], dxs.shape[1]), dxs, dys)
        acc[members] += np.concatenate((weights @ g_pix, mom.reshape(k, 9)), axis=1)

    # With power = -(a dx^2 + 2 b dx dy + c dy^2) / 2 and dx = x - mean_x:
    # dL/dmean = opacity * conic @ (sum dx, sum dy) and dL/dconic =
    # -opacity / 2 * [[sum dx^2, sum dx dy], [sum dx dy, sum dy^2]].
    mom = acc[:, 3:].reshape(-1, 3, 3)
    o = prep.opacity[:, None]
    d_mean2d = o * np.einsum("vij,vj->vi", prep.conic, mom[:, [0, 1], [1, 0]])
    d_conic = np.empty_like(prep.conic)
    d_conic[:, 0, 0] = mom[:, 0, 2]
    d_conic[:, 0, 1] = d_conic[:, 1, 0] = mom[:, 1, 1]
    d_conic[:, 1, 1] = mom[:, 2, 0]
    d_conic *= -0.5 * o[:, None]
    grads = _chain_to_parameters(
        gaussians, camera, prep, acc[:, :3], mom[:, 0, 0], d_mean2d, d_conic
    )
    norms = np.zeros(gaussians.count)
    norms[prep.vis_idx] = np.linalg.norm(d_mean2d, axis=1)
    return grads, norms


def _tile_moments(grad: np.ndarray, dxs: np.ndarray, dys: np.ndarray) -> np.ndarray:
    """(K, 3, 3) moments ``m[k, i, j] = sum over pixels of grad * dy^i * dx^j``
    of a (K, Ht, Wt) tile array, given the (K, Wt) and (K, Ht) pixel offsets.

    Two batched matmuls with the powers 1, d, d^2 of each offset.
    """
    k, ht, wt = grad.shape
    py = np.empty((k, 3, ht))
    px = np.empty((k, wt, 3))
    py[:, 0] = px[:, :, 0] = 1.0
    py[:, 1] = dys
    px[:, :, 1] = dxs
    np.multiply(dys, dys, out=py[:, 2])
    np.multiply(dxs, dxs, out=px[:, :, 2])
    return py @ grad @ px


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
    d_dir = _sh_direction_gradient(
        gaussians.sh_coeffs[vis].astype(np.float64), prep.view_dir, d_col
    )
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
    coeffs: np.ndarray, dir_raw: np.ndarray, d_color: np.ndarray
) -> np.ndarray:
    """dL/d(unit direction) for the degree-3 SH color evaluation."""
    norm = np.linalg.norm(dir_raw, axis=1, keepdims=True)
    db = _sh_basis_jacobian(dir_raw / np.where(norm > 0, norm, 1.0))
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
