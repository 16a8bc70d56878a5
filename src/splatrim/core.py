"""Scene containers and the shared geometric/activation math.

A scene is a structure-of-arrays of anisotropic 3D Gaussians. Parameters are
stored in their unconstrained optimization space: opacities as logits, axis
scales as logs, rotations as unit quaternions (w, x, y, z). Storage is
float32; math that consumes it is done in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParameterError

# Real spherical harmonics constants, degree 0..3, in the layout used by the
# common splat interchange files (band 1 is ordered -y, +z, -x).
SH_C0 = 0.28209479177387814
SH_C1 = 0.4886025119029199
SH_C2 = (
    1.0925484305920792,
    -1.0925484305920792,
    0.31539156525252005,
    -1.0925484305920792,
    0.5462742152960396,
)
SH_C3 = (
    -0.5900435899266435,
    2.890611442640554,
    -0.4570457994644658,
    0.3731763325901154,
    -0.4570457994644658,
    1.445305721320277,
    -0.5900435899266435,
)

SH_COEFFS = 16  # degree 3
PARAMS_PER_GAUSSIAN = 59  # 3 pos + 4 rot + 3 scale + 1 opacity + 48 SH


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite values")


@dataclass(frozen=True)
class GaussianSet:
    """Structure-of-arrays splat scene.

    ``rotations_raw`` carries the verbatim quaternion values of the file a
    scene was loaded from, so an unmodified scene can be written back
    bit-exactly even though ``rotations`` is kept normalized in memory.
    """

    positions: np.ndarray      # (N, 3) float32, world units
    rotations: np.ndarray      # (N, 4) float32, unit quaternions (w, x, y, z)
    log_scales: np.ndarray     # (N, 3) float32
    opacity_logits: np.ndarray  # (N,) float32
    sh_coeffs: np.ndarray      # (N, 16, 3) float32
    rotations_raw: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.positions.shape[0]
        expected = {
            "positions": (n, 3),
            "rotations": (n, 4),
            "log_scales": (n, 3),
            "opacity_logits": (n,),
            "sh_coeffs": (n, SH_COEFFS, 3),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise InvalidParameterError(
                    f"{name} has shape {arr.shape}, expected {shape}"
                )

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    def activated_opacities(self) -> np.ndarray:
        return activated_opacity(self.opacity_logits.astype(np.float64))

    def with_updates(self, **arrays) -> "GaussianSet":
        """New set with some parameter arrays replaced; drops the raw-file copy."""
        return replace(self, rotations_raw=None, **arrays)

    @staticmethod
    def empty() -> "GaussianSet":
        return GaussianSet(
            positions=np.zeros((0, 3), np.float32),
            rotations=np.zeros((0, 4), np.float32),
            log_scales=np.zeros((0, 3), np.float32),
            opacity_logits=np.zeros((0,), np.float32),
            sh_coeffs=np.zeros((0, SH_COEFFS, 3), np.float32),
        )


@dataclass(frozen=True)
class Camera:
    """Pinhole camera: world-to-camera rigid transform plus pixel intrinsics.

    Camera space looks down +z; a point at camera-space (0, 0, z) projects to
    the principal point (cx, cy). Pixel centers sit on integer coordinates.
    """

    world_to_camera: np.ndarray  # (4, 4) float64
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near_clip: float = 0.1

    def __post_init__(self):
        w2c = np.asarray(self.world_to_camera, np.float64)
        if w2c.shape != (4, 4):
            raise InvalidParameterError("world_to_camera must be 4x4")
        _require_finite("world_to_camera", w2c)
        rot = w2c[:3, :3]
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-6):
            raise InvalidParameterError("world_to_camera rotation is not orthonormal")
        if self.width < 1 or self.height < 1:
            raise InvalidParameterError("image dimensions must be >= 1")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidParameterError("focal lengths must be positive")
        if self.near_clip <= 0:
            raise InvalidParameterError("near_clip must be positive")
        object.__setattr__(self, "world_to_camera", w2c)

    @property
    def rotation(self) -> np.ndarray:
        return self.world_to_camera[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.world_to_camera[:3, 3]

    @property
    def center(self) -> np.ndarray:
        """Camera position in world coordinates."""
        return -self.rotation.T @ self.translation


def normalize_quaternions(q: np.ndarray) -> np.ndarray:
    """Unit-normalize quaternions; zero-norm inputs become the identity."""
    q = np.asarray(q, np.float64)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    safe = np.where(norm > 0, norm, 1.0)
    out = q / safe
    identity = np.zeros_like(out)
    identity[..., 0] = 1.0
    return np.where(norm > 0, out, identity)


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrices from unit quaternions (w, x, y, z); shape (..., 3, 3)."""
    q = np.asarray(q, np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    r = np.empty(q.shape[:-1] + (3, 3), np.float64)
    r[..., 0, 0] = 1 - 2 * (y * y + z * z)
    r[..., 0, 1] = 2 * (x * y - w * z)
    r[..., 0, 2] = 2 * (x * z + w * y)
    r[..., 1, 0] = 2 * (x * y + w * z)
    r[..., 1, 1] = 1 - 2 * (x * x + z * z)
    r[..., 1, 2] = 2 * (y * z - w * x)
    r[..., 2, 0] = 2 * (x * z - w * y)
    r[..., 2, 1] = 2 * (y * z + w * x)
    r[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return r


def covariance_from_rotation_scale(q: np.ndarray, log_scales: np.ndarray) -> np.ndarray:
    """World-space covariance R S S^T R^T with S = diag(exp(log_scales)).

    Accepts a single (4,)/(3,) pair or batched (..., 4)/(..., 3) arrays.
    """
    q = np.asarray(q, np.float64)
    log_scales = np.asarray(log_scales, np.float64)
    _require_finite("quaternion", q)
    _require_finite("log_scales", log_scales)
    rot = quaternion_to_rotation(normalize_quaternions(q))
    scales = np.exp(log_scales)
    m = rot * scales[..., None, :]  # R @ diag(s)
    return m @ np.swapaxes(m, -1, -2)


def activated_opacity(logits: np.ndarray | float) -> np.ndarray | float:
    """Logistic activation mapping stored logits to opacities in (0, 1)."""
    logits = np.asarray(logits, np.float64)
    if not np.all(np.isfinite(logits)):
        raise InvalidParameterError("opacity logit is not finite")
    out = np.empty_like(logits)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    e = np.exp(logits[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def opacity_logit(opacity: np.ndarray | float) -> np.ndarray | float:
    """Inverse of :func:`activated_opacity`."""
    opacity = np.asarray(opacity, np.float64)
    return np.log(opacity) - np.log1p(-opacity)


def sh_basis(view_dir: np.ndarray) -> np.ndarray:
    """Degree-3 real SH basis evaluated at unit directions; shape (..., 16)."""
    d = np.asarray(view_dir, np.float64)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    xx, yy, zz = x * x, y * y, z * z
    xy, yz, xz = x * y, y * z, x * z
    b = np.empty(d.shape[:-1] + (SH_COEFFS,), np.float64)
    b[..., 0] = SH_C0
    b[..., 1] = -SH_C1 * y
    b[..., 2] = SH_C1 * z
    b[..., 3] = -SH_C1 * x
    b[..., 4] = SH_C2[0] * xy
    b[..., 5] = SH_C2[1] * yz
    b[..., 6] = SH_C2[2] * (2 * zz - xx - yy)
    b[..., 7] = SH_C2[3] * xz
    b[..., 8] = SH_C2[4] * (xx - yy)
    b[..., 9] = SH_C3[0] * y * (3 * xx - yy)
    b[..., 10] = SH_C3[1] * xy * z
    b[..., 11] = SH_C3[2] * y * (4 * zz - xx - yy)
    b[..., 12] = SH_C3[3] * z * (2 * zz - 3 * xx - 3 * yy)
    b[..., 13] = SH_C3[4] * x * (4 * zz - xx - yy)
    b[..., 14] = SH_C3[5] * z * (xx - yy)
    b[..., 15] = SH_C3[6] * x * (xx - 3 * yy)
    return b


def sh_to_color(coeffs: np.ndarray, view_dir: np.ndarray) -> np.ndarray:
    """View-dependent color from SH coefficients, clamped below at zero.

    ``coeffs`` is (..., 16, 3); ``view_dir`` must be unit length within 1e-6.
    """
    coeffs = np.asarray(coeffs, np.float64)
    d = np.asarray(view_dir, np.float64)
    norms = np.linalg.norm(d, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= 1e-6):
        raise InvalidParameterError("view_dir must be unit length")
    basis = sh_basis(d)
    raw = np.einsum("...k,...kc->...c", basis, coeffs) + 0.5
    return np.maximum(raw, 0.0)
