"""Scene serialization and dataset plumbing.

Scenes travel as binary little-endian PLY with the 62-property splat layout
(x y z, three placeholder normals, 3 DC color coefficients, 45 higher-band
coefficients, opacity logit, 3 log scales, 4 quaternion components). Target
images are 8-bit PPM (P6). Datasets are described by a line-oriented text
manifest: one view per line, `#` comments, a trailing train|test flag.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Camera, GaussianSet, SH_C0, normalize_quaternions, seeded_rng
from .errors import DatasetError, InvalidParameterError, SplatError

FLOATS_PER_VERTEX = 62
BYTES_PER_VERTEX = 4 * FLOATS_PER_VERTEX

RING_RADIUS = 4.0              # distance of ``ring_cameras`` from the origin
PERTURB_ROTATION_SIGMA = 0.05  # quaternion noise of ``perturb_scene``

PLY_PROPERTIES = (
    ["x", "y", "z", "nx", "ny", "nz"]
    + [f"f_dc_{i}" for i in range(3)]
    + [f"f_rest_{i}" for i in range(45)]
    + ["opacity"]
    + [f"scale_{i}" for i in range(3)]
    + [f"rot_{i}" for i in range(4)]
)


class PlyError(SplatError, ValueError):
    """A malformed PLY file; ``offset`` locates the fault, in bytes from the start."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class PlyHeaderError(PlyError):
    """The file is not a binary little-endian PLY of the expected shape."""


class PlySchemaError(PlyError):
    """The header parses but declares the wrong properties."""


class PlyBodyError(PlyError):
    """The binary body does not hold exactly the declared vertices."""


@contextmanager
def atomic_write(path, text: bool = False, **kwargs):
    """Open a new file beside ``path`` for writing, and put it in place of
    ``path`` with one ``os.replace`` once the block completes. If the block
    raises, the new file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x" if text else "xb", **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def ply_header_bytes(count: int) -> bytes:
    lines = ["ply", "format binary_little_endian 1.0", f"element vertex {count}"]
    lines += [f"property float {name}" for name in PLY_PROPERTIES]
    lines.append("end_header")
    return ("\n".join(lines) + "\n").encode("ascii")


def write_ply(gaussians: GaussianSet, path) -> None:
    """Serialize a scene; the body is count x 62 little-endian float32."""
    n = gaussians.count
    body = np.zeros((n, FLOATS_PER_VERTEX), dtype="<f4")
    body[:, 0:3] = gaussians.positions
    # normals stay zero
    body[:, 6:9] = gaussians.sh_coeffs[:, 0, :]
    # higher bands are stored channel-major: 15 coefficients for R, then G, B,
    # assigned through a (n, 3, 15) view of the body with no staging copy
    body[:, 9:54].reshape(n, 3, 15)[...] = gaussians.sh_coeffs[:, 1:, :].transpose(0, 2, 1)
    body[:, 54] = gaussians.opacity_logits
    body[:, 55:58] = gaussians.log_scales
    rotations = (
        gaussians.rotations_raw
        if gaussians.rotations_raw is not None
        else gaussians.rotations
    )
    body[:, 58:62] = rotations
    with atomic_write(path) as f:
        f.write(ply_header_bytes(n))
        f.write(body.data)


def read_ply(path) -> GaussianSet:
    """Load a scene, normalizing quaternions in memory.

    The verbatim quaternion values are kept on the returned set so an
    unmodified scene writes back bit-exactly.
    """
    raw = Path(path).read_bytes()
    marker = b"end_header\n"
    end = raw.find(marker)
    if end < 0:
        raise PlyHeaderError("missing end_header", len(raw))
    header = raw[: end + len(marker)]
    body_offset = len(header)
    lines = header.decode("ascii", errors="replace").splitlines()

    offset = 0
    def fail_header(msg):
        raise PlyHeaderError(msg, offset)

    if not lines or lines[0] != "ply":
        fail_header("not a PLY file")
    offset += len(lines[0]) + 1
    if len(lines) < 2 or lines[1] != "format binary_little_endian 1.0":
        fail_header("expected binary little-endian format 1.0")
    offset += len(lines[1]) + 1
    if len(lines) < 3 or not lines[2].startswith("element vertex "):
        fail_header("expected 'element vertex N'")
    try:
        count = int(lines[2].split()[-1])
    except ValueError:
        fail_header("vertex count is not an integer")
    if count < 0:
        fail_header("negative vertex count")
    offset += len(lines[2]) + 1

    props = []
    for line in lines[3:-1]:
        if not line.startswith("property float "):
            raise PlySchemaError(f"unsupported declaration {line!r}", offset)
        props.append(line[len("property float "):])
        offset += len(line) + 1
    if props != PLY_PROPERTIES:
        expected = set(PLY_PROPERTIES)
        got = set(props)
        missing = [p for p in PLY_PROPERTIES if p not in got]
        extra = [p for p in props if p not in expected]
        if missing:
            raise PlySchemaError(f"missing property {missing[0]!r}", offset)
        if extra:
            raise PlySchemaError(f"unexpected property {extra[0]!r}", offset)
        raise PlySchemaError("properties out of order", offset)

    body_len = len(raw) - body_offset
    expected_len = count * BYTES_PER_VERTEX
    if body_len < expected_len:
        raise PlyBodyError(
            f"truncated body: {body_len} bytes for {count} vertices", len(raw)
        )
    if body_len > expected_len:
        raise PlyBodyError(
            f"{body_len - expected_len} trailing bytes after vertex data",
            body_offset + expected_len,
        )

    data = np.frombuffer(
        raw, dtype="<f4", count=count * FLOATS_PER_VERTEX, offset=body_offset
    ).reshape(count, FLOATS_PER_VERTEX)
    # One pass over the body; the unused normals alone do not fail the load.
    if not np.isfinite(data).all():
        bad = ~np.isfinite(data)
        bad[:, 3:6] = False
        if bad.any():
            vertex, column = np.unravel_index(np.argmax(bad), bad.shape)
            raise PlyBodyError(
                f"vertex {vertex}: property {PLY_PROPERTIES[column]!r} is not finite",
                body_offset + (vertex * FLOATS_PER_VERTEX + column) * 4,
            )
    sh = np.empty((count, 16, 3), np.float32)
    sh[:, 0, :] = data[:, 6:9]
    for c in range(3):  # the higher bands, one colour channel at a time
        sh[:, 1:, c] = data[:, 9 + 15 * c : 24 + 15 * c]
    raw_rot = data[:, 58:62].copy()
    return GaussianSet(
        positions=data[:, 0:3].copy(),
        rotations=normalize_quaternions(raw_rot).astype(np.float32),
        log_scales=data[:, 55:58].copy(),
        opacity_logits=data[:, 54].copy(),
        sh_coeffs=sh,
        rotations_raw=raw_rot,
    )


# ---------------------------------------------------------------------------
# PPM images
# ---------------------------------------------------------------------------


def quantize_unit_to_u8(image: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.asarray(image, np.float64) * 255.0), 0, 255).astype(
        np.uint8
    )


def write_ppm(image: np.ndarray, path) -> None:
    """Write a unit-range float image as binary PPM (P6, maxval 255)."""
    data = quantize_unit_to_u8(image)
    if data.ndim != 3 or data.shape[2] != 3:
        raise InvalidParameterError("PPM image must be HxWx3")
    h, w = data.shape[:2]
    with atomic_write(path) as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a unit-range float64 image."""
    raw = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(raw):
            raise DatasetError(f"{path}: truncated PPM header")
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6":
        raise DatasetError(f"{path}: not a P6 PPM")
    try:
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError:
        raise DatasetError(f"{path}: non-numeric PPM header fields") from None
    if maxval != 255:
        raise DatasetError(f"{path}: expected maxval 255, got {maxval}")
    if w <= 0 or h <= 0:
        raise DatasetError(f"{path}: PPM dimensions {w}x{h} must be positive")
    size = w * h * 3
    if len(raw) - pos < size:
        raise DatasetError(f"{path}: truncated pixel data")
    if len(raw) - pos > size:
        raise DatasetError(f"{path}: {len(raw) - pos - size} trailing bytes after the pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=size, offset=pos)
    return pixels.reshape(h, w, 3).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# Dataset manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    image_path: str
    camera: Camera
    split: str  # "train" or "test"


def write_manifest(entries: list[ManifestEntry], path) -> None:
    lines = ["# image width height fx fy cx cy w2c[16 row-major] split"]
    for e in entries:
        cam = e.camera
        floats = (cam.fx, cam.fy, cam.cx, cam.cy, *cam.world_to_camera.reshape(-1))
        lines.append(
            f"{e.image_path} {cam.width} {cam.height} "
            f"{' '.join(repr(float(v)) for v in floats)} {e.split}"
        )
    with atomic_write(path, text=True, encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def read_manifest(path) -> list[ManifestEntry]:
    """Parse a manifest; each line's camera is checked as it is read, and
    every fault is a DatasetError naming ``path:line``."""
    numbers = ["width", "height", "fx", "fy", "cx", "cy"] + [f"w2c[{i}]" for i in range(16)]
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as err:
        lineno = raw.count(b"\n", 0, err.start) + 1
        raise DatasetError(f"{path}:{lineno}: byte {raw[err.start]:#04x} is not ASCII") from None
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        parts = line.split()
        if len(parts) != 24:
            raise DatasetError(f"{where}: expected 24 fields, got {len(parts)}")
        split = parts[23]
        if split not in ("train", "test"):
            raise DatasetError(f"{where}: split must be train or test")
        width, height, fx, fy, cx, cy, *w2c = (
            _manifest_number(parts[i], int if i < 3 else float, where, name)
            for i, name in enumerate(numbers, 1)
        )
        try:
            camera = Camera(np.array(w2c).reshape(4, 4), fx, fy, cx, cy, width, height)
        except InvalidParameterError as err:
            raise DatasetError(f"{where}: {err}") from None
        entries.append(ManifestEntry(parts[0], camera, split))
    return entries


def _manifest_number(text: str, kind, where: str, name: str):
    """One numeric manifest field, or a DatasetError naming its line and field."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        raise DatasetError(f"{where}: field {name} is not a finite {kind.__name__}: {text!r}")
    return value


def load_dataset(manifest_path, split: str | None = None) -> list[tuple[Camera, np.ndarray]]:
    """Decode (camera, unit-range target image) pairs in manifest order."""
    manifest_path = Path(manifest_path)
    entries = read_manifest(manifest_path)
    if split is not None:
        entries = [e for e in entries if e.split == split]
    if not entries:
        where = f" (no {split} views)" if split is not None else ""
        raise DatasetError(f"dataset empty: {manifest_path}{where}")
    pairs = []
    for e in entries:
        img_path = manifest_path.parent / e.image_path
        if not img_path.exists():
            raise DatasetError(f"missing image {img_path}")
        image = read_ppm(img_path)
        cam = e.camera
        if image.shape[:2] != (cam.height, cam.width):
            raise DatasetError(
                f"{img_path}: image is {image.shape[1]}x{image.shape[0]}, "
                f"manifest says {cam.width}x{cam.height}"
            )
        pairs.append((cam, image))
    return pairs


# ---------------------------------------------------------------------------
# Synthetic benchmark scenes
# ---------------------------------------------------------------------------


def _look_at(position: np.ndarray, target: np.ndarray, up: np.ndarray) -> np.ndarray:
    """World-to-camera transform with +z looking from position toward target."""
    fwd = target - position
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, up)
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    w2c = np.eye(4)
    w2c[0, :3] = right
    w2c[1, :3] = down
    w2c[2, :3] = fwd
    w2c[:3, 3] = -w2c[:3, :3] @ position
    return w2c


def ring_cameras(
    n_views: int,
    image_size: int,
    focal_scale: float = 1.4,
) -> list[Camera]:
    """Cameras spaced on a ring around the origin, all looking at it."""
    cams = []
    focal = focal_scale * image_size
    c = (image_size - 1) / 2.0
    for k in range(n_views):
        angle = 2.0 * math.pi * k / n_views
        height = 0.6 * math.sin(2.0 * angle + 0.5)
        pos = np.array([RING_RADIUS * math.cos(angle), RING_RADIUS * math.sin(angle), height])
        cams.append(
            Camera(
                world_to_camera=_look_at(pos, np.zeros(3), np.array([0.0, 0.0, 1.0])),
                fx=focal,
                fy=focal,
                cx=c,
                cy=c,
                width=image_size,
                height=image_size,
            )
        )
    return cams


def random_scene(rng: np.random.Generator, n_gaussians: int) -> GaussianSet:
    """Random splats filling the unit cube centered at the origin."""
    positions = rng.uniform(-0.5, 0.5, (n_gaussians, 3))
    log_scales = rng.normal(math.log(0.03), 0.3, (n_gaussians, 3))
    opacity_logits = rng.normal(1.0, 1.0, n_gaussians)
    quats = normalize_quaternions(rng.normal(0.0, 1.0, (n_gaussians, 4)))
    sh = np.zeros((n_gaussians, 16, 3))
    base_color = rng.uniform(0.0, 1.0, (n_gaussians, 3))
    sh[:, 0, :] = (base_color - 0.5) / SH_C0
    sh[:, 1:, :] = rng.normal(0.0, 0.02, (n_gaussians, 15, 3))
    return GaussianSet(
        positions=positions.astype(np.float32),
        rotations=quats.astype(np.float32),
        log_scales=log_scales.astype(np.float32),
        opacity_logits=opacity_logits.astype(np.float32),
        sh_coeffs=sh.astype(np.float32),
    )


def make_synthetic(
    out_dir,
    seed: int,
    n_gaussians: int = 2000,
    n_views: int = 8,
    image_size: int = 64,
) -> tuple[GaussianSet, Path]:
    """Generate a ground-truth scene plus rendered target views on disk.

    Every 4th view is flagged test. Returns the scene and the manifest path;
    the scene is also written as ``scene.ply`` next to the manifest.
    """
    from .render import rasterize

    if n_gaussians < 1:
        raise InvalidParameterError("n_gaussians must be >= 1")
    if n_views < 2:
        raise InvalidParameterError("n_views must be >= 2")
    rng = seeded_rng(seed)
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    scene = random_scene(rng, n_gaussians)
    cameras = ring_cameras(n_views, image_size)
    background = np.zeros(3)

    entries = []
    for k, cam in enumerate(cameras):
        out = rasterize(scene, cam, background)
        rel = f"images/view_{k:03d}.ppm"
        write_ppm(out.image, out_dir / rel)
        entries.append(ManifestEntry(rel, cam, "test" if k % 4 == 3 else "train"))
    manifest_path = out_dir / "manifest.txt"
    write_manifest(entries, manifest_path)
    write_ply(scene, out_dir / "scene.ply")
    return scene, manifest_path


def perturb_scene(
    scene: GaussianSet,
    seed: int,
    position_sigma: float = 0.01,
    scale_sigma: float = 0.1,
    opacity_sigma: float = 0.4,
    color_sigma: float = 0.15,
) -> GaussianSet:
    """Noisy copy of a scene, the starting point the fine-tuner must recover from."""
    rng = seeded_rng(seed)
    n = scene.count
    quats = scene.rotations.astype(np.float64) + rng.normal(0, PERTURB_ROTATION_SIGMA, (n, 4))
    sh = scene.sh_coeffs.astype(np.float64).copy()
    sh[:, 0, :] += rng.normal(0, color_sigma, (n, 3))
    sh[:, 1:, :] += rng.normal(0, color_sigma / 10.0, (n, 15, 3))
    logits = scene.opacity_logits.astype(np.float64) + rng.normal(0, opacity_sigma, n)
    return GaussianSet(
        positions=(
            scene.positions.astype(np.float64) + rng.normal(0, position_sigma, (n, 3))
        ).astype(np.float32),
        rotations=normalize_quaternions(quats).astype(np.float32),
        log_scales=(
            scene.log_scales.astype(np.float64) + rng.normal(0, scale_sigma, (n, 3))
        ).astype(np.float32),
        opacity_logits=logits.astype(np.float32),
        sh_coeffs=sh.astype(np.float32),
    )
