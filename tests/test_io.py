"""Scene serialization, image files, manifests, and synthetic data."""

import builtins
import errno
import math
import re

import numpy as np
import pytest

from splatrim.core import Camera, GaussianSet
from splatrim.errors import DatasetError, InvalidParameterError, SplatError
from splatrim.metrics import model_size_bytes, psnr
from splatrim import sceneio
from splatrim.render import rasterize
from splatrim.sceneio import (
    BYTES_PER_VERTEX,
    FLOATS_PER_VERTEX,
    PLY_PROPERTIES,
    ManifestEntry,
    PlyBodyError,
    PlyHeaderError,
    PlySchemaError,
    load_dataset,
    make_synthetic,
    perturb_scene,
    ply_header_bytes,
    quantize_unit_to_u8,
    read_manifest,
    read_ply,
    read_ppm,
    write_manifest,
    write_ply,
    write_ppm,
)
from tests.test_render import random_scene


class TestPlyRoundTrip:
    def test_round_trip_bitwise(self, tmp_path):
        g = random_scene(0, 25)
        path = tmp_path / "scene.ply"
        write_ply(g, path)
        back = read_ply(path)
        assert back.count == 25
        for name in ("positions", "log_scales", "opacity_logits", "sh_coeffs"):
            np.testing.assert_array_equal(
                getattr(g, name).view(np.uint32), getattr(back, name).view(np.uint32)
            )
        # raw quaternions preserved verbatim; in-memory copy normalized
        np.testing.assert_array_equal(
            g.rotations.view(np.uint32), back.rotations_raw.view(np.uint32)
        )
        np.testing.assert_allclose(np.linalg.norm(back.rotations, axis=1), 1.0, atol=1e-6)

    def test_write_read_write_idempotent(self, tmp_path):
        g = random_scene(1, 10)
        first = tmp_path / "a.ply"
        second = tmp_path / "b.ply"
        write_ply(g, first)
        write_ply(read_ply(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_unnormalized_rotations_survive_passthrough(self, tmp_path):
        g = random_scene(2, 5)
        raw = (g.rotations * 3.7).astype(np.float32)
        g = GaussianSet(
            positions=g.positions,
            rotations=g.rotations,
            log_scales=g.log_scales,
            opacity_logits=g.opacity_logits,
            sh_coeffs=g.sh_coeffs,
            rotations_raw=raw,
        )
        first = tmp_path / "a.ply"
        second = tmp_path / "b.ply"
        write_ply(g, first)
        loaded = read_ply(first)
        np.testing.assert_array_equal(loaded.rotations_raw, raw)
        write_ply(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_scene(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(GaussianSet.empty(), path)
        assert path.read_bytes() == ply_header_bytes(0)
        assert read_ply(path).count == 0

    def test_body_size(self, tmp_path):
        g = random_scene(3, 1)
        path = tmp_path / "one.ply"
        write_ply(g, path)
        assert len(path.read_bytes()) == len(ply_header_bytes(1)) + 248
        assert BYTES_PER_VERTEX == 248

    def test_serialized_size_matches_model_size(self, tmp_path):
        for n in (0, 1, 17):
            g = random_scene(4, n) if n else GaussianSet.empty()
            path = tmp_path / f"n{n}.ply"
            write_ply(g, path)
            assert len(path.read_bytes()) == model_size_bytes(g)


class TestPlyLayout:
    @pytest.mark.parametrize("n", [0, 1, 17])
    def test_columns_follow_ply_properties(self, tmp_path, n):
        # decoded apart from read_ply, so a change that alters the writer and
        # the reader alike still fails here
        rng = np.random.default_rng(n)
        sh = (1.0 + np.arange(n * 48, dtype=np.float32)).reshape(n, 16, 3)
        raw = rng.normal(size=(n, 4)).astype(np.float32)
        g = GaussianSet(
            positions=rng.normal(size=(n, 3)).astype(np.float32),
            rotations=np.zeros((n, 4), np.float32),
            log_scales=rng.normal(size=(n, 3)).astype(np.float32),
            opacity_logits=rng.normal(size=n).astype(np.float32),
            sh_coeffs=sh,
            rotations_raw=raw,
        )
        path = tmp_path / "layout.ply"
        write_ply(g, path)
        data = path.read_bytes()
        header = ply_header_bytes(n)
        assert data.startswith(header)
        body = np.frombuffer(data, "<f4", offset=len(header)).reshape(n, FLOATS_PER_VERTEX)
        column = {name: body[:, i] for i, name in enumerate(PLY_PROPERTIES)}
        assert len(column) == FLOATS_PER_VERTEX
        expected = {}
        for i, axis in enumerate("xyz"):
            expected[axis] = g.positions[:, i]
            expected[f"n{axis}"] = np.zeros(n, np.float32)
            expected[f"scale_{i}"] = g.log_scales[:, i]
        for c in range(3):
            expected[f"f_dc_{c}"] = sh[:, 0, c]
            for j in range(15):
                expected[f"f_rest_{15 * c + j}"] = sh[:, 1 + j, c]
        expected["opacity"] = g.opacity_logits
        for i in range(4):
            expected[f"rot_{i}"] = raw[:, i]
        assert expected.keys() == column.keys()
        for name in PLY_PROPERTIES:
            assert column[name].tobytes() == expected[name].tobytes(), name


class TestPlyErrors:
    def test_missing_property(self, tmp_path):
        g = random_scene(5, 2)
        path = tmp_path / "bad.ply"
        write_ply(g, path)
        data = path.read_bytes().replace(b"property float opacity\n", b"")
        path.write_bytes(data)
        with pytest.raises(PlySchemaError, match="opacity"):
            read_ply(path)

    def test_extra_property_rejected(self, tmp_path):
        g = random_scene(6, 2)
        path = tmp_path / "bad.ply"
        write_ply(g, path)
        data = path.read_bytes().replace(
            b"end_header", b"property float extra_field\nend_header"
        )
        path.write_bytes(data)
        with pytest.raises(PlySchemaError, match="extra_field"):
            read_ply(path)

    def test_not_a_ply(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"OFF\n1 2 3\nend_header\n")
        with pytest.raises(PlyHeaderError):
            read_ply(path)

    def test_missing_end_header(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\n")
        with pytest.raises(PlyHeaderError):
            read_ply(path)

    def test_wrong_format_line(self, tmp_path):
        g = random_scene(7, 1)
        path = tmp_path / "bad.ply"
        write_ply(g, path)
        data = path.read_bytes().replace(b"binary_little_endian", b"ascii_something00")
        path.write_bytes(data)
        with pytest.raises(PlyHeaderError):
            read_ply(path)

    def test_truncated_body(self, tmp_path):
        g = random_scene(8, 3)
        path = tmp_path / "bad.ply"
        write_ply(g, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(PlyBodyError) as err:
            read_ply(path)
        assert err.value.offset == len(data) - 10

    def test_trailing_bytes(self, tmp_path):
        g = random_scene(9, 3)
        path = tmp_path / "bad.ply"
        write_ply(g, path)
        path.write_bytes(path.read_bytes() + b"????")
        with pytest.raises(PlyBodyError):
            read_ply(path)

    @pytest.mark.parametrize(
        "prop, value", [("x", np.nan), ("opacity", np.inf), ("rot_3", -np.inf)]
    )
    def test_non_finite_value_rejected(self, tmp_path, prop, value):
        g = random_scene(10, 4)
        path = tmp_path / "bad.ply"
        write_ply(g, path)
        raw = bytearray(path.read_bytes())
        column = PLY_PROPERTIES.index(prop)
        offset = len(ply_header_bytes(4)) + (2 * FLOATS_PER_VERTEX + column) * 4
        raw[offset : offset + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(PlyBodyError, match=f"vertex 2: property '{prop}'") as err:
            read_ply(path)
        assert err.value.offset == offset

    def test_non_finite_normal_ignored(self, tmp_path):
        # the normals are not scene parameters; read_ply never uses them
        g = random_scene(11, 3)
        path = tmp_path / "normals.ply"
        write_ply(g, path)
        raw = bytearray(path.read_bytes())
        offset = len(ply_header_bytes(3)) + (FLOATS_PER_VERTEX + 4) * 4
        raw[offset : offset + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        np.testing.assert_array_equal(read_ply(path).positions, g.positions)

    def test_errors_carry_offsets(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"nope\nend_header\n")
        with pytest.raises(PlyHeaderError) as err:
            read_ply(path)
        assert isinstance(err.value.offset, int)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (12, 9, 3))
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        back = read_ppm(path)
        np.testing.assert_array_equal(quantize_unit_to_u8(img), quantize_unit_to_u8(back))
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_header_layout(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(np.zeros((4, 6, 3)), path)
        assert path.read_bytes().startswith(b"P6\n6 4\n255\n")

    def test_out_of_range_clipped(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(np.array([[[2.0, -1.0, 0.5]]]), path)
        back = read_ppm(path)
        np.testing.assert_allclose(back[0, 0], [1.0, 0.0, 0.5], atol=0.5 / 255)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n4 ")
        with pytest.raises(DatasetError, match="truncated"):
            read_ppm(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\nfour four\n255\n" + b"\x00" * 48)
        with pytest.raises(DatasetError, match="non-numeric"):
            read_ppm(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(np.zeros((4, 6, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(DatasetError, match="img.ppm: 2 trailing bytes"):
            read_ppm(path)

    @pytest.mark.parametrize("dims", [b"0 4", b"6 0", b"0 0"])
    def test_zero_dimension_rejected(self, tmp_path, dims):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n" + dims + b"\n255\n")
        with pytest.raises(DatasetError, match="img.ppm: PPM dimensions .* positive"):
            read_ppm(path)


class TestManifest:
    def entry(self, rel, split="train"):
        camera = Camera(np.eye(4), fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
        return ManifestEntry(rel, camera, split)

    def test_round_trip(self, tmp_path):
        entries = [self.entry("a.ppm"), self.entry("b.ppm", "test")]
        path = tmp_path / "manifest.txt"
        write_manifest(entries, path)
        back = read_manifest(path)
        assert [e.image_path for e in back] == ["a.ppm", "b.ppm"]
        assert [e.split for e in back] == ["train", "test"]
        np.testing.assert_array_equal(back[0].camera.world_to_camera, np.eye(4))

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(DatasetError, match="dataset empty"):
            load_dataset(path)

    def test_missing_image(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest([self.entry("nope.ppm")], path)
        with pytest.raises(DatasetError, match="missing image"):
            load_dataset(path)

    def test_dimension_mismatch(self, tmp_path):
        write_ppm(np.zeros((4, 4, 3)), tmp_path / "a.ppm")
        write_manifest([self.entry("a.ppm")], tmp_path / "manifest.txt")
        with pytest.raises(DatasetError, match="manifest says"):
            load_dataset(tmp_path / "manifest.txt")

    def test_single_view(self, tmp_path):
        write_ppm(np.zeros((8, 8, 3)), tmp_path / "a.ppm")
        write_manifest([self.entry("a.ppm")], tmp_path / "manifest.txt")
        pairs = load_dataset(tmp_path / "manifest.txt")
        assert len(pairs) == 1
        camera, image = pairs[0]
        assert image.shape == (8, 8, 3)
        assert camera.width == 8

    def test_split_filter(self, tmp_path):
        write_ppm(np.zeros((8, 8, 3)), tmp_path / "a.ppm")
        write_ppm(np.zeros((8, 8, 3)), tmp_path / "b.ppm")
        write_manifest(
            [self.entry("a.ppm", "train"), self.entry("b.ppm", "test")],
            tmp_path / "manifest.txt",
        )
        assert len(load_dataset(tmp_path / "manifest.txt", split="train")) == 1
        assert len(load_dataset(tmp_path / "manifest.txt", split="test")) == 1
        assert len(load_dataset(tmp_path / "manifest.txt")) == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("a.ppm 8 8\n")
        with pytest.raises(DatasetError, match="24 fields"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "column, value, field",
        [(2, "x", "height"), (3, "nan", "fx"), (5, "inf", "cx"), (10, "1e999", "w2c[3]")],
    )
    def test_bad_number_names_line_and_field(self, tmp_path, column, value, field):
        path = self.two_views_with(tmp_path, column, value)
        with pytest.raises(DatasetError, match=re.escape(f"manifest.txt:3: field {field} ")):
            read_manifest(path)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (3, "-5.0", "focal lengths must be positive"),
            (4, "0.0", "focal lengths must be positive"),
            (1, "0", "image dimensions must be >= 1"),
            (7, "2.0", "world_to_camera rotation is not orthonormal"),
        ],
    )
    def test_bad_camera_names_its_line_before_decoding(
        self, tmp_path, monkeypatch, column, value, message
    ):
        path = self.two_views_with(tmp_path, column, value)
        for name in ("a.ppm", "b.ppm"):
            write_ppm(np.zeros((8, 8, 3)), tmp_path / name)

        def refuse(*args, **kwargs):
            raise AssertionError("decoded an image before checking every camera")

        monkeypatch.setattr(sceneio, "read_ppm", refuse)
        with pytest.raises(DatasetError, match=re.escape(f"manifest.txt:3: {message}")):
            load_dataset(path)

    def two_views_with(self, tmp_path, column, value):
        """A two-view manifest whose second view has ``value`` in ``column``."""
        path = tmp_path / "manifest.txt"
        write_manifest([self.entry("a.ppm"), self.entry("b.ppm")], path)
        lines = path.read_text().splitlines()
        parts = lines[2].split()
        parts[column] = value
        lines[2] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        # a corrupted byte used to escape as a UnicodeDecodeError traceback
        path = tmp_path / "manifest.txt"
        write_manifest([self.entry("a.ppm"), self.entry("b.ppm")], path)
        data = path.read_bytes()
        second = data.index(b"b.ppm")
        path.write_bytes(data[:second] + b"\xe9" + data[second + 1:])
        with pytest.raises(DatasetError, match=r"manifest.txt:3: byte 0xe9 is not ASCII"):
            read_manifest(path)

    def test_order_stability(self, tmp_path):
        rng = np.random.default_rng(3)
        names = [f"v{i}.ppm" for i in range(5)]
        entries = []
        for i, name in enumerate(names):
            write_ppm(np.full((8, 8, 3), i / 10.0), tmp_path / name)
            entries.append(self.entry(name))
        write_manifest(entries, tmp_path / "manifest.txt")
        pairs = load_dataset(tmp_path / "manifest.txt")
        # manifest order == returned order, checked through the image content
        for i, (_, image) in enumerate(pairs):
            assert abs(image[0, 0, 0] - i / 10.0) < 1e-2


class TestMakeSynthetic:
    def test_determinism(self, tmp_path):
        s1, m1 = make_synthetic(tmp_path / "a", seed=3, n_gaussians=40, n_views=4, image_size=24)
        s2, m2 = make_synthetic(tmp_path / "b", seed=3, n_gaussians=40, n_views=4, image_size=24)
        np.testing.assert_array_equal(s1.positions, s2.positions)
        np.testing.assert_array_equal(s1.opacity_logits, s2.opacity_logits)
        for k in range(4):
            a = (tmp_path / "a" / "images" / f"view_{k:03d}.ppm").read_bytes()
            b = (tmp_path / "b" / "images" / f"view_{k:03d}.ppm").read_bytes()
            assert a == b

    def test_view_count_and_size(self, tmp_path):
        _, manifest = make_synthetic(tmp_path, seed=0, n_gaussians=30, n_views=8, image_size=64)
        pairs = load_dataset(manifest)
        assert len(pairs) == 8
        for camera, image in pairs:
            assert image.shape == (64, 64, 3)

    def test_train_test_split_present(self, tmp_path):
        _, manifest = make_synthetic(tmp_path, seed=0, n_gaussians=20, n_views=8, image_size=24)
        entries = read_manifest(manifest)
        splits = [e.split for e in entries]
        assert splits.count("test") == 2
        assert splits.count("train") == 6

    def test_rendered_targets_self_consistent(self, tmp_path):
        # re-rendering the saved scene reproduces the stored images exactly
        # in quantized space, so the quantized-space PSNR is the inf sentinel
        scene, manifest = make_synthetic(tmp_path, seed=5, n_gaussians=50, n_views=4, image_size=32)
        loaded = read_ply(tmp_path / "scene.ply")
        for camera, target in load_dataset(manifest):
            image = rasterize(loaded, camera, np.zeros(3)).image
            requantized = quantize_unit_to_u8(image).astype(np.float64) / 255.0
            assert math.isinf(psnr(requantized, target))

    def test_positions_inside_unit_cube(self, tmp_path):
        scene, _ = make_synthetic(tmp_path, seed=1, n_gaussians=100, n_views=2, image_size=16)
        assert np.all(np.abs(scene.positions) <= 0.5)

    def test_negative_seed_rejected_before_writing(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
            make_synthetic(tmp_path / "out", seed=-1, n_gaussians=10, n_views=2, image_size=8)
        assert not (tmp_path / "out").exists()

    def test_negative_perturbation_seed_rejected(self):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -2"):
            perturb_scene(random_scene(0, 3), seed=-2)


def corruptions(data: bytes, rng: np.random.Generator, n: int):
    """``n`` seeded corruptions of a valid file: truncations, single-bit
    flips, and short runs of random bytes."""
    for _ in range(n):
        out = bytearray(data)
        kind = rng.integers(3)
        if kind == 0:
            out = out[: rng.integers(len(out))]
        elif kind == 1:
            for pos in rng.integers(len(out), size=rng.integers(1, 4)):
                out[pos] ^= 1 << int(rng.integers(8))
        else:
            start = int(rng.integers(len(out)))
            run = rng.integers(0, 256, size=rng.integers(1, 9), dtype=np.uint8).tobytes()
            out[start:start + len(run)] = run
        yield bytes(out)


class TestFuzz:
    """Seeded corruptions of valid files: a reader either loads the file or
    raises a SplatError, never anything else."""

    @staticmethod
    def check(read, path, variants) -> int:
        failures = 0
        for i, data in enumerate(variants):
            path.write_bytes(data)
            try:
                read(path)
            except SplatError:
                failures += 1
            except Exception as err:  # noqa: BLE001 - the point of the test
                pytest.fail(f"variant {i}: {type(err).__name__}: {err}")
        return failures

    def test_ply(self, tmp_path):
        path = tmp_path / "scene.ply"
        write_ply(random_scene(30, 3), path)
        valid = path.read_bytes()
        rng = np.random.default_rng(30)
        assert self.check(read_ply, path, corruptions(valid, rng, 400)) > 0

    def test_ply_non_finite_values(self, tmp_path):
        path = tmp_path / "scene.ply"
        write_ply(random_scene(31, 3), path)
        valid = path.read_bytes()
        body = len(valid) - 3 * BYTES_PER_VERTEX
        rng = np.random.default_rng(31)
        for value in (np.nan, np.inf, -np.inf):
            for _ in range(20):
                index = int(rng.integers(3 * FLOATS_PER_VERTEX))
                if index % FLOATS_PER_VERTEX in (3, 4, 5):  # the unused normals
                    continue
                data = bytearray(valid)
                data[body + 4 * index: body + 4 * index + 4] = np.float32(value).tobytes()
                path.write_bytes(bytes(data))
                with pytest.raises(PlyBodyError, match="not finite"):
                    read_ply(path)

    def test_ppm(self, tmp_path):
        path = tmp_path / "a.ppm"
        write_ppm(np.random.default_rng(32).random((5, 4, 3)), path)
        valid = path.read_bytes()
        rng = np.random.default_rng(32)
        assert self.check(read_ppm, path, corruptions(valid, rng, 400)) > 0

    def test_manifest(self, tmp_path):
        path = tmp_path / "manifest.txt"
        camera = Camera(np.eye(4), fx=10.0, fy=11.0, cx=3.5, cy=2.5, width=8, height=6)
        entry = ManifestEntry("a.ppm", camera, "train")
        write_manifest([entry, entry], path)
        valid = path.read_bytes()
        rng = np.random.default_rng(33)
        assert self.check(read_manifest, path, corruptions(valid, rng, 400)) > 0

    def test_manifest_non_finite_values(self, tmp_path):
        path = tmp_path / "manifest.txt"
        camera = Camera(np.eye(4), fx=10.0, fy=11.0, cx=3.5, cy=2.5, width=8, height=6)
        entry = ManifestEntry("a.ppm", camera, "train")
        write_manifest([entry], path)
        header, line = path.read_text().splitlines()
        rng = np.random.default_rng(34)
        for value in ("nan", "inf", "-inf", "1e999", "NaN"):
            parts = line.split()
            column = int(rng.integers(1, 23))
            parts[column] = value
            path.write_text(f"{header}\n{' '.join(parts)}\n")
            with pytest.raises(DatasetError, match=f":2: field "):
                read_manifest(path)


class TestAtomicWrite:
    """A write that fails part-way leaves the old file as it was and no
    temporary file behind."""

    class FullDisk:
        """A file whose first write stores half its data, then fails."""

        def __init__(self, f):
            self.f = f

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    WRITERS = {
        "scene.ply": lambda seed, path: write_ply(random_scene(seed, 4), path),
        "a.ppm": lambda seed, path: write_ppm(
            np.random.default_rng(seed).random((4, 5, 3)), path
        ),
        "manifest.txt": lambda seed, path: write_manifest(
            [ManifestEntry("a.ppm", Camera(np.eye(4), 10.0, 10.0, 2.0, 1.5, 5, 4), "train")]
            * seed,
            path,
        ),
    }

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, name):
        path = tmp_path / name
        write = self.WRITERS[name]
        write(1, path)
        old = path.read_bytes()
        monkeypatch.setattr(
            sceneio, "open", lambda *a, **k: self.FullDisk(builtins.open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="No space left"):
            write(2, path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_write_replaces_the_old_file(self, tmp_path, name):
        path = tmp_path / name
        write = self.WRITERS[name]
        write(1, path)
        first = path.read_bytes()
        write(2, path)
        assert path.read_bytes() != first
        assert list(tmp_path.iterdir()) == [path]
