"""Scene serialization, image files, manifests, and synthetic data."""

import math

import numpy as np
import pytest

from splatrim.core import GaussianSet
from splatrim.errors import DatasetError
from splatrim.metrics import model_size_bytes, psnr
from splatrim.render import rasterize
from splatrim.sceneio import (
    BYTES_PER_VERTEX,
    ManifestEntry,
    PlyBodyError,
    PlyHeaderError,
    PlySchemaError,
    load_dataset,
    make_synthetic,
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
        return ManifestEntry(
            image_path=rel, width=8, height=8, fx=10.0, fy=10.0, cx=3.5, cy=3.5,
            world_to_camera=np.eye(4), split=split,
        )

    def test_round_trip(self, tmp_path):
        entries = [self.entry("a.ppm"), self.entry("b.ppm", "test")]
        path = tmp_path / "manifest.txt"
        write_manifest(entries, path)
        back = read_manifest(path)
        assert [e.image_path for e in back] == ["a.ppm", "b.ppm"]
        assert [e.split for e in back] == ["train", "test"]
        np.testing.assert_array_equal(back[0].world_to_camera, np.eye(4))

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
