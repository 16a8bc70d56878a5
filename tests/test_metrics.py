"""Loss terms, their gradients, and the evaluation metrics."""

import math
import re

import numpy as np
import pytest

from splatrim.errors import InvalidParameterError
from splatrim.metrics import (
    LossConfig,
    compression_ratio,
    dssim_loss,
    l1_loss,
    model_size_bytes,
    psnr,
    ssim,
    training_loss,
)
from splatrim.sceneio import ply_header_bytes


def random_pair(seed, shape=(16, 16, 3)):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, shape), rng.uniform(0, 1, shape)


def finite_difference(fn, image, h=1e-5):
    grad = np.zeros_like(image)
    for idx in np.ndindex(image.shape):
        p = image.copy()
        p[idx] += h
        m = image.copy()
        m[idx] -= h
        grad[idx] = (fn(p) - fn(m)) / (2 * h)
    return grad


class TestL1:
    def test_identical_images(self):
        a, _ = random_pair(0)
        value, grad = l1_loss(a, a)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_constant_offset(self):
        a = np.full((8, 8, 3), 0.4)
        b = np.full((8, 8, 3), 0.5)
        value, _ = l1_loss(a, b)
        assert value == pytest.approx(0.1, abs=1e-12)

    def test_matches_elementwise_oracle(self):
        a, b = random_pair(1, (4, 4, 3))
        value, _ = l1_loss(a, b)
        oracle = sum(abs(x - y) for x, y in zip(a.reshape(-1), b.reshape(-1))) / a.size
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_symmetry(self):
        a, b = random_pair(2)
        assert l1_loss(a, b)[0] == l1_loss(b, a)[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        a, b = random_pair(seed, (6, 6, 3))
        _, grad = l1_loss(a, b)
        fd = finite_difference(lambda img: l1_loss(img, b)[0], a)
        np.testing.assert_allclose(grad, fd, atol=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            l1_loss(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)))


class TestDssim:
    def test_identical_images(self):
        a, _ = random_pair(4)
        value, grad = dssim_loss(a, a)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_negated_pattern_is_positive(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.2, 0.8, (16, 16, 3))
        value, _ = dssim_loss(a, 1.0 - a)
        assert value > 0.0

    def test_range(self):
        for seed in range(5):
            a, b = random_pair(seed)
            value, _ = dssim_loss(a, b)
            assert 0.0 <= value <= 1.0

    def test_self_ssim_is_one(self):
        a, _ = random_pair(6)
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        a, b = random_pair(seed, (16, 16, 3))
        _, grad = dssim_loss(a, b)
        fd = finite_difference(lambda img: dssim_loss(img, b)[0], a, h=1e-5)
        np.testing.assert_allclose(grad, fd, atol=1e-4)

    def test_too_small_image_rejected(self):
        with pytest.raises(InvalidParameterError):
            dssim_loss(np.zeros((8, 8, 3)), np.zeros((8, 8, 3)))

    @pytest.mark.parametrize("fn", [ssim, dssim_loss, training_loss])
    @pytest.mark.parametrize("shape", [(16,), (16, 16), (2, 16, 16, 3)])
    def test_only_hwc_images_accepted(self, fn, shape):
        a, b = random_pair(10, shape)
        with pytest.raises(InvalidParameterError, match=re.escape(f"got shape {shape}")):
            fn(a, b)


class TestTrainingLoss:
    def test_lambda_zero_is_l1(self):
        a, b = random_pair(7)
        cfg = LossConfig(lam=0.0)
        value, grad = training_loss(a, b, cfg)
        l1v, l1g = l1_loss(a, b)
        assert value == l1v
        np.testing.assert_array_equal(grad, l1g)

    def test_lambda_one_is_dssim(self):
        a, b = random_pair(8)
        cfg = LossConfig(lam=1.0)
        value, grad = training_loss(a, b, cfg)
        dv, dg = dssim_loss(a, b)
        assert value == dv
        np.testing.assert_array_equal(grad, dg)

    def test_worked_blend(self):
        # lam = 0.2 with l1 = 0.5 and dssim = 0.25 blends to 0.45
        assert 0.8 * 0.5 + 0.2 * 0.25 == pytest.approx(0.45)
        a, b = random_pair(9)
        cfg = LossConfig(lam=0.2)
        value, _ = training_loss(a, b, cfg)
        l1v, _ = l1_loss(a, b)
        dv, _ = dssim_loss(a, b)
        assert value == pytest.approx(0.8 * l1v + 0.2 * dv, rel=1e-12)

    def test_convex_combination_bounds(self):
        for seed in range(5):
            a, b = random_pair(seed + 20)
            l1v, _ = l1_loss(a, b)
            dv, _ = dssim_loss(a, b)
            for lam in (0.0, 0.2, 0.5, 0.9, 1.0):
                value, _ = training_loss(a, b, LossConfig(lam=lam))
                assert min(l1v, dv) - 1e-12 <= value <= max(l1v, dv) + 1e-12

    def test_invalid_lambda(self):
        with pytest.raises(InvalidParameterError):
            LossConfig(lam=1.5)


class TestPsnr:
    def test_known_mse(self):
        a = np.zeros((10, 10, 3))
        b = np.full((10, 10, 3), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_identical_is_inf(self):
        a, _ = random_pair(10)
        assert math.isinf(psnr(a, a))

    def test_symmetry(self):
        a, b = random_pair(11)
        assert psnr(a, b) == psnr(b, a)


class TestModelSize:
    def test_empty_scene_is_header_only(self):
        assert model_size_bytes(0) == len(ply_header_bytes(0))

    def test_single_gaussian(self):
        assert model_size_bytes(1) == len(ply_header_bytes(1)) + 248

    def test_million_gaussians(self):
        n = 1_000_000
        size = model_size_bytes(n)
        assert size == len(ply_header_bytes(n)) + 248_000_000
        assert size / 1e6 == pytest.approx(236.5, rel=0.05)


class TestCompressionRatio:
    def test_equal_sizes(self):
        assert compression_ratio(100.0, 100.0) == 1.0

    def test_tanks_and_temples_sizes(self):
        assert compression_ratio(435.5, 14.75) == pytest.approx(29.5, abs=0.05)

    def test_mip_nerf_row(self):
        assert compression_ratio(795.263, 20.057) == pytest.approx(39.65, abs=0.01)

    def test_zero_denominator(self):
        with pytest.raises(InvalidParameterError):
            compression_ratio(100.0, 0.0)
