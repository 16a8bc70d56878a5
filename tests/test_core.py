"""Scene containers and the shared geometric/activation math."""

import dataclasses
import math
import re

import numpy as np
import pytest

from splatrim.core import (
    PARAMETERS,
    Camera,
    GaussianSet,
    SH_C0,
    activated_opacity,
    covariance_from_rotation_scale,
    normalize_quaternions,
    quaternion_to_rotation,
    sh_to_color,
)
from splatrim.errors import InvalidParameterError
from splatrim.render import ParamGradients

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def quat_to_matrix_oracle(q):
    """Dense quaternion -> rotation conversion, written out independently."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


class TestCovariance:
    def test_identity(self):
        cov = covariance_from_rotation_scale(IDENTITY_Q, np.zeros(3))
        np.testing.assert_array_equal(cov, np.eye(3))

    def test_axis_scaling(self):
        cov = covariance_from_rotation_scale(IDENTITY_Q, np.array([math.log(2), 0, 0]))
        np.testing.assert_allclose(cov, np.diag([4.0, 1.0, 1.0]), atol=1e-12)

    def test_rotation_about_z(self):
        # 90 degrees about z swaps the stretched axis from x to y
        q = np.array([math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)])
        s = np.array([math.log(2), 0, 0])
        cov = covariance_from_rotation_scale(q, s)
        r = quat_to_matrix_oracle(q)
        expected = r @ np.diag([2.0, 1.0, 1.0]) @ np.diag([2.0, 1.0, 1.0]).T @ r.T
        np.testing.assert_allclose(cov, expected, atol=1e-12)
        np.testing.assert_allclose(cov, np.diag([1.0, 4.0, 1.0]), atol=1e-12)

    def test_matches_dense_oracle_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = rng.normal(size=4)
            s = rng.normal(size=3)
            r = quat_to_matrix_oracle(q)
            sm = np.diag(np.exp(s))
            np.testing.assert_allclose(
                covariance_from_rotation_scale(q, s), r @ sm @ sm.T @ r.T, atol=1e-10
            )

    def test_quaternion_double_cover(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.normal(size=4)
            s = rng.normal(size=3)
            a = covariance_from_rotation_scale(q, s)
            b = covariance_from_rotation_scale(-q, s)
            np.testing.assert_array_equal(a, b)

    def test_eigenvalues_are_squared_scales(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = rng.normal(size=4)
            s = rng.normal(0, 0.5, size=3)
            eig = np.sort(np.linalg.eigvalsh(covariance_from_rotation_scale(q, s)))
            np.testing.assert_allclose(eig, np.sort(np.exp(2 * s)), rtol=1e-5)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(100, 4))
        s = rng.normal(0, 0.5, size=(100, 3))
        cov = covariance_from_rotation_scale(q, s)
        np.testing.assert_allclose(cov, np.swapaxes(cov, -1, -2), atol=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameterError):
            covariance_from_rotation_scale(np.array([np.nan, 0, 0, 0]), np.zeros(3))
        with pytest.raises(InvalidParameterError):
            covariance_from_rotation_scale(IDENTITY_Q, np.array([np.inf, 0, 0]))


class TestActivatedOpacity:
    def test_midpoint(self):
        assert activated_opacity(0.0) == 0.5

    def test_saturation(self):
        assert activated_opacity(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_log3(self):
        assert activated_opacity(math.log(3)) == pytest.approx(0.75, abs=1e-12)

    def test_strictly_increasing(self):
        logits = np.sort(np.random.default_rng(1).uniform(-30, 30, 200))
        values = activated_opacity(logits)
        assert np.all(np.diff(values) > 0)

    def test_open_interval(self):
        # strictly inside (0, 1) across the whole float32 logit range that
        # survives the exp; extreme logits saturate at the float boundary
        values = activated_opacity(np.array([-30.0, -5.0, 5.0, 30.0]))
        assert np.all((values > 0.0) & (values < 1.0))
        assert np.all(np.diff(values) > 0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameterError):
            activated_opacity(float("nan"))


class TestShToColor:
    def test_zero_coefficients_give_gray(self):
        coeffs = np.zeros((16, 3))
        for d in [(0, 0, 1), (1, 0, 0), (0.6, -0.8, 0)]:
            np.testing.assert_array_equal(
                sh_to_color(coeffs, np.array(d, float)), [0.5, 0.5, 0.5]
            )

    def test_dc_band(self):
        coeffs = np.zeros((16, 3))
        coeffs[0] = 0.25 / 0.2820947918
        np.testing.assert_allclose(
            sh_to_color(coeffs, np.array([0.0, 0.0, 1.0])), [0.75] * 3, atol=1e-9
        )

    def test_band1_z_is_odd_in_direction(self):
        coeffs = np.zeros((16, 3))
        coeffs[2] = 0.2  # the band-1 term proportional to z
        up = sh_to_color(coeffs, np.array([0.0, 0.0, 1.0]))
        down = sh_to_color(coeffs, np.array([0.0, 0.0, -1.0]))
        np.testing.assert_allclose(up - 0.5, -(down - 0.5), atol=1e-12)
        assert up[0] > 0.5 > down[0]

    def test_dc_only_is_view_independent(self):
        rng = np.random.default_rng(9)
        coeffs = np.zeros((16, 3))
        coeffs[0] = rng.normal(size=3)
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        colors = np.array([sh_to_color(coeffs, d) for d in dirs])
        for c in colors[1:]:
            np.testing.assert_array_equal(c, colors[0])

    def test_clamped_below_at_zero(self):
        coeffs = np.zeros((16, 3))
        coeffs[0] = -10.0
        np.testing.assert_array_equal(sh_to_color(coeffs, np.array([0.0, 0.0, 1.0])), 0.0)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidParameterError):
            sh_to_color(np.zeros((16, 3)), np.array([0.0, 0.0, 1.5]))


class TestQuaternions:
    def test_normalize_unit_output(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(100, 4))
        norms = np.linalg.norm(normalize_quaternions(q), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_zero_becomes_identity(self):
        np.testing.assert_array_equal(normalize_quaternions(np.zeros(4)), IDENTITY_Q)

    def test_rotation_is_orthonormal(self):
        rng = np.random.default_rng(6)
        q = normalize_quaternions(rng.normal(size=(50, 4)))
        r = quaternion_to_rotation(q)
        eye = np.broadcast_to(np.eye(3), r.shape)
        np.testing.assert_allclose(r @ np.swapaxes(r, -1, -2), eye, atol=1e-12)

    @staticmethod
    def linalg_norm_form(q):
        """The ``np.linalg.norm`` form that ``normalize_quaternions`` replaced."""
        q = np.asarray(q, np.float64)
        norm = np.linalg.norm(q, axis=-1, keepdims=True)
        safe = np.where(norm > 0, norm, 1.0)
        out = q / safe
        identity = np.zeros_like(out)
        identity[..., 0] = 1.0
        return np.where(norm > 0, out, identity)

    @pytest.mark.parametrize(
        "shape", [(1, 4), (7, 4), (8, 4), (2000, 4), (100_000, 4), (4,), (2, 3, 4)]
    )
    def test_bitwise_equal_to_linalg_norm_form(self, shape):
        # Adam's rotation update normalizes through this function, so this
        # equality keeps fine-tuning bitwise equal to the linalg.norm form
        rng = np.random.default_rng(shape[0])
        q = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=shape)
        rows = q.reshape(-1, 4)
        if len(rows) >= 7:
            rows[1] = 0.0
            rows[2] = -0.0
            rows[3, 2] = np.nan
            rows[4] = np.nan
            rows[5] = 1e-200  # squares underflow: the norm is zero
        q_before = q.copy()
        out = normalize_quaternions(q)
        assert out.dtype == np.float64 and out.shape == shape
        assert out.tobytes() == self.linalg_norm_form(q).tobytes()
        assert q.tobytes() == q_before.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_input_unchanged(self, dtype):
        # for a float64 input np.asarray would hand back the caller's array
        q = np.random.default_rng(9).normal(size=(40, 4)).astype(dtype)
        q[3] = 0.0
        before = q.copy()
        out = normalize_quaternions(q)
        assert not np.shares_memory(out, q)
        assert q.tobytes() == before.tobytes()


class TestGaussianSet:
    def test_parameter_census(self):
        # 3 position + 4 rotation + 3 scale + 1 opacity + 48 SH = 59
        g = GaussianSet.empty()
        per_gaussian = (
            g.positions.shape[1]
            + g.rotations.shape[1]
            + g.log_scales.shape[1]
            + 1
            + g.sh_coeffs.shape[1] * g.sh_coeffs.shape[2]
        )
        assert per_gaussian == 59

    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            GaussianSet(
                positions=np.zeros((3, 3), np.float32),
                rotations=np.zeros((2, 4), np.float32),
                log_scales=np.zeros((3, 3), np.float32),
                opacity_logits=np.zeros(3, np.float32),
                sh_coeffs=np.zeros((3, 16, 3), np.float32),
            )

    def test_fields_are_the_parameter_table(self):
        fields = [f.name for f in dataclasses.fields(GaussianSet)]
        assert fields == [*PARAMETERS, "rotations_raw"]
        assert [f.name for f in dataclasses.fields(ParamGradients)] == list(PARAMETERS)

    def test_empty_scene_and_zero_gradients_have_the_table_rows(self):
        scene, grads = GaussianSet.empty(), ParamGradients.zeros(3)
        for name, row in PARAMETERS.items():
            assert getattr(scene, name).shape == (0, *row)
            assert getattr(scene, name).dtype == np.float32
            assert getattr(grads, name).shape == (3, *row)
            assert getattr(grads, name).dtype == np.float64
            assert not getattr(grads, name).any()

    @pytest.mark.parametrize("shape", [(1, 4), (3, 3), (4, 4), (3,), (12,), (3, 4, 1)])
    def test_rotations_raw_shape_checked(self, shape):
        # a (1, 4) array used to be accepted and broadcast into every row
        # that write_ply wrote
        arrays = {k: np.zeros((3, *row), np.float32) for k, row in PARAMETERS.items()}
        expected = f"rotations_raw has shape {shape}, expected (3, 4)"
        with pytest.raises(InvalidParameterError, match=re.escape(expected)):
            GaussianSet(**arrays, rotations_raw=np.ones(shape, np.float32))

    @pytest.mark.parametrize("name", list(PARAMETERS))
    def test_shape_error_names_the_array(self, name):
        arrays = {k: np.zeros((3, *row), np.float32) for k, row in PARAMETERS.items()}
        arrays[name] = np.zeros((3, 5), np.float32)
        expected = f"{name} has shape (3, 5), expected {(3, *PARAMETERS[name])}"
        with pytest.raises(InvalidParameterError, match=re.escape(expected)):
            GaussianSet(**arrays)

    def test_activated_opacities_in_open_interval(self):
        rng = np.random.default_rng(12)
        n = 50
        g = GaussianSet(
            positions=np.zeros((n, 3), np.float32),
            rotations=np.tile(IDENTITY_Q.astype(np.float32), (n, 1)),
            log_scales=np.zeros((n, 3), np.float32),
            opacity_logits=rng.normal(0, 5, n).astype(np.float32),
            sh_coeffs=np.zeros((n, 16, 3), np.float32),
        )
        op = g.activated_opacities()
        assert np.all((op > 0) & (op < 1))


class TestCamera:
    def test_valid_camera(self):
        cam = Camera(np.eye(4), fx=50, fy=50, cx=31.5, cy=31.5, width=64, height=64)
        np.testing.assert_allclose(cam.center, 0.0, atol=1e-12)

    def test_center_round_trip(self):
        rng = np.random.default_rng(7)
        q = normalize_quaternions(rng.normal(size=4))
        r = quaternion_to_rotation(q)
        pos = rng.normal(size=3)
        w2c = np.eye(4)
        w2c[:3, :3] = r
        w2c[:3, 3] = -r @ pos
        cam = Camera(w2c, fx=50, fy=50, cx=31.5, cy=31.5, width=64, height=64)
        np.testing.assert_allclose(cam.center, pos, atol=1e-12)

    def test_invalid_rotation_rejected(self):
        w2c = np.eye(4)
        w2c[0, 0] = 2.0
        with pytest.raises(InvalidParameterError):
            Camera(w2c, fx=50, fy=50, cx=31.5, cy=31.5, width=64, height=64)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fx": -1.0},
            {"fy": 0.0},
            {"width": 0},
            {"height": 0},
            {"fx": math.nan},
            {"fy": math.inf},
            {"cx": math.inf},
            {"cy": math.nan},
        ],
    )
    def test_invalid_intrinsics_rejected(self, kwargs):
        base = dict(fx=50.0, fy=50.0, cx=31.5, cy=31.5, width=64, height=64)
        base.update(kwargs)
        with pytest.raises(InvalidParameterError):
            Camera(np.eye(4), **base)
