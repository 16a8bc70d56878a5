"""Analytic gradients against central finite differences.

Targets are built as a shifted copy of the base render so the L1 term keeps
a constant sign inside every finite-difference window; test scenes space
their depths so no sort flip falls inside a window. Both losses and the
rasterizer run with the cut-offs disabled, the configuration the gradient
oracle is defined for.
"""

import numpy as np
import pytest

from splatrim.core import Camera
from splatrim.metrics import LossConfig, training_loss
from splatrim.render import RenderConfig, rasterize, rasterize_backward
from tests.test_render import random_scene

PARAM_NAMES = ("positions", "rotations", "log_scales", "opacity_logits", "sh_coeffs")
FD_STEP = 1e-3
REL_TOL = 1e-3
ABS_TOL = 1e-5


def camera_16():
    return Camera(np.eye(4), fx=20.0, fy=20.0, cx=7.5, cy=7.5, width=16, height=16)


def check_all_gradients(scene, camera, config, loss_cfg, background, target):
    """Assert every storage-space parameter gradient against central FD.

    The analytic gradients are computed from the kept tile state of a
    ``for_backward`` render and from a plain render, whose backward
    composites each tile again; the two must agree bitwise.
    """

    def loss_of(s):
        out = rasterize(s, camera, background, config)
        return training_loss(out.image, target, loss_cfg)[0]

    out = rasterize(scene, camera, background, config, for_backward=True)
    loss, d_image = training_loss(out.image, target, loss_cfg)
    grads, norms = rasterize_backward(scene, camera, out, d_image)
    plain = rasterize(scene, camera, background, config)
    grads_plain, norms_plain = rasterize_backward(scene, camera, plain, d_image)
    for name in PARAM_NAMES:
        np.testing.assert_array_equal(getattr(grads, name), getattr(grads_plain, name))
    np.testing.assert_array_equal(norms, norms_plain)

    checked = 0
    for name in PARAM_NAMES:
        base = getattr(scene, name).astype(np.float64)
        analytic = getattr(grads, name)
        for idx in np.ndindex(base.shape):
            plus = base.copy()
            plus[idx] += FD_STEP
            minus = base.copy()
            minus[idx] -= FD_STEP
            fd = (
                loss_of(scene.with_updates(**{name: plus.astype(np.float32)}))
                - loss_of(scene.with_updates(**{name: minus.astype(np.float32)}))
            ) / (2 * FD_STEP)
            a = analytic[idx]
            tol = max(REL_TOL * max(abs(a), abs(fd)), ABS_TOL)
            assert abs(a - fd) <= tol, (
                f"{name}{idx}: analytic {a!r} vs finite difference {fd!r}"
            )
            checked += 1
    return checked


@pytest.mark.parametrize("seed", range(5))
def test_renderer_and_loss_gradients(seed):
    scene = random_scene(seed, 10)
    camera = camera_16()
    config = RenderConfig.exact()
    loss_cfg = LossConfig(lam=0.2)
    background = np.array([0.2, 0.3, 0.1])
    base = rasterize(scene, camera, background, config).image
    target = np.clip(base + 0.25, 0.0, 1.0)
    checked = check_all_gradients(scene, camera, config, loss_cfg, background, target)
    assert checked == 10 * 59


def test_gradients_under_rotated_camera():
    # a non-trivial world-to-camera rotation exercises the full chain
    angle = 0.35
    w2c = np.eye(4)
    w2c[:3, :3] = np.array(
        [
            [np.cos(angle), 0, np.sin(angle)],
            [0, 1, 0],
            [-np.sin(angle), 0, np.cos(angle)],
        ]
    )
    w2c[:3, 3] = [0.1, -0.05, 0.6]
    camera = Camera(w2c, fx=20.0, fy=22.0, cx=7.0, cy=8.0, width=16, height=16)
    scene = random_scene(17, 6, depth_start=1.4, depth_step=0.09)
    config = RenderConfig.exact()
    loss_cfg = LossConfig(lam=0.2)
    background = np.array([0.05, 0.1, 0.2])
    base = rasterize(scene, camera, background, config).image
    target = np.clip(base + 0.2, 0.0, 1.0)
    check_all_gradients(scene, camera, config, loss_cfg, background, target)


def test_mean2d_norms_match_parameter_activity():
    # every visible contributing Gaussian accumulates a positive norm
    scene = random_scene(3, 10)
    camera = camera_16()
    out = rasterize(scene, camera, np.zeros(3), RenderConfig.exact())
    target = np.clip(out.image + 0.3, 0, 1)
    _, d_image = training_loss(out.image, target, LossConfig(lam=0.2))
    _, norms = rasterize_backward(scene, camera, out, d_image)
    assert np.all(norms > 0)
