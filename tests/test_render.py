"""Forward rasterizer: projection, compositing, and its invariants."""

import dataclasses
import math
import time

import numpy as np
import pytest

from splatrim.core import (
    Camera, GaussianSet, SH_C0, normalize_quaternions, opacity_logit, quaternion_to_rotation,
    sh_basis,
)
from splatrim.errors import InvalidParameterError, InvalidStateError
from splatrim.render import (
    GradientStats,
    RenderConfig,
    accumulate_gradient_stats,
    project,
    rasterize,
    rasterize_backward,
)
from splatrim import render as render_module
from splatrim.render import _add_per_row, _chain_to_parameters, _sh_direction_gradient

BLACK = np.zeros(3)


def camera_16(fx=20.0, fy=20.0):
    return Camera(np.eye(4), fx=fx, fy=fy, cx=7.5, cy=7.5, width=16, height=16, near_clip=0.1)


def scene_from_rows(rows):
    """rows: (position, color, opacity_logit, log_scale scalar) tuples."""
    n = len(rows)
    pos = np.zeros((n, 3), np.float32)
    sh = np.zeros((n, 16, 3), np.float32)
    logits = np.zeros(n, np.float32)
    scales = np.zeros((n, 3), np.float32)
    for i, (p, color, logit, log_scale) in enumerate(rows):
        pos[i] = p
        sh[i, 0] = (np.asarray(color) - 0.5) / SH_C0
        logits[i] = logit
        scales[i] = log_scale
    return GaussianSet(
        positions=pos,
        rotations=np.tile(np.array([1, 0, 0, 0], np.float32), (n, 1)),
        log_scales=scales,
        opacity_logits=logits,
        sh_coeffs=sh,
    )


def random_scene(seed, n, depth_start=1.7, depth_step=0.06):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-0.2, 0.2, (n, 3))
    pos[:, 2] = depth_start + depth_step * np.arange(n) + rng.uniform(0, 0.02, n)
    return GaussianSet(
        positions=pos.astype(np.float32),
        rotations=normalize_quaternions(rng.normal(0, 1, (n, 4))).astype(np.float32),
        log_scales=rng.normal(math.log(0.1), 0.2, (n, 3)).astype(np.float32),
        opacity_logits=rng.normal(0.5, 1.0, n).astype(np.float32),
        sh_coeffs=np.concatenate(
            [rng.uniform(-1, 1, (n, 1, 3)), rng.normal(0, 0.1, (n, 15, 3))], axis=1
        ).astype(np.float32),
    )


class TestProject:
    def test_on_axis_covariance(self):
        # unit world covariance on the optical axis: cov2d = (f/z)^2 I + lowpass
        z = 2.0
        g = scene_from_rows([((0, 0, z), (1, 1, 1), 0.0, 0.0)])
        cam = camera_16()
        proj = project(g, cam)
        assert proj.visible[0]
        np.testing.assert_allclose(proj.mean2d[0], [7.5, 7.5], atol=1e-9)
        f2z2 = (20.0 / z) ** 2
        np.testing.assert_allclose(
            proj.cov2d[0], np.diag([f2z2 + 0.3, f2z2 + 0.3]), atol=1e-9
        )
        assert proj.depth[0] == pytest.approx(z)

    def test_near_clip_culls(self):
        g = scene_from_rows([((0, 0, 0.05), (1, 1, 1), 0.0, 0.0)])
        proj = project(g, camera_16())
        assert not proj.visible[0]

    def test_behind_camera_culls(self):
        g = scene_from_rows([((0, 0, -2.0), (1, 1, 1), 0.0, 0.0)])
        proj = project(g, camera_16())
        assert not proj.visible[0]

    def test_identity_jacobian_at_focal_depth(self):
        # on the optical axis at z = fx = fy = 20 the perspective Jacobian is
        # exactly [[1,0,0],[0,1,0]]; with identity W, cov2d is then the
        # top-left 2x2 block of the world covariance plus the low-pass term
        rng = np.random.default_rng(8)
        q = normalize_quaternions(rng.normal(size=4)).astype(np.float32)
        s = rng.normal(-1, 0.3, 3).astype(np.float32)
        g = GaussianSet(
            positions=np.array([[0, 0, 20.0]], np.float32),
            rotations=q[None, :],
            log_scales=s[None, :],
            opacity_logits=np.zeros(1, np.float32),
            sh_coeffs=np.zeros((1, 16, 3), np.float32),
        )
        from splatrim.core import covariance_from_rotation_scale

        sigma = covariance_from_rotation_scale(q, s)
        proj = project(g, camera_16())
        np.testing.assert_allclose(
            proj.cov2d[0], sigma[:2, :2] + 0.3 * np.eye(2), atol=1e-6
        )

    def test_off_frustum_margin_culls(self):
        # far outside the image bounds even with the 3-sigma margin
        g = scene_from_rows([((50.0, 0, 2.0), (1, 1, 1), 0.0, -2.0)])
        proj = project(g, camera_16())
        assert not proj.visible[0]


class TestRasterize:
    def test_empty_scene(self):
        out = rasterize(GaussianSet.empty(), camera_16(), BLACK)
        np.testing.assert_array_equal(out.image, 0.0)
        np.testing.assert_array_equal(out.terminal_transmittance, 1.0)

    def test_empty_scene_background_fill(self):
        bg = np.array([0.1, 0.6, 0.9])
        out = rasterize(GaussianSet.empty(), camera_16(), bg)
        np.testing.assert_array_equal(out.image, np.broadcast_to(bg, (16, 16, 3)))

    def test_single_flat_clamped_gaussian(self):
        g = scene_from_rows([((0, 0, 2.0), (1, 0, 0), 30.0, math.log(50.0))])
        out = rasterize(g, camera_16(), BLACK, RenderConfig.exact())
        np.testing.assert_allclose(out.image[7, 7], [0.99, 0.0, 0.0], atol=1e-6)

    def test_two_gaussian_closed_form(self):
        a, b = 0.6, 0.3
        bg = np.array([0.2, 0.2, 0.5])
        g = scene_from_rows(
            [
                ((0, 0, 2.0), (1, 0, 0), opacity_logit(a), math.log(50.0)),
                ((0, 0, 3.0), (0, 1, 0), opacity_logit(b), math.log(50.0)),
            ]
        )
        out = rasterize(g, camera_16(), bg, RenderConfig.exact())
        expected = (
            np.array([1, 0, 0]) * a
            + np.array([0, 1, 0]) * b * (1 - a)
            + bg * (1 - a) * (1 - b)
        )
        np.testing.assert_allclose(out.image[7, 7], expected, atol=1e-6)

    @pytest.mark.parametrize(
        "cfg",
        [
            RenderConfig(sigma_cutoff=math.inf, alpha_skip=0.0, transmittance_floor=0.0),
            RenderConfig(tile_size=8, alpha_skip=0),
        ],
        ids=["exact", "desk"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_compositing_conservation(self, seed, cfg):
        # per-pixel weights plus terminal transmittance telescope to exactly
        # one, at floor 0 and at the desk's 1e-4 termination floor; verified
        # via a white-on-black render
        g = random_scene(seed, 20)
        white = g.sh_coeffs.copy()
        white[:, 0, :] = (1.0 - 0.5) / SH_C0
        white[:, 1:, :] = 0.0
        g = g.with_updates(sh_coeffs=white)
        out = rasterize(g, camera_16(), BLACK, cfg)
        total = out.image[..., 0] + out.terminal_transmittance
        np.testing.assert_allclose(total, 1.0, atol=1e-5)

    def test_order_permutation_invariance(self):
        g = random_scene(5, 12)
        cam = camera_16()
        ref = rasterize(g, cam, BLACK)
        perm = np.random.default_rng(0).permutation(12)
        shuffled = GaussianSet(
            positions=g.positions[perm],
            rotations=g.rotations[perm],
            log_scales=g.log_scales[perm],
            opacity_logits=g.opacity_logits[perm],
            sh_coeffs=g.sh_coeffs[perm],
        )
        out = rasterize(shuffled, cam, BLACK)
        np.testing.assert_array_equal(out.image, ref.image)
        np.testing.assert_array_equal(
            out.terminal_transmittance, ref.terminal_transmittance
        )

    def test_null_contributor_invariance(self):
        # a Gaussian whose alpha is everywhere below the skip threshold
        # changes no pixel
        g = random_scene(6, 8)
        faint = scene_from_rows([((0, 0, 1.9), (1, 1, 1), opacity_logit(1e-3), -2.0)])
        combined = GaussianSet(
            positions=np.vstack([g.positions, faint.positions]),
            rotations=np.vstack([g.rotations, faint.rotations]),
            log_scales=np.vstack([g.log_scales, faint.log_scales]),
            opacity_logits=np.concatenate([g.opacity_logits, faint.opacity_logits]),
            sh_coeffs=np.vstack([g.sh_coeffs, faint.sh_coeffs]),
        )
        cam = camera_16()
        with_faint = rasterize(combined, cam, BLACK)
        without = rasterize(g, cam, BLACK)
        np.testing.assert_array_equal(with_faint.image, without.image)

    def test_rerender_is_bitwise_identical(self):
        g = random_scene(7, 15)
        cam = camera_16()
        a = rasterize(g, cam, BLACK)
        b = rasterize(g, cam, BLACK)
        np.testing.assert_array_equal(a.image, b.image)

    def test_image_in_unit_range(self):
        rng = np.random.default_rng(10)
        g = random_scene(10, 20)
        sh = g.sh_coeffs.copy()
        sh[:, 0, :] = rng.uniform(-3, 6, (20, 3))  # colors beyond gamut
        g = g.with_updates(sh_coeffs=sh)
        out = rasterize(g, camera_16(), np.array([0.9, 0.9, 0.9]))
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0

    def test_throughput_non_increasing_with_fewer_gaussians(self):
        g = random_scene(11, 400, depth_start=1.7, depth_step=0.002)
        half = GaussianSet(
            positions=g.positions[:200],
            rotations=g.rotations[:200],
            log_scales=g.log_scales[:200],
            opacity_logits=g.opacity_logits[:200],
            sh_coeffs=g.sh_coeffs[:200],
        )
        cam = camera_16()

        def median_time(scene):
            times = []
            for _ in range(9):
                t0 = time.perf_counter()
                rasterize(scene, cam, BLACK)
                times.append(time.perf_counter() - t0)
            return float(np.median(times))

        rasterize(g, cam, BLACK)  # warm caches
        t_full = median_time(g)
        t_half = median_time(half)
        assert t_half <= t_full * 1.10

    def test_background_validation(self):
        with pytest.raises(InvalidParameterError):
            rasterize(GaussianSet.empty(), camera_16(), np.zeros(4))


def brute_force_render(scene, camera, background):
    """Per-pixel reference rasterizer: plain loops, no pairs, no cut-offs."""
    from splatrim.core import sh_basis

    w2c = camera.world_to_camera
    rot = w2c[:3, :3]
    splats = []
    for i in range(scene.count):
        t = rot @ scene.positions[i].astype(np.float64) + w2c[:3, 3]
        if t[2] < camera.near_clip:
            continue
        q = scene.rotations[i].astype(np.float64)
        q = q / np.linalg.norm(q)
        w, x, y, z = q
        r3 = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        s = np.diag(np.exp(scene.log_scales[i].astype(np.float64)))
        sigma = r3 @ s @ s.T @ r3.T
        jac = np.array(
            [
                [camera.fx / t[2], 0.0, -camera.fx * t[0] / t[2] ** 2],
                [0.0, camera.fy / t[2], -camera.fy * t[1] / t[2] ** 2],
            ]
        )
        cov = jac @ rot @ sigma @ rot.T @ jac.T + 0.3 * np.eye(2)
        mean = np.array(
            [camera.fx * t[0] / t[2] + camera.cx, camera.fy * t[1] / t[2] + camera.cy]
        )
        direction = scene.positions[i].astype(np.float64) - camera.center
        direction = direction / np.linalg.norm(direction)
        color = np.maximum(
            sh_basis(direction) @ scene.sh_coeffs[i].astype(np.float64) + 0.5, 0.0
        )
        opacity = 1.0 / (1.0 + math.exp(-float(scene.opacity_logits[i])))
        splats.append((t[2], i, mean, np.linalg.inv(cov), color, opacity))
    splats.sort(key=lambda item: (item[0], item[1]))

    image = np.zeros((camera.height, camera.width, 3))
    for py in range(camera.height):
        for px in range(camera.width):
            trans = 1.0
            pixel = np.zeros(3)
            for _, _, mean, conic, color, opacity in splats:
                d = np.array([px, py], float) - mean
                alpha = min(0.99, opacity * math.exp(-0.5 * d @ conic @ d))
                pixel += color * alpha * trans
                trans *= 1.0 - alpha
            image[py, px] = np.clip(pixel + trans * np.asarray(background), 0, 1)
    return image


class TestBruteForceOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_rasterizer(self, seed):
        scene = random_scene(seed, 12)
        cam = camera_16()
        out = rasterize(scene, cam, np.array([0.15, 0.3, 0.45]), RenderConfig.exact())
        oracle = brute_force_render(scene, cam, np.array([0.15, 0.3, 0.45]))
        np.testing.assert_allclose(out.image, oracle, atol=1e-12)

    def test_matches_under_rotated_camera(self):
        angle = 0.4
        w2c = np.eye(4)
        w2c[:3, :3] = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0],
                [np.sin(angle), np.cos(angle), 0],
                [0, 0, 1],
            ]
        )
        w2c[:3, 3] = [0.05, -0.1, 0.3]
        cam = Camera(w2c, fx=18.0, fy=21.0, cx=7.0, cy=8.0, width=16, height=16)
        scene = random_scene(9, 8, depth_start=1.5, depth_step=0.08)
        bg = np.array([0.4, 0.1, 0.3])
        out = rasterize(scene, cam, bg, RenderConfig.exact())
        np.testing.assert_allclose(out.image, brute_force_render(scene, cam, bg), atol=1e-12)

    def test_splat_centred_off_screen_still_renders_under_exact(self):
        # the centre sits at x = -5.5 px with sigma 1.53 px, more than three
        # sigmas off-screen, yet its tail still reaches the left columns
        scene = scene_from_rows(
            [((-1.3, 0.0, 2.0), (1, 0.5, 0), opacity_logit(0.9), math.log(0.12))]
        )
        cam = camera_16()
        bg = np.array([0.1, 0.2, 0.3])
        proj = project(scene, cam, RenderConfig.exact())
        assert proj.mean2d[0, 0] < -3.0 * math.sqrt(proj.cov2d[0, 0, 0])
        out = rasterize(scene, cam, bg, RenderConfig.exact())
        oracle = brute_force_render(scene, cam, bg)
        assert np.abs(oracle - bg).max() > 1e-4
        np.testing.assert_allclose(out.image, oracle, atol=1e-12)

    def test_thousands_of_stacked_splats_on_one_pixel(self):
        # every pixel holds all 3,000 pairs, so its transmittance is one
        # 3,000-long product; faint splats keep every one of them visible
        rng = np.random.default_rng(13)
        n = 3000
        base = random_scene(13, n, depth_start=1.7, depth_step=0.001)
        scene = base.with_updates(
            opacity_logits=rng.normal(-6.0, 0.5, n).astype(np.float32)
        )
        cam = Camera(np.eye(4), fx=4.0, fy=4.0, cx=0.5, cy=0.5, width=2, height=2)
        bg = np.array([0.2, 0.5, 0.7])
        out = rasterize(scene, cam, bg, RenderConfig.exact())
        assert 0.001 < out.terminal_transmittance.max() < 0.9
        np.testing.assert_allclose(out.image, brute_force_render(scene, cam, bg), atol=1e-12)


class TestPairs:
    """The pair rasterizer: which pixels a splat reaches, and chunking."""

    def test_pixel_in_box_but_outside_ellipse_is_background(self):
        # a thin splat along the image diagonal, rendered with no alpha skip:
        # pixels inside its 3-sigma bounding box but just outside its ellipse,
        # where a box would still give an alpha of 1e-5 or more, stay exactly
        # at the background
        q = np.array([np.cos(np.pi / 8), 0.0, 0.0, np.sin(np.pi / 8)], np.float32)
        scene = GaussianSet(
            positions=np.array([[0.0, 0.0, 2.0]], np.float32),
            rotations=q[None, :],
            log_scales=np.log(np.array([[0.5, 0.02, 0.02]], np.float32)),
            opacity_logits=np.array([opacity_logit(0.9)], np.float32),
            sh_coeffs=np.zeros((1, 16, 3), np.float32),
        )
        cam = camera_16()
        bg = np.array([0.1, 0.2, 0.3])
        out = rasterize(scene, cam, bg, CONFIGS["desk"])
        proj = project(scene, cam)
        cov, mean = proj.cov2d[0], proj.mean2d[0]
        ys, xs = np.mgrid[0:16, 0:16]
        d = np.stack([xs - mean[0], ys - mean[1]], axis=-1)
        form = np.einsum("hwi,ij,hwj->hw", d, np.linalg.inv(cov), d)
        in_box = np.all(np.abs(d) <= 3.0 * np.sqrt(np.diag(cov)), axis=-1)
        near = in_box & (form > 9.0 + 1e-9) & (form < 25.0)
        assert near.sum() >= 10
        np.testing.assert_array_equal(out.image[near], np.broadcast_to(bg, (near.sum(), 3)))
        np.testing.assert_array_equal(out.terminal_transmittance[near], 1.0)
        assert np.all(out.terminal_transmittance[form < 9.0 - 1e-9] < 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_pairs_are_ellipse_pixels_whose_alpha_reaches_the_skip(self, seed):
        # the exact config pairs every visible splat with every pixel; the
        # default config keeps those inside the 3-sigma ellipse whose alpha is
        # not skipped, and no other
        scene, cam, bg, _ = crowded_case(seed)
        config = CONFIGS["default"]

        def pairs(out):
            prep = out._prep
            found = {}
            for p in out._kept:
                rows = prep.front[p.rows]
                pix = np.repeat(p.pixels, p.counts)
                conic = prep.conic[rows]
                form = (conic[:, 0, 0] * p.dx**2 + 2 * conic[:, 0, 1] * p.dx * p.dy
                        + conic[:, 1, 1] * p.dy**2)
                raw_alpha = np.minimum(p.gauss * prep.opacity[rows], config.alpha_clamp)
                for key in zip(prep.vis_idx[rows], pix, form, raw_alpha):
                    found[key[:2]] = key[2:]
            return found

        every = pairs(rasterize(scene, cam, bg, RenderConfig.exact(), for_backward=True))
        kept = pairs(rasterize(scene, cam, bg, config, for_backward=True))
        want = {
            key for key, (form, alpha) in every.items()
            if form <= 9.0 and alpha >= config.alpha_skip
        }
        # pixels within rounding of either boundary may go either way
        edge = {
            key for key, (form, alpha) in every.items()
            if abs(form - 9.0) < 1e-9 or abs(alpha / config.alpha_skip - 1.0) < 1e-6
        }
        assert len(want) > 1000
        assert set(kept) - edge == want - edge
        assert all(alpha >= config.alpha_skip for _, alpha in kept.values())

    @pytest.mark.parametrize("cfg_name", ["default", "desk"])
    def test_tile_size_and_chunking_change_nothing(self, cfg_name, monkeypatch):
        scene, cam, bg, d_image = crowded_case(2)

        def run(config):
            out = rasterize(scene, cam, bg, config, for_backward=True)
            grads, norms = rasterize_backward(scene, cam, out, d_image)
            return out, grads, norms

        ref_out, ref_grads, ref_norms = run(CONFIGS[cfg_name])
        assert len(ref_out._kept) == 1
        runs = [
            run(dataclasses.replace(CONFIGS[cfg_name], tile_size=ts)) for ts in (1, 8, 16, 64)
        ]
        # a budget of one pair closes a chunk at every pixel row that has one
        monkeypatch.setattr(render_module, "_CHUNK_PAIRS", 1)
        runs.append(run(CONFIGS[cfg_name]))
        assert len(runs[-1][0]._kept) == cam.height
        for out, grads, norms in runs:
            np.testing.assert_array_equal(out.image, ref_out.image)
            np.testing.assert_array_equal(out.terminal_transmittance, ref_out.terminal_transmittance)
            for name in GRAD_FIELDS:
                np.testing.assert_array_equal(getattr(grads, name), getattr(ref_grads, name))
            np.testing.assert_array_equal(norms, ref_norms)

    def test_invalid_tile_size_still_rejected(self):
        with pytest.raises(InvalidParameterError):
            RenderConfig(tile_size=0)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_sigma_cutoff_rejected(self, cutoff):
        with pytest.raises(InvalidParameterError):
            RenderConfig(sigma_cutoff=cutoff)


GRAD_FIELDS = ("positions", "rotations", "log_scales", "opacity_logits", "sh_coeffs")
CONFIGS = {
    "exact": RenderConfig.exact(),
    "default": RenderConfig(),
    "desk": RenderConfig(tile_size=8, alpha_skip=0.0),
}


def crowded_case(seed):
    """200 splats on a 32x27 view, with opacities high enough that renders
    terminate early, clip above one and bind the alpha clamp; returns
    (scene, camera, background, d_image)."""
    rng = np.random.default_rng(seed)
    n = 200
    pos = rng.uniform(-0.6, 0.6, (n, 3))
    pos[:, 2] = rng.uniform(1.2, 3.0, n)
    scene = GaussianSet(
        positions=pos.astype(np.float32),
        rotations=normalize_quaternions(rng.normal(0, 1, (n, 4))).astype(np.float32),
        log_scales=rng.normal(math.log(0.08), 0.4, (n, 3)).astype(np.float32),
        opacity_logits=rng.normal(3.0, 2.0, n).astype(np.float32),
        sh_coeffs=np.concatenate(
            [rng.uniform(-1, 2.5, (n, 1, 3)), rng.normal(0, 0.2, (n, 15, 3))], axis=1
        ).astype(np.float32),
    )
    angle = 0.04 * seed
    w2c = np.eye(4)
    w2c[:3, :3] = [
        [np.cos(angle), 0, np.sin(angle)], [0, 1, 0], [-np.sin(angle), 0, np.cos(angle)]
    ]
    camera = Camera(w2c, fx=30.0, fy=33.0, cx=15.5, cy=13.0, width=32, height=27)
    d_image = rng.normal(0, 1, (27, 32, 3))
    return scene, camera, np.array([0.3, 0.2, 0.6]), d_image


class TestBackwardPlumbing:
    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", range(8))
    def test_kept_state_matches_recomputed(self, seed, cfg_name):
        config = CONFIGS[cfg_name]
        scene, cam, bg, d_image = crowded_case(seed)
        kept = rasterize(scene, cam, bg, config, for_backward=True)
        plain = rasterize(scene, cam, bg, config)
        np.testing.assert_array_equal(kept.image, plain.image)
        np.testing.assert_array_equal(kept.terminal_transmittance, plain.terminal_transmittance)

        # the case exercises what the kept state must reproduce
        assert any((p.alpha == config.alpha_clamp).any() for p in kept._kept)
        assert any((p.color > 1.0).any() for p in kept._kept)
        if cfg_name != "exact":
            assert any((~p.active).any() for p in kept._kept)

        grads_kept, norms_kept = rasterize_backward(scene, cam, kept, d_image)
        grads_plain, norms_plain = rasterize_backward(scene, cam, plain, d_image)
        for name in GRAD_FIELDS:
            np.testing.assert_array_equal(getattr(grads_kept, name), getattr(grads_plain, name))
        np.testing.assert_array_equal(norms_kept, norms_plain)
        assert np.any(norms_kept > 0)

    def test_kept_state_is_read_only(self):
        scene, cam, bg, d_image = crowded_case(3)
        out = rasterize(scene, cam, bg, CONFIGS["desk"], for_backward=True)
        before = [[np.copy(arr) for arr in pairs] for pairs in out._kept]
        first = rasterize_backward(scene, cam, out, d_image)
        second = rasterize_backward(scene, cam, out, d_image)
        for name in GRAD_FIELDS:
            np.testing.assert_array_equal(getattr(first[0], name), getattr(second[0], name))
        np.testing.assert_array_equal(first[1], second[1])
        for pairs, copies in zip(out._kept, before):
            for arr, copy in zip(pairs, copies):
                if isinstance(arr, np.ndarray):
                    assert not arr.flags.writeable
                np.testing.assert_array_equal(arr, copy)

    def test_forward_only_render_keeps_no_pair_state(self):
        scene, cam, bg, _ = crowded_case(4)
        out = rasterize(scene, cam, bg, CONFIGS["default"])
        assert out._kept is None

    def test_zero_upstream_gradient(self):
        g = random_scene(1, 8)
        cam = camera_16()
        out = rasterize(g, cam, BLACK)
        grads, norms = rasterize_backward(g, cam, out, np.zeros((16, 16, 3)))
        for name in ("positions", "rotations", "log_scales", "opacity_logits", "sh_coeffs"):
            np.testing.assert_array_equal(getattr(grads, name), 0.0)
        np.testing.assert_array_equal(norms, 0.0)

    def test_culled_gaussian_gets_zero_gradient(self):
        g = random_scene(2, 6)
        pos = g.positions.copy()
        pos[3, 2] = 0.01  # in front of the near plane
        g = g.with_updates(positions=pos)
        cam = camera_16()
        out = rasterize(g, cam, BLACK)
        grads, norms = rasterize_backward(g, cam, out, np.ones((16, 16, 3)))
        assert norms[3] == 0.0
        np.testing.assert_array_equal(grads.positions[3], 0.0)
        np.testing.assert_array_equal(grads.sh_coeffs[3], 0.0)

    def test_mismatched_scene_rejected(self):
        g = random_scene(3, 6)
        cam = camera_16()
        out = rasterize(g, cam, BLACK)
        smaller = GaussianSet(
            positions=g.positions[:4],
            rotations=g.rotations[:4],
            log_scales=g.log_scales[:4],
            opacity_logits=g.opacity_logits[:4],
            sh_coeffs=g.sh_coeffs[:4],
        )
        with pytest.raises(InvalidStateError):
            rasterize_backward(smaller, cam, out, np.zeros((16, 16, 3)))

    def test_same_count_different_scene_rejected(self):
        # the backward reuses the forward's projection, so it only accepts
        # the scene object that was rendered
        g = random_scene(3, 6)
        cam = camera_16()
        out = rasterize(g, cam, BLACK)
        moved = g.with_updates(positions=g.positions + 0.01)
        with pytest.raises(InvalidStateError):
            rasterize_backward(moved, cam, out, np.zeros((16, 16, 3)))

    def test_different_camera_rejected(self):
        # an otherwise equal camera at another focal length would chain the
        # forward's projection through the wrong intrinsics
        g = random_scene(5, 6)
        out = rasterize(g, camera_16(fx=30.0, fy=30.0), BLACK)
        for cam in (camera_16(fx=45.0, fy=45.0), camera_16(fx=30.0, fy=30.0)):
            with pytest.raises(InvalidStateError, match="camera"):
                rasterize_backward(g, cam, out, np.zeros((16, 16, 3)))

    def test_mismatched_gradient_shape_rejected(self):
        g = random_scene(4, 6)
        cam = camera_16()
        out = rasterize(g, cam, BLACK)
        with pytest.raises(InvalidStateError):
            rasterize_backward(g, cam, out, np.zeros((8, 8, 3)))


def stencil_jacobian(f, points, h):
    """d f / d point of a polynomial ``f`` of degree at most 3 (exact up to
    rounding for it) by the five-point central difference: (V, out, in)."""
    cols = []
    for axis in range(points.shape[1]):
        step = np.zeros(points.shape[1])
        step[axis] = h
        cols.append((
            f(points - 2 * step) - 8 * f(points - step) + 8 * f(points + step)
            - f(points + 2 * step)
        ) / (12 * h))
    return np.stack(cols, axis=-1)


def literal_chain(scene, camera, prep, d_color, d_opacity, d_mean2d, d_conic):
    """The parameter chain as batched matmuls and einsums over the visible
    rows, with the SH and quaternion Jacobians by stencil: (V, ...) arrays."""
    proj, conic = prep.proj, prep.conic
    g = np.stack((d_conic[0], d_conic[1], d_conic[1], d_conic[2]), axis=1).reshape(-1, 2, 2)
    d_cov2d = -conic @ g @ conic
    p_t = np.swapaxes(proj.p_mat, 1, 2)
    d_sigma3 = p_t @ d_cov2d @ proj.p_mat
    d_p = (d_cov2d + np.swapaxes(d_cov2d, 1, 2)) @ proj.p_mat @ proj.sigma3
    rot_w2c = camera.world_to_camera[:3, :3]
    d_jac = d_p @ rot_w2c.T
    x, y, z = proj.t_cam.T
    fx, fy = camera.fx, camera.fy
    d_t = np.stack((
        -fx / z**2 * d_jac[:, 0, 2] + fx / z * d_mean2d[:, 0],
        -fy / z**2 * d_jac[:, 1, 2] + fy / z * d_mean2d[:, 1],
        -fx / z**2 * d_jac[:, 0, 0] - fy / z**2 * d_jac[:, 1, 1]
        + 2 * fx * x / z**3 * d_jac[:, 0, 2] + 2 * fy * y / z**3 * d_jac[:, 1, 2]
        - fx * x / z**2 * d_mean2d[:, 0] - fy * y / z**2 * d_mean2d[:, 1],
    ), axis=1)

    def normalize_vjp(unit, norm, d_unit):
        return (d_unit - np.einsum("vk,vk->v", d_unit, unit)[:, None] * unit) / norm[:, None]

    d_col = np.where(prep.color_raw > 0.0, d_color.T, 0.0)
    sh = scene.sh_coeffs[prep.vis_idx].astype(np.float64)
    d_dir = np.einsum("vlc,vc,vlk->vk", sh, d_col, stencil_jacobian(sh_basis, prep.dir_hat, 0.5))
    d_pos = d_t @ rot_w2c + normalize_vjp(prep.dir_hat, prep.dir_len, d_dir)
    d_m = (d_sigma3 + np.swapaxes(d_sigma3, 1, 2)) @ proj.m_mat
    d_rot = d_m * proj.scales[:, None, :]
    rot_jac = stencil_jacobian(quaternion_to_rotation, proj.q_hat, 0.5)  # (V, 3, 3, 4)
    d_q = normalize_vjp(proj.q_hat, proj.q_norm, np.einsum("vij,vijq->vq", d_rot, rot_jac))
    o = prep.opacity
    return {
        "positions": d_pos,
        "rotations": d_q,
        "log_scales": proj.scales * np.einsum("vrk,vrk->vk", proj.rot, d_m),
        "opacity_logits": o * (1.0 - o) * d_opacity,
        "sh_coeffs": prep.basis[:, :, None] * d_col[:, None, :],
    }


class TestBackwardContractions:
    """The backward's contractions against their literal definitions."""

    def test_sh_basis_jacobian_matches_five_point_stencil(self):
        # one-hot coefficients make _sh_direction_gradient return one row of
        # the basis Jacobian, which the five-point central difference gives
        # up to rounding (the basis is a cubic polynomial in (x, y, z))
        d = np.random.default_rng(10).normal(size=(30, 3))
        want = stencil_jacobian(sh_basis, d, 0.5)
        d_color = np.tile([1.0, 0.0, 0.0], (30, 1))
        for l in range(16):
            coeffs = np.zeros((30, 16, 3))
            coeffs[:, l, 0] = 1.0
            got = _sh_direction_gradient(coeffs, d, d_color).T
            np.testing.assert_allclose(got, want[:, l], rtol=0, atol=1e-12)

    def test_sh_direction_gradient_matches_three_operand_einsum(self):
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=(40, 16, 3))
        dirs = rng.normal(size=(40, 3))
        d_color = rng.normal(size=(40, 3))
        unit = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        jac = stencil_jacobian(sh_basis, unit, 0.5)
        # float32 coefficients too, as the chain reads them from the scene
        for c in (coeffs, coeffs.astype(np.float32)):
            want = np.einsum("vlc,vc,vlk->vk", c.astype(np.float64), d_color, jac)
            got = _sh_direction_gradient(c, unit, d_color).T
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("cfg_name", ["default", "desk"])
    @pytest.mark.parametrize("seed", [5, 7])
    def test_chain_matches_literal_matmuls(self, seed, cfg_name):
        scene, cam, bg, _ = crowded_case(seed)
        prep = rasterize(scene, cam, bg, CONFIGS[cfg_name])._prep
        vis = prep.vis_idx
        assert vis.size < scene.count  # the case has culled rows
        rng = np.random.default_rng(seed)
        args = (
            rng.normal(size=(3, vis.size)), rng.normal(size=vis.size),
            rng.normal(size=(vis.size, 2)), rng.normal(size=(3, vis.size)),
        )
        got = _chain_to_parameters(scene, cam, prep, *args)
        want = literal_chain(scene, cam, prep, *args)
        culled = np.setdiff1d(np.arange(scene.count), vis)
        for name, w in want.items():
            g = getattr(got, name)
            assert g.shape[0] == scene.count
            assert not g[culled].any()
            np.testing.assert_allclose(g[vis], w, rtol=0, atol=1e-12 * np.abs(w).max())
        # the SH product is the same product, bitwise
        np.testing.assert_array_equal(got.sh_coeffs[vis], want["sh_coeffs"])

    def test_per_row_moments_match_scatter_add(self):
        # the backward's (1, dx, dy, dx^2, dx dy, dy^2) moments per splat
        rng = np.random.default_rng(12)
        n_rows, m = 37, 900
        rows = rng.integers(0, n_rows - 1, m)  # the last row has no pair
        grad = rng.normal(size=m)
        dx = rng.normal(size=m) * 4.0
        dy = rng.normal(size=m) * 4.0
        values = [grad * p for p in (np.ones(m), dx, dy, dx * dx, dx * dy, dy * dy)]
        mom = np.zeros((6, n_rows))
        _add_per_row(mom, rows, values)
        for got, v in zip(mom, values):
            want = np.zeros(n_rows)
            np.add.at(want, rows, v)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            assert got[-1] == 0.0
        # sums carried over a split equal the sums in one go, bitwise
        split = np.zeros((6, n_rows))
        _add_per_row(split, rows[:400], [v[:400] for v in values])
        _add_per_row(split, rows[400:], [v[400:] for v in values])
        np.testing.assert_array_equal(split, mom)


    def test_per_row_moments_match_scatter_add(self):
        # the backward's (1, dx, dy, dx^2, dx dy, dy^2) moments per splat
        rng = np.random.default_rng(12)
        n_rows, m = 37, 900
        rows = rng.integers(0, n_rows - 1, m)  # the last row has no pair
        grad = rng.normal(size=m)
        dx = rng.normal(size=m) * 4.0
        dy = rng.normal(size=m) * 4.0
        values = [grad * p for p in (np.ones(m), dx, dy, dx * dx, dx * dy, dy * dy)]
        mom = np.zeros((6, n_rows))
        _add_per_row(mom, rows, values)
        for got, v in zip(mom, values):
            want = np.zeros(n_rows)
            np.add.at(want, rows, v)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            assert got[-1] == 0.0
        # sums carried over a split equal the sums in one go, bitwise
        split = np.zeros((6, n_rows))
        _add_per_row(split, rows[:400], [v[:400] for v in values])
        _add_per_row(split, rows[400:], [v[400:] for v in values])
        np.testing.assert_array_equal(split, mom)


class TestGradientStats:
    def test_fresh_plus_zero_norms(self):
        stats = accumulate_gradient_stats(GradientStats.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(stats.accum_grad_norm, 0.0)
        np.testing.assert_array_equal(stats.hit_count, 0)

    def test_two_accumulations(self):
        stats = GradientStats.zeros(1)
        stats = accumulate_gradient_stats(stats, np.array([1.0]))
        stats = accumulate_gradient_stats(stats, np.array([2.0]))
        assert stats.accum_grad_norm[0] == 3.0
        assert stats.hit_count[0] == 2

    def test_reset_semantics(self):
        # stats consumed by a prune are replaced by fresh zeros, so a later
        # accumulation equals a single accumulation since the prune
        stats = GradientStats.zeros(2)
        stats = accumulate_gradient_stats(stats, np.array([1.0, 5.0]))
        stats = GradientStats.zeros(2)  # what a prune event does
        stats = accumulate_gradient_stats(stats, np.array([2.0, 0.0]))
        np.testing.assert_array_equal(stats.accum_grad_norm, [2.0, 0.0])
        np.testing.assert_array_equal(stats.hit_count, [1, 0])

    def test_mean_scores_normalize_by_hits(self):
        stats = GradientStats.zeros(2)
        stats = accumulate_gradient_stats(stats, np.array([1.0, 0.0]))
        stats = accumulate_gradient_stats(stats, np.array([2.0, 0.0]))
        np.testing.assert_array_equal(stats.scores(), [1.5, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            accumulate_gradient_stats(GradientStats.zeros(3), np.zeros(4))
