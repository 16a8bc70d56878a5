"""Fine-tuning loop, optimizer behavior, and the prune pipelines."""

import copy

import numpy as np
import pytest

from splatrim.core import GaussianSet, normalize_quaternions
from splatrim.errors import DivergedRunError, EmptySceneError, InvalidParameterError
from splatrim.metrics import LossConfig
from splatrim.prune import PruneCriterion, PruneSchedule, apply_mask
from splatrim.render import ParamGradients, RenderConfig, rasterize
from splatrim.sceneio import make_synthetic, load_dataset, perturb_scene
from splatrim.train import (
    OptimizerConfig,
    OptimizerState,
    evaluate,
    finetune,
    finetune_step,
    one_shot_prune,
    run_iterative_prune,
)

FAST = RenderConfig(tile_size=8)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("smallset")
    scene, manifest = make_synthetic(root, seed=21, n_gaussians=60, n_views=4, image_size=32)
    views = load_dataset(manifest)
    return scene, views


GROUPS = ("positions", "rotations", "log_scales", "opacity_logits", "sh_coeffs")


def scene_bits(scene):
    return tuple(getattr(scene, name).tobytes() for name in GROUPS)


class TestFinetuneStep:
    def test_zero_learning_rate_is_bitwise_noop(self, small_dataset):
        scene, views = small_dataset
        zero = OptimizerConfig(
            position_lr_init=0.0, position_lr_final=0.0, sh_dc_lr=0.0, sh_rest_lr=0.0,
            opacity_lr=0.0, scale_lr=0.0, rotation_lr=0.0,
        )
        opt = OptimizerState.create(scene, zero, 10)
        camera, target = views[0]
        result = finetune_step(scene, opt, camera, target, LossConfig(), FAST)
        assert np.isfinite(result.loss)
        assert scene_bits(result.scene) == scene_bits(scene)

    def test_perfect_target_is_noop_beyond_moments(self, small_dataset):
        scene, views = small_dataset
        camera, _ = views[0]
        target = rasterize(scene, camera, np.zeros(3), FAST).image
        opt = OptimizerState.create(scene, OptimizerConfig(), 10)
        result = finetune_step(scene, opt, camera, target, LossConfig(lam=0.0), FAST)
        assert result.loss == 0.0
        assert scene_bits(result.scene) == scene_bits(scene)
        assert opt.step_count == 1

    def test_loss_decreases_over_steps(self, small_dataset):
        scene, _ = small_dataset
        rng = np.random.default_rng(0)
        single = GaussianSet(
            positions=np.array([[0.0, 0.0, 0.0]], np.float32),
            rotations=np.array([[1, 0, 0, 0]], np.float32),
            log_scales=np.full((1, 3), np.log(0.2), np.float32),
            opacity_logits=np.array([1.0], np.float32),
            sh_coeffs=rng.normal(0, 0.3, (1, 16, 3)).astype(np.float32),
        )
        from splatrim.sceneio import ring_cameras

        camera = ring_cameras(2, 32)[0]
        perturbed = perturb_scene(single, seed=4, position_sigma=0.02)
        target = rasterize(single, camera, np.zeros(3), FAST).image
        opt = OptimizerState.create(perturbed, OptimizerConfig(), 20)
        losses = []
        current = perturbed
        for _ in range(20):
            result = finetune_step(current, opt, camera, target, LossConfig(), FAST)
            losses.append(result.loss)
            current = result.scene
        assert losses[-1] < losses[0]

    def test_empty_scene_rejected(self, small_dataset):
        _, views = small_dataset
        camera, target = views[0]
        empty = GaussianSet.empty()
        opt = OptimizerState.create(empty, OptimizerConfig(), 10)
        with pytest.raises(InvalidParameterError):
            finetune_step(empty, opt, camera, target, LossConfig(), FAST)

    def test_quaternions_stay_normalized(self, small_dataset):
        scene, views = small_dataset
        opt = OptimizerState.create(scene, OptimizerConfig(rotation_lr=0.1), 5)
        current = scene
        for camera, target in views[:3]:
            current = finetune_step(current, opt, camera, target, LossConfig(), FAST).scene
        norms = np.linalg.norm(current.rotations.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_diverged_run_reported_with_iteration(self, small_dataset):
        from splatrim.errors import DivergedRunError

        scene, views = small_dataset
        camera, target = views[0]
        poisoned = scene.with_updates(
            sh_coeffs=np.full_like(scene.sh_coeffs, np.nan)
        )
        opt = OptimizerState.create(poisoned, OptimizerConfig(), 10)
        opt.step_count = 6
        with pytest.raises(DivergedRunError) as err:
            finetune_step(poisoned, opt, camera, target, LossConfig(), FAST)
        assert err.value.iteration == 7


class TestOptimizerState:
    @pytest.mark.parametrize("group", ["positions", "opacity_logits"])
    def test_non_finite_update_reported_at_its_step(self, small_dataset, group):
        # a NaN gradient must stop the run at the step that applies it, not
        # pass silently (positions) or surface a step later (opacity logits)
        scene, views = small_dataset
        camera, target = views[0]
        opt = OptimizerState.create(scene, OptimizerConfig(), 10)
        scene = finetune_step(scene, opt, camera, target, LossConfig(), FAST).scene
        grads = ParamGradients.zeros(scene.count)
        getattr(grads, group)[3] = np.nan
        with pytest.raises(DivergedRunError, match=group) as err:
            opt.step(scene, grads)
        assert err.value.iteration == 2

    @pytest.mark.parametrize("group", ["positions", "sh_coeffs"])
    def test_failed_step_leaves_the_state_unchanged(self, small_dataset, group):
        # the groups before and after the bad one must not move either, so a
        # caller that catches the error continues from the state before it
        scene, views = small_dataset
        camera, target = views[0]
        opt = OptimizerState.create(scene, OptimizerConfig(), 10)
        scene = finetune_step(scene, opt, camera, target, LossConfig(), FAST).scene
        before = copy.deepcopy(opt)
        grads = ParamGradients.zeros(scene.count)
        for name in ("positions", "rotations", "log_scales", "opacity_logits", "sh_coeffs"):
            getattr(grads, name)[...] = 0.5
        getattr(grads, group)[3] = np.nan
        with pytest.raises(DivergedRunError, match=group):
            opt.step(scene, grads)
        assert opt.step_count == before.step_count == 1
        for moments, saved in ((opt.moments1, before.moments1), (opt.moments2, before.moments2)):
            assert moments.keys() == saved.keys()
            for name in saved:
                np.testing.assert_array_equal(moments[name], saved[name])

    def test_sh_rates_match_a_full_rate_array(self):
        # scaling band 0 by the DC rate and bands 1-15 by the rest rate gives
        # bitwise the update of an (N, 16, 3) array holding those rates
        rng = np.random.default_rng(4)
        n = 7
        scene = GaussianSet(
            positions=rng.normal(size=(n, 3)).astype(np.float32),
            rotations=np.tile(np.array([1, 0, 0, 0], np.float32), (n, 1)),
            log_scales=rng.normal(size=(n, 3)).astype(np.float32),
            opacity_logits=rng.normal(size=n).astype(np.float32),
            sh_coeffs=rng.normal(size=(n, 16, 3)).astype(np.float32),
        )
        cfg = OptimizerConfig()
        grads = ParamGradients.zeros(n)
        grads.sh_coeffs[...] = rng.normal(size=(n, 16, 3))
        new = OptimizerState.create(scene, cfg, 10).step(scene, grads)
        lr = np.full((n, 16, 3), cfg.sh_rest_lr)
        lr[:, 0, :] = cfg.sh_dc_lr
        m = (1.0 - cfg.beta1) * grads.sh_coeffs
        v = (1.0 - cfg.beta2) * grads.sh_coeffs * grads.sh_coeffs
        delta = lr * (m / (1.0 - cfg.beta1)) / (np.sqrt(v / (1.0 - cfg.beta2)) + cfg.eps)
        want = (scene.sh_coeffs.astype(np.float64) - delta).astype(np.float32)
        np.testing.assert_array_equal(new.sh_coeffs, want)

    def test_steps_match_the_literal_update_across_a_filter(self, small_dataset):
        # the step computes into a workspace kept between steps and rebuilt at
        # the new size after a filter; scene and moments stay bitwise those
        # of the literal update
        scene, _ = small_dataset
        rng = np.random.default_rng(6)
        cfg = OptimizerConfig()
        opt = OptimizerState.create(scene, cfg, 20)
        m1 = {name: np.zeros(getattr(scene, name).shape) for name in GROUPS}
        m2 = {name: np.zeros(getattr(scene, name).shape) for name in GROUPS}
        sh_lr = np.full((16, 3), cfg.sh_rest_lr)
        sh_lr[0] = cfg.sh_dc_lr
        for step in range(1, 11):
            if step == 6:
                keep = rng.random(scene.count) < 0.6
                scene, opt = apply_mask(scene, keep), opt.filter(keep)
                m1 = {name: v[keep] for name, v in m1.items()}
                m2 = {name: v[keep] for name, v in m2.items()}
            grads = ParamGradients.zeros(scene.count)
            for name in GROUPS:
                getattr(grads, name)[...] = rng.normal(size=getattr(scene, name).shape)
            new = opt.step(scene, grads)
            lrs = {
                "positions": opt.position_lr(step), "rotations": cfg.rotation_lr,
                "log_scales": cfg.scale_lr, "opacity_logits": cfg.opacity_lr,
                "sh_coeffs": sh_lr,
            }
            for name in GROUPS:
                g = getattr(grads, name)
                m1[name] = m1[name] * cfg.beta1 + (1.0 - cfg.beta1) * g
                m2[name] = m2[name] * cfg.beta2 + (1.0 - cfg.beta2) * g * g
                delta = m1[name] / (1.0 - cfg.beta1**step) * lrs[name] / (
                    np.sqrt(m2[name] / (1.0 - cfg.beta2**step)) + cfg.eps
                )
                want = getattr(scene, name).astype(np.float64) - delta
                if name == "rotations":
                    want = normalize_quaternions(want)
                np.testing.assert_array_equal(getattr(new, name), want.astype(np.float32))
                np.testing.assert_array_equal(opt.moments1[name], m1[name])
                np.testing.assert_array_equal(opt.moments2[name], m2[name])
            scene = new
        assert opt.step_count == 10

    def test_position_lr_decays_exponentially(self):
        scene = GaussianSet.empty()
        cfg = OptimizerConfig(position_lr_init=1.6e-4, position_lr_final=1.6e-6)
        opt = OptimizerState.create(scene, cfg, total_steps=100)
        assert opt.position_lr() == pytest.approx(1.6e-4)
        opt.step_count = 100
        assert opt.position_lr() == pytest.approx(1.6e-6, rel=1e-9)
        opt.step_count = 50
        assert opt.position_lr() == pytest.approx(np.sqrt(1.6e-4 * 1.6e-6), rel=1e-9)

    def test_filter_keeps_congruence(self, small_dataset):
        scene, views = small_dataset
        opt = OptimizerState.create(scene, OptimizerConfig(), 10)
        camera, target = views[0]
        result = finetune_step(scene, opt, camera, target, LossConfig(), FAST)
        keep = np.zeros(scene.count, bool)
        keep[: scene.count // 2] = True
        filtered = opt.filter(keep)
        for name, arr in filtered.moments1.items():
            assert arr.shape[0] == keep.sum()
        assert filtered.step_count == opt.step_count


class TestIterativePrune:
    def test_gamma_zero_is_pure_finetuning(self, small_dataset):
        scene, views = small_dataset
        schedule = PruneSchedule(gamma_target=0.0, steps=2, interval=3, finetune_iters=2)
        out, report, run = run_iterative_prune(scene, views, schedule, seed=0, render_cfg=FAST)
        assert out.count == scene.count
        assert report.achieved_sparsity == 0.0
        assert all(r.removed == 0 for r in report.records)
        assert len(run.history) == 2 * 3 + 2

    def test_determinism(self, small_dataset):
        scene, views = small_dataset
        schedule = PruneSchedule(gamma_target=0.3, steps=2, interval=4, finetune_iters=3)
        a_scene, a_report, a_run = run_iterative_prune(scene, views, schedule, seed=9, render_cfg=FAST)
        b_scene, b_report, b_run = run_iterative_prune(scene, views, schedule, seed=9, render_cfg=FAST)
        assert scene_bits(a_scene) == scene_bits(b_scene)
        assert [(h.iteration, h.loss, h.count) for h in a_run.history] == [
            (h.iteration, h.loss, h.count) for h in b_run.history
        ]
        assert [r.removed for r in a_report.records] == [r.removed for r in b_report.records]

    def test_count_monotone_and_history_increasing(self, small_dataset):
        scene, views = small_dataset
        schedule = PruneSchedule(gamma_target=0.4, steps=3, interval=2, finetune_iters=2)
        _, _, run = run_iterative_prune(scene, views, schedule, seed=1, render_cfg=FAST)
        iterations = [h.iteration for h in run.history]
        counts = [h.count for h in run.history]
        assert iterations == sorted(iterations)
        assert len(set(iterations)) == len(iterations)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_kept_plus_removed_balances(self, small_dataset):
        scene, views = small_dataset
        schedule = PruneSchedule(gamma_target=0.5, steps=3, interval=2, finetune_iters=0)
        _, report, _ = run_iterative_prune(scene, views, schedule, seed=2, render_cfg=FAST)
        previous = report.initial_count
        for record in report.records:
            assert record.kept + record.removed == previous
            previous = record.kept

    def test_empty_dataset_rejected(self, small_dataset):
        scene, _ = small_dataset
        schedule = PruneSchedule(gamma_target=0.5)
        with pytest.raises(InvalidParameterError):
            run_iterative_prune(scene, [], schedule)

    def test_prune_never_empties_scene(self, small_dataset):
        # the quantile threshold is itself an element of the opacity array,
        # so the top-opacity splat always satisfies the >= comparison: even
        # brutal repeated pruning leaves at least one survivor (the
        # EmptySceneError guard in the pipeline is purely defensive)
        _, views = small_dataset
        rng = np.random.default_rng(0)
        current = GaussianSet(
            positions=np.array([[0, 0, 0], [0.01, 0, 0]], np.float32),
            rotations=np.tile(np.array([1, 0, 0, 0], np.float32), (2, 1)),
            log_scales=np.full((2, 3), np.log(0.05), np.float32),
            opacity_logits=np.array([-8.0, -7.5], np.float32),
            sh_coeffs=rng.normal(0, 0.1, (2, 16, 3)).astype(np.float32),
        )
        schedule = PruneSchedule(
            gamma_target=0.75, steps=1, interval=1, finetune_iters=0,
            criterion=PruneCriterion.OPACITY_ONLY,
        )
        for _ in range(5):
            current, _, _ = run_iterative_prune(current, views, schedule, render_cfg=FAST)
            assert current.count >= 1
        assert current.count == 1

    def test_optimizer_and_stats_congruent_after_prune(self, small_dataset):
        scene, views = small_dataset
        schedule = PruneSchedule(
            gamma_target=0.5, steps=2, interval=2, finetune_iters=1,
            criterion=PruneCriterion.OPACITY_ONLY,
        )
        out, report, run = run_iterative_prune(scene, views, schedule, seed=3, render_cfg=FAST)
        assert out.count == report.final_count
        assert run.history[-1].count == out.count


class TestFinetune:
    @pytest.mark.parametrize("iters,seed", [(1, 0), (6, 4)])
    def test_matches_gamma_zero_pipeline(self, small_dataset, iters, seed):
        # plain fine-tuning takes no prune event, yet must walk the same
        # views with the same learning-rate decay as a gamma-0 pipeline run
        scene, views = small_dataset
        tuned, run = finetune(scene, views, iters, seed=seed, render_cfg=FAST)
        schedule = PruneSchedule(
            gamma_target=0.0, steps=1, interval=1, finetune_iters=iters - 1
        )
        piped, _, piped_run = run_iterative_prune(
            scene, views, schedule, seed=seed, render_cfg=FAST
        )
        assert scene_bits(tuned) == scene_bits(piped)
        assert [(h.iteration, h.loss, h.psnr, h.count) for h in run.history] == [
            (h.iteration, h.loss, h.psnr, h.count) for h in piped_run.history
        ]


class TestOneShot:
    def test_gamma_zero_is_pure_finetuning(self, small_dataset):
        scene, views = small_dataset
        out, report, run = one_shot_prune(scene, views, 0.0, 3, seed=0, render_cfg=FAST)
        assert out.count == scene.count
        assert len(run.history) == 3

    def test_opacity_only_halves_exactly(self, small_dataset):
        scene, views = small_dataset
        out, report, _ = one_shot_prune(
            scene, views, 0.5, 0, criterion=PruneCriterion.OPACITY_ONLY, render_cfg=FAST
        )
        assert out.count == scene.count - scene.count // 2
        assert report.records[0].removed == scene.count // 2

    def test_reduces_to_iterative_single_step_under_frozen_params(self, small_dataset):
        # with zero learning rates and interval == number of views, the
        # iterative pipeline with t = 1 sees exactly the same scene and the
        # same per-view statistics as the one-shot pre-pass
        scene, views = small_dataset
        zero = OptimizerConfig(
            position_lr_init=0.0, position_lr_final=0.0, sh_dc_lr=0.0, sh_rest_lr=0.0,
            opacity_lr=0.0, scale_lr=0.0, rotation_lr=0.0,
        )
        schedule = PruneSchedule(
            gamma_target=0.4, steps=1, interval=len(views), finetune_iters=0,
            criterion=PruneCriterion.GRADIENT_AWARE,
        )
        it_scene, it_report, _ = run_iterative_prune(
            scene, views, schedule, opt_cfg=zero, seed=5, render_cfg=FAST
        )
        os_scene, os_report, _ = one_shot_prune(
            scene, views, 0.4, 0, opt_cfg=zero, seed=5, render_cfg=FAST
        )
        assert it_scene.count == os_scene.count
        np.testing.assert_array_equal(it_scene.positions, os_scene.positions)
        assert it_report.records[0].removed == os_report.records[0].removed


class TestNegativeControl:
    def test_random_reinit_runs_but_does_not_recover(self, small_dataset):
        # re-initializing every learnable field on a pruned skeleton must
        # still train without errors; no convergence claim is made
        scene, views = small_dataset
        pruned, _, _ = one_shot_prune(
            scene, views, 0.5, 0, criterion=PruneCriterion.OPACITY_ONLY, render_cfg=FAST
        )
        rng = np.random.default_rng(13)
        reinit = pruned.with_updates(
            rotations=normalize_quaternions(rng.normal(size=(pruned.count, 4))).astype(np.float32),
            log_scales=rng.normal(np.log(0.05), 0.3, (pruned.count, 3)).astype(np.float32),
            opacity_logits=rng.normal(0, 1, pruned.count).astype(np.float32),
            sh_coeffs=rng.normal(0, 0.3, (pruned.count, 16, 3)).astype(np.float32),
        )
        tuned, run = finetune(reinit, views, 10, seed=3, render_cfg=FAST)
        assert np.isfinite(run.history[-1].loss)
        assert tuned.count == pruned.count


class TestEvaluate:
    def test_ground_truth_scene_scores_high(self, small_dataset):
        scene, views = small_dataset
        quality = evaluate(scene, views, render_cfg=RenderConfig())
        assert quality["psnr"] > 45.0
        assert quality["ssim"] > 0.99
