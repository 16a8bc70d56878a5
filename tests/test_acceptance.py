"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale pipeline
(criteria 5, 7, 8) runs once as a shared fixture; the ablation study
(criterion 6) runs its own five-seed grid with a shortened schedule.
"""

import math
import time

import numpy as np
import pytest

from splatrim.core import Camera, GaussianSet, SH_C0
from splatrim.metrics import LossConfig, compression_ratio, model_size_bytes, training_loss
from splatrim.prune import (
    PruneCriterion,
    PruneSchedule,
    per_iteration_fraction,
    prune_mask,
)
from splatrim.render import RenderConfig, rasterize, rasterize_backward
from splatrim.sceneio import PlySchemaError, ply_header_bytes, read_ply, write_ply
from splatrim.train import evaluate, one_shot_prune, run_iterative_prune

from tests.benchlib import (
    BENCH_LOSS,
    BENCH_OPT,
    BENCH_RENDER,
    build_benchmark,
)
from tests.test_gradients import check_all_gradients
from tests.test_prune import brute_force_keep
from tests.test_render import random_scene, scene_from_rows


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS: {message}")


# -----------------------------------------------------------------------
# 1. Gradient correctness
# -----------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    camera = Camera(np.eye(4), fx=20.0, fy=20.0, cx=7.5, cy=7.5, width=16, height=16)
    config = RenderConfig.exact()
    loss_cfg = LossConfig(lam=0.2)
    background = np.array([0.2, 0.3, 0.1])
    total = 0
    for seed in range(5):
        scene = random_scene(seed, 10)
        base = rasterize(scene, camera, background, config).image
        target = np.clip(base + 0.25, 0.0, 1.0)
        total += check_all_gradients(scene, camera, config, loss_cfg, background, target)
    elapsed = time.perf_counter() - started
    assert total == 5 * 10 * 59
    assert elapsed < 60.0
    report(1, f"{total} finite-difference gradient checks in {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 2. Schedule algebra
# -----------------------------------------------------------------------


def test_criterion_2_schedule_algebra():
    worst = 0.0
    for gamma in np.arange(0.0, 0.95, 0.1):
        for steps in range(1, 21):
            gi = per_iteration_fraction(gamma, steps)
            worst = max(worst, abs((1.0 - gi) ** steps - (1.0 - gamma)))
    assert worst < 1e-12
    assert per_iteration_fraction(0.75, 10) == pytest.approx(0.129449, abs=1e-6)
    report(2, f"compounding error {worst:.2e} over the gamma x steps grid")


# -----------------------------------------------------------------------
# 3. Mask oracle
# -----------------------------------------------------------------------


def test_criterion_3_mask_oracle():
    trials = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 1001))
        alpha = rng.uniform(0, 1, n)
        grads = rng.exponential(1.0, n)
        gamma = float(rng.uniform(0, 0.95))
        union = prune_mask(alpha, grads, gamma, PruneCriterion.GRADIENT_AWARE)[0]
        opacity = prune_mask(alpha, grads, gamma, PruneCriterion.OPACITY_ONLY)[0]
        np.testing.assert_array_equal(
            union, brute_force_keep(alpha, grads, gamma, PruneCriterion.GRADIENT_AWARE)
        )
        np.testing.assert_array_equal(
            opacity, brute_force_keep(alpha, grads, gamma, PruneCriterion.OPACITY_ONLY)
        )
        assert np.all(union | ~opacity), "gradient-aware keep-set must cover opacity keep-set"
        assert int((~opacity).sum()) == int(math.floor(gamma * n))
        trials += 1
    report(3, f"{trials} brute-force mask trials up to n=1000")


# -----------------------------------------------------------------------
# 4. Compositing conservation
# -----------------------------------------------------------------------


def test_criterion_4_compositing_conservation():
    camera = Camera(np.eye(4), fx=20.0, fy=20.0, cx=7.5, cy=7.5, width=16, height=16)
    exact = RenderConfig(sigma_cutoff=math.inf, alpha_skip=0.0, transmittance_floor=0.0)

    worst = 0.0
    for seed in range(3):
        scene = random_scene(seed, 20)
        white = scene.sh_coeffs.copy()
        white[:, 0, :] = (1.0 - 0.5) / SH_C0
        white[:, 1:, :] = 0.0
        out = rasterize(scene.with_updates(sh_coeffs=white), camera, np.zeros(3), exact)
        total = out.image[..., 0] + out.terminal_transmittance
        worst = max(worst, float(np.abs(total - 1.0).max()))
    assert worst < 1e-5

    from splatrim.core import opacity_logit

    a, b = 0.6, 0.3
    bg = np.array([0.2, 0.2, 0.5])
    two = scene_from_rows(
        [
            ((0, 0, 2.0), (1, 0, 0), opacity_logit(a), math.log(50.0)),
            ((0, 0, 3.0), (0, 1, 0), opacity_logit(b), math.log(50.0)),
        ]
    )
    out = rasterize(two, camera, bg, exact)
    expected = (
        np.array([1, 0, 0]) * a
        + np.array([0, 1, 0]) * b * (1 - a)
        + bg * (1 - a) * (1 - b)
    )
    deviation = float(np.abs(out.image[7, 7] - expected).max())
    assert deviation < 1e-6
    report(4, f"conservation residual {worst:.2e}; two-splat closed form within {deviation:.2e}")


# -----------------------------------------------------------------------
# 5, 7, 8: the desk-scale pipeline (shared run)
# -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    started = time.perf_counter()
    bench = build_benchmark(tmp_path_factory.mktemp("desk"), scene_seed=7, run_seed=1)
    schedule = PruneSchedule(
        gamma_target=0.5, steps=10, interval=50,
        criterion=PruneCriterion.GRADIENT_AWARE, finetune_iters=1000,
    )
    pruned, prune_report, _ = run_iterative_prune(
        bench.baseline, bench.train_views, schedule,
        BENCH_LOSS, BENCH_OPT, seed=2, render_cfg=BENCH_RENDER,
    )
    quality = evaluate(pruned, bench.test_views, BENCH_LOSS, BENCH_RENDER)
    return {
        "bench": bench,
        "pruned": pruned,
        "report": prune_report,
        "pruned_psnr": quality["psnr"],
        "elapsed": time.perf_counter() - started,
    }


@pytest.mark.slow
def test_criterion_5_desk_scale_end_to_end(desk):
    bench = desk["bench"]
    pruned = desk["pruned"]
    assert bench.baseline_psnr >= 30.0, "baseline quality bar"
    assert desk["pruned_psnr"] >= bench.baseline_psnr - 1.0, "quality retention"
    assert pruned.count <= 0.55 * bench.baseline.count, "sparsity target"
    assert desk["elapsed"] < 15 * 60
    report(
        5,
        f"baseline {bench.baseline_psnr:.2f} dB -> pruned {desk['pruned_psnr']:.2f} dB "
        f"at {pruned.count}/{bench.baseline.count} splats "
        f"(sparsity {desk['report'].achieved_sparsity:.3f}) in {desk['elapsed']:.0f}s",
    )


@pytest.mark.slow
def test_criterion_7_opacity_distribution_shift(desk):
    baseline_median = float(np.median(desk["bench"].baseline.activated_opacities()))
    pruned_median = float(np.median(desk["pruned"].activated_opacities()))
    assert pruned_median > baseline_median
    report(7, f"median opacity {baseline_median:.3f} -> {pruned_median:.3f}")


@pytest.mark.slow
def test_criterion_8_throughput_scaling(desk):
    bench = desk["bench"]
    camera = bench.test_views[0][0]

    def median_render_time(scene):
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            rasterize(scene, camera, np.zeros(3))
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    rasterize(bench.baseline, camera, np.zeros(3))  # warm-up render
    t_base = median_render_time(bench.baseline)
    t_pruned = median_render_time(desk["pruned"])
    assert t_pruned <= 0.75 * t_base
    report(
        8,
        f"median render {t_base * 1e3:.1f} ms -> {t_pruned * 1e3:.1f} ms "
        f"({t_pruned / t_base:.2f}x)",
    )


# -----------------------------------------------------------------------
# 6. Ablation orderings
# -----------------------------------------------------------------------


ABLATION_SEEDS = (11, 12, 13, 14, 15)
ABLATION_STEPS = 10
ABLATION_INTERVAL = 25
ABLATION_FINETUNE = 250
# Shallower junk profile than the criterion-5 run so the gamma=0.5 and 0.75
# cuts reach real contributors: the orderings under test are claims about
# the regime where pruning bites, not about removing dead weight.
ABLATION_DIM_FRACTION = 0.35


def _ablation_run(bench, gamma, mode, criterion, seed):
    if mode == "iterative":
        schedule = PruneSchedule(
            gamma_target=gamma, steps=ABLATION_STEPS, interval=ABLATION_INTERVAL,
            criterion=criterion, finetune_iters=ABLATION_FINETUNE,
        )
        pruned, _, _ = run_iterative_prune(
            bench.baseline, bench.train_views, schedule,
            BENCH_LOSS, BENCH_OPT, seed=seed, render_cfg=BENCH_RENDER,
        )
    else:
        pruned, _, _ = one_shot_prune(
            bench.baseline, bench.train_views, gamma,
            ABLATION_STEPS * ABLATION_INTERVAL + ABLATION_FINETUNE,
            criterion=criterion, loss_cfg=BENCH_LOSS, opt_cfg=BENCH_OPT,
            seed=seed, render_cfg=BENCH_RENDER,
        )
    return evaluate(pruned, bench.test_views, BENCH_LOSS, BENCH_RENDER)["psnr"]


@pytest.mark.slow
def test_criterion_6_ablation_orderings(tmp_path):
    iterative_05, oneshot_05 = [], []
    gradient_075, opacity_075 = [], []
    for i, seed in enumerate(ABLATION_SEEDS):
        bench = build_benchmark(
            tmp_path / f"seed{seed}", scene_seed=seed, run_seed=seed,
            dim_fraction=ABLATION_DIM_FRACTION,
        )
        iterative_05.append(
            _ablation_run(bench, 0.5, "iterative", PruneCriterion.GRADIENT_AWARE, seed)
        )
        oneshot_05.append(
            _ablation_run(bench, 0.5, "oneshot", PruneCriterion.GRADIENT_AWARE, seed)
        )
        gradient_075.append(
            _ablation_run(bench, 0.75, "iterative", PruneCriterion.GRADIENT_AWARE, seed)
        )
        opacity_075.append(
            _ablation_run(bench, 0.75, "iterative", PruneCriterion.OPACITY_ONLY, seed)
        )
    med = lambda xs: float(np.median(xs))
    assert med(iterative_05) >= med(oneshot_05), (iterative_05, oneshot_05)
    assert med(gradient_075) >= med(opacity_075), (gradient_075, opacity_075)
    report(
        6,
        f"gamma=0.5 iterative {med(iterative_05):.2f} dB >= one-shot {med(oneshot_05):.2f} dB; "
        f"gamma=0.75 gradient-aware {med(gradient_075):.2f} dB >= "
        f"opacity-only {med(opacity_075):.2f} dB (medians over 5 seeds)",
    )


# -----------------------------------------------------------------------
# 9. Size accounting
# -----------------------------------------------------------------------


def test_criterion_9_size_accounting(tmp_path):
    for n in (0, 1, 5, 64):
        scene = random_scene(0, n) if n else GaussianSet.empty()
        path = tmp_path / f"n{n}.ply"
        write_ply(scene, path)
        size = len(path.read_bytes())
        assert size == len(ply_header_bytes(n)) + 248 * n
        assert size == model_size_bytes(scene)
    ratio = compression_ratio(795.263, 20.057)
    assert ratio == pytest.approx(39.65, abs=0.01)
    report(9, f"serialized size = header + 248*N; reference ratio {ratio:.3f}x")


# -----------------------------------------------------------------------
# 10. Interchange
# -----------------------------------------------------------------------


def test_criterion_10_interchange(tmp_path):
    scene = random_scene(1, 33)
    first = tmp_path / "a.ply"
    second = tmp_path / "b.ply"
    write_ply(scene, first)
    write_ply(read_ply(first), second)
    assert first.read_bytes() == second.read_bytes()

    broken = tmp_path / "broken.ply"
    data = first.read_bytes().replace(b"property float opacity\n", b"")
    broken.write_bytes(data)
    with pytest.raises(PlySchemaError):
        read_ply(broken)
    report(10, "write-read-write byte-identical; malformed header raises a schema error")
