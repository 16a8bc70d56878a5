"""The benchmark's three workloads, their correctness checks and metrics.

Each workload has a set-up (input generation, timed into ``setup_s``), a
repetition (the unit of measured work, repeated until the run's seconds
are used) and a finish (quality figures and the checks that need every
repetition). The benchmark calls only the package's public functions; it
calls them through their modules so that a traced run sees them.

``op`` in the end-to-end metric names is the workload's unit operation:
one ``finetune_step`` call of the baseline phase on finetune-desk, one
``rasterize`` call on render-dense, one write -> read -> prune -> write cycle
on scene-io.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import splatrim
from splatrim import prune, render, sceneio, train
from splatrim.metrics import compression_ratio, model_size_bytes, psnr
from splatrim.prune import PruneCriterion, PruneSchedule, per_iteration_fraction
from splatrim.render import RenderConfig

from .inputs import (
    BACKGROUND,
    CLOSEUP_FOCAL_SCALE,
    DESK_LOSS,
    DESK_OPT,
    DESK_RENDER,
    GAMMA_TARGET,
    SCORE_SIGMA,
    Seeds,
    gradient_scores,
    pretrained_style_init,
    synthetic,
)
from .tracer import Tracer

# Unpatched references for the checks, so a traced run never records them.
_prune_mask = prune.prune_mask
_read_ply = sceneio.read_ply
GRADIENT = PruneCriterion.GRADIENT_AWARE

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "psnr_db": "dB",
    "compression_ratio": "ratio",
}

PER_LAYER = {
    "render.forward_ms": "ms",
    "render.backward_ms": "ms",
    "render.project_ms": "ms",
    "render.visible": "count",
    "render.tiles": "count",
    "render.pairs": "count",
    "render.k_max": "count",
    "render.alpha_evals": "count",
    "metrics.loss_ms": "ms",
    "train.step_ms": "ms",
    "train.step_self_ms": "ms",
    "train.adam_ms": "ms",
    "train.prune_event_ms": "ms",
    "train.loop_self_ms": "ms",
    "prune.mask_ms": "ms",
    "prune.apply_ms": "ms",
    "prune.kept": "count",
    "prune.removed": "count",
    "prune.rescued": "count",
    "prune.zero_score_frac": "fraction",
    "prune.ties_at_threshold": "count",
    "prune.sparsity_gap": "fraction",
    "sceneio.read_ply_ms": "ms",
    "sceneio.write_ply_ms": "ms",
    "sceneio.read_mb_s": "MB/s",
    "sceneio.write_mb_s": "MB/s",
    "sceneio.make_synthetic_ms": "ms",
    "sceneio.load_dataset_ms": "ms",
    "trace.overhead_frac": "fraction",
}

# Input generation is repeated and its median reported, so that set-up time
# is steady enough to compare between commits.
SETUP_REPEATS = 3

# The acceptance bars (criterion 5) on finetune-desk, checked at its shortened
# schedule; render-dense targets are 8-bit quantized renders of the same scene.
MAX_PSNR_DROP_DB = 1.0
MAX_KEPT_FRAC = 0.55
MIN_TARGET_DB = 50.0


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeskSize:
    n_gaussians: int = 2000
    n_views: int = 8          # every 4th is a test view: 6 train, 2 test
    image_size: int = 64
    baseline_iters: int = 200
    events: int = 10
    interval: int = 10
    finetune_iters: int = 50
    min_baseline_db: float = 30.0  # criterion 5 asks 30 dB; the tiny scene reaches less


@dataclass(frozen=True)
class RenderDenseSize:
    n_gaussians: int = 10_000
    n_views: int = 8
    image_size: int = 128


@dataclass(frozen=True)
class SceneIOSize:
    n_gaussians: int = 100_000
    events: int = 10           # cycles per repetition, each at the schedule's gamma_iter
    closeup_views: int = 48
    closeup_size: int = 12


FULL = {
    "finetune-desk": DeskSize(),
    "render-dense": RenderDenseSize(),
    "scene-io": SceneIOSize(),
}


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


@dataclass
class Ops:
    """Unit-operation timings and the failure count behind failed/attempted."""

    ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


def _as_mask(result) -> np.ndarray:
    """``prune_mask`` may return the mask or a tuple that starts with it."""
    return np.asarray(result[0] if isinstance(result, tuple) else result)


def oracle_threshold(values: np.ndarray, fraction: float) -> float:
    """The benchmark's own lower quantile: sorted[floor(fraction * n)]."""
    k = math.floor(fraction * values.size)
    return -math.inf if k == 0 else float(np.sort(values)[k])


def mean_psnr(scene, views, config) -> float:
    return float(np.mean([
        psnr(render.rasterize(scene, camera, BACKGROUND, config).image, target)
        for camera, target in views
    ]))


@contextmanager
def step_timer(ms: list):
    """Time every ``train.finetune_step`` call with one perf_counter pair."""
    original = train.finetune_step

    def timed(*args, **kwargs):
        t0 = perf_counter()
        result = original(*args, **kwargs)
        ms.append((perf_counter() - t0) * 1e3)
        return result

    train.finetune_step = timed
    try:
        yield
    finally:
        train.finetune_step = original


def _report_exception(ops: Ops, n: int) -> None:
    traceback.print_exc(file=sys.stderr)
    exc = sys.exc_info()[1]
    ops.fail(n, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# finetune-desk
# ---------------------------------------------------------------------------


@dataclass
class DeskOutput:
    baseline_db: float
    pruned_db: float
    baseline_count: int
    pruned_count: int
    report: list


class FinetuneDesk:
    """Baseline fine-tune, gradient-aware iterative prune to gamma 0.5, test PSNR."""

    def __init__(self, size: DeskSize):
        self.size = size

    def setup(self, work: Path, seeds: Seeds):
        s = self.size
        scene, train_views, test_views = synthetic(
            work, seeds.scene, s.n_gaussians, s.n_views, s.image_size
        )
        start = pretrained_style_init(scene, train_views + test_views, seeds.init)
        return start, train_views, test_views, seeds

    def rep(self, inputs, ops: Ops, tracer: Tracer | None):
        start, train_views, test_views, seeds = inputs
        s = self.size
        scheduled = s.baseline_iters + s.events * s.interval + s.finetune_iters
        ops.attempted += scheduled
        steps = []
        try:
            with step_timer(steps):
                baseline, run0 = train.finetune(
                    start, train_views, s.baseline_iters, DESK_LOSS, DESK_OPT,
                    seed=seeds.baseline, render_cfg=DESK_RENDER,
                )
                baseline_db = mean_psnr(baseline, test_views, DESK_RENDER)
                schedule = PruneSchedule(
                    gamma_target=GAMMA_TARGET, steps=s.events, interval=s.interval,
                    criterion=GRADIENT, finetune_iters=s.finetune_iters,
                )
                pruned, report, run = train.run_iterative_prune(
                    baseline, train_views, schedule, DESK_LOSS, DESK_OPT,
                    seed=seeds.pipeline, render_cfg=DESK_RENDER,
                )
                pruned_db = mean_psnr(pruned, test_views, DESK_RENDER)
        except Exception:  # a diverged or broken run fails its remaining steps
            _report_exception(ops, scheduled - len(steps))
            return None
        # The percentiles take the baseline steps alone: they all run on the
        # full scene, while pipeline steps speed up as pruning shrinks it, and
        # a median over both groups jumps between them with machine load.
        ops.ms += steps[: s.baseline_iters]
        checks = [
            (len(run0.history) == s.baseline_iters, "baseline history length"),
            (len(run.history) == s.events * s.interval + s.finetune_iters,
             "pipeline history length"),
            (baseline_db >= s.min_baseline_db,
             f"baseline {baseline_db:.3f} dB < {s.min_baseline_db} dB"),
            (pruned_db >= baseline_db - MAX_PSNR_DROP_DB,
             f"pruned {pruned_db:.3f} dB < baseline {baseline_db:.3f} - {MAX_PSNR_DROP_DB} dB"),
            (pruned.count <= MAX_KEPT_FRAC * baseline.count,
             f"kept {pruned.count} > {MAX_KEPT_FRAC} x {baseline.count}"),
        ]
        for ok, why in checks:
            if not ok:
                ops.fail(1, why)
        records = [asdict(r) for r in report.records]
        return DeskOutput(baseline_db, pruned_db, baseline.count, pruned.count, records)

    def finish(self, inputs, outputs: list, ops: Ops) -> dict:
        first = outputs[0]
        for out in outputs[1:]:
            if (out.pruned_db, out.pruned_count) != (first.pruned_db, first.pruned_count):
                ops.fail(1, "repetitions of the pipeline disagree")
        return {
            "psnr_db": first.pruned_db,
            "compression_ratio": compression_ratio(
                model_size_bytes(first.baseline_count), model_size_bytes(first.pruned_count)
            ),
        }


# ---------------------------------------------------------------------------
# render-dense
# ---------------------------------------------------------------------------


class RenderDense:
    """Forward renders of the dense generator scene at the default config."""

    config = RenderConfig()

    def __init__(self, size: RenderDenseSize):
        self.size = size

    def setup(self, work: Path, seeds: Seeds):
        s = self.size
        scene, train_views, test_views = synthetic(
            work, seeds.scene, s.n_gaussians, s.n_views, s.image_size
        )
        return {"scene": scene, "views": train_views + test_views, "first": None}

    def rep(self, inputs, ops: Ops, tracer: Tracer | None):
        rasterize = render.rasterize
        if tracer is not None:
            rasterize = tracer.wrap(rasterize, "render.forward", forward_probe)
        images, dbs = [], []
        for k, (camera, target) in enumerate(inputs["views"]):
            ops.attempted += 1
            try:
                t0 = perf_counter()
                out = rasterize(inputs["scene"], camera, BACKGROUND, self.config)
                ops.ms.append((perf_counter() - t0) * 1e3)
            except Exception:
                _report_exception(ops, 1)
                return None
            db = psnr(out.image, target)
            if db < MIN_TARGET_DB:
                ops.fail(1, f"view {k}: {db:.2f} dB against its target")
            elif inputs["first"] is not None and not np.array_equal(
                out.image, inputs["first"][0][k]
            ):
                ops.fail(1, f"view {k}: re-render is not bitwise identical")
            images.append(out.image)
            dbs.append(db)
        if inputs["first"] is None:
            inputs["first"] = (images, dbs)
        return dbs

    def finish(self, inputs, outputs: list, ops: Ops) -> dict:
        images, dbs = inputs["first"]
        if len(outputs) < 2:
            camera = inputs["views"][0][0]
            again = render.rasterize(inputs["scene"], camera, BACKGROUND, self.config)
            if not np.array_equal(again.image, images[0]):
                ops.fail(1, "view 0: re-render is not bitwise identical")
        size = model_size_bytes(inputs["scene"])
        return {"psnr_db": float(np.mean(dbs)), "compression_ratio": compression_ratio(size, size)}


# ---------------------------------------------------------------------------
# scene-io
# ---------------------------------------------------------------------------


def _split_ply(data: bytes) -> tuple[bytes, bytes]:
    end = data.index(b"end_header\n") + len(b"end_header\n")
    return data[:end], data[end:]


def _file_rotations(scene) -> np.ndarray:
    """The quaternions ``write_ply`` puts in the file."""
    return scene.rotations if scene.rotations_raw is None else scene.rotations_raw


def same_scene(a, b) -> bool:
    """Every ``GaussianSet`` field of ``a`` and ``b`` agrees.

    The file quaternions must be equal; the normalized in-memory ones only to
    float32 rounding, as ``read_ply`` normalizes them again.
    """
    return (
        a.count == b.count
        and np.array_equal(a.positions, b.positions)
        and np.array_equal(a.log_scales, b.log_scales)
        and np.array_equal(a.opacity_logits, b.opacity_logits)
        and np.array_equal(a.sh_coeffs, b.sh_coeffs)
        and np.array_equal(_file_rotations(a), _file_rotations(b))
        and np.allclose(a.rotations, b.rotations, rtol=0.0, atol=1e-6)
    )


class SceneIO:
    """Write -> read -> prune -> write cycles over a 10-event schedule."""

    def __init__(self, size: SceneIOSize):
        self.size = size

    def setup(self, work: Path, seeds: Seeds):
        s = self.size
        # Two tiny views: the generator needs them, this workload renders nothing.
        scene, _ = sceneio.make_synthetic(
            work, seed=seeds.scene, n_gaussians=s.n_gaussians, n_views=2, image_size=2
        )
        return {"scene": scene, "seed": seeds.scores, "work": work}

    def rep(self, inputs, ops: Ops, tracer: Tracer | None):
        s = self.size
        gamma_iter = per_iteration_fraction(GAMMA_TARGET, s.events)
        scene = inputs["scene"]
        previous = None  # the bytes of the last cycle's output file
        for event in range(s.events):
            ops.attempted += 1
            scores = gradient_scores(inputs["seed"], event, scene)
            # Fresh names: rewriting an existing file would make the
            # filesystem flush on close, and the timings follow the disk.
            src, dst = (inputs["work"] / f"{event}-{name}.ply" for name in ("in", "out"))
            try:
                t0 = perf_counter()
                sceneio.write_ply(scene, src)
                loaded = sceneio.read_ply(src)
                opacities = loaded.activated_opacities()
                keep = _as_mask(prune.prune_mask(opacities, scores, gamma_iter, GRADIENT))
                # Absent once prune_mask returns its own thresholds.
                thresholds = getattr(prune, "mask_thresholds", None)
                if thresholds is not None:
                    thresholds(opacities, scores, gamma_iter, GRADIENT)
                pruned = prune.apply_mask(loaded, keep)
                sceneio.write_ply(pruned, dst)
                ops.ms.append((perf_counter() - t0) * 1e3)
                # The next cycle starts from the output read back, so its
                # first write closes a write -> read -> write round trip.
                reread = _read_ply(dst)
            except Exception:
                _report_exception(ops, 1)
                return None
            written, rewritten = src.read_bytes(), dst.read_bytes()
            src.unlink()
            dst.unlink()
            problems = self.check_cycle(
                scene, loaded, opacities, scores, gamma_iter, keep, pruned, reread,
                written, rewritten, previous,
            )
            if problems:
                ops.fail(1, "; ".join(problems))
            previous = rewritten
            scene = reread
        return scene

    @staticmethod
    def check_cycle(scene, loaded, opacities, scores, gamma_iter, keep, pruned, reread,
                    written, rewritten, previous) -> list[str]:
        problems = []
        if previous is not None and written != previous:
            problems.append("write -> read -> write changed the bytes")
        if not same_scene(loaded, scene):
            problems.append("read_ply did not return what write_ply wrote")
        if not same_scene(reread, pruned):
            problems.append("read_ply of the pruned file differs from the pruned scene")
        head_in, body_in = _split_ply(written)
        head_out, body_out = _split_ply(rewritten)
        rows = np.frombuffer(body_in, np.uint8).reshape(scene.count, -1)
        kept = int(keep.sum())
        if body_out != rows[keep].tobytes():
            problems.append("pruned file is not the kept rows of its input")
        expected_head = head_in.replace(
            f"element vertex {scene.count}\n".encode(), f"element vertex {kept}\n".encode()
        )
        if head_out != expected_head:
            problems.append("pruned file header")
        if pruned.count != kept:
            problems.append(f"apply_mask kept {pruned.count}, mask sum {kept}")
        k = math.floor(gamma_iter * opacities.size)
        ordered = np.sort(opacities)
        op_thr = -math.inf if k == 0 else ordered[k]
        expected = (opacities >= op_thr) | (scores >= oracle_threshold(scores, gamma_iter))
        if not np.array_equal(keep, expected):
            problems.append("gradient-aware mask differs from the quantile oracle")
        only = _as_mask(_prune_mask(opacities, None, gamma_iter, PruneCriterion.OPACITY_ONLY))
        removed = int((~only).sum())
        below = int((opacities < op_thr).sum())
        tie = k > 0 and ordered[k - 1] == op_thr
        if removed != below or (not tie and removed != k):
            problems.append(f"opacity-only removed {removed}, expected floor(gamma N) = {k}")
        return problems

    def finish(self, inputs, outputs: list, ops: Ops) -> dict:
        final = outputs[0]
        if any(out.count != final.count for out in outputs[1:]):
            ops.fail(1, "repetitions disagree on the final count")
        # Image cost of one schedule's pruning with no fine-tune, on close-ups
        # around the ring. A close-up's PSNR varies by about 1.5 dB from view
        # to view, so many views are needed to steady the mean across seeds;
        # per second of rendering, small views steady it more than large ones.
        s = self.size
        cameras = sceneio.ring_cameras(
            s.closeup_views, s.closeup_size, focal_scale=CLOSEUP_FOCAL_SCALE
        )
        dbs = [
            psnr(render.rasterize(final, camera, BACKGROUND).image,
                 render.rasterize(inputs["scene"], camera, BACKGROUND).image)
            for camera in cameras
        ]
        return {
            "psnr_db": float(np.mean(dbs)),
            "compression_ratio": compression_ratio(
                model_size_bytes(inputs["scene"]), model_size_bytes(final)
            ),
        }


WORKLOADS = {"finetune-desk": FinetuneDesk, "render-dense": RenderDense, "scene-io": SceneIO}


# ---------------------------------------------------------------------------
# Tracing: probes and the wrap targets
# ---------------------------------------------------------------------------


def forward_probe(rec, args, kwargs, out) -> None:
    """Counts for one rasterize call, plus a side ``project`` call timed alone."""
    scene, camera = args[0], args[1]
    config = (args[3] if len(args) > 3 else kwargs.get("config")) or RenderConfig()
    attrs = rec["attrs"]
    t0 = perf_counter()
    projected = render.project(scene, camera, config)
    attrs["project_s"] = perf_counter() - t0
    attrs["visible"] = int(np.count_nonzero(projected.visible))
    lists = getattr(out, "sorted_contributor_lists", None)
    if lists is None:
        return
    ts = config.tile_size
    sizes = [(len(m), min(ts, camera.height - ty * ts) * min(ts, camera.width - tx * ts))
             for (ty, tx), m in lists.items()]
    attrs["tiles"] = len(sizes)
    attrs["pairs"] = sum(k for k, _ in sizes)
    attrs["k_max"] = max((k for k, _ in sizes), default=0)
    attrs["alpha_evals"] = sum(k * p for k, p in sizes)


def mask_probe(rec, args, kwargs, result) -> None:
    """Why one prune event kept what it kept, from its inputs and mask."""
    opacities = np.asarray(args[0], np.float64)
    scores = args[1] if len(args) > 1 else kwargs.get("grad_scores")
    gamma_iter = float(args[2] if len(args) > 2 else kwargs["gamma_iter"])
    keep = _as_mask(result)
    op_thr = oracle_threshold(opacities, gamma_iter)
    attrs = rec["attrs"]
    attrs.update(
        gamma_iter=gamma_iter,
        n=int(opacities.size),
        kept=int(keep.sum()),
        removed=int((~keep).sum()),
        rescued=int((keep & (opacities < op_thr)).sum()),
        zero_scores=0,
        ties_at_threshold=0,
    )
    if scores is not None:
        scores = np.asarray(scores, np.float64)
        gr_thr = oracle_threshold(scores, gamma_iter)
        attrs["zero_scores"] = int(np.count_nonzero(scores == 0.0))
        if math.isfinite(gr_thr):  # other scores equal to the threshold score
            attrs["ties_at_threshold"] = int(np.count_nonzero(scores == gr_thr)) - 1


def thresholds_probe(rec, args, kwargs, result) -> None:
    rec["attrs"]["thresholds"] = [float(v) for v in result]


def _ply_probe(path_index: int):
    def probe(rec, args, kwargs, result) -> None:
        path = args[path_index] if len(args) > path_index else kwargs["path"]
        rec["attrs"]["bytes"] = os.path.getsize(path)

    return probe


def install(tracer: Tracer) -> None:
    """Wrap the package functions as ``splatrim.train`` and ``splatrim.sceneio`` see them."""
    for attr, name, after in (
        ("finetune_step", "train.step", None),
        ("run_iterative_prune", "train.loop", None),
        ("rasterize", "render.forward", forward_probe),
        ("rasterize_backward", "render.backward", None),
        ("training_loss", "metrics.loss", None),
        ("prune_mask", "prune.mask", mask_probe),
        ("mask_thresholds", "prune.thresholds", thresholds_probe),
        ("apply_mask", "prune.apply", None),
    ):
        tracer.patch(train, attr, name, after)
    # scene-io calls the prune functions itself, through their own module.
    for attr, name, after in (
        ("prune_mask", "prune.mask", mask_probe),
        ("mask_thresholds", "prune.thresholds", thresholds_probe),
        ("apply_mask", "prune.apply", None),
    ):
        tracer.patch(prune, attr, name, after)
    tracer.patch(train.OptimizerState, "step", "train.adam")
    tracer.patch(train.OptimizerState, "filter", "train.filter")
    tracer.patch(sceneio, "read_ply", "sceneio.read_ply", _ply_probe(0))
    tracer.patch(sceneio, "write_ply", "sceneio.write_ply", _ply_probe(1))
    tracer.patch(sceneio, "make_synthetic", "sceneio.make_synthetic")
    tracer.patch(sceneio, "load_dataset", "sceneio.load_dataset")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer: Tracer, overhead: float) -> dict:
    """Per-call means (0 where a span never ran); counts divide exact integer sums."""
    spans = tracer.spans
    dur = [Tracer.duration(s) for s in spans]
    self_t = tracer.self_times()

    def ms(name):
        return 1e3 * _mean(d for s, d in zip(spans, dur) if s["name"] == name)

    forwards = [s["attrs"] for s in spans if s["name"] == "render.forward"]

    def count(key):
        return _mean(a[key] for a in forwards if key in a)

    # A prune event: one prune.mask span plus the threshold, apply and
    # optimizer-filter spans that follow it under the same parent. Events at
    # gamma_iter 0 remove nothing and are left out.
    events, current = [], None
    for s, d in zip(spans, dur):
        if s["name"] == "prune.mask":
            current = {"parent": s["parent"], "mask": d, "other": 0.0, "apply": 0.0, **s["attrs"]}
            if current.get("gamma_iter", 0.0) > 0.0:
                events.append(current)
        elif current is not None and s["parent"] == current["parent"]:
            if s["name"] == "prune.thresholds":
                current["mask"] += d
            elif s["name"] == "prune.apply":
                current["apply"] += d
            elif s["name"] == "train.filter":
                current["other"] += d
    loops = {i for i, s in enumerate(spans) if s["name"] == "train.loop"}
    train_events = [e for e in events if e["parent"] in loops]
    loop_iters = sum(1 for s in spans if s["name"] == "train.step" and s["parent"] in loops)

    def io_rate(name):
        recs = [(s["attrs"].get("bytes", 0), d) for s, d in zip(spans, dur) if s["name"] == name]
        secs = sum(d for _, d in recs)
        return sum(b for b, _ in recs) / secs / 1e6 if secs > 0 else 0.0

    return {
        "render.forward_ms": ms("render.forward"),
        "render.backward_ms": ms("render.backward"),
        "render.project_ms": 1e3 * _mean(a["project_s"] for a in forwards),
        "render.visible": count("visible"),
        "render.tiles": count("tiles"),
        "render.pairs": count("pairs"),
        "render.k_max": count("k_max"),
        "render.alpha_evals": count("alpha_evals"),
        "metrics.loss_ms": ms("metrics.loss"),
        "train.step_ms": ms("train.step"),
        "train.step_self_ms": 1e3 * _mean(
            t for s, t in zip(spans, self_t) if s["name"] == "train.step"
        ),
        "train.adam_ms": ms("train.adam"),
        "train.prune_event_ms": 1e3 * _mean(
            e["mask"] + e["apply"] + e["other"] for e in train_events
        ),
        "train.loop_self_ms": 1e3 * sum(self_t[i] for i in loops) / loop_iters
        if loop_iters else 0.0,
        "prune.mask_ms": 1e3 * _mean(e["mask"] for e in events),
        "prune.apply_ms": 1e3 * _mean(e["apply"] for e in events),
        "prune.kept": _mean(e["kept"] for e in events),
        "prune.removed": _mean(e["removed"] for e in events),
        "prune.rescued": _mean(e["rescued"] for e in events),
        "prune.zero_score_frac": _mean(e["zero_scores"] / e["n"] for e in events),
        "prune.ties_at_threshold": _mean(e["ties_at_threshold"] for e in events),
        "prune.sparsity_gap": _mean(e["gamma_iter"] - e["removed"] / e["n"] for e in events),
        "sceneio.read_ply_ms": ms("sceneio.read_ply"),
        "sceneio.write_ply_ms": ms("sceneio.write_ply"),
        "sceneio.read_mb_s": io_rate("sceneio.read_ply"),
        "sceneio.write_mb_s": io_rate("sceneio.write_ply"),
        "sceneio.make_synthetic_ms": ms("sceneio.make_synthetic"),
        "sceneio.load_dataset_ms": ms("sceneio.load_dataset"),
        "trace.overhead_frac": overhead,
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _filesystem(path: Path) -> str:
    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _reps(workload, inputs, ops: Ops, seconds: float, tracer: Tracer | None):
    """Repeat the workload's unit until ``seconds`` are used (at least once).

    Also returns the peak RSS in MB after the first unit. Heap fragmentation
    raises the peak a little with every further unit, so a later reading
    would grow with the number of units a run has time for.
    """
    outputs, walls = [], []
    peak_mb = None
    began = perf_counter()
    while True:
        t0 = perf_counter()
        out = workload.rep(inputs, ops, tracer)
        walls.append(perf_counter() - t0)
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if out is None:
            return outputs, walls, False, peak_mb
        outputs.append(out)
        elapsed = perf_counter() - began
        if elapsed + statistics.mean(walls) > seconds:
            return outputs, walls, True, peak_mb


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict,
        run_root: Path, started: float) -> tuple[dict, dict]:
    """One benchmark run: returns (result line, context record)."""
    size = sizes[name]
    workload = WORKLOADS[name](size)
    seeds = Seeds.of(seed)
    run_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run_root))
    ops = Ops()
    tracer = Tracer() if trace else None
    try:
        first_setup = perf_counter()
        setup_times = []
        if tracer:
            install(tracer)
        try:
            for i in range(SETUP_REPEATS):
                t0 = perf_counter()
                inputs = workload.setup(work / f"setup{i}", seeds)
                setup_times.append(perf_counter() - t0)
        finally:
            if tracer:
                tracer.restore()
        setup_s = (first_setup - started) + statistics.median(setup_times)

        budget = seconds / 2 if trace else seconds
        outputs, walls, ok, peak_rss_mb = _reps(workload, inputs, ops, budget, None)
        overhead = 0.0
        if trace and ok:
            install(tracer)
            try:
                traced_outputs, traced_walls, ok, _ = _reps(
                    workload, inputs, ops, budget, tracer
                )
            finally:
                tracer.restore()
            outputs += traced_outputs
            overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        quality = workload.finish(inputs, outputs, ops) if ok else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops.failed = min(ops.failed, ops.attempted)
    if tracer:
        metrics = per_layer(tracer, overhead)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "op_ms_p50": _percentile(ops.ms, 50),
            "op_ms_p90": _percentile(ops.ms, 90),
            "peak_rss_mb": peak_rss_mb,
            "psnr_db": quality.get("psnr_db", 0.0),
            "compression_ratio": quality.get("compression_ratio", 0.0),
        }
        units = END_TO_END
    result = {
        "correct": ok and ops.failed == 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    context = {
        "workload": name,
        "seed": seed,
        "seeds": asdict(seeds),
        "seconds": seconds,
        "trace": trace,
        "size": asdict(size),
        "configs": {
            "desk_render": asdict(DESK_RENDER),
            "desk_optimizer": asdict(DESK_OPT),
            "desk_loss": asdict(DESK_LOSS),
            "render_dense_render": asdict(RenderDense.config),
        },
        "constants": {
            "gamma_target": GAMMA_TARGET,
            "score_sigma": SCORE_SIGMA,
            "closeup_focal_scale": CLOSEUP_FOCAL_SCALE,
            "max_psnr_drop_db": MAX_PSNR_DROP_DB,
            "max_kept_frac": MAX_KEPT_FRAC,
            "min_target_db": MIN_TARGET_DB,
        },
        "setup_repeats": SETUP_REPEATS,
        "setup_times_s": setup_times,
        "repetitions": len(outputs),
        "untraced_rep_walls_s": walls,
        "op_samples": len(ops.ms),
        "problems": ops.problems,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "splatrim": splatrim.__version__,
        "blas_threads": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "scene_io_filesystem": _filesystem(run_root),
    }
    if tracer:
        context["trace_file"] = str(run_root / f"trace-{name}-seed{seed}.json")
        reports = [o.report for o in outputs if isinstance(o, DeskOutput)]
        tracer.dump(
            context["trace_file"],
            {"context": context, "metrics": metrics, "prune_reports": reports},
        )
    return result, context
