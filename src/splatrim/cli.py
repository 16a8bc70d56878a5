"""Command-line interface.

Subcommands: synth (generate a synthetic benchmark), trim (iterative prune +
fine-tune), render, eval (scene vs baseline), stats (opacity histograms),
ablate (prune-variant grid). Every command is deterministic for a fixed seed;
the only non-reproducible output field is the runtime column of ``ablate``.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .errors import SplatError
from .metrics import SSIM_WINDOW, LossConfig, compression_ratio, model_size_bytes
from .prune import PruneCriterion, PruneSchedule, PruneStepRecord
from .render import rasterize
from .sceneio import (
    atomic_write, load_dataset, make_synthetic, read_ply, write_ply, write_ppm,
)
from .train import (
    BACKGROUND,
    HistoryEntry,
    OptimizerConfig,
    evaluate,
    load_run_config,
    one_shot_prune,
    run_iterative_prune,
)

PRESETS = {
    "desk": {"interval": 50, "steps": 10, "finetune_iters": 1000},
    "paper": {"interval": 500, "steps": 10, "finetune_iters": 10000},
}

# Run settings used where neither a flag nor a --config file sets them.
RUN_DEFAULTS = {
    "gamma_target": 0.5,
    "criterion": PruneCriterion.GRADIENT_AWARE.value,
    "preset": "desk",
    "lam": 0.2,
    "seed": 0,
}


def _write_csv(path, rows) -> None:
    """Stream dict rows to a CSV file, the header from the first row's keys
    and floats to six decimals."""
    with atomic_write(path, text=True, newline="") as f:
        writer = None
        for row in rows:
            if writer is None:
                writer = csv.DictWriter(f, fieldnames=list(row))
                writer.writeheader()
            writer.writerow({k: f"{v:.6f}" if isinstance(v, float) else v for k, v in row.items()})


def _schedule_fields(args, preset: str) -> dict:
    """A preset's interval, steps and finetune_iters, overridden by explicit flags."""
    chosen = dict(PRESETS[preset])
    for key in chosen:
        value = getattr(args, key)
        if value is not None:
            chosen[key] = value
    return chosen


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _check_seed(seed: int, where: str) -> None:
    if seed < 0:
        raise SplatError(f"{where} must be >= 0, got {seed}")


def cmd_synth(args) -> int:
    _check_seed(args.seed, "--seed")
    scene, manifest = make_synthetic(
        args.out, seed=args.seed, n_gaussians=args.gaussians,
        n_views=args.views, image_size=args.size,
    )
    print(f"wrote {scene.count} Gaussians and {args.views} views under {args.out}")
    print(f"manifest: {manifest}")
    return 0


def _config_value(key: str, text: str, path, flag: argparse.Action | None):
    """A --config value, converted and checked as its trim ``flag`` would;
    a learning rate, which has no flag, is a float."""
    kind = float if flag is None else flag.type or str
    try:
        value = kind(text)
    except ValueError:
        raise SplatError(
            f"config key {key!r} in {path}: {text!r} is not a valid {kind.__name__}"
        ) from None
    if flag is not None and flag.choices is not None and value not in flag.choices:
        raise SplatError(
            f"config key {key!r} in {path}: {text!r} is not one of {', '.join(flag.choices)}"
        )
    if key == "seed":
        _check_seed(value, f"config key 'seed' in {path}")
    return value


def _apply_run_config(args) -> OptimizerConfig | None:
    """Fill the trim settings no flag set: from --config first, then RUN_DEFAULTS.

    A config key is the ``dest`` of a trim flag (``args.settings``) or an
    ``OptimizerConfig`` field.
    """
    config = load_run_config(args.config) if args.config else {}
    known = set(args.settings) | {f.name for f in fields(OptimizerConfig)}
    unknown = sorted(set(config) - known)
    if unknown:
        raise SplatError(f"unknown config key {unknown[0]!r} in {args.config}")
    values = {k: _config_value(k, v, args.config, args.settings.get(k)) for k, v in config.items()}
    lr_overrides = {k: values.pop(k) for k in list(values) if k not in args.settings}
    for key, value in {**RUN_DEFAULTS, **values}.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return OptimizerConfig(**lr_overrides) if lr_overrides else None


def _check_outputs(outputs: dict, inputs) -> None:
    """Refuse, before any work, an output path that names one of the inputs
    or sits in a directory that does not exist; ``None`` outputs are unset."""
    sources = {Path(p).resolve(): p for p in inputs}
    for flag, out in outputs.items():
        if out is None:
            continue
        src = sources.get(Path(out).resolve())
        if src is not None:
            raise SplatError(f"output {out} would overwrite the input {src}")
        if not Path(out).parent.is_dir():
            raise SplatError(f"{flag} {out}: directory {Path(out).parent} does not exist")


def _load_test_views(manifest):
    """The test split, refused before any run if a view is too small to score."""
    views = load_dataset(manifest, split="test")
    for camera, _ in views:
        if min(camera.width, camera.height) < SSIM_WINDOW:
            raise SplatError(
                f"{manifest}: test view of {camera.width}x{camera.height} pixels is "
                f"smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
            )
    return views


def cmd_trim(args) -> int:
    if args.seed is not None:
        _check_seed(args.seed, "--seed")
    opt_cfg = _apply_run_config(args)
    if args.scene is None or args.manifest is None or args.out_scene is None:
        raise SplatError("scene, manifest, and out-scene are required (flag or config)")
    loss_cfg = LossConfig(lam=args.lam)
    schedule = PruneSchedule(
        gamma_target=args.gamma_target,
        criterion=PruneCriterion(args.criterion),
        **_schedule_fields(args, args.preset),
    )
    _check_outputs(
        {"--out-scene": args.out_scene, "--report": args.report, "--history": args.history},
        (args.scene, args.manifest),
    )
    # resolve every input before the long run
    scene = read_ply(args.scene)
    baseline_bytes = model_size_bytes(scene)
    train_views = load_dataset(args.manifest, split="train")
    test_views = _load_test_views(args.manifest)

    pruned, report, run = run_iterative_prune(
        scene, train_views, schedule, loss_cfg, opt_cfg, seed=args.seed
    )
    write_ply(pruned, args.out_scene)
    if args.report:
        _write_csv(args.report, (asdict(r) for r in report.records))
    if args.history:
        _write_csv(args.history, (asdict(h) for h in run.history))

    pruned_bytes = model_size_bytes(pruned)
    quality = evaluate(pruned, test_views)
    print(f"count: {pruned.count} (from {scene.count})")
    print(f"size: {pruned_bytes / 1e6:.3f} MB (from {baseline_bytes / 1e6:.3f} MB)")
    print(f"compression: {compression_ratio(baseline_bytes, pruned_bytes):.3f}x")
    print(f"test psnr: {quality['psnr']:.6f} dB  test ssim: {quality['ssim']:.6f}")
    return 0


def cmd_render(args) -> int:
    scene = read_ply(args.scene)
    views = load_dataset(args.manifest, split=None if args.split == "all" else args.split)
    if args.view is not None:
        if not 0 <= args.view < len(views):
            raise SplatError(f"view index {args.view} out of range (0..{len(views) - 1})")
        views = [views[args.view]]
        indices = [args.view]
    else:
        indices = range(len(views))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, (camera, _) in zip(indices, views):
        image = rasterize(scene, camera, BACKGROUND).image
        path = out_dir / f"render_{idx:03d}.ppm"
        write_ppm(image, path)
        print(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    _check_outputs({"--csv": args.csv}, [*args.scene, args.baseline, args.manifest])
    baseline = read_ply(args.baseline)
    views = load_dataset(args.manifest, split=args.split)
    baseline_bytes = model_size_bytes(baseline)
    references = [rasterize(baseline, camera, BACKGROUND).image for camera, _ in views]
    dataset = [(camera, ref) for (camera, _), ref in zip(views, references)]
    rows = []
    for scene_path in args.scene:
        scene = read_ply(scene_path)
        quality = evaluate(scene, dataset)
        scene_bytes = model_size_bytes(scene)
        row = {
            "scene": str(scene_path),
            "baseline": str(args.baseline),
            "ssim": quality["ssim"],
            "psnr": quality["psnr"],
            "size_mb": scene_bytes / 1e6,
            "baseline_mb": baseline_bytes / 1e6,
            "compression": compression_ratio(baseline_bytes, scene_bytes),
        }
        rows.append(row)
        print(
            f"{scene_path}: ssim {row['ssim']:.6f}  psnr {row['psnr']:.6f}  "
            f"size {row['size_mb']:.3f} MB  compression {row['compression']:.3f}x"
        )
    if args.csv:
        _write_csv(args.csv, rows)
    return 0


def cmd_stats(args) -> int:
    _check_outputs({"--csv": args.csv}, filter(None, (args.scene, args.compare)))
    bins = np.linspace(0.0, 1.0, 51)
    scenes = [("scene", read_ply(args.scene))]
    if args.compare:
        scenes.append(("compare", read_ply(args.compare)))
    counts = {}
    for label, scene in scenes:
        opacities = scene.activated_opacities()
        counts[label] = np.histogram(opacities, bins=bins)[0]
        median = float(np.median(opacities)) if scene.count else math.nan
        mean = float(np.mean(opacities)) if scene.count else math.nan
        print(f"{label}: count {scene.count}  median opacity {median:.6f}  "
              f"mean opacity {mean:.6f}")
    if args.csv:
        rows = []
        for i in range(50):
            row = {"bin_lo": float(bins[i]), "bin_hi": float(bins[i + 1])}
            for label in counts:
                row[label] = int(counts[label][i])
            rows.append(row)
        _write_csv(args.csv, rows)
    return 0


def _parse_gammas(text: str) -> list[float]:
    gammas = []
    for item in text.split(","):
        try:
            gamma = float(item)
        except ValueError:
            raise SplatError(f"--gammas: {item!r} is not a number") from None
        if not 0.0 <= gamma < 1.0:
            raise SplatError(f"--gammas: {item!r} is not in [0, 1)")
        gammas.append(gamma)
    return gammas


def cmd_ablate(args) -> int:
    gammas = _parse_gammas(args.gammas)
    if args.seeds < 1:
        raise SplatError(f"--seeds must be >= 1, got {args.seeds}")
    # the flags' schedule, checked before loading; each variant sets its gamma and criterion
    schedule = PruneSchedule(gamma_target=0.0, **_schedule_fields(args, "desk"))
    loss_cfg = LossConfig(lam=args.lam)
    _check_outputs({"--csv": args.csv}, (args.scene, args.manifest))
    scene = read_ply(args.scene)
    train_views = load_dataset(args.manifest, split="train")
    test_views = _load_test_views(args.manifest)
    seeds = list(range(args.seeds))
    rows = []
    for gamma in gammas:
        for seed in seeds:
            for mode in ("iterative", "oneshot"):
                for criterion in PruneCriterion:
                    start = time.perf_counter()
                    if mode == "iterative":
                        pruned, _, _ = run_iterative_prune(
                            scene, train_views,
                            replace(schedule, gamma_target=gamma, criterion=criterion),
                            loss_cfg, seed=seed,
                        )
                    else:
                        pruned, _, _ = one_shot_prune(
                            scene, train_views, gamma, schedule.finetune_iters,
                            criterion=criterion, loss_cfg=loss_cfg, seed=seed,
                        )
                    quality = evaluate(pruned, test_views)
                    rows.append(
                        {
                            "variant": f"{mode}-{criterion.value}",
                            "gamma": gamma,
                            "seed": seed,
                            "psnr": quality["psnr"],
                            "ssim": quality["ssim"],
                            "size_mb": model_size_bytes(pruned) / 1e6,
                            "runtime_s": time.perf_counter() - start,
                        }
                    )
                    print(
                        f"{rows[-1]['variant']} gamma={gamma} seed={seed}: "
                        f"psnr {rows[-1]['psnr']:.6f} size {rows[-1]['size_mb']:.3f} MB"
                    )
    _write_csv(args.csv, rows)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splatrim",
        description="Compress splat scenes by gradient-aware iterative pruning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene + dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gaussians", type=int, default=2000)
    p.add_argument("--views", type=int, default=8)
    p.add_argument("--size", type=int, default=64)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "trim",
        help="iteratively prune and fine-tune a scene",
        epilog=f"Report CSV columns: {','.join(f.name for f in fields(PruneStepRecord))}. "
        f"History CSV columns: {','.join(f.name for f in fields(HistoryEntry))}. "
        "A --config file holds flat 'key value' lines (schedule, learning "
        "rates, seed, paths); explicit flags take precedence.",
    )
    # Each flag but --config is a run setting whose dest is also a --config
    # key. No defaults here: unset settings come from --config, then RUN_DEFAULTS.
    flags = [
        p.add_argument("--scene"),
        p.add_argument("--manifest"),
        p.add_argument("--out-scene", dest="out_scene"),
        p.add_argument("--config", help="flat key-value run configuration file"),
        p.add_argument("--report"),
        p.add_argument("--history"),
        p.add_argument("--gamma-target", type=float),
        p.add_argument("--criterion", choices=[c.value for c in PruneCriterion]),
        p.add_argument("--preset", choices=sorted(PRESETS)),
        p.add_argument("--steps", type=int),
        p.add_argument("--interval", type=int),
        p.add_argument("--finetune-iters", type=int),
        p.add_argument("--lam", type=float),
        p.add_argument("--seed", type=int),
    ]
    p.set_defaults(func=cmd_trim, settings={a.dest: a for a in flags if a.dest != "config"})

    p = sub.add_parser("render", help="render dataset views to PPM files")
    p.add_argument("--scene", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--view", type=int, help="single view index (default: all)")
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "eval",
        help="score one or more scenes against a baseline scene",
        epilog="CSV columns: scene,baseline,ssim,psnr,size_mb,baseline_mb,"
        "compression; one row per scene. Quality is measured between renders "
        "of each scene and renders of the baseline.",
    )
    p.add_argument("--scene", required=True, nargs="+")
    p.add_argument("--baseline", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "stats",
        help="opacity histograms (50 bins over [0,1])",
        epilog="CSV columns: bin_lo,bin_hi,scene[,compare].",
    )
    p.add_argument("--scene", required=True)
    p.add_argument("--compare")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "ablate",
        help="run the {iterative,oneshot} x {gradient,opacity} grid",
        epilog="CSV columns: variant,gamma,seed,psnr,ssim,size_mb,runtime_s. "
        "All columns except runtime_s are reproducible for fixed seeds.",
    )
    p.add_argument("--scene", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--gammas", default="0.5")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--steps", type=int)
    p.add_argument("--interval", type=int)
    p.add_argument("--finetune-iters", type=int)
    p.add_argument("--lam", type=float, default=RUN_DEFAULTS["lam"])
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SplatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
