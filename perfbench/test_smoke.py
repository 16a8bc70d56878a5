"""Smoke check of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and twice traced. Each run must emit
every metric that BENCHMARK.json names, with its unit, and fail nothing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import workloads  # noqa: E402
from perfbench.workloads import DeskSize, RenderDenseSize, SceneIOSize  # noqa: E402

# Bars for the tiny desk were checked to hold on seeds 0-9.
TINY = {
    "finetune-desk": DeskSize(
        n_gaussians=300, n_views=4, image_size=32, baseline_iters=30,
        events=2, interval=3, finetune_iters=4, min_baseline_db=20.0,
    ),
    "render-dense": RenderDenseSize(n_gaussians=500, n_views=4, image_size=32),
    "scene-io": SceneIOSize(n_gaussians=3000, events=3, closeup_views=2, closeup_size=16),
}
COUNTS = (
    "render.visible", "render.tiles", "render.pairs", "render.k_max",
    "render.alpha_evals", "prune.kept", "prune.removed", "prune.rescued",
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, trace, tmp_path):
    result, context = workloads.run(
        name, 3, 0.1, trace, TINY, tmp_path / "run", perf_counter()
    )
    json.dumps(result, allow_nan=False)  # the result line must be strict JSON
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, context["problems"]
    assert result["correct"], context["problems"]
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric_and_fails_nothing(name, tmp_path):
    metrics = _run(name, False, tmp_path)
    for key in ("setup_s", "wall_s", "op_ms_p50", "psnr_db", "compression_ratio"):
        assert metrics[key] > 0, key
    first = _run(name, True, tmp_path)
    second = _run(name, True, tmp_path)
    for key in COUNTS:
        assert first[key] == second[key], key


def test_desk_self_times_partition_the_step(tmp_path):
    m = _run("finetune-desk", True, tmp_path)
    parts = (
        m["render.forward_ms"] + m["render.backward_ms"] + m["metrics.loss_ms"]
        + m["train.adam_ms"] + m["train.step_self_ms"]
    )
    assert math.isclose(parts, m["train.step_ms"], rel_tol=1e-9)
    assert m["prune.removed"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "scene-io", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
