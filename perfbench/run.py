"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload finetune-desk --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. The line before it records the seeds, configs and machine.
Scratch files go under ``.perfbench_run/`` in the checkout; traced runs
leave their spans there as ``trace-<workload>-seed<n>.json``.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread (never more than nproc), fixed before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("finetune-desk", "render-dense", "scene-io")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "splatrim" / "__init__.py").is_file():
        print(f"error: no splatrim package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import workloads

    result, context = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workloads.FULL, ROOT / ".perfbench_run", STARTED,
    )
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
