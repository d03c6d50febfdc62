"""Benchmark of qhoare's `check` and `run` commands.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload corpus|coins|deep|wide|all \
        --seed N --seconds S --trace 0|1

Each workload runs in its own fresh child process (``worker.py``), one at
a time, with BLAS/OpenMP threads capped at the number of usable CPUs.
With ``--trace 0`` the last line of output is one JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "coins", "deep", "wide")
SETUP_PROBES = 7
TIMEOUT_S = 170

UNITS = {"setup_s": "s", "check_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_shot"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("evals_per_model"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def _child(argv: list, env: dict) -> str:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:2]} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(env: dict) -> float:
    """Median wall time to import ``qhoare.cli`` over fresh processes."""
    return statistics.median(float(_child([str(HERE / "speed.py")], env))
                             for _ in range(SETUP_PROBES))


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    env = child_env()
    out = json.loads(_child(
        [str(HERE / "worker.py"), "--root", str(ROOT), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], env))
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in out["layers"].items()}
    else:
        out["setup_s"] = setup_seconds(env)
        metrics = {k: {"value": out[k], "unit": u} for k, u in UNITS.items()}
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics,
            "rounds": out["rounds"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in ("src/qhoare/cli.py", "tests/corpus")
               if not (ROOT / p).exists()]
    if missing:
        print(f"not a qhoare checkout: {ROOT} lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        results[name] = res
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}: {res['rounds']} measured rounds, "
              f"{res['attempted']} operations attempted, "
              f"{res['failed']} failed, correct={res['correct']}")
    if len(results) == 1:
        final = next(iter(results.values()))
        del final["rounds"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
