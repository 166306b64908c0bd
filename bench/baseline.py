"""Run every workload on several seeds and record the results in bench/baseline.json.

For each workload: one timed run (--trace 0) per seed, then one traced run
(--trace 1) on the first seed.  Stores the machine (nproc, Python version,
git sha), each end-to-end metric's median, quartiles and spread across the
seeds (interquartile distance as a share of the median), and the traced
per-layer metrics.  Exits non-zero if any run fails.

  python3 bench/baseline.py [--seeds 1-10] [--seconds 40] [--out bench/baseline.json] [workload ...]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one run, with the run's own duration added as run_s."""

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))

    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "git_sha": git_sha()},
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            runs.append(bench(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = stats.quartiles(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": stats.spread(values),
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
            print(f"  {name}: median {med:.4g}, spread {summary[name]['spread']:.3f}", flush=True)
        traced = bench(workload, seeds[0], args.seconds, 1)
        out["workloads"][workload] = {
            "attempted_per_run": [r["attempted"] for r in runs],
            "run_s": [r["run_s"] for r in runs],
            "traced_run_s": traced["run_s"],
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
