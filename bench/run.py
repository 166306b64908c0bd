"""relmon benchmark: run one workload, check its answers, print its metrics.

  python3 bench/run.py --workload suite|enumerate|audit --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (bench/child.py), one at a time.  With --trace 0 the run starts
passes while the next one would still end within --seconds (at least one)
and reports the median over the passes of their times scaled to reference
speed (bench/reference.py), and the median of at least SETUP_SAMPLES
set-ups.  With --trace 1 it runs one untraced and one traced
pass and reports the per-layer metrics of the traced one, with the tracing
overhead.  The last line of standard output is one JSON object; the exit
code is 0 only when every answer was correct.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("suite", "enumerate", "audit")
SETUP_SAMPLES = 15
DEADLINE_S = 170          # every child must have ended by then
# set-up samples taken after each pass, so that set-up is sampled across the run
SETUP_PER_PASS = 2


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, started: float, *flags) -> dict:
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out), *flags]
        timeout = DEADLINE_S - (time.perf_counter() - started)
        if timeout <= 0:
            raise ChildFailed("out of time before the pass could start")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"pass did not end within {DEADLINE_S} s") from None
        if proc.returncode != 0:
            raise ChildFailed(f"pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(out.read_text(encoding="utf-8"))


def speed(one_pass: dict) -> float:
    """How much faster than reference speed the machine ran during a pass."""

    return reference.REFERENCE_S / statistics.median(one_pass["reference_s"])


def item_latencies_ms(passes: list, scaled: bool) -> list:
    """Each item's median latency over the passes, in ms, at reference speed if scaled."""

    by_item = {}
    for p in passes:
        factor = speed(p) if scaled else 1.0
        for key, seconds in p["latencies_s"].items():
            by_item.setdefault(key, []).append(seconds * factor * 1000)
    return [statistics.median(ms) for ms in by_item.values()]


def end_to_end(passes: list, setups: list) -> dict:
    """name -> (value, samples, unit) for every gated end-to-end metric.

    The host's speed drifts by a fifth or more over minutes, so each pass's
    times are scaled to reference speed by the reference samples taken
    around and inside it (bench/reference.py), and the run reports medians
    over its passes.  Set-up and memory are medians as measured.
    """

    walls = [p["wall_s"] * speed(p) for p in passes]
    wall = statistics.median(walls)
    items = passes[0]["items"]
    rss = [p["peak_rss_mb"] for p in passes]
    latencies = item_latencies_ms(passes, scaled=True)
    return {
        "setup_s": (statistics.median(setups), setups, "s"),
        "wall_ref_s": (wall, walls, "s"),
        "items_per_ref_s": (items / wall, [items / w for w in walls], "1/s"),
        "item_p50_ref_ms": (statistics.median(latencies), latencies, "ms"),
        "peak_rss_mb": (statistics.median(rss), rss, "MB"),
    }


def as_measured(passes: list) -> dict:
    """The times of end_to_end unscaled, printed but not gated."""

    walls = [p["wall_s"] for p in passes]
    latencies = item_latencies_ms(passes, scaled=False)
    return {
        "wall_s": (statistics.median(walls), walls, "s"),
        "items_per_s": (passes[0]["items"] / statistics.median(walls),
                        [passes[0]["items"] / w for w in walls], "1/s"),
        "item_p50_ms": (statistics.median(latencies), latencies, "ms"),
        "speed": (statistics.median([speed(p) for p in passes]), [speed(p) for p in passes], "x"),
    }


def describe(workload: str, passes: list, setups: list) -> tuple:
    """Printable lines, the JSON metrics, and (attempted, failed)."""

    metrics = end_to_end(passes, setups)
    lines = [f"{workload}: {len(passes)} pass(es), {len(setups)} set-up samples; "
             "value, then the samples' quartiles"]
    measured = as_measured(passes)
    for name, (value, samples, unit) in list(metrics.items()) + list(measured.items()):
        q1, med, q3 = stats.quartiles(samples)
        lines.append(f"  {name:<16} {value:12.4f} {unit:<4} q1 {q1:.4f}  median {med:.4f}  "
                     f"q3 {q3:.4f}  n={len(samples)}")
    latencies = metrics["item_p50_ref_ms"][1]
    p90 = stats.percentile(latencies, 90)
    if p90 is None:
        lines.append(f"  item_p90_ref_ms  not reported: fewer than {stats.MIN_BEYOND} "
                     f"of {len(latencies)} items lie beyond it")
    else:
        lines.append(f"  item_p90_ref_ms  {p90[0]:12.4f} ms   {p90[1]} of {len(latencies)} items beyond")
    attempted = sum(p["attempted"] for p in passes)
    problems = {}
    for p in passes:
        for key, why in p["problems"].items():
            problems.setdefault(key, why)
    failed = sum(len(p["problems"]) for p in passes)
    refused = sum(p["refused"] for p in passes)
    lines.append(f"  answers          {attempted - failed} of {attempted} items correct; "
                 f"{passes[0]['items']} items per pass")
    lines.append(f"  failed_frac      {failed / attempted:12.4f}      ({failed} of {attempted} items)")
    lines.append(f"  refused_frac     {refused / attempted:12.4f}      ({refused} of {attempted} items, exit 4)")
    for key, why in sorted(problems.items()):
        lines.append(f"  FAILED {key}: {'; '.join(why)}")
    json_metrics = {name: {"value": value, "unit": unit} for name, (value, _, unit) in metrics.items()}
    return lines, json_metrics, (attempted, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/relmon/cli.py", "tools/compute_oracles.py", "bench/expected.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: cannot run, missing {', '.join(missing)}; run from a relmon checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        if args.trace:
            plain = run_child(args.workload, args.seed, started)
            traced = run_child(args.workload, args.seed, started, "--trace")
        else:
            passes, setups = [], []
            while True:
                pass_started = time.perf_counter()
                passes.append(run_child(args.workload, args.seed, started))
                setups.append(passes[-1]["setup_s"])
                for _ in range(SETUP_PER_PASS):
                    setups.append(run_child(args.workload, args.seed, started, "--setup-only")["setup_s"])
                # start no pass that would not end within --seconds
                now = time.perf_counter()
                if now - started + (now - pass_started) > args.seconds:
                    break
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_child(args.workload, args.seed, started, "--setup-only")["setup_s"])
    except ChildFailed as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        # end-to-end lines from the untraced pass; answers of both are checked
        lines, _, (attempted, failed) = describe(args.workload, [plain], [plain["setup_s"]])
        traced_lines, _, (t_attempted, t_failed) = describe(args.workload, [traced], [traced["setup_s"]])
        lines += [line for line in traced_lines if line.startswith("  FAILED")]
        attempted, failed = attempted + t_attempted, failed + t_failed
        metrics = trace_metrics(plain, traced, lines)
    else:
        lines, metrics, (attempted, failed) = describe(args.workload, passes, setups)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def trace_metrics(plain: dict, traced: dict, lines: list) -> dict:
    """Per-layer metrics of the traced pass: all printed, times as shares in JSON."""

    layers = dict(traced["layers"])
    layers.update(tracing.shares(layers, traced["setup_s"] + traced["wall_s"]))
    layers["trace.wall_s"] = (traced["wall_s"], "s")
    layers["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    # both at reference speed, so drift between the two passes is not overhead
    overhead = (traced["wall_s"] * speed(traced)) / (plain["wall_s"] * speed(plain))
    layers["trace.overhead_ratio"] = (overhead, "ratio")
    lines.append(f"traced pass: wall {traced['wall_s']:.3f} s against {plain['wall_s']:.3f} s untraced "
                 f"(x{overhead:.3f} at reference speed); spans in {traced['spans_file']}")
    for name in sorted(layers):
        value, unit = layers[name]
        lines.append(f"  {name:<58} {value:14.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()
            if unit != "s" or name.startswith("trace.")}


if __name__ == "__main__":
    sys.exit(main())
