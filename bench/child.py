"""One pass of one workload in a fresh interpreter.

bench/run.py starts this once per pass, so no cache of the engine survives
from one pass to the next.  The child sets up (imports relmon, builds the
inputs), runs the timed pass unless --setup-only, samples the machine's
speed around and all through it (bench/reference.py), checks the answers
against bench/expected.json and writes its result as JSON to --out.

  python3 bench/child.py --workload audit --seed 3 --out result.json [--trace] [--setup-only]
  python3 bench/child.py --workload audit --record --out answers.json
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import WORKLOADS


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="run the unrenamed inputs and write the answers to record")
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path[:0] = [str(root / "src"), str(here)]
    import reference
    import tracing
    import workloads
    from relmon.cli import EXIT_BUDGET

    sampler = reference.Sampler()
    tracer = installation = None
    if args.trace:
        # its clock leaves out the reference samples, as the pass's does
        tracer = tracing.Tracer(sampler.clock)
        installation = tracing.install(tracer, workloads.relmon_modules())

    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        seed = None if args.record else args.seed
        workload = workloads.make(args.workload, seed, workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            _write({"setup_s": setup_s}, args.out)
            return 0
        # the machine's speed just before, all through and just after the
        # pass, which does not pay for it
        speed = reference.burst(reference.BURST_S)
        with sampler:
            result = workload.run(sampler.clock)
        speed += sampler.samples + reference.burst(reference.BURST_S)
        if installation is not None:
            installation.undo()
        if args.record:
            _write(_answers(workload, result), args.out)
            return 0
        expected = json.loads(workloads.EXPECTED.read_text(encoding="utf-8"))[args.workload]
        if args.workload == "suite":
            outcomes = workload.check(result["report"], expected)
            items = sum(r.checked for r in result["report"].results)
            # no per-question latency: the mean time per counted check stands in
            latencies = {"check": result["wall_s"] / items}
        else:
            outcomes = result["outcomes"]
            workload.check(outcomes, expected)
            items = len(outcomes)
            latencies = {o.key: o.seconds for o in outcomes}
        out = {
            "setup_s": setup_s,
            "wall_s": result["wall_s"],
            "items": items,
            "latencies_s": latencies,
            "reference_s": speed,
            "attempted": len(outcomes),
            "refused": sum(1 for o in outcomes if o.exit == EXIT_BUDGET),
            "problems": {o.key: o.problems for o in outcomes if o.problems},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer)
            spans_path = scratch / f"spans-{args.workload}-{args.seed}.json"
            spans_path.write_text(json.dumps({
                "fields": ["id", "name", "start", "end", "parent"],
                "dropped": tracer.spans_dropped,
                "spans": tracer.spans}), encoding="utf-8")
            out["spans_file"] = str(spans_path.relative_to(root))
        _write(out, args.out)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _answers(workload, result) -> dict:
    if workload.name == "suite":
        return workload.observe(result["report"])
    return workload.record(result["outcomes"])


def _write(doc, path) -> None:
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
