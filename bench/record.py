"""Record the answers the benchmark checks against, in bench/expected.json.

Runs every workload once on its unrenamed inputs, each in a fresh
interpreter, and stores the suite's per-theorem checked counts and report
digest, and each CLI question's exit code and report digest.  Re-record
only when a change is meant to alter answers or work counts; a
performance change must leave this file as it is.

  python3 bench/record.py [workload ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    scratch = HERE.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            out = Path(tmp) / "answers.json"
            subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", name,
                            "--record", "--out", str(out)],
                           stdout=subprocess.DEVNULL, check=True)
            expected[name] = json.loads(out.read_text(encoding="utf-8"))
        print(f"recorded {name}")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
