"""Print every benchmark metric by name with its unit, for every workload.

    python3 perfbench/report.py

Runs run.py on each workload untraced (end-to-end metrics) and traced
(per-layer metrics), at the default seed, whose outputs are pinned, and for
BENCHMARK.json's run_seconds, passing its tables through. Exits non-zero
if any run failed a check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(DEFAULT_SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]) + "\n", flush=True)
            ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
