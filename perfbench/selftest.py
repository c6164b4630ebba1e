"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py

For each workload it checks that

* the same seed gives an identical input hash and, over two traced runs of
  SECONDS (one cycle of ops) in fresh processes, identical count and ratio
  metrics;
* a different seed gives different inputs.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import inputs
import tracing

HERE = Path(__file__).resolve().parent
SEED, OTHER_SEED = 1, 2
SECONDS = 1.0
EXACT_UNITS = ("count", "ratio", "bytes", "abs")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["manifest"], json.loads(lines[-1])


def check(workload):
    problems = []
    if inputs.digest(inputs.make(workload, SEED)) == inputs.digest(inputs.make(workload, OTHER_SEED)):
        problems.append(f"seeds {SEED} and {OTHER_SEED} give the same inputs")
    (m1, r1), (m2, r2) = (traced_run(workload, SEED) for _ in range(2))
    if m1["inputs_sha256"] != m2["inputs_sha256"]:
        problems.append("input hash differs between runs of one seed")
    exact = [name for name, unit, _ in tracing.PER_LAYER if unit in EXACT_UNITS]
    for name in exact:
        a, b = r1["metrics"][name]["value"], r2["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a!r} != {b!r}")
    for r in (r1, r2):
        if not r["correct"]:
            problems.append("a traced run reported incorrect output")
    return problems, len(exact)


def main():
    failed = False
    for workload in inputs.WORKLOADS:
        problems, n_exact = check(workload)
        status = "FAIL" if problems else "PASS"
        print(f"{workload}: {status} ({n_exact} exact metrics compared)")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
