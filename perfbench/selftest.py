"""Smoke test of the benchmark itself.

Runs every workload once untraced and once traced with a one-second
budget (one round each) and asserts that the result line carries every
metric BENCHMARK.json names, with its unit, that the output checks
pass, and that the only failed ops are the known seed failures. Run
from the repository root; it takes about two minutes:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

# (ops, failed ops) per round at the seed; the failures are the 4,096-state
# better/lex game, in process and through the CLI
PER_ROUND = {"big_game": (1, 0), "cyclic_game": (2, 1), "form_sweep": (2, 0), "cli": (9, 1)}


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}")
            values = [v["value"] for v in result["metrics"].values()]
            if not all(isinstance(v, (int, float)) for v in values):
                problems.append(f"{workload} trace={trace}: non-numeric value")
            elif trace == 0 and not all(v > 0 for v in values):
                problems.append(f"{workload}: an end-to-end metric is not positive")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: output check failed")
            ops, failed = PER_ROUND[workload]
            if result["attempted"] % ops or result["failed"] != failed * result["attempted"] // ops:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed ops")
            print(f"{workload} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else "selftest: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
