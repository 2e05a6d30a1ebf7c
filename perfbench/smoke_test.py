#!/usr/bin/env python3
"""Smoke test of the benchmark itself: runs both workloads for a few steps,
untraced and traced, and checks that the result line is well formed, every
run passed its correctness checks, and every metric BENCHMARK.json names is
present with its unit (and nothing else is reported).

    python3 perfbench/smoke_test.py      # from the repository root
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=900)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"attempted={result['attempted']} "
                              f"failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m.get("unit") for name, m in
                   result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got)
                               if want[n] != got[n])
                errors.append(f"{where}: missing {missing} extra {extra} "
                              f"wrong unit {wrong}")
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    errors.append(f"{where}: {name} has no numeric value")
            print(f"ok   {where}: {len(got)} metrics", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
