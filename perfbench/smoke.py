"""Smoke test of the benchmark: every workload once at toy size, untraced and
traced. It asserts that every metric BENCHMARK.json names is emitted with its
unit and that no call failed (error_rate 0).

    python3 perfbench/smoke.py        # from the root of a checkout, ~2 min
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy",
                   "--results", ".perfbench/smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            tag = f"{wl['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-1000:]}")
                continue
            last = json.loads(lines[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(last)}")
            if not last["correct"] or last["failed"] != 0 or last["attempted"] < 1:
                problems.append(f"{tag}: error_rate {last['failed']}/{last['attempted']}:\n"
                                + "\n".join(l for l in lines if "FAILED" in l))
            for m in spec[group]:
                got = last["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{tag}: metric {m['name']} missing or without "
                                    f"unit {m['unit']}: {got}")
            if trace == 0 and not any(l.split()[:1] == ["error_rate"] for l in lines):
                problems.append(f"{tag}: error_rate line not printed")
            print(f"{tag}: {last['attempted']} calls, {last['failed']} failed", flush=True)
    for p in problems:
        print("PROBLEM", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
