"""Fast self-check of the benchmark harness on tiny inputs.

Run from the repository root:

    python3 perfbench/selfcheck.py

Every workload runs at a tiny size, once untraced and once traced. The
check fails unless each run is correct and emits exactly the metrics,
with their units, that BENCHMARK.json names, and unless its traced spans
nest with self times summing to the root span (``run.measure`` rejects a
traced operation otherwise).
It also feeds a broken span tree to the nesting check.
"""

from __future__ import annotations

import json
import sys

import run
import tracing

TINY = {
    "night-pruned": run.NightPruned(steps=300, postures=6, replications=2),
    "sensor-io": run.SensorIO(steps=200, postures=4, replications=3, factor=10,
                              resolution=3, angles=4),
}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    if {w["name"] for w in bench["workloads"]} != set(TINY):
        failures.append("BENCHMARK.json workloads differ from the harness's")

    broken = [["cli.main", -1, 0.0, 1.0, None], ["bocpd.step", 0, 0.5, 1.5, 2]]
    if not tracing.check_nesting(broken):
        failures.append("check_nesting accepted a child that outlives its parent")

    for name, workload in TINY.items():
        for trace in (0, 1):
            result, samples = run.measure(name, workload, seed=1, seconds=0, trace=trace)
            label = f"{name} --trace {trace}"
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {result['failed']} failed operations")
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != wanted[trace]:
                odd = sorted(set(emitted.items()) ^ set(wanted[trace].items()))
                failures.append(f"{label}: emitted and named metrics differ: {odd}")
            print(f"{label}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
