"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics (with
their units) that run.py produces, that a tiny run of every workload
yields those metrics and counts a known failure, that traced counts
repeat, and, as a negative control, that a deliberately wrong output in
any workload raises ops_failed_frac and clears "correct".  Takes a few
seconds.
"""

from __future__ import annotations

import json
import sys

from run import END_TO_END, PER_LAYER, ROOT, benchmark
from workloads import WORKLOADS

TINY = {
    "classify-enumerated": [("gamma0", 6), ("gamma1", 5)],
    "count-large": [("gamma0", 6), ("gamma", 4)],
    "presentation-gamma1": [("gamma0", 10), ("gamma1", 7)],
    # gamma1(11): the witness search gives up although a witness exists
    "witness-roundtrip": [("gamma0", 6), ("gamma1", 11)],
}

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        expect(declared == table,
               f"BENCHMARK.json {section} differs from run.py: "
               f"{set(declared.items()) ^ set(table.items())}")

    for name, ops in TINY.items():
        out = benchmark(name, 0, 0.01, False, ops=ops, min_samples=0)["result"]
        expect(set(out) == {"correct", "attempted", "failed", "metrics"},
               f"{name}: result keys {sorted(out)}")
        expect(units(out) == END_TO_END, f"{name}: end-to-end metrics/units")
        expect(all(v["value"] > 0 for v in out["metrics"].values()),
               f"{name}: a zero end-to-end metric")
        expect(out["correct"], f"{name}: tiny run not correct")
        expect(out["attempted"] == 3 * len(ops), f"{name}: attempted")
        want_failed = 3 if name == "witness-roundtrip" else 0
        expect(out["failed"] == want_failed,
               f"{name}: failed {out['failed']}, expected {want_failed}")

    traced = benchmark("classify-enumerated", 0, 0.01, True,
                       ops=TINY["classify-enumerated"])["result"]
    expect(units(traced) == PER_LAYER, "traced run: per-layer metrics/units")
    expect(traced["correct"], "traced run: counts did not repeat")
    expect(traced["metrics"]["lifts.classify_lift.calls"]["value"] == 18,
           "traced run: classify_lift calls (9 lifts each at gamma0(6), "
           "gamma1(5))")

    # Negative control: corrupt the first output of each tiny run (every
    # first operation above succeeds); the oracle must catch it in all three
    # workers.
    for name, ops in TINY.items():
        out = benchmark(name, 0, 0.01, False, ops=ops, tamper=0, min_samples=0)
        caught = [f for f in out["failures"] if f[:3] == (*ops[0], "wrong")]
        expect(out["result"]["failed"] > (3 if name == "witness-roundtrip" else 0)
               and not out["result"]["correct"] and caught,
               f"negative control, {name}: the wrong output went unnoticed "
               f"({out['failures']})")

    for message in problems:
        print(f"FAIL {message}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
