"""Measure every workload once and record a trajectory point.

    python3 perfbench/report.py --label a316f9b

For each workload this runs, with the run length from BENCHMARK.json:
  * one untraced run (end-to-end metrics) on seed 1;
  * two traced runs on seed 1, whose counts must agree exactly
    (determinism self-check), giving the per-layer metrics and the
    tracing overhead;
  * one untraced run on seed 2, to show the figures do not hang
    on one draw.
Everything is printed and written to perfbench/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from run import HERE, ROOT, benchmark
from workloads import WORKLOADS

SEED = 1
SECOND_SEED = 2


def _values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def _counts(values: dict) -> dict:
    return {k: v for k, v in values.items()
            if not k.endswith("self_s") and k != "trace.wall_ratio"}


def measure(name: str, seconds: float) -> dict:
    runs = {}
    for key, run_seed, trace in (("plain", SEED, False),
                                 ("traced", SEED, True),
                                 ("traced_again", SEED, True),
                                 ("second_seed", SECOND_SEED, False)):
        out = benchmark(name, run_seed, seconds, trace)
        print("\n".join(out["lines"]), flush=True)
        runs[key] = out
    first, again = (_counts(_values(runs[k]["result"]))
                    for k in ("traced", "traced_again"))
    mismatched = sorted(k for k in first if first[k] != again[k])
    print(f"  determinism: {'counts repeat exactly' if not mismatched else mismatched}",
          flush=True)
    plain = runs["plain"]["result"]
    return {
        "why": WORKLOADS[name].why,
        "seed": SEED,
        "operations": runs["plain"]["ops"],
        "correct": all(r["result"]["correct"] for r in runs.values()),
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "ops_failed_frac": plain["failed"] / plain["attempted"],
        "failures": [list(f) for f in runs["plain"]["failures"]],
        "end_to_end": _values(plain),
        "per_layer": _values(runs["traced"]["result"]),
        "per_layer_repeat": _values(runs["traced_again"]["result"]),
        "tracing_overhead_ratio":
            _values(runs["traced"]["result"])["trace.wall_ratio"],
        "counts_repeat_exactly": not mismatched,
        "count_mismatches": mismatched,
        "second_seed": {"seed": SECOND_SEED,
                        "operations": runs["second_seed"]["ops"],
                        "end_to_end": _values(runs["second_seed"]["result"])},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file, e.g. a commit id")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "label": args.label,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "workloads": {name: measure(name, seconds)
                      for name in WORKLOADS},
    }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    ok = all(w["correct"] and w["counts_repeat_exactly"]
             for w in record["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
