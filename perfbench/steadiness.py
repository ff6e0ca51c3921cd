"""Check that the benchmark is steady: ten seeds per workload, spreads.

    python3 perfbench/steadiness.py --seeds 1-10 [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, as separate
processes, with the run length from BENCHMARK.json.  For every end-to-end
metric it prints the median over seeds and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
over the median.  Every spread, setup_s's too, must stay within the
metric's bound, and should stay below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", default=None, help="write the figures as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        seconds = []
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            seconds.append(time.monotonic() - started)
            result = json.loads(proc.stdout.splitlines()[-1])
            steady &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / statistics.median(series)
            ok = spread <= bounds[name] / 3
            steady &= spread <= bounds[name]
            summary[name] = {"median": statistics.median(series),
                             "spread": spread, "bound": bounds[name],
                             "values": series}
            print(f"{workload:<20} {name:<12} median {statistics.median(series):<10.5g}"
                  f" spread {spread:.3f}  bound {bounds[name]}"
                  f"{'' if ok else '  (above a third of the bound)'}",
                  flush=True)
        print(f"{workload:<20} run time {min(seconds):.1f} .. {max(seconds):.1f} s",
              flush=True)
        record["workloads"][workload] = {"metrics": summary,
                                         "run_seconds_taken": seconds}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
