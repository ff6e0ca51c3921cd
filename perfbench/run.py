"""liftlab benchmark: one workload, run in cold worker processes, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a liftlab checkout; liftlab is imported from ./src.
The seed draws the run's operation list (see workloads.py).  Workers run
one at a time, each a fresh single-threaded interpreter executing the whole
list, until the workers' time adds up to --seconds and the untraced
workers have timed at least 100 operations, so that op_p90_s has ten
samples above it.  The first worker also runs the correctness oracle on every
output, untimed; every later worker's outputs must match the first's.

--trace 0 reports the end-to-end metrics, taken over all workers:
  wall_s       median seconds for the whole list in one worker, imports
               excluded
  op_p50_s     median latency of one operation, samples pooled over workers
  op_p90_s     90th percentile of the same samples
  peak_rss_mb  median of the workers' peak resident set
  setup_s      median CPU time (user + system) of a worker from its
               start until liftlab is imported
Times are in reference seconds, which takes out the drift of the machine's
speed: an operation's latency is multiplied by REFERENCE_S over the mean of
the calibration times (worker.py) just before and after it, and a worker's
per-layer self times by REFERENCE_S over its median calibration time.
setup_s is multiplied by REFERENCE_SETUP_S over the CPU time of a
reference set-up, a fresh interpreter importing only standard modules,
timed just before the worker.  The measured
seconds and the speed factors are printed too.
--trace 1 alternates plain workers with traced ones (tracing.py) and
reports the per-layer metrics of the traced workers, whose counts must
agree exactly, plus trace.wall_ratio, the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A failed
operation is one that raised, refused, or failed the oracle; "correct"
turns false only when an output contradicts the oracle, differs between
workers, or the traced counts do not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, draw_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The calibration job's time on a 2-core Intel Xeon VM at 2.1 GHz, whose
# cores other VMs share, when that machine ran at its faster speed.
REFERENCE_S = 0.010

# Set-up is scaled by a reference set-up instead, timed just before each
# worker: a fresh interpreter that imports the standard modules liftlab and
# worker.py use, and nothing of liftlab, and prints the CPU time it used.
# REFERENCE_SETUP_S is about its CPU time on the same VM when the
# calibration job took REFERENCE_S.
REFERENCE_SETUP = (
    "import argparse, collections, dataclasses, functools, hashlib, "
    "itertools, json, math, pathlib, random, resource, typing\n"
    "usage = resource.getrusage(resource.RUSAGE_SELF)\n"
    "print(usage.ru_utime + usage.ru_stime)\n")
REFERENCE_SETUP_S = 0.060

MIN_SAMPLES = 100

# Stop starting workers after this many seconds, so a run ends in time
# even when the machine is slow.
HARD_LIMIT_S = 130.0
WORKER_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Ratios: metric suffix -> (numerator counter, denominator counter).
RATIOS = {
    "early_exit_frac": ("early_exit", "calls"),
    "distinct_frac": ("distinct", "calls"),
    "counted_frac": ("counted", "calls"),
    "hit_frac": ("cache_hits", "cache_lookups"),
}

PER_LAYER_FIELDS = {
    "engine.subgroup_by_membership": ("calls", "self_s", "elements"),
    "engine.adjoin_minus_identity": ("self_s",),
    "engine.squares_subgroup": ("self_s", "adopted"),
    "engine.two_quotient": ("self_s",),
    "engine.closure_contains": ("calls", "self_s", "early_exit_frac"),
    "engine.closure": ("calls", "self_s", "elements"),
    "lifts.full_image": ("calls", "self_s", "distinct_frac"),
    "lifts.classify_lift": ("calls", "self_s"),
    "lifts.lift_generators": ("self_s",),
    "lifts.classify_all": ("self_s", "counted_frac"),
    "lifts.find_witness": ("calls", "self_s"),
    "lifts.propagate_witness": ("calls", "self_s"),
    "verify.verify_witness_data": ("calls", "self_s"),
    "presentation.farey_symbol": ("self_s", "sides"),
    "presentation.build_coset_action": ("calls", "self_s"),
    "presentation.generators_from_symbol": ("self_s",),
    "presentation.generator_set": ("hit_frac",),
    "counting.count_congruence_lifts_engine": ("self_s",),
}


def _unit(field: str) -> str:
    if field == "self_s":
        return "s"
    return "ratio" if field in RATIOS else "count"


PER_LAYER = {f"{fn}.{field}": _unit(field)
             for fn, fields in PER_LAYER_FIELDS.items() for field in fields}
PER_LAYER["trace.wall_ratio"] = "ratio"


def python(args: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    """Run a fresh isolated interpreter from the checkout's root."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIFTLAB_")}
    return subprocess.run(
        [sys.executable, "-I", *args], input=stdin, capture_output=True,
        text=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)


def reference_setup_s() -> float:
    """CPU seconds of the reference set-up (see REFERENCE_SETUP)."""
    proc = python(["-c", REFERENCE_SETUP])
    if proc.returncode != 0:
        raise RuntimeError(f"reference set-up exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return float(proc.stdout)


def spawn_worker(job: dict) -> dict:
    """Run one cold worker to completion and return its result."""
    proc = python([str(HERE / "worker.py")], json.dumps(job))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_workers(name: str, seed: int, seconds: float, trace: bool,
                ops: list | None = None, tamper: int | None = None,
                min_samples: int = MIN_SAMPLES) -> dict:
    """Run cold workers on one operation list; return the raw material."""
    workload = WORKLOADS[name]
    ops = draw_ops(workload, seed) if ops is None else ops
    OUT.mkdir(exist_ok=True)
    base = {"op": workload.op, "ops": ops, "oracle_seed": seed,
            "tamper": tamper, "spans_path": str(OUT / f"spans-{name}.json")}
    minimum = 4 if trace else max(3, -(-min_samples // len(ops)))
    runs: list[tuple[bool, dict]] = []
    measured = 0.0
    begun = time.monotonic()
    while len(runs) < minimum or measured < seconds:
        if runs and time.monotonic() - begun > HARD_LIMIT_S:
            break
        traced = trace and len(runs) % 2 == 1
        job = dict(base, trace=traced, oracle=not runs)
        reference = reference_setup_s()
        started = time.monotonic()
        result = spawn_worker(job)
        measured += time.monotonic() - started - result["oracle_s"]
        result["reference_setup_s"] = reference
        runs.append((traced, result))
    return {"ops": ops, "runs": runs}


def judge(raw: dict) -> dict:
    """Per-operation status in every worker, against the first worker."""
    ops, runs = raw["ops"], raw["runs"]
    reference = runs[0][1]["outcomes"]
    attempted = failed = wrong = 0
    failures = {}
    for _, result in runs:
        for (family, level), outcome, ref in zip(ops, result["outcomes"],
                                                  reference):
            status, detail = ref["status"], ref["detail"]
            if outcome["digest"] != ref["digest"]:
                status, detail = "wrong", "output differs from the first worker's"
            attempted += 1
            if status != "ok":
                failed += 1
                wrong += status == "wrong"
                failures[(family, level, status, detail)] = None
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "failures": list(failures)}


def speed_factor(result: dict) -> float:
    """Multiplier from a worker's measured seconds to reference seconds."""
    return REFERENCE_S / statistics.median(result["calibrations"])


def scaled_latencies(result: dict) -> list[float]:
    """Operation latencies in reference seconds, each scaled by the
    calibration times on either side of it."""
    c = result["calibrations"]
    return [t * 2 * REFERENCE_S / (c[i] + c[i + 1])
            for i, t in enumerate(result["latencies"])]


def scaled_wall(result: dict) -> float:
    return sum(scaled_latencies(result))


def end_to_end(raw: dict) -> tuple[dict, list[str]]:
    plain = [r for traced, r in raw["runs"] if not traced]
    factors = [speed_factor(r) for r in plain]
    walls = [scaled_wall(r) for r in plain]
    samples = [t for r in plain for t in scaled_latencies(r)]
    p90 = statistics.quantiles(samples, n=10)[8]
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(samples),
        "op_p90_s": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(
            r["setup_s"] * REFERENCE_SETUP_S / r["reference_setup_s"]
            for r in plain),
    }
    q1, _, q3 = statistics.quantiles(walls, n=4)
    notes = {
        "wall_s": f"median of {len(walls)} cold workers, "
                  f"quartiles {q1:.4f} .. {q3:.4f}",
        "op_p50_s": f"{len(samples)} operation samples pooled",
        "op_p90_s": f"{len(samples)} samples, "
                    f"{sum(t > p90 for t in samples)} above it",
        "peak_rss_mb": f"range {min(r['peak_rss_mb'] for r in plain):.1f}"
                       f" .. {max(r['peak_rss_mb'] for r in plain):.1f}",
        "setup_s": f"CPU time until liftlab imported, {len(plain)} workers",
    }
    lines = [f"  {name:<13} {values[name]:.6g} {unit:<3} ({notes[name]})"
             for name, unit in END_TO_END.items()]
    lines.append(
        f"  measured, before scaling: wall_s "
        f"{statistics.median(r['wall_s'] for r in plain):.6g} s, setup_s "
        f"{statistics.median(r['setup_s'] for r in plain):.6g} s; speed "
        f"factors {min(factors):.3f} .. {max(factors):.3f}")
    return values, lines


def _counts(layers: dict) -> dict:
    return {fn: {k: v for k, v in entry.items() if k != "self_s"}
            for fn, entry in layers.items()}


def per_layer(raw: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics from the traced workers, and any count mismatch."""
    traced = [r for t, r in raw["runs"] if t]
    plain = [r for t, r in raw["runs"] if not t]
    first = _counts(traced[0]["layers"])
    problems = [f"traced worker {i} counted differently from the first"
                for i, r in enumerate(traced[1:], 1)
                if _counts(r["layers"]) != first]
    values = {}
    for name in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if name == "trace.wall_ratio":
            values[name] = (statistics.median(map(scaled_wall, traced))
                            / statistics.median(map(scaled_wall, plain)))
        elif field == "self_s":
            values[name] = statistics.median(
                r["layers"][fn]["self_s"] * speed_factor(r) for r in traced)
        elif field in RATIOS:
            counts = dict(first[fn])
            counts["cache_lookups"] = (counts.get("cache_hits", 0)
                                       + counts.get("cache_misses", 0))
            top, bottom = (counts.get(k, 0) for k in RATIOS[field])
            values[name] = top / bottom if bottom else 0.0
        else:
            values[name] = first[fn].get(field, 0)
    lines = [f"  {name:<44} {value:.6g} {PER_LAYER[name]}"
             for name, value in values.items()]
    lines.append(f"  ({len(traced)} traced and {len(plain)} plain workers; "
                 f"trace.wall_ratio is the tracing overhead)")
    return values, lines, problems


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              ops: list | None = None, tamper: int | None = None,
              min_samples: int = MIN_SAMPLES) -> dict:
    """One run: the contract's result object, readable lines, failures."""
    raw = run_workers(name, seed, seconds, trace, ops=ops, tamper=tamper,
                      min_samples=min_samples)
    verdict = judge(raw)
    problems = []
    if trace:
        values, lines, problems = per_layer(raw)
        units = PER_LAYER
    else:
        values, lines = end_to_end(raw)
        units = END_TO_END
    n_ops = len(raw["ops"])
    head = [f"workload {name}, seed {seed}, {n_ops} operations per worker, "
            f"{len(raw['runs'])} cold workers",
            "  operations: " + " ".join(f"{f}({n})" for f, n in raw["ops"])]
    tail = [f"  ops_failed_frac {verdict['failed'] / verdict['attempted']:.4g}"
            f" ({verdict['failed']} of {verdict['attempted']} operations)"]
    tail += [f"  failed: {f}({n}) {status}: {detail}"
             for f, n, status, detail in verdict["failures"]]
    tail += [f"  harness: {p}" for p in problems]
    return {
        "lines": head + lines + tail,
        "ops": raw["ops"],
        "failures": verdict["failures"],
        "result": {
            "correct": verdict["wrong"] == 0 and not problems,
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "liftlab" / "__init__.py").is_file():
        print(f"error: no liftlab sources under {ROOT / 'src'}; run from a "
              f"liftlab checkout", file=sys.stderr)
        return 2
    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
