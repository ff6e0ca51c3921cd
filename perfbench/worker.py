"""One cold worker: import liftlab, run an operation list, report timings.

The parent (run.py) starts this script as a fresh single-threaded process,
so liftlab's lru_caches start empty, as they do for a CLI call.  The job
arrives as JSON on stdin; the result leaves as JSON on stdout.

Order of work, so that nothing untimed leaks into a timing:
1. import liftlab (setup_s is the CPU time used up to here), read the job;
2. optionally install the tracer;
3. run every operation, timing each, keeping raw results; before each
   operation and after the last, time the calibration job (below);
4. read the peak resident set;
5. digest every output; optionally tamper with one (harness self-test);
6. optionally run the correctness oracle on every output (untimed).

The calibration job is a fixed pure-Python computation that does not use
liftlab.  On a machine whose cores other VMs share, speed can drift by a
factor of two over minutes; this job slows down with it, so run.py
scales each operation's time by the calibration times on either side of it.
"""

import gc
import hashlib
import json
import random
import resource
import sys
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from liftlab import cli, counting, engine, lifts, presentation, verify  # noqa: E402
from liftlab.matrices import IntegerMatrix  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-up time: the CPU seconds (user + system) this process has used from
# its start until liftlab is imported.  Wall time would add the time the
# process waited for a core, which drifts with the load of a shared machine.
_usage = resource.getrusage(resource.RUSAGE_SELF)
SETUP_CPU_S = _usage.ru_utime + _usage.ru_stime


# --- operations: one CLI-equivalent call each --------------------------------

def op_classify(family, level):
    """`liftlab classify --group family --n level`."""
    report = lifts.classify_all(family, level)
    return report, presentation.generator_set(family, level)


def op_count(family, level):
    """`liftlab count --mode engine --max-modulus 2N`."""
    return counting.count_congruence_lifts_engine(family, level,
                                                  max_modulus=2 * level)


def op_presentation(family, level):
    """Coset-action invariants, then `liftlab presentation`."""
    action = presentation.coset_action(family, level)
    e2, e3 = presentation.elliptic_counts(action)
    return {
        "index": action.degree, "e2": e2, "e3": e3,
        "cusp_widths": presentation.cusp_widths(action),
        "general_level": presentation.general_level(action),
        "symbol": presentation.farey_symbol(family, level),
        "generators": presentation.generator_set(family, level),
    }


def op_witness(family, level):
    """`liftlab witness --out w.json` then `liftlab verify-witness --in w.json`."""
    try:
        descriptor = lifts.find_witness(family, level)
    except LookupError as exc:
        return {"witness": None, "refusal": str(exc)}
    data = json.loads(json.dumps(descriptor.to_dict()))
    ok, message = verify.verify_witness_data(data)
    return {"witness": data, "verified": ok, "message": message}


# --- canonical output, for comparing workers ---------------------------------

def describe_classify(result):
    report, gens = result
    return [report.to_dict(), gens.to_dict(),
            [[d.classification, d.certificate.to_dict()]
             for d in report.descriptors or ()]]


def describe_presentation(result):
    symbol = result["symbol"]
    return dict(result, symbol=[symbol.fractions, symbol.labels],
                generators=result["generators"].to_dict())


DESCRIBE = {
    "classify": describe_classify,
    "count": lambda result: result.to_dict(),
    "presentation": describe_presentation,
    "witness": lambda result: result,
}


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- negative control: a deliberately wrong output ---------------------------

def _tamper_witness(result):
    cert = dict(result["witness"]["certificate"])
    cert["image_order"] += 1
    return dict(result, witness=dict(result["witness"], certificate=cert))


TAMPER = {
    "classify": lambda r: (replace(r[0], congruence=r[0].congruence + 1), r[1]),
    "count": lambda r: replace(r, count=r.count + 1),
    "presentation": lambda r: dict(r, general_level=r["general_level"] + 1),
    "witness": _tamper_witness,
}


# --- correctness oracle: an independent route per operation -------------------
# Each returns None when the output is right, or (status, reason).  A
# refusal ("error") is a failed operation; a contradicted value ("wrong")
# is a failed operation and an incorrect output.

def lift_total(family, level):
    """1 + 2^r lifts (1 with even torsion), r from the coset action."""
    action = presentation.coset_action(family, level)
    e2, e3 = presentation.elliptic_counts(action)
    if e2 > 0:
        return 1
    return 1 + 2 ** presentation.free_rank(action.degree, e2, e3)


def image_order(generators, level):
    n = 2 * level
    return engine.closure([m.reduce(n).key() for m in generators], n).order


def check_classify(family, level, result, rng):
    report, _ = result
    total = lift_total(family, level)
    formula = counting.count_congruence_lifts_formula(family, level).count
    if (report.total, report.congruence) != (total, formula):
        return ("wrong", f"total/congruence {report.total}/{report.congruence},"
                         f" expected {total}/{formula}")
    if report.mode != "enumerated" or len(report.descriptors) != total:
        return ("wrong", f"mode {report.mode} with "
                         f"{len(report.descriptors or ())} descriptors")
    ambient = lifts.full_image(family, level).order
    for d in rng.sample(report.descriptors, min(3, total)):
        order = image_order(d.generators, level)
        if (order, ambient) != (d.certificate.image_order,
                                d.certificate.full_image_order):
            return ("wrong", f"certificate {d.certificate.to_dict()}, "
                             f"closure gives {order}/{ambient}")
        congruence = d.is_full_preimage or 2 * order == ambient
        if d.classification != ("congruence" if congruence
                                else "noncongruence"):
            return ("wrong", f"{d.classification} at orders {order}/{ambient}")
    return None


def check_count(family, level, result, rng):
    formula = counting.count_congruence_lifts_formula(family, level).count
    if result.count != formula:
        return ("wrong", f"engine count {result.count}, formula {formula}")
    return None


def check_presentation(family, level, result, rng):
    symbol, gens = result["symbol"], result["generators"]
    index = presentation.index_formula(family, level)
    got = (result["index"], symbol.index, gens.index)
    if got != (index,) * 3:
        return ("wrong", f"index (action, symbol, generators) {got}, "
                         f"formula {index}")
    if (symbol.e2, symbol.e3) != (result["e2"], result["e3"]):
        return ("wrong", f"Farey e2/e3 {symbol.e2}/{symbol.e3}, coset action "
                         f"{result['e2']}/{result['e3']}")
    if result["general_level"] != level:
        return ("wrong", f"general level {result['general_level']}")
    symbol.validate()
    return None


def check_witness(family, level, result, rng):
    exists = (counting.count_congruence_lifts_formula(family, level).count
              < lift_total(family, level))
    data = result["witness"]
    if data is None:
        if exists:
            return ("error", "no witness returned although the formula count "
                             "is below the total: " + result["refusal"])
        return None
    if not exists:
        return ("wrong", "witness returned where every lift is congruence")
    if not result["verified"]:
        return ("wrong", "verifier rejected the exported witness: "
                         + result["message"])
    gens = [IntegerMatrix(*row) for row in data["generators"]]
    order = image_order(gens, level)
    ambient = lifts.full_image(family, level).order
    cert = data["certificate"]
    if not (order == ambient == cert["full_image_order"] == cert["image_order"]
            and data["classification"] == "noncongruence"):
        return ("wrong", f"closure order {order}, full image {ambient}, "
                         f"certificate {cert}")
    return None


OPS = {
    "classify": (op_classify, check_classify),
    "count": (op_count, check_count),
    "presentation": (op_presentation, check_presentation),
    "witness": (op_witness, check_witness),
}


def calibration_s() -> float:
    """Seconds for a fixed job: the closure of SL2(Z/24) under S and T.

    Garbage collection is off meanwhile, so the size of liftlab's heap does
    not change the job's cost.
    """
    n = 24
    gens = ((1, 1, 0, 1), (0, n - 1, 1, 0))
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen = {(1, 0, 0, 1)}
        queue = deque(seen)
        while queue:
            xa, xb, xc, xd = queue.popleft()
            for ya, yb, yc, yd in gens:
                y = ((xa * ya + xb * yc) % n, (xa * yb + xb * yd) % n,
                     (xc * ya + xd * yc) % n, (xc * yb + xd * yd) % n)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return time.perf_counter() - start
    finally:
        if gc_enabled:
            gc.enable()


def main():
    if not Path(lifts.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"liftlab was imported from {lifts.__file__}, "
                         f"not from {SRC}")
    job = json.load(sys.stdin)
    run_op, check = OPS[job["op"]]
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        modules = [engine, lifts, presentation, counting, verify]
        tracer.install(modules, modules + [cli])
    ops = [tuple(op) for op in job["ops"]]
    results, latencies, calibrations = [], [], []
    clock = time.perf_counter
    for family, level in ops:
        calibrations.append(calibration_s())
        t0 = clock()
        try:
            results.append(("ok", run_op(family, level)))
        except Exception as exc:  # a failed operation is data, not a crash
            results.append(("error", f"{type(exc).__name__}: {exc}"))
        latencies.append(clock() - t0)
    calibrations.append(calibration_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if job.get("tamper") is not None:
        status, value = results[job["tamper"]]
        results[job["tamper"]] = (status, TAMPER[job["op"]](value))
    outcomes = []
    oracle_start = clock()
    rng = random.Random(job["oracle_seed"])
    for (family, level), (status, value) in zip(ops, results):
        if status == "error":
            outcomes.append({"status": "error", "detail": value,
                             "digest": digest(value)})
            continue
        outcome = {"status": "ok", "detail": "",
                   "digest": digest(DESCRIBE[job["op"]](value))}
        if job["oracle"]:
            try:
                verdict = check(family, level, value, rng)
            except Exception as exc:  # the oracle's own checks raise too
                verdict = ("wrong", f"oracle raised {type(exc).__name__}: {exc}")
            if verdict is not None:
                outcome["status"], outcome["detail"] = verdict
        outcomes.append(outcome)
    oracle_s = clock() - oracle_start

    layers = None
    if tracer is not None:
        layers = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    json.dump({"setup_s": SETUP_CPU_S, "wall_s": sum(latencies),
               "calibrations": calibrations,
               "peak_rss_mb": peak_rss_mb, "latencies": latencies,
               "outcomes": outcomes, "oracle_s": oracle_s,
               "layers": layers}, sys.stdout)


if __name__ == "__main__":
    main()
