"""Verification suite: the acceptance checks behind `liftlab verify`.

Each check_* function returns (passed, detail) and is independently
callable; run_suite executes them in order with timings.  The checks
deliberately recompute things through routes different from the ones
under test (brute-force filters, closures, closed formulas) so a
pass is evidence and not an echo.  The image H of the full preimage mod
2N, enumerated, is such a route: no command builds it, and
`check_classification_vs_predicates` holds the census's explicit
characters against its two-quotient coordinates.

verify_witness_data is the one certificate audit.  It re-validates a
lift's JSON dict from scratch: the character's free signs must
regenerate the recorded generator matrices, their images mod 2N must lie
in H (the full image), their closure in H must reproduce the certificate
orders, and the orders must fit the congruence dichotomy and the claimed
classification.  The closure stops once it holds more than |H|/2
elements: by Lagrange's theorem that subgroup is H, so only an image of
index 2 is closed to completion.  It audits exported witness
files and, in the property suite, every enumerated lift at N <= 24.
Every witness carries its own free signs; a file with null free_signs is
rejected.

The audit and the engine checks enumerate images mod 2N, so the
engine's one size guard, its scan bound, applies to them: past it the
audit refuses a witness, and `run_suite` refuses a `max_n` before any
check runs.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import counting, engine
from .matrices import IntegerMatrix, factorize
from .presentation import (FAMILIES as PRESENTATION_FAMILIES, coset_action,
                           elliptic_counts, farey_symbol, free_rank,
                           general_level, generator_set, index_formula)
from .lifts import (SignCharacter, _congruence_conditions, classify_all,
                    conditions_from_labels, find_witness, full_image,
                    full_image_order, lift_generators, propagate_witness)

RNG_SEED = 715


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail, "seconds": round(self.seconds, 3)}


def check_count_agreement(max_n: int = 48) -> tuple[bool, str]:
    """Formula and engine congruence-lift counts agree on every level."""
    bad = []
    for family in counting.FAMILIES:
        for n in range(1, max_n + 1):
            a = counting.count_congruence_lifts_formula(family, n).count
            b = counting.count_congruence_lifts_engine(family, n).count
            if a != b:
                bad.append((family, n, a, b))
    spots = {("gamma0", 4): 5, ("gamma0", 8): 9, ("gamma0", 9): 3,
             ("gamma1", 5): 3, ("gamma1", 6): 5, ("gamma", 2): 5,
             ("gamma", 4): 9}
    for (family, n), want in spots.items():
        if n <= max_n:
            got = counting.count_congruence_lifts_formula(family, n).count
            if got != want:
                bad.append((family, n, got, f"expected {want}"))
    if bad:
        return False, f"disagreements: {bad[:8]}"
    return True, (f"{3 * max_n} level counts agree on both routes, "
                  f"N <= {max_n}")


def check_quotient_structure(max_n: int = 48) -> tuple[bool, str]:
    """dim2 and the -I membership flags match the closed descriptions.

    Each direct summary mod 2N is also the oracle for the CRT route the
    engine count takes: `engine.quotient_summary_crt` must return the
    same summary, group order included.
    """
    bad = []
    for n in range(1, max_n + 1):
        prof = factorize(n)
        s, t = prof.s, prof.t
        q0 = engine.quotient_summary("gamma0", n)
        if q0.dim2 != min(4, s + 1) + t:
            bad.append(("gamma0 dim2", n, q0.dim2))
        if not q0.minus_one_in_group:
            bad.append(("gamma0 -I in G", n))
        want_sq = s <= 1 and all(p % 4 == 1 for p in prof.odd_primes())
        if q0.minus_one_in_squares != want_sq:
            bad.append(("gamma0 -I in squares", n, q0.minus_one_in_squares))
        q1 = engine.quotient_summary("gamma1", n)
        if q1.dim2 != min(2, s + 1):
            bad.append(("gamma1 dim2", n, q1.dim2))
        qf = engine.quotient_summary("gamma", n)
        if qf.dim2 != (1 if s == 0 else 3):
            bad.append(("gamma dim2", n, qf.dim2))
        for direct in (q0, q1, qf):
            split = engine.quotient_summary_crt(direct.family, n)
            if split != direct:
                bad.append(("crt summary", direct.family, n, split))
    if bad:
        return False, f"structure mismatches: {bad[:8]}"
    return True, (f"dim2 and -I flags match for N <= {max_n}, all three "
                  f"families; the CRT summaries equal the direct ones")


_TABLE_INDEX = {4: 6, 6: 12, 8: 12, 9: 12, 16: 24}
_TABLE_RANK = {4: 2, 6: 3, 8: 3, 9: 3, 16: 5}


def check_small_level_table(max_n: int = 16) -> tuple[bool, str]:
    """The five small torsion-free levels and their classification split."""
    bad = []
    levels = [n for n in (4, 6, 8, 9, 16) if n <= max_n]
    for n in levels:
        gens = generator_set("gamma0", n)
        if (gens.e2, gens.e3) != (0, 0):
            bad.append((n, "torsion", gens.e2, gens.e3))
        if gens.index != _TABLE_INDEX[n]:
            bad.append((n, "index", gens.index))
        if gens.rank != _TABLE_RANK[n]:
            bad.append((n, "rank", gens.rank))
        report = classify_all("gamma0", n)
        if report.all_congruence != (n in (4, 8)):
            bad.append((n, "classification", report.to_dict()))
    if bad:
        return False, f"table mismatches: {bad}"
    return True, f"index/rank/classification table reproduced for N in {levels}"


def check_gamma1_census(max_n: int = 5,
                        seed_tamper: bool = False) -> tuple[bool, str]:
    """Lift censuses at levels 4 and 5, plus witness re-verification."""
    bad = []
    done = []
    if seed_tamper and max_n < 5:
        return False, "the tamper control needs max_n >= 5 to have a target"
    if max_n >= 4:
        r4 = classify_all("gamma1", 4)
        if (r4.total, r4.congruence, r4.noncongruence) != (5, 5, 0):
            bad.append(("gamma1(4)", r4.to_dict()))
        done.append("5/5/0")
    if max_n >= 5:
        r5 = classify_all("gamma1", 5)
        if (r5.total, r5.congruence, r5.noncongruence) != (9, 3, 6):
            bad.append(("gamma1(5)", r5.to_dict()))
        elif r5.witness is None:
            bad.append(("gamma1(5)", "no witness attached"))
        else:
            data = r5.witness.to_dict()
            if seed_tamper:
                data["character"]["free_signs"][0] *= -1
            ok, msg = verify_witness_data(data)
            if seed_tamper and ok:
                bad.append(("negative control",
                            "tampered witness was accepted"))
            elif seed_tamper:
                done.append(f"9/3/6 with the tampered witness correctly "
                            f"rejected ({msg})")
            elif not ok:
                bad.append(("witness re-verification", msg))
            else:
                done.append("9/3/6 with witness re-verified")
    if bad:
        return False, f"census problems: {bad}"
    if not done:
        return True, "no census levels within range"
    return True, "lift censuses confirmed: " + ", ".join(done)


def _span_rank(vectors: list[int]) -> int:
    return len(vectors) - len(engine.f2_dependencies(
        (v, 0) for v in vectors))


def _direct_route_differs(family: str, n: int) -> tuple | None:
    """The oracle for `lifts`' characters: H enumerated mod 2N.

    |H| must equal `lifts.full_image_order`.  At a torsion-free level the
    presentation generators and -I must reach all of H (a closure that
    stops past |H|/2), and their `engine.two_quotient` labels, solved with
    the same sign payloads, must give conditions spanning the same space
    as the characters' conditions.
    """
    ambient = full_image(family, n)
    if ambient.order != full_image_order(family, n):
        return ("|H|", ambient.order, full_image_order(family, n))
    generators = generator_set(family, n)
    if generators.e2:
        return None
    keys = [m.reduce(2 * n).key()
            for m in lift_generators(SignCharacter(generators, None))]
    reached = engine.subgroup_order(keys, ambient)
    if reached != ambient.order:
        return ("generators reach", reached, ambient.order)
    labels = engine.two_quotient(ambient).labels
    direct, _ = conditions_from_labels(generators, [labels[k] for k in keys])
    direct = [mask << 1 | bit for mask, bit in direct]
    by_characters = [mask << 1 | bit
                     for mask, bit in _congruence_conditions(family, n)]
    if not (_span_rank(direct) == _span_rank(by_characters)
            == _span_rank(direct + by_characters)):
        return ("conditions", direct, by_characters)
    return None


def check_classification_vs_predicates(max_n: int = 48) -> tuple[bool, str]:
    """The closed-form predicates and counts against the F2 lift census.

    Every report, counted ones included, takes its totals from the
    congruence conditions, a route sharing no code with the closed form,
    and carries a witness exactly when some lift is noncongruence.  The
    census labels generators by explicit characters; at every level the
    direct route, H enumerated mod 2N, must agree with them.
    """
    predicates = {"gamma0": counting.all_lifts_congruence_gamma0,
                  "gamma1": counting.all_lifts_congruence_gamma1}
    bad = []
    counted = compared = 0
    for family, predicate in predicates.items():
        for n in range(1, max_n + 1):
            report = classify_all(family, n)
            counted += report.mode == "counted"
            formula = counting.count_congruence_lifts_formula(family, n).count
            if (report.congruence != formula
                    or report.all_congruence != predicate(n)
                    or (report.witness is None) != report.all_congruence):
                bad.append((family, n, report.total, report.congruence,
                            report.noncongruence, report.mode, formula))
            differs = _direct_route_differs(family, n)
            if differs:
                bad.append((family, n, "direct route", differs))
            compared += generator_set(family, n).e2 == 0
    if bad:
        return False, (
            f"the F2 census disagrees with the closed forms or the direct "
            f"route at: {bad}")
    return True, (f"predicates and closed-form counts match the F2 census "
                  f"at all {2 * max_n} levels N <= {max_n} ({counted} "
                  f"counted); the characters' conditions span the direct "
                  f"route's at {compared} torsion-free levels")


def _hyperplanes_avoiding_e1(p: int, d: int) -> int:
    """Hyperplanes of F_p^d avoiding e1, enumerated as kernels.

    Each hyperplane is the kernel of exactly one functional whose first
    nonzero coordinate is 1, and it avoids e1 when phi(e1) != 0.
    """
    count = 0
    for phi in itertools.product(range(p), repeat=d):
        nonzero = [x for x in phi if x]
        if nonzero and nonzero[0] == 1 and phi[0]:
            count += 1
    return count


def check_hyperplane_counts() -> tuple[bool, str]:
    """p^(d-1) versus brute-force hyperplane enumeration."""
    bad = []
    for p in (2, 3, 5):
        for d in range(1, 5):
            a = counting.count_codim1_avoiding(p, d)
            b = _hyperplanes_avoiding_e1(p, d)
            if a != b:
                bad.append((p, d, a, b))
    if bad:
        return False, f"hyperplane count mismatches: {bad}"
    return True, "formula equals brute force for p in {2,3,5}, d <= 4"


def check_general_level(max_n0: int = 60, max_n1: int = 20) -> tuple[bool, str]:
    """lcm of cusp widths recovers the defining level."""
    bad = []
    for n in range(1, max_n0 + 1):
        got = general_level(coset_action("gamma0", n))
        if got != n:
            bad.append(("gamma0", n, got))
    for n in range(1, max_n1 + 1):
        got = general_level(coset_action("gamma1", n))
        if got != n:
            bad.append(("gamma1", n, got))
    if bad:
        return False, f"general level mismatches: {bad[:8]}"
    return True, (f"general level equals N for gamma0 N <= {max_n0} "
                  f"and gamma1 N <= {max_n1}")


def _group_invariants(group: engine.ResidueMatrixGroup,
                      rng: random.Random) -> list:
    bad = []
    n = group.modulus
    elements = sorted(group.elements)
    if len(elements) <= 400:
        pairs = [(x, y) for x in elements for y in elements]
    else:
        pairs = [(rng.choice(elements), rng.choice(elements))
                 for _ in range(500)]
    for x, y in pairs:
        if engine.mul(x, y, n) not in group.elements:
            bad.append(("product escapes", n, x, y))
            break
    for x in elements[:200]:
        if engine.inv(x, n) not in group.elements:
            bad.append(("inverse escapes", n, x))
            break
    squares = engine.squares_subgroup(group)
    quot, rem = divmod(group.order, squares.order)
    if rem != 0 or quot & (quot - 1):
        bad.append(("squares index not a power of 2", n, group.order,
                    squares.order))
    for x in elements:
        if engine.mul(x, x, n) not in squares.elements:
            bad.append(("square outside squares subgroup", n, x))
            break
    return bad


def check_property_suite(max_n: int = 24) -> tuple[bool, str]:
    """Structural invariants: engine, Farey symbols, certificates."""
    rng = random.Random(RNG_SEED)
    bad = []

    for kind, level in (("gamma0", 6), ("gamma0", 12), ("gamma1", 5),
                        ("gamma", 2), ("gamma0", 1)):
        group = engine.subgroup_by_membership(kind, level, 2 * level)
        bad.extend(_group_invariants(group, rng))

    for family, top in (("gamma0", min(max_n, 24)), ("gamma1", min(max_n, 16))):
        for n in range(1, top + 1):
            symbol = farey_symbol(family, n)
            symbol.validate()
            gens = generator_set(family, n)
            if gens.index != index_formula(family, n):
                bad.append(("farey index", family, n, gens.index))
            # the two presentation routes cross-check each other
            action = coset_action(family, n)
            e2, e3 = elliptic_counts(action)
            want = (e2, e3, free_rank(action.degree, e2, e3))
            got = (symbol.e2, symbol.e3, symbol.rank)
            if got != want:
                bad.append(("farey e2/e3/r vs coset action", family, n, got,
                            want))
            if len(gens.entries) != gens.e2 + gens.e3 + gens.rank:
                bad.append(("farey generator count", family, n))

    # The paper's pull-back: the preimage of a smaller projective group
    # inside a noncongruence lift is a noncongruence lift, so it reaches all
    # of H, and the F2 solve must find a witness at the child level too.
    pulled = [(f, n) for f, n in (("gamma1", 6), ("gamma0", 12),
                                  ("gamma1", 12)) if n <= max_n]
    if pulled:
        parent = find_witness("gamma0", 6)
    for family, n in pulled:
        ambient = full_image(family, n)
        order = engine.subgroup_order(
            [g.reduce(2 * n).key()
             for g in propagate_witness(parent, family, n)], ambient)
        if order != ambient.order:
            bad.append(("pull-back image", family, n, order, ambient.order))
        try:
            find_witness(family, n)
        except LookupError:
            bad.append(("no witness below a pull-back", family, n))

    # Every enumerated lift goes through the audit an exported witness does.
    checked = 0
    for family in ("gamma0", "gamma1"):
        for n in range(1, min(max_n, 24) + 1):
            report = classify_all(family, n)
            if report.mode != "enumerated":
                continue
            for desc in report.descriptors:
                data = desc.to_dict()
                ok, msg = verify_witness_data(data)
                checked += 1
                if not ok:
                    bad.append(("certificate", family, n,
                                data["character"]["free_signs"], msg))
                    break
    if bad:
        return False, f"property failures: {bad[:6]}"
    return True, (f"group/Farey invariants hold; {len(pulled)} "
                  f"pull-backs reach H; {checked} certificates re-verified "
                  f"by closure in H")


_WITNESS_KEYS = {"kind": (str, "string"), "N": (int, "integer"),
                 "character": (dict, "object"), "generators": (list, "array"),
                 "classification": (str, "string"),
                 "certificate": (dict, "object")}
_CERTIFICATE_KEYS = ("image_order", "full_image_order", "modulus")


def _check_witness_schema(data) -> None:
    """Raise ValueError naming the first way `data` is not a witness dict."""
    if not isinstance(data, dict):
        raise ValueError(f"witness must be a JSON object, not "
                         f"{type(data).__name__}")
    for key, (kind, json_name) in _WITNESS_KEYS.items():
        if key not in data:
            raise ValueError(f"witness has no {key!r} key")
        if not isinstance(data[key], kind) or isinstance(data[key], bool):
            raise ValueError(f"witness {key!r} must be a JSON {json_name}, "
                             f"got {data[key]!r}")
    if data["kind"] not in PRESENTATION_FAMILIES:
        raise ValueError(f"unknown witness kind {data['kind']!r}; "
                         f"expected one of {PRESENTATION_FAMILIES}")
    if data["N"] < 1:
        raise ValueError(f"witness level N must be a positive integer, "
                         f"got {data['N']!r}")
    character = data["character"]
    if "free_signs" not in character:
        raise ValueError("witness character has no 'free_signs' key")
    signs = character["free_signs"]
    if signs is None:
        raise ValueError("witness character has null free_signs; null "
                         "free_signs are not accepted, every witness "
                         "carries its own signs")
    if not (signs == "full" or (
            isinstance(signs, list) and all(_is_int(x) for x in signs))):
        raise ValueError(f"witness character free_signs must be \"full\" "
                         f"or a list of integers, got {signs!r}")
    for row in data["generators"]:
        if not (isinstance(row, list) and len(row) == 4
                and all(_is_int(x) for x in row)
                and row[0] * row[3] - row[1] * row[2] == 1):
            raise ValueError(f"witness generator {row!r} is not a list of "
                             f"four integers with determinant 1")
    for key in _CERTIFICATE_KEYS:
        if not _is_int(data["certificate"].get(key)):
            raise ValueError(f"witness certificate {key!r} must be an "
                             f"integer")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def verify_witness_data(data: dict) -> tuple[bool, str]:
    """Re-validate an exported lift dict from first principles.

    The recorded generators must be the ones the character regenerates
    (`lifts.lift_generators`).  Their images mod 2N must lie in H,
    and their closure in H (`engine.subgroup_order`, which stops past
    |H|/2 elements) must reproduce the certificate orders.  The orders
    must fit the dichotomy: the full preimage reaches all of H and is
    congruence; a proper lift reaches |H|/2 (congruence) or |H|
    (noncongruence), as claimed.  Raises ValueError when `data` does not
    have the witness schema.
    """
    _check_witness_schema(data)
    family = data["kind"]
    level = data["N"]
    signs = data["character"]["free_signs"]
    cert = data["certificate"]
    claimed = data["classification"]
    if cert["modulus"] != 2 * level:
        return False, f"certificate modulus {cert['modulus']} is not 2N"
    n = 2 * level
    # full_image applies the scan bound before any enumeration runs; the
    # certificate's |H| came from the order formula, this one is enumerated.
    ambient = full_image(family, level)
    character = SignCharacter(generator_set(family, level),
                              None if signs == "full" else tuple(signs))
    expected = list(lift_generators(character))
    recorded = [IntegerMatrix(*row) for row in data["generators"]]
    if recorded != expected:
        return False, "recorded generators do not match the character"
    try:
        image_order = engine.subgroup_order(
            [m.reduce(n).key() for m in recorded], ambient)
    except ValueError as exc:
        return False, f"recorded generators leave H: {exc}"
    if ambient.order != cert["full_image_order"]:
        return False, (f"full image order {ambient.order} != certificate "
                       f"{cert['full_image_order']}")
    if image_order != cert["image_order"]:
        return False, (f"image order {image_order} != certificate "
                       f"{cert['image_order']}")
    if image_order == ambient.order:
        want = "congruence" if character.is_full_preimage else "noncongruence"
    elif 2 * image_order == ambient.order and not character.is_full_preimage:
        want = "congruence"
    else:
        return False, f"orders {image_order}/{ambient.order} break the dichotomy"
    if claimed != want:
        return False, f"classification {claimed!r} contradicts orders"
    return True, f"witness re-verified: orders {image_order}/{ambient.order} mod {n}"


CHECKS = (
    ("count-agreement", check_count_agreement),
    ("quotient-structure", check_quotient_structure),
    ("small-level-table", check_small_level_table),
    ("gamma1-census", check_gamma1_census),
    ("classification-vs-predicates", check_classification_vs_predicates),
    ("hyperplane-lemma", check_hyperplane_counts),
    ("general-level", check_general_level),
    ("property-suite", check_property_suite),
)


def run_suite(max_n: int = 24,
              seed_tamper: bool = False) -> list[CheckResult]:
    """Run every check, scaled down to levels <= max_n where applicable.

    The largest image the checks enumerate is H mod 2N at N = max_n, in
    every family the same row scan, so the scan bound is applied to it
    before any check runs.
    """
    engine.check_scan("gamma0", max_n, 2 * max_n)
    results = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        if name == "gamma1-census":
            passed, detail = fn(max_n=max_n, seed_tamper=seed_tamper)
        elif name == "hyperplane-lemma":
            passed, detail = fn()
        elif name == "general-level":
            passed, detail = fn(max_n0=min(max_n, 60), max_n1=min(max_n, 20))
        else:
            passed, detail = fn(max_n=max_n)
        results.append(CheckResult(name, passed, detail,
                                   time.perf_counter() - start))
    return results


def render_scoreboard(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.seconds:7.2f}s  {r.detail}")
    total = sum(1 for r in results if r.passed)
    lines.append(f"{total}/{len(results)} checks passed")
    return "\n".join(lines)
