"""Workload definitions and the seeded draw of each run's operation list.

A workload is one kind of operation (one CLI-equivalent call) applied to a
list of (family, level) pairs.  The list is drawn from the seed, stratum by
stratum, without replacement: a repeated level would hit liftlab's
``lru_cache``s and time a dictionary lookup instead of the work.

The strata group levels whose cost is nearly the same (same free rank, same
index, or images of nearly the same order mod 2N), so a different seed
changes which levels run but not how much work a run holds.  Each list has
13 operations laid out the same way: four or five cheap ones, four in a
middle band (the seventh, the median, falls there), two or three above it
and two of nearly equal cost on top (where the 90th percentile falls).  Without that layout the pooled percentiles would
sit on the boundary between two cost bands and jump from seed to seed.
For the same reason the operations those percentiles land on are mostly
fixed (a stratum that takes all its levels); the seed varies the rest.

This module imports nothing from liftlab; the parent process uses it to
draw lists, the worker to run them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Op = tuple[str, int]


@dataclass(frozen=True)
class Stratum:
    """Draw ``take`` of ``choices``; each choice is one or more operations.

    A choice holds several operations when they must travel together, for
    instance a propagated witness whose parent level must not be drawn
    elsewhere in the same list (its classification would already be cached).
    """

    choices: tuple[tuple[Op, ...], ...]
    take: int


def pick(family: str, levels: tuple[int, ...], take: int) -> Stratum:
    return Stratum(tuple(((family, n),) for n in levels), take)


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    why: str
    strata: tuple[Stratum, ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "classify-enumerated", "classify",
        "classify_all at enumerated levels (r up to 9): per-lift "
        "closure_contains and the per-lift full_image rebuild dominate",
        (
            # cheap: r <= 5 small groups, or e2 > 0 (only the full preimage)
            pick("gamma0", (6, 8, 9, 11), 2),
            pick("gamma1", (5, 6), 1),
            pick("gamma0", (10, 13, 17), 1),
            pick("gamma1", (7, 8), 1),
            # middle: r = 5 for gamma0, r = 7 for gamma1
            pick("gamma0", (12, 14, 16), 3),
            pick("gamma1", (9, 10), 1),
            # upper: r = 5 with larger images, and gamma1's only r = 9 level
            pick("gamma0", (21, 23), 1),
            pick("gamma1", (12,), 1),
            # top: gamma0 at r = 7, 129 lifts each (gamma0(20) runs faster)
            pick("gamma0", (18, 22), 2),
        )),
    Workload(
        "count-large", "count",
        "engine congruence counts past the default modulus cap: image "
        "enumeration mod 2N, squares subgroup, two-quotient and memory",
        (
            # cheap: gamma and gamma1 images are small; the row scan dominates
            pick("gamma", (200, 210, 240), 2),
            pick("gamma1", (200, 210, 240), 2),
            pick("gamma0", (64, 75, 90), 1),
            # middle
            pick("gamma1", (312, 350), 2),
            pick("gamma", (320, 336), 2),
            # upper: gamma0 images of 48k to 56k elements mod 2N
            pick("gamma0", (138, 140, 144, 150), 2),
            # top: gamma0 images of 124k to 130k elements mod 2N; they set
            # the peak resident set
            pick("gamma0", (184, 200, 216), 2),
        )),
    Workload(
        "presentation-gamma1", "presentation",
        "coset-action invariants, Farey symbol and generators: free-pair "
        "search grows with the square of the side count; no engine runs",
        (
            # cheap: gamma0 index 180 and 360, gamma1 index 192 and 288
            pick("gamma0", (150, 174, 200, 225), 2),
            pick("gamma0", (100, 116, 118), 1),
            pick("gamma1", (21, 24), 1),
            pick("gamma1", (28, 30), 1),
            # middle: index 576 in both families
            pick("gamma1", (35, 40, 42), 3),
            pick("gamma0", (240, 252, 280), 1),
            # upper: gamma0 index 720
            pick("gamma0", (342, 350, 418), 2),
            # top: gamma1 index 1152, about 380 sides
            pick("gamma1", (51, 56), 2),
        )),
    Workload(
        "witness-roundtrip", "witness",
        "find_witness, JSON export and re-import, verify_witness_data: the "
        "only workload with witness propagation and full-closure audits",
        (
            # cheap: a counted gamma1 level whose witness search gives up
            # (LookupError), a level with no witness at all, a small
            # enumerated witness, a small propagated gamma1 witness
            pick("gamma1", (11, 13, 17, 19), 1),
            Stratum(tuple(((f, n),) for f, n in (
                ("gamma0", 3), ("gamma0", 4), ("gamma0", 7), ("gamma0", 8),
                ("gamma1", 4))), 1),
            pick("gamma0", (6, 11), 1),
            pick("gamma1", (15, 18, 25, 27), 1),
            # middle: enumerated witnesses, audited by a full closure
            pick("gamma0", (12, 14, 16), 3),
            pick("gamma1", (9,), 1),
            # upper: propagated witnesses (the pairs never share a parent),
            # and gamma1's r = 9 witness
            Stratum(((("gamma0", 38), ("gamma1", 45)),
                     (("gamma0", 45), ("gamma1", 38))), 1),
            pick("gamma1", (12,), 1),
            # top: gamma0 witnesses propagated from r = 7 levels
            pick("gamma0", (36, 40), 2),
        )),
)}


def draw_ops(workload: Workload, seed: int) -> list[Op]:
    """The run's operation list: a seeded draw per stratum, then shuffled."""
    rng = random.Random(f"{workload.name}/{seed}")
    ops: list[Op] = []
    for stratum in workload.strata:
        for choice in rng.sample(stratum.choices, stratum.take):
            ops.extend(choice)
    rng.shuffle(ops)
    if len(set(ops)) != len(ops):
        raise AssertionError(f"{workload.name}: a level was drawn twice")
    return ops
