"""Coset actions and Farey symbols for projective congruence groups.

The permutation route: right cosets of the projective group are walked
by right multiplication with S = [[0,-1],[1,0]] and T = [[1,1],[0,1]].
Torsion is read off fixed points (e2 from the S-permutation, e3 from the
S*T-permutation), cusp widths off the T-cycles, and the free rank of the
group's presentation from index and torsion alone.  The same
breadth-first walk, stepping by a lift's generators instead of S and T,
gives the Schreier generators of the pull-back in
`lifts.propagate_witness`.

The generator route: a Farey symbol is grown from the seed sequence
-infty, 0, +infty by testing the leftmost unlabeled side for an even or
odd self-pairing or a free pairing with another unlabeled side,
inserting the mediant whenever no label fits.  Free partners are looked
up by coset key instead of scanned: the free candidate below lies in the
group exactly when two bottom rows share a key (see `farey_symbol`), so
the construction stays near-linear in the number of sides.  Every
candidate pairing matrix is validated by its endpoint action and by the
projective membership predicate before it is accepted, so the
construction never trusts a formula it cannot check.

Side-pairing candidates for a side from a1/b1 to a2/b2 (consecutive
entries satisfy a2*b1 - a1*b2 = 1; infinities are carried as (-1, 0) and
(1, 0)):

* even:  [[a1*b1 + a2*b2, -(a1^2 + a2^2)], [b1^2 + b2^2, -(a1*b1 + a2*b2)]]
  swaps the endpoints, trace 0;
* odd:   [[a2*b2 + a1*b2 + a1*b1, -(a1^2 + a1*a2 + a2^2)],
          [b1^2 + b1*b2 + b2^2, -(a2*b2 + a2*b1 + a1*b1)]]
  cycles endpoint 2 -> endpoint 1 -> mediant, trace -1 (cube is +I);
* free, onto the side from a3/b3 to a4/b4:
         [[-(a4*b2 + a3*b1), a4*a2 + a3*a1],
          [-(b4*b2 + b3*b1), a2*b4 + a1*b3]]
  carries endpoints 1, 2 onto endpoints 4, 3 (orientation-reversing);
  it is -M' * S * M^-1 with M = [[a2, a1], [b2, b1]] and
  M' = [[a4, a3], [b4, b3]], so it is in the group exactly when the
  bottom rows (b3, -b4) and (b2, b1) lie in the same right coset.

For level at most 3 the degree-1 family equals the degree-0 family
projectively, so those requests are delegated to the gamma0 path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

from .matrices import IDENTITY, S, T, IntegerMatrix, factorize

DEFAULT_MAX_INDEX = 20000

FAMILIES = ("gamma0", "gamma1")

Fraction2 = tuple[int, int]


class IndexBoundExceeded(ValueError):
    """Raised when a coset enumeration would exceed the index bound."""


def _normalize_family(family: str, level: int) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "gamma1" and level <= 3:
        return "gamma0"
    return family


def proj_member(family: str, level: int, m: IntegerMatrix) -> bool:
    """Membership of m (up to sign) in the congruence subgroup."""
    n = level
    if m.c % n != 0:
        return False
    if _normalize_family(family, level) == "gamma0":
        return True
    return (m.a % n == 1 % n and m.d % n == 1 % n) or \
        (m.a % n == -1 % n and m.d % n == -1 % n)


def _coset_key_fn(family: str, level: int):
    """Canonical label for the right coset with bottom row (c, d).

    Two matrices lie in the same right coset exactly when their bottom
    rows mod N agree up to a unit factor (gamma0) or up to sign (gamma1);
    both follow from the determinant being 1.  A gamma0 class is keyed
    without running over the units: with g = gcd(c, N) and u a unit
    with u*c = g mod N, the row is equivalent to (g, u*d), and the units
    fixing g are those = 1 mod N/g.  Because gcd(d, g) = 1, they carry
    u*d exactly onto the residues mod N that agree with it mod N/g and
    are prime to g, so (g, u*d mod N/g) is a complete key, and u only
    matters mod N/g, where it is the inverse of c/g.  (g, N/g, u) is
    cached per residue c.
    """
    n = level
    if n == 1:
        return lambda c, d: (0, 0)
    family = _normalize_family(family, level)
    if family == "gamma0":
        by_residue = []
        for c in range(n):
            g = math.gcd(c, n)
            by_residue.append((g, n // g, pow(c // g, -1, n // g)))

        def key(c: int, d: int):
            g, width, u = by_residue[c % n]
            return g, u * d % width
    else:

        def key(c: int, d: int):
            c, d = c % n, d % n
            return min((c, d), (-c % n, -d % n))

    return key


@dataclass(frozen=True)
class CosetAction:
    """Permutation action of S and T on the cosets of a projective group."""

    family: str
    level: int
    degree: int
    s_perm: tuple[int, ...]
    t_perm: tuple[int, ...]
    representatives: tuple[IntegerMatrix, ...]

    def st_perm(self) -> tuple[int, ...]:
        """Permutation of S*T: apply the S-step, then the T-step."""
        return tuple(self.t_perm[j] for j in self.s_perm)


def _coset_walk(key, steps: tuple[IntegerMatrix, ...], max_index: int,
                what: str) -> tuple[list[IntegerMatrix], list[list[int]]]:
    """Breadth-first walk of the right cosets reachable from the identity.

    `key(c, d)` labels the coset of a matrix with bottom row (c, d).
    Cosets are numbered as they are first reached, so `reps[i]` is the
    first matrix found in coset i, and `edges[i][k]` is the coset of
    reps[i] * steps[k].  The list of representatives grows while it is
    walked, so cosets are visited in the order they are numbered.
    """
    index_of = {key(0, 1): 0}
    reps = [IDENTITY]
    edges = []
    for rep in reps:
        row = []
        for step in steps:
            image = rep * step
            k = key(image.c, image.d)
            j = index_of.get(k)
            if j is None:
                j = len(reps)
                if j >= max_index:
                    raise IndexBoundExceeded(
                        f"coset space of {what} exceeds {max_index}")
                index_of[k] = j
                reps.append(image)
            row.append(j)
        edges.append(row)
    return reps, edges


def build_coset_action(family: str, level: int,
                       max_index: int = DEFAULT_MAX_INDEX) -> CosetAction:
    """Enumerate the coset space by orbit construction from the identity."""
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    reps, edges = _coset_walk(_coset_key_fn(family, level), (S, T),
                              max_index, f"{family}({level})")
    s_perm, t_perm = zip(*edges)
    action = CosetAction(family, level, len(reps), s_perm, t_perm, tuple(reps))
    _check_action(action)
    return action


def _check_action(action: CosetAction) -> None:
    s, st = action.s_perm, action.st_perm()
    for i in range(action.degree):
        if s[s[i]] != i:
            raise AssertionError("S-permutation is not an involution")
        if st[st[st[i]]] != i:
            raise AssertionError("S*T-permutation does not cube to identity")


# A default `liftlab verify` asks for 45 distinct coset actions and 48
# distinct generator sets, and at these sizes neither cache evicts an
# entry it is asked for again (one less would turn 38 of 92 action
# lookups, or 18 of 129 generator lookups, from hits into misses).  A long
# level range no longer keeps every level it has seen.
@lru_cache(maxsize=45)
def _cached_action(family: str, level: int) -> CosetAction:
    return build_coset_action(family, level)


def coset_action(family: str, level: int) -> CosetAction:
    """Cached coset action (the action is immutable, so sharing is safe)."""
    return _cached_action(_normalize_family(family, level), level)


def index_formula(family: str, level: int) -> int:
    """Index of the projective group in PSL2(Z), as an exact integer."""
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    n = level
    primes = [p for p, _ in factorize(n).odd_factors]
    if n % 2 == 0:
        primes.append(2)
    if _normalize_family(family, level) == "gamma0":
        idx = n
        for p in primes:
            idx = idx // p * (p + 1)
        return idx
    idx = n * n
    for p in primes:
        idx = idx // (p * p) * (p * p - 1)
    if idx % 2 != 0:
        raise AssertionError(f"odd pre-halving index {idx} for level {n}")
    return idx // 2


def elliptic_counts(action: CosetAction) -> tuple[int, int]:
    """(e2, e3) = fixed points of the S- and S*T-permutations."""
    e2 = sum(1 for i, j in enumerate(action.s_perm) if i == j)
    e3 = sum(1 for i, j in enumerate(action.st_perm()) if i == j)
    return e2, e3


def free_rank(index: int, e2: int, e3: int) -> int:
    """Rank of the free part of the presentation: (d - 3*e2 - 4*e3)/6 + 1."""
    numerator = index - 3 * e2 - 4 * e3
    if numerator % 6 != 0:
        raise ValueError(
            f"inconsistent invariants: d={index}, e2={e2}, e3={e3}")
    r = numerator // 6 + 1
    if r < 0:
        raise ValueError(
            f"negative free rank from d={index}, e2={e2}, e3={e3}")
    return r


def cusp_widths(action: CosetAction) -> tuple[int, ...]:
    """Widths of the cusps: cycle lengths of the T-permutation, sorted."""
    seen = [False] * action.degree
    widths = []
    for start in range(action.degree):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = action.t_perm[i]
            length += 1
        widths.append(length)
    return tuple(sorted(widths))


def general_level(action: CosetAction) -> int:
    """lcm of the cusp widths (the Wohlfahrt level of the group)."""
    return math.lcm(*cusp_widths(action))


# ---------------------------------------------------------------------------
# Farey symbols


def _mediant(x: Fraction2, y: Fraction2) -> Fraction2:
    return (x[0] + y[0], x[1] + y[1])


def _even_candidate(x: Fraction2, y: Fraction2) -> IntegerMatrix:
    a1, b1 = x
    a2, b2 = y
    return IntegerMatrix(a1 * b1 + a2 * b2, -(a1 * a1 + a2 * a2),
                         b1 * b1 + b2 * b2, -(a1 * b1 + a2 * b2))


def _odd_candidate(x: Fraction2, y: Fraction2) -> IntegerMatrix:
    a1, b1 = x
    a2, b2 = y
    return IntegerMatrix(a2 * b2 + a1 * b2 + a1 * b1,
                         -(a1 * a1 + a1 * a2 + a2 * a2),
                         b1 * b1 + b1 * b2 + b2 * b2,
                         -(a2 * b2 + a2 * b1 + a1 * b1))


def _free_candidate(side: tuple[Fraction2, Fraction2],
                    other: tuple[Fraction2, Fraction2]) -> IntegerMatrix:
    (a1, b1), (a2, b2) = side
    (a3, b3), (a4, b4) = other
    return IntegerMatrix(-(a4 * b2 + a3 * b1), a4 * a2 + a3 * a1,
                         -(b4 * b2 + b3 * b1), a2 * b4 + a1 * b3)


def _proj_maps(m: IntegerMatrix, x: Fraction2, y: Fraction2) -> bool:
    """Whether m carries the cusp x onto the cusp y (projectively)."""
    a, b = x
    image = (m.a * a + m.b * b, m.c * a + m.d * b)
    return image == y or image == (-y[0], -y[1])


def _proj_key(m: IntegerMatrix) -> tuple:
    return min(m.entries(), (-m).entries())


# Sides in the order of their left endpoints a/b; only (-1, 0) has b = 0.
_LEFT_TO_RIGHT = cmp_to_key(
    lambda s, t: s[0][0] * t[0][1] - t[0][0] * s[0][1])


@dataclass(frozen=True)
class FareySymbol:
    """A labeled unimodular fraction sequence presenting the group.

    `fractions` runs from (-1, 0) to (1, 0); `labels` has one entry per
    consecutive pair: "even", "odd", or a positive pairing id appearing
    exactly twice.
    """

    family: str
    level: int
    fractions: tuple[Fraction2, ...]
    labels: tuple[str | int, ...]

    @property
    def e2(self) -> int:
        return sum(1 for x in self.labels if x == "even")

    @property
    def e3(self) -> int:
        return sum(1 for x in self.labels if x == "odd")

    @property
    def rank(self) -> int:
        return len({x for x in self.labels if isinstance(x, int)})

    @property
    def index(self) -> int:
        """Index recovered from the label counts."""
        return 6 * (self.rank - 1) + 3 * self.e2 + 4 * self.e3

    def side(self, i: int) -> tuple[Fraction2, Fraction2]:
        return self.fractions[i], self.fractions[i + 1]

    def pair_positions(self) -> dict[int, tuple[int, int]]:
        """Pairing id -> the two side indices carrying it."""
        where: dict[int, list[int]] = {}
        for i, lab in enumerate(self.labels):
            if isinstance(lab, int):
                where.setdefault(lab, []).append(i)
        out = {}
        for lab, positions in where.items():
            if len(positions) != 2:
                raise AssertionError(f"pairing id {lab} used {len(positions)} times")
            out[lab] = (positions[0], positions[1])
        return out

    def validate(self) -> None:
        if len(self.labels) != len(self.fractions) - 1:
            raise AssertionError("label count does not match side count")
        if self.fractions[0] != (-1, 0) or self.fractions[-1] != (1, 0):
            raise AssertionError("symbol must run from -infinity to +infinity")
        for (a1, b1), (a2, b2) in zip(self.fractions, self.fractions[1:]):
            if a2 * b1 - a1 * b2 != 1:
                raise AssertionError(
                    f"consecutive pair {(a1, b1)}, {(a2, b2)} not unimodular")
        self.pair_positions()


# `generator_set` grows its symbol here, so a caller asking for both gets
# one symbol.  A default `liftlab verify` asks for 48 distinct symbols, and
# at this size 40 of its 88 lookups hit, as with no bound (47 gives 22).
@lru_cache(maxsize=48)
def farey_symbol(family: str, level: int) -> FareySymbol:
    """Grow a Farey symbol for the projective group by mediant refinement.

    Deterministic: always works on the leftmost unlabeled side, tries an
    even self-pairing, then an odd one, then a free pairing with the
    leftmost unlabeled side that passes every check, and otherwise splits
    the side at its mediant.  A matrix (up to sign and inversion) is
    never accepted for two different sides.

    Free partners are looked up, not scanned.  The free candidate for
    the side x -> y onto the side w -> z is -M_w * S * M_x^-1 with
    M_x = [[a2, a1], [b2, b1]] and M_w = [[a4, a3], [b4, b3]], so it lies
    in the projective group exactly when the bottom rows (b3, -b4) of
    M_w * S and (b2, b1) of M_x have the same coset key.  The unlabeled
    sides are bucketed by the key of (b3, -b4), and side x -> y tries
    only the bucket of (b2, b1), left to right, with every check of a
    scan, so it accepts the partner a scan would.  Past level 1 a bucket
    holds at most one side: a group element carrying one onto another
    would carry the grown region's triangle on the first onto its
    triangle on the second, and those triangles are inequivalent.
    """
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    eff = _normalize_family(family, level)
    max_sides = max(64, 4 * index_formula(eff, level))
    key = _coset_key_fn(eff, level)

    def member(m: IntegerMatrix) -> bool:
        return proj_member(eff, level, m)

    fractions: list[Fraction2] = [(-1, 0), (0, 1), (1, 0)]
    labels: list[str | int | None] = [None, None]
    used: set[tuple] = set()
    next_pair_id = 1
    # unlabeled sides (w, z), by the coset key of the bottom row (b3, -b4)
    unlabeled: dict[tuple, set[tuple[Fraction2, Fraction2]]] = {}

    def partner_key(side: tuple[Fraction2, Fraction2]) -> tuple:
        (_, b3), (_, b4) = side
        return key(b3, -b4)

    def add(side: tuple[Fraction2, Fraction2]) -> None:
        unlabeled.setdefault(partner_key(side), set()).add(side)

    def remove(side: tuple[Fraction2, Fraction2]) -> None:
        unlabeled[partner_key(side)].remove(side)

    def accept(matrix: IntegerMatrix) -> None:
        used.add(_proj_key(matrix))
        used.add(_proj_key(matrix.inverse()))

    add((fractions[0], fractions[1]))
    add((fractions[1], fractions[2]))
    i = 0
    while True:
        # the leftmost unlabeled side never moves left
        try:
            i = labels.index(None, i)
        except ValueError:
            break
        x, y = fractions[i], fractions[i + 1]
        side = (x, y)

        even = _even_candidate(x, y)
        if member(even) and _proj_key(even) not in used:
            if not (_proj_maps(even, x, y) and _proj_maps(even, y, x)):
                raise AssertionError(f"even candidate fails endpoint check on {x}, {y}")
            labels[i] = "even"
            accept(even)
            remove(side)
            continue

        odd = _odd_candidate(x, y)
        if member(odd) and _proj_key(odd) not in used:
            if not (_proj_maps(odd, y, x) and _proj_maps(odd, x, _mediant(x, y))):
                raise AssertionError(f"odd candidate fails endpoint check on {x}, {y}")
            labels[i] = "odd"
            accept(odd)
            remove(side)
            continue

        # side i itself may be among them: its free candidate is the even
        # one, of trace 0
        candidates = unlabeled.get(key(y[1], x[1]), ())
        for other in sorted(candidates, key=_LEFT_TO_RIGHT):
            g = _free_candidate(side, other)
            if abs(g.trace) < 2 or g.proj_eq(IDENTITY):
                continue
            if not member(g):
                raise AssertionError(
                    f"free candidate onto {other} has a matching coset key "
                    f"but fails the membership predicate")
            if _proj_key(g) not in used:
                w, z = other
                j = fractions.index(w, i + 1)
                if not (_proj_maps(g, x, z) and _proj_maps(g, y, w)):
                    raise AssertionError(
                        f"free candidate fails endpoint check on sides {i}, {j}")
                labels[i] = labels[j] = next_pair_id
                next_pair_id += 1
                accept(g)
                remove(side)
                remove(other)
                break
        else:
            mediant = _mediant(x, y)
            fractions.insert(i + 1, mediant)
            labels.insert(i, None)
            remove(side)
            add((x, mediant))
            add((mediant, y))
            if len(labels) > max_sides:
                raise RuntimeError(f"refinement for {family}({level}) "
                                   f"exceeded {max_sides} sides")

    symbol = FareySymbol(family, level, tuple(fractions), tuple(labels))
    symbol.validate()
    return symbol


@dataclass(frozen=True)
class GeneratorSet:
    """Side-pairing generators read off a Farey symbol.

    One entry per even side (order 2 projectively), odd side (order 3,
    trace normalized to -1 so the cube is +I in SL2(Z)) and free pair
    (infinite order).  Together with -I these generate the full preimage
    of the projective group in SL2(Z).
    """

    family: str
    level: int
    index: int
    e2: int
    e3: int
    rank: int
    entries: tuple[tuple[IntegerMatrix, str], ...]

    def matrices(self) -> tuple[IntegerMatrix, ...]:
        return tuple(m for m, _ in self.entries)

    def by_type(self, kind: str) -> tuple[IntegerMatrix, ...]:
        return tuple(m for m, k in self.entries if k == kind)

    def to_dict(self) -> dict:
        return {
            "kind": self.family,
            "N": self.level,
            "index": self.index,
            "e2": self.e2,
            "e3": self.e3,
            "r": self.rank,
            "generators": [
                {"matrix": list(m.entries()), "type": k}
                for m, k in self.entries
            ],
        }


def generators_from_symbol(symbol: FareySymbol) -> GeneratorSet:
    """Recover the side-pairing matrices of a validated Farey symbol."""
    entries: list[tuple[IntegerMatrix, str]] = []
    pairs = symbol.pair_positions()
    for i, lab in enumerate(symbol.labels):
        x, y = symbol.side(i)
        if lab == "even":
            m = _even_candidate(x, y)
            if m.trace != 0:
                raise AssertionError("even generator must have trace 0")
            entries.append((m, "even"))
        elif lab == "odd":
            m = _odd_candidate(x, y)
            if m.trace != -1:
                raise AssertionError("odd generator must have trace -1")
            entries.append((m, "odd"))
        else:
            first, second = pairs[lab]
            if i != first:
                continue
            m = _free_candidate(symbol.side(first), symbol.side(second))
            if abs(m.trace) < 2:
                raise AssertionError("free generator must have infinite order")
            entries.append((m, "free"))
    for m, _ in entries:
        if not proj_member(symbol.family, symbol.level, m):
            raise AssertionError(f"generator {m} fails the membership predicate")
    gens = GeneratorSet(symbol.family, symbol.level, symbol.index,
                        symbol.e2, symbol.e3, symbol.rank, tuple(entries))
    if len(gens.entries) != gens.e2 + gens.e3 + gens.rank:
        raise AssertionError("generator count must equal e2 + e3 + r")
    return gens


@lru_cache(maxsize=48)
def generator_set(family: str, level: int) -> GeneratorSet:
    """Cached presentation generators for the projective group."""
    return generators_from_symbol(farey_symbol(family, level))
