"""Coset actions and Farey symbols for projective congruence groups.

The permutation route: right cosets of the projective group are walked
by right multiplication with S = [[0,-1],[1,0]] and T = [[1,1],[0,1]].
A right coset is determined by the bottom row of any of its matrices
mod N, so the walk steps bottom rows mod N and never multiplies
matrices.  Torsion is read off fixed points (e2 from the
S-permutation, e3 from the S*T-permutation), cusp widths off the
T-cycles, and the free rank of the group's presentation from index and
torsion alone.  The same breadth-first walk, stepping by a lift's
generators instead of S and T, records the tree from which
`lifts.propagate_witness` rebuilds its transversal and reads off the
Schreier generators of the pull-back.

The generator route: a Farey symbol is grown from the seed sequence
-infty, 0, +infty by testing the leftmost open side for an even or odd
self-pairing or a free pairing with another open side, splitting it at
the mediant whenever no label fits.  The open sides are kept on a stack
with the leftmost on top, so a side is finished, and appended to the
symbol, in left-to-right order.  Free partners are looked up by coset
key instead of scanned: the free candidate below lies in the group
exactly when two bottom rows share a key (see `farey_symbol`), so the
construction stays near-linear in the number of sides.  Candidates are
screened on their entries mod N, and only one that passes and is new up
to sign and inversion is built as a matrix and accepted.  The symbol
records each accepted matrix with its kind, and those pairings are the
presentation generators: `generators_from_symbol` reads them off.
`FareySymbol.validate` is the one check of them (kind, membership,
endpoint action, trace, no repeats; `IntegerMatrix` checks the
determinant), so the construction never hands out a formula it has not
checked.

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

One size guard bounds the layer: the exact index (`index_formula`) is
compared with `DEFAULT_MAX_INDEX` before any coset walk, Farey symbol or
pull-back starts, and past it `IndexBoundExceeded` is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .matrices import S, T, IntegerMatrix, factorize

# Budget: about 2 s per Farey symbol.  The symbol of gamma1(313), index
# 48984, grows in 2.1 s (Python 3.11 on a 2-core Intel Xeon VM).
DEFAULT_MAX_INDEX = 50000

FAMILIES = ("gamma0", "gamma1")

Fraction2 = tuple[int, int]


class IndexBoundExceeded(ValueError):
    """Raised when a coset enumeration would exceed the index bound."""


def _check_index(index: int, what: str) -> None:
    """Refuse a coset space of more than `DEFAULT_MAX_INDEX` cosets."""
    if index > DEFAULT_MAX_INDEX:
        raise IndexBoundExceeded(f"index {index} of {what} exceeds the "
                                 f"index bound {DEFAULT_MAX_INDEX}")


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

    def st_perm(self) -> tuple[int, ...]:
        """Permutation of S*T: apply the S-step, then the T-step."""
        return tuple(self.t_perm[j] for j in self.s_perm)


def _coset_walk(key, level: int, steps: tuple[IntegerMatrix, ...]
                ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Breadth-first walk of the right cosets reachable from the identity.

    `key(c, d)` labels the coset of a matrix with bottom row (c, d), and
    depends on the row mod `level` only, so the walk carries rows mod
    `level` and steps a row by the columns of each step.  Cosets are
    numbered as they are first reached, and `edges[i][k]` is the coset
    of coset i times steps[k].  `tree[j - 1] = (i, k)` records that coset
    j was first reached from coset i by steps[k], so the matrices
    reps[0] = I, reps[j] = reps[i] * steps[k] form a transversal.  The
    list of rows grows while it is walked, so cosets are visited in the
    order they are numbered.  Callers check the index before the walk.
    """
    n = level
    columns = [(m.a % n, m.c % n, m.b % n, m.d % n) for m in steps]
    index_of = {key(0, 1): 0}
    rows = [(0, 1)]
    tree = []
    edges = []
    for i, (c, d) in enumerate(rows):
        targets = []
        for k, (a1, c1, b1, d1) in enumerate(columns):
            c2, d2 = (c * a1 + d * c1) % n, (c * b1 + d * d1) % n
            label = key(c2, d2)
            j = index_of.get(label)
            if j is None:
                j = len(rows)
                index_of[label] = j
                rows.append((c2, d2))
                tree.append((i, k))
            targets.append(j)
        edges.append(targets)
    return tree, edges


def build_coset_action(family: str, level: int) -> CosetAction:
    """Enumerate the coset space by orbit construction from the identity."""
    _check_index(index_formula(family, level), f"{family}({level})")
    _, edges = _coset_walk(_coset_key_fn(family, level), level, (S, T))
    s_perm, t_perm = zip(*edges)
    action = CosetAction(family, level, len(edges), s_perm, t_perm)
    _check_action(action)
    return action


def _check_action(action: CosetAction) -> None:
    s, st = action.s_perm, action.st_perm()
    for i in range(action.degree):
        if s[s[i]] != i:
            raise AssertionError("S-permutation is not an involution")
        if st[st[st[i]]] != i:
            raise AssertionError("S*T-permutation does not cube to identity")


# A default `liftlab verify` asks for 45 distinct coset actions, and at
# this size the cache evicts no entry it is asked for again (one less
# would turn 38 of 132 lookups from hits into misses).  A long level
# range no longer keeps every level it has seen.
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


Entries = tuple[int, int, int, int]


def _even_entries(x: Fraction2, y: Fraction2) -> Entries:
    a1, b1 = x
    a2, b2 = y
    return (a1 * b1 + a2 * b2, -(a1 * a1 + a2 * a2),
            b1 * b1 + b2 * b2, -(a1 * b1 + a2 * b2))


def _odd_entries(x: Fraction2, y: Fraction2) -> Entries:
    a1, b1 = x
    a2, b2 = y
    return (a2 * b2 + a1 * b2 + a1 * b1, -(a1 * a1 + a1 * a2 + a2 * a2),
            b1 * b1 + b1 * b2 + b2 * b2, -(a2 * b2 + a2 * b1 + a1 * b1))


def _free_entries(side: tuple[Fraction2, Fraction2],
                  other: tuple[Fraction2, Fraction2]) -> Entries:
    (a1, b1), (a2, b2) = side
    (a3, b3), (a4, b4) = other
    return (-(a4 * b2 + a3 * b1), a4 * a2 + a3 * a1,
            -(b4 * b2 + b3 * b1), a2 * b4 + a1 * b3)


def _proj_maps(m: IntegerMatrix, x: Fraction2, y: Fraction2) -> bool:
    """Whether m carries the cusp x onto the cusp y (projectively)."""
    a, b = x
    image = (m.a * a + m.b * b, m.c * a + m.d * b)
    return image == y or image == (-y[0], -y[1])


def _proj_keys(m: Entries) -> tuple[Entries, Entries]:
    """Sign-free keys of the matrix with entries m and of its inverse."""
    a, b, c, d = m
    return min(m, (-a, -b, -c, -d)), min((d, -b, -c, a), (-d, b, c, -a))


@dataclass(frozen=True)
class FareySymbol:
    """A labeled unimodular fraction sequence presenting the group.

    `fractions` runs from (-1, 0) to (1, 0); `labels` has one entry per
    consecutive pair: "even", "odd", or a positive pairing id appearing
    exactly twice.  `pairings` holds one (matrix, kind) per even side,
    odd side and free pair, in side order, a free pair at its left side:
    the side-pairing matrices that generate the group.
    """

    family: str
    level: int
    fractions: tuple[Fraction2, ...]
    labels: tuple[str | int, ...]
    pairings: tuple[tuple[IntegerMatrix, str], ...]

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
        """Check the fraction sequence, the labels and every pairing.

        A pairing must have its side's kind and lie in the group; an even
        one must swap its side's endpoints with trace 0, an odd one cycle
        endpoint 2 -> endpoint 1 -> mediant with trace -1, and a free one
        carry its side onto the partner side, reversed, with |trace| >= 2.
        No matrix may pair two sides, up to sign and inversion.
        """
        if len(self.labels) != len(self.fractions) - 1:
            raise AssertionError("label count does not match side count")
        if self.fractions[0] != (-1, 0) or self.fractions[-1] != (1, 0):
            raise AssertionError("symbol must run from -infinity to +infinity")
        for (a1, b1), (a2, b2) in zip(self.fractions, self.fractions[1:]):
            if a2 * b1 - a1 * b2 != 1:
                raise AssertionError(
                    f"consecutive pair {(a1, b1)}, {(a2, b2)} not unimodular")
        pairs = self.pair_positions()
        sides = [i for i, lab in enumerate(self.labels)
                 if not isinstance(lab, int) or pairs[lab][0] == i]
        if len(sides) != len(self.pairings):
            raise AssertionError(f"{len(self.pairings)} pairings recorded "
                                 f"for {len(sides)} sides and pairs")
        used: set[Entries] = set()
        for i, (m, kind) in zip(sides, self.pairings):
            lab = self.labels[i]
            if kind != ("free" if isinstance(lab, int) else lab):
                raise AssertionError(f"{kind} pairing on side {i}, labeled "
                                     f"{lab!r}")
            keys = _proj_keys(m.entries())
            if not used.isdisjoint(keys):
                raise AssertionError(f"pairing {m} is used twice")
            used.update(keys)
            if not proj_member(self.family, self.level, m):
                raise AssertionError(
                    f"pairing {m} fails the membership predicate")
            x, y = self.side(i)
            if kind == "even":
                acts = _proj_maps(m, x, y) and _proj_maps(m, y, x)
                traced = m.trace == 0
            elif kind == "odd":
                acts = _proj_maps(m, y, x) and \
                    _proj_maps(m, x, _mediant(x, y))
                traced = m.trace == -1
            else:
                w, z = self.side(pairs[lab][1])
                acts = _proj_maps(m, x, z) and _proj_maps(m, y, w)
                traced = abs(m.trace) >= 2
            if not acts:
                raise AssertionError(
                    f"{kind} pairing {m} fails its endpoint check on side {i}")
            if not traced:
                raise AssertionError(
                    f"{kind} pairing {m} has the wrong trace {m.trace}")


# The one cache of a level's presentation: `generator_set` reads its
# generators off this symbol.  A default `liftlab verify` asks for 48
# distinct symbols, and at this size 2290 of its 2338 lookups hit, as with
# no bound (47 turns 18 of those hits into misses).
@lru_cache(maxsize=48)
def farey_symbol(family: str, level: int) -> FareySymbol:
    """Grow a Farey symbol for the projective group by mediant refinement.

    Deterministic: always works on the leftmost open side, tries an even
    self-pairing, then an odd one, then a free pairing with another open
    side, and otherwise splits the side at its mediant.  A matrix (up to
    sign and inversion) is never accepted for two different sides.

    The open sides sit on a stack, leftmost on top.  A split pushes
    (mediant, y) and then (x, mediant); a free pairing labels the partner
    to the right in place, and it is appended when it reaches the top.
    So sides are finished left to right, and the fractions come out in
    order without any list surgery.

    A candidate is screened on its entries first: c = 0 mod N, and for
    gamma1 a = d = 1 or a = d = -1 mod N.  The entries are polynomials in
    the endpoints, so the even and odd screens run on the endpoints mod
    N and multiply no big integers.  A candidate that passes and is new
    is built as a matrix, accepted and recorded in the symbol's
    `pairings`, which `validate` checks before the symbol is returned.

    Free partners are looked up, not scanned.  The free candidate for
    the side x -> y onto the side w -> z is -M_w * S * M_x^-1 with
    M_x = [[a2, a1], [b2, b1]] and M_w = [[a4, a3], [b4, b3]], so it lies
    in the projective group exactly when the bottom rows (b3, -b4) of
    M_w * S and (b2, b1) of M_x have the same coset key.  The open sides
    are filed by the key of (b3, -b4), and side x -> y looks up the key of
    (b2, b1).  Past level 1 a key files at most one open side, which is
    asserted: a group element carrying one onto another would carry the
    grown region's triangle on the first onto its triangle on the
    second, and those triangles are inequivalent.  (At level 1 there is
    one coset, and the seed sides pair as even and odd before any lookup.)
    """
    index = index_formula(family, level)
    _check_index(index, f"{family}({level})")
    eff = _normalize_family(family, level)
    n = level
    max_sides = max(64, 4 * index)
    key = _coset_key_fn(eff, level)
    if eff == "gamma0":
        def screen(a: int, b: int, c: int, d: int) -> bool:
            return c % n == 0
    else:
        diagonal = {(1, 1), (n - 1, n - 1)}

        def screen(a: int, b: int, c: int, d: int) -> bool:
            return c % n == 0 and (a % n, d % n) in diagonal

    used: set[Entries] = set()
    pairings: list[tuple[IntegerMatrix, str]] = []
    # open sides (w, z) but the one being labeled, by the coset key of the
    # bottom row (b3, -b4)
    open_by_key: dict[tuple, tuple[Fraction2, Fraction2]] = {}
    # free partners labeled before they reach the top of the stack
    partner_label: dict[tuple[Fraction2, Fraction2], int] = {}
    next_pair_id = 1

    def partner_key(side: tuple[Fraction2, Fraction2]) -> tuple:
        (_, b3), (_, b4) = side
        return key(b3, -b4)

    def push(side: tuple[Fraction2, Fraction2]) -> None:
        k = partner_key(side)
        if k in open_by_key and level > 1:
            raise AssertionError(
                f"open sides {open_by_key[k]} and {side} share the coset "
                f"key {k}")
        open_by_key[k] = side
        stack.append(side)

    def accept(entries: Entries, kind: str) -> bool:
        """Record the screened candidate with these entries, if unused."""
        keys = _proj_keys(entries)
        if keys[0] in used:
            return False
        used.update(keys)
        pairings.append((IntegerMatrix(*entries), kind))
        return True

    def claim(side: tuple[Fraction2, Fraction2]) -> str | int | None:
        """Label the top side by the first pairing that fits, if any."""
        nonlocal next_pair_id
        x, y = side
        rx, ry = (x[0] % n, x[1] % n), (y[0] % n, y[1] % n)
        for kind, entries_of in (("even", _even_entries),
                                 ("odd", _odd_entries)):
            if screen(*entries_of(rx, ry)) and accept(entries_of(x, y), kind):
                return kind
        other = open_by_key.get(key(y[1], x[1]))
        if other is None:
            return None
        entries = _free_entries(side, other)
        if abs(entries[0] + entries[3]) < 2 or \
                entries in ((1, 0, 0, 1), (-1, 0, 0, -1)):
            return None
        if not accept(entries, "free"):
            return None
        del open_by_key[partner_key(other)]
        partner_label[other] = label = next_pair_id
        next_pair_id += 1
        return label

    fractions: list[Fraction2] = [(-1, 0)]
    labels: list[str | int] = []
    stack: list[tuple[Fraction2, Fraction2]] = []
    push(((0, 1), (1, 0)))
    push(((-1, 0), (0, 1)))
    sides = 2
    while stack:
        side = stack.pop()
        label = partner_label.pop(side, None)
        if label is None:
            # at level 1 the seeds share the one key, so it may be gone
            open_by_key.pop(partner_key(side), None)
            label = claim(side)
        if label is None:
            x, y = side
            mediant = _mediant(x, y)
            push((mediant, y))
            push((x, mediant))
            sides += 1
            if sides > max_sides:
                raise AssertionError(f"refinement for {family}({level}) "
                                     f"exceeded {max_sides} sides")
            continue
        fractions.append(side[1])
        labels.append(label)

    symbol = FareySymbol(family, level, tuple(fractions), tuple(labels),
                         tuple(pairings))
    symbol.validate()
    return symbol


@dataclass(frozen=True)
class GeneratorSet:
    """Side-pairing generators read off a Farey symbol.

    `entries` is the symbol's `pairings`: one entry per even side (order
    2 projectively), odd side (order 3, trace normalized to -1 so the
    cube is +I in SL2(Z)) and free pair (infinite order), in side order.
    Together with -I these generate the full preimage of the projective
    group in SL2(Z).
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
    """The side-pairing matrices a Farey symbol recorded, as generators.

    `FareySymbol.validate` checks them (`farey_symbol` validates every
    symbol it grows), so they are read off, not rebuilt.
    """
    gens = GeneratorSet(symbol.family, symbol.level, symbol.index,
                        symbol.e2, symbol.e3, symbol.rank, symbol.pairings)
    if len(gens.entries) != gens.e2 + gens.e3 + gens.rank:
        raise AssertionError("generator count must equal e2 + e3 + r")
    return gens


def generator_set(family: str, level: int) -> GeneratorSet:
    """Presentation generators, read off the cached Farey symbol."""
    return generators_from_symbol(farey_symbol(family, level))
