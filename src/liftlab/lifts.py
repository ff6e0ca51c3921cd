"""Enumeration and congruence classification of lifts.

A lift of a projective group is a subgroup of SL2(Z) projecting onto it.
Writing Gtilde for the full preimage (the lift containing -I), every
other lift is the kernel of a homomorphism Gtilde -> {1, -1} sending -I
to -1.  On the side-pairing generators of a Farey symbol the constraints
are rigid:

* an even generator g has g^2 = -I, so no such character exists and the
  full preimage is the only lift;
* an odd generator with trace -1 cubes to +I and is forced to sign +1
  (trace +1 would cube to -I and force -1);
* free generators carry arbitrary signs, giving 2^r characters.

A lift L is a congruence group exactly when it contains the principal
congruence subgroup of level 2N (N the level of the projective group),
that is, exactly when its sign character factors through the image H of
the full preimage in SL2(Z/2N).  The character takes values +1 and -1,
so it factors through H exactly when it is a homomorphism H -> F2 read
through the generators, and Hom(H, F2) has a basis of characters read off
a matrix's entries (`_characters`).  With N = 2^s * m, m odd, t the number
of odd primes dividing N and g = [[a, b], [c, d]]:

* s = 0: the sign of g mod 2 in SL2(Z/2), which is S3;
* s >= 1: b mod 2 and c/2^s mod 2, that is bit s of c;
* gamma0 only: chi_-4(d) when s >= 2, chi_8(d) when s >= 3, and the
  Legendre symbol (d/p) for each odd prime p dividing N;
* gamma1 with N >= 3: whether a = -1 mod N (-I lies outside the image of
  Gamma1(N), so H is that image times <-I>).

Each is a homomorphism on H by congruence algebra: with c = 0 mod 2^s (and
mod p), d is multiplicative mod 4, 8 and p, and b mod 2 and c/2^s mod 2 are
additive.  There are min(4, s+1) + t of them for gamma0 and min(2, s+1)
for gamma1, plus 1 when N >= 3, which is dim2 H = dim H/H'H^2 by the closed
form the paper proves (`verify` checks it as `quotient-structure`).  So
they are a basis of Hom(H, F2) once their labels on the presentation
generators and -I, which generate H, reach rank dim2 H; one elimination
asserts that, and no element of H is enumerated.

The same elimination decides all lifts: where the labels of the rows of
the odd generators (forced sign bits), -I (bit 1) and the free generators
(unknown sign bits) cancel, they leave the level's cached congruence
conditions, pairs (mask, bit) that a congruence lift's sign vector meets
with parity.  They classify each lift, name the first noncongruence lift
(`find_witness`) and count the lifts (`classify_all`, whose report
carries that witness at every level).  They depend on the labels only
through their kernel, so any basis of Hom(H, F2) gives the same verdicts,
counts and witness.

Since [Gtilde : L] = 2, the image of L mod 2N is either all of H or a
subgroup of index 2, and the latter happens exactly for a congruence
lift; the certificate records the image order derived from the verdict
(|H|/2 or |H|).  |H| itself needs no enumeration: the kernel Gamma(2N) of
reduction mod 2N lies in the full preimage, so |H| is |SL2(Z/2N)| over
the index (`full_image_order`).  `verify.verify_witness_data` is the one
audit of these orders: it recomputes them by a closure in H of the
kernel's generators (`engine.subgroup_order`), which stops once it holds
more than |H|/2 elements and so completes only for an image of index 2.

A lift is recorded by its `SignCharacter` alone: the character's
generator set names the family and the level, and `lift_generators`
derives the lift's generators from it (for the full preimage, the
character with no sign vector, the presentation generators and -I).
Each level caches its congruence conditions and report.  Only
`full_image`, H enumerated mod 2N, meets the engine's scan bound: the
census never builds it, and `verify` keeps it as the oracle for the
characters and the audits.  `propagate_witness` keeps the paper's
pull-back, the Schreier generators of a smaller group's preimage inside
a witness, for a cross-check in `verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from . import engine
from .matrices import IDENTITY, MINUS_IDENTITY, IntegerMatrix, factorize
from .presentation import GeneratorSet, _check_index, _coset_key_fn, \
    _coset_walk, generator_set, index_formula, proj_member

DEFAULT_ENUMERATION_CAP = 512


@dataclass(frozen=True)
class SignCharacter:
    """A sign assignment to the generators of the full preimage.

    `free_signs` lists one sign per free generator, in generator order;
    None stands for the full preimage itself, which is not the kernel of
    any character.
    """

    generators: GeneratorSet
    free_signs: tuple[int, ...] | None

    def __post_init__(self):
        if self.free_signs is None:
            return
        free = self.generators.by_type("free")
        if len(self.free_signs) != len(free):
            raise ValueError(
                f"expected {len(free)} free signs, got {self.free_signs}")
        if any(s not in (1, -1) for s in self.free_signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def is_full_preimage(self) -> bool:
        return self.free_signs is None

    def signed_generators(self) -> tuple[tuple[IntegerMatrix, int], ...]:
        """(matrix, sign) pairs for every generator; odd signs are forced."""
        if self.is_full_preimage:
            raise ValueError("the full preimage has no character")
        out = []
        free_iter = iter(self.free_signs)
        for m, kind in self.generators.entries:
            if kind == "even":
                raise ValueError("even torsion admits no character")
            if kind == "odd":
                # trace -1 cubes to +I, trace +1 cubes to -I
                out.append((m, 1 if m.trace == -1 else -1))
            else:
                out.append((m, next(free_iter)))
        return tuple(out)


def enumerate_lifts(generators: GeneratorSet) -> list[SignCharacter]:
    """All lifts of the projective group, full preimage first.

    With even torsion present the full preimage is the only lift; without
    it the 2^r sign vectors on the free generators follow in
    lexicographic order (+1 before -1).
    """
    lifts = [SignCharacter(generators, None)]
    if generators.e2 > 0:
        return lifts
    for signs in itertools.product((1, -1), repeat=generators.rank):
        lifts.append(SignCharacter(generators, signs))
    return lifts


def _schreier_filter(candidates: Iterable[IntegerMatrix]) -> list[IntegerMatrix]:
    """Drop the identity, repeats and inverses of earlier matrices.

    Candidates are compared by entry tuples, so testing one builds no
    matrix.
    """
    out: list[IntegerMatrix] = []
    seen = {IDENTITY.entries()}
    for m in candidates:
        a, b, c, d = key = m.entries()
        if key in seen or (d, -b, -c, a) in seen:
            continue
        seen.add(key)
        out.append(m)
    return out


def lift_generators(character: SignCharacter) -> tuple[IntegerMatrix, ...]:
    """Generators of the lift a sign character names.

    The full preimage is generated by the presentation generators and -I.
    Any other lift is the index-2 kernel of its character, generated by
    the Schreier generators over the two cosets {kernel, w*kernel}, where
    the transversal element w is the first free generator of sign -1 and
    -I when every sign is +1.  For each generator x of the full preimage,
    including -I:

        sign +1:  emit x and w*x*w^(-1)
        sign -1:  emit x*w^(-1) and w*x

    Identity, duplicates and inverse duplicates are dropped.
    """
    if character.is_full_preimage:
        return character.generators.matrices() + (MINUS_IDENTITY,)
    signed = list(character.signed_generators()) + [(MINUS_IDENTITY, -1)]
    w = next(m for m, sign in signed if sign == -1)
    w_inv = w.inverse()
    pairs = [(x, w * x * w_inv) if sign == 1 else (x * w_inv, w * x)
             for x, sign in signed]
    return tuple(_schreier_filter(m for pair in pairs for m in pair))


@dataclass(frozen=True)
class LiftCertificate:
    """Orders behind the congruence dichotomy, auditable after the fact."""

    image_order: int
    full_image_order: int
    modulus: int

    def to_dict(self) -> dict:
        return {"image_order": self.image_order,
                "full_image_order": self.full_image_order,
                "modulus": self.modulus}


@dataclass(frozen=True)
class LiftDescriptor:
    """One lift: its character, classification and certificate.

    The family, level and generators are read from the character.
    """

    character: SignCharacter
    classification: str
    certificate: LiftCertificate

    @property
    def family(self) -> str:
        return self.character.generators.family

    @property
    def level(self) -> int:
        return self.character.generators.level

    @property
    def generators(self) -> tuple[IntegerMatrix, ...]:
        return lift_generators(self.character)

    @property
    def is_full_preimage(self) -> bool:
        return self.character.is_full_preimage

    def to_dict(self) -> dict:
        if self.character.is_full_preimage:
            signs = "full"
        else:
            signs = list(self.character.free_signs)
        return {
            "kind": self.family,
            "N": self.level,
            "character": {"free_signs": signs},
            "generators": [list(m.entries()) for m in self.generators],
            "classification": self.classification,
            "certificate": self.certificate.to_dict(),
        }


def full_image_order(family: str, level: int) -> int:
    """|H| = |SL2(Z/2N)| / [PSL2(Z) : Gamma], as H contains Gamma(2N)."""
    n = 2 * level
    order = n ** 3
    for p in (2,) + factorize(level).odd_primes():
        order = order // (p * p) * (p * p - 1)
    return order // index_formula(family, level)


def full_image(family: str, level: int) -> engine.ResidueMatrixGroup:
    """Image H of the full preimage in SL2(Z/2N), enumerated.

    No census needs it: the characters label the generators and
    `full_image_order` gives |H|.  It is `verify`'s oracle for both, and
    the ambient group of the certificate audit, so it is the one level
    computation the engine's scan bound refuses.
    """
    return _full_image_cached(family, level)


# The public function passes its arguments positionally, so every call
# form of it hits one entry.
@lru_cache(maxsize=1)
def _full_image_cached(family: str, level: int) -> engine.ResidueMatrixGroup:
    return engine.adjoin_minus_identity(engine.subgroup_by_membership(
        family, level, 2 * level))


# g mod 2 for the three elements of order 2 in SL2(Z/2), the odd
# permutations of S3
_ODD_MOD_2 = frozenset({(0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)})


def _characters(family: str,
                level: int) -> list[Callable[[IntegerMatrix], int]]:
    """The basis of Hom(H, F2) of the module docstring, as bits of g."""
    profile = factorize(level)
    s = profile.s
    if s == 0:
        characters = [lambda g: int((g.a % 2, g.b % 2, g.c % 2, g.d % 2)
                                    in _ODD_MOD_2)]
    else:
        characters = [lambda g: g.b % 2, lambda g: g.c >> s & 1]
    if family == "gamma1":
        if level >= 3:
            characters.append(lambda g: int(g.a % level == level - 1))
        return characters
    if s >= 2:
        characters.append(lambda g: g.d % 4 >> 1)
    if s >= 3:
        characters.append(lambda g: int(g.d % 8 in (3, 5)))
    characters += [lambda g, p=p: int(pow(g.d, (p - 1) // 2, p) == p - 1)
                   for p in profile.odd_primes()]
    return characters


def conditions_from_labels(generators: GeneratorSet, labels: Iterable[int]
                           ) -> tuple[tuple[tuple[int, int], ...], int]:
    """Congruence conditions from F2 labels of the generators, then -I.

    Returns the conditions and the rank of the labels.  A condition is a
    pair (mask, bit) met by the sign vector x of every congruence lift: x
    has bit i set when free sign i is -1 and meets (mask, bit) when
    mask & x has parity bit.  Row payloads pack variables << 1 | bit.
    """
    # signed_generators forces the odd signs and rejects even torsion
    signed = SignCharacter(generators,
                           (1,) * generators.rank).signed_generators()
    free_bits = itertools.count(1)
    payloads = [1 << next(free_bits) if kind == "free" else int(sign == -1)
                for (_, sign), (_, kind) in zip(signed, generators.entries)]
    payloads.append(1)
    dependent = engine.f2_dependencies(zip(labels, payloads))
    conditions = tuple((p >> 1, p & 1) for p in dependent if p)
    return conditions, len(payloads) - len(dependent)


@lru_cache(maxsize=1)
def _congruence_conditions(family: str,
                           level: int) -> tuple[tuple[int, int], ...]:
    """The level's congruence conditions, labelled by the characters.

    Asserts that the labels of the generators and -I reach rank dim2 H,
    the closed form, so that the characters are a basis of Hom(H, F2).
    """
    generators = generator_set(family, level)
    characters = _characters(family, level)
    labels = [sum(chi(g) << i for i, chi in enumerate(characters))
              for g in lift_generators(SignCharacter(generators, None))]
    conditions, rank = conditions_from_labels(generators, labels)
    profile = factorize(level)
    if family == "gamma0":
        dim2 = min(4, profile.s + 1) + profile.t
    else:
        dim2 = min(2, profile.s + 1) + (level >= 3)
    if rank != dim2:
        raise AssertionError(
            f"the characters of {family}({level}) reach rank {rank} on the "
            f"generators, not dim2 H = {dim2}")
    return conditions


def classify_lift(character: SignCharacter) -> LiftDescriptor:
    """Classify one lift by its level's congruence conditions.

    The family and level are those of the character's generators.  The
    certificate's image order is derived from the verdict: |H|/2 for a
    proper congruence lift and |H| otherwise, H the full image mod 2N.
    """
    family, level = character.generators.family, character.generators.level
    order = full_image_order(family, level)
    x = sum(1 << i for i, sign in enumerate(character.free_signs or ())
            if sign == -1)
    if character.is_full_preimage:
        classification, image_order = "congruence", order
    elif all((mask & x).bit_count() % 2 == bit for mask, bit
             in _congruence_conditions(family, level)):
        classification, image_order = "congruence", order // 2
    else:
        classification, image_order = "noncongruence", order
    return LiftDescriptor(character, classification,
                          LiftCertificate(image_order, order, 2 * level))


@dataclass(frozen=True)
class ClassificationReport:
    """Lift totals and a noncongruence witness for one (family, level).

    The totals come from the congruence conditions and the witness from
    `find_witness`; it is None exactly when every lift is congruence.
    `mode` and `descriptors` are kept only for the benchmark, whose
    classify oracle and trace read them: mode is
    "enumerated" when every lift also has a descriptor, or "counted" when
    2^r exceeds the enumeration cap.  Neither is in `to_dict`.
    """

    family: str
    level: int
    total: int
    congruence: int
    noncongruence: int
    mode: str
    descriptors: tuple[LiftDescriptor, ...] | None = None
    witness: LiftDescriptor | None = None

    @property
    def all_congruence(self) -> bool:
        return self.noncongruence == 0

    def to_dict(self) -> dict:
        return {
            "kind": self.family,
            "N": self.level,
            "total_lifts": self.total,
            "congruence": self.congruence,
            "noncongruence": self.noncongruence,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


# `liftlab verify` at its default scale classifies gamma0 and gamma1 at
# N <= 24 twice (the predicate check, then the certificate audit), which
# is 48 reports; a smaller LRU cache would redo every one of them.
@lru_cache(maxsize=48)
def _classify_all_cached(family: str, level: int) -> ClassificationReport:
    generators = generator_set(family, level)
    total = congruence = 1
    if generators.e2 == 0:
        total += 2 ** generators.rank
        conditions = _congruence_conditions(family, level)
        # The conditions are consistent when every dependent payload is 0,
        # and their rank is len(conditions) - len(dependent).
        dependent = engine.f2_dependencies(conditions)
        if not any(dependent):
            congruence += 2 ** (generators.rank - len(conditions)
                                + len(dependent))
    # find_witness raises LookupError exactly when every lift is congruence.
    witness = find_witness(family, level) if congruence < total else None
    totals = (family, level, total, congruence, total - congruence)
    if generators.e2 == 0 and 2 ** generators.rank > DEFAULT_ENUMERATION_CAP:
        return ClassificationReport(*totals, "counted", witness=witness)
    descriptors = tuple(classify_lift(character)
                        for character in enumerate_lifts(generators))
    return ClassificationReport(*totals, "enumerated", descriptors, witness)


def classify_all(family: str, level: int) -> ClassificationReport:
    """Count the congruence lifts and name the first noncongruence one.

    The totals come from the congruence conditions, labelled by the dim2 H
    characters whose asserted rank makes them a basis of Hom(H, F2), so H
    is not enumerated and no scan bound applies; the index bound refuses
    a level before its symbol is grown.
    """
    return _classify_all_cached(family, level)


def find_witness(family: str, level: int) -> LiftDescriptor:
    """First noncongruence lift in `enumerate_lifts` order, by the conditions.

    Read a sign vector as the integer whose bit r-1-i is set when free
    sign i is -1; `enumerate_lifts` lists proper lifts in increasing order
    of it.  If some condition has bit 1, the all-+1 vector 0 fails it and
    comes first.  Otherwise the congruence vectors form a linear subspace
    A, and if all integers below 2^j lie in A and 2^j does too, then so
    do all below 2^(j+1) (each is 2^j XOR k, k < 2^j).  So the first
    vector outside A is a unit vector: the flip of the last free generator
    that occurs in some condition.  If none occurs, every lift is
    congruence and LookupError is raised, as with even torsion, where the
    full preimage is the only lift.

    Both facts depend only on the span of the conditions, so the character
    basis gives the witness any basis of Hom(H, F2) would; no scan bound
    applies.
    """
    generators = generator_set(family, level)
    conditions = () if generators.e2 else _congruence_conditions(
        family, level)
    signs = [1] * generators.rank
    if not any(bit for _, bit in conditions):
        last = max((mask.bit_length() for mask, _ in conditions), default=0)
        if not last:
            raise LookupError(
                f"every lift of {family}({level}) is a congruence group")
        signs[last - 1] = -1
    return classify_lift(SignCharacter(generators, tuple(signs)))


def propagate_witness(parent: LiftDescriptor, family: str,
                      level: int) -> tuple[IntegerMatrix, ...]:
    """Pull a noncongruence witness back to a subgroup family.

    The preimage of the smaller projective group inside a noncongruence
    lift is itself a noncongruence lift (were it to contain a principal
    congruence subgroup, so would the parent lift).  Its generators are
    the Schreier generators over the finitely many cosets, walked with the
    parent lift's generators as steps; the transversal is rebuilt along
    the walk's tree.  They are returned without a certificate, and
    `verify` computes their closure mod 2N.
    """
    if parent.classification != "noncongruence":
        raise ValueError("can only propagate a noncongruence witness")
    if level % parent.level != 0:
        raise ValueError(
            f"level {level} is not a multiple of the parent level "
            f"{parent.level}")
    if parent.family == "gamma1" and family != "gamma1":
        raise ValueError(
            f"{family}({level}) does not embed in gamma1({parent.level})")
    subindex = index_formula(family, level) // index_formula(
        parent.family, parent.level)
    _check_index(subindex, f"{family}({level}) in a {parent.family}"
                           f"({parent.level}) lift")
    steps = parent.generators
    tree, edges = _coset_walk(_coset_key_fn(family, level), level, steps)
    if len(edges) != subindex:
        raise AssertionError(
            f"coset walk found {len(edges)} cosets, expected {subindex}")
    reps = [IDENTITY]
    for i, k in tree:
        reps.append(reps[i] * steps[k])
    out = _schreier_filter(reps[i] * g * reps[j].inverse()
                           for i, row in enumerate(edges)
                           for g, j in zip(steps, row))
    for m in out:
        if not proj_member(family, level, m):
            raise AssertionError("Schreier generator escapes the subgroup")
    return tuple(out)
