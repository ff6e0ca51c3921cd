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
so it factors through H exactly when it factors through the two-quotient
H/H'H^2, an F2 vector space whose coordinates `engine.two_quotient`
assigns to every element.  Each lift is therefore classified by one
linear solve over F2: every signed generator contributes the row
(coordinates of its image mod 2N, 1 if its sign is -1), -I contributes
(coordinates of -I, 1), and the lift is congruence exactly when the
system is consistent.  This needs the presentation generators together
with -I to generate H, which one closure per H checks; it stops once it
holds more than |H|/2 elements, which by Lagrange's theorem already means
all of H.

Since [Gtilde : L] = 2, the image of L mod 2N is either all of H or a
subgroup of index 2, and the latter happens exactly for a congruence
lift; the certificate records the image order derived from the verdict
(|H|/2 or |H|).  `verify.verify_witness_data` is the one audit of these
orders: it recomputes them by a closure in H of the kernel's generators
(`engine.subgroup_order`), which stops once it holds more than |H|/2
elements and so completes only for an image of index 2.

A lift is recorded by its `SignCharacter` alone: the character's
generator set names the family and the level, and `lift_generators`
derives the lift's generators from it (for the full preimage, the
character with no sign vector, the presentation generators and -I).
Each level caches one H and, for its first proper lift, the row labels,
and `find_witness` solves for a noncongruence sign vector on them
instead of enumerating lifts.  `propagate_witness` keeps the paper's
pull-back, the Schreier generators of a smaller group's preimage inside
a witness, for a cross-check in `verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import counting, engine
from .matrices import IDENTITY, MINUS_IDENTITY, IntegerMatrix
from .presentation import DEFAULT_MAX_INDEX, GeneratorSet, _coset_key_fn, \
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


def full_image(family: str, level: int,
               max_modulus: int | None = None) -> engine.ResidueMatrixGroup:
    """Image H of the full preimage in SL2(Z/2N).

    Building H also checks the fact the F2 criterion rests on: the
    presentation generators together with -I reach every element of H.
    """
    return _full_image_cached(family, level,
                              engine.effective_max_modulus(max_modulus))


# A level's classification and its audits share one H.  The level caches
# key on the resolved cap, so every call form hits one entry and a cap
# lowered later is enforced.
@lru_cache(maxsize=1)
def _full_image_cached(family: str, level: int,
                       max_modulus: int) -> engine.ResidueMatrixGroup:
    n = 2 * level
    group = engine.adjoin_minus_identity(engine.subgroup_by_membership(
        counting.engine_kind(family), level, n, max_modulus=max_modulus))
    order = engine.subgroup_order(_full_preimage_keys(family, level), group)
    if order != group.order:
        raise AssertionError(
            f"presentation generators only reach {order} of "
            f"{group.order} elements mod {n}")
    return group


def _full_preimage_keys(family: str, level: int) -> list[engine.Element]:
    """The presentation generators, then -I, reduced mod 2N."""
    full = SignCharacter(generator_set(family, level), None)
    return [m.reduce(2 * level).key() for m in lift_generators(full)]


@lru_cache(maxsize=1)
def _level_labels(family: str, level: int,
                  max_modulus: int) -> tuple[int, ...]:
    """The F2 row table: two-quotient labels of `_full_preimage_keys`.

    Only proper lifts ask for it, so a level whose only lift is the full
    preimage never pays for the two-quotient.
    """
    labels = engine.two_quotient(
        full_image(family, level, max_modulus=max_modulus)).labels
    return tuple(labels[k] for k in _full_preimage_keys(family, level))


def _is_congruence(character: SignCharacter, labels: tuple[int, ...]) -> bool:
    """Whether the character factors through the two-quotient of H."""
    signs = [sign for _, sign in character.signed_generators()] + [-1]
    return engine.f2_consistent(
        (label, int(sign == -1)) for label, sign in zip(labels, signs))


def classify_lift(character: SignCharacter,
                  max_modulus: int | None = None) -> LiftDescriptor:
    """Classify one lift by solving for its character over F2.

    The family and level are those of the character's generators.  The
    certificate's image order is derived from the verdict: |H|/2 for a
    proper congruence lift and |H| otherwise, H the full image mod 2N.
    """
    family, level = character.generators.family, character.generators.level
    cap = engine.effective_max_modulus(max_modulus)
    order = _full_image_cached(family, level, cap).order
    if character.is_full_preimage:
        classification, image_order = "congruence", order
    elif _is_congruence(character, _level_labels(family, level, cap)):
        classification, image_order = "congruence", order // 2
    else:
        classification, image_order = "noncongruence", order
    return LiftDescriptor(character, classification,
                          LiftCertificate(image_order, order, 2 * level))


@dataclass(frozen=True)
class ClassificationReport:
    """Totals (and optionally per-lift detail) for one (family, level).

    mode is "enumerated" when every lift was classified individually, or
    "counted" when 2^r exceeded the enumeration cap and the congruence
    total came from the closed-form count instead.
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
            "mode": self.mode,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


# `liftlab verify` at its default scale classifies gamma0 and gamma1 at
# N <= 24 twice (the predicate check, then the certificate audit), which
# is 48 reports; a smaller LRU cache would redo every one of them.
@lru_cache(maxsize=48)
def _classify_all_cached(family: str, level: int,
                         max_modulus: int) -> ClassificationReport:
    generators = generator_set(family, level)
    if generators.e2 == 0 and 2 ** generators.rank > DEFAULT_ENUMERATION_CAP:
        formula = counting.count_congruence_lifts_formula(family, level)
        total = 1 + 2 ** generators.rank
        return ClassificationReport(
            family, level, total, formula.count, total - formula.count,
            "counted")
    descriptors = []
    witness = None
    for character in enumerate_lifts(generators):
        descriptor = classify_lift(character, max_modulus=max_modulus)
        descriptors.append(descriptor)
        if witness is None and descriptor.classification == "noncongruence":
            witness = descriptor
    congruence = sum(1 for d in descriptors
                     if d.classification == "congruence")
    return ClassificationReport(
        family, level, len(descriptors), congruence,
        len(descriptors) - congruence, "enumerated", tuple(descriptors),
        witness)


def classify_all(family: str, level: int,
                 max_modulus: int | None = None) -> ClassificationReport:
    """Classify every lift, falling back to counting when 2^r is too big."""
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    return _classify_all_cached(family, level,
                                engine.effective_max_modulus(max_modulus))


def find_witness(family: str, level: int,
                 max_modulus: int | None = None) -> LiftDescriptor:
    """First noncongruence lift in `enumerate_lifts` order, solved over F2.

    Read a sign vector as the integer whose bit r-1-i is set when free
    sign i is -1; `enumerate_lifts` lists proper lifts in increasing order
    of it.  The functionals phi fitting the rows of the odd generators and
    -I form an affine space, and the free signs are linear in phi, so the
    congruence sign vectors form an affine subspace A of F2^r.  If the
    all-+1 vector 0 is outside A it is the first noncongruence lift.
    Otherwise A is linear, and if all integers below 2^j lie in A and 2^j
    does too, then so do all integers below 2^(j+1) (each is 2^j XOR k,
    k < 2^j).  So the first vector outside A is a unit vector 2^j: a
    single flip, tried from the last free generator back to the first.
    If none of these r + 1 vectors lies outside A, every lift is
    congruence and LookupError is raised; so it is with even torsion,
    where the full preimage is the only lift.
    """
    generators = generator_set(family, level)
    if generators.e2 == 0:
        r = generators.rank
        for flip in (None, *range(r - 1, -1, -1)):
            signs = tuple(-1 if i == flip else 1 for i in range(r))
            descriptor = classify_lift(SignCharacter(generators, signs),
                                       max_modulus=max_modulus)
            if descriptor.classification == "noncongruence":
                return descriptor
    raise LookupError(
        f"every lift of {family}({level}) is a congruence group")


def propagate_witness(parent: LiftDescriptor, family: str,
                      level: int) -> tuple[IntegerMatrix, ...]:
    """Pull a noncongruence witness back to a subgroup family.

    The preimage of the smaller projective group inside a noncongruence
    lift is itself a noncongruence lift (were it to contain a principal
    congruence subgroup, so would the parent lift).  Its generators are
    the Schreier generators over the finitely many cosets, walked with the
    parent lift's generators as steps; they are returned without a
    certificate, and `verify` computes their closure mod 2N.
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
    steps = parent.generators
    reps, edges = _coset_walk(
        _coset_key_fn(family, level), steps, DEFAULT_MAX_INDEX,
        f"{family}({level}) in a {parent.family}({parent.level}) lift")
    if len(reps) != subindex:
        raise AssertionError(
            f"coset walk found {len(reps)} cosets, expected {subindex}")
    out = _schreier_filter(reps[i] * g * reps[j].inverse()
                           for i, row in enumerate(edges)
                           for g, j in zip(steps, row))
    for m in out:
        if not proj_member(family, level, m):
            raise AssertionError("Schreier generator escapes the subgroup")
    return tuple(out)
