import json
import random

import pytest

from liftlab import counting, engine, lifts, presentation, verify
from liftlab.lifts import (LiftCertificate, SignCharacter, classify_all,
                           classify_lift, enumerate_lifts, find_witness,
                           full_image, lift_generators, propagate_witness)
from liftlab.matrices import IntegerMatrix
from liftlab.presentation import IndexBoundExceeded, generator_set, \
    proj_member


def signs_of(descriptor):
    if descriptor.character.is_full_preimage:
        return "full"
    return descriptor.character.free_signs


def test_enumerate_lifts_counts():
    counts = {("gamma0", 4): 5, ("gamma0", 6): 9, ("gamma0", 8): 9,
              ("gamma0", 9): 9, ("gamma0", 16): 33, ("gamma0", 5): 1,
              ("gamma1", 4): 5, ("gamma1", 5): 9}
    for (family, n), want in counts.items():
        lifts = enumerate_lifts(generator_set(family, n))
        assert len(lifts) == want, (family, n)
        assert lifts[0].is_full_preimage
        assert all(not c.is_full_preimage for c in lifts[1:])


def test_sign_character_validation():
    gens = generator_set("gamma1", 5)
    with pytest.raises(ValueError):
        SignCharacter(gens, (1, 1))
    with pytest.raises(ValueError):
        SignCharacter(gens, (1, 0, 1))
    full = SignCharacter(gens, None)
    assert full.is_full_preimage
    with pytest.raises(ValueError):
        full.signed_generators()
    assert lift_generators(full) == gens.matrices() + (
        IntegerMatrix(-1, 0, 0, -1),)
    # even torsion blocks every proper lift
    with pytest.raises(ValueError):
        SignCharacter(generator_set("gamma0", 5), (1,)).signed_generators()


def test_odd_generator_signs_are_forced():
    gens = generator_set("gamma0", 9)
    assert gens.e3 == 0
    gens7 = generator_set("gamma0", 7)
    char = SignCharacter(gens7, (1,))
    for m, sign in char.signed_generators():
        if m.trace == -1:
            assert sign == 1


def test_lift_generators_frozen_values():
    gens = generator_set("gamma1", 5)
    all_plus = lift_generators(SignCharacter(gens, (1, 1, 1)))
    assert [m.entries() for m in all_plus] == [
        (-1, -1, 0, -1), (1, 1, -5, -4), (14, 9, -25, -16)]
    one_minus = lift_generators(SignCharacter(gens, (-1, 1, 1)))
    assert len(one_minus) == 6


def test_classification_census():
    census = {("gamma0", 4): (5, 5, 0), ("gamma0", 5): (1, 1, 0),
              ("gamma0", 6): (9, 5, 4), ("gamma0", 8): (9, 9, 0),
              ("gamma0", 9): (9, 3, 6), ("gamma1", 4): (5, 5, 0),
              ("gamma1", 5): (9, 3, 6)}
    for (family, n), want in census.items():
        report = classify_all(family, n)
        assert (report.total, report.congruence,
                report.noncongruence) == want, (family, n)
        assert report.mode == "enumerated"
        assert report.all_congruence == (want[2] == 0)


def test_census_at_level_seven():
    # Exhaustive classification: all three lifts are congruence groups.
    report = classify_all("gamma0", 7)
    assert (report.total, report.congruence, report.noncongruence) == (3, 3, 0)
    assert report.mode == "enumerated"
    assert report.witness is None


def test_congruence_character_sets_frozen():
    report = classify_all("gamma1", 5)
    congruence = [signs_of(d) for d in report.descriptors
                  if d.classification == "congruence"]
    assert congruence == ["full", (1, 1, 1), (-1, 1, -1)]
    report = classify_all("gamma0", 6)
    noncongruence = [signs_of(d) for d in report.descriptors
                     if d.classification == "noncongruence"]
    assert noncongruence == [(1, 1, -1), (1, -1, 1), (-1, 1, 1),
                             (-1, -1, -1)]


def test_full_preimage_descriptor():
    report = classify_all("gamma0", 5)
    d = report.descriptors[0]
    assert d.is_full_preimage
    assert d.classification == "congruence"
    assert d.certificate.image_order == d.certificate.full_image_order
    assert d.certificate.modulus == 10
    assert d.generators[-1].entries() == (-1, 0, 0, -1)


def assert_no_identity_repeat_or_inverse(gens):
    keys = [m.entries() for m in gens]
    assert (1, 0, 0, 1) not in keys
    assert len(set(keys)) == len(keys)
    for i, m in enumerate(gens):
        assert m.inverse().entries() not in keys[:i]


def test_kernel_generators_drop_identity_repeats_and_inverses():
    # lift_generators and propagate_witness share one Schreier filter.
    for family, n in (("gamma0", 6), ("gamma1", 5)):
        for character in enumerate_lifts(generator_set(family, n))[1:]:
            assert_no_identity_repeat_or_inverse(lift_generators(character))
    parent = find_witness("gamma0", 6)
    for family in ("gamma0", "gamma1"):
        child = propagate_witness(parent, family, 12)
        assert_no_identity_repeat_or_inverse(child)
        assert all(proj_member(family, 12, m) for m in child)


def test_is_congruence_helper():
    gens = generator_set("gamma1", 5)
    assert classify_lift(SignCharacter(gens, (1, 1, 1))
                         ).classification == "congruence"
    assert classify_lift(SignCharacter(gens, (-1, 1, 1))
                         ).classification == "noncongruence"


def test_descriptors_read_family_level_and_generators_from_the_character():
    # A descriptor stores only its character, verdict and certificate.
    for family, n in (("gamma0", 5), ("gamma0", 6), ("gamma1", 5),
                      ("gamma1", 6)):
        gens = generator_set(family, n)
        descriptors = classify_all(family, n).descriptors
        for d in descriptors:
            assert (d.family, d.level) == (gens.family, gens.level)
            assert d.generators == lift_generators(d.character)
        assert descriptors[0].generators == gens.matrices() + (
            IntegerMatrix(-1, 0, 0, -1),)


def test_f2_verdicts_agree_with_closure_beyond_24():
    # Past the property suite's N <= 24: a seeded sample of both verdicts
    # per enumerated level, each checked by whether the kernel's
    # generators reach -I mod 2N.
    rng = random.Random(2011)
    levels = [("gamma0", n) for n in range(25, 37)] + [("gamma1", 12)]
    checked = 0
    for family, n in levels:
        report = classify_all(family, n)
        if report.mode != "enumerated":
            continue
        proper = [d for d in report.descriptors if not d.is_full_preimage]
        for verdict in ("congruence", "noncongruence"):
            pool = [d for d in proper if d.classification == verdict]
            for d in rng.sample(pool, min(3, len(pool))):
                gens = lift_generators(d.character)
                has_minus, _ = engine.closure_contains(
                    [m.reduce(2 * n).key() for m in gens], 2 * n,
                    engine.minus_identity(2 * n))
                assert d.classification == (
                    "noncongruence" if has_minus else "congruence"), (
                    family, n, d.character.free_signs)
                checked += 1
    assert checked >= 40


def test_counted_mode_for_large_rank():
    report = classify_all("gamma0", 30)
    assert (report.total, report.congruence,
            report.noncongruence) == (8193, 9, 8184)
    assert report.mode == "counted" and report.descriptors is None
    assert report.witness == find_witness("gamma0", 30)


def test_census_does_not_read_the_closed_form(monkeypatch):
    # Counted totals come from the congruence conditions, not the formula.
    def closed_form(family, level):
        raise AssertionError("classify_all read the closed-form count")

    monkeypatch.setattr(counting, "count_congruence_lifts_formula",
                        closed_form)
    lifts._classify_all_cached.cache_clear()
    lifts._congruence_conditions.cache_clear()
    report = classify_all("gamma0", 30)
    assert (report.total, report.congruence,
            report.noncongruence) == (8193, 9, 8184)
    assert report.mode == "counted"


def test_descriptor_verdicts_tally_to_the_census():
    # The totals come from one count over the conditions, the descriptors
    # from one parity check per lift; at every enumerated level they agree.
    enumerated = 0
    for family, top in (("gamma0", 30), ("gamma1", 12)):
        for n in range(1, top + 1):
            report = classify_all(family, n)
            if report.mode != "enumerated":
                continue
            enumerated += 1
            verdicts = [d.classification for d in report.descriptors]
            assert (report.total, report.congruence, report.noncongruence) \
                == (len(verdicts), verdicts.count("congruence"),
                    verdicts.count("noncongruence")), (family, n)
    assert enumerated == 40


def test_classify_all_rejects_bad_level():
    with pytest.raises(ValueError):
        classify_all("gamma0", 0)


def test_find_witness_enumerated():
    w = find_witness("gamma0", 6)
    assert w.classification == "noncongruence"
    assert signs_of(w) == (1, 1, -1)
    assert w.certificate.image_order == w.certificate.full_image_order
    w = find_witness("gamma1", 12)
    assert signs_of(w) == (1,) * 9
    assert w.certificate == LiftCertificate(192, 192, 24)


def test_find_witness_errors():
    with pytest.raises(LookupError):
        find_witness("gamma0", 8)
    with pytest.raises(LookupError,
                       match=r"every lift of gamma0\(7\) is a congruence group"):
        find_witness("gamma0", 7)
    with pytest.raises(ValueError):
        find_witness("gamma", 4)


def test_find_witness_at_counted_level():
    # rank 13 puts this level past the enumeration cap; the F2 solve still
    # gives a character witness
    assert classify_all("gamma0", 30).mode == "counted"
    w = find_witness("gamma0", 30)
    assert w.classification == "noncongruence"
    assert len(w.character.free_signs) == 13
    order = full_image("gamma0", 30).order
    assert w.certificate == LiftCertificate(order, order, 60)
    ok, message = verify.verify_witness_data(json.loads(json.dumps(
        w.to_dict())))
    assert ok, message


def test_find_witness_is_the_first_noncongruence_lift():
    # The descriptors, one parity check per lift, are the oracle for the
    # F2 solve; report.witness comes from the solve itself.
    levels = [("gamma0", n) for n in range(1, 49)] + [
        ("gamma1", n) for n in range(1, 25)]
    enumerated = 0
    for family, n in levels:
        report = classify_all(family, n)
        if report.mode != "enumerated":
            continue
        enumerated += 1
        first = next((d for d in report.descriptors
                      if d.classification == "noncongruence"), None)
        if first is None:
            with pytest.raises(LookupError):
                find_witness(family, n)
        else:
            assert find_witness(family, n).to_dict() == first.to_dict(), \
                (family, n)
    assert enumerated == 50


def test_every_report_carries_the_solved_witness():
    counted = 0
    for family in ("gamma0", "gamma1"):
        for n in range(1, 49):
            report = classify_all(family, n)
            if report.noncongruence == 0:
                assert report.witness is None, (family, n)
                continue
            assert report.witness.to_dict() == \
                find_witness(family, n).to_dict(), (family, n)
            if report.mode == "counted":
                counted += 1
                data = json.loads(json.dumps(report.witness.to_dict()))
                ok, message = verify.verify_witness_data(data)
                assert ok, (family, n, message)
    assert counted == 46


def test_propagate_witness_to_subfamilies():
    # The closure of each pull-back is checked in verify's property suite.
    parent = find_witness("gamma0", 6)
    # one coset: the Schreier generators are the parent's own
    assert propagate_witness(parent, "gamma0", 6) == parent.generators
    for family, n in (("gamma1", 6), ("gamma0", 12), ("gamma1", 12)):
        child = propagate_witness(parent, family, n)
        assert isinstance(child, tuple) and child
        assert all(isinstance(m, IntegerMatrix) for m in child)
        assert all(proj_member(family, n, m) for m in child)


def test_propagate_witness_rejections():
    parent = find_witness("gamma0", 6)
    congruent = classify_all("gamma0", 6).descriptors[0]
    with pytest.raises(ValueError):
        propagate_witness(congruent, "gamma0", 12)
    with pytest.raises(ValueError):
        propagate_witness(parent, "gamma0", 8)
    up = find_witness("gamma1", 5)
    with pytest.raises(ValueError):
        propagate_witness(up, "gamma0", 10)


def test_descriptor_to_dict_schema():
    report = classify_all("gamma1", 5)
    full = report.descriptors[0].to_dict()
    assert set(full) == {"kind", "N", "character", "generators",
                         "classification", "certificate"}
    assert full["character"]["free_signs"] == "full"
    proper = report.descriptors[1].to_dict()
    assert proper["character"]["free_signs"] == [1, 1, 1]
    assert all(len(row) == 4 for row in proper["generators"])
    cert = report.descriptors[1].certificate
    assert proper["certificate"] == {"image_order": cert.image_order,
                                     "full_image_order": cert.full_image_order,
                                     "modulus": cert.modulus}


def test_report_to_dict():
    report = classify_all("gamma0", 9)
    data = report.to_dict()
    assert data == {"kind": "gamma0", "N": 9, "total_lifts": 9,
                    "congruence": 3, "noncongruence": 6,
                    "witness": report.witness.to_dict()}


def test_certificates_survive_independent_closure():
    for family, n in (("gamma0", 6), ("gamma1", 5)):
        report = classify_all(family, n)
        full_order = full_image(family, n).order
        for d in report.descriptors:
            image = engine.closure(
                [m.reduce(2 * n).key() for m in d.generators], 2 * n)
            assert image.order == d.certificate.image_order
            assert d.certificate.full_image_order == full_order
            if d.classification == "noncongruence" or d.is_full_preimage:
                assert image.order == full_order
            else:
                assert 2 * image.order == full_order


def test_classify_all_checks_the_cap_before_the_symbol(monkeypatch):
    # classify_all and find_witness meet no scan bound; the index bound
    # refuses gamma1(1000), index 360000, before a coset of its Farey
    # symbol is keyed.
    def no_walk(*args):
        raise AssertionError("walked the cosets of gamma1(1000)")

    monkeypatch.setattr(presentation, "_coset_key_fn", no_walk)
    for call in (classify_all, find_witness):
        with pytest.raises(IndexBoundExceeded,
                           match=r"index 360000 of gamma1\(1000\)"):
            call("gamma1", 1000)


def test_level_caches_have_one_entry_per_level():
    # The level caches key on (family, level) alone.
    caches = (lifts._full_image_cached, lifts._congruence_conditions,
              lifts._classify_all_cached)
    for cache in caches:
        cache.cache_clear()
    full_image("gamma0", 12)
    find_witness("gamma0", 12)
    classify_all("gamma0", 12)
    misses = [cache.cache_info().misses for cache in caches]
    # Every call form names the same entry: each lookup below is a hit.
    full_image("gamma0", 12)
    full_image("gamma0", level=12)
    full_image(family="gamma0", level=12)
    find_witness("gamma0", 12)
    classify_all("gamma0", 12)
    assert [cache.cache_info().misses for cache in caches] == misses
    # No level function takes a modulus bound.
    for call in (full_image, find_witness, classify_all):
        with pytest.raises(TypeError):
            call("gamma0", 12, max_modulus=4)


def test_environment_sets_no_cap(monkeypatch):
    # The scan bound is a constant: no environment variable lowers or
    # raises it, and the census reads none.
    lifts._full_image_cached.cache_clear()
    lifts._classify_all_cached.cache_clear()
    for name in ("LIFTLAB_MAX_MODULUS", "LIFTLAB_MAX_SCAN"):
        monkeypatch.setenv(name, "4")
    assert full_image("gamma0", 12).order == 384
    assert classify_all("gamma0", 12).total == 33
    assert full_image("gamma1", 49).order == lifts.full_image_order(
        "gamma1", 49)
    # H mod 392 of gamma1(196) needs a scan of 307328 candidates
    for name in ("LIFTLAB_MAX_MODULUS", "LIFTLAB_MAX_SCAN"):
        monkeypatch.setenv(name, "1000000000")
    with pytest.raises(engine.ScanBoundExceeded):
        full_image("gamma1", 196)
    assert classify_all("gamma1", 49).congruence == 3


def test_census_enumerates_no_image(monkeypatch):
    # The characters replace H: with the enumeration disabled, the census
    # and the witness still answer, with the same results.
    levels = [("gamma0", 12), ("gamma0", 30), ("gamma1", 5), ("gamma1", 24)]
    want = [(classify_all(f, n).to_dict(), find_witness(f, n).to_dict())
            for f, n in levels]

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated an image mod 2N")

    monkeypatch.setattr(engine, "subgroup_by_membership", no_enumeration)
    for cache in (lifts._full_image_cached, lifts._congruence_conditions,
                  lifts._classify_all_cached):
        cache.cache_clear()
    got = [(classify_all(f, n).to_dict(), find_witness(f, n).to_dict())
           for f, n in levels]
    assert got == want


@pytest.mark.parametrize("family, level", [
    ("gamma0", 2310), ("gamma0", 4036), ("gamma0", 9240), ("gamma1", 200),
    ("gamma1", 300)])
def test_census_matches_the_closed_form_past_the_cap(family, level):
    # H mod 2N is far past the scan bound; gamma0(4036) = 4 * 1009 would
    # need an image mod 1009, past it even by CRT components.
    report = classify_all(family, level)
    gens = generator_set(family, level)
    assert gens.e2 == 0
    assert report.total == 1 + 2 ** gens.rank
    assert report.congruence == counting.count_congruence_lifts_formula(
        family, level).count
    assert report.witness.classification == "noncongruence"
    assert report.witness.certificate.modulus == 2 * level


@pytest.mark.parametrize("family, level", [
    ("gamma0", 7), ("gamma0", 15), ("gamma0", 24), ("gamma1", 5),
    ("gamma1", 12)])
def test_dropping_a_character_trips_the_rank_assertion(monkeypatch, family,
                                                      level):
    characters = lifts._characters
    for i in range(len(characters(family, level))):
        monkeypatch.setattr(lifts, "_characters", lambda f, n, i=i: [
            chi for j, chi in enumerate(characters(f, n)) if j != i])
        lifts._congruence_conditions.cache_clear()
        with pytest.raises(AssertionError, match="reach rank"):
            lifts._congruence_conditions(family, level)
    lifts._congruence_conditions.cache_clear()
