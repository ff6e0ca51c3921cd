import json
import random

import pytest

from liftlab import engine, lifts, verify
from liftlab.lifts import (LiftCertificate, SignCharacter, classify_all,
                           classify_lift, enumerate_lifts, find_witness,
                           full_image, lift_generators, propagate_witness)
from liftlab.matrices import IntegerMatrix
from liftlab.presentation import generator_set, proj_member


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
    assert report.mode == "counted"
    assert report.descriptors is None and report.witness is None


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
    levels = [("gamma0", n) for n in range(1, 49)] + [
        ("gamma1", n) for n in range(1, 25)]
    counted = 0
    for family, n in levels:
        report = classify_all(family, n)
        if report.mode == "enumerated":
            if report.all_congruence:
                with pytest.raises(LookupError):
                    find_witness(family, n)
            else:
                assert find_witness(family, n).to_dict() == \
                    report.witness.to_dict(), (family, n)
            continue
        counted += 1
        data = json.loads(json.dumps(find_witness(family, n).to_dict()))
        ok, message = verify.verify_witness_data(data)
        assert ok, (family, n, message)
    assert counted == 22


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
                    "mode": "enumerated",
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


def test_level_caches_key_on_the_resolved_cap(monkeypatch):
    monkeypatch.delenv("LIFTLAB_MAX_MODULUS", raising=False)
    caches = (lifts._full_image_cached, lifts._level_labels,
              lifts._classify_all_cached)
    for cache in caches:
        cache.cache_clear()
    full_image("gamma0", 12)
    find_witness("gamma0", 12)
    classify_all("gamma0", 12)
    misses = [cache.cache_info().misses for cache in caches]
    # Every call form names the same entry: each lookup below is a hit.
    full_image("gamma0", 12, max_modulus=None)
    full_image("gamma0", 12, engine.DEFAULT_MAX_MODULUS)
    find_witness("gamma0", 12, max_modulus=None)
    classify_all("gamma0", 12, max_modulus=engine.DEFAULT_MAX_MODULUS)
    assert [cache.cache_info().misses for cache in caches] == misses
    # A cap lowered afterwards is enforced, not answered from the cache.
    monkeypatch.setenv("LIFTLAB_MAX_MODULUS", "4")
    for call in (full_image, find_witness, classify_all):
        with pytest.raises(engine.ModulusCapExceeded):
            call("gamma0", 12)
