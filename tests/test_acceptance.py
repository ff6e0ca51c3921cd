"""Acceptance gate: one test per shipped guarantee, at full scale.

Each test drives one check from liftlab.verify with the same bounds the
`liftlab verify` command uses by default or larger, so `pytest -v` on
this module prints one pass/fail line per guarantee.  The checks compare
independent routes (closed formulas against the finite-group engine,
predicates against exhaustive classification, recorded certificates
against fresh closures), so a failure here points at a real
disagreement, not a stale fixture.
"""

from liftlab import verify


def test_congruence_counts_formula_vs_engine_through_48():
    passed, detail = verify.check_count_agreement(max_n=48)
    assert passed, detail


def test_count_agreement_reaches_max_n():
    # The engine checks run to max_n itself, not to a modulus cap.
    passed, detail = verify.check_count_agreement(max_n=52)
    assert passed, detail
    assert detail.endswith("N <= 52")


def test_square_class_dimensions_and_minus_one_flags_through_48():
    passed, detail = verify.check_quotient_structure(max_n=48)
    assert passed, detail


def test_small_level_presentation_table():
    passed, detail = verify.check_small_level_table(max_n=16)
    assert passed, detail


def test_gamma1_census_with_witness_reverification():
    passed, detail = verify.check_gamma1_census(max_n=5)
    assert passed, detail


def test_classification_matches_predicates_through_48():
    passed, detail = verify.check_classification_vs_predicates(max_n=48)
    assert passed, detail


def test_hyperplane_counts_match_enumeration():
    passed, detail = verify.check_hyperplane_counts()
    assert passed, detail


def test_general_level_equals_level():
    passed, detail = verify.check_general_level(max_n0=60, max_n1=20)
    assert passed, detail


def test_property_suite_through_24():
    passed, detail = verify.check_property_suite(max_n=24)
    assert passed, detail


def test_property_suite_flags_farey_torsion_off_the_coset_action(monkeypatch):
    # a coset action whose free rank disagrees with the Farey symbol's
    monkeypatch.setattr(verify, "free_rank", lambda d, e2, e3: d)
    passed, detail = verify.check_property_suite(max_n=4)
    assert not passed
    assert "farey e2/e3/r vs coset action" in detail


def test_negative_control_tampered_witness_is_caught():
    results = verify.run_suite(max_n=5, seed_tamper=True)
    by_name = {r.name: r for r in results}
    census = by_name["gamma1-census"]
    assert census.passed
    assert "correctly rejected" in census.detail
    assert all(r.passed for r in results), [
        (r.name, r.detail) for r in results if not r.passed]
