import itertools
import json

import pytest

from liftlab import counting, engine


def test_formula_gamma0_values():
    # (level, count): one per branch, plus composite mixes
    cases = {1: 1, 2: 1, 3: 3, 4: 5, 5: 1, 6: 5, 7: 3, 8: 9, 9: 3,
             12: 9, 13: 1, 16: 9, 20: 9, 21: 5, 45: 5, 65: 1}
    for level, want in cases.items():
        assert counting.count_congruence_lifts_formula(
            "gamma0", level).count == want, level


def test_formula_gamma1_values():
    cases = {1: 1, 2: 1, 3: 3, 4: 5, 5: 3, 6: 5, 9: 3, 10: 5}
    for level, want in cases.items():
        assert counting.count_congruence_lifts_formula(
            "gamma1", level).count == want, level


def test_formula_gamma_values():
    cases = {1: 1, 2: 5, 3: 3, 4: 9, 5: 3, 6: 9, 7: 3, 8: 9}
    for level, want in cases.items():
        assert counting.count_congruence_lifts_formula(
            "gamma", level).count == want, level


def test_count_shape():
    # 1 or 1 + a power of two, always
    for family in counting.FAMILIES:
        for level in range(1, 30):
            count = counting.count_congruence_lifts_formula(
                family, level).count
            assert count == 1 or (count - 1) & (count - 2) == 0


def test_formula_matches_engine_small_levels():
    for family in counting.FAMILIES:
        for level in range(1, 13):
            a = counting.count_congruence_lifts_formula(family, level)
            b = counting.count_congruence_lifts_engine(family, level)
            assert a.count == b.count, (family, level, a, b)


def test_engine_report_details():
    rep5 = counting.count_congruence_lifts_engine("gamma0", 5)
    assert rep5.count == 1
    assert rep5.minus_one_in_group and rep5.minus_one_in_squares
    rep7 = counting.count_congruence_lifts_engine("gamma0", 7)
    assert rep7.count == 3
    assert rep7.dim2 == 2 and not rep7.minus_one_in_squares
    rep_g1 = counting.count_congruence_lifts_engine("gamma1", 5)
    assert not rep_g1.minus_one_in_group
    assert rep_g1.count == 3


def test_engine_report_matches_the_adjoined_group():
    # Without -I in G the report is read off G alone; the two-quotient of
    # <G, -I> built explicitly must give the same dim2 and -I flags.
    for family, level in (("gamma1", 3), ("gamma1", 5), ("gamma1", 8),
                          ("gamma1", 12), ("gamma", 2), ("gamma", 3),
                          ("gamma", 6), ("gamma", 10), ("gamma0", 12)):
        report = counting.count_congruence_lifts_engine(family, level)
        n = 2 * level
        group = engine.subgroup_by_membership(family, level, n)
        neg = engine.minus_identity(n)
        in_group = neg in group.elements
        quotient = engine.two_quotient(
            group if in_group else engine.adjoin_minus_identity(group))
        assert (report.dim2, report.minus_one_in_group,
                report.minus_one_in_squares) == (
            quotient.dim2, in_group, neg in quotient.squares.elements), (
            family, level)


def test_engine_report_equals_the_direct_route(monkeypatch):
    levels = [(family, level) for family in counting.FAMILIES
              for level in range(1, 25)]
    by_crt = [counting.count_congruence_lifts_engine(*fl).to_dict()
              for fl in levels]
    monkeypatch.setattr(engine, "quotient_summary_crt",
                        lambda family, level:
                        engine.quotient_summary(family, level))
    direct = [counting.count_congruence_lifts_engine(*fl).to_dict()
              for fl in levels]
    assert by_crt == direct


@pytest.mark.parametrize("family, level", [
    ("gamma0", 2310), ("gamma1", 2310), ("gamma", 2310), ("gamma0", 1155)])
def test_engine_count_past_the_direct_cap(family, level):
    # The scan mod 2N is far past the scan bound; every CRT component's
    # scan is within it.
    engine_count = counting.count_congruence_lifts_engine(family, level)
    formula = counting.count_congruence_lifts_formula(family, level)
    assert engine_count.count == formula.count


@pytest.mark.parametrize("level", [97, 64])
def test_engine_count_components_within_the_guard(level):
    # Components mod 97 and mod 128 scan 9409 and 32768 candidates.
    engine_count = counting.count_congruence_lifts_engine("gamma0", level)
    formula = counting.count_congruence_lifts_formula("gamma0", level)
    assert engine_count.count == formula.count


@pytest.mark.parametrize("level, component, scan", [
    (1009, 1009, 1009 ** 2), (256, 512, 2 * 512 ** 2)])
def test_engine_count_component_past_the_guard(level, component, scan):
    with pytest.raises(engine.ScanBoundExceeded) as info:
        counting.count_congruence_lifts_engine("gamma0", level)
    assert (info.value.modulus, info.value.scan) == (component, scan)


def test_engine_count_guard_fires_before_the_scan(monkeypatch):
    # gamma(10007) would scan 10007^2 candidates; no component is built,
    # not even the one mod 2, before the refusal.
    def no_scan(*args):
        raise AssertionError("a row scan started")

    monkeypatch.setattr(engine, "_solve_row", no_scan)
    with pytest.raises(engine.ScanBoundExceeded, match=r"gamma\(10007\)"):
        counting.count_congruence_lifts_engine("gamma", 10007)


@pytest.mark.parametrize("family, level", [
    ("gamma0", 200), ("gamma1", 350), ("gamma", 336), ("gamma0", 7)])
def test_engine_count_ignores_max_modulus(family, level):
    # The benchmark's worker calls the engine count with max_modulus=2N;
    # the keyword is accepted and changes nothing.
    report = counting.count_congruence_lifts_engine(family, level)
    assert counting.count_congruence_lifts_engine(
        family, level, max_modulus=2 * level) == report


def test_report_round_trip():
    rep = counting.count_congruence_lifts_engine("gamma0", 6)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data == rep.to_dict()
    assert set(data) == {"family", "level", "count", "source", "branch",
                         "dim2", "minus_one_in_group", "minus_one_in_squares"}


def test_unknown_family_and_level():
    with pytest.raises(ValueError):
        counting.count_congruence_lifts_formula("gamma2", 5)
    with pytest.raises(ValueError):
        counting.count_congruence_lifts_formula("gamma0", 0)


def brute_hyperplanes_avoiding(p, d):
    # all kernels of nonzero functionals, one representative per scalar
    # class, counting those missing the first basis vector
    count = 0
    for coeffs in itertools.product(range(p), repeat=d):
        first_nonzero = next((i for i, c in enumerate(coeffs) if c), None)
        if first_nonzero is None or coeffs[first_nonzero] != 1:
            continue
        if coeffs[0] != 0:  # functional is nonzero on e1
            count += 1
    return count


def test_codim1_counts():
    assert counting.count_codim1_avoiding(2, 1) == 1
    assert counting.count_codim1_avoiding(2, 3) == 4
    for p in (2, 3, 5):
        for d in range(1, 5):
            assert counting.count_codim1_avoiding(p, d) == \
                brute_hyperplanes_avoiding(p, d)


def test_codim1_rejections():
    for composite in (-3, 0, 1, 4, 9, 15, 49):
        with pytest.raises(ValueError, match="must be prime"):
            counting.count_codim1_avoiding(composite, 2)
    with pytest.raises(ValueError):
        counting.count_codim1_avoiding(2, 0)


def test_all_congruence_predicates():
    gamma0_true = [1, 2, 3, 4, 5, 7, 8, 10, 13, 25, 26, 65]
    gamma0_false = [6, 9, 11, 12, 16, 20, 28]
    for n in gamma0_true:
        assert counting.all_lifts_congruence_gamma0(n), n
    for n in gamma0_false:
        assert not counting.all_lifts_congruence_gamma0(n), n
    assert counting.all_lifts_congruence_gamma1(1)
    assert counting.all_lifts_congruence_gamma1(4)
    assert not counting.all_lifts_congruence_gamma1(5)


def test_gamma0_predicate_value_at_seven():
    # Level 7 is outside the paper's list {3, 4, 8} but has no
    # noncongruence lift: index 8, e2 = 0, e3 = 2 give r = 1 and 3 lifts,
    # and the closed-form count is 3 as well.  Exhaustive classification
    # agrees (pinned in test_lifts).
    assert counting.all_lifts_congruence_gamma0(7)


def test_predicates_are_monotone():
    # a group with only congruence lifts cannot sit inside one with a
    # noncongruence lift
    for n in range(1, 101):
        if not counting.all_lifts_congruence_gamma0(n):
            assert not counting.all_lifts_congruence_gamma1(n), n
