import json
import math

import pytest

from liftlab import engine, presentation
from liftlab.matrices import IDENTITY, IntegerMatrix
from liftlab.presentation import (IndexBoundExceeded, build_coset_action,
                                  coset_action, cusp_widths, elliptic_counts,
                                  farey_symbol, free_rank, general_level,
                                  generator_set, index_formula, proj_member)


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return r if r == 1 else -1


def classical_elliptic_counts(level):
    """Multiplicative formulas for the torsion of the degree-0 family."""
    e2 = 1
    e3 = 1
    primes = []
    n = level
    p = 2
    while p * p <= n:
        if n % p == 0:
            exp = 0
            while n % p == 0:
                n //= p
                exp += 1
            primes.append((p, exp))
        p += 1
    if n > 1:
        primes.append((n, 1))
    if level % 4 == 0:
        e2 = 0
    else:
        for p, _ in primes:
            if p == 2:
                continue
            e2 *= 1 + legendre(-1, p)
    if level % 9 == 0:
        e3 = 0
    else:
        for p, _ in primes:
            if p == 3:
                continue
            e3 *= 0 if p == 2 else 1 + legendre(-3, p)
    return e2, e3


def test_index_formula_matches_coset_degree():
    for n in range(1, 25):
        assert coset_action("gamma0", n).degree == index_formula("gamma0", n)
    for n in range(1, 17):
        assert coset_action("gamma1", n).degree == index_formula("gamma1", n)


def test_index_formula_spot_values():
    assert index_formula("gamma0", 1) == 1
    assert index_formula("gamma0", 7) == 8
    assert index_formula("gamma0", 12) == 24
    assert index_formula("gamma1", 5) == 12
    assert index_formula("gamma1", 12) == 48


def test_elliptic_counts_against_classical_formulas():
    for n in range(1, 25):
        got = elliptic_counts(coset_action("gamma0", n))
        assert got == classical_elliptic_counts(n), n
    # the level-1 action is a single point fixed by everything
    assert elliptic_counts(coset_action("gamma1", 1)) == (1, 1)
    for n in range(4, 17):
        assert elliptic_counts(coset_action("gamma1", n)) == (0, 0), n


def test_cusp_widths_partition_the_index():
    for family, top in (("gamma0", 25), ("gamma1", 15)):
        for n in range(1, top):
            action = coset_action(family, n)
            widths = cusp_widths(action)
            assert sum(widths) == action.degree
            assert general_level(action) == n


def test_cusp_widths_gamma0_prime():
    # two cusps for a prime level, widths 1 and p
    assert sorted(cusp_widths(coset_action("gamma0", 7))) == [1, 7]
    assert sorted(cusp_widths(coset_action("gamma0", 11))) == [1, 11]


def test_free_rank():
    assert free_rank(6, 0, 0) == 2
    assert free_rank(8, 0, 2) == 1
    assert free_rank(1, 1, 1) == 0
    with pytest.raises(ValueError):
        free_rank(7, 0, 0)
    with pytest.raises(ValueError):
        free_rank(6, 6, 0)


def test_proj_member():
    assert proj_member("gamma0", 6, IntegerMatrix(1, 1, 0, 1))
    assert proj_member("gamma0", 6, IntegerMatrix(-1, -1, 0, -1))
    assert not proj_member("gamma0", 6, IntegerMatrix(0, -1, 1, 0))
    assert proj_member("gamma1", 5, IntegerMatrix(-1, 0, -5, -1))
    assert not proj_member("gamma1", 5, IntegerMatrix(2, 1, 5, 3))


def test_farey_symbol_validates_and_recovers_index():
    for family, top in (("gamma0", 25), ("gamma1", 15)):
        for n in range(1, top):
            symbol = farey_symbol(family, n)
            symbol.validate()
            assert symbol.index == index_formula(family, n), (family, n)


def test_farey_symbol_level_one_is_degenerate():
    symbol = farey_symbol("gamma0", 1)
    assert symbol.labels == ("even", "odd")
    assert symbol.e2 == 1 and symbol.e3 == 1 and symbol.rank == 0


def test_generator_set_spot_shapes():
    shapes = {("gamma0", 7): (8, 0, 2, 1), ("gamma0", 11): (12, 0, 0, 3),
              ("gamma0", 13): (14, 2, 2, 1), ("gamma1", 5): (12, 0, 0, 3),
              ("gamma1", 6): (12, 0, 0, 3), ("gamma0", 4): (6, 0, 0, 2),
              ("gamma0", 16): (24, 0, 0, 5)}
    for (family, n), (index, e2, e3, r) in shapes.items():
        gens = generator_set(family, n)
        assert (gens.index, gens.e2, gens.e3, gens.rank) == (index, e2, e3, r)
        assert len(gens.entries) == e2 + e3 + r


def test_generator_traces_and_membership():
    for family, n in (("gamma0", 6), ("gamma0", 13), ("gamma1", 8)):
        for m, kind in generator_set(family, n).entries:
            assert proj_member(family, n, m)
            if kind == "even":
                assert m.trace == 0
                assert m * m == IntegerMatrix(-1, 0, 0, -1)
            elif kind == "odd":
                assert m.trace == -1
                assert m * m * m == IntegerMatrix(1, 0, 0, 1)
            else:
                assert abs(m.trace) >= 2


def test_generators_generate_the_reduction():
    # together with -I the generators must reach the whole image mod N
    for family, n in (("gamma0", 6), ("gamma0", 9), ("gamma1", 7)):
        gens = generator_set(family, n)
        keys = [m.reduce(n).key() for m in gens.matrices()]
        keys.append(engine.minus_identity(n))
        got = engine.closure(keys, n)
        kind = "gamma_full" if family == "gamma" else family
        want = engine.subgroup_by_membership(kind, n, n)
        want = engine.adjoin_minus_identity(want)
        assert got.elements == want.elements


def test_gamma1_small_levels_delegate():
    # projectively the two families coincide below level 4
    for n in (1, 2, 3):
        a, b = farey_symbol("gamma1", n), farey_symbol("gamma0", n)
        assert (a.fractions, a.labels) == (b.fractions, b.labels)
    assert farey_symbol("gamma1", 5).index == 12
    assert farey_symbol("gamma0", 5).index == 6


def test_generator_set_round_trip():
    gens = generator_set("gamma0", 9)
    data = json.loads(json.dumps(gens.to_dict()))
    assert data == gens.to_dict()
    assert data["generators"][0] == {
        "matrix": list(gens.entries[0][0].entries()),
        "type": gens.entries[0][1]}
    assert data["kind"] == "gamma0" and data["N"] == 9
    assert set(data) >= {"index", "e2", "e3", "r", "generators"}


def test_coset_action_structure():
    action = coset_action("gamma0", 6)
    degree = action.degree
    s, t = action.s_perm, action.t_perm
    assert sorted(s) == list(range(degree)) and sorted(t) == list(range(degree))
    for i in range(degree):
        assert s[s[i]] == i
    st = action.st_perm()
    for i in range(degree):
        assert st[st[st[i]]] == i


def test_cosets_are_numbered_breadth_first():
    # the coset walk numbers cosets in order of their distance from the
    # identity's coset along S- and T-steps
    for family, n in (("gamma0", 12), ("gamma0", 30), ("gamma1", 7)):
        action = build_coset_action(family, n)
        dist = [0] + [None] * (action.degree - 1)
        frontier = [0]
        while frontier:
            step = []
            for i in frontier:
                for j in (action.s_perm[i], action.t_perm[i]):
                    if dist[j] is None:
                        dist[j] = dist[i] + 1
                        step.append(j)
            frontier = step
        assert dist == sorted(dist), (family, n)
        assert dist[-1] > 2


def test_index_bound():
    with pytest.raises(IndexBoundExceeded):
        build_coset_action("gamma0", 6, max_index=5)


def scan_farey_symbol(family, level):
    """The quadratic construction: free partners by a left-to-right scan.

    Kept here only as the oracle for the hashed partner lookup.
    """
    eff = presentation._normalize_family(family, level)
    fractions = [(-1, 0), (0, 1), (1, 0)]
    labels = [None, None]
    used = set()
    next_pair_id = 1

    def usable(m):
        return proj_member(eff, level, m) and \
            presentation._proj_key(m) not in used

    def accept(m):
        used.add(presentation._proj_key(m))
        used.add(presentation._proj_key(m.inverse()))

    while None in labels:
        i = labels.index(None)
        x, y = fractions[i], fractions[i + 1]
        even = presentation._even_candidate(x, y)
        if usable(even):
            labels[i] = "even"
            accept(even)
            continue
        odd = presentation._odd_candidate(x, y)
        if usable(odd):
            labels[i] = "odd"
            accept(odd)
            continue
        for j in range(i + 1, len(labels)):
            if labels[j] is not None:
                continue
            g = presentation._free_candidate(
                (x, y), (fractions[j], fractions[j + 1]))
            if abs(g.trace) < 2 or g.proj_eq(IDENTITY):
                continue
            if usable(g):
                labels[i] = labels[j] = next_pair_id
                next_pair_id += 1
                accept(g)
                break
        else:
            fractions.insert(i + 1, presentation._mediant(x, y))
            labels.insert(i, None)
    return tuple(fractions), tuple(labels)


def test_farey_symbol_matches_the_scan():
    cases = [("gamma0", n) for n in range(1, 61)]
    cases += [("gamma1", n) for n in range(1, 31)] + [("gamma1", 40)]
    for family, n in cases:
        symbol = farey_symbol(family, n)
        assert (symbol.fractions, symbol.labels) == \
            scan_farey_symbol(family, n), (family, n)


def unit_orbit_key_fn(family, level):
    """The gamma0 key as the minimum over all unit multiples of the row."""
    units = [u for u in range(1, level) if math.gcd(u, level) == 1]

    def key(c, d):
        return min((u * c % level, u * d % level) for u in units)
    return key


def test_gamma0_key_partitions_like_the_unit_orbits():
    for n in range(1, 61):
        key = presentation._coset_key_fn("gamma0", n)
        units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
        class_of = {}
        new_key_of_class = {}
        for c in range(n):
            for d in range(n):
                if math.gcd(math.gcd(c, d), n) != 1 or (c, d) in class_of:
                    continue
                orbit = {(u * c % n, u * d % n) for u in units}
                class_id = len(new_key_of_class)
                new_key_of_class[class_id] = key(c, d)
                for row in orbit:
                    class_of[row] = class_id
        for (c, d), class_id in class_of.items():
            assert key(c, d) == new_key_of_class[class_id], (n, c, d)
        assert len(set(new_key_of_class.values())) == len(new_key_of_class)
        assert len(new_key_of_class) == index_formula("gamma0", n), n


def test_coset_representatives_unchanged_by_the_gamma0_key(monkeypatch):
    new = {n: build_coset_action("gamma0", n) for n in (12, 30, 60)}
    monkeypatch.setattr(presentation, "_coset_key_fn", unit_orbit_key_fn)
    for n, action in new.items():
        old = build_coset_action("gamma0", n)
        assert action.representatives == old.representatives, n
        assert (action.s_perm, action.t_perm) == (old.s_perm, old.t_perm)


def test_gamma1_presentation_at_level_100():
    gens = generator_set("gamma1", 100)
    action = coset_action("gamma1", 100)
    assert (gens.index, gens.rank, gens.e2, gens.e3) == (3600, 601, 0, 0)
    assert action.degree == gens.index
    assert elliptic_counts(action) == (gens.e2, gens.e3)
    assert free_rank(action.degree, 0, 0) == gens.rank
