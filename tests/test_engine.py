import itertools
import random

import pytest

from liftlab import engine


def brute_sl2(n):
    out = set()
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if (a * d - b * c) % n == 1 % n:
            out.add((a, b, c, d))
    return out


def brute_subgroup(kind, level, n):
    def keep(m):
        a, b, c, d = m
        if c % level != 0:
            return False
        if kind == "gamma0":
            return True
        if a % level != 1 or d % level != 1:
            return False
        if kind == "gamma1":
            return True
        return b % level == 0
    return {m for m in brute_sl2(n) if keep(m)}


def test_subgroup_by_membership_matches_filter():
    cases = [("gamma0", 2, 4), ("gamma0", 3, 6), ("gamma1", 3, 6),
             ("gamma1", 2, 4), ("gamma", 2, 4), ("gamma0", 1, 6),
             ("gamma0", 4, 8)]
    for kind, level, n in cases:
        got = engine.subgroup_by_membership(kind, level, n)
        assert got.elements == frozenset(brute_subgroup(kind, level, n))


def test_gamma_full_2_mod_4_order_is_8():
    group = engine.subgroup_by_membership("gamma", 2, 4)
    assert group.order == 8


def test_closure_of_translations():
    t = (1, 1, 0, 1)
    group = engine.closure([t], 12)
    assert group.order == 12
    full = engine.closure([t, (0, -1, 1, 0)], 5)
    assert full.order == len(brute_sl2(5))


def test_closure_rejects_bad_determinant():
    with pytest.raises(ValueError):
        engine.closure([(1, 0, 0, 2)], 5)


def test_closure_contains_agrees_with_closure():
    rng = random.Random(7)
    step = [(1, 1, 0, 1), (0, -1, 1, 0), (1, 0, 1, 1)]
    for n in (8, 12):
        everything = sorted(brute_sl2(n))
        for _ in range(20):
            gens = [rng.choice(step) for _ in range(rng.randrange(1, 3))]
            group = engine.closure(gens, n)
            target = rng.choice(everything)
            found, order = engine.closure_contains(gens, n, target)
            assert found == (target in group.elements)
            if not found:
                assert order == group.order
            # generators are normalised as closure does: repeats change nothing
            assert engine.closure_contains(gens + gens, n, target) == (
                found, order)
            assert engine.closure_contains(gens, n, engine.identity(n)) == (
                True, None)
        with pytest.raises(ValueError):
            engine.closure_contains([(1, 0, 0, 2)], n, engine.identity(n))


def test_subgroup_order_agrees_with_closure():
    rng = random.Random(17)
    step = [(1, 1, 0, 1), (0, -1, 1, 0), (1, 0, 1, 1), (1, 2, 0, 1)]
    for n in (2, 5, 8, 12):
        whole = engine.subgroup_by_membership("gamma0", 1, n)
        everything = sorted(whole.elements)
        cases = [[], [engine.identity(n)], [(1, 1, 0, 1), (0, -1, 1, 0)]]
        cases += [[rng.choice(step) for _ in range(rng.randrange(1, 3))]
                  for _ in range(10)]
        cases += [rng.sample(everything, rng.randrange(1, 3))
                  for _ in range(5)]
        for gens in cases:
            assert engine.subgroup_order(gens, whole) == (
                engine.closure(gens, n).order), (n, gens)
        assert engine.subgroup_order([], whole) == 1
        assert engine.subgroup_order(cases[2], whole) == whole.order


def test_subgroup_order_completes_an_index_two_subgroup():
    # The elements of one two-quotient coordinate 0 form a subgroup of
    # index 2, exactly |group|/2 elements: the BFS must not stop there.
    rng = random.Random(19)
    for kind, level in (("gamma0", 6), ("gamma1", 4), ("gamma0", 1)):
        group = engine.subgroup_by_membership(kind, level, 2 * level)
        labels = engine.two_quotient(group).labels
        half = sorted(x for x in group.elements if not labels[x] & 1)
        assert 2 * len(half) == group.order
        assert engine.subgroup_order(half, group) == group.order // 2
        gens = rng.sample(half, 3)
        assert engine.subgroup_order(gens, group) == (
            engine.closure(gens, group.modulus).order)


def test_subgroup_order_rejects_generators_outside_the_group():
    group = engine.subgroup_by_membership("gamma0", 3, 6)
    with pytest.raises(ValueError, match="outside"):
        engine.subgroup_order([(1, 1, 0, 1), (0, -1, 1, 0)], group)
    with pytest.raises(ValueError, match="determinant"):
        engine.subgroup_order([(1, 0, 0, 2)], group)


def test_f2_consistent_hand_built_systems():
    # f2_dependencies decides consistency: a system (mask, bit) is
    # consistent exactly when no row reduces to mask 0 with payload 1.
    def consistent(rows):
        return not any(engine.f2_dependencies(rows))

    assert consistent([])
    assert consistent([(0, 0)])
    # mask 0 with bit 1: -I inside the squares subgroup but signed -1
    assert not consistent([(0, 1)])
    assert not consistent([(0b1, 0), (0, 1)])
    assert consistent([(0b01, 1), (0b10, 0), (0b11, 1)])
    assert not consistent([(0b01, 1), (0b10, 0), (0b11, 0)])
    # a dependency reached only after two eliminations
    assert not consistent([(0b110, 1), (0b011, 0), (0b101, 0)])
    assert consistent([(0b110, 1), (0b011, 0), (0b101, 1)])
    # payloads are XORed along with the masks, every bit of them
    assert engine.f2_dependencies(
        [(0b11, 0b001), (0b01, 0b010), (0b10, 0b100)]) == [0b111]
    # against every functional on F2^3: consistency and 2^(3-k) solutions
    rng = random.Random(11)
    for _ in range(200):
        rows = [(rng.randrange(8), rng.randrange(2))
                for _ in range(rng.randrange(1, 6))]
        solutions = sum(all(bin(phi & mask).count("1") % 2 == bit
                            for mask, bit in rows) for phi in range(8))
        dependent = engine.f2_dependencies(rows)
        assert consistent(rows) == (solutions > 0), rows
        if solutions:
            rank = len(rows) - len(dependent)
            assert solutions == 2 ** (3 - rank), rows


def test_adjoin_minus_identity():
    group = engine.subgroup_by_membership("gamma1", 5, 10)
    assert engine.minus_identity(10) not in group.elements
    bigger = engine.adjoin_minus_identity(group)
    assert engine.minus_identity(10) in bigger.elements
    assert bigger.order == 2 * group.order
    assert engine.adjoin_minus_identity(bigger).order == bigger.order


def test_squares_subgroup_properties():
    rng = random.Random(13)
    for kind, level in (("gamma0", 6), ("gamma1", 4), ("gamma", 2)):
        group = engine.subgroup_by_membership(kind, level, 2 * level)
        squares = engine.squares_subgroup(group)
        quot, rem = divmod(group.order, squares.order)
        assert rem == 0
        assert quot & (quot - 1) == 0  # power of two
        elements = sorted(group.elements)
        for x in elements:
            assert engine.mul(x, x, group.modulus) in squares.elements
        # normality spot check on random conjugates
        for _ in range(40):
            g = rng.choice(elements)
            h = rng.choice(sorted(squares.elements))
            conj = engine.mul(engine.mul(g, h, group.modulus),
                              engine.inv(g, group.modulus), group.modulus)
            assert conj in squares.elements


def test_two_quotient_labels_are_homomorphic():
    rng = random.Random(3)
    group = engine.subgroup_by_membership("gamma0", 12, 24)
    quotient = engine.two_quotient(group)
    assert quotient.squares.order * 2 ** quotient.dim2 == group.order
    elements = sorted(group.elements)
    for _ in range(60):
        x, y = rng.choice(elements), rng.choice(elements)
        lx = quotient.labels[x]
        ly = quotient.labels[y]
        assert quotient.labels[engine.mul(x, y, 24)] == lx ^ ly


def test_quotient_summary_values():
    q5 = engine.quotient_summary("gamma0", 5)
    assert (q5.dim2, q5.minus_one_in_group, q5.minus_one_in_squares) == (
        2, True, True)
    q7 = engine.quotient_summary("gamma0", 7)
    assert (q7.dim2, q7.minus_one_in_group, q7.minus_one_in_squares) == (
        2, True, False)
    qf = engine.quotient_summary("gamma", 2)
    assert (qf.group_order, qf.dim2) == (8, 3)
    assert qf.minus_one_in_group and not qf.minus_one_in_squares


def test_quotient_summary_crt_matches_direct():
    for kind in ("gamma0", "gamma1", "gamma"):
        for n in range(1, 25):
            direct = engine.quotient_summary(kind, n)
            assert engine.quotient_summary_crt(kind, n) == direct, (kind, n)


def test_modulus_cap():
    # The one engine guard is the row scan's size, (modulus // level) *
    # modulus^2 candidates, compared with MAX_SCAN before the scan starts.
    with pytest.raises(engine.ScanBoundExceeded) as info:
        engine.subgroup_by_membership("gamma", 10007, 10007)
    exc = info.value
    assert (exc.family, exc.level, exc.modulus, exc.scan, exc.bound) == (
        "gamma", 10007, 10007, 10007 ** 2, engine.MAX_SCAN)
    assert str(exc) == (
        f"the image of gamma(10007) mod 10007 needs a row scan of "
        f"{10007 ** 2} candidates, past the engine's scan bound "
        f"{engine.MAX_SCAN}")
    # 547^2 = 299209 is within the bound and 557^2 = 310249 is past it
    engine.check_scan("gamma0", 547, 547)
    with pytest.raises(engine.ScanBoundExceeded):
        engine.check_scan("gamma0", 557, 557)
    # gamma0(60) mod 120 scans 2 * 120^2 = 28800 candidates
    group = engine.subgroup_by_membership("gamma0", 60, 120)
    assert group.modulus == 120
    assert group.order == 120 ** 3 * 3 // 4 * 8 // 9 * 24 // 25 // 144


def test_unknown_kind():
    with pytest.raises(ValueError):
        engine.subgroup_by_membership("borel", 3, 6)
