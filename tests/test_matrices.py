import random

import pytest

from liftlab.matrices import (IDENTITY, MINUS_IDENTITY, S, T, IntegerMatrix,
                              ResidueMatrix, factorize, multiply)


def test_determinant_guard():
    with pytest.raises(ValueError):
        IntegerMatrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        IntegerMatrix(0, 0, 0, 0)


def test_basic_algebra():
    assert S * S == MINUS_IDENTITY
    st = S * T
    assert st * st * st == MINUS_IDENTITY
    assert T.inverse() == IntegerMatrix(1, -1, 0, 1)
    m = IntegerMatrix(5, 3, 3, 2)
    assert m * m.inverse() == IDENTITY
    assert (-m).entries() == (-5, -3, -3, -2)
    assert m.trace == 7


def test_multiply_matches_the_operator():
    assert multiply(S, T) == S * T


def test_reduce_and_proj_eq():
    m = IntegerMatrix(7, 3, 2, 1)
    r = m.reduce(5)
    assert (r.a, r.b, r.c, r.d) == (2, 3, 2, 1)


def test_residue_matrix_rules():
    x = ResidueMatrix(6, 7, 6, 12, 1)
    assert (x.a, x.b, x.c, x.d) == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        ResidueMatrix(6, 2, 0, 0, 2)


def test_factorize():
    prof = factorize(48)
    assert prof.s == 4 and prof.odd_factors == ((3, 1),)
    assert prof.t == 1
    assert factorize(1).s == 0 and factorize(1).odd_factors == ()
    prof = factorize(360)
    assert prof.s == 3 and prof.odd_factors == ((3, 2), (5, 1))
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reassembles():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(1, 5000)
        prof = factorize(n)
        product = 2 ** prof.s
        for p, e in prof.odd_factors:
            product *= p ** e
        assert product == n
