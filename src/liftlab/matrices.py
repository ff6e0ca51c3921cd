"""Exact 2x2 unimodular matrix arithmetic over Z and Z/n.

Matrices are stored entrywise (row-major: a, b, c, d).  Integer matrices
use Python's arbitrary-precision integers, so long generator words never
overflow.  Reducing mod n gives a validated residue matrix whose entries
are least nonnegative residues; its `key()` is the canonical 4-tuple
(a, b, c, d) that `engine` computes with, so all arithmetic mod n happens
there, on the tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True)
class IntegerMatrix:
    """A 2x2 integer matrix with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return multiply(self, other)

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "IntegerMatrix":
        return IntegerMatrix(self.d, -self.b, -self.c, self.a)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def reduce(self, n: int) -> "ResidueMatrix":
        return reduce(self, n)

    def proj_eq(self, other: "IntegerMatrix") -> bool:
        """Equality in PSL2(Z), i.e. up to a global sign."""
        return self == other or self == -other

    def __repr__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


IDENTITY = IntegerMatrix(1, 0, 0, 1)
MINUS_IDENTITY = IntegerMatrix(-1, 0, 0, -1)
S = IntegerMatrix(0, -1, 1, 0)
T = IntegerMatrix(1, 1, 0, 1)


def multiply(x: IntegerMatrix, y: IntegerMatrix) -> IntegerMatrix:
    """Matrix product of two determinant-1 integer matrices."""
    return IntegerMatrix(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def word(letters: Iterable[IntegerMatrix]) -> IntegerMatrix:
    """Product of a sequence of matrices, identity if empty."""
    acc = IDENTITY
    for m in letters:
        acc = multiply(acc, m)
    return acc


@dataclass(frozen=True, slots=True)
class ResidueMatrix:
    """A 2x2 matrix over Z/n with determinant 1, entries in [0, n).

    A checked value only: `key()` hands its entries to `engine`, which
    does the group arithmetic on the tuples.
    """

    modulus: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        n = self.modulus
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % n)
        if (self.a * self.d - self.b * self.c) % n != 1 % n:
            raise ValueError(f"determinant not 1 mod {n}")

    def key(self) -> tuple[int, int, int, int]:
        """Canonical 4-tuple encoding (least nonnegative residues)."""
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]] mod {self.modulus}"


def reduce(x: IntegerMatrix, n: int) -> ResidueMatrix:
    """Reduce an integer matrix mod n (a ring homomorphism on entries)."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return ResidueMatrix(n, x.a % n, x.b % n, x.c % n, x.d % n)


@dataclass(frozen=True, slots=True)
class FactorizationProfile:
    """N = 2^s * p1^s1 * ... * pt^st with the odd primes held separately.

    The 2-part plays a distinguished role throughout (counts and
    two-quotient dimensions depend on s through min-clamps), hence the
    split representation.
    """

    n: int
    two_exponent: int
    odd_factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        rebuilt = 2 ** self.two_exponent
        for p, e in self.odd_factors:
            rebuilt *= p ** e
        if rebuilt != self.n:
            raise ValueError(f"profile does not multiply back to {self.n}")

    @property
    def s(self) -> int:
        return self.two_exponent

    @property
    def t(self) -> int:
        """Number of distinct odd prime divisors."""
        return len(self.odd_factors)

    def odd_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.odd_factors)


def factorize(n: int) -> FactorizationProfile:
    """Factor a positive integer by trial division."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    s = 0
    m = n
    while m % 2 == 0:
        m //= 2
        s += 1
    odd = []
    p = 3
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            odd.append((p, e))
        p += 2
    if m > 1:
        odd.append((m, 1))
    return FactorizationProfile(n, s, tuple(odd))
