"""Finite group computations inside SL2(Z/n).

Everything here works on canonically encoded elements: 4-tuples
(a, b, c, d) of least nonnegative residues with ad - bc = 1 mod n.
Groups are plain element sets; products are computed on demand rather
than through a Cayley table, which keeps SL2(Z/96)-sized groups (about
6 * 10^5 elements) within reach.

The enumeration of a congruence subgroup's image mod n walks unimodular
bottom rows (c, d): each row with gcd(c, d, n) = 1 extends to exactly n
matrices (a0 + t*c, b0 + t*d, c, d), so we never scan all n^4 entry
combinations.  Rows are restricted up front to those a matrix satisfying
the subgroup's congruence conditions could have; the per-matrix filter
still applies the full defining predicate.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .matrices import factorize

DEFAULT_MAX_MODULUS = 96

# Membership kinds for images of the classical congruence subgroups.
KINDS = ("gamma0", "gamma1", "gamma_full", "full")

Element = tuple[int, int, int, int]


class ModulusCapExceeded(ValueError):
    """Raised when an enumeration would exceed the configured modulus cap."""

    def __init__(self, modulus: int, cap: int):
        self.modulus = modulus
        self.cap = cap
        super().__init__(
            f"modulus {modulus} exceeds the engine cap {cap}; "
            f"raise it via max_modulus= or the LIFTLAB_MAX_MODULUS "
            f"environment variable, or use the formula route")


def max_modulus_default() -> int:
    """Engine modulus cap: LIFTLAB_MAX_MODULUS overrides the built-in 96."""
    raw = os.environ.get("LIFTLAB_MAX_MODULUS")
    if raw is None:
        return DEFAULT_MAX_MODULUS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"LIFTLAB_MAX_MODULUS must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"LIFTLAB_MAX_MODULUS must be positive, got {value}")
    return value


def effective_max_modulus(max_modulus: int | None) -> int:
    """The cap that applies: `max_modulus`, or the default when it is None."""
    return max_modulus if max_modulus is not None else max_modulus_default()


def _check_cap(modulus: int, max_modulus: int | None) -> None:
    cap = effective_max_modulus(max_modulus)
    if modulus > cap:
        raise ModulusCapExceeded(modulus, cap)


def mul(x: Element, y: Element, n: int) -> Element:
    """Product of two encoded matrices mod n."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (
        (xa * ya + xb * yc) % n,
        (xa * yb + xb * yd) % n,
        (xc * ya + xd * yc) % n,
        (xc * yb + xd * yd) % n,
    )


def inv(x: Element, n: int) -> Element:
    a, b, c, d = x
    return (d % n, -b % n, -c % n, a % n)


def identity(n: int) -> Element:
    return (1 % n, 0, 0, 1 % n)


def minus_identity(n: int) -> Element:
    return (-1 % n, 0, 0, -1 % n)


def sl2_order(n: int) -> int:
    """|SL2(Z/n)| = n^3 * prod over p | n of (1 - 1/p^2)."""
    order = n ** 3
    for p, _ in factorize(n).odd_factors:
        order = order // (p * p) * (p * p - 1)
    if n % 2 == 0:
        order = order // 4 * 3
    return order


@dataclass(frozen=True)
class ResidueMatrixGroup:
    """A subgroup of SL2(Z/n) held as a set of encoded elements."""

    modulus: int
    elements: frozenset[Element]
    generators: tuple[Element, ...] = ()

    @property
    def order(self) -> int:
        return len(self.elements)


def _generators_mod(generators: Iterable[Element], n: int) -> list[Element]:
    """Generators reduced mod n and checked for determinant 1, repeats dropped."""
    gens: list[Element] = []
    seen = set()
    for g in generators:
        g = tuple(e % n for e in g)
        if (g[0] * g[3] - g[1] * g[2]) % n != 1 % n:
            raise ValueError(f"generator {g} has determinant != 1 mod {n}")
        if g not in seen:
            seen.add(g)
            gens.append(g)
    return gens


def _bfs(gens: list[Element], n: int, target: Element | None = None,
         limit: int | None = None) -> set[Element] | None:
    """Elements reachable from the identity by right multiplication.

    In a finite group this set is already closed under inverses, so no
    inverse generators are needed.  Returns None as soon as `target` is
    reached (the identity counts as reached at once) or the set holds
    more than `limit` elements.
    """
    start = identity(n)
    if start == target:
        return None
    if limit is None:
        limit = math.inf
    elements = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = mul(x, g, n)
            if y not in elements:
                if y == target:
                    return None
                elements.add(y)
                if len(elements) > limit:
                    return None
                queue.append(y)
    return elements


def closure(generators: Iterable[Element], n: int) -> ResidueMatrixGroup:
    """Subgroup generated by the given elements (BFS product closure)."""
    gens = _generators_mod(generators, n)
    return ResidueMatrixGroup(n, frozenset(_bfs(gens, n)), tuple(gens))


def closure_contains(generators: Iterable[Element], n: int,
                     target: Element) -> tuple[bool, int | None]:
    """Test membership of `target` in the generated subgroup.

    Returns (True, None) as soon as the BFS reaches `target`, without
    finishing the closure, or (False, order) when the closure completes
    and the full order of the generated subgroup is known.
    """
    target = tuple(e % n for e in target)
    elements = _bfs(_generators_mod(generators, n), n, target)
    if elements is None:
        return True, None
    return False, len(elements)


def subgroup_order(generators: Iterable[Element],
                   group: ResidueMatrixGroup) -> int:
    """Order of the subgroup of `group` generated by the given elements.

    Raises ValueError unless every generator lies in `group`.  The BFS
    stops once it holds more than half of `group`: by Lagrange's theorem
    a subgroup of more than |group|/2 elements is the whole group.  An
    index-2 subgroup therefore still runs its closure to completion.
    """
    n = group.modulus
    gens = _generators_mod(generators, n)
    for g in gens:
        if g not in group.elements:
            raise ValueError(f"generator {g} lies outside the group mod {n}")
    elements = _bfs(gens, n, limit=group.order // 2)
    return group.order if elements is None else len(elements)


def _solve_row(c: int, d: int, n: int) -> Element | None:
    """One matrix (a, b, c, d) in SL2(Z/n) with the given bottom row.

    Returns None when gcd(c, d, n) > 1, i.e. the row is not unimodular.
    """
    g, p, q = _xgcd(d, c)
    if math.gcd(g, n) != 1:
        return None
    h = pow(g, -1, n)
    a = p * h % n
    b = -q * h % n
    return (a, b, c % n, d % n)


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with u*x + v*y = g = gcd(x, y)."""
    old_r, r = x, y
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def _kind_filters(kind: str, level: int) -> tuple[int, Callable[[Element], bool]]:
    """Row stride and per-matrix predicate for a congruence image."""
    if kind == "full":
        return 1, lambda m: True
    if kind == "gamma0":
        return level, lambda m: m[2] % level == 0
    if kind == "gamma1":
        return level, lambda m: (m[2] % level == 0 and m[0] % level == 1 % level
                                 and m[3] % level == 1 % level)
    if kind == "gamma_full":
        return level, lambda m: (m[2] % level == 0 and m[1] % level == 0
                                 and m[0] % level == 1 % level
                                 and m[3] % level == 1 % level)
    raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")


def subgroup_by_membership(kind: str, level: int, modulus: int,
                           max_modulus: int | None = None) -> ResidueMatrixGroup:
    """Image of a congruence subgroup of level `level` in SL2(Z/modulus).

    The image of Gamma_0(N) (resp. Gamma_1, Gamma(N)) mod n consists of
    exactly the matrices satisfying the defining congruences mod N, since
    SL2(Z) surjects onto SL2(Z/n) and N divides n.
    """
    if level < 1 or modulus < 1:
        raise ValueError("level and modulus must be positive")
    if modulus % level != 0:
        raise ValueError(
            f"modulus {modulus} is not a multiple of the level {level}")
    _check_cap(modulus, max_modulus)
    n = modulus
    stride, keep = _kind_filters(kind, level)
    elements = set()
    for c in range(0, n, stride):
        for d in range(n):
            seed = _solve_row(c, d, n)
            if seed is None:
                continue
            a0, b0 = seed[0], seed[1]
            for t in range(n):
                m = ((a0 + t * c) % n, (b0 + t * d) % n, c, d)
                if keep(m):
                    elements.add(m)
    return ResidueMatrixGroup(n, frozenset(elements))


def adjoin_minus_identity(group: ResidueMatrixGroup) -> ResidueMatrixGroup:
    """The subgroup generated by G and -I, i.e. G union -G."""
    n = group.modulus
    neg = minus_identity(n)
    extended = set(group.elements)
    extended.update(mul(neg, x, n) for x in group.elements)
    return ResidueMatrixGroup(n, frozenset(extended), group.generators)


def squares_subgroup(group: ResidueMatrixGroup) -> ResidueMatrixGroup:
    """Subgroup generated by all squares g^2, g in G.

    This equals G'G^2 (commutators are products of squares), and the
    generating set is conjugation-stable, so the result is normal in G
    without a separate normal-closure pass.  Squares already inside the
    closure built so far are skipped as generators; that prunes the
    generating set without changing the generated subgroup.
    """
    n = group.modulus
    squares = sorted({mul(g, g, n) for g in group.elements})
    adopted: list[Element] = []
    sub = closure([], n)
    for s in squares:
        if s not in sub.elements:
            adopted.append(s)
            sub = closure(adopted, n)
    return ResidueMatrixGroup(n, sub.elements, tuple(adopted))


@dataclass(frozen=True)
class TwoQuotient:
    """The quotient map G -> G/G'G^2 with F2 coordinates.

    `labels` assigns each element of G a bitmask of length `dim2`; the
    kernel (mask 0) is exactly the squares subgroup.
    """

    group: ResidueMatrixGroup
    squares: ResidueMatrixGroup
    dim2: int
    labels: dict[Element, int] = field(repr=False)


def two_quotient(group: ResidueMatrixGroup) -> TwoQuotient:
    """Coordinates on G/G'G^2, built by iterative coset splitting.

    Labels spread from the kernel K: the first unlabeled element x (in
    the group's iteration order) gets a fresh basis bit, and the labeled
    set, which is always a subgroup containing K, doubles.  One
    representative per labeled coset is kept, reps[mask], so the new
    coset K * reps[mask] * x gets label mask | bit without copying the
    labels.  The quotient is elementary abelian, so labels combine by XOR.
    """
    n = group.modulus
    squares = squares_subgroup(group)
    labels: dict[Element, int] = dict.fromkeys(squares.elements, 0)
    reps = [identity(n)]
    for x in group.elements:
        if len(labels) == group.order:
            break
        if x in labels:
            continue
        bit = len(reps)
        for mask in range(bit):
            rep = mul(reps[mask], x, n)
            reps.append(rep)
            for s in squares.elements:
                labels[mul(s, rep, n)] = mask | bit
    dim = len(reps).bit_length() - 1
    if squares.order << dim != group.order:
        raise AssertionError(
            "index of the squares subgroup is not a power of two")
    return TwoQuotient(group, squares, dim, labels)


def f2_consistent(rows: Iterable[tuple[int, int]]) -> bool:
    """Whether some F2-linear functional phi has phi(mask) = bit on every row.

    Each row is (mask, bit), the mask an F2 vector packed into an int.
    Gaussian elimination keeps one reduced row per leading bit; the system
    is inconsistent exactly when a row reduces to mask 0 with bit 1 (a row
    (0, 1) on its own is already inconsistent).
    """
    pivots: dict[int, tuple[int, int]] = {}
    for mask, bit in rows:
        while mask:
            lead = mask.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (mask, bit)
                break
            pivot_mask, pivot_bit = pivots[lead]
            mask ^= pivot_mask
            bit ^= pivot_bit
        else:
            if bit:
                return False
    return True


@dataclass(frozen=True)
class QuotientSummary:
    """dim2 and the two -I membership flags for one congruence image."""

    kind: str
    level: int
    modulus: int
    group_order: int
    dim2: int
    minus_one_in_group: bool
    minus_one_in_squares: bool


def quotient_summary(kind: str, level: int, modulus: int | None = None,
                     max_modulus: int | None = None) -> QuotientSummary:
    """Two-quotient data for the image of a congruence subgroup mod 2N."""
    n = 2 * level if modulus is None else modulus
    group = subgroup_by_membership(kind, level, n, max_modulus=max_modulus)
    quotient = two_quotient(group)
    neg = minus_identity(n)
    return QuotientSummary(
        kind=kind,
        level=level,
        modulus=n,
        group_order=group.order,
        dim2=quotient.dim2,
        minus_one_in_group=neg in group.elements,
        minus_one_in_squares=neg in quotient.squares.elements,
    )


def quotient_dim2_crt(kind: str, level: int,
                      max_modulus: int | None = None) -> int:
    """CRT fast path for dim2 of Gamma/Gamma(2N): sum over prime powers.

    SL2(Z/2N) splits as a direct product over the prime power divisors
    of 2N, the congruence conditions split componentwise, and a direct
    product's maximal elementary abelian 2-quotient is the product of the
    factors' quotients.  The direct computation remains the oracle; this
    route exists to cross-check it on composite levels.
    """
    profile = factorize(level)
    two_part = 2 ** profile.s
    total = quotient_summary(kind, two_part, modulus=2 * two_part,
                             max_modulus=max_modulus).dim2
    for p, e in profile.odd_factors:
        total += quotient_summary(kind, p ** e, modulus=p ** e,
                                  max_modulus=max_modulus).dim2
    return total
