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
still applies the full defining predicate.  Images are named by the
package's family names (gamma0, gamma1, gamma).

Every enumeration is bounded by a modulus cap, a plain `max_modulus`
argument that defaults to `DEFAULT_MAX_MODULUS`; past it the engine
raises `ModulusCapExceeded` instead of grinding.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .matrices import factorize

DEFAULT_MAX_MODULUS = 96

# The families of congruence subgroups whose images the engine builds;
# level 1 of any of them is all of SL2.
FAMILIES = ("gamma0", "gamma1", "gamma")

Element = tuple[int, int, int, int]


class ModulusCapExceeded(ValueError):
    """Raised when an enumeration would exceed the configured modulus cap."""

    def __init__(self, modulus: int, cap: int):
        self.modulus = modulus
        self.cap = cap
        super().__init__(
            f"modulus {modulus} exceeds the engine cap {cap}; "
            f"raise it with --max-modulus (max_modulus= in the library)")


def _check_cap(modulus: int, max_modulus: int) -> None:
    if modulus > max_modulus:
        raise ModulusCapExceeded(modulus, max_modulus)


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


def _family_filters(family: str,
                    level: int) -> tuple[int, Callable[[Element], bool]]:
    """Row stride and per-matrix predicate for a congruence image."""
    if family == "gamma0":
        return level, lambda m: m[2] % level == 0
    if family == "gamma1":
        return level, lambda m: (m[2] % level == 0 and m[0] % level == 1 % level
                                 and m[3] % level == 1 % level)
    if family == "gamma":
        return level, lambda m: (m[2] % level == 0 and m[1] % level == 0
                                 and m[0] % level == 1 % level
                                 and m[3] % level == 1 % level)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def subgroup_by_membership(family: str, level: int, modulus: int,
                           max_modulus: int = DEFAULT_MAX_MODULUS
                           ) -> ResidueMatrixGroup:
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
    stride, keep = _family_filters(family, level)
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


def f2_dependencies(rows: Iterable[tuple[int, int]]) -> list[int]:
    """Payloads of the rows that XOR elimination reduces to mask 0.

    Rows are (mask, payload) pairs of packed F2 vectors, and each payload
    returned XORs those of rows whose masks cancel: one per row beyond
    the rank.  Rows (mask, bit) are solvable iff every one returned is 0.
    """
    pivots: dict[int, tuple[int, int]] = {}
    dependent = []
    for mask, payload in rows:
        while mask:
            lead = mask.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (mask, payload)
                break
            pivot_mask, pivot_payload = pivots[lead]
            mask ^= pivot_mask
            payload ^= pivot_payload
        else:
            dependent.append(payload)
    return dependent


@dataclass(frozen=True)
class QuotientSummary:
    """dim2 and the two -I membership flags for one congruence image."""

    family: str
    level: int
    modulus: int
    group_order: int
    dim2: int
    minus_one_in_group: bool
    minus_one_in_squares: bool


def quotient_summary(family: str, level: int, modulus: int | None = None,
                     max_modulus: int = DEFAULT_MAX_MODULUS
                     ) -> QuotientSummary:
    """Two-quotient data for the image of a congruence subgroup mod 2N."""
    n = 2 * level if modulus is None else modulus
    group = subgroup_by_membership(family, level, n, max_modulus)
    quotient = two_quotient(group)
    neg = minus_identity(n)
    return QuotientSummary(
        family=family,
        level=level,
        modulus=n,
        group_order=group.order,
        dim2=quotient.dim2,
        minus_one_in_group=neg in group.elements,
        minus_one_in_squares=neg in quotient.squares.elements,
    )


def quotient_summary_crt(family: str, level: int,
                         max_modulus: int = DEFAULT_MAX_MODULUS
                         ) -> QuotientSummary:
    """The summary `quotient_summary(family, level)` gives, built by CRT.

    SL2(Z/2N) is the direct product of its components mod 2^(s+1) and
    mod each odd p^e dividing N, and the congruence conditions split the
    same way, so the image mod 2N is the product of the component images.
    A direct product's squares subgroup is the product of the factors'
    squares subgroups: dim2 adds, and -I lies in G (or in G'G^2) exactly
    when every component of -I does.  The cap bounds each component
    modulus, so levels with 2N past it are reached when the components
    fit.  The direct computation mod 2N stays the oracle in `verify`.
    """
    profile = factorize(level)
    two_part = 2 ** profile.s
    parts = [quotient_summary(family, two_part, 2 * two_part, max_modulus)]
    parts += [quotient_summary(family, p ** e, p ** e, max_modulus)
              for p, e in profile.odd_factors]
    return QuotientSummary(
        family=family,
        level=level,
        modulus=2 * level,
        group_order=math.prod(q.group_order for q in parts),
        dim2=sum(q.dim2 for q in parts),
        minus_one_in_group=all(q.minus_one_in_group for q in parts),
        minus_one_in_squares=all(q.minus_one_in_squares for q in parts),
    )
