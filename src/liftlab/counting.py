"""Counting congruence lifts of the projective groups to SL2(Z).

Two independent routes produce the count of congruence subgroups of
SL2(Z) projecting onto a given projective congruence group:

* a closed-form piecewise formula in terms of the level's factorization
  N = 2^s * p1^s1 * ... * pt^st, and
* an engine route that builds G = Gamma/Gamma(2N) inside SL2(Z/2N) as
  the product of its images mod 2^(s+1) and mod each p^e, takes the
  quotient by the subgroup generated by squares, and reads the count off
  the dimension d and the position of -I:

      1             if -I lies in the squares subgroup,
      1 + 2^(d-1)   otherwise (taken in <G, -I> when -I is not in G).

Here 2^(d-1) counts the hyperplanes of F2^d that avoid the nonzero image
of -I (`count_codim1_avoiding`, a lemma `verify` checks by enumeration).
The engine route's one size guard is the engine's scan bound
(`engine.MAX_SCAN`), which applies to each CRT component.

The two routes share no code and are kept separate deliberately; their
agreement over a whole modulus range is the main acceptance check.

The all-congruence predicates are derived from the closed-form count and
the number of lifts read off the coset action; `verify` checks both
against the F2 lift census of `lifts.classify_all`, counted levels too.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine
from .matrices import factorize
from .presentation import coset_action, elliptic_counts, free_rank, \
    index_formula

# The three supported families of projective groups, named as the engine
# names them.
FAMILIES = engine.FAMILIES


@dataclass(frozen=True)
class LiftCountReport:
    """Count of congruence lifts for one (family, level) pair.

    `branch` names the formula case that fired ("s>=2", "N>2 even", ...)
    or the engine case; dim2 and the -I flags are filled on the engine
    route (for the group the trichotomy was evaluated on, i.e. <G, -I>
    when -I is not already in G).
    """

    family: str
    level: int
    count: int
    source: str
    branch: str
    dim2: int | None = None
    minus_one_in_group: bool | None = None
    minus_one_in_squares: bool | None = None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "level": self.level,
            "count": self.count,
            "source": self.source,
            "branch": self.branch,
            "dim2": self.dim2,
            "minus_one_in_group": self.minus_one_in_group,
            "minus_one_in_squares": self.minus_one_in_squares,
        }


def _require_level(level: int) -> None:
    if level < 1:
        raise ValueError(f"level must be a positive integer, got {level}")


def count_congruence_lifts_formula(family: str, level: int) -> LiftCountReport:
    """Closed-form count of congruence lifts. Exact big integers throughout."""
    _require_level(level)
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "gamma0":
        profile = factorize(level)
        s, t = profile.s, profile.t
        if s <= 1 and all(p % 4 == 1 for p in profile.odd_primes()):
            count, branch = 1, "s<=1, all odd primes 1 mod 4"
        elif s <= 1:
            count, branch = 1 + 2 ** (s + t), "s<=1, some odd prime 3 mod 4"
        else:
            count, branch = 1 + 2 ** (min(3, s) + t), "s>=2"
    elif family == "gamma1":
        if level <= 2:
            count, branch = 1, "N<=2"
        elif level % 2 == 1:
            count, branch = 3, "N>2 odd"
        else:
            count, branch = 5, "N>2 even"
    else:
        if level == 1:
            count, branch = 1, "N=1"
        elif level == 2:
            count, branch = 5, "N=2"
        elif level % 2 == 1:
            count, branch = 3, "N>1 odd"
        else:
            count, branch = 9, "N>2 even"
    return LiftCountReport(family, level, count, "formula", branch)


def count_congruence_lifts_engine(family: str, level: int, *,
                                  max_modulus=None) -> LiftCountReport:
    """Engine count: build Gamma/Gamma(2N) and apply the d/-I trichotomy.

    The image is built one CRT component at a time
    (`engine.quotient_summary_crt`), so the scan bound applies to the
    images mod 2^(s+1) and mod each p^e rather than mod 2N.  When -I is
    not in G, <G, -I> is G x <-I>: its two-quotient has one more
    coordinate than G's, and -I lies outside its squares subgroup (as it
    lies outside G's).
    """
    # max_modulus is not read: perfbench/worker.py still passes it, and it
    # goes with the benchmark's next revision (ROADMAP item 1).
    _require_level(level)
    summary = engine.quotient_summary_crt(family, level)
    minus_in_gamma = summary.minus_one_in_group
    dim2 = summary.dim2 + (not minus_in_gamma)
    if summary.minus_one_in_squares:
        count = 1
        branch = "-1 in squares subgroup"
    else:
        # -I has a nonzero label here, so dim2 >= 1
        count = 1 + count_codim1_avoiding(2, dim2)
        branch = ("-1 outside squares subgroup" if minus_in_gamma
                  else "-1 adjoined, outside squares subgroup")
    return LiftCountReport(
        family, level, count, "engine", branch,
        dim2=dim2,
        minus_one_in_group=minus_in_gamma,
        minus_one_in_squares=summary.minus_one_in_squares,
    )


def count_codim1_avoiding(p: int, d: int) -> int:
    """Number of codimension-1 subspaces of F_p^d avoiding a fixed v != 0.

    The answer p^(d-1) does not depend on v; `verify` checks it against
    an enumeration of hyperplanes.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    # an odd prime factors as p^1
    if p != 2 and (p < 2 or factorize(p).odd_factors != ((p, 1),)):
        raise ValueError(f"p must be prime, got {p}")
    return p ** (d - 1)


def _all_lifts_congruence(family: str, level: int) -> bool:
    """Whether the closed-form congruence count covers every lift.

    The number of lifts is 1 when the projective group has elliptic
    elements of order 2 (e2 > 0), since every lift must then contain -I;
    otherwise it is 1 + 2^r with r the free rank from the index, e2 and
    e3 of the cached coset action.
    """
    _require_level(level)
    e2, e3 = elliptic_counts(coset_action(family, level))
    if e2 > 0:
        total = 1
    else:
        total = 1 + 2 ** free_rank(index_formula(family, level), e2, e3)
    return count_congruence_lifts_formula(family, level).count == total


def all_lifts_congruence_gamma0(level: int) -> bool:
    """Whether every lift of the degree-0 projective group is congruence.

    Derived, not hand-listed: true exactly when the closed-form count
    equals the number of lifts read off the coset action.  That holds
    when s <= 1 and every odd prime is 1 mod 4 (then e2 > 0 and the full
    preimage is the only lift), and at N in {3, 4, 7, 8}.  At N = 7 the
    index is 8, e2 = 0 and e3 = 2, so r = 1 and there are 3 lifts: the
    full preimage and the kernels of (d/7) and of (d/7) times the sign
    character of SL2(Z/2), which contain Gamma1(7) and Gamma(14).
    """
    return _all_lifts_congruence("gamma0", level)


def all_lifts_congruence_gamma1(level: int) -> bool:
    """Whether every lift of the degree-1 projective group is congruence.

    Derived like the degree-0 predicate from the closed-form count and
    the coset action; true exactly for N <= 4.
    """
    return _all_lifts_congruence("gamma1", level)
