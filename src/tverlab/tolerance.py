"""Partition tolerance: how many removals an r-partition's common point survives.

The *tolerance* of a partition A_1..A_r of a point set X is the largest t
such that the hulls of the depleted blocks still share a common point after
removing ANY set Y of at most t points.  ``conv(emptyset) = emptyset``, so a
removal that swallows a whole block always breaks the partition; hence the
tolerance is always at most (smallest block size) - 1, and a partition whose
base intersection is already empty has tolerance -1.

``set_tolerance`` maximizes over all partitions of the index set into r
nonempty unordered blocks (block labels carry no meaning), skipping those
that provably cannot beat the best so far.  Its branch and bound starts one
below the alternating partition's tolerance, so it finds the
lexicographically first maximum even where that ties the alternating one;
the value-only queries (:func:`set_tolerance_value`, which ``t-line`` and
``n-line`` run, and the sandwich check) start at that tolerance and look
only for a partition that beats it.  Both searches are exact:
removal sets are enumerated by increasing size, lexicographically within a
size, and the first breaking set is reported, so reports are reproducible;
breaking sets are upward closed (hulls only shrink when more points are
removed).

On an order-type homogeneous set the run rule of :mod:`tverlab.labels`
decides intersection.  With d >= 2 its order is the index order, enabled
only after an explicit homogeneity test on at least d+1 points: fewer are
homogeneous vacuously and may even repeat a point.  A line of distinct
values is homogeneous in value order; one with a repeated value is
homogeneous in no order and keeps the removal enumeration.  The pair bound
(:func:`~tverlab.labels.pair_bound` with d+1 runs) caps every partition
(thinning a block to floor(d/2) points breaks, whence t <= floor(n/r) -
floor(d/2)), and is exact where pairs decide: r = 2 under the rule, any r on
a line (by Helly in R^1, pairwise meeting intervals share a point), and r =
1, whose one block keeps a common point until emptied, in every dimension
and with no LP; there the breaking set is read off the same DP, in one
forward and one backward pass, and only for a report that prints one:
:func:`set_tolerance_value` and the sandwich check name none.
Elsewhere the pair bound caps the removal scan that finds the tolerance: it
runs to one size past the bound, so it names the breaking set, and one exact
test on the integer lift decides each removal it tests.

The removal scan prints no LP's certificate.  The integer screen,
:func:`~tverlab.feasibility.screen`, decides most LPs on the set's integer
lift both ways: it confirms common points, and it proves infeasible the
breaking sets on which every scan ends, so the canonical simplex seldom
runs.  Either names the support of a common point: each block's positions
of positive weight, the ``support`` of the screen's
:class:`~tverlab.feasibility.Support` or of the simplex's witness.  A
removal that misses a support already found for the same partition keeps
that point, so it is not tested at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .errors import InputError, InternalError, ResourceGuardError
from .feasibility import hulls_common_point, intervals_common_point, screen
from .kernel import PointSet
from .labels import (Partition, Target, alternating_partition, iter_partitions,
                     pair_bound, pair_breaking_set, split)
from .ordertype import is_order_homogeneous

#: Exhaustive partition enumeration guard (desk scale).
PARTITION_GUARD = 12


@dataclass(frozen=True)
class ToleranceReport:
    """Tolerance value with the minimal breaking removal set.

    ``value`` is -1 when even the full partition has no common point.  When
    ``exhausted`` is False the search was cut by a budget and ``value`` is a
    verified lower bound (every removal of that size still keeps a common
    point); otherwise ``breaking_set`` is the lexicographically first removal
    of size ``value + 1`` that breaks the partition.
    """

    value: int
    breaking_set: Optional[Tuple[int, ...]]
    exhausted: bool


# ---------------------------------------------------------------------------
# feasibility of depleted blocks


def _run_order(X: PointSet, r: int) -> Optional[Tuple[int, ...]]:
    """Position of each point in an order in which X is order-type
    homogeneous, so the run rule decides hull intersections; None when there
    is none, or with r < 2 off a line (one block needs no rule); a line is
    ranked on its lift, whose positive scale keeps order and equality; off
    it, the positivity test of :func:`is_order_homogeneous` decides."""
    n = len(X)
    if X.dim == 1:
        values = [v for v, in X.lifted]
        ranked = sorted(values)
        return tuple(map(ranked.index, values)) if len(set(values)) == n else None
    if r < 2:
        return None
    result = is_order_homogeneous(X)
    return tuple(range(n)) if result.homogeneous and not result.trivial else None


def _depleted_feasible(labels, r, X: PointSet) -> Optional[Set[int]]:
    """The support of a common point of the hulls of the r blocks of a label
    string whose 0s mark removed points, as 1-based indices, or None when
    they have none, decided by one exact test on the integer lift: the
    interval test on a line (every survivor is the support: it names no
    witness), else the integer screen, or the simplex where it is
    unconfirmed; either names each block's points of positive weight."""
    if X.dim == 1:
        values = split([v for v, in X.lifted], labels, r)
        survivors = {i for i, label in enumerate(labels, 1) if label}
        return None if intervals_common_point(values) is None else survivors
    blocks = split(X.lifted, labels, r)
    verdict = screen(blocks, X.dim)
    if verdict is None:
        verdict = hulls_common_point(blocks, X.dim)
    if not verdict.feasible:
        return None
    indices = split(range(1, len(X) + 1), labels, r)
    return {block[i] for block, positions in zip(indices, verdict.support) for i in positions}


# ---------------------------------------------------------------------------
# per-partition tolerance


def partition_tolerance(X: PointSet, partition: Partition,
                        budget: Optional[int] = None) -> ToleranceReport:
    """Exact tolerance of one partition by increasing-size removal search."""
    if partition.n != len(X):
        raise InputError("partition size does not match point set")
    cap = len(X) if budget is None else min(budget, len(X))
    order = _run_order(X, partition.r)
    found = _tolerance(partition.labels, partition.r, X, -2, cap, order)
    return _report(partition, X, order, found, cap)


def _report(partition, X, order, found, cap) -> ToleranceReport:
    """The report of a partition whose capped tolerance and first breaking
    set are ``found``; where pairs decide, the one pair DP walk names it."""
    value, breaking = found
    if value >= cap:
        return ToleranceReport(value=cap, breaking_set=None, exhausted=False)
    if breaking is None:
        breaking = pair_breaking_set(partition.labels, partition.r, value + 1, X.dim + 1, order)
        if breaking is None:
            raise InternalError(f"no removal of size {value + 1} breaks a partition "
                                f"of tolerance {value}")
    return ToleranceReport(value=value, breaking_set=breaking, exhausted=True)


def _tolerance(labels, r, X, floor, cap, order):
    """``(max(floor, min(t, cap)), breaking)`` for the exact tolerance t of
    the r-partition ``labels``, testing no removal size at or below
    ``floor`` or above ``cap``.  Where pairs decide, t is the pair bound and
    ``breaking`` None (see :func:`_report`).  Elsewhere, where floor < t <
    cap, it is the first breaking set of the removal scan, which runs by
    increasing size, lexicographically within a size, up to one past the
    pair bound.  A removal that misses the support of a common point found
    before keeps that point and is not tested (most recent support first)."""
    bound = pair_bound(labels, r, X.dim + 1, order)
    top = min(bound, cap)
    # pairs decide: one block, r = 2 under the run rule, or any r on a line
    if top <= floor or r == 1 or order is not None and (r == 2 or X.dim == 1):
        return max(top, floor), None
    supports: List[Set[int]] = []
    for size in range(max(floor, -1) + 1, min(bound + 1, cap) + 1):
        for combo in itertools.combinations(range(1, len(X) + 1), size):
            removed = set(combo)
            if any(removed.isdisjoint(support) for support in reversed(supports)):
                continue
            masked = [0 if i in removed else label for i, label in enumerate(labels, 1)]
            support = _depleted_feasible(masked, r, X)
            if support is None:
                return size - 1, combo
            supports.append(support)
    return top, None


def set_tolerance(X: PointSet, r: int, budget: Optional[int] = None,
                  guard: int = PARTITION_GUARD) -> Tuple[ToleranceReport, Partition]:
    """Best tolerance over all r-partitions of X, with an argmax partition.

    Exhaustive over unordered partitions; ties resolve to the partition with
    the lexicographically least canonical label string.  ``guard`` bounds n
    (the enumeration is exponential); ``budget`` caps the per-partition
    removal search, in which case the result is a verified lower bound.
    """
    partition, order, cap, found = _argmax(X, r, budget, guard, ties=True)
    return _report(partition, X, order, found, cap), partition


def set_tolerance_value(X: PointSet, r: int, guard: int = PARTITION_GUARD) -> int:
    """The value :func:`set_tolerance` reports, found by a search only for a
    partition that beats the alternating one, and with no breaking set named
    where pairs decide."""
    _, _, _, (value, _) = _argmax(X, r, None, guard, ties=False)
    return value


def _argmax(X, r, budget, guard, ties):
    """``(partition, order, cap, found)``: a partition of the best capped
    tolerance, the run order and the cap it was searched under, and its
    ``(value, breaking)`` as :func:`_tolerance` gives them, for
    :func:`_report` to complete.

    The alternating partition's tolerance seeds the branch and bound.  With
    ``ties`` the target starts one below it, so the partition is the
    lexicographically first maximum, which may tie the seed.  Without, it
    starts at the seed, so the enumeration yields only partitions that could
    beat it, and the partition is the seed's where none does: the value is
    the same, from fewer partitions."""
    n = len(X)
    if n < r:
        raise InputError(f"set tolerance needs |X| >= r, got {n} < {r}")
    if n > guard:
        raise ResourceGuardError(f"partition enumeration needs n <= {guard}, got n={n}")
    order = _run_order(X, r)
    cap = n if budget is None else min(budget, n)
    alternating = alternating_partition(n, r)
    seed = _tolerance(alternating.labels, r, X, -2, cap, order)
    # a reversed run order has the same runs
    monotone = order in (tuple(range(n)), tuple(range(n - 1, -1, -1)))
    target = Target(seed[0] - ties, X.dim + 1 if monotone else None)

    # one pass: a partition is recorded only when it beats every earlier one,
    # so with ties the last recorded is the lexicographically first maximum;
    # without, the seed stands until one beats it
    found = None if ties else (alternating, seed[1])
    for partition in iter_partitions(n, r, target):
        # the seed is the alternating partition's: where it beats target.best, a
        # scan from size 0 meets the first breaking set one from best + 1 would
        value, breaking = (seed if partition.labels == alternating.labels
                           else _tolerance(partition.labels, r, X, target.best, cap, order))
        if value > target.best:
            target.best, found = value, (partition, breaking)
            if value >= cap:
                break
    if found is None:
        raise InternalError("no partition achieves the alternating partition's tolerance")
    partition, breaking = found
    return partition, order, cap, (target.best, breaking)


# ---------------------------------------------------------------------------
# bound formulas


def alternating_bound(d: int, r: int) -> int:
    """Upper bound on the alternating threshold c(d,r):
    ``(d+1) (floor(d/2)+1) (r-1) + 1`` points always give the alternating
    partition of an order-type homogeneous set a common point."""
    if d < 1 or r < 1:
        raise InputError("need d >= 1 and r >= 1")
    return (d + 1) * (d // 2 + 1) * (r - 1) + 1


def alternating_bound_even(d: int, r: int) -> int:
    """Sharper even-dimension bound on c(d,r).

    ``min_i d(d+1)/2 (r-1) + i(d+1) + s_i`` over i in 0..r-1, where s_i is
    the smallest positive integer congruent to ``d(d+1)/2 - i d`` mod r.
    """
    if d < 1 or d % 2:
        raise InputError(f"even-dimension bound needs even d, got {d}")
    if r < 1:
        raise InputError("need r >= 1")
    base = d * (d + 1) // 2
    return min(base * (r - 1) + i * (d + 1) + ((base - i * d) % r or r) for i in range(r))


def tolerance_upper_bound(n: int, d: int, r: int) -> int:
    """``floor(n/r) - floor(d/2)``: no n-point set in R^d has a more tolerant
    r-partition.  May be negative (no tolerant partition can exist)."""
    if n < 1 or d < 1 or r < 1:
        raise InputError("need positive n, d, r")
    return n // r - d // 2


@dataclass(frozen=True)
class SandwichReport:
    """The tolerance of a homogeneous set and both sides of its sandwich."""

    t_value: int
    lower_bound: int
    upper_bound: int


def check_tolerance_sandwich(X: PointSet, r: int) -> SandwichReport:
    """The three terms of ``floor(n/r) - c_bound <= t(X,r) <= floor(n/r) -
    floor(d/2)`` on an order-type homogeneous set, with c replaced by
    :func:`alternating_bound` (a valid weakening of the lower bound); the
    caller checks the two inequalities.  t(X,r) is
    :func:`set_tolerance_value`'s, which tests X again for its run order;
    neither test names a witness."""
    n = len(X)
    if n < r:
        raise InputError("sandwich check needs |X| >= r")
    if not is_order_homogeneous(X).homogeneous:
        raise InputError("sandwich check requires an order-type homogeneous set")
    value = set_tolerance_value(X, r)
    lower = n // r - alternating_bound(X.dim, r)
    upper = tolerance_upper_bound(n, X.dim, r)
    return SandwichReport(t_value=value, lower_bound=lower, upper_bound=upper)
