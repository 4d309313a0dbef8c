"""Partition tolerance: how many removals an r-partition's common point survives.

The *tolerance* of a partition A_1..A_r of a point set X is the largest t
such that the hulls of the depleted blocks still share a common point after
removing ANY set Y of at most t points.  ``conv(emptyset) = emptyset``, so a
removal that swallows a whole block always breaks the partition; hence the
tolerance is always at most (smallest block size) - 1, and a partition whose
base intersection is already empty has tolerance -1.

``set_tolerance`` maximizes over all partitions of the index set into r
nonempty unordered blocks (block labels carry no meaning), skipping those
that provably cannot beat the best so far.  Both searches are exact:

* removal sets are enumerated by increasing size, lexicographically within a
  size, and the first breaking set is reported, so reports are reproducible;
* breaking sets are upward closed (hulls only shrink when more points are
  removed), which justifies testing a single size when only a threshold
  ("tolerance >= t?") is needed;
* on order-type homogeneous sets (all ordered (d+1)-subsets have one nonzero
  orientation sign) the *run rule* decides intersection: conv(A) meets
  conv(B) iff the A/B label string of A u B, read in that order, has at
  least d+2 runs.  Proof sketch: a basic solution of the intersection LP has
  support <= d+2, and in general position a meeting pair needs exactly d+2
  points, whose unique Radon partition alternates along the order because
  all orientations share a sign; conversely one point per run gives that
  partition.  With d >= 2 the order is the index order, enabled only after
  an explicit homogeneity test on at least d+1 points: fewer are homogeneous
  vacuously and may even repeat a point.  A line of distinct values is
  homogeneous in value order.

One pair bound caps every partition: the fewest deletions that empty a block
or leave some pair's label string with at most d+1 runs, minus one (thinning
a block to floor(d/2) points is one, whence t <= floor(n/r) - floor(d/2)).
It is exact where pairs decide: r = 2 under the rule, any r on a line (by
Helly in R^1, pairwise meeting intervals share a point), and r = 1, whose one
block keeps a common point until emptied, in every dimension and with no LP;
there the breaking set is read off the same DP index by index, and no removal
set is tested.  For r >= 3 with d >= 2 the rule is only a necessary pairwise
filter, the LP decides what passes, and the removal scan that finds the
tolerance runs to one size past the pair bound, so it names the breaking set.
A line with a repeated value is homogeneous in no order and keeps the removal
enumeration.

The removal scan prints no LP's certificate.  The integer screen of
:func:`~tverlab.feasibility.screened_support` confirms most common points on
the set's integer lift, and a removal that misses the support of a common
point already found for the same partition keeps that point, so it is not
tested at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .errors import InputError, InternalError, ResourceGuardError
from .feasibility import hulls_common_point, intervals_common_point, screened_support
from .kernel import PointSet
from .ordertype import is_order_homogeneous

#: Exhaustive partition enumeration guard (desk scale).
PARTITION_GUARD = 12


@dataclass(frozen=True)
class Partition:
    """Assignment of 1-based point indices to r labeled nonempty blocks."""

    n: int
    r: int
    labels: Tuple[int, ...]  # labels[i] is the block (1..r) of index i+1

    def __init__(self, n, r, labels):
        labels = tuple(labels)
        if len(labels) != n:
            raise InputError(f"need {n} labels, got {len(labels)}")
        if n < r or r < 1:
            raise InputError(f"need n >= r >= 1, got n={n}, r={r}")
        if set(labels) != set(range(1, r + 1)):
            raise InputError("blocks must be nonempty and labeled 1..r")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_blocks(cls, n: int, blocks: Sequence[Sequence[int]]) -> "Partition":
        labels = [0] * n
        for k, block in enumerate(blocks, start=1):
            for i in block:
                if not 1 <= i <= n:
                    raise InputError(f"index {i} out of range 1..{n}")
                if labels[i - 1]:
                    raise InputError(f"index {i} assigned to two blocks")
                labels[i - 1] = k
        if any(v == 0 for v in labels):
            raise InputError("blocks do not cover all indices")
        return cls(n, len(blocks), labels)

    def blocks(self) -> Tuple[Tuple[int, ...], ...]:
        out: List[List[int]] = [[] for _ in range(self.r)]
        for i, lab in enumerate(self.labels, start=1):
            out[lab - 1].append(i)
        return tuple(tuple(b) for b in out)


def alternating_partition(n: int, r: int) -> Partition:
    """Blocks are residue classes of the 1-based index modulo r."""
    if n < r or r < 1:
        raise InputError(f"alternating partition needs n >= r >= 1, got n={n}, r={r}")
    return Partition(n, r, [((j - 1) % r) + 1 for j in range(1, n + 1)])


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


def block_points(X: PointSet, blocks) -> List[List[tuple]]:
    """The points of each block of 1-based indices, in block order."""
    return [[X.points[i - 1] for i in block] for block in blocks]


def _run_order(X: PointSet, r: int, homogeneity=None) -> Optional[Tuple[int, ...]]:
    """Position of each point in an order in which X is order-type
    homogeneous, so the run rule decides hull intersections; None when there
    is none, or with r < 2 off a line (one block needs no rule; see
    :func:`_pair_bound`).  ``homogeneity`` is X's
    :func:`is_order_homogeneous` result when the caller already has it."""
    n = len(X)
    if X.dim == 1:
        values = [p[0] for p in X.points]
        if len(set(values)) < n:
            return None
        ranked = sorted(values)
        return tuple(ranked.index(v) for v in values)
    if r < 2:
        return None
    result = is_order_homogeneous(X) if homogeneity is None else homogeneity
    return tuple(range(n)) if result.homogeneous and not result.trivial else None


def _depleted_feasible(block_indices, X: PointSet, removed, order) -> Optional[Set[int]]:
    """The support of a common point of the blocks' hulls once ``removed``
    is taken out, as 1-based indices, or None when they have none.  On a line
    it is every survivor, as the interval test names no witness; otherwise
    the integer screen confirms most common points on ``X.lifted``, and the
    canonical simplex decides the rest."""
    survivors = [[i for i in block if i not in removed] for block in block_indices]
    if _pair_bound(survivors, X, order)[0] < 0:
        return None
    flat = [i for block in survivors for i in block]
    if X.dim == 1:
        values = [[X.points[i - 1][0] for i in block] for block in survivors]
        return None if intervals_common_point(values) is None else set(flat)
    columns = screened_support([[X.lifted[i - 1] for i in block] for block in survivors], X.dim)
    if columns is None:
        outcome = hulls_common_point(block_points(X, survivors), X.dim)
        if not outcome.feasible:
            return None
        coefficients = itertools.chain(*outcome.coefficients)
        columns = [j for j, c in enumerate(coefficients) if c]
    return {flat[j] for j in columns}


def _run_step(same, other):
    """The run DP on reading one letter of a 0/1 string: ``same[j]`` and
    ``other[j]`` are the longest subsequences of at most j runs that end in
    that letter and in the other one; returns ``same`` after the letter."""
    # a list and a conditional, not a generator and max(): about twice as fast
    return (0, *[(s if s > o else o) + 1 for s, o in zip(same[1:], other)])


def _fewest_deletions(string, runs: int) -> int:
    """Fewest letters to delete from a 0/1 string to leave at most ``runs`` runs."""
    kept = [(0,) * (runs + 1)] * 2
    for x in string:
        kept[x] = _run_step(kept[x], kept[1 - x])
    return len(string) - max(kept[0][runs], kept[1][runs])


def _pair_bound(block_indices, X: PointSet, order) -> Tuple[int, bool]:
    """``(bound, exact)``: one less than the fewest removals that empty a
    block or, under a run order, leave some pair's label string with at most
    d+1 runs; both break, so the tolerance is at most ``bound``.  ``exact``
    says pairs decide a common point, so the tolerance is ``bound``: with one
    block, which has one while nonempty; r = 2 under the run rule; any r
    under it on a line."""
    r = len(block_indices)
    breaking = min(map(len, block_indices))  # empty a block
    if order is not None:
        string = [-1] * len(X)  # -1 where no block holds the index
        for label, block in enumerate(block_indices):
            for i in block:
                string[order[i - 1]] = label
        for a, b in itertools.combinations(range(r), 2):
            pair = [x == b for x in string if x == a or x == b]
            breaking = min(breaking, _fewest_deletions(pair, X.dim + 1))
    return breaking - 1, r == 1 or order is not None and (r == 2 or X.dim == 1)


def _pair_breaking_set(block_indices, X, size, order):
    """The lexicographically first removal of ``size`` indices that empties
    a block or leaves some pair with at most d+1 runs, where no smaller one
    does; None when none does.  Index by index, it takes the least x after
    the last chosen one that leaves the pair bound of what survives x and
    the chosen ones below the removals left.  Then some such removal holds x
    and the chosen ones, and none holding an earlier x can exist, since it
    would come before the first one."""
    n, chosen = len(X), []
    while len(chosen) < size:
        for x in range(chosen[-1] + 1 if chosen else 1, n + 1):
            removed = {*chosen, x}
            survivors = [[i for i in block if i not in removed] for block in block_indices]
            if _pair_bound(survivors, X, order)[0] < size - len(chosen) - 1:
                chosen.append(x)
                break
        else:
            return None
    return tuple(chosen)


# ---------------------------------------------------------------------------
# per-partition tolerance


def partition_tolerance(
    X: PointSet, partition: Partition, budget: Optional[int] = None
) -> ToleranceReport:
    """Exact tolerance of one partition by increasing-size removal search."""
    if partition.n != len(X):
        raise InputError("partition size does not match point set")
    cap = len(X) if budget is None else min(budget, len(X))
    value, breaking = _tolerance(partition.blocks(), X, -2, cap, _run_order(X, partition.r))
    return _report(value, breaking, cap)


def _report(value, breaking, cap) -> ToleranceReport:
    """The report of a partition whose tolerance, capped at ``cap``, is
    ``value`` and whose first breaking set is ``breaking``."""
    if value >= cap:
        return ToleranceReport(value=cap, breaking_set=None, exhausted=False)
    if breaking is None:
        raise InternalError(f"no removal of size {value + 1} breaks a partition "
                            f"of tolerance {value}")
    return ToleranceReport(value=value, breaking_set=breaking, exhausted=True)


def _tolerance(block_indices, X, floor, cap, order):
    """``(max(floor, min(t, cap)), breaking)`` for the exact tolerance t:
    removal sizes at or below ``floor`` and above ``cap`` are never tested.
    Breaking sets are upward closed, so the first size that breaks is t + 1;
    where floor < t < cap, ``breaking`` is the lexicographically first
    breaking set of that size.  Where pairs decide it is read off the pair
    DP; elsewhere the removal scan runs by increasing size, lexicographically
    within a size, up to one past the pair bound, which some removal of that
    size breaks.  A common point stays one after removing points where its
    coefficients are 0, so a removal that misses the support of one found at
    any size before does not break and is not tested; the supports are tried
    most recent first."""
    bound, exact = _pair_bound(block_indices, X, order)
    top = min(bound, cap)
    if top <= floor:
        return floor, None
    if exact:
        return top, _pair_breaking_set(block_indices, X, top + 1, order) if top < cap else None
    supports: List[Set[int]] = []
    for size in range(max(floor, -1) + 1, min(bound + 1, cap) + 1):
        for combo in itertools.combinations(range(1, len(X) + 1), size):
            removed = set(combo)
            if any(removed.isdisjoint(support) for support in reversed(supports)):
                continue
            support = _depleted_feasible(block_indices, X, removed, order)
            if support is None:
                return size - 1, combo
            supports.append(support)
    return top, None


# ---------------------------------------------------------------------------
# partition enumeration (restricted growth strings, lexicographic)


@dataclass
class _Target:
    """The tolerance ``best`` that :func:`iter_partitions` must beat, raised
    by the caller as it goes; ``runs`` is d + 1 when the index order is a
    run order, else None."""

    best: int
    runs: Optional[int]


def iter_partitions(n: int, r: int, target: Optional[_Target] = None) -> Iterator[Partition]:
    """All partitions of 1..n into exactly r nonempty unordered blocks.

    Yields in lexicographic order of the canonical label string (blocks
    named by first appearance).  With a ``target``, a branch and bound for
    tolerance above b = ``target.best``, which needs b + 2 + floor(d/2)
    points in each block under a run order (see :func:`_pair_bound`) and b + 2
    deletions to bring each pair's label string down to ``runs`` runs: a
    prefix is cut when its remaining positions cannot."""
    target = target or _Target(best=-2, runs=None)
    runs = target.runs
    thin = (runs - 1) // 2 if runs else 0
    labels = [0] * n
    counts = [0] * r
    # kept[e][f][j]: longest subsequence of at most j runs of the e/f label
    # string that ends in e (see _run_step)
    kept = [[(0,) * ((runs or 0) + 1)] * r for _ in range(r)]

    def extend(i: int, used: int) -> Iterator[Partition]:
        best = target.best
        # no tolerance is below -1: to beat less, blocks need only be nonempty
        need = [(best + 2 + thin if best >= -1 else 1) - c for c in counts]
        if runs is not None:
            # all later f's extend the longest subsequence ending in e
            # without a new run, so f needs that many more to beat best
            for e, f in itertools.permutations(range(r), 2):
                need[f] = max(need[f], best + 2 - counts[e] - counts[f] + kept[e][f][runs])
        if sum(max(0, x) for x in need) > n - i:
            return
        if i == n:
            yield Partition(n, r, [lab + 1 for lab in labels])
            return
        for lab in range(min(used + 1, r)):
            labels[i] = lab
            counts[lab] += 1
            saved = kept[lab]
            if runs is not None:
                kept[lab] = [same if f == lab else _run_step(same, kept[f][lab])
                             for f, same in enumerate(saved)]
            yield from extend(i + 1, max(used, lab + 1))
            kept[lab] = saved
            counts[lab] -= 1

    yield from extend(0, 0)


def set_tolerance(
    X: PointSet,
    r: int,
    budget: Optional[int] = None,
    guard: int = PARTITION_GUARD,
) -> Tuple[ToleranceReport, Partition]:
    """Best tolerance over all r-partitions of X, with an argmax partition.

    Exhaustive over unordered partitions; ties resolve to the partition with
    the lexicographically least canonical label string.  ``guard`` bounds n
    (the enumeration is exponential); ``budget`` caps the per-partition
    removal search, in which case the result is a verified lower bound.
    """
    return _set_tolerance(X, r, budget, guard, None)


def _set_tolerance(X, r, budget, guard, homogeneity):
    n = len(X)
    if n < r:
        raise InputError(f"set tolerance needs |X| >= r, got {n} < {r}")
    if n > guard:
        raise ResourceGuardError(
            f"partition enumeration needs n <= {guard}, got n={n}"
        )
    order = _run_order(X, r, homogeneity)
    cap = n if budget is None else min(budget, n)
    alternating = alternating_partition(n, r)
    seed = _tolerance(alternating.blocks(), X, -2, cap, order)
    # a reversed run order has the same runs
    monotone = order in (tuple(range(n)), tuple(range(n - 1, -1, -1)))
    target = _Target(seed[0] - 1, X.dim + 1 if monotone else None)

    # one pass: a partition is recorded only when it beats every earlier one,
    # so the last recorded is the lexicographically first maximum
    found = None
    for partition in iter_partitions(n, r, target):
        # the seed is the alternating partition's: where it beats target.best, a
        # scan from size 0 meets the first breaking set one from best + 1 would
        value, breaking = (seed if partition.labels == alternating.labels
                           else _tolerance(partition.blocks(), X, target.best, cap, order))
        if value > target.best:
            target.best, found = value, (partition, breaking)
            if value >= cap:
                break
    if found is None:
        raise InternalError("no partition achieves the alternating partition's tolerance")
    partition, breaking = found
    return _report(target.best, breaking, cap), partition


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
    caller checks the two inequalities."""
    n = len(X)
    if n < r:
        raise InputError("sandwich check needs |X| >= r")
    result = is_order_homogeneous(X)
    if not result.homogeneous:
        raise InputError("sandwich check requires an order-type homogeneous set")
    report, _ = _set_tolerance(X, r, None, PARTITION_GUARD, result)
    lower = n // r - alternating_bound(X.dim, r)
    upper = tolerance_upper_bound(n, X.dim, r)
    return SandwichReport(t_value=report.value, lower_bound=lower, upper_bound=upper)
