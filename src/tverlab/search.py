"""Certified counterexample search for the alternating threshold c(d,r).

c(d,r) is the least n such that the alternating partition of EVERY
order-type homogeneous n-point set in R^d has a common point.  A single
moment-curve configuration whose alternating partition is infeasible is
therefore a certified witness that c(d,r) exceeds its size; the search below
streams candidate parameter lists, decides each one with the exact
feasibility engine, and returns the infeasibility certificate together with
the configuration.

Two facts shape the design:

* ``none-found`` is only evidence, never proof, for d >= 2: whether the
  hulls meet depends on the parameter values, not just the order type, so
  sampling cannot establish universal statements.  Dimension one is the
  exception: there the alternating partition of n increasing values has a
  common point iff n >= 2r - 1 regardless of the values, so d=1 results are
  computed directly and labeled exact.
* the one known nontrivial counterexample shape is "a few tight clusters
  plus a spread tail"; the one candidate stream, ``clustered``, generalizes
  it, perturbing repeated parameters a, a, a to a, a+eps, a+2eps.

The stream is fully deterministic given (seed, cluster_count, spread, n, r),
and candidates are evaluated in stream order, so identical invocations
yield identical results.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InputError, InternalError, ResourceGuardError
from .feasibility import (
    FeasibilityOutcome,
    confirm_feasible,
    hulls_common_point,
    verify_outcome,
)
from .kernel import PointSet, Rational, to_rational
from .ordertype import MomentSpec, is_order_homogeneous, moment_points
from .tolerance import alternating_partition, block_points, set_tolerance

#: Known 16-parameter configuration whose alternating 4-partition in R^3 has
#: no common point once the repeats are split; witnesses c(3,4) >= 17.
SIXTEEN_POINT_PARAMS = (-4, -3, -2, -2, -2, -1, -1, -1, 0, 1, 2, 6, 6, 7, 8, 9)

#: Starting perturbation step for splitting repeated parameters.
DEFAULT_EPSILON = Rational(1, 1000)

#: Guard for exhaustive d=1 tolerance tables.
T_LINE_GUARD = 14


@dataclass(frozen=True)
class SearchStrategy:
    """Deterministic candidate stream specification.

    ``clustered``, the one kind, draws a few tight clusters plus a spread
    tail from ``random.Random(seed)``: ``cluster_count`` clusters (r - 1 by
    default, at most n), with centers and tail values drawn from integers in
    ``[-span, span]``, span = max(2, spread) * n.  Repeats in a cluster are
    split by :data:`DEFAULT_EPSILON`.
    """

    kind: str = "clustered"
    seed: int = 0
    cluster_count: Optional[int] = None
    spread: int = 4

    def __post_init__(self):
        if self.kind != "clustered":
            raise InputError(f"unknown strategy kind: {self.kind!r}")
        if self.cluster_count is not None and self.cluster_count < 0:
            raise InputError(f"cluster count must be >= 0, got {self.cluster_count}")


def split_repeats(values: Sequence, epsilon) -> Tuple[Rational, ...]:
    """Replace each run of equal values a, a, ... by a, a+eps, a+2eps."""
    eps = to_rational(epsilon)
    vals = [to_rational(v) for v in values]
    out = []
    run_start = 0
    for i, v in enumerate(vals):
        if i and v != vals[i - 1]:
            run_start = i
        out.append(v + (i - run_start) * eps)
    return tuple(out)


def alpha_candidates(strategy: SearchStrategy, n: int, r: int) -> Iterator[Tuple[Rational, ...]]:
    """Infinite stream of strictly increasing parameter tuples of length n."""
    rng = random.Random(strategy.seed)
    clusters = strategy.cluster_count if strategy.cluster_count is not None else max(1, r - 1)
    span = max(2 * n, strategy.spread * n)
    while True:
        k = min(clusters, n)
        # sizes: clusters get 2..d+1-ish points, the tail takes the rest
        sizes = []
        remaining = n
        for i in range(k):
            hi = max(1, min(remaining - (k - 1 - i), n // k + 2))
            s = rng.randint(1, hi)
            sizes.append(s)
            remaining -= s
        tail = remaining
        centers = sorted(rng.sample(range(-span, span + 1), k + tail))
        values = []
        for c, s in zip(centers[:k], sizes):
            values.extend([c] * s)
        values.extend(centers[k:])
        values.sort()
        yield split_repeats(values, DEFAULT_EPSILON)


@dataclass(frozen=True)
class Counterexample:
    """A certified configuration whose alternating partition has no common point."""

    dim: int
    r: int
    alphas: Tuple[Rational, ...]
    outcome: FeasibilityOutcome
    blocks: list  # that partition's points, on which outcome replays

    @property
    def n(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class NoneFound:
    """Search exhausted its budget; exact=True only at d=1 (direct computation)."""

    tried: int
    exact: bool


def alternating_blocks(X: PointSet, r: int):
    """Points of the alternating r-partition of X; blocks past n stay empty."""
    n = len(X)
    blocks = block_points(X, alternating_partition(n, min(n, r)).blocks())
    return blocks + [[] for _ in range(r - n)]


def moment_blocks(dim: int, r: int, alphas: Sequence):
    """Points of the alternating r-partition of the moment configuration."""
    return alternating_blocks(moment_points(MomentSpec(dim, alphas)), r)


def _certified(dim: int, r: int, alphas) -> Optional[Counterexample]:
    """The certified counterexample on the moment points of ``alphas``, or
    None when their alternating r-partition has a common point.  Nearly every
    candidate is feasible, and an exactly confirmed one prints nothing; the
    canonical simplex decides and certifies the rest."""
    X = moment_points(MomentSpec(dim, alphas))
    blocks = alternating_blocks(X, r)
    if confirm_feasible(blocks, dim):
        return None
    outcome = hulls_common_point(blocks, dim)
    if outcome.feasible:
        return None
    homog = is_order_homogeneous(X)
    if not (homog.homogeneous and (homog.sign == 1 or homog.trivial)):
        raise InternalError("candidate configuration is not order-type homogeneous")
    if not verify_outcome(blocks, outcome, dim):
        raise InternalError("counterexample certificate failed to replay")
    return Counterexample(dim=dim, r=r, alphas=tuple(alphas), outcome=outcome, blocks=blocks)


def find_counterexample(
    d: int,
    r: int,
    n: int,
    strategy: Optional[SearchStrategy] = None,
    budget: int = 1000,
):
    """Search for an n-point moment configuration breaking the alternating
    partition; returns a :class:`Counterexample` or :class:`NoneFound`.

    Where the parameter values do not matter, the parameters 1..n are the
    one candidate and decide exactly: with n < r the alternating blocks
    cannot all be inhabited, so any configuration is a counterexample
    (conv(emptyset) = emptyset), and at d=1 feasibility of the alternating
    partition depends only on n.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    if strategy is None:
        strategy = SearchStrategy()
    exact = n < r or d == 1
    candidates = ([tuple(Rational(i) for i in range(1, n + 1))] if exact
                  else itertools.islice(alpha_candidates(strategy, n, r), max(budget, 0)))
    tried = 0
    for alphas in candidates:
        tried += 1
        if len(alphas) != n:
            raise InternalError(f"{strategy.kind} stream gave {len(alphas)} parameters for n={n}")
        found = _certified(d, r, alphas)
        if found is not None:
            return found
    if n < r:
        raise InternalError("an empty alternating block must be infeasible")
    return NoneFound(tried=tried, exact=exact)


@dataclass(frozen=True)
class ScanResult:
    """Per-n search results; ``lower_bound`` is (max found n) + 1 <= c(d,r)."""

    dim: int
    r: int
    results: Dict[int, object]  # n -> Counterexample | NoneFound

    @property
    def lower_bound(self) -> Optional[int]:
        return c_lower_bound(n for n, res in self.results.items()
                             if isinstance(res, Counterexample))


def c_lower_bound(found: Iterable[int]) -> Optional[int]:
    """(largest n with a counterexample) + 1 <= c(d,r); None without one."""
    return max((n + 1 for n in found), default=None)


def scan_c_lower(
    d: int,
    r: int,
    n_range: Sequence[int],
    strategy: Optional[SearchStrategy] = None,
    budget: int = 1000,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> ScanResult:
    """Run :func:`find_counterexample` for each n, independently.

    ``on_result`` is invoked after each n so callers can append checkpoint
    records.  No monotonicity in n is assumed: each n is reported on its own.
    """
    results: Dict[int, object] = {}
    for n in n_range:
        outcome = find_counterexample(d, r, n, strategy=strategy, budget=budget)
        results[n] = outcome
        if on_result is not None:
            on_result(n, outcome)
    return ScanResult(dim=d, r=r, results=results)


# ---------------------------------------------------------------------------
# the sixteen-point witness for c(3,4) > 16


def sixteen_point_alphas(epsilon=DEFAULT_EPSILON) -> Tuple[Rational, ...]:
    """The 16 moment-curve parameters with repeats split by ``epsilon``."""
    return split_repeats(SIXTEEN_POINT_PARAMS, epsilon)


def verified_sixteen_point_example(epsilon=DEFAULT_EPSILON) -> Tuple[Counterexample, Rational]:
    """Perturb the 16-point configuration until infeasibility verifies.

    Starts at ``epsilon`` and halves, up to 40 times, until the alternating
    4-partition in R^3 is certified infeasible; returns the counterexample
    and the working epsilon.  Emptiness is an open condition, so some small
    epsilon works; failing every halving would signal a broken engine.
    """
    eps = to_rational(epsilon)
    for _ in range(40):
        found = _certified(3, 4, sixteen_point_alphas(eps))
        if found is not None:
            return found, eps
        eps = eps / 2
    raise InternalError(
        "sixteen-point configuration stayed feasible down to epsilon "
        f"{eps}; feasibility engine is suspect"
    )


# ---------------------------------------------------------------------------
# exact d = 1 tables


def t_line(n: int, r: int) -> int:
    """Exact best tolerance of n points on a line, t(n, 1, r).

    All generic n-point line sets are order-isomorphic to 1..n, so the
    exhaustive maximum on 1..n is the universal value, for n <= T_LINE_GUARD.
    """
    if n < r:
        raise InputError(f"need n >= r, got n={n}, r={r}")
    X = PointSet(1, [(i,) for i in range(1, n + 1)])
    report, _ = set_tolerance(X, r, guard=T_LINE_GUARD)
    return report.value


def n_line_formula(t: int, r: int) -> int:
    """Tight d=1 count ``r (t + 2) - 1``, the exact oracle for n_line."""
    return r * (t + 2) - 1


def n_line(t: int, r: int) -> int:
    """Least n with ``t_line(n, r) >= t``; always equals r(t+2)-1.

    The closed form is re-derived from the exhaustive table on every call;
    a mismatch would mean the tolerance engine is broken.
    """
    if t < 0 or r < 1:
        raise InputError("need t >= 0 and r >= 1")
    for n in range(r, T_LINE_GUARD + 1):
        if t_line(n, r) >= t:
            if n != n_line_formula(t, r):
                raise InternalError(
                    f"n_line({t},{r}) computed {n}, closed form gives "
                    f"{n_line_formula(t, r)}"
                )
            return n
    raise ResourceGuardError(
        f"n_line({t},{r}) exceeds the exhaustive guard n <= {T_LINE_GUARD}"
    )


def check_growth_inequality(d: int, r: int, t: int, n: int) -> bool:
    """Finite lower inequality ``n >= r t + r (d - 2) / 2``, checked exactly."""
    return Rational(n) >= Rational(r) * t + Rational(r * (d - 2), 2)
