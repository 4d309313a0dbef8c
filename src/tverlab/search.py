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
  computed directly and are exact.
* the one known nontrivial counterexample shape is "a few tight clusters
  plus a spread tail"; the one candidate stream, ``clustered``, generalizes
  it, perturbing repeated parameters a, a, a to a, a+eps, a+2eps.

The stream is fully deterministic given (seed, cluster_count, spread, n, r),
and candidates are evaluated in stream order, so identical invocations
yield identical results.

A candidate is an integer draw, sorted with its repeats, and reaches the
integer screen lifted straight to ints: the draw itself when no value
repeats, else every split value times the denominator of the perturbation.
There each alternating block's first point, the moment point of its least
parameter, is its key, eliminated from each chain row of the canonical
system by one row operation on integers, which leaves exact differences of
moment points from their block's key; each row and then each column is
scaled on integers before floats are formed, a float phase 1 starts with
every key basic in its block's convexity row, and a basis that reaches
zero is read exactly on the same rows
(:func:`~tverlab.feasibility.screen`).  Only the candidates that the screen
does not confirm feasible take their :func:`alpha_candidates` parameters
through the canonical simplex, which decides and certifies them.

Before the screen, a candidate is read on the supports of the search's
latest confirmations (:func:`_moment_reader`), the ``support`` of the
screen's :class:`~tverlab.feasibility.Support` or of the canonical witness:
each block's positions of positive weight, at most d + 1 parameters A_k per
block, at the same positions in each candidate.  On the moment curve
gamma(t) = (t, t^2, ..., t^d), a point x gives each polynomial of degree at
most d the functional ``c_0 + c_1 x_1 + ... + c_d x_d``, which is sum
lambda_a p(a) at x = sum lambda_a gamma(a), sum lambda_a = 1.  So x lies on
the affine hull of every block's support when the functional vanishes on q_k
t^j, q_k = prod_{a in A_k} (t - a), for j = 0..d - |A_k|: one integer system
with d columns for all blocks, solved by Cramer's rule up to 3 columns.
Lagrange interpolation, exact up to degree d, gives each weight lambda_a as
the functional of q_k / (t - a) = prod_{b != a} (t - b), read by Horner's
rule, over prod_{b != a} (a - b).  Where every weight is >= 0, x is a common
point: an exact confirmation from the parameters alone, with no float pass
and no Rational.  One reader serves all reads of a candidate, and builds
each block's q_k and rows once, for the first read on its positions.  Any
candidate no kept support confirms takes the screen's path unchanged, so
reads change no result.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InputError, InternalError, ResourceGuardError
from .feasibility import (
    EmptyBlockCertificate,
    FarkasCertificate,
    Witness,
    _exact_solution,
    hulls_common_point,
    screen,
    verify_outcome,
)
from .kernel import PointSet, Rational, to_rational
from .labels import alternating_labels, split
from .ordertype import MomentSpec, is_order_homogeneous, moment_points
from .tolerance import (
    set_tolerance,  # noqa: F401 - bench/tracing.py wraps this import site
    set_tolerance_value,
)

#: Known 16-parameter configuration whose alternating 4-partition in R^3 has
#: no common point once the repeats are split; witnesses c(3,4) >= 17.
SIXTEEN_POINT_PARAMS = (-4, -3, -2, -2, -2, -1, -1, -1, 0, 1, 2, 6, 6, 7, 8, 9)

#: Starting perturbation step for splitting repeated parameters.
DEFAULT_EPSILON = Rational(1, 1000)

#: Candidates tried per n when no budget is given.
DEFAULT_BUDGET = 1000

#: Guard for exhaustive d=1 tolerance tables.
T_LINE_GUARD = 14

#: Supports of its latest confirmations that a search reads each candidate
#: on before it screens it.
KEPT_SUPPORTS = 16


@dataclass(frozen=True)
class SearchStrategy:
    """Deterministic candidate stream specification.

    ``clustered``, the one kind, draws a few tight clusters plus a spread
    tail from ``random.Random(seed)``: ``cluster_count`` clusters (r - 1 by
    default, at most n), with centers and tail values drawn from integers in
    ``[-span, span]``, span = spread * n.  Repeats in a cluster are
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
        if self.spread < 1:
            raise InputError(f"spread must be >= 1, got {self.spread}")


def _run_steps(values) -> list:
    """Each value's place in its run of equal values: 0, 1, 2, ..."""
    steps = []
    for i, v in enumerate(values):
        steps.append(steps[-1] + 1 if i and v == values[i - 1] else 0)
    return steps


def split_repeats(values: Sequence, epsilon) -> Tuple[Rational, ...]:
    """Replace each run of equal values a, a, ... by a, a+eps, a+2eps."""
    eps = to_rational(epsilon)
    vals = [to_rational(v) for v in values]
    return tuple(v + step * eps if step else v for v, step in zip(vals, _run_steps(vals)))


def integer_draws(strategy: SearchStrategy, n: int, r: int) -> Iterator[list]:
    """Infinite stream of sorted integer draws of length n with repeats: the
    clusters' centers, each as often as its size, and the tail values."""
    rng = random.Random(strategy.seed)
    clusters = strategy.cluster_count if strategy.cluster_count is not None else max(1, r - 1)
    span = strategy.spread * n
    while True:
        k = min(clusters, n)
        # sizes: 1..n // k + 2 per cluster, leaving one per later cluster; the tail takes the rest
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
        yield values


def alpha_candidates(strategy: SearchStrategy, n: int, r: int) -> Iterator[Tuple[Rational, ...]]:
    """Infinite stream of strictly increasing parameter tuples of length n:
    the integer draws of the strategy with their repeats split by
    :data:`DEFAULT_EPSILON`, the Rationals that the search builds only for a
    candidate its screen does not confirm."""
    for values in integer_draws(strategy, n, r):
        yield split_repeats(values, DEFAULT_EPSILON)


#: ``DEFAULT_EPSILON = _EPS_STEP / _EPS_SCALE``, read once so that lifting a
#: draw does no Rational arithmetic
_EPS_STEP, _EPS_SCALE = DEFAULT_EPSILON.numerator, DEFAULT_EPSILON.denominator


def _lift(values) -> list:
    """``scale_to_integers(split_repeats(values, DEFAULT_EPSILON))[0]`` for a
    sorted integer draw, on ints: the values themselves when none repeats,
    else ``q v + p step`` for ``DEFAULT_EPSILON = p / q``, every split value
    times q, whose LCM of denominators is q once any run has a step of 1."""
    steps = _run_steps(values)
    if not any(steps):
        return list(values)
    return [_EPS_SCALE * v + _EPS_STEP * step for v, step in zip(values, steps)]


@dataclass(frozen=True)
class Counterexample:
    """A certified configuration whose alternating partition has no common point."""

    dim: int
    r: int
    alphas: Tuple[Rational, ...]
    outcome: FarkasCertificate | EmptyBlockCertificate
    blocks: list  # that partition's points, on which outcome replays

    @property
    def n(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class NoneFound:
    """Search exhausted its budget after ``tried`` candidates."""

    tried: int


def alternating_blocks(X: PointSet, r: int):
    """Points of the alternating r-partition of X (see
    :func:`~tverlab.labels.alternating_labels`); blocks past n stay empty."""
    return split(X.points, alternating_labels(len(X), r), r)


def _lifted_blocks(ks, dim: int, r: int):
    """:func:`alternating_blocks` of the moment points of the integer
    parameters ``ks``: ``(k, k^2, ..., k^dim)``, built with no Rational.  For
    ``ks`` the parameters a times the LCM L of their denominators, these are
    the points' ``PointSet.lifted`` (see :mod:`tverlab.feasibility`)."""
    lifted = [tuple(itertools.accumulate(itertools.repeat(k, dim), operator.mul)) for k in ks]
    return split(lifted, alternating_labels(len(lifted), r), r)


def _roots_polynomial(roots) -> list:
    """Coefficients, constant first, of the monic polynomial prod (t - a)."""
    q = [1]
    for a in roots:
        q = [u - a * v for u, v in zip([0] + q, q + [0])]
    return q


def _moment_reader(param_blocks, d: int):
    """``read(support)`` for the blocks of increasing integer parameters
    ``param_blocks`` of one candidate: ``(X, D)``, D > 0, with x = X / D a
    common point of the hulls of the moment points ``(k, k^2, ..., k^d)`` of
    the blocks, or None: the point that the parameters A_k at positions
    ``support[k]`` of each block k, increasing, 1 to d + 1 of them, pin down
    (see the module docstring).  The rows "the functional of q_k t^j is 0"
    of all blocks are solved by :func:`~tverlab.feasibility._exact_solution`,
    None unless x is unique; lambda_a has the sign of the functional of
    q_k / (t - a) at (D, X) times (-1)^{#{b in A_k : b > a}}, and x is
    confirmed only where every lambda_a is >= 0.

    Each block's rows, q_k and roots are built the first time a read uses
    its positions, and shared by every later read of the same candidate;
    ``_exact_solution`` replaces rows of the list it is given but never
    changes a row.  The functional of q_k / (t - a), q_k = sum q_j t^j, is
    ``sum q_j H_j`` by Horner's rule, H_1 = D and H_{j+1} = a H_j + X_j."""
    blocks = {}

    def block(k, positions):
        got = blocks.get((k, positions))
        if got is None:
            roots = [param_blocks[k][i] for i in positions]
            q = _roots_polynomial(roots)
            rows = []
            for j in range(d + 1 - len(roots)):
                c = [0] * j + q
                rows.append(c[1:] + [0] * (d + 1 - len(c)) + [-c[0]])
            got = blocks[k, positions] = rows, q[1:], roots
        return got

    def read(support):
        if not all(0 < len(positions) <= d + 1 for positions in support):
            return None
        used = [block(k, positions) for k, positions in enumerate(support)]
        solved = _exact_solution([row for rows, _, _ in used for row in rows], d)
        if solved is None:
            return None
        X, D = solved
        point = [D] + X
        for _, q, roots in used:
            for above, a in enumerate(reversed(roots)):
                h = value = 0
                for c, x in zip(q, point):
                    h = a * h + x
                    value += c * h
                if value and (value < 0) != (above % 2 == 1):
                    return None
        return X, D

    return read


def _certified(dim: int, r: int, alphas) -> Counterexample | Witness:
    """The certified counterexample on the moment points of ``alphas``, or
    the canonical simplex's :class:`~tverlab.feasibility.Witness` when their
    alternating r-partition has a common point, as that simplex decides it,
    so every printed certificate is the canonical one; the configuration is
    checked to be order-type homogeneous and the certificate to replay."""
    spec = MomentSpec(dim, alphas)
    X = moment_points(spec)
    blocks = alternating_blocks(X, r)
    outcome = hulls_common_point(blocks, dim)
    if outcome.feasible:
        return outcome
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
    budget: int = DEFAULT_BUDGET,
):
    """Search for an n-point moment configuration breaking the alternating
    partition; returns a :class:`Counterexample` or :class:`NoneFound`.

    Where the parameter values do not matter, the parameters 1..n are the
    one candidate and decide exactly: with n < r the alternating blocks
    cannot all be inhabited, so any configuration is a counterexample
    (conv(emptyset) = emptyset), and at d=1 feasibility of the alternating
    partition depends only on n.

    A candidate is its draw lifted to ints (:func:`_lift`).  Nearly every
    one is feasible.  It is read first on the per-block supports of the
    last :data:`KEPT_SUPPORTS` confirmations of this call, most recent
    first, where a support that confirms moves to the front, all through
    one :func:`_moment_reader`; only a candidate none confirms reaches the
    integer screen.  One the read or the screen confirms builds no
    Rational; :func:`_certified` decides the rest, those the screen proves
    infeasible too, on the draw with its repeats split, the Rational
    parameters :func:`alpha_candidates` gives.  The support of every
    confirmation by the screen or by the canonical witness is kept.
    """
    if d < 1:
        raise InputError(f"dimension must be >= 1, got d={d}")
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    if r < 1:
        raise InputError("the alternating partition needs n >= r >= 1 or n < r, "
                         f"got n={n}, r={r}")
    if strategy is None:
        strategy = SearchStrategy()
    exact = n < r or d == 1
    draws = ([list(range(1, n + 1))] if exact
             else itertools.islice(integer_draws(strategy, n, r), max(budget, 0)))
    labels = alternating_labels(n, r)
    kept = []  # per-block supports of the latest confirmations, most recent first
    tried = 0
    for values in draws:
        tried += 1
        if len(values) != n:
            raise InternalError(f"{strategy.kind} stream gave {len(values)} parameters for n={n}")
        ks = _lift(values)
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise InternalError(f"{strategy.kind} stream gave parameters that do not increase")
        params = split(ks, labels, r)
        read = _moment_reader(params, d)
        hit = next((i for i, support in enumerate(kept) if read(support)), None)
        if hit is not None:
            kept.insert(0, kept.pop(hit))
            continue
        verdict = screen(_lifted_blocks(ks, d, r), d)
        if verdict is None or not verdict.feasible:
            verdict = _certified(d, r, split_repeats(values, DEFAULT_EPSILON))
            if isinstance(verdict, Counterexample):
                return verdict
        kept.insert(0, verdict.support)
        del kept[KEPT_SUPPORTS:]
    if n < r:
        raise InternalError("an empty alternating block must be infeasible")
    return NoneFound(tried=tried)


def c_lower_bound(found: Iterable[int]) -> Optional[int]:
    """(largest n with a counterexample) + 1 <= c(d,r); None without one."""
    return max((n + 1 for n in found), default=None)


def scan_c_lower(
    d: int,
    r: int,
    n_range: Sequence[int],
    strategy: Optional[SearchStrategy] = None,
    budget: int = DEFAULT_BUDGET,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> Dict[int, Counterexample | NoneFound]:
    """Run :func:`find_counterexample` for each n, independently; n -> its
    result.  :func:`c_lower_bound` of the n with a counterexample bounds c(d,r).

    ``on_result`` is invoked after each n so callers can append checkpoint
    records.  No monotonicity in n is assumed: each n is reported on its own.
    """
    results: Dict[int, Counterexample | NoneFound] = {}
    for n in n_range:
        outcome = find_counterexample(d, r, n, strategy=strategy, budget=budget)
        results[n] = outcome
        if on_result is not None:
            on_result(n, outcome)
    return results


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
        if isinstance(found, Counterexample):
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
    if n < r or r < 1:
        raise InputError(f"t-line needs n >= r >= 1, got n={n}, r={r}")
    return set_tolerance_value(PointSet(1, [(i,) for i in range(1, n + 1)]), r, T_LINE_GUARD)


def n_line_formula(t: int, r: int) -> int:
    """Tight d=1 count ``r (t + 2) - 1``, the exact oracle for n_line."""
    return r * (t + 2) - 1


def n_line(t: int, r: int) -> int:
    """Least n with ``t_line(n, r) >= t``, read off the exhaustive table;
    the paper's closed form :func:`n_line_formula` is the claim to check it
    against."""
    if t < 0 or r < 1:
        raise InputError("need t >= 0 and r >= 1")
    for n in range(r, T_LINE_GUARD + 1):
        if t_line(n, r) >= t:
            return n
    raise ResourceGuardError(
        f"n_line({t},{r}) exceeds the exhaustive guard n <= {T_LINE_GUARD}"
    )


def check_growth_inequality(d: int, r: int, t: int, n: int) -> bool:
    """Finite lower inequality ``n >= r t + r (d - 2) / 2``, checked exactly."""
    return Rational(n) >= Rational(r) * t + Rational(r * (d - 2), 2)
