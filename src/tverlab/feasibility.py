"""Exact LP feasibility with checkable certificates.

Feasibility of ``A x = b, x >= 0`` is decided by a phase-1 simplex over
rationals with Bland's anti-cycling pivot rule: termination is guaranteed and
both outcomes carry evidence that an independent verifier can replay with
nothing but exact arithmetic.

* feasible: a witness vector (here: a common point plus per-block convex
  coefficients) whose defining equalities are recomputed exactly;
* infeasible: a Farkas multiplier vector u with ``u . column <= 0`` for every
  column and ``u . b > 0``, or an empty-block marker (``conv(emptyset) =
  emptyset`` by convention, so removing a whole block makes an intersection
  infeasible).

Farkas multipliers are normalized to coprime integer entries (positive
scaling only) so reports are reproducible across runs.

The simplex pivots on an all-integer tableau T with a common denominator D
(Edmonds/Bareiss integer pivoting, as in lrs): the rational tableau is
always T / D, D is the last pivot and stays positive, and each pivot updates
every other row by ``(v * p - f * w) // D``, which divides exactly.  Each
column of A, and b, is scaled to integers by the LCM of its own denominators
(``kernel.scale_columns``).  A positive column scale keeps every reduced-cost
sign and every ratio-test argmin, and the artificial columns stay the
identity, so the pivot path, witnesses (unscaled as ``x_j = s_j x'_j / s_b``)
and multipliers are those of the same simplex run on Fractions; scaling row
by row would change the reduced-cost signs and with them Bland's path.

Hull intersection has two routes.  :func:`hulls_common_point` runs the
simplex above and returns its evidence, a witness or a certificate; it is
the only source of printed certificates.  :func:`screen` is the screen for
every hull LP whose certificate is not printed (the c(d,r) search and the
tolerance removal scan), and it decides both ways: a floating-point phase-1
simplex proposes a basis and one integer solve checks it.  Where the float
objective reached zero, only an exact basic solution of the right signs
confirms that the hulls meet; where it stayed positive, only the basis's
exact dual, replayed as Farkas multipliers, proves that they do not.  Floats
never decide: any doubt falls back to :func:`hulls_common_point`.

The screen takes integer points.  Multiplying each coordinate by its own
positive number is an invertible linear map, so it maps hulls onto hulls and
keeps whether they meet; a point set is lifted once, each coordinate column
times the LCM of its denominators (``kernel.scale_columns``), and a moment
set through its parameters: with k = L a for the LCM L of their
denominators, ``(k, k^2, ..., k^d) = diag(L, L^2, ..., L^d) (a, a^2, ...,
a^d)``.  Everything is pure; callers may run many solves concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple

from .errors import InputError, InternalError
from .kernel import (
    ONE,
    Point,
    Rational,
    ZERO,
    _bareiss,
    as_point,
    fraction_free_update,
    scale_columns,
    scale_to_integers,
)

# ---------------------------------------------------------------------------
# phase-1 simplex on an integer tableau


def solve_equality_feasibility(rows, rhs):
    """Decide ``A x = b, x >= 0`` exactly.

    Returns ``("feasible", x)`` or ``("infeasible", u)`` where u satisfies
    ``u . A_j <= 0`` for every column j and ``u . b > 0``.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise InputError("ragged constraint matrix")
    if m == 0:
        return "feasible", []

    # positive column scales keep every reduced-cost sign and every
    # ratio-test argmin, hence Bland's path; the artificial columns stay the
    # identity, so the starting basis has determinant 1 and the multipliers
    # are those of the unscaled rows
    ints, scales = scale_columns(
        [[Rational(v) for v in row] + [Rational(b)] for row, b in zip(rows, rhs)]
    )
    flips = [-1 if row[-1] < 0 else 1 for row in ints]
    tableau: List[List[int]] = []
    for i, (row, flip) in enumerate(zip(ints, flips)):
        # columns: n structural, m artificial, then rhs
        art = [0] * m
        art[i] = 1
        tableau.append([flip * v for v in row[:n]] + art + [flip * row[-1]])

    # objective row holds reduced costs for `minimize sum of artificials`;
    # its rhs entry is minus the current objective value.
    obj = [-sum(col) for col in zip(*tableau)]
    for k in range(m):
        obj[n + k] += 1

    # the rational tableau is tableau / denom (and obj / denom); denom is
    # the last pivot and stays positive, so every sign test reads the
    # integers directly
    denom = 1
    basis = list(range(n, n + m))

    while True:
        entering = -1
        for j in range(n):  # artificials never re-enter
            if obj[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving = i
                    continue
                # compare rhs_i / coeff with the best ratio by cross-multiplying
                best = tableau[leaving]
                lhs = tableau[i][-1] * best[entering]
                rhs_best = best[-1] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            raise InternalError("phase-1 objective is bounded; no ratio row means a bug")
        denom = _pivot(tableau, obj, leaving, entering, denom)
        basis[leaving] = entering

    if obj[-1] == 0:
        # the scaled variable x'_j is x_j * scale_b / scale_j
        x = [ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = Rational(tableau[i][-1] * scales[var], denom * scales[n])
        return "feasible", x
    multipliers = [flips[i] * (ONE - Rational(obj[n + i], denom)) for i in range(m)]
    return "infeasible", multipliers


def _pivot(tableau, obj, row, col, denom):
    """Integer pivot: every row but the pivot row takes the exact-division
    update; returns the new common denominator, the pivot."""
    pivot_row = tableau[row]
    pivot = pivot_row[col]
    for i, other in enumerate(tableau):
        if i != row:
            tableau[i] = fraction_free_update(other, pivot_row, pivot, other[col], denom)
    obj[:] = fraction_free_update(obj, pivot_row, pivot, obj[col], denom)
    return pivot


def _normalize_multipliers(values: Sequence[Rational]) -> Tuple[Rational, ...]:
    """Scale by the unique positive rational giving coprime integer entries;
    multipliers of an infeasible phase-1 end have ``u . b > 0``, so not all 0."""
    ints, _ = scale_to_integers(values)
    g = math.gcd(*ints)
    return tuple(Rational(v // g) for v in ints)


# ---------------------------------------------------------------------------
# evidence types: each is a hull decision with its verdict, and replays itself


@dataclass(frozen=True)
class Witness:
    """A common point plus per-block convex coefficients, exactly checkable."""

    feasible = True
    status = "feasible"
    point: Point
    coefficients: Tuple[Tuple[Rational, ...], ...]

    def replays(self, blocks, dim) -> bool:
        """Recompute every defining equality, exactly."""
        if len(self.coefficients) != len(blocks):
            return False
        for block, coeffs in zip(blocks, self.coefficients):
            if len(coeffs) != len(block) or any(c < 0 for c in coeffs) or sum(coeffs, ZERO) != 1:
                return False
            if _combination(block, coeffs, dim) != tuple(self.point):
                return False
        return True


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving the intersection system ``A x = b, x >= 0`` empty.

    The system layout is fixed by :func:`intersection_system`; multipliers are
    normalized to coprime integers (positive scaling only).
    """

    feasible = False
    status = "infeasible"
    multipliers: Tuple[Rational, ...]

    def replays(self, blocks, dim) -> bool:
        """``u . b > 0`` and ``u . A_j <= 0`` for every column j, one at a time:
        point p of block k gives ``u_k + (c_k - c_{k-1}) . p``, c_k the
        multipliers of the chain rows between blocks k and k + 1, if any."""
        u = self.multipliers
        r = len(blocks)
        if len(u) != r + (r - 1) * dim:
            return False
        chains = [()] + [u[r + k * dim : r + (k + 1) * dim] for k in range(r - 1)] + [()]
        for k, block in enumerate(blocks):
            w = [a - b for a, b in zip_longest(chains[k + 1], chains[k], fillvalue=ZERO)]
            if any(sum(map(operator.mul, p, w), u[k]) > 0 for p in block):
                return False
        return sum(u[:r], ZERO) > 0


@dataclass(frozen=True)
class EmptyBlockCertificate:
    """Infeasibility because a block is empty (conv(emptyset) = emptyset)."""

    feasible = False
    status = "infeasible"
    block_index: int

    def replays(self, blocks, dim) -> bool:
        return 1 <= self.block_index <= len(blocks) and not blocks[self.block_index - 1]


# ---------------------------------------------------------------------------
# hull intersection


def intersection_system(blocks: Sequence[Sequence[Point]], dim: int):
    """Canonical equality system for a common point of the blocks' hulls.

    One column per point (blocks in order, points in block order).  Rows:
    one convexity row per block (coefficients sum to 1), then for each pair
    of consecutive blocks ``dim`` chain rows equating their combinations.
    Farkas replays read this layout column by column and build no system.
    Entries are the coordinates and the ints 0 and 1, so integer points
    give an integer system.
    """
    r = len(blocks)
    sizes = [len(b) for b in blocks]
    total = sum(sizes)
    offsets = [sum(sizes[:k]) for k in range(r)]
    rows = []
    rhs = []
    for k in range(r):
        row = [0] * total
        for j in range(sizes[k]):
            row[offsets[k] + j] = 1
        rows.append(row)
        rhs.append(1)
    for k in range(r - 1):
        for c in range(dim):
            row = [0] * total
            for j, p in enumerate(blocks[k]):
                row[offsets[k] + j] = p[c]
            for j, p in enumerate(blocks[k + 1]):
                row[offsets[k + 1] + j] = -p[c]
            rows.append(row)
            rhs.append(0)
    return rows, rhs


def _coerce_blocks(blocks, dim=None):
    """The one gate for blocks, to decide and to replay: rational points, at
    least one block, one dimension of at least 1 (from the points if None)."""
    coerced = []
    for block in blocks:
        coerced.append([as_point(p) for p in block])
    if not coerced:
        raise InputError("need at least one block")
    if dim is None:
        for block in coerced:
            if block:
                dim = len(block[0])
                break
    if dim is None:
        raise InputError("cannot infer dimension from empty blocks")
    if dim < 1:
        raise InputError(f"dimension must be at least 1, got {dim}")
    for block in coerced:
        for p in block:
            if len(p) != dim:
                raise InputError("blocks contain points of mixed dimension")
    return coerced, dim


def hulls_common_point(blocks, dim=None) -> Witness | FarkasCertificate | EmptyBlockCertificate:
    """Decide exactly whether the convex hulls of the blocks intersect.

    Returns the evidence: a :class:`Witness` when they meet, otherwise a
    :class:`FarkasCertificate` or an :class:`EmptyBlockCertificate`.
    """
    blocks, dim = _coerce_blocks(blocks, dim)
    for k, block in enumerate(blocks):
        if not block:
            return EmptyBlockCertificate(block_index=k + 1)
    rows, rhs = intersection_system(blocks, dim)
    status, payload = solve_equality_feasibility(rows, rhs)
    if status == "infeasible":
        return FarkasCertificate(multipliers=_normalize_multipliers(payload))
    coeffs = []
    pos = 0
    for block in blocks:
        coeffs.append(tuple(payload[pos : pos + len(block)]))
        pos += len(block)
    return Witness(point=_combination(blocks[0], coeffs[0], dim), coefficients=tuple(coeffs))


def verify_outcome(blocks, outcome, dim=None) -> bool:
    """Replay any evidence :func:`hulls_common_point` returns, on blocks that
    pass its gate; blocks the gate refuses raise :class:`InputError`."""
    blocks, dim = _coerce_blocks(blocks, dim)
    return outcome.replays(blocks, dim)


def screen(blocks, dim):
    """The integer screen's verdict on the hulls of blocks of integer points:
    ``("feasible", support)``, the support of an exactly confirmed common
    point as columns of :func:`intersection_system`; ``("infeasible", u)``,
    integer Farkas multipliers for that system, replayed exactly; or None,
    unconfirmed either way.

    :func:`_float_basis` proposes a basis B of ``[A | I]``.  Where the float
    objective reached zero, one Bareiss pass makes the first |S| rows of the
    integer ``[A_S | b]`` upper triangular, S the structural columns of B,
    and fraction-free back substitution gives ``y = D x_S`` on integers, D
    the last pivot.  The basic solution is a point of ``A x = b, x >= 0``
    exactly when A_S has rank |S|, b lies in its span and no y_k has the sign
    opposite to D's.  Where it stayed positive, the same solve on the basic
    columns of ``[A | I]`` as rows (b >= 0 here, so the float pass flips no
    row and its artificial columns are I) gives its dual ``u = y / D``:
    ``u . A_j = 0`` on structural basic columns and ``u . e_i = c_i`` on
    artificial ones, with ``c_i = L / s_i`` the cost the float pass gave the
    artificial of row i once its rows are scaled back (s_i the row's
    equilibration scale, L their LCM).  The verdict is infeasible exactly
    when ``sign(D) y`` replays as a :class:`FarkasCertificate`: ``u . b > 0``
    and ``u . A_j <= 0`` for every structural column j.  The costs only make
    the replay likely to pass; the replay alone decides.
    """
    rows, rhs = intersection_system(blocks, dim)
    try:
        proposed = _float_basis(rows, rhs)
    except OverflowError:
        return None
    if proposed is None:
        return None
    basis, reached_zero = proposed
    n = len(rows[0]) if rows else 0
    if reached_zero:
        support = sorted(j for j in basis if j < n)
        solved = _exact_solution([[row[j] for j in support] + [b] for row, b in zip(rows, rhs)],
                                 len(support))
        if solved is None:
            return None
        y, last = solved
        if any((v < 0) != (last < 0) for v in y if v):
            return None
        return "feasible", tuple(j for j, v in zip(support, y) if v)
    scales = [_row_scale(row) for row in rows]
    lcm = math.lcm(*scales)
    dual = []
    for j in basis:
        if j < n:
            dual.append([row[j] for row in rows] + [0])
        else:
            unit = [0] * (len(rows) + 1)
            unit[j - n], unit[-1] = 1, lcm // scales[j - n]
            dual.append(unit)
    solved = _exact_solution(dual, len(rows))
    if solved is None:
        return None
    y, last = solved
    u = tuple(v if last > 0 else -v for v in y)
    return ("infeasible", u) if FarkasCertificate(u).replays(blocks, dim) else None


def _exact_solution(aug, width):
    """``(y, D)`` with ``y = D x`` on integers for the unique x solving the
    integer system ``aug[:, :width] x = aug[:, width]``, D the last Bareiss
    pivot; None when the system has no unique solution.  Eliminates ``aug``
    in place."""
    rank, _, last = _bareiss(aug, width)
    if rank < width or any(row[width] for row in aug[width:]):
        return None
    y = [0] * width
    for k in range(width - 1, -1, -1):
        acc = last * aug[k][width] - sum(aug[k][j] * y[j] for j in range(k + 1, width))
        y[k] = acc // aug[k][k]
    return y, last


#: float pivots at or below it, and reduced costs and objectives within it
#: of zero, count as zero; rows are equilibrated to a largest entry of 1
_FLOAT_TOL = 1e-9


def _row_scale(row):
    """The float pass's equilibration scale of a row: its largest absolute
    entry, 1 for a zero row."""
    return max(map(abs, row), default=0) or 1


def _float_basis(rows, rhs):
    """``(basis, reached_zero)`` at the end of a float phase-1 simplex
    (Dantzig's rule) on ``A x = b`` with each row divided by its
    :func:`_row_scale`: the basic columns of ``[A | I]``, column n + i the
    artificial of row i, and whether the objective reached zero; None when
    it hits its iteration cap.

    Artificial columns never re-enter, so the tableau omits them.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = []
    for row, b in zip(rows, rhs):
        # float() of an int rounds correctly, and raises OverflowError past
        # the range
        values = [float(v) for v in row]
        values.append(float(b))
        scale = float(_row_scale(row))
        scale = scale if values[-1] >= 0 else -scale
        tableau.append([v / scale for v in values])
    obj = [-sum(column) for column in zip(*tableau)] if m else [0.0]
    basis = list(range(n, n + m))
    for _ in range(10 * (m + n) + 10):
        entering = min(range(n), key=obj.__getitem__, default=-1)
        if entering < 0 or obj[entering] >= -_FLOAT_TOL:
            return basis, obj[-1] >= -_FLOAT_TOL
        leaving, best = -1, 0.0
        for i, row in enumerate(tableau):
            if row[entering] > _FLOAT_TOL:
                ratio = max(row[-1], 0.0) / row[entering]
                if leaving < 0 or ratio < best:
                    leaving, best = i, ratio
        if leaving < 0:
            return None
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        pivot_row = tableau[leaving] = [v / pivot for v in pivot_row]
        for i, row in enumerate(tableau):
            f = row[entering]
            if i != leaving and f:
                tableau[i] = [v - f * w for v, w in zip(row, pivot_row)]
        f = obj[entering]
        obj = [v - f * w for v, w in zip(obj, pivot_row)]
        basis[leaving] = entering
    return None


def _combination(block, coeffs, dim) -> Point:
    acc = [ZERO] * dim
    for p, lam in zip(block, coeffs):
        if lam:
            for c in range(dim):
                acc[c] += lam * p[c]
    return tuple(acc)


# ---------------------------------------------------------------------------
# d = 1 interval logic (lines with a repeated value; tested against the LP)


def intervals_common_point(blocks) -> Optional[Rational]:
    """Common point of 1-d hulls, or None; blocks are value sequences."""
    if not all(blocks):
        return None
    lo, hi = max(map(min, blocks)), min(map(max, blocks))
    return lo if lo <= hi else None
