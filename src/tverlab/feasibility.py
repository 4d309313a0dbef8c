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

Evidence is replayed on the integer lift, as the simplex and the screen
work: the points with each coordinate times the LCM of its denominators
(``kernel.scale_columns``), a witness's coefficients per block and the
Farkas multipliers each times the LCM of their own denominators.  Every
condition a replay checks is then the rational one with both of its sides
multiplied by one positive number, which keeps each equality, each
inequality and each sign, so the verdict is that of the rational check.
The replay is the one place evidence is lifted: it takes the evidence, and
the blocks, as rationals, as they were found or decoded from a payload.

The simplex pivots on an all-integer tableau ``T = [A | b]`` with a common
denominator D (Edmonds/Bareiss integer pivoting, as in lrs): the rational
tableau is always T / D, D is the last pivot and stays positive, and each
pivot updates every other row by ``(v * p - f * w) // D``, which divides
exactly.  The artificial of row i has no column: it never re-enters once it
leaves, so the basis alone names it, as n + i.  Each column of A, and b, is
scaled to integers by the LCM of its own denominators
(``kernel.scale_columns``); a positive column scale keeps every reduced-cost
sign and every ratio-test argmin, so the pivot path is that of the same
simplex run on Fractions, where scaling row by row would change it.  At a
feasible end the witness is the final tableau's rhs column over D; only
an infeasible end solves a system, its basis's dual.

Hull intersection has two routes.  :func:`hulls_common_point` runs the
simplex above, which returns a witness or a certificate read off its end,
the only ones printed.  :func:`screen` serves every other hull
LP (the c(d,r) search and the tolerance removal scan) with the exact-LP
recipe of Applegate, Cook, Dash and Espinoza (*Oper. Res. Lett.* 35, 2007),
on the rows of :func:`intersection_system`, built once.  Each block's first
point is its key, whose coefficient is the block's total minus the others:
the convexity row is a generalized upper bound (Dantzig and Van Slyke,
*J. Comput. Syst. Sci.* 1, 1967), eliminated from each chain row by one
row operation on integers, the chain row less its entry at the key times
the key's convexity row, so the ``(r - 1) d`` chain rows hold the exact
differences ``p - key`` and no key column.  Each such row, and then each
column, is divided by its largest entry on integers before any float is
formed; a float phase-1 simplex starts with every key basic in its
convexity row, so only the chain rows carry artificials, and proposes a
basis.  Where its objective reached zero, the basis is solved on the same
rows; where it did not, or that solve fails, its dual on the canonical
rows must replay as Farkas multipliers.  Floats never decide: any doubt
falls back to :func:`hulls_common_point`.  The screen answers in the same
evidence types, with a :class:`Support` (each block's positions of
positive weight, the form of :attr:`Witness.support`) in place of a
witness.  A c(d,r) search candidate, on the moment curve, is read before
its screen on the supports of earlier confirmations
(:func:`tverlab.search._moment_reader`): the affine hulls of the moment
points of a support meet where the functional ``c_0 + c_1 x_1 + ... + c_d
x_d`` vanishes on every multiple of degree at most d of each block's
``prod (t - a)``, one d-column system solved by :func:`_exact_solution`
(by Cramer's rule up to 3 columns, as any square system that narrow),
and since Lagrange interpolation is exact up to degree d, each convex
weight there is the functional of ``prod_{b != a} (t - b)`` over
``prod_{b != a} (a - b)``; where no weight is negative the point is
common, and no float pass runs.  Both passes do only the arithmetic that
changes a value.  A float pivot updates, in place, the nonzero entries of
its pivot row in the rows that meet the entering column.  An exact read
takes the basis in its order, and its elimination is lazy
(``kernel._bareiss``), leaving each row a pivot does not meet untouched
until it is next read.

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
from itertools import accumulate, islice, zip_longest
from typing import Optional, Sequence, Tuple

from .errors import InputError, InternalError
from .kernel import (
    Point,
    Rational,
    ZERO,
    _add_row,
    _bareiss,
    _laplace,
    fraction_free_update,
    scale_columns,
    scale_to_integers,
    to_rational,
)

# ---------------------------------------------------------------------------
# phase-1 simplex on an integer tableau


def solve_equality_feasibility(rows, rhs):
    """Decide ``A x = b, x >= 0`` exactly.

    Returns ``("feasible", x)`` or ``("infeasible", u)`` where u satisfies
    ``u . A_j <= 0`` for every column j and ``u . b > 0``.  x is the final
    tableau's rhs column over its denominator; u, the final basis's dual, is
    the one system solved.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise InputError("ragged constraint matrix")
    if m == 0:
        return "feasible", []

    # positive column scales keep every reduced-cost sign and every
    # ratio-test argmin, hence Bland's path
    ints, scales = scale_columns(
        [[Rational(v) for v in row] + [Rational(b)] for row, b in zip(rows, rhs)]
    )
    flips = [-1 if row[-1] < 0 else 1 for row in ints]
    # columns: n structural, then rhs; the artificial of row i is named n + i
    # in the basis only, since it never re-enters once it leaves
    tableau = [[flip * v for v in row] for row, flip in zip(ints, flips)]

    # objective row holds reduced costs for `minimize sum of artificials`;
    # its rhs entry is minus the current objective value.
    obj = [-sum(col) for col in zip(*tableau)]

    # the rational tableau is tableau / denom (and obj / denom); denom is
    # the last pivot and stays positive, so every sign test reads the
    # integers directly
    denom = 1
    basis = list(range(n, n + m))

    while True:
        entering = next((j for j in range(n) if obj[j] < 0), -1)
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

    # the artificials are zero exactly when the objective is: then the basic
    # point, the rhs column over denom, is feasible, with any artificial still
    # basic at zero; the scaled variable x'_j is x_j * scale_b / scale_j
    if obj[-1] == 0:
        x = [ZERO] * n
        for row, j in zip(tableau, basis):
            if row[n] < 0:
                raise InternalError("the simplex's final basic point is not feasible")
            if j < n:
                x[j] = Rational(row[n] * scales[j], denom * scales[n])
        return "feasible", x
    # else the phase-1 dual certifies: unflipped, row i's artificial is e_i at cost flip_i
    read = _basis_dual([row[:n] for row in ints], basis, flips)
    if read is None:
        raise InternalError("the simplex's final basis has no dual")
    y, last = read
    return "infeasible", [Rational(v, last) for v in y]


def _pivot(tableau, obj, row, col, denom):
    """Integer pivot: every row but the pivot row takes the exact-division
    update, except a row with a zero in the pivot column when the pivot
    equals the old denominator, which it leaves as it is; returns the new
    common denominator, the pivot."""
    pivot_row = tableau[row]
    pivot = pivot_row[col]
    for i, other in enumerate(tableau):
        if i != row and (other[col] or pivot != denom):
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

    @property
    def support(self) -> Tuple[Tuple[int, ...], ...]:
        """Each block's positions of positive coefficient, as :class:`Support`."""
        return tuple(tuple(i for i, c in enumerate(coeffs) if c) for coeffs in self.coefficients)

    def replays(self, blocks, dim) -> bool:
        """Recompute every defining equality, exactly, on the integer lift:
        the point and every block point with coordinate c times the same
        positive scale (``kernel.scale_columns``), and each block's
        coefficients lambda times the LCM D of their denominators.  Then
        ``lambda >= 0``, ``sum lambda = D`` and ``sum lambda P = D x`` on
        ints are the rational conditions with both sides of each multiplied
        by one positive number, so each holds exactly when they do."""
        if len(self.coefficients) != len(blocks) or len(self.point) != dim:
            return False
        lifted, _ = scale_columns([self.point] + [p for block in blocks for p in block])
        point, start = lifted[0], 1
        for block, coeffs in zip(blocks, self.coefficients):
            if len(coeffs) != len(block):
                return False
            lam, den = scale_to_integers(coeffs)
            if any(v < 0 for v in lam) or sum(lam) != den:
                return False
            rows = lifted[start : start + len(block)]
            start += len(block)
            if [sum(map(operator.mul, lam, column)) for column in zip(*rows)] != [
                    den * x for x in point]:
                return False
        return True


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving the intersection system ``A x = b, x >= 0`` empty.

    The system layout is fixed by :func:`intersection_system`; the printed
    multipliers, :func:`hulls_common_point`'s, are normalized to coprime
    integers (positive scaling only).
    """

    feasible = False
    status = "infeasible"
    multipliers: Tuple[Rational, ...]

    def replays(self, blocks, dim) -> bool:
        """:func:`_farkas_replays` on the integer lift: the points with
        coordinate c times s_c (``kernel.scale_columns``), and u times the
        LCM of its denominators, then times S on the convexity rows and
        ``S / s_c`` on the chain rows of coordinate c, S the LCM of the s_c.
        Each column's value ``u_k + w . p`` is then multiplied by one positive
        number, so its sign, and the sign of ``u . b``, is unchanged."""
        r = len(blocks)
        if len(self.multipliers) != r + (r - 1) * dim:
            return False
        u, _ = scale_to_integers(self.multipliers)
        lifted, scales = scale_columns([p for block in blocks for p in block])
        top = math.lcm(*scales)
        # with no points there are no scales, and no chain row is read
        weights = [top] * r + [top // s for s in scales] * (r - 1)
        rows = iter(lifted)
        return _farkas_replays([v * w for v, w in zip(u, weights)],
                               [list(islice(rows, len(block))) for block in blocks], dim)


def _farkas_replays(u, blocks, dim) -> bool:
    """``u . b > 0`` and ``u . A_j <= 0`` for every column j of
    :func:`intersection_system`, one at a time, for integer multipliers and
    points: point p of block k gives ``u_k + (c_k - c_{k-1}) . p``, c_k the
    multipliers of the chain rows between blocks k and k + 1, if any."""
    r = len(blocks)
    chains = [()] + [u[r + k * dim : r + (k + 1) * dim] for k in range(r - 1)] + [()]
    for k, block in enumerate(blocks):
        w = [a - b for a, b in zip_longest(chains[k + 1], chains[k], fillvalue=0)]
        if any(sum(map(operator.mul, p, w), u[k]) > 0 for p in block):
            return False
    return sum(u[:r]) > 0


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
    offsets = list(accumulate(map(len, blocks), initial=0))
    total = offsets[-1]
    rows = [[0] * lo + [1] * (hi - lo) + [0] * (total - hi)
            for lo, hi in zip(offsets, offsets[1:])]
    for k in range(len(blocks) - 1):
        for c in range(dim):
            row = [0] * total
            for j, p in enumerate(blocks[k], offsets[k]):
                row[j] = p[c]
            for j, p in enumerate(blocks[k + 1], offsets[k + 1]):
                row[j] = -p[c]
            rows.append(row)
    return rows, [1] * len(blocks) + [0] * (len(rows) - len(blocks))


def _coerce_blocks(blocks, dim=None):
    """The one gate for blocks, to decide and to replay: rational points, at
    least one block, one dimension of at least 1 (from the points if None).
    An int coordinate stays an int: integer blocks, as the search and the
    removal scan pass them, become no Fractions."""
    coerced = []
    for block in blocks:
        coerced.append([tuple([c if type(c) is int else to_rational(c) for c in p])
                         for p in block])
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
    columns = iter(payload)
    coeffs = [tuple(islice(columns, len(block))) for block in blocks]
    return Witness(point=_combination(blocks[0], coeffs[0], dim), coefficients=tuple(coeffs))


def verify_outcome(blocks, outcome, dim=None) -> bool:
    """Replay any evidence :func:`hulls_common_point` returns, on blocks that
    pass its gate; blocks the gate refuses raise :class:`InputError`."""
    blocks, dim = _coerce_blocks(blocks, dim)
    return outcome.replays(blocks, dim)


@dataclass(frozen=True)
class Support:
    """The hulls meet, as :func:`screen` confirmed exactly: for each block,
    the positions of its points with positive weight at a common point, as
    :attr:`Witness.support` names them; no evidence to print or replay."""

    feasible = True
    status = "feasible"
    support: Tuple[Tuple[int, ...], ...]


def screen(blocks, dim) -> Support | FarkasCertificate | EmptyBlockCertificate | None:
    """The integer screen's verdict on the hulls of blocks of integer points:
    a :class:`Support` where it confirms a common point exactly, a
    :class:`FarkasCertificate` of integer multipliers, not normalized, that
    replay exactly, an :class:`EmptyBlockCertificate` for the first empty
    block, or None, unconfirmed either way.

    The rows of :func:`intersection_system` are built once, and each
    block's key, its first point, is eliminated from them on integers (see
    the module docstring): chain row i less ``row_i[key]`` times the key's
    convexity row, for every key, leaves the key columns of the chain rows
    zero and ``-sum row_i[key]`` as their rhs.  :func:`_float_basis`
    proposes a basis from :func:`_float_start` on these rows, and
    :func:`_key_read` reads one whose objective reached zero on the same
    rows.  The dual of any other basis, and of one that read fails, on the
    canonical rows, costs 0 on the convexity rows and ``L / s_i`` on chain
    row i, s_i the signed scale the float pass divided the row by and L
    their LCM: the float pass's costs on the canonical rows, which only
    make the replay likely to pass; the replay decides.
    """
    for k, block in enumerate(blocks):
        if not block:
            return EmptyBlockCertificate(block_index=k + 1)
    r = len(blocks)
    rows, _ = intersection_system(blocks, dim)
    keys = list(accumulate(map(len, blocks), initial=0))[:-1]
    owner = [k for k, block in enumerate(blocks) for _ in block]
    eliminated = rows[:r] + [[v - row[keys[k]] for v, k in zip(row, owner)] for row in rows[r:]]
    rhs = [1] * r + [-sum(row[key] for key in keys) for row in rows[r:]]
    try:
        tableau, start, scales = _float_start(eliminated, rhs, keys)
    except OverflowError:
        return None
    proposed = _float_basis(tableau, start)
    if proposed is None:
        return None
    basis, reached_zero = proposed
    if reached_zero:
        support = _key_read(eliminated, rhs, keys, owner, basis)
        if support is not None:
            return Support(support)
    lcm = math.lcm(*scales)
    read = _basis_dual(rows, basis, [0] * r + [lcm // s for s in scales[r:]])
    if read is None:
        return None
    u = tuple(read[0])
    return FarkasCertificate(u) if _farkas_replays(u, blocks, dim) else None


def _float_start(rows, rhs, keys):
    """``(tableau, basis, scales)``: the float phase 1's start on the
    key-eliminated rows ``[A | b]`` of :func:`screen`, the convexity rows
    first, each key basic in its block's convexity row and an artificial,
    column n + i, in each chain row i.  Every row i is divided by its
    signed scale s_i, 1 on a convexity row and on a chain row its largest
    absolute entry with the sign of its rhs, and then each column by its
    largest absolute entry in the chain rows so divided (1 where they are
    all zero, as in a key's column).  Each float is one correctly rounded
    quotient of the exact integers, as ``int / int`` rounds."""
    r, n = len(keys), len(rows[0]) if rows else 0
    scales = [1] * r + [(max(map(abs, row)) or 1) * (-1 if b < 0 else 1)
                        for row, b in zip(rows[r:], rhs[r:])]
    # the column scale max_i |a_ij| / |s_i| as the fraction top / bottom
    tops, bottoms = [1] * n, [1] * n
    for j, column in enumerate(zip(*rows[r:])):
        top, bottom = 0, 1
        for v, s in zip(column, scales[r:]):
            if v and abs(v * bottom) > top * abs(s):
                top, bottom = abs(v), abs(s)
        if top:
            tops[j], bottoms[j] = top, bottom
    tableau = [[v * bottom / (s * top) if v else 0.0
                for v, top, bottom in zip(row, tops, bottoms)] + [b / s]
               for row, b, s in zip(rows, rhs, scales)]
    return tableau, keys + list(range(n + r, n + len(rows))), scales


def _key_read(rows, rhs, keys, owner, basis):
    """The support of the basic point of ``basis``, as :class:`Support`
    names it, or None unless it is a unique common point.  Its columns S
    of :func:`intersection_system` other than keys are solved, ``y = D
    x_S`` by :func:`_exact_solution`, on the key-eliminated rows ``rows``
    of :func:`screen`: its chain rows, and the convexity row of each block
    whose key is not in the basis; each key's coefficient is D minus the
    sum of its block's others.  ``owner[j]`` is the block of column j."""
    r, inside = len(keys), set(basis)
    support = sorted(j for j in inside if j < len(owner) and j != keys[owner[j]])
    kept = list(range(r, len(rows))) + [k for k, key in enumerate(keys) if key not in inside]
    aug = [[rows[i][j] for j in support] + [rhs[i]] for i in kept]
    solved = _exact_solution(aug, len(support))
    if solved is None:
        return None
    y, last = solved
    left = [last] * r
    for j, v in zip(support, y):
        left[owner[j]] -= v
    if min(y, default=0) < 0 or min(left, default=0) < 0:
        return None
    positive = {j for j, v in zip(support + keys, y + left) if v}
    offsets = keys + [len(owner)]
    return tuple(tuple(j - lo for j in range(lo, hi) if j in positive)
                 for lo, hi in zip(offsets, offsets[1:]))


def _basis_dual(rows, basis, costs):
    """``(y, D)`` with ``y = D u`` on integers for the dual u of a basis of
    ``[A | I]`` that costs 0 on every structural column and ``costs[i]`` on
    the artificial of row i, column n + i: :func:`_exact_solution` on the
    basic columns as rows, in basis order, ``u . A_j = 0`` on structural
    basic columns and ``u_i = costs[i]`` on artificial ones.  None when the
    basis is singular.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    dual = [[row[j] for row in rows] + [0] if j < n
            else [int(i == j - n) for i in range(m)] + [costs[j - n]]
            for j in basis]
    return _exact_solution(dual, m)


#: widest square system :func:`_exact_solution` solves by Cramer's rule;
#: Laplace expansion grows as 2^width, and past 3 columns Bareiss is as
#: fast or faster (best of 5 on 2,000 random systems of 17-digit entries,
#: Python 3.11 on a 2-vCPU Xeon: 3 columns 9.4 against 12.9 us, 4: 20.8
#: against 20.9, 5: 48 against 35)
_CRAMER_WIDTH = 3


def _exact_solution(aug, width):
    """``(y, D)``, ``y = D x`` on integers for the unique x solving the
    integer system ``aug[:, :width] x = aug[:, width]`` and D > 0, or None
    when x is not unique.  On a square system D is ``|det|``.

    A square system of width 1 to :data:`_CRAMER_WIDTH` is solved by
    Cramer's rule: the cofactors c of the rows ``[A | b]``, by Laplace
    expansion (``kernel._add_row``), give ``A c' = -c_w b``, so D = |c_w|
    and y = -c' times the sign of c_w, None where c_w = 0.  Any other
    system takes one Bareiss pass (``kernel._bareiss``), whose last pivot
    is D up to sign, and fraction-free back substitution.  Either way no
    row list of ``aug`` changes: Bareiss replaces rows of the outer list,
    in place, by new lists, so a caller may pass rows it keeps."""
    if 0 < len(aug) == width <= _CRAMER_WIDTH:
        laplace = _laplace(width + 1)
        minors = aug[0]  # the 1 x 1 minors of the first row are its entries
        for terms, row in zip(laplace[1:], aug[1:]):
            minors = _add_row(terms, minors, row)
        *c, last = [s * minors[u] for s, _, u in laplace[width][0]]
        if not last:
            return None
        return ([-v for v in c], last) if last > 0 else (c, -last)
    rank, _, last = _bareiss(aug, width)
    if rank < width or any(row[width] for row in aug[width:]):
        return None
    y = [0] * width
    for k in range(width - 1, -1, -1):
        acc = last * aug[k][width] - sum(map(operator.mul, aug[k][k + 1:width], y[k + 1:]))
        y[k] = acc // aug[k][k]
    return ([-v for v in y], -last) if last < 0 else (y, last)


#: float pivots at or below it, and reduced costs and objectives within it
#: of zero, count as zero; the start's entries are at most 1 in a chain row
_FLOAT_TOL = 1e-9


def _float_basis(tableau, basis):
    """``(basis, reached_zero)`` at the end of a float phase-1 simplex
    (Dantzig's rule) on the rows ``[A | b]`` of ``tableau``, b >= 0, from
    the start ``basis``: row i's basic column, a unit column of A, or n + i,
    its artificial.  The objective is the sum of the artificials of the
    start.  Returns the basic columns of ``[A | I]`` at the end, ``basis``
    updated in place, and whether the objective reached zero; None when it
    hits its iteration cap.

    Artificial columns never re-enter, so the tableau omits them.  A pivot
    collects the nonzero ``(column, value)`` pairs of its divided row once
    and updates only those entries, in place, of the objective and of every
    row with a nonzero entering entry: the float operations of a dense
    update on every entry they change, so the same basis, signed zeros
    apart, which no comparison reads.
    """
    m = len(tableau)
    n = len(tableau[0]) - 1 if m else 0
    obj = [0.0] * (n + 1)
    for row, j in zip(tableau, basis):
        if j >= n:
            obj = [v - w for v, w in zip(obj, row)]
    for _ in range(10 * (m + n) + 10):
        least = min(obj[:n], default=0.0)
        if least >= -_FLOAT_TOL:
            return basis, obj[-1] >= -_FLOAT_TOL
        entering = obj.index(least)
        leaving, best = -1, 0.0
        for i, row in enumerate(tableau):
            if row[entering] > _FLOAT_TOL:
                ratio = max(row[-1], 0.0) / row[entering]
                if leaving < 0 or ratio < best:
                    leaving, best = i, ratio
        if leaving < 0:
            return None
        pivot = tableau[leaving][entering]
        pivot_row = tableau[leaving] = [v / pivot for v in tableau[leaving]]
        nonzero = [(j, w) for j, w in enumerate(pivot_row) if w]
        for row in tableau:
            f = row[entering]
            if f and row is not pivot_row:
                for j, w in nonzero:
                    row[j] -= f * w
        f = obj[entering]
        for j, w in nonzero:
            obj[j] -= f * w
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
