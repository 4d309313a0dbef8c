"""Exact rational geometric kernel: scalars, points, hyperplanes, orientation.

Every quantity in this package is an arbitrary-precision rational and every
predicate is decided exactly, so search results double as certificates even
on adversarially degenerate configurations.  Floats may propose, but they
never decide: the one floating-point path (``feasibility.screen``) suggests
a simplex basis, and only an exact integer solve on that basis, of the
primal or of its dual, can confirm a common point or its absence; when it
cannot, the exact simplex decides.

Conventions:

* A point is a tuple of rationals; a point set keeps its input order, which
  is semantically meaningful (polygonal-path order, alternating partitions).
* Indices reported to callers (facets, partitions, witnesses) are 1-based.
* ``orientation`` is the sign of the determinant of the homogeneous matrix
  whose rows are the points, each row carrying a leading 1.  With the
  leading-1 layout, points on the moment curve with strictly increasing
  parameters orient +1 in every dimension (Vandermonde positivity).
  Three facts let ``orientation_signs`` decide every tuple on integers:
  scaling a coordinate column by a positive number scales the determinant
  by it, so all are read on ``PointSet.lifted``, the set's cached integer
  lift that the tolerance removal scan reads too; subtracting the first
  row from the others leaves the determinant unchanged, so it is the
  d x d determinant of the differences ``p_j - p_i`` from the tuple's
  first point, its base; and its Laplace expansion along the last row
  needs only the minors of the rows before it, which tuples with a common
  prefix share, so a depth-first walk from each base carries them and a
  tuple costs one dot product.
* Homogeneity needs far fewer determinants.  A set is homogeneous exactly
  when the (d+1) x n matrix with columns ``(1, p_i)`` has all its maximal
  minors nonzero of one sign, that is, up to the sign, when it is a point
  of the totally positive Grassmannian, and total positivity has a test on
  k(n - k) + 1 of them, k = d + 1 (Gasca and Pena, "Total positivity and
  Neville elimination", Linear Algebra Appl. 165, 1992; Fomin and
  Zelevinsky, "Total positivity: tests and parametrizations", Math.
  Intelligencer 22, 2000): :func:`positivity_tests` gives them, 49 of the
  1,820 subsets at n = 16 in R^3, with the same Laplace step as the walk,
  and windows share their cofactors.
  Past :func:`orientation`'s one subset, ``orientation_signs`` is read only
  by ``homog``, to name the first failing subset of a set the test rejects.
* A hyperplane ``normal . x = offset`` has positive side
  ``normal . x > offset``.
* One elimination, :func:`_bareiss`, serves :func:`det` and the screen's
  exact reads.  It is Bareiss's fraction-free one, made lazy: a row that a
  pivot does not meet is not touched, and it is brought up to date in one
  exact step when it is next read, so a read computes only the entries
  that change.

All operations are pure functions on immutable values and safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction as Rational
from typing import Iterable, Iterator, Sequence, Tuple

from .errors import InputError

#: Convenience alias used throughout: points are plain tuples of rationals.
Point = Tuple[Rational, ...]

ZERO = Rational(0)


def to_rational(value) -> Rational:
    """Coerce ints, strings like ``-3/4``, Fractions or rationals exactly."""
    if type(value) is Rational:
        return value
    if isinstance(value, float):
        raise InputError(f"refusing to coerce float {value!r}; pass a rational")
    try:
        return Rational(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {value!r}") from exc


def as_point(coords: Iterable) -> Point:
    return tuple(to_rational(c) for c in coords)


def sign(value) -> int:
    """Sign of an exact scalar as -1, 0 or +1."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


@dataclass(frozen=True)
class PointSet:
    """An ordered set of d-dimensional rational points, in the order given."""

    dim: int
    points: Tuple[Point, ...]

    def __init__(self, dim, points):
        if dim < 1:
            raise InputError(f"dimension must be >= 1, got {dim}")
        pts = tuple(as_point(p) for p in points)
        for i, p in enumerate(pts):
            if len(p) != dim:
                raise InputError(
                    f"point {i + 1} has {len(p)} coordinates, expected {dim}"
                )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @functools.cached_property
    def lifted(self) -> Tuple[Tuple[int, ...], ...]:
        """The points with each coordinate column times the LCM of its
        denominators (:func:`scale_columns`): integers whose hulls meet, and
        whose orientations have signs, as the points' do."""
        return tuple(scale_columns(self.points)[0])


@dataclass(frozen=True)
class Hyperplane:
    """The set ``{x : normal . x = offset}``; positive side is ``> offset``."""

    normal: Tuple[Rational, ...]
    offset: Rational

    def __init__(self, normal, offset):
        norm = as_point(normal)
        if not any(norm):
            raise InputError("hyperplane normal must not be all zero")
        object.__setattr__(self, "normal", norm)
        object.__setattr__(self, "offset", to_rational(offset))

    @property
    def dim(self) -> int:
        return len(self.normal)

    def side_of(self, point: Sequence) -> int:
        """Sign of ``normal . p - offset``, exact."""
        p = as_point(point)
        if len(p) != self.dim:
            raise InputError(
                f"point has {len(p)} coordinates, hyperplane lives in R^{self.dim}"
            )
        return sign(sum(map(operator.mul, self.normal, p)) - self.offset)


def fraction_free_update(row, pivot_row, p, f, d, start=0):
    """Exact-division row step ``(v * p - f * w) // d`` of Bareiss elimination
    (``f`` is the row's pivot-column entry, ``d`` the pivot the row was last
    brought to), the one place bigint rows are combined.  Entries before
    ``start`` must be zero in both rows, and are zero in the result, which
    computes only the rest.  ``f = 0`` is a pure rescale ``v * p // d``."""
    if not f:
        tail = [v * p // d for v in row[start:]]
    else:
        tail = [(v * p - f * w) // d for v, w in zip(row[start:], pivot_row[start:])]
    return [0] * start + tail if start else tail


def scale_to_integers(values):
    """``(ints, scale)``: the rationals times the LCM of their denominators."""
    pairs = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*[q for _, q in pairs])
    return [p * (scale // q) for p, q in pairs], scale


def scale_columns(rows):
    """``(int_rows, scales)``: every column of the rational rows times the LCM
    of its own denominators, as tuples, and those positive column scales.

    A positive column scale keeps the sign of every determinant it enters
    and of every combination of the column, so eliminations and pivot rules
    that read only signs and ratios within a column see the same choices.
    """
    scaled = [scale_to_integers(column) for column in zip(*rows)]
    return list(zip(*[ints for ints, _ in scaled])), [s for _, s in scaled]


def _bareiss(m, width):
    """Fraction-free forward elimination of integer rows in place, skipping
    columns without a pivot.  Returns ``(rank, sign of the row swaps, last
    pivot)``; every entry ends an integer minor of the starting matrix.

    Lazily: a row with a zero in the pivot column is left alone, so each row
    keeps the pivot ``level`` it was last brought to, and its entries at the
    current pivot ``last`` are ``row * last // level``, exactly, since by
    Sylvester's identity the factors of the skipped rescales telescope.  A
    row is brought up to date in one :func:`fraction_free_update` when it is
    next read: as the pivot row, when a pivot meets it, with ``level`` in
    place of the previous pivot, and at the end past the rank unless it is
    already at the last pivot.  The rows from ``rank`` on are zero left of
    the pivot column, so an update computes only the columns right of it.  The rank, sign, last pivot and
    final matrix are those of eliminating every row at every pivot.
    """
    rank, sign, last = 0, 1, 1
    level = [1] * len(m)
    for col in range(width):
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            level[rank], level[pivot_row] = level[pivot_row], level[rank]
            sign = -sign
        if level[rank] != last:
            m[rank] = fraction_free_update(m[rank], None, last, 0, level[rank], col)
        prow = m[rank]
        p = prow[col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f:
                m[r] = fraction_free_update(m[r], prow, p, f, level[r], col + 1)
                level[r] = p
        last = p
        rank += 1
    for r in range(rank, len(m)):
        if level[r] != last:
            m[r] = fraction_free_update(m[r], None, last, 0, level[r], width)
    return rank, sign, last


def det(matrix: Sequence[Sequence]) -> Rational:
    """Exact determinant by Bareiss fraction-free elimination.

    Each row is scaled to integers by the LCM of its denominators; the last
    Bareiss pivot is then the scaled determinant up to the swap sign, so the
    result is ``Rational(sign * last, product of the row scales)``.
    """
    n = len(matrix)
    m = []
    scales = 1
    for row in matrix:
        if len(row) != n:
            raise InputError("determinant needs a square matrix")
        ints, scale = scale_to_integers([to_rational(x) for x in row])
        m.append(ints)
        scales *= scale
    rank, sign, last = _bareiss(m, n)
    return Rational(sign * last, scales) if rank == n else ZERO


@functools.lru_cache(maxsize=None)
def _laplace(dim):
    """``[k]``: for each (k+1)-subset of the dim columns, in lexicographic
    order, the ``(sign, column, index of a k-subset)`` terms of its minor's
    Laplace expansion along a new last row (see :func:`_add_row`)."""
    tables = []
    for k in range(dim):
        below = {c: u for u, c in enumerate(itertools.combinations(range(dim), k))}
        tables.append(tuple(tuple(((-1) ** (k + m), t, below[cols[:m] + cols[m + 1:]])
                                  for m, t in enumerate(cols))
                            for cols in itertools.combinations(range(dim), k + 1)))
    return tuple(tables)


def _add_row(terms, minors, row):
    """The (k+1) x (k+1) minors of k rows and ``row`` below them, from the
    k x k minors of the k rows, by Laplace expansion along ``row``; ``terms``
    is ``_laplace(dim)[k]``.  At k = 0 the minors are ``[1]``, and at
    k + 1 = dim the result is the one determinant."""
    return [sum(s * row[t] * minors[u] for s, t, u in term) for term in terms]


def positivity_tests(X: PointSet) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """``(indices, det)`` for the k(n - k) + 1 subsets, k = dim + 1, whose
    orientation determinants alone decide homogeneity, 1-based, each with
    its exact integer determinant of :func:`orientation` on X's cached
    integer lift :attr:`PointSet.lifted`: first ``(1, ..., k)``, then for
    a = 0, ..., k - 1 every ``[1, a] + [b, b + k - a - 1]`` with b > a + 1
    in increasing b.  Lazy, so a caller can stop at the first determinant
    it rejects.

    X is homogeneous iff every one of these determinants is nonzero with
    the sign of the first.  The orientation determinant of a subset I is
    the maximal minor ``D_I`` of the k x n matrix M with columns (1, p_i).
    With ``D_[k] != 0``, M = M_[k] [I_k | A], so ``D_I / D_[k]`` is a maximal
    minor of [I_k | A], which is, once A's rows are put in reverse order
    with the sign (-1)^(k-i) on row i, the minor of that matrix on the rows
    [k] minus I and the columns of I past k.  The subsets above are exactly
    the images of its k(n - k) initial minors (contiguous rows and columns
    that include the first row or the first column), and a matrix whose
    initial minors are all positive is strictly totally positive (Gasca and
    Pena, "Total positivity and Neville elimination", Linear Algebra Appl.
    165, 1992), so every ``D_I`` has the sign of ``D_[k]``; for the sign -1,
    negate one coordinate row of M, which negates every minor.  In
    Grassmannian terms these are the Pluecker coordinates of the rectangles
    seed, one cluster of the totally positive Grassmannian (Fomin and
    Zelevinsky, "Total positivity: tests and parametrizations", Math.
    Intelligencer 22, 2000).

    Each determinant is a dot product of one row with the cofactors of the
    other d - 1, and windows share cofactors.  With the steps ``e_j = p_(j+1)
    - p_j`` (unimodular row operations keep every determinant), the window
    {b, ..., b + d} (a = 0) has the rows e_b, ..., e_(b+d-1) and
    {1} + {b, ..., b + d - 1} (a = 1) the rows ``p_b - p_1``, e_b, ...,
    e_(b+d-2): the cofactors of e_b, ..., e_(b+d-2), one set per b from
    :func:`_add_row`, serve both, the other row last for a = 0 and first
    for a = 1, the sign (-1)^(d-1).  For a >= 2 a determinant adds the
    window's rows ``p_j - p_1`` with :func:`_add_row` to the minors of the
    rows over ``[2, a]``, which every window of that a shares.  At n = 16
    in R^3 that is 49 of the 1,820 subsets.
    """
    dim, lifted, n = X.dim, X.lifted, len(X)
    if n <= dim:
        return
    laplace = _laplace(dim)
    diffs = [[a - b for a, b in zip(q, lifted[0])] for q in lifted]
    # prefix[m]: the minors of the difference rows of points 2..m+1
    prefix = [[1]]
    for m in range(dim):
        prefix.append(_add_row(laplace[m], prefix[-1], diffs[m + 1]))
    yield tuple(range(1, dim + 2)), prefix[dim][0]
    # the signed cofactors of d - 1 rows: a row's determinant with them
    # below is one dot product, the last step of _add_row
    last = laplace[-1][0]
    steps = [[a - b for a, b in zip(q, p)] for p, q in zip(lifted, lifted[1:])]
    # shared[b - 2]: the cofactors of e_b, ..., e_(b+d-2); e_j is steps[j - 1]
    shared = []
    for b in range(2, n - dim + 2):
        minors = [1]
        for m in range(dim - 1):
            minors = _add_row(laplace[m], minors, steps[b + m - 1])
        shared.append([s * minors[u] for s, _, u in last])
        if b <= n - dim:
            yield tuple(range(b, b + dim + 1)), sum(map(operator.mul, shared[-1],
                                                        steps[b + dim - 2]))
    flip = (-1) ** (dim - 1)
    for b in range(3, n - dim + 2):
        yield (1,) + tuple(range(b, b + dim)), flip * sum(map(operator.mul, shared[b - 2],
                                                              diffs[b - 1]))
    for a in range(2, dim + 1):
        head = tuple(range(1, a + 1))
        for b in range(a + 2, n - dim + a + 1):
            minors = prefix[a - 1]
            for m in range(a - 1, dim):
                minors = _add_row(laplace[m], minors, diffs[b + m - a])
            yield head + tuple(range(b, b + dim - a + 1)), minors[0]


def orientation_signs(X: PointSet) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """``(indices, sign)`` of every (dim+1)-subset of X, 1-based and in
    lexicographic order; the sign is :func:`orientation` of the subset, read
    on X's cached integer lift, :attr:`PointSet.lifted`.

    Lazy, so a caller can stop at the first sign it rejects.  For each base
    point i a depth-first walk over the later points carries the minors of
    the difference rows ``p_j - p_i`` chosen so far (their exterior product)
    and adds a row with :func:`_add_row`; at dim - 1 rows they are a
    cofactor vector, and a tuple costs one integer dot product with its
    last row.
    """
    dim, lifted, n = X.dim, X.lifted, len(X)
    laplace = _laplace(dim)

    def walk(diffs, start, minors, head):
        if len(head) == dim:
            cofactors = [s * minors[u] for s, _, u in laplace[-1][0]]
            for j in range(start, n):
                yield head + (j + 1,), sign(sum(map(operator.mul, cofactors, diffs[j])))
            return
        # the next row, leaving enough later points to complete the tuple
        for j, row in enumerate(diffs[start:n - dim + len(head)], start):
            yield from walk(diffs, j + 1, _add_row(laplace[len(head) - 1], minors, row),
                            head + (j + 1,))

    for i in range(n - dim):
        diffs = [[a - b for a, b in zip(q, lifted[i])] for q in lifted]
        yield from walk(diffs, i + 1, [1], (i + 1,))


def orientation(points: Sequence[Sequence], dim: int) -> int:
    """Orientation sign of ``dim + 1`` ordered points in R^dim.

    Sign of the determinant whose rows are the points in homogeneous
    coordinates (leading 1), taken in the given order: the one-subset case
    of :func:`orientation_signs`.
    """
    X = PointSet(dim, points)
    if len(X) != dim + 1:
        raise InputError(f"orientation in R^{dim} needs {dim + 1} points, got {len(X)}")
    ((_, s),) = orientation_signs(X)
    return s
