"""Moment-curve point sets, order-type homogeneity, and cyclic-polytope facets.

An ordered point set is *order-type homogeneous* when every ordered
(d+1)-subset has the same nonzero orientation sign.  The canonical examples
live on the moment curve ``a -> (a, a^2, ..., a^d)``: for strictly increasing
parameters every orientation determinant is a Vandermonde product and hence
positive, and the convex hull is the cyclic polytope, whose facets are
described combinatorially by Gale's evenness criterion.

Homogeneity is always evaluated in the given input order; there is no
reordering search.  At d=1 this makes a set homogeneous exactly when its
values are strictly monotone.  A zero orientation counts as a homogeneity
violation (general position is part of the notion).  A homogeneous set is,
up to the sign, a point of the totally positive Grassmannian, so it is
accepted by a total-positivity test on (d+1)(n-d-1) + 1 orientation
determinants (Gasca and Pena 1992; Fomin and Zelevinsky 2000), 49 of the
1,820 at n = 16 in R^3.  Only :func:`homogeneity_witness`, which ``homog``
runs on a set the test rejects, reads every (d+1)-subset, in lexicographic
order by one depth-first walk from each base point, to name the witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DegenerateInputError, InputError, InternalError
from .kernel import (
    Hyperplane,
    PointSet,
    Rational,
    orientation,  # noqa: F401 - bench/tracing.py wraps this import site
    orientation_signs,
    positivity_tests,
    sign,
    to_rational,
)


@dataclass(frozen=True)
class MomentSpec:
    """Parameters on the moment curve in R^dim, in the given order.

    The parameters must be strictly increasing, which guarantees an
    order-type homogeneous point set.
    """

    dim: int
    alphas: Tuple[Rational, ...]

    def __init__(self, dim, alphas):
        if dim < 1:
            raise InputError(f"dimension must be >= 1, got {dim}")
        vals = tuple(to_rational(a) for a in alphas)
        for a, b in zip(vals, vals[1:]):
            if not a < b:
                raise InputError(
                    "moment parameters must be strictly increasing "
                    f"(found {a} before {b})"
                )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "alphas", vals)


def moment_points(spec: MomentSpec) -> PointSet:
    """Evaluate the moment curve at each parameter, exactly."""
    pts = [tuple(a ** k for k in range(1, spec.dim + 1)) for a in spec.alphas]
    return PointSet(spec.dim, pts)


def gale_facets(n: int, dim: int) -> List[Tuple[int, ...]]:
    """Facets of the cyclic polytope on n ordered vertices in R^dim, as
    1-based index tuples in lexicographic order.

    A d-subset F is a facet iff any two indices outside F have an even
    number of F-indices strictly between them; it suffices to check
    consecutive outside indices.
    """
    if dim < 1 or n < dim + 1:
        raise InputError(f"need n >= dim + 1 >= 2, got n={n}, dim={dim}")
    facets = []
    for combo in itertools.combinations(range(1, n + 1), dim):
        members = set(combo)
        outside = [i for i in range(1, n + 1) if i not in members]
        ok = True
        for a, b in zip(outside, outside[1:]):
            between = sum(1 for f in combo if a < f < b)
            if between % 2:
                ok = False
                break
        if ok:
            facets.append(combo)
    return facets


def is_neighborly(n: int, dim: int) -> bool:
    """True iff every floor(dim/2)-element index subset lies in some facet."""
    if dim < 1 or n < dim + 1:
        raise InputError(f"need n >= dim + 1 >= 2, got n={n}, dim={dim}")
    k = dim // 2
    if k == 0:
        return True
    facet_sets = [set(f) for f in gale_facets(n, dim)]
    for combo in itertools.combinations(range(1, n + 1), k):
        subset = set(combo)
        if not any(subset <= f for f in facet_sets):
            return False
    return True


@dataclass(frozen=True)
class HomogeneityResult:
    """Outcome of an order-type homogeneity check.

    ``trivial`` marks sets with fewer than dim+1 points, which are
    homogeneous with undefined sign.
    """

    homogeneous: bool
    sign: Optional[int]
    trivial: bool = False


def is_order_homogeneous(X: PointSet) -> HomogeneityResult:
    """Check that every ordered (dim+1)-subset has one nonzero orientation.

    A homogeneous set is a point of the totally positive Grassmannian (up
    to the sign), so X is homogeneous iff the k(n - k) + 1 determinants of
    :func:`~tverlab.kernel.positivity_tests`, k = dim + 1, are all nonzero
    with the first one's sign: 49 of the 1,820 at n = 16 in R^3.  The test
    stops at the first it rejects and reads no orientation sign.
    """
    if len(X) < X.dim + 1:
        return HomogeneityResult(homogeneous=True, sign=None, trivial=True)
    tests = positivity_tests(X)
    _, value = next(tests)
    test_sign = sign(value)
    if test_sign and all(sign(v) == test_sign for _, v in tests):
        return HomogeneityResult(True, test_sign)
    return HomogeneityResult(False, None)


def homogeneity_witness(X: PointSet) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """The witness of X, which must be a set :func:`is_order_homogeneous`
    rejects, in the lexicographic order of the walk of
    :func:`~tverlab.kernel.orientation_signs` on X's cached integer lift:
    ``((indices, 0),)`` for the first zero subset, or the first subset and the
    first of the other sign, each with its sign; a walk with neither is a fault."""
    signs = orientation_signs(X)
    first = next(signs)
    for indices, s in itertools.chain([first], signs):
        if s == 0:
            return ((indices, 0),)
        if s != first[1]:
            return (first, (indices, s))
    raise InternalError("the positivity test rejected a homogeneous set")


def path_crossings(X: PointSet, h: Hyperplane) -> Tuple[int, ...]:
    """1-based edges of the polygonal path on X whose endpoints strictly
    straddle h.

    A vertex on h is rejected (degenerate input); callers perturb h if they
    need a generic cut.
    """
    if h.dim != X.dim:
        raise InputError("hyperplane and point set dimensions differ")
    sides = []
    for i, p in enumerate(X.points):
        s = h.side_of(p)
        if s == 0:
            raise DegenerateInputError(
                f"vertex {i + 1} lies on the hyperplane; perturb the hyperplane"
            )
        sides.append(s)
    return tuple(i + 1 for i, (a, b) in enumerate(zip(sides, sides[1:])) if a != b)
