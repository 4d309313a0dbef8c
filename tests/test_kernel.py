import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tverlab.errors import InputError
from tverlab.feasibility import hulls_common_point
from tverlab.kernel import (
    Hyperplane,
    PointSet,
    Rational,
    as_point,
    det,
    orientation,
    to_rational,
)
from tverlab.ordertype import MomentSpec, moment_points


def test_orientation_examples():
    assert orientation([(3,), (5,)], 1) == 1
    assert orientation([(0, 0), (1, 0), (0, 1)], 2) == 1
    # moment points for alpha = 1, 2, 3: Vandermonde (2-1)(3-1)(3-2) > 0
    assert orientation([(1, 1), (2, 4), (3, 9)], 2) == 1
    assert orientation([(0, 0), (1, 1), (2, 2)], 2) == 0


def test_orientation_input_validation():
    with pytest.raises(InputError):
        orientation([(0, 0), (1, 0)], 2)
    with pytest.raises(InputError):
        orientation([(0, 0), (1, 0), (0, 1, 5)], 2)


coord = st.integers(min_value=-50, max_value=50)


@st.composite
def simplex_points(draw, dim):
    pts = [
        tuple(draw(coord) for _ in range(dim))
        for _ in range(dim + 1)
    ]
    return pts


@given(simplex_points(2))
@settings(max_examples=60, deadline=None)
def test_orientation_permutation_parity_d2(pts):
    base = orientation(pts, 2)
    for perm in itertools.permutations(range(3)):
        parity = 1
        seen = list(perm)
        # count inversions for parity
        inv = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if seen[i] > seen[j]
        )
        parity = -1 if inv % 2 else 1
        assert orientation([pts[i] for i in perm], 2) == parity * base


@given(simplex_points(3))
@settings(max_examples=30, deadline=None)
def test_orientation_swap_flips_d3(pts):
    base = orientation(pts, 3)
    for i, j in itertools.combinations(range(4), 2):
        swapped = list(pts)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert orientation(swapped, 3) == -base


@given(simplex_points(2), st.tuples(coord, coord))
@settings(max_examples=60, deadline=None)
def test_orientation_translation_invariant(pts, vec):
    moved = [tuple(c + v for c, v in zip(p, vec)) for p in pts]
    assert orientation(moved, 2) == orientation(pts, 2)


def test_moment_orientations_positive_exhaustive():
    # every ordered (d+1)-subset of increasing moment points orients +1,
    # exhaustively for d <= 5, n <= 10
    for d in range(1, 6):
        n = 10
        X = moment_points(MomentSpec(d, range(1, n + 1)))
        for combo in itertools.combinations(range(n), d + 1):
            assert orientation([X.points[i] for i in combo], d) == 1


def test_side_of_examples():
    h = Hyperplane([1], Rational(1, 2))
    assert h.side_of((3,)) == 1
    h2 = Hyperplane([1, 1], 1)
    assert h2.side_of((Rational(1, 2), Rational(1, 2))) == 0
    assert h2.side_of((0, 0)) == -1
    assert h2.side_of((1, 1)) == 1


def test_side_of_dimension_mismatch():
    with pytest.raises(InputError):
        Hyperplane([1, 1], 1).side_of((1,))
    with pytest.raises(InputError):
        Hyperplane([0, 0], 1)


def test_pointset_validation():
    with pytest.raises(InputError):
        PointSet(2, [(1, 2), (3,)])
    with pytest.raises(InputError):
        PointSet(0, [])
    assert len(PointSet(2, [(1, 2), (3, 4)])) == 2


def test_rational_parsing_guard():
    with pytest.raises(InputError):
        as_point((0.5, 1))
    # a zero denominator is an input error, not a ZeroDivisionError
    with pytest.raises(InputError):
        to_rational("1/0")
    with pytest.raises(InputError):
        hulls_common_point([[("1/0", 0)], [(1, 1)]])


def test_det_small():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[1, 2], [2, 4]]) == 0
