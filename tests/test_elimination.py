"""Fraction-free elimination pinned to the Fraction oracles.

The integer-tableau simplex must follow the Fraction simplex pivot for pivot
and return the same status, witness and raw multipliers; the lazy Bareiss
elimination must end as the eager one does, and its determinant must be the
Fraction determinant's exact value; the orientation signs of a set, read off
one integer lift, must be the signs of the per-tuple Fraction determinants
with a leading-1 column; and the homogeneity check, which accepts on the
positivity test's few determinants, must return what a per-tuple loop over
those signs returns, and so must the witness walk on every set it rejects.
"""

import collections
import itertools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    eager_bareiss,
    fraction_det,
    fraction_orientation,
    fraction_orientation_signs,
    fraction_simplex,
    seeded_increasing_alphas,
)
from tverlab import feasibility, kernel, ordertype
from tverlab.errors import InputError
from tverlab.feasibility import intersection_system, solve_equality_feasibility
from tverlab.kernel import (
    PointSet,
    Rational,
    det,
    orientation,
    orientation_signs,
    positivity_tests,
)
from tverlab.ordertype import (
    HomogeneityResult,
    MomentSpec,
    homogeneity_witness,
    is_order_homogeneous,
    moment_points,
)
from tverlab.search import alternating_blocks, sixteen_point_alphas


@pytest.fixture
def pivots(monkeypatch):
    """Count the integer simplex's pivots."""
    count = [0]
    original = feasibility._pivot

    def counting(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(feasibility, "_pivot", counting)
    return count


def assert_same_as_oracle(pivots, rows, rhs):
    pivots[0] = 0
    status, payload = solve_equality_feasibility(rows, rhs)
    assert (status, payload, pivots[0]) == fraction_simplex(rows, rhs)
    return status


def test_sixteen_point_system(pivots):
    X = moment_points(MomentSpec(3, sixteen_point_alphas()))
    rows, rhs = intersection_system(alternating_blocks(X, 4), 3)
    assert assert_same_as_oracle(pivots, rows, rhs) == "infeasible"


def test_moment_alternating_systems(pivots):
    rng = random.Random(11)
    statuses = set()
    for d in (1, 2, 3):
        for r in (2, 3, 4):
            for n in range(r, 13, 2):
                alphas = sorted(rng.sample(range(-40, 41), n))
                X = moment_points(MomentSpec(d, alphas))
                rows, rhs = intersection_system(alternating_blocks(X, r), d)
                statuses.add(assert_same_as_oracle(pivots, rows, rhs))
    assert statuses == {"feasible", "infeasible"}


def test_seeded_random_blocks_with_repeats(pivots):
    rng = random.Random(23)
    statuses = set()
    for trial in range(120):
        d = rng.randint(1, 3)
        r = rng.randint(2, 4)
        if trial % 2:
            # few distinct points drawn repeatedly: ties in the ratio test
            pool = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(3)]
            pts = [rng.choice(pool) for _ in range(rng.randint(r, 10))]
        else:
            pts = [
                tuple(Rational(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
                for _ in range(rng.randint(r, 10))
            ]
        blocks = [pts[k::r] for k in range(r)]
        rows, rhs = intersection_system(blocks, d)
        statuses.add(assert_same_as_oracle(pivots, rows, rhs))
    assert statuses == {"feasible", "infeasible"}


def test_degenerate_ends_read_off_the_tableau(monkeypatch):
    # a feasible end whose final basis keeps an artificial, basic at zero:
    # the witness read off the tableau skips that row and is still the
    # Fraction simplex's; the final basis is replayed from the pivots
    steps = []
    original = feasibility._pivot

    def recording(tableau, obj, row, col, denom):
        steps.append((row, col))
        return original(tableau, obj, row, col, denom)

    monkeypatch.setattr(feasibility, "_pivot", recording)
    rng = random.Random(29)
    # the collinear set with a repeated point that CI's intersect runs
    cases = [([(0, 0), (1, 1), (2, 2), (1, 1)], 2, 2)]
    for _ in range(80):
        d, r = rng.randint(1, 3), rng.randint(2, 4)
        pool = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(3)]
        cases.append(([rng.choice(pool) for _ in range(rng.randint(r, 10))], d, r))
    degenerate = []
    for pts, d, r in cases:
        rows, rhs = intersection_system([pts[k::r] for k in range(r)], d)
        steps.clear()
        status, payload = solve_equality_feasibility(rows, rhs)
        assert (status, payload, len(steps)) == fraction_simplex(rows, rhs), pts
        basis = list(range(len(rows[0]), len(rows[0]) + len(rows)))
        for row, col in steps:
            basis[row] = col
        degenerate.append(status == "feasible" and max(basis) >= len(rows[0]))
    assert degenerate[0] and sum(degenerate) >= 10, sum(degenerate)


def test_negative_rhs_and_mixed_denominators(pivots):
    rng = random.Random(31)
    flipped = 0
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        # every entry gets its own denominator: scaling row by row would
        # change the reduced-cost signs, scaling column by column keeps them
        rows = [
            [Rational(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(m)
        ]
        rhs = [Rational(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(m)]
        flipped += any(b < 0 for b in rhs)
        assert_same_as_oracle(pivots, rows, rhs)
    assert flipped > 100


def test_integer_and_string_entries(pivots):
    rows = [[1, 2, "3/2"], [-1, "1/3", 4]]
    assert assert_same_as_oracle(pivots, rows, [2, "-5/7"]) == "feasible"


def test_empty_and_ragged_systems():
    assert solve_equality_feasibility([], []) == ("feasible", [])
    assert fraction_simplex([], []) == ("feasible", [], 0)
    ragged = [[1, 2], [3]]
    with pytest.raises(InputError):
        solve_equality_feasibility(ragged, [1, 1])
    with pytest.raises(InputError):
        fraction_simplex(ragged, [1, 1])


def random_matrix(rng, n):
    return [
        [Rational(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
        for _ in range(n)
    ]


def test_det_matches_fraction_oracle():
    rng = random.Random(7)
    for _ in range(300):
        M = random_matrix(rng, rng.randint(1, 5))
        assert det(M) == fraction_det(M)


def test_det_singular_matrices():
    rng = random.Random(8)
    for n in range(2, 6):
        for _ in range(20):
            M = random_matrix(rng, n)
            a, b = rng.sample(range(n), 2)
            k = Rational(rng.randint(-3, 3), rng.randint(1, 3))
            M[b] = [k * v for v in M[a]]
            assert det(M) == fraction_det(M) == 0


def test_det_needs_row_swaps():
    rng = random.Random(9)
    for n in range(2, 6):
        for _ in range(20):
            M = random_matrix(rng, n)
            for row in M[: n - 1]:
                row[0] = Rational(0)
            value = det(M)
            assert value == fraction_det(M)
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_det_small_sizes():
    assert det([]) == fraction_det([]) == 1
    assert det([[Rational(-3, 7)]]) == Rational(-3, 7)
    assert det([[0]]) == 0
    with pytest.raises(InputError):
        det([[1, 2], [3]])


@st.composite
def integer_systems(draw):
    """``(rows, width)``: a tall, wide or square integer matrix, entries
    mostly 0 and +-1 and both signs, so pivots are often negative, with at
    times a zero column, a zero row or a row that is a combination of two
    others, and the width of its eliminated part."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    entry = st.one_of(st.sampled_from((0, 0, 1, -1, 2, -3)), st.integers(-40, 40))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m and n and draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = 0
    if m and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [0] * n
    if m >= 2 and draw(st.booleans()):
        a, b, c = (draw(st.integers(0, m - 1)) for _ in range(3))
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[c] = [x * u + y * v for u, v in zip(rows[a], rows[b])]
    return rows, draw(st.integers(0, n))


# row 3 skips the pivots 1 and -3, so it is brought up by a factor of -3
# when it pivots; row 5 skips every pivot and is past the rank
@example(([[1, 0, 2, 1], [0, -3, 1, 2], [0, 0, 5, 1], [2, 4, 1, 3], [0, 0, 0, 7]], 3))
@given(integer_systems())
@settings(max_examples=300, deadline=None)
def test_lazy_bareiss_ends_as_the_eager_one(system):
    # the same rank, swap sign, last pivot and final matrix as updating every
    # row at every pivot; on a square matrix, det is the Fraction one
    rows, width = system
    lazy, eager = [list(row) for row in rows], [list(row) for row in rows]
    assert kernel._bareiss(lazy, width) == eager_bareiss(eager, width)
    assert lazy == eager
    if all(len(row) == len(rows) for row in rows):
        assert det(rows) == fraction_det(rows)


def mixed_points(rng, n, d):
    """Points whose columns have their own denominators, signs mixed, plus a
    point collinear with two others and a repeated point."""
    denominators = [rng.sample(range(1, 13), 3) for _ in range(d)]
    pts = [
        tuple(Rational(rng.randint(-6, 6), rng.choice(denominators[c])) for c in range(d))
        for _ in range(n - 2)
    ]
    p, q = rng.sample(pts, 2)
    t = Rational(rng.randint(-3, 3), rng.randint(1, 4))
    pts.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
    pts.append(rng.choice(pts))
    rng.shuffle(pts)
    return pts


def oracle_homogeneity(points, d):
    """The homogeneity check as a per-tuple loop over Fraction determinants:
    its verdict and the witness of a set it rejects, else None."""
    if len(points) < d + 1:
        return HomogeneityResult(True, None, trivial=True), None
    first = None
    for indices, s in fraction_orientation_signs(points, d):
        if s == 0:
            return HomogeneityResult(False, None), ((indices, 0),)
        if first is None:
            first = (indices, s)
        elif s != first[1]:
            return HomogeneityResult(False, None), (first, (indices, s))
    return HomogeneityResult(True, first[1]), None


def homogeneity_answer(X):
    """The verdict of X, and the witness that ``homog`` prints with it."""
    result = is_order_homogeneous(X)
    return result, None if result.homogeneous else homogeneity_witness(X)


def clustered_moment_points(rng, n, d, eps=Rational(1, 1000)):
    """Moment points on two clusters of three parameters ``eps`` apart at
    seeded integer centres, plus a seeded integer tail: the shape of the sets
    whose homogeneity the certify benchmark checks."""
    centres = rng.sample(range(-64, 65), n - 4)
    alphas = [c + k * eps for c in centres[:2] for k in range(3)] + centres[2:]
    return list(moment_points(MomentSpec(d, sorted(alphas))).points)


def degenerate_points(rng, d):
    """2d + 2 points (five at d = 1), one of them repeated d places later and
    one collinear with two others, so that some prefix of the walk first
    loses rank at each depth 1..d (a repeated point makes a zero row)."""
    n = max(2 * d + 2, 5)
    pts = [tuple(Rational(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(d))
           for _ in range(n)]
    a = rng.randrange(n - 2 * d + 1)
    pts[a + d] = pts[a]
    x, y, z = sorted(rng.sample([k for k in range(n) if k not in (a, a + d)], 3))
    t = Rational(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
    pts[z] = tuple(p + t * (q - p) for p, q in zip(pts[x], pts[y]))
    return pts


def vanishing_depth(pts, indices):
    """Least k such that the first k + 1 points of the 1-based tuple are
    affinely dependent (their difference rows have a zero Gram determinant):
    the depth at which the prefix wedge of the walk becomes zero."""
    base = pts[indices[0] - 1]
    rows = []
    for k, j in enumerate(indices[1:], 1):
        rows.append([a - b for a, b in zip(pts[j - 1], base)])
        if fraction_det([[sum(map(operator.mul, u, v)) for v in rows] for u in rows]) == 0:
            return k
    return None


def homogeneity_cases(seed):
    """Seeded sets in d = 1..5: mixed-denominator sets with degeneracies,
    moment sets in both orders, moment sets with one point moved, clustered
    moment sets and sets degenerate at every depth of the walk."""
    rng = random.Random(seed)
    for d in range(1, 6):
        n = rng.randint(d + 3, d + 6)
        yield d, mixed_points(rng, n, d)
        alphas = [a / rng.randint(1, 5) for a in seeded_increasing_alphas(seed * 10 + d, n, -9, 9)]
        alphas = sorted(set(alphas))
        moment = list(moment_points(MomentSpec(d, alphas)).points)
        yield d, moment
        yield d, moment[::-1]
        moved = list(moment)
        k = rng.randrange(len(moved))
        moved[k] = tuple(c + Rational(rng.randint(-4, 4), rng.randint(1, 3)) for c in moved[k])
        yield d, moved
        yield d, clustered_moment_points(rng, d + 5, d)
        yield d, degenerate_points(rng, d)


@pytest.mark.parametrize("seed", range(8))
def test_orientation_signs_match_fraction_oracle(seed):
    signs_seen, depths = set(), {}
    for d, pts in homogeneity_cases(seed):
        got = list(orientation_signs(PointSet(d, pts)))
        assert got == list(fraction_orientation_signs(pts, d))
        signs_seen.update(s for _, s in got)
        depths.setdefault(d, set()).update(
            vanishing_depth(pts, indices) for indices, s in got if s == 0)
    assert signs_seen == {-1, 0, 1}
    assert depths == {d: set(range(1, d + 1)) for d in range(1, 6)}


@pytest.mark.parametrize("seed", range(8))
def test_homogeneity_matches_per_tuple_loop(seed):
    for d, pts in homogeneity_cases(seed):
        assert homogeneity_answer(PointSet(d, pts)) == oracle_homogeneity(pts, d)


def rectangle_sets(n, k):
    """The subsets ``[1, a] + [b, b + k - a - 1]`` of the positivity test, in
    its order: ``(1, ..., k)``, then every later window for a = 0, ..., k - 1."""
    sets = [tuple(range(1, k + 1))]
    for a in range(k):
        for b in range(a + 2, n - k + a + 2):
            sets.append(tuple(range(1, a + 1)) + tuple(range(b, b + k - a)))
    return sets


def smallest_cases(seed):
    """Sets of d + 1 and d + 2 points in d = 1..5, where the windows of a = 0
    and of a = 1 number none or one each: seeded mixed-denominator points
    and moment points."""
    rng = random.Random(seed)
    for d in range(1, 6):
        for n in (d + 1, d + 2):
            yield d, [tuple(Rational(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d))
                      for _ in range(n)]
            q = rng.randint(1, 5)
            alphas = [a / q for a in seeded_increasing_alphas(seed * 10 + d, n, -9, 9)]
            yield d, list(moment_points(MomentSpec(d, alphas)).points)


@pytest.mark.parametrize("seed", range(8))
def test_positivity_tests_are_exact_determinants(seed):
    # k(n - k) + 1 subsets, each with the Fraction determinant of its tuple
    # times the product of the lift's column scales
    for d, pts in itertools.chain(homogeneity_cases(seed), smallest_cases(seed)):
        scale = math.prod(math.lcm(*(c.denominator for c in column)) for column in zip(*pts))
        sets = rectangle_sets(len(pts), d + 1)
        assert len(sets) == (d + 1) * (len(pts) - d - 1) + 1
        assert list(positivity_tests(PointSet(d, pts))) == [
            (indices, scale * fraction_det([(Rational(1),) + pts[i - 1] for i in indices]))
            for indices in sets
        ]


def spiral_points(rng, n):
    """n points on an outward spiral, rounded to thousandths, turning through
    0.8 to 1.6 turns: locally convex, and past one turn not homogeneous."""
    turn = 2 * math.pi * rng.uniform(0.8, 1.6) / (n - 1)
    growth = rng.uniform(0, 2)
    return [tuple(Rational(round(1000 * (10 + growth * i) * f(turn * i)), 1000)
                  for f in (math.cos, math.sin))
            for i in range(n)]


def near_homogeneous_cases(seed):
    """Seeded sets on the edge of homogeneity: moment sets in d = 1..4,
    n <= 12, with every coordinate moved by a seeded multiple of a small
    rational, and planar spirals; each read forwards, backwards and
    reflected in the first coordinate, and with one point repeated later or
    replaced by an affine combination of d others."""
    rng = random.Random(seed)
    bases = []
    for d in range(1, 5):
        n = rng.randint(d + 2, 12)
        alphas = sorted(Rational(a, 4) for a in rng.sample(range(-16, 17), n))
        eps = Rational(1, rng.choice([4, 40, 400, 4000]))
        bases.append((d, [tuple(c + eps * rng.randint(-2, 2) for c in p)
                          for p in moment_points(MomentSpec(d, alphas)).points]))
    for _ in range(2):
        bases.append((2, spiral_points(rng, rng.randint(6, 12))))
    for d, pts in bases:
        yield d, pts
        yield d, pts[::-1]
        yield d, [(-p[0],) + p[1:] for p in pts]
        k = rng.randrange(len(pts) - 1)
        yield d, pts[:k + 1] + [pts[k]] + pts[k + 1:]
        others = rng.sample(range(len(pts)), d)
        weights = [Rational(rng.randint(1, 3)) for _ in others]
        weights[-1] = 1 - sum(weights[:-1])
        moved = list(pts)
        moved[rng.randrange(len(pts))] = tuple(
            sum(w * pts[i][c] for w, i in zip(weights, others)) for c in range(d))
        yield d, moved


def test_homogeneity_on_the_edge_matches_per_tuple_loop():
    # 360 sets: both signs and both kinds of witness occur
    kinds = collections.Counter()
    for seed in range(12):
        for d, pts in near_homogeneous_cases(seed):
            result, witness = homogeneity_answer(PointSet(d, pts))
            assert (result, witness) == oracle_homogeneity(pts, d)
            if result.homogeneous:
                kinds[result.sign] += 1
            else:
                kinds["zero" if len(witness) == 1 else "mixed"] += 1
    assert set(kinds) == {1, -1, "zero", "mixed"}


def test_windows_alone_accept_spirals_past_one_turn():
    # a control for the data: a test of consecutive windows alone accepts
    # spirals that are not homogeneous, which the positivity test rejects
    rng = random.Random(0)
    homogeneous, fooled = 0, 0
    for _ in range(40):
        pts = spiral_points(rng, rng.randint(6, 12))
        result, witness = homogeneity_answer(PointSet(2, pts))
        assert (result, witness) == oracle_homogeneity(pts, 2)
        windows = {fraction_orientation(pts[b:b + 3], 2) for b in range(len(pts) - 2)}
        homogeneous += result.homogeneous
        fooled += windows == {1} and not result.homogeneous
    assert homogeneous > 0 and fooled > 0


@pytest.mark.parametrize("d", range(1, 5))
def test_reversed_moment_set_orients_by_reversal_parity(d):
    # reversing d+1 points is floor((d+1)/2) transpositions
    pts = list(moment_points(MomentSpec(d, [-5, Rational(-1, 3), 0, Rational(7, 4), 3, 8])).points)
    expected = -1 if (d + 1) // 2 % 2 else 1
    result = is_order_homogeneous(PointSet(d, pts[::-1]))
    assert result.homogeneous and result.sign == expected
    assert {s for _, s in fraction_orientation_signs(pts[::-1], d)} == {expected}


def test_orientation_is_the_single_tuple_case():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randint(1, 4)
        pts = mixed_points(rng, d + 3, d)[: d + 1]
        assert orientation(pts, d) == fraction_orientation(pts, d)
        assert list(orientation_signs(PointSet(d, pts))) == [
            (tuple(range(1, d + 2)), orientation(pts, d))]


def test_orientation_signs_are_lazy():
    # C(200, 5) = 2,535,650,040 subsets; the first few come without the rest
    pts = list(moment_points(MomentSpec(4, range(200))).points)
    first = list(itertools.islice(orientation_signs(PointSet(4, pts)), 10))
    assert first == [((1, 2, 3, 4, j), 1) for j in range(5, 15)]


def count_signs(monkeypatch):
    """The positivity test's subsets and the orientation signs that the
    homogeneity check reads, in order."""
    read = {"tests": [], "signs": []}
    tests, signs = ordertype.positivity_tests, ordertype.orientation_signs

    def counted(name, generator):
        def wrapped(*args):
            for indices, value in generator(*args):
                read[name].append(indices)
                yield indices, value
        return wrapped

    monkeypatch.setattr(ordertype, "positivity_tests", counted("tests", tests))
    monkeypatch.setattr(ordertype, "orientation_signs", counted("signs", signs))
    return read


def test_homogeneity_stops_in_the_first_row(monkeypatch):
    # point 7 moved to the parameter 1/2 turns (1, 2, 3, 4, 7) negative; the
    # check stops at its third sign, not after all C(200, 5) of the set
    pts = list(moment_points(MomentSpec(4, range(200))).points)
    pts[6] = moment_points(MomentSpec(4, [Rational(1, 2)])).points[0]
    read = count_signs(monkeypatch)
    result, witness = homogeneity_answer(PointSet(4, pts))
    assert (result, witness) == oracle_homogeneity(pts, 4)
    assert witness == (((1, 2, 3, 4, 5), 1), ((1, 2, 3, 4, 7), -1))
    assert read["signs"] == [(1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 4, 7)]


def test_homogeneity_accepts_on_the_positivity_test(monkeypatch):
    # 200 moment points in R^4: accepted on 5 * 195 + 1 = 976 determinants,
    # where the scan would read C(200, 5) = 2,535,650,040, and no sign
    pts = list(moment_points(MomentSpec(4, range(200))).points)
    read = count_signs(monkeypatch)
    assert is_order_homogeneous(PointSet(4, pts)) == HomogeneityResult(True, 1)
    assert len(read["tests"]) == 5 * 195 + 1 == 976
    assert read["signs"] == []


def pulled_moment_points(d, alphas, below):
    """Moment points whose last point is moved down in the last coordinate
    to ``below`` under the hyperplane through the d points before it.

    That hyperplane meets the last point's vertical line at
    ``a^d - prod(a - b)``, a the last parameter and b the d before it: the
    monic polynomial of degree d that vanishes at them is the last
    coordinate's height above the hyperplane.
    """
    pts = list(moment_points(MomentSpec(d, alphas)).points)
    a = alphas[-1]
    plane = a ** d - math.prod(a - b for b in alphas[-d - 1:-1])
    pts[-1] = pts[-1][:-1] + (plane - below,)
    return pts


def test_homogeneity_names_the_last_subset_of_moved40():
    # the installed-script CI set: 40 moment points in R^3, the last moved
    # from z = 6859 to 6852, 1 under the plane of points 37-39 and above
    # every other; its witness is the last of the 91,390 subsets
    pts = pulled_moment_points(3, range(-20, 20), 1)
    assert pts[-1] == (19, 361, 6852)
    assert homogeneity_answer(PointSet(3, pts)) == (HomogeneityResult(False, None), (
        ((1, 2, 3, 4), 1), ((37, 38, 39, 40), -1)))


@pytest.mark.parametrize("d", range(2, 6))
def test_homogeneity_witness_in_the_last_row(d):
    # the last point pulled just across the hyperplane of its last window
    # flips only the last subset of the walk from the last base point
    n = 10
    pts = pulled_moment_points(d, range(1, n + 1), Rational(1, 2))
    result, witness = homogeneity_answer(PointSet(d, pts))
    assert (result, witness) == oracle_homogeneity(pts, d)
    assert witness == ((tuple(range(1, d + 2)), 1), (tuple(range(n - d, n + 1)), -1))


def test_orientation_signs_input_validation():
    with pytest.raises(InputError):
        list(orientation_signs(PointSet(2, [(0, 0), (1, 0), (0, 1, 5)])))
    assert list(orientation_signs(PointSet(2, [(0, 0), (1, 0)]))) == []
    with pytest.raises(InputError):
        orientation([()], 0)
