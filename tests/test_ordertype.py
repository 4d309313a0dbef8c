import itertools

import pytest

from oracles import (
    brute_force_facets,
    seeded_general_position_points,
    seeded_increasing_alphas,
)
from tverlab.errors import DegenerateInputError, InputError
from tverlab.kernel import Hyperplane, PointSet, Rational
from tverlab.ordertype import (
    MomentSpec,
    gale_facets,
    homogeneity_witness,
    is_neighborly,
    is_order_homogeneous,
    moment_points,
    path_crossings,
)

SIXTEEN = (-4, -3, -2, -2, -2, -1, -1, -1, 0, 1, 2, 6, 6, 7, 8, 9)


class TestMomentPoints:
    def test_single_alpha_d3(self):
        X = moment_points(MomentSpec(3, [2]))
        assert X.points == ((Rational(2), Rational(4), Rational(8)),)

    def test_d1_list(self):
        X = moment_points(MomentSpec(1, [1, 2, 3]))
        assert [p[0] for p in X.points] == [1, 2, 3]

    def test_distinct_flag_rejects_repeats(self):
        with pytest.raises(InputError):
            MomentSpec(3, SIXTEEN)

    def test_exact_rational_alpha(self):
        X = moment_points(MomentSpec(2, [Rational(1, 3)]))
        assert X.points[0] == (Rational(1, 3), Rational(1, 9))


class TestHomogeneity:
    def test_moment_curve_homogeneous_plus(self):
        for d in range(1, 5):
            for n in range(d + 1, 10):
                X = moment_points(MomentSpec(d, range(1, n + 1)))
                result = is_order_homogeneous(X)
                assert result.homogeneous and result.sign == 1

    def test_seeded_moment_curves(self):
        for d in (2, 3):
            for seed in range(5):
                alphas = seeded_increasing_alphas(seed, 7)
                X = moment_points(MomentSpec(d, alphas))
                assert is_order_homogeneous(X).sign == 1

    def test_square_positively_oriented(self):
        X = PointSet(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
        result = is_order_homogeneous(X)
        assert result.homogeneous and result.sign == 1

    def test_interior_point_violation(self):
        X = PointSet(2, [(0, 0), (2, 0), (1, 3), (1, 1)])
        result = is_order_homogeneous(X)
        assert not result.homogeneous
        witness = homogeneity_witness(X)
        assert witness is not None
        # witness is a pair of subsets with opposite orientation signs
        (idx_a, sign_a), (idx_b, sign_b) = witness
        assert sign_a == -sign_b != 0

    def test_zero_orientation_is_violation(self):
        X = PointSet(2, [(0, 0), (1, 1), (2, 2), (0, 1)])
        result = is_order_homogeneous(X)
        assert not result.homogeneous
        assert homogeneity_witness(X)[0][1] == 0

    def test_trivial_below_dim(self):
        X = PointSet(3, [(0, 0, 0), (1, 1, 1)])
        result = is_order_homogeneous(X)
        assert result.homogeneous and result.trivial and result.sign is None

    def test_brute_force_agreement_small(self):
        # against direct definition on seeded sets
        for seed in range(8):
            X = seeded_general_position_points(seed, 6, 2)
            signs = {
                1
                if orient > 0
                else -1
                for orient in (
                    _orient(X, combo) for combo in itertools.combinations(range(6), 3)
                )
            }
            expect = len(signs) == 1
            assert is_order_homogeneous(X).homogeneous == expect


def _orient(X, combo):
    from tverlab.kernel import orientation

    return orientation([X.points[i] for i in combo], X.dim)


class TestGaleFacets:
    def test_pentagon(self):
        assert gale_facets(5, 2) == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]

    def test_counts(self):
        assert len(gale_facets(6, 3)) == 8  # Euler: 2n - 4
        assert len(gale_facets(7, 4)) == 14

    def test_precondition(self):
        with pytest.raises(InputError):
            gale_facets(3, 3)

    def test_matches_brute_force_exhaustively(self):
        # gale_facets == hull facet enumeration on moment points, d <= 5, n <= 10
        for d in range(1, 6):
            for n in range(d + 1, 11):
                X = moment_points(MomentSpec(d, range(1, n + 1)))
                assert gale_facets(n, d) == sorted(brute_force_facets(X)), (d, n)


class TestNeighborly:
    def test_examples(self):
        assert is_neighborly(6, 2)
        assert is_neighborly(8, 4)
        assert is_neighborly(9, 6)
        assert is_neighborly(3, 1)  # k = 0: vacuous

    def test_pair_coverage_oracle(self):
        # d=4: every pair of indices must appear in some facet
        facets = gale_facets(8, 4)
        for pair in itertools.combinations(range(1, 9), 2):
            assert any(set(pair) <= set(f) for f in facets)


class TestPathCrossings:
    def test_square_vertical_cut(self):
        X = PointSet(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
        assert path_crossings(X, Hyperplane([1, 0], Rational(1, 2))) == (1, 3)

    def test_moment_d3(self):
        X = moment_points(MomentSpec(3, [-2, -1, 1, 2]))
        assert path_crossings(X, Hyperplane([0, 1, 0], 2)) == (1, 3)

    def test_all_one_side(self):
        X = PointSet(2, [(0, 0), (1, 0), (1, 1)])
        assert path_crossings(X, Hyperplane([1, 0], 100)) == ()

    def test_vertex_on_hyperplane_rejected(self):
        X = PointSet(2, [(0, 0), (1, 0)])
        with pytest.raises(DegenerateInputError):
            path_crossings(X, Hyperplane([1, 0], 1))
        with pytest.raises(InputError):
            path_crossings(X, Hyperplane([1, 0, 0], 7))

    def test_homogeneous_paths_cross_at_most_d(self):
        # seeded hyperplanes against moment paths: crossings <= d
        import random

        rng = random.Random(7)
        for d in (2, 3):
            X = moment_points(MomentSpec(d, range(1, 9)))
            done = 0
            while done < 100:
                normal = [rng.randint(-9, 9) for _ in range(d)]
                if not any(normal):
                    continue
                h = Hyperplane(normal, Rational(rng.randint(-40, 40), 3))
                try:
                    edges = path_crossings(X, h)
                except DegenerateInputError:
                    continue
                assert len(edges) <= d
                done += 1
