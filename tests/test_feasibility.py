import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dense_float_basis,
    fraction_det,
    fraction_farkas_replays,
    fraction_solution,
    fraction_witness_replays,
    hulls_intersect_2d,
    interval_common_point,
)
from tverlab import feasibility, search
from tverlab.errors import InputError, InternalError
from tverlab.feasibility import (
    EmptyBlockCertificate,
    FarkasCertificate,
    Witness,
    hulls_common_point,
    intervals_common_point,
    screen,
    solve_equality_feasibility,
    verify_outcome,
)
from tverlab.kernel import PointSet, Rational, det
from tverlab.labels import split
from tverlab.ordertype import MomentSpec, moment_points
from tverlab.search import (
    SearchStrategy,
    alpha_candidates,
    alternating_blocks,
    split_repeats,
    sixteen_point_alphas,
)


def blocks_1d(*groups):
    return [[(Rational(v),) for v in g] for g in groups]


class TestSimplexCore:
    def test_trivially_feasible(self):
        status, x = solve_equality_feasibility([[1, 1]], [1])
        assert status == "feasible"
        assert x[0] + x[1] == 1 and all(v >= 0 for v in x)

    def test_infeasible_with_farkas(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
        rows = [[1, 1], [1, 1]]
        rhs = [1, 2]
        status, u = solve_equality_feasibility(rows, rhs)
        assert status == "infeasible"
        for j in range(2):
            assert sum(u[i] * rows[i][j] for i in range(2)) <= 0
        assert sum(u[i] * rhs[i] for i in range(2)) > 0

    def test_negative_rhs_flip(self):
        status, x = solve_equality_feasibility([[-1]], [-3])
        assert status == "feasible" and x[0] == 3

    def test_degenerate_cycling_guard(self):
        # Klee-Minty-ish degenerate system still terminates under Bland
        rows = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
        rhs = [0, 0, 0]
        status, x = solve_equality_feasibility(rows, rhs)
        assert status == "feasible"

    def test_unread_final_basis_is_a_fault(self, monkeypatch):
        # the simplex's final basis always reads; one the reader refuses is a
        # bug, never a verdict
        monkeypatch.setattr(feasibility, "_basis_dual", lambda *args: None)
        with pytest.raises(InternalError):
            solve_equality_feasibility([[1, 1], [1, 1]], [1, 2])


class TestHullsCommonPoint:
    def test_crossing_diagonals(self):
        out = hulls_common_point([[(0, 0), (1, 1)], [(1, 0), (0, 1)]])
        assert out.feasible
        assert out.point == (Rational(1, 2), Rational(1, 2))

    def test_disjoint_intervals(self):
        blocks = blocks_1d([0, 1], [2, 3])
        out = hulls_common_point(blocks)
        assert not out.feasible
        assert isinstance(out, FarkasCertificate)
        assert verify_outcome(blocks, out)

    def test_d1_alternating_three_blocks(self):
        blocks = blocks_1d([1, 4], [2, 5], [3])
        out = hulls_common_point(blocks)
        assert out.feasible and out.point == (3,)

    def test_empty_block_convention(self):
        out = hulls_common_point([[(0, 0)], []], dim=2)
        assert not out.feasible
        assert out.block_index == 2

    def test_witness_replays(self):
        blocks = [[(0, 0), (2, 0), (1, 2)], [(1, 0), (0, 2), (2, 2)]]
        out = hulls_common_point(blocks)
        assert out.feasible and verify_outcome(blocks, out)

    def test_farkas_multipliers_are_coprime_integers(self):
        out = hulls_common_point(blocks_1d([0, 1], [5, 6]))
        u = out.multipliers
        import math

        assert all(v.denominator == 1 for v in u)
        g = 0
        for v in u:
            g = math.gcd(g, abs(int(v)))
        assert g == 1


class TestReplay:
    """``verify_outcome``: the gate of ``hulls_common_point``, then the
    evidence's own replay."""

    def test_one_gate_for_deciding_and_replaying(self):
        with pytest.raises(InputError) as decided:
            hulls_common_point([])
        with pytest.raises(InputError) as replayed:
            verify_outcome([], Witness((), ()), 2)
        assert str(decided.value) == str(replayed.value)
        # a dim of 0, given or inferred, no dim to infer, and mixed dimensions
        refused = (([[]], 0), ([[(0,)], []], 0), ([[()]], None), ([[], []], None),
                   ([[(0, 0)], [(1,)]], None))
        for blocks, dim in refused:
            with pytest.raises(InputError):
                hulls_common_point(blocks, dim)
            r = len(blocks)
            for evidence in (Witness((), ((),) * r), FarkasCertificate((1,) * r),
                             EmptyBlockCertificate(r)):
                with pytest.raises(InputError):
                    verify_outcome(blocks, evidence, dim)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_farkas_replay_reads_the_dense_system(self, data):
        # true exactly when u . b > 0 and u . A_j <= 0 for every column of
        # the system hulls_common_point solves, for random multipliers and
        # for the certificate it returns
        r, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        point = st.tuples(*[st.integers(-4, 4)] * d)
        blocks = data.draw(st.lists(st.lists(point, max_size=4), min_size=r, max_size=r))
        rows, rhs = feasibility.intersection_system(blocks, d)
        candidates = [data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                         max_size=len(rows)))]
        outcome = hulls_common_point(blocks, d)
        if isinstance(outcome, FarkasCertificate):
            candidates.append(list(outcome.multipliers))
        for u in candidates:
            dense = replays_densely(rows, rhs, u)
            assert verify_outcome(blocks, FarkasCertificate(tuple(u)), d) == dense, u
            assert not verify_outcome(blocks, FarkasCertificate(tuple(u) + (1,)), d)
        if isinstance(outcome, Witness):
            assert verify_outcome(blocks, outcome, d)
            # move half the weight of a point onto a different point of its
            # block: still convex, another combination
            for k, (block, coeffs) in enumerate(zip(blocks, outcome.coefficients)):
                i = next(i for i, c in enumerate(coeffs) if c)
                j = next((j for j, p in enumerate(block) if p != block[i]), None)
                if j is not None:
                    moved = list(coeffs)
                    moved[i] -= coeffs[i] / 2
                    moved[j] += coeffs[i] / 2
                    perturbed = list(outcome.coefficients)
                    perturbed[k] = tuple(moved)
                    assert not verify_outcome(blocks, Witness(outcome.point, tuple(perturbed)), d)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_integer_replays_match_the_fraction_oracle(self, data):
        # the replays lift to integers; they must agree with the rational
        # conditions on points and evidence of mixed denominators, on empty
        # blocks, on lists of the wrong length and on tampered evidence
        r, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rational = st.builds(Rational, st.integers(-6, 6), st.integers(1, 6))
        point = st.tuples(*[rational] * d)
        blocks = data.draw(st.lists(st.lists(point, max_size=4), min_size=r, max_size=r))
        outcome = hulls_common_point(blocks, d)
        witnesses, multipliers = [], []
        if isinstance(outcome, Witness):
            witnesses.append(outcome)
            x, coeffs = outcome.point, outcome.coefficients
            first = coeffs[0]
            witnesses.append(Witness((x[0] + 1,) + x[1:], coeffs))
            witnesses.append(Witness(x, ((first[0] + 1,) + first[1:],) + coeffs[1:]))
            if len(first) > 1:
                shifted = (first[0] - 2, first[1] + 2) + first[2:]
                witnesses.append(Witness(x, (shifted,) + coeffs[1:]))
        elif isinstance(outcome, FarkasCertificate):
            u = outcome.multipliers
            multipliers += [u, tuple(-v for v in u), u[:-1]]
        # drawn evidence: coefficient and multiplier counts off by up to one
        lengths = st.sampled_from([len(b) for b in blocks] + [0, 1, 5])
        coeffs = tuple(tuple(data.draw(st.lists(rational, min_size=n, max_size=n)))
                       for n in (data.draw(lengths) for _ in range(r)))
        witnesses.append(Witness(data.draw(st.tuples(*[rational] * data.draw(
            st.sampled_from([d, d, d + 1])))), coeffs))
        count = r + (r - 1) * d + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
        multipliers.append(tuple(data.draw(st.lists(rational, min_size=count, max_size=count))))
        for witness in witnesses:
            assert verify_outcome(blocks, witness, d) == fraction_witness_replays(
                witness.point, witness.coefficients, blocks, d), witness
        for u in multipliers:
            assert verify_outcome(blocks, FarkasCertificate(u), d) == fraction_farkas_replays(
                u, blocks, d), u
        if not isinstance(outcome, EmptyBlockCertificate):
            assert verify_outcome(blocks, outcome, d)


def confirmation_cases():
    """Seeded (blocks, dim) cases: alternating partitions of moment sets,
    clustered as the search draws them and plain, then repeated and
    collinear points, and the sixteen-point infeasible system."""
    rng = random.Random(41)
    cases = []
    for d in (2, 3, 4):
        for r in (2, 3, 4):
            for n in (r, (d + 1) * r - 1, (d + 2) * r):
                for clustered in (False, True):
                    values = sorted(rng.sample(range(-20, 21), n))
                    if clustered:
                        values = sorted(rng.choice(values[: max(1, n // 3)]) if i % 2 else v
                                        for i, v in enumerate(values))
                    alphas = split_repeats(values, Rational(1, 1000))
                    cases.append((alternating_blocks(moment_points(MomentSpec(d, alphas)), r), d))
    for trial in range(60):
        d, r = rng.randint(1, 3), rng.randint(2, 4)
        if trial % 2:
            pool = [tuple(Rational(rng.randint(-3, 3)) for _ in range(d)) for _ in range(3)]
            pts = [rng.choice(pool) for _ in range(rng.randint(r, 10))]
        else:  # points on one line through the origin in R^d
            direction = [Rational(rng.randint(-3, 3)) for _ in range(d)]
            pts = [tuple(Rational(rng.randint(-5, 5), rng.randint(1, 3)) * c for c in direction)
                   for _ in range(rng.randint(r, 10))]
        cases.append(([pts[k::r] for k in range(r)], d))
    X = moment_points(MomentSpec(3, sixteen_point_alphas()))
    cases.append((alternating_blocks(X, 4), 3))
    return cases


def is_feasible_point(rows, rhs, x):
    """``A x = b`` and ``x >= 0``, recomputed exactly."""
    return all(v >= 0 for v in x) and all(
        sum((a * v for a, v in zip(row, x)), Rational(0)) == b for row, b in zip(rows, rhs)
    )


def lift(blocks, d):
    """The blocks' points lifted as ``PointSet.lifted`` lifts them all."""
    ints = iter(PointSet(d, [p for block in blocks for p in block]).lifted)
    return [[next(ints) for _ in block] for block in blocks]


def holds_a_point(blocks, d, support):
    """The canonical system of the rational blocks has a point whose
    nonzero entries are exactly the columns of ``support``, checked by the
    canonical simplex on those columns alone and recomputed exactly."""
    rows, rhs = feasibility.intersection_system(blocks, d)
    status, x_s = solve_equality_feasibility([[row[j] for j in support] for row in rows], rhs)
    if status != "feasible" or not all(v > 0 for v in x_s):
        return False
    x = [Rational(0)] * (len(rows[0]) if rows else 0)
    for j, v in zip(support, x_s):
        x[j] = v
    return is_feasible_point(rows, rhs, x)


def replays_densely(rows, rhs, u):
    """``u . b > 0`` and ``u . A_j <= 0`` for every column j of the system,
    recomputed exactly from the dense rows."""
    return sum(ui * b for ui, b in zip(u, rhs)) > 0 and all(
        sum(ui * row[j] for ui, row in zip(u, rows)) <= 0 for j in range(len(rows[0])))


def verdict_status(verdict):
    return None if verdict is None else verdict[0]


def key_columns(blocks):
    """The column of each block's first point in the canonical system."""
    return [sum(map(len, blocks[:k])) for k in range(len(blocks))]


def float_start(blocks, d):
    """The screen's float start on blocks of integer points: ``(tableau,
    basis, scales)``."""
    return feasibility._float_start(blocks, *feasibility._difference_system(blocks, d))


class TestConfirmFeasible:
    """The integer screen, ``screen``, on lifted systems."""

    def test_true_only_where_the_canonical_simplex_finds_feasible(self):
        # every verdict, feasible or infeasible, is the canonical simplex's
        tally = {}
        for blocks, d in confirmation_cases():
            status = verdict_status(screen(lift(blocks, d), d))
            canonical = hulls_common_point(blocks, d).feasible
            assert status in (None, "feasible" if canonical else "infeasible"), (blocks, d)
            tally[status, canonical] = tally.get((status, canonical), 0) + 1
        # both statuses occur, and the float basis confirms nearly every
        # feasible case, so the canonical simplex is rarely needed for them
        assert tally.get((None, False), 0) + tally.get(("infeasible", False), 0) >= 10
        assert tally.get(("feasible", True), 0) >= 9 * tally.get((None, True), 0)
        assert tally.get(("feasible", True), 0) >= 50

    def test_screens_nearly_every_infeasible_case(self):
        # the float pass's dual, weighted by its row scales, replays as a
        # Farkas vector on at least 9 in 10 infeasible cases; on the lifted
        # system, densely
        screened = infeasible = 0
        for blocks, d in confirmation_cases():
            if hulls_common_point(blocks, d).feasible:
                continue
            infeasible += 1
            lifted = lift(blocks, d)
            verdict = screen(lifted, d)
            if verdict is not None:
                screened += 1
                assert verdict[0] == "infeasible", (blocks, d)
                assert replays_densely(*feasibility.intersection_system(lifted, d), verdict[1])
        assert infeasible >= 10
        assert 10 * screened >= 9 * infeasible, (screened, infeasible)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_screen_never_contradicts_the_canonical_simplex(self, data):
        # on integer points, a verdict is the canonical simplex's, and its
        # evidence holds on the dense system
        r, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        point = st.tuples(*[st.integers(-4, 4)] * d)
        blocks = data.draw(st.lists(st.lists(point, max_size=4), min_size=r, max_size=r))
        verdict = screen(blocks, d)
        if verdict is None:
            return
        status, evidence = verdict
        assert status == hulls_common_point(blocks, d).status
        if status == "infeasible":
            assert replays_densely(*feasibility.intersection_system(blocks, d), evidence)
        else:
            assert holds_a_point(blocks, d, evidence)

    def test_confirmed_point_is_a_point_of_the_canonical_system(self):
        # the support holds a point of the unlifted system, positive on it
        confirmed = 0
        for blocks, d in confirmation_cases():
            verdict = screen(lift(blocks, d), d)
            if verdict_status(verdict) == "feasible":
                confirmed += 1
                assert holds_a_point(blocks, d, verdict[1]), (blocks, d)
        assert confirmed >= 50

    def test_sixteen_point_system_is_not_confirmed(self):
        # not confirmed feasible: screened infeasible, with multipliers that
        # replay on the dense lifted system
        lifted = search._lifted_blocks(search._lift(search.SIXTEEN_POINT_PARAMS), 3, 4)
        status, u = screen(lifted, 3)
        assert status == "infeasible"
        assert replays_densely(*feasibility.intersection_system(lifted, 3), u)

    def test_moment_sets_lift_through_their_parameters(self):
        # a draw lifted to ints is k = L a, which gives the points
        # PointSet.lifted gives, so the screen on the lifted draw decides as
        # the screen on the lifted set
        decided = set()
        for d in (1, 2, 3, 4):
            for r in (1, 2, 3, 4):
                for seed in range(3):
                    strategy = SearchStrategy(seed=seed)
                    n = 3 * r + d
                    draws = search.integer_draws(strategy, n, r)
                    for values, alphas in itertools.islice(
                            zip(draws, alpha_candidates(strategy, n, r)), 4):
                        X = moment_points(MomentSpec(d, alphas))
                        by_parameters = search._lifted_blocks(search._lift(values), d, r)
                        by_set = lift(alternating_blocks(X, r), d)
                        assert by_parameters == by_set
                        verdict = screen(by_parameters, d)
                        assert verdict == screen(by_set, d)
                        decided.add(verdict is not None)
        assert decided == {True, False}

    def test_every_proposed_basis_is_checked_exactly(self, monkeypatch):
        # whatever basis the float pass proposes, the screen solves it on
        # integers and decides only by an exact replay: the float pass
        # starts with each block's first column basic in its convexity row
        # and an artificial in every chain row, and then each subset of
        # [A | I] of small lifted systems, infeasible ones among them, is
        # proposed in turn, those of at most m columns as ending at zero and
        # every one as ending positive, with and without key columns and
        # convexity artificials; a confirmation happens only where the
        # canonical simplex says feasible, and an infeasible verdict only
        # where it says infeasible
        rng = random.Random(7)
        systems = [blocks_1d([0, 1], [2, 3]), blocks_1d([0, 2], [1, 3]),
                   blocks_1d([1, 4], [2, 5], [3])]
        for _ in range(12):
            d = rng.randint(1, 2)
            systems.append([[tuple(Rational(rng.randint(-6, 6), rng.randint(1, 3))
                                   for _ in range(d))
                             for _ in range(rng.randint(1, 3))] for _ in range(2)])
        proposed = []
        tally = {None: 0, "feasible": 0, "infeasible": 0}
        shapes = set()
        for blocks in systems:
            d = len(blocks[0][0])
            lifted = lift(blocks, d)
            rows, rhs = feasibility.intersection_system(lifted, d)
            m, n, r = len(rows), len(rows[0]), len(blocks)
            keys = key_columns(blocks)
            feasible = hulls_common_point(blocks, d).feasible
            flagged = [(basis, True) for size in range(m + 1)
                       for basis in itertools.combinations(range(n + m), size)]
            flagged += [(basis, False) for size in range(n + m + 1)
                        for basis in itertools.combinations(range(n + m), size)]
            for basis, reached_zero in flagged:
                def propose(tableau, start, b=basis, z=reached_zero):
                    assert start == keys + list(range(n + r, n + m))
                    proposed.append(b)
                    return list(b), z

                monkeypatch.setattr(feasibility, "_float_basis", propose)
                verdict = screen(lifted, d)
                assert proposed[-1] == basis
                shapes.add((reached_zero, any(j in keys for j in basis),
                            any(n <= j < n + r for j in basis)))
                tally[verdict_status(verdict)] += 1
                if verdict is None:
                    continue
                status, evidence = verdict
                if status == "feasible":
                    assert reached_zero and feasible, (blocks, basis)
                    assert set(evidence) <= set(basis), (blocks, basis)
                    assert holds_a_point(blocks, d, evidence), (blocks, basis)
                else:
                    assert not reached_zero and not feasible, (blocks, basis)
                    assert replays_densely(rows, rhs, evidence), (blocks, basis)
        assert all(tally.values()), tally
        assert len(shapes) == 8, shapes

    def test_float_overflow_is_unconfirmed(self):
        # rows and columns are scaled on integers before any float is
        # formed, so coordinates past the float range still decide; an rhs
        # past it, on a chain row of zeros, overflows and is unconfirmed
        big = 10 ** 400
        blocks = [[(big, 1), (-big, 1)], [(0, 1)]]
        assert screen(blocks, 2) == ("feasible", (0, 1, 2))
        assert hulls_common_point(blocks, 2).feasible
        blocks = [[(big, 1)], [(0, 1)]]
        assert screen(blocks, 2) is None
        assert not hulls_common_point(blocks, 2).feasible

    def test_empty_systems(self):
        # no blocks: the empty system (m = 0) has the empty point; an empty
        # block has no point, which the screen proves, and a one-point block
        # has that point
        assert screen([], 2) == ("feasible", ())
        status, u = screen([[(0, 0)], []], 2)
        assert status == "infeasible"
        assert replays_densely(*feasibility.intersection_system([[(0, 0)], []], 2), u)
        assert screen([[(0, 0)]], 2) == ("feasible", (0,))


def float_pass_systems():
    """Seeded ``(blocks, d)`` hull systems on integer points with no empty
    block: clustered (3,4,16) search candidates, removal sets of partitions
    of moment sets at (2,3,n) for n <= 12 and (3,3,9), random sets with
    repeated points, and systems with one block or none."""
    rng = random.Random(29)
    block_sets = []
    for seed in range(3):
        for values in itertools.islice(search.integer_draws(SearchStrategy(seed=seed), 16, 4), 20):
            block_sets.append((search._lifted_blocks(search._lift(values), 3, 4), 3))
    for d, n in [(2, 8), (2, 10), (2, 12), (3, 9)]:
        lifted = PointSet(d, [(a, a * a, a ** 3)[:d] for a in
                              sorted(rng.sample(range(-30, 31), n))]).lifted
        for _ in range(25):
            labels = [1, 2, 3] + [rng.randint(1, 3) for _ in range(n - 3)]
            rng.shuffle(labels)
            for i in rng.sample(range(n), rng.randint(0, 3)):
                labels[i] = 0
            block_sets.append((split(lifted, labels, 3), d))
    for _ in range(40):
        d, r = rng.randint(1, 3), rng.randint(2, 4)
        pool = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(4)]
        pts = [rng.choice(pool) for _ in range(rng.randint(r, 10))]
        block_sets.append(([pts[k::r] for k in range(r)], d))
    block_sets += [([[(1, 2), (3, 4)]], 2), ([[(5,)]], 1), ([], 2)]
    # an empty block is decided before any float pass
    return [(blocks, d) for blocks, d in block_sets if all(blocks)]


def seeded_int_matrix(rng, rows, cols):
    """Mostly zeros and ones, with a few larger entries."""
    return [[rng.choice((0, 0, 0, 1, 1, -1, rng.randint(-9, 9))) for _ in range(cols)]
            for _ in range(rows)]


class TestSparseScreen:
    """The screen's float pass updates only nonzero entries, and its exact
    reads eliminate lazily; neither changes what it returns."""

    def test_float_pass_proposes_the_dense_basis(self):
        # the start built from integer differences, with the same floats as
        # pivoting each key into its convexity row and scaling on Fractions,
        # and the same float operations on the same nonzero entries: the
        # same basis and end state as the dense update, or None with it
        ends = set()
        for blocks, d in float_pass_systems():
            proposed = feasibility._float_basis(*float_start(blocks, d)[:2])
            rows, rhs = feasibility.intersection_system(blocks, d)
            keys = key_columns(blocks)
            assert proposed == dense_float_basis(rows, rhs, keys), (blocks, d)
            ends.add(None if proposed is None else proposed[1])
        assert {True, False} <= ends

    def test_exact_solution_and_det_match_the_fraction_oracle(self):
        # unit pivots, zero pivot-column entries and rank deficiency: the
        # solution is y / D, D > 0, and on a square system D is |det|
        rng = random.Random(11)
        kinds = set()
        for trial in range(300):
            width = rng.randint(1, 5)
            m = width + rng.randint(0, 2)
            aug = seeded_int_matrix(rng, m, width + 1)
            if trial % 3 == 0:  # one row a combination of two others
                a, b, c = (rng.randrange(m) for _ in range(3))
                aug[c] = [x - 2 * y for x, y in zip(aug[a], aug[b])]
            if trial % 5 == 0:  # a zero column
                for row in aug:
                    row[rng.randrange(width)] = 0
            expect = fraction_solution(aug, width)
            solved = feasibility._exact_solution([list(row) for row in aug], width)
            kinds.add(expect is None)
            if expect is None:
                assert solved is None, aug
                continue
            y, last = solved
            assert last > 0 and [Rational(v, last) for v in y] == expect, aug
            if m == width:
                square = [row[:width] for row in aug]
                assert last == abs(fraction_det(square)) == abs(det(square)), aug
        assert kinds == {True, False}
        for trial in range(100):
            square = seeded_int_matrix(rng, trial % 6, trial % 6)
            assert det(square) == fraction_det(square), square

    def test_reads_match_the_fraction_oracle(self):
        # a read is y / D for the Fraction solution of its system, and None
        # exactly where that has no unique (for the primal, nonnegative)
        # solution; the dual's system is square, so its D is |det|; the
        # bases include all-artificial ones and zero structural columns
        rng = random.Random(13)
        systems = [(lift(blocks, d), d) for blocks, d in confirmation_cases()[::3]]
        # the screen decides an empty block before any read
        systems = [(*feasibility.intersection_system(blocks, d), blocks if all(blocks) else None, d)
                   for blocks, d in systems]
        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            rows = seeded_int_matrix(rng, m, n)
            for row in rows:
                row[0] = 0
            systems.append((rows, [rng.randint(-3, 3) for _ in range(m)], None, None))
        reads = {"primal": 0, "dual": 0, "key": 0}
        for rows, rhs, blocks, d in systems:
            m, n = len(rows), len(rows[0])
            bases = [list(range(n, n + m))]
            bases += [rng.sample(range(n + m), m) for _ in range(6)]
            if blocks is not None:
                proposed = feasibility._float_basis(*float_start(blocks, d)[:2])
                if proposed is not None:
                    bases.append(proposed[0])
            costs = [rng.randint(1, 4) for _ in range(m)]
            for basis in bases:
                support = sorted(j for j in basis if j < n)
                expect = fraction_solution(
                    [[row[j] for j in support] + [b] for row, b in zip(rows, rhs)], len(support))
                if expect is not None and any(v < 0 for v in expect):
                    expect = None
                read = feasibility._basic_point(rows, rhs, basis)
                assert (read is None) == (expect is None), (rows, rhs, basis)
                if read is not None:
                    reads["primal"] += 1
                    support_read, y, last = read
                    assert support_read == support and last > 0
                    assert [Rational(v, last) for v in y] == expect, (rows, rhs, basis)
                if blocks is not None:
                    # on the difference system, the key read names the
                    # support of the canonical read of the same basis
                    key_read = feasibility._key_read(
                        blocks, *feasibility._difference_system(blocks, d), basis)
                    assert key_read == (None if read is None else tuple(
                        j for j, v in zip(read[0], read[1]) if v)), (blocks, basis)
                    reads["key"] += key_read is not None
                dual = [[row[j] for row in rows] + [0] if j < n
                        else [int(i == j - n) for i in range(m)] + [costs[j - n]]
                        for j in basis]
                expect = fraction_solution(dual, m)
                read = feasibility._basis_dual(rows, basis, costs)
                assert (read is None) == (expect is None), (rows, basis)
                if read is not None:
                    reads["dual"] += 1
                    y, last = read
                    assert [Rational(v, last) for v in y] == expect, (rows, basis)
                    assert last == abs(fraction_det([row[:m] for row in dual])), (rows, basis)
        assert min(reads["primal"], reads["dual"]) >= 50 and reads["key"] >= 25, reads


class TestOracleEquivalence:
    def test_d1_alternating_exhaustive(self):
        # all alternating partitions, n <= 12, r <= 4, against interval logic
        for r in range(1, 5):
            for n in range(r, 13):
                values = list(range(1, n + 1))
                groups = [[Rational(v) for v in values[i::r]] for i in range(r)]
                blocks = [[(v,) for v in g] for g in groups]
                expect = interval_common_point(groups) is not None
                out = hulls_common_point(blocks, dim=1)
                assert out.feasible == expect, (n, r)
                assert verify_outcome(blocks, out, 1)
                fast = intervals_common_point(groups)
                assert (fast is not None) == expect

    def test_d2_r2_radon_style_oracle(self):
        rng = random.Random(3)
        for trial in range(60):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            A = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(na)]
            B = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(nb)]
            blocks = [[tuple(map(Rational, p)) for p in A], [tuple(map(Rational, p)) for p in B]]
            out = hulls_common_point(blocks, dim=2)
            assert out.feasible == hulls_intersect_2d(blocks[0], blocks[1]), (A, B)
            assert verify_outcome(blocks, out, 2)

    def test_monotone_under_block_growth(self):
        # adding a point to a block never turns feasible into infeasible
        rng = random.Random(5)
        for trial in range(30):
            blocks = [
                [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(2, 3))
            ]
            out = hulls_common_point(blocks, dim=2)
            if not out.feasible:
                continue
            grown = [list(b) for b in blocks]
            grown[rng.randrange(len(grown))].append(
                (rng.randint(-5, 5), rng.randint(-5, 5))
            )
            assert hulls_common_point(grown, dim=2).feasible
