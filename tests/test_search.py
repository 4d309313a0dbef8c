import fractions
import itertools
import json
import sys
from pathlib import Path

import pytest

from tverlab import feasibility, kernel
from tverlab.cli import main
from tverlab.errors import InputError, InternalError, ResourceGuardError
from tverlab.feasibility import hulls_common_point, verify_outcome
from tverlab.kernel import Rational, scale_to_integers
from tverlab.pointset_io import format_rational
from tverlab.ordertype import MomentSpec, is_order_homogeneous, moment_points
from tverlab.search import (
    Counterexample,
    NoneFound,
    SearchStrategy,
    alpha_candidates,
    alternating_blocks,
    c_lower_bound,
    check_growth_inequality,
    find_counterexample,
    moment_blocks,
    n_line,
    n_line_formula,
    scan_c_lower,
    sixteen_point_alphas,
    split_repeats,
    t_line,
    verified_sixteen_point_example,
)


def stream_settings(n, seed):
    """Cluster counts from none to past n, each under a tight and a wide spread."""
    for cluster_count in (None, 0, 1, n, n + 5):
        for spread in (1, 4):
            yield SearchStrategy(seed=seed, cluster_count=cluster_count, spread=spread)


class TestCandidateStreams:
    def test_deterministic_streams(self):
        for s in stream_settings(5, seed=42):
            a = list(itertools.islice(alpha_candidates(s, 5, 3), 20))
            b = list(itertools.islice(alpha_candidates(s, 5, 3), 20))
            assert a == b

    def test_candidates_strictly_increasing(self):
        for s in stream_settings(6, seed=7):
            for alphas in itertools.islice(alpha_candidates(s, 6, 3), 25):
                assert len(alphas) == 6
                assert all(x < y for x, y in zip(alphas, alphas[1:]))

    def test_spread_sets_the_span(self):
        # the integers are drawn within spread * n of zero, with no floor, so
        # each spread draws its own stream; repeats add under 1/100
        first = [next(alpha_candidates(SearchStrategy(seed=1, spread=spread), 8, 3))
                 for spread in (1, 2)]
        assert first[0] != first[1]
        assert max(map(abs, first[0])) < 8 + Rational(1, 100)

    def test_unknown_kind_rejected(self):
        # kinds that are gone stay refused, by the library and by argparse
        for kind in ("annealing", "grid", "random-rational"):
            with pytest.raises(InputError):
                SearchStrategy(kind=kind)
            with pytest.raises(SystemExit) as exc:
                main(["search-c", "-d", "2", "-r", "2", "--n-from", "3", "--n-to", "3",
                      "--strategy", kind])
            assert exc.value.code == 2

    def test_split_repeats(self):
        eps = Rational(1, 1000)
        got = split_repeats([-2, -2, -2, 0, 6, 6], eps)
        assert got == (
            Rational(-2),
            Rational(-2) + eps,
            Rational(-2) + 2 * eps,
            Rational(0),
            Rational(6),
            Rational(6) + eps,
        )


class TestFindCounterexample:
    def test_d1_two_blocks_of_one(self):
        res = find_counterexample(1, 2, 2)
        assert isinstance(res, Counterexample)
        assert verify_outcome(
            alternating_blocks(moment_points(MomentSpec(1, res.alphas)), 2),
            res.outcome,
            1,
        )

    def test_d1_exact_none_found(self):
        # d = 1 decides on the one candidate 1..n
        res = find_counterexample(1, 2, 3)
        assert isinstance(res, NoneFound) and res.tried == 1

    def test_d2_triangle_found(self):
        res = find_counterexample(2, 2, 3, budget=20)
        assert isinstance(res, Counterexample)

    def test_d2_four_points_never_found(self):
        # alternating segments of 4 convex-position points always cross
        res = find_counterexample(2, 2, 4, budget=250)
        assert isinstance(res, NoneFound) and res.tried == 250

    def test_counterexample_is_homogeneous(self):
        res = find_counterexample(2, 3, 5, budget=500)
        assert isinstance(res, Counterexample)
        X = moment_points(MomentSpec(2, res.alphas))
        assert is_order_homogeneous(X).sign == 1

    def test_alternating_blocks_are_residue_classes(self):
        X = moment_points(MomentSpec(1, range(1, 8)))
        p = X.points
        assert alternating_blocks(X, 3) == [
            [p[0], p[3], p[6]], [p[1], p[4]], [p[2], p[5]],
        ]
        # below r the blocks past n stay empty
        assert alternating_blocks(moment_points(MomentSpec(1, [1, 2])), 4) == [
            [p[0]], [p[1]], [], [],
        ]

    def test_below_r_trivially_found(self):
        # an empty alternating block is infeasible by the conv(0) convention
        res = find_counterexample(2, 3, 2)
        assert isinstance(res, Counterexample)
        with pytest.raises(InputError):
            find_counterexample(2, 3, 0)

    def test_short_candidate_is_an_internal_error(self, monkeypatch):
        # a strategy that cannot yield n parameters is an input error, and a
        # candidate of another length is a fault, never a counterexample
        with pytest.raises(InputError):
            SearchStrategy(kind="clustered", cluster_count=-1)
        stream = alpha_candidates(SearchStrategy(kind="clustered", cluster_count=0), 5, 2)
        assert len(next(stream)) == 5
        import tverlab.search as search

        monkeypatch.setattr(search, "integer_draws", lambda *args: iter([[12]]))
        with pytest.raises(InternalError):
            find_counterexample(2, 2, 3)
        # so is a draw whose lift does not increase: unsorted, or a run so
        # long that its split values reach the next integer
        for draw in ([2, 1, 3], [0] * 1001 + [1]):
            monkeypatch.setattr(search, "integer_draws", lambda *args, draw=draw: iter([draw]))
            with pytest.raises(InternalError):
                find_counterexample(2, 2, len(draw))


class TestIntegerCandidates:
    """A candidate reaches the screen as its integer draw lifted to ints, and
    only one the screen does not confirm builds its Rational parameters."""

    def test_lift_is_the_scaled_candidate(self):
        import tverlab.search as searchmod

        repeats = set()
        for seed in range(50):
            for n, r in ((5, 2), (10, 3), (16, 4)):
                for strategy in stream_settings(n, seed):
                    draws = searchmod.integer_draws(strategy, n, r)
                    for values, alphas in itertools.islice(
                            zip(draws, alpha_candidates(strategy, n, r)), 3):
                        assert searchmod._lift(values) == scale_to_integers(alphas)[0]
                        repeats.add(len(set(values)) < n)
        assert repeats == {True, False}

    def test_confirmed_candidates_build_no_fraction(self):
        # the 100 seed-1 candidates at (3,4,16) are all confirmed feasible,
        # so none of them makes a call into the fractions module
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            res = find_counterexample(3, 4, 16, SearchStrategy(seed=1), budget=100)
        finally:
            sys.setprofile(None)
        assert calls == []
        assert res == NoneFound(tried=100)

    def test_an_unconfirmed_candidate_is_certified_canonically(self):
        # the second seed-1 candidate at (3,3,10) is the first counterexample,
        # with the canonical simplex's certificate on its Rational parameters
        res = find_counterexample(3, 3, 10, SearchStrategy(seed=1), budget=10)
        assert isinstance(res, Counterexample)
        assert [format_rational(a) for a in res.alphas] == [
            "-14", "-13999/1000", "-6999/500", "-13997/1000", "8",
            "8001/1000", "4001/500", "8003/1000", "2001/250", "1601/200"]
        assert res.alphas == list(itertools.islice(
            alpha_candidates(SearchStrategy(seed=1), 10, 3), 2))[1]
        assert res.outcome.multipliers == (
            1643453252627001, 1643314667996000, -3286767839974668, -293268954169500,
            -3684331500000, 1833000000000, -586632615669000, -7358665500000, 3666500000000)
        assert res.blocks == moment_blocks(3, 3, res.alphas)
        assert verify_outcome(res.blocks, res.outcome, 3)

    def test_screen_row_operations(self, monkeypatch):
        # the screens of the 100 seed-1 (3,4,16) candidates: 1,663 bigint
        # row operations, rescales included, where reading each basis on
        # every canonical row made 3,176, and updating every row at every
        # pivot, with unit pivots put first, 5,400
        operations = [0]
        update = kernel.fraction_free_update

        def counted(*args):
            operations[0] += 1
            return update(*args)

        monkeypatch.setattr(kernel, "fraction_free_update", counted)
        monkeypatch.setattr(feasibility, "fraction_free_update", counted)
        res = find_counterexample(3, 4, 16, SearchStrategy(seed=1), budget=100)
        assert res == NoneFound(tried=100)
        assert operations[0] <= 1_663

    def test_key_start_counters(self, monkeypatch):
        # the screens of the first 300 seed-1 candidates: at (4,3,14), 19
        # unconfirmed, where the float start on every canonical row with its
        # reads on every row left 73; at (3,4,16), every one confirmed in
        # 4,987 bigint row operations, where that start made 9,598
        import tverlab.search as searchmod

        operations = [0]
        update = kernel.fraction_free_update

        def counted(*args):
            operations[0] += 1
            return update(*args)

        monkeypatch.setattr(kernel, "fraction_free_update", counted)
        monkeypatch.setattr(feasibility, "fraction_free_update", counted)
        tally = {}
        for d, r, n in ((4, 3, 14), (3, 4, 16)):
            operations[0] = 0
            unconfirmed = 0
            for values in itertools.islice(
                    searchmod.integer_draws(SearchStrategy(seed=1), n, r), 300):
                blocks = searchmod._lifted_blocks(searchmod._lift(values), d, r)
                unconfirmed += feasibility.screen(blocks, d) is None
            tally[d, r, n] = unconfirmed, operations[0]
        assert tally[4, 3, 14][0] == 19
        assert tally[3, 4, 16] == (0, 4_987)


def test_canonical_simplex_decides_every_unconfirmed_candidate(monkeypatch):
    """A candidate is skipped only on an exact confirmation of a common
    point; every other one, one the screen proves infeasible too, goes
    through ``search.hulls_common_point``, which decides it and certifies a
    hit.  The result is that of deciding every candidate canonically, also
    when nothing is confirmed."""
    import tverlab.search as searchmod

    strategy = SearchStrategy(kind="clustered", seed=5)
    reference = next(
        (i, alphas, outcome)
        for i, alphas in enumerate(alpha_candidates(strategy, 16, 4), 1)
        for outcome in [hulls_common_point(moment_blocks(3, 4, alphas), 3)]
        if not outcome.feasible
    )
    real_screen, real_hulls = searchmod.screen, searchmod.hulls_common_point
    for always_unconfirmed in (False, True):
        verdicts, decided = [], []

        def screen(blocks, dim):
            verdict = None if always_unconfirmed else real_screen(blocks, dim)
            verdicts.append(None if verdict is None else verdict[0])
            return verdict

        def hulls(blocks, dim=None):
            outcome = real_hulls(blocks, dim)
            decided.append(outcome.feasible)
            return outcome

        monkeypatch.setattr(searchmod, "screen", screen)
        monkeypatch.setattr(searchmod, "hulls_common_point", hulls)
        res = find_counterexample(3, 4, 16, strategy=strategy, budget=40)
        assert isinstance(res, Counterexample)
        assert (len(verdicts), res.alphas, res.outcome) == reference
        assert len(decided) == len(verdicts) - verdicts.count("feasible")
        assert decided[-1] is False
        if not always_unconfirmed:
            assert verdicts.count("feasible") >= len(verdicts) - 3
            assert verdicts[-1] == "infeasible"


@pytest.mark.parametrize("budget", [0, 5, 40])
def test_search_draws_exactly_its_budget(monkeypatch, budget):
    """The search takes no candidate past its budget from the draw stream."""
    import tverlab.search as searchmod

    drawn = 0
    real_draws = searchmod.integer_draws

    def counting(*args):
        nonlocal drawn
        for values in real_draws(*args):
            drawn += 1
            yield values

    monkeypatch.setattr(searchmod, "integer_draws", counting)
    res = find_counterexample(3, 4, 16, strategy=SearchStrategy(kind="clustered", seed=2),
                              budget=budget)
    assert isinstance(res, NoneFound)
    assert res.tried == drawn == budget


def scan_bound(scan):
    """The lower bound on c(d,r) that a scan's counterexamples give."""
    return c_lower_bound(n for n, res in scan.items() if isinstance(res, Counterexample))


class TestScan:
    def test_d1_scan_matches_closed_form(self):
        # found for n <= 2r-2 (below r: trivially, by the empty-block
        # convention), none for n >= 2r-1; lower bound = 2r-1
        for r in (2, 3, 4):
            scan = scan_c_lower(1, r, range(2, 2 * r + 2))
            for n, res in scan.items():
                if n <= 2 * r - 2:
                    assert isinstance(res, Counterexample), (r, n)
                else:
                    assert isinstance(res, NoneFound) and res.tried == 1, (r, n)
            assert scan_bound(scan) == 2 * r - 1

    def test_d2_r3_bound(self):
        scan = scan_c_lower(
            2, 3, range(3, 7), strategy=SearchStrategy(kind="clustered", seed=1),
            budget=2000,
        )
        assert scan_bound(scan) >= 7

    def test_d3_r4_sixteen_found_organically(self):
        # the clustered shape rediscovers 16-point witnesses on its own
        res = find_counterexample(
            3, 4, 16, strategy=SearchStrategy(kind="clustered", seed=0),
            budget=3000,
        )
        assert isinstance(res, Counterexample)

    def test_d3_r4_scan_reaches_seventeen(self):
        scan = scan_c_lower(
            3, 4, range(14, 17), strategy=SearchStrategy(kind="clustered", seed=0),
            budget=3000,
        )
        assert all(isinstance(r, Counterexample) for r in scan.values())
        assert scan_bound(scan) == 17


class TestSixteenPoint:
    def test_alphas_sorted_distinct(self):
        alphas = sixteen_point_alphas()
        assert len(alphas) == 16
        assert all(a < b for a, b in zip(alphas, alphas[1:]))

    def test_verified_infeasible(self):
        example, eps = verified_sixteen_point_example()
        assert example.n == 16 and example.dim == 3 and example.r == 4
        assert not example.outcome.feasible
        assert eps == Rational(1, 1000)
        X = moment_points(MomentSpec(3, example.alphas))
        assert verify_outcome(
            alternating_blocks(X, 4), example.outcome, 3
        )


class TestLineTables:
    def test_t_line_values(self):
        assert t_line(5, 2) == 1
        assert t_line(7, 2) == 2
        assert t_line(3, 2) == 0

    def test_t_line_guard(self):
        with pytest.raises(ResourceGuardError):
            t_line(15, 2)
        with pytest.raises(InputError):
            t_line(2, 3)
        with pytest.raises(ResourceGuardError):
            n_line(5, 3)  # r (t + 2) - 1 = 20 > T_LINE_GUARD

    def test_n_line_values(self):
        assert n_line(1, 2) == 5
        assert n_line(2, 2) == 7
        assert n_line(0, 2) == 3
        assert n_line_formula(2, 2) == 7

    def test_growth_inequality(self):
        assert check_growth_inequality(1, 2, 2, 7)  # 7 >= 4 - 1
        assert check_growth_inequality(1, 3, 1, 8)  # 8 >= 3 - 3/2
        assert not check_growth_inequality(1, 2, 2, 2)  # fabricated violation

    def test_evaluate_alternating_line(self):
        assert hulls_common_point(moment_blocks(1, 3, range(1, 6)), 1).feasible
        assert not hulls_common_point(moment_blocks(1, 3, range(1, 5)), 1).feasible


def test_sixteen_point_certificate_golden():
    """Normalized multipliers and epsilon equal the recorded ones."""
    path = Path(__file__).resolve().parent / "golden" / "sixteen_point.json"
    golden = json.loads(path.read_text())
    example, eps = verified_sixteen_point_example()
    assert format_rational(eps) == golden["epsilon"]
    multipliers = example.outcome.multipliers
    assert [format_rational(v) for v in multipliers] == golden["multipliers"]
