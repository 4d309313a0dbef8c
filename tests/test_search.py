import itertools
import json
from pathlib import Path

import pytest

from tverlab.cli import main
from tverlab.errors import InputError, InternalError, ResourceGuardError
from tverlab.feasibility import hulls_common_point, verify_outcome
from tverlab.kernel import Rational
from tverlab.pointset_io import format_rational
from tverlab.ordertype import MomentSpec, is_order_homogeneous, moment_points
from tverlab.search import (
    Counterexample,
    NoneFound,
    SearchStrategy,
    alpha_candidates,
    alternating_blocks,
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
        res = find_counterexample(1, 2, 3)
        assert isinstance(res, NoneFound) and res.exact

    def test_d2_triangle_found(self):
        res = find_counterexample(2, 2, 3, budget=20)
        assert isinstance(res, Counterexample)

    def test_d2_four_points_never_found(self):
        # alternating segments of 4 convex-position points always cross
        res = find_counterexample(2, 2, 4, budget=250)
        assert isinstance(res, NoneFound) and not res.exact
        assert res.tried == 250

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

        monkeypatch.setattr(search, "alpha_candidates", lambda *args: iter([(Rational(12),)]))
        with pytest.raises(InternalError):
            find_counterexample(2, 2, 3)


def test_canonical_simplex_decides_every_unconfirmed_candidate(monkeypatch):
    """A candidate is skipped only on an exact confirmation; every other one
    goes through ``search.hulls_common_point``, which decides it and
    certifies a hit.  The result is that of deciding every candidate
    canonically, also when nothing is confirmed."""
    import tverlab.search as searchmod

    strategy = SearchStrategy(kind="clustered", seed=5)
    reference = next(
        (i, alphas, outcome)
        for i, alphas in enumerate(alpha_candidates(strategy, 16, 4), 1)
        for outcome in [hulls_common_point(moment_blocks(3, 4, alphas), 3)]
        if not outcome.feasible
    )
    real_confirm, real_hulls = searchmod.confirm_feasible, searchmod.hulls_common_point
    for always_unconfirmed in (False, True):
        confirmed, decided = [], []

        def confirm(blocks, dim):
            ok = not always_unconfirmed and real_confirm(blocks, dim)
            confirmed.append(ok)
            return ok

        def hulls(blocks, dim=None):
            outcome = real_hulls(blocks, dim)
            decided.append(outcome.feasible)
            return outcome

        monkeypatch.setattr(searchmod, "confirm_feasible", confirm)
        monkeypatch.setattr(searchmod, "hulls_common_point", hulls)
        res = find_counterexample(3, 4, 16, strategy=strategy, budget=40)
        assert isinstance(res, Counterexample)
        assert (len(confirmed), res.alphas, res.outcome) == reference
        assert len(decided) == confirmed.count(False) and decided[-1] is False
        if not always_unconfirmed:
            assert confirmed.count(True) >= len(confirmed) - 3


@pytest.mark.parametrize("budget", [0, 5, 40])
def test_search_draws_exactly_its_budget(monkeypatch, budget):
    """The search takes no candidate past its budget from the stream."""
    import tverlab.search as searchmod

    drawn = 0
    real_candidates = searchmod.alpha_candidates

    def counting(*args):
        nonlocal drawn
        for alphas in real_candidates(*args):
            drawn += 1
            yield alphas

    monkeypatch.setattr(searchmod, "alpha_candidates", counting)
    res = find_counterexample(3, 4, 16, strategy=SearchStrategy(kind="clustered", seed=2),
                              budget=budget)
    assert isinstance(res, NoneFound)
    assert res.tried == drawn == budget


class TestScan:
    def test_d1_scan_matches_closed_form(self):
        # found for n <= 2r-2 (below r: trivially, by the empty-block
        # convention), none for n >= 2r-1; lower bound = 2r-1
        for r in (2, 3, 4):
            scan = scan_c_lower(1, r, range(2, 2 * r + 2))
            for n, res in scan.results.items():
                if n <= 2 * r - 2:
                    assert isinstance(res, Counterexample), (r, n)
                else:
                    assert isinstance(res, NoneFound) and res.exact, (r, n)
            assert scan.lower_bound == 2 * r - 1

    def test_d2_r3_bound(self):
        scan = scan_c_lower(
            2, 3, range(3, 7), strategy=SearchStrategy(kind="clustered", seed=1),
            budget=2000,
        )
        assert scan.lower_bound >= 7

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
        assert all(isinstance(r, Counterexample) for r in scan.results.values())
        assert scan.lower_bound == 17


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
    multipliers = example.outcome.certificate.multipliers
    assert [format_rational(v) for v in multipliers] == golden["multipliers"]
