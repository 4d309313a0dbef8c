import contextlib
import fractions
import itertools
import json
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_labelings,
    fewest_pair_deletions,
    greedy_pair_breaking_set,
    seeded_increasing_alphas,
    seeded_int_points,
)
from tverlab import feasibility, kernel, labels, ordertype, tolerance
from tverlab.cli import main
from tverlab.errors import InputError, ResourceGuardError
from tverlab.feasibility import hulls_common_point
from tverlab.kernel import PointSet, Rational
from tverlab.labels import Target, _read, pair_bound, pair_breaking_set, split
from tverlab.ordertype import MomentSpec, is_order_homogeneous, moment_points
from tverlab.search import n_line, sixteen_point_alphas, t_line
from tverlab.tolerance import (
    Partition,
    ToleranceReport,
    _depleted_feasible,
    alternating_bound,
    alternating_bound_even,
    alternating_partition,
    check_tolerance_sandwich,
    iter_partitions,
    partition_tolerance,
    set_tolerance,
    set_tolerance_value,
    tolerance_upper_bound,
)

ONE_TO = lambda n: PointSet(1, [(i,) for i in range(1, n + 1)])


def depleted_feasible(X, partition, removed):
    blocks = [
        [X.points[i - 1] for i in block if i not in removed]
        for block in partition.blocks()
    ]
    if any(not b for b in blocks):
        return False
    return hulls_common_point(blocks, X.dim).feasible


def brute_tolerance(X, partition):
    """Independent reference: plain increasing-size removal enumeration."""
    n = len(X)
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if not depleted_feasible(X, partition, set(combo)):
                return size - 1, combo
    raise AssertionError("removing everything must break")


def oracle_partitions(n, r):
    return [Partition(n, r, labels) for labels in canonical_labelings(n, r)]


def brute_set_tolerance(X, r, budget=None):
    """Independent reference for ``set_tolerance``: the report and labels of
    the lexicographically first partition of greatest capped tolerance."""
    n = len(X)
    cap = n if budget is None else min(budget, n)
    best = None
    for part in oracle_partitions(n, r):
        value, combo = brute_tolerance(X, part)
        if best is None or min(value, cap) > best[0]:
            best = (min(value, cap), combo, part.labels)
    value, combo, labels = best
    if value >= cap:
        return ToleranceReport(value=cap, breaking_set=None, exhausted=False), labels
    return ToleranceReport(value=value, breaking_set=combo, exhausted=True), labels


def count_work(monkeypatch):
    """Count the tolerance search's LP calls and the orientation determinants
    its homogeneity test reads: the positivity test's, and the orientation
    signs', one per subset."""
    calls = {"lp": 0, "signs": 0}
    lp = tolerance.hulls_common_point
    tests, signs = ordertype.positivity_tests, ordertype.orientation_signs

    def counted_lp(*args, **kwargs):
        calls["lp"] += 1
        return lp(*args, **kwargs)

    def counted(generator):
        def wrapped(*args):
            for indices, value in generator(*args):
                calls["signs"] += 1
                yield indices, value
        return wrapped

    monkeypatch.setattr(tolerance, "hulls_common_point", counted_lp)
    monkeypatch.setattr(ordertype, "positivity_tests", counted(tests))
    monkeypatch.setattr(ordertype, "orientation_signs", counted(signs))
    return calls


def count_reads(monkeypatch):
    """Count the run DP's reads and the breaking sets the tolerance layer names."""
    calls = {"reads": 0, "breaking_sets": 0}
    read, walk = labels._read, tolerance.pair_breaking_set

    def counted_read(kept, lab):
        calls["reads"] += 1
        return read(kept, lab)

    def counted_walk(*args):
        calls["breaking_sets"] += 1
        return walk(*args)

    monkeypatch.setattr(labels, "_read", counted_read)
    monkeypatch.setattr(tolerance, "pair_breaking_set", counted_walk)
    return calls


def record_removals(monkeypatch):
    """The removal sets the tolerance search decides, in order."""
    removals = []
    depleted_feasible = tolerance._depleted_feasible

    def recorded(labels, r, X):
        removals.append(frozenset(i for i, label in enumerate(labels, 1) if not label))
        return depleted_feasible(labels, r, X)

    monkeypatch.setattr(tolerance, "_depleted_feasible", recorded)
    return removals


@contextlib.contextmanager
def screening(screened):
    """The removal scan with its integer screen, or with a screen that
    confirms nothing, so the canonical simplex decides every removal."""
    with pytest.MonkeyPatch.context() as patch:
        if not screened:
            patch.setattr(tolerance, "screen", lambda blocks, dim: None)
        yield


class TestPartition:
    def test_alternating_examples(self):
        assert alternating_partition(5, 2).blocks() == ((1, 3, 5), (2, 4))
        assert alternating_partition(16, 4).blocks() == (
            (1, 5, 9, 13),
            (2, 6, 10, 14),
            (3, 7, 11, 15),
            (4, 8, 12, 16),
        )
        assert alternating_partition(3, 3).blocks() == ((1,), (2,), (3,))

    def test_alternating_rejects_empty_blocks(self):
        with pytest.raises(InputError):
            alternating_partition(2, 3)

    def test_from_blocks_validation(self):
        with pytest.raises(InputError):
            Partition.from_blocks(3, [[1, 2]])
        with pytest.raises(InputError):
            Partition.from_blocks(3, [[1, 2], [2, 3]])
        part = Partition.from_blocks(4, [[2, 4], [1, 3]])
        assert part.blocks() == ((2, 4), (1, 3))

    def test_iter_partitions_counts(self):
        # Stirling numbers of the second kind
        assert sum(1 for _ in iter_partitions(5, 2)) == 15
        assert sum(1 for _ in iter_partitions(6, 3)) == 90
        keys = [p.labels for p in iter_partitions(5, 2)]
        assert keys == sorted(keys)  # lexicographic enumeration
        assert len(set(keys)) == len(keys)
        for n, r in itertools.product(range(1, 8), range(1, 5)):
            got = list(iter_partitions(n, r))
            assert [p.labels for p in got] == list(canonical_labelings(n, r)), (n, r)
            assert all(Partition.from_blocks(n, p.blocks()) == p for p in got), (n, r)

    def test_iter_partitions_min_block(self):
        # with no run order only block sizes prune: beating tolerance 1
        # needs 3 points in every block
        got = list(iter_partitions(6, 2, Target(best=1, runs=None)))
        assert all(min(map(len, p.blocks())) >= 3 for p in got)
        assert len(got) == 10  # C(6,3)/2 * 2 ... = 10 ways into two triples

    @pytest.mark.parametrize("X, r, runs", [
        (ONE_TO(8), 3, 2),
        (PointSet(1, [(v,) for v in (5, 3, 2, -1, -4, -6, -9)]), 3, 2),
        (PointSet(1, [(v,) for v in (3, -1, 7, 0, 2, 9, 4)]), 2, None),
        (moment_points(MomentSpec(2, range(1, 8))), 2, 3),
        (moment_points(MomentSpec(3, range(1, 8))), 3, 4),
    ])
    def test_branch_and_bound_keeps_every_partition_that_beats_the_target(self, X, r, runs):
        # the prune never cuts a partition of greater tolerance; where pairs
        # decide and the index order is a run order, it yields exactly those
        n = len(X)
        values = {p.labels: brute_tolerance(X, p)[0] for p in oracle_partitions(n, r)}
        exact = runs is not None and (r == 2 or X.dim == 1)
        for best in range(-2, max(values.values()) + 1):
            target = Target(best=best, runs=runs)
            got = [p.labels for p in iter_partitions(n, r, target)]
            beat = [labels for labels, value in values.items() if value > best]
            assert got == sorted(got) and set(beat) <= set(got), best
            assert got == beat or not exact, best

    @pytest.mark.parametrize("raised", [False, True])
    def test_branch_and_bound_is_exact_at_the_leaves(self, raised):
        # under a run order the cut yields exactly, in order, the partitions
        # that pass its leaf test: blocks thick enough to beat best, and a
        # pair bound above best; raised, best becomes each yield's pair bound
        # as the enumeration goes, as set_tolerance raises it
        for n, r in itertools.product(range(1, 9), range(1, 5)):
            thinnest = {s: min(map(s.count, range(1, r + 1))) for s in canonical_labelings(n, r)}
            for runs in (2, 3, 4):
                bounds = {s: pair_bound(s, r, runs, range(n)) for s in thinnest}
                for start in range(-2, 4):
                    best, want = start, []
                    for labels, thin in thinnest.items():
                        thick = best + 2 + (runs - 1) // 2 if best >= -1 else 1
                        if thin >= thick and bounds[labels] > best:
                            want.append(labels)
                            best = bounds[labels] if raised else best
                    target, got = Target(start, runs), []
                    for partition in iter_partitions(n, r, target):
                        got.append(partition.labels)
                        if raised:
                            target.best = bounds[partition.labels]
                    assert got == want, (n, r, runs, start)

    @pytest.mark.parametrize("n, r, target, reads, yields", [
        (16, 3, Target(2, 3), 992, 56),
        (16, 4, Target(0, 4), 30154, 1834),
    ])
    def test_branch_and_bound_reads(self, monkeypatch, n, r, target, reads, yields):
        # both one-letter extensions of the run DP cut: the cut with only the
        # no-new-run one made 6,622 and 498,603 reads for the same yields
        calls = [0]

        def counted(kept, lab):
            calls[0] += 1
            return _read(kept, lab)

        monkeypatch.setattr("tverlab.labels._read", counted)
        assert sum(1 for _ in iter_partitions(n, r, target)) == yields
        assert calls[0] == reads


class TestPartitionTolerance:
    def test_line_alternating_example(self):
        rep = partition_tolerance(ONE_TO(5), alternating_partition(5, 2))
        assert rep.value == 1 and rep.exhausted
        assert len(rep.breaking_set) == 2
        assert not depleted_feasible(
            ONE_TO(5), alternating_partition(5, 2), set(rep.breaking_set)
        )

    def test_square_diagonals(self):
        X = PointSet(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
        part = Partition.from_blocks(4, [[1, 3], [2, 4]])
        rep = partition_tolerance(X, part)
        assert rep.value == 0 and rep.breaking_set == (1,)

    def test_base_infeasible(self):
        X = PointSet(1, [(1,), (2,), (3,), (4,)])
        part = Partition.from_blocks(4, [[1, 2], [3, 4]])
        rep = partition_tolerance(X, part)
        assert rep.value == -1 and rep.breaking_set == ()

    def test_budget_cut_reports_lower_bound(self):
        rep = partition_tolerance(ONE_TO(7), alternating_partition(7, 2), budget=1)
        assert rep.value == 1 and not rep.exhausted and rep.breaking_set is None

    def test_value_below_budget_is_exact(self):
        rep = partition_tolerance(ONE_TO(7), alternating_partition(7, 2), budget=4)
        assert rep.value == 2 and rep.exhausted

    def test_fast_path_matches_enumeration_d1(self):
        # the closed form in value order must agree with brute enumeration
        # exactly, including the lexicographically-first breaking set; draws
        # from 0..9 mostly repeat a value (no order, enumeration), shuffled
        # distinct values take the closed form
        rng = random.Random(9)
        for n in range(2, 8):
            for r in range(1, min(4, n) + 1):
                for trial in range(8):
                    if trial % 2:
                        vals = rng.sample(range(-20, 20), n)
                    else:
                        vals = [rng.randint(0, 9) for _ in range(n)]
                    X = PointSet(1, [(v,) for v in vals])
                    labels = _random_partition_labels(rng, n, r)
                    part = Partition(n, r, labels)
                    value, combo = brute_tolerance(X, part)
                    rep = partition_tolerance(X, part)
                    assert rep.value == value
                    assert rep.breaking_set == combo

    def test_repeated_value_line_matches_brute_maximum(self):
        # a repeated value leaves no order for the run rule
        for vals, r in (((1, 2, 2, 3, 4), 2), ((0, 5, 0, 5, 1, 2), 2), ((3, 1, 3, 2, 2, 1), 3)):
            X = PointSet(1, [(v,) for v in vals])
            assert tolerance._run_order(X, r) is None
            best = max(brute_tolerance(X, p)[0] for p in oracle_partitions(len(X), r))
            rep, part = set_tolerance(X, r)
            assert rep.value == best == brute_tolerance(X, part)[0]

    def test_d2_matches_brute(self):
        rng = random.Random(13)
        for trial in range(10):
            X = seeded_int_points(trial, 6, 2, box=7)
            labels = _random_partition_labels(rng, 6, 2)
            part = Partition(6, 2, labels)
            value, combo = brute_tolerance(X, part)
            rep = partition_tolerance(X, part)
            assert (rep.value, rep.breaking_set) == (value, combo)

    def test_tolerance_at_most_smallest_block(self):
        rng = random.Random(17)
        for trial in range(10):
            n = rng.randint(3, 7)
            r = rng.randint(1, min(3, n))
            X = seeded_int_points(100 + trial, n, 2, box=9)
            part = Partition(n, r, _random_partition_labels(rng, n, r))
            rep = partition_tolerance(X, part)
            assert rep.value <= min(len(b) for b in part.blocks()) - 1

    def test_removal_monotonicity_exhaustive(self):
        # if Y breaks, every superset of Y breaks (exhaustive up to n = 8)
        cases = [
            (seeded_int_points(4, 6, 2, box=6), [[1, 4], [2, 5], [3, 6]]),
            (seeded_int_points(8, 8, 2, box=9), [[1, 3, 5, 7], [2, 4, 6, 8]]),
            (seeded_int_points(12, 8, 3, box=9), [[1, 4, 7], [2, 5, 8], [3, 6]]),
        ]
        for X, blocks in cases:
            n = len(X)
            part = Partition.from_blocks(n, blocks)
            breaking = {
                combo
                for size in range(n + 1)
                for combo in itertools.combinations(range(1, n + 1), size)
                if not depleted_feasible(X, part, set(combo))
            }
            for combo in breaking:
                for extra in range(1, n + 1):
                    if extra not in combo:
                        assert tuple(sorted(combo + (extra,))) in breaking


def _random_partition_labels(rng, n, r):
    while True:
        labels = [rng.randint(1, r) for _ in range(n)]
        if set(labels) == set(range(1, r + 1)):
            return labels


class TestSetTolerance:
    def test_line_examples(self):
        for n, want in ((4, 0), (5, 1), (7, 2)):
            rep, part = set_tolerance(ONE_TO(n), 2)
            assert rep.value == want

    def test_argmax_partition_achieves_value(self):
        rep, part = set_tolerance(ONE_TO(6), 2)
        direct = partition_tolerance(ONE_TO(6), part)
        assert direct.value == rep.value

    def test_matches_brute_maximum_small(self):
        for n, r, d, seed in ((5, 2, 1, 0), (6, 2, 2, 1), (6, 3, 2, 2), (5, 2, 3, 3)):
            X = (
                ONE_TO(n)
                if d == 1
                else seeded_int_points(seed, n, d, box=8)
            )
            best = max(
                brute_tolerance(X, part)[0] for part in oracle_partitions(n, r)
            )
            rep, _ = set_tolerance(X, r)
            assert rep.value == best, (n, r, d)

    def test_lex_first_achiever(self):
        X = ONE_TO(5)
        rep, part = set_tolerance(X, 2)
        for candidate in oracle_partitions(5, 2):
            value, _ = brute_tolerance(X, candidate)
            if value >= rep.value:
                assert candidate.labels == part.labels
                break

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            set_tolerance(ONE_TO(13), 2)
        with pytest.raises(InputError):
            set_tolerance(ONE_TO(2), 3)
        with pytest.raises(InputError):
            partition_tolerance(ONE_TO(3), alternating_partition(4, 2))

    def test_moment_curve_homogeneous_prune_consistent(self):
        # the run rule and the block-size prune must not change results
        for d, n, r in ((2, 7, 2), (3, 8, 2), (3, 7, 3)):
            X = moment_points(MomentSpec(d, range(1, n + 1)))
            best = max(brute_tolerance(X, p)[0] for p in oracle_partitions(n, r))
            rep, _ = set_tolerance(X, r)
            assert rep.value == best, (d, n, r)

    def test_repeated_point_below_d_plus_1_cli(self, capsys, tmp_path):
        # fewer than d+1 points are homogeneous only vacuously: the run rule
        # must stay off, or the repeated point's common hull is missed
        X = PointSet(2, [(0, 0), (0, 0)])
        dup = tmp_path / "dup.otps"
        dup.write_text("otps 2 2\n0 0\n0 0\n")
        code = main(["tolerance", str(dup), "--set", "-r", "2"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out.strip())
        best = max(brute_tolerance(X, part)[0] for part in oracle_partitions(2, 2))
        assert rec["outcome"]["value"] == best == 0

    def test_repeated_point_below_d_plus_1(self):
        X = PointSet(3, [(0, 0, 0), (1, 1, 1), (0, 0, 0)])
        rep, part = set_tolerance(X, 2)
        best = max(brute_tolerance(X, p)[0] for p in oracle_partitions(3, 2))
        assert rep.value == best == brute_tolerance(X, part)[0]

    def test_homogeneous_r2_solves_no_lp(self, monkeypatch):
        # r = 2 on a homogeneous set is decided by the run rule alone, and
        # homogeneity is evaluated once, from the positivity test's
        # (d + 1)(n - d - 1) + 1 determinants, 17 of the C(8, 4) = 70
        calls = count_work(monkeypatch)
        d, n = 3, 8
        rep, _ = set_tolerance(moment_points(MomentSpec(d, range(1, n + 1))), 2)
        assert rep.exhausted
        assert calls == {"lp": 0, "signs": (d + 1) * (n - d - 1) + 1} == {"lp": 0, "signs": 17}

    @pytest.mark.parametrize("d, r, report, labels", [
        (2, 4, ToleranceReport(0, (2,), True), (1, 1, 2, 3, 4, 2, 1, 3, 2, 4)),
        (3, 3, ToleranceReport(0, (1,), True), (1, 1, 2, 3, 1, 1, 2, 3, 1, 2)),
    ])
    def test_removal_scan_runs_no_canonical_simplex(self, monkeypatch, d, r, report, labels):
        # every scan ends on a breaking set, an infeasible hull LP; the
        # integer screen proves these infeasible, as it confirms the
        # feasible ones, so the canonical simplex, which made 27 and 12 LPs
        # here when the screen decided only one way, never runs; unscreened,
        # it decides every removal on the same integer lift, to the same report
        calls = count_work(monkeypatch)
        for screened in (True, False):
            calls["lp"] = 0
            with screening(screened):
                rep, part = set_tolerance(moment_points(MomentSpec(d, range(1, 11))), r)
            assert (rep, part.labels) == (report, labels)
            assert (calls["lp"] == 0) == screened

    def test_sandwich_evaluates_homogeneity_once(self, monkeypatch):
        calls = count_work(monkeypatch)
        d, n = 3, 8
        rep = check_tolerance_sandwich(moment_points(MomentSpec(d, range(1, n + 1))), 2)
        assert rep.t_value <= rep.upper_bound
        assert calls["signs"] == (d + 1) * (n - d - 1) + 1 == 17

    @pytest.mark.parametrize("d, n, r", [(1, 7, 2), (2, 9, 3)])
    def test_alternating_partition_evaluated_once(self, monkeypatch, d, n, r):
        # the seed evaluates the alternating partition; when the enumeration
        # reaches it again, the seed's value and breaking set are reused
        alternating = alternating_partition(n, r).labels
        evaluated = []
        evaluate = tolerance._tolerance

        def counted(labels, *args):
            evaluated.append(tuple(labels))
            return evaluate(labels, *args)

        monkeypatch.setattr(tolerance, "_tolerance", counted)
        X = moment_points(MomentSpec(d, range(1, n + 1)))
        rep, part = set_tolerance(X, r)
        assert evaluated.count(alternating) == 1
        monkeypatch.undo()
        assert rep == partition_tolerance(X, part)

    @pytest.mark.parametrize("d, n", [(2, 10), (3, 12)])
    def test_r1_closed_form_off_a_line(self, monkeypatch, d, n):
        # one nonempty block always has a common point: tolerance n - 1 in
        # every dimension, with neither an LP nor a homogeneity test
        X = moment_points(MomentSpec(d, range(1, n + 1)))
        expected = brute_tolerance(X, Partition(n, 1, [1] * n))
        calls = count_work(monkeypatch)
        rep, part = set_tolerance(X, 1)
        assert (rep.value, rep.breaking_set) == expected == (n - 1, tuple(range(1, n + 1)))
        assert partition_tolerance(X, part) == rep
        assert calls == {"lp": 0, "signs": 0}

    @pytest.mark.parametrize("X, r", [
        (ONE_TO(16), 1),
        (ONE_TO(9), 3),
        (moment_points(MomentSpec(3, range(1, 9))), 2),
    ])
    def test_closed_form_tests_only_the_reported_size(self, monkeypatch, X, r):
        # where pairs decide, the pair deletion DP gives both the value and
        # the reported breaking set: no removal set is tested
        removals = record_removals(monkeypatch)
        rep, _ = set_tolerance(X, r, guard=len(X))
        assert rep.exhausted and len(rep.breaking_set) == rep.value + 1
        assert removals == []

    def test_one_removal_scan_per_report(self, monkeypatch):
        # the scan that finds the tolerance also finds the breaking set, and
        # the argmax search tests 47 removal sets where two phases took
        # 2,419: of the 62 it reaches, 15 miss the support of a common point
        # found before for the same partition
        removals = record_removals(monkeypatch)
        X = moment_points(MomentSpec(2, range(1, 10)))
        for part in iter_partitions(9, 3):
            removals.clear()
            partition_tolerance(X, part)
            assert len(removals) == len(set(removals)), part.labels
        removals.clear()
        rep, part = set_tolerance(moment_points(MomentSpec(2, range(1, 11))), 3)
        assert len(removals) == 47
        assert (rep, part.labels) == (
            ToleranceReport(value=1, breaking_set=(1, 4), exhausted=True),
            (1, 2, 3, 1, 2, 3, 1, 2, 1, 3),
        )

    def test_breaking_set_scan_keeps_its_supports(self, monkeypatch):
        # the argmax partition's own scan runs one size past the pair bound
        # and names the breaking set with the supports of every size before:
        # 85 removal sets, where a fresh second scan of that size made 90
        removals = record_removals(monkeypatch)
        X = moment_points(MomentSpec(3, range(1, 17)))
        rep, part = set_tolerance(X, 3, guard=16)
        assert len(removals) == 85
        assert (rep, part.labels) == (
            ToleranceReport(value=2, breaking_set=(4, 7, 10), exhausted=True),
            (1, 1, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2),
        )

    def test_screen_row_updates(self, monkeypatch):
        # the screen's exact reads leave a row with a zero in the pivot
        # column alone until it is next read, and read a basis that reached
        # zero on the difference rows alone: 4,534 bigint row operations,
        # rescales included, where reading it on every canonical row made
        # 8,385, and updating every row at every pivot 15,666 in support
        # order and 10,340 with unit pivots put first, for the same report
        updates = [0]
        update = kernel.fraction_free_update

        def counted(*args):
            updates[0] += 1
            return update(*args)

        monkeypatch.setattr(kernel, "fraction_free_update", counted)
        monkeypatch.setattr(feasibility, "fraction_free_update", counted)
        rep, part = set_tolerance(moment_points(MomentSpec(2, range(1, 17))), 3, guard=16)
        assert (rep, part.labels) == (
            ToleranceReport(value=3, breaking_set=(1, 4, 7, 10), exhausted=True),
            (1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 1, 3),
        )
        assert updates[0] <= 4_534

    @pytest.mark.parametrize("X, r, report", [
        (moment_points(MomentSpec(2, range(1, 11))), 3,
         (1, (1, 4), (1, 2, 3, 1, 2, 3, 1, 2, 1, 3))),
        (moment_points(MomentSpec(3, range(1, 10))), 3, (0, (1,), (1, 2, 3, 1, 2, 1, 3, 1, 2))),
        (PointSet(1, [(Rational(v, 3),) for v in (5, -2, 9, 0, 4, 11, 7, -8, 6, 1, 3)]), 3,
         (2, (1, 2, 10), (1, 1, 1, 2, 2, 3, 2, 3, 3, 1, 3))),
        (moment_points(MomentSpec(3, sixteen_point_alphas())), None, (True, 1)),
    ])
    def test_exact_tests_on_the_lift_build_no_fraction(self, X, r, report):
        # once X is lifted to integers, the homogeneity test, the run order
        # of a line, the pair DP and the removal scan (the integer screen and
        # its Farkas replay) make no call into the fractions module
        X.lifted
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            out = is_order_homogeneous(X) if r is None else set_tolerance(X, r)
        finally:
            sys.setprofile(None)
        assert calls == []
        if r is None:
            assert (out.homogeneous, out.sign) == report
        else:
            rep, part = out
            assert (rep.value, rep.breaking_set, part.labels) == report and rep.exhausted

    @pytest.mark.parametrize("n, r, partitions", [(12, 2, 1), (12, 3, 1), (12, 4, 1)])
    def test_line_search_is_one_pruned_pass(self, monkeypatch, n, r, partitions):
        # the branch and bound yields only partitions that beat the best so
        # far; on these lines the first one it yields is the maximum (the
        # two-phase search evaluated 793, 14,954 and 69,727 partitions)
        count = [0]
        iter_partitions = tolerance.iter_partitions

        def counted(*args, **kwargs):
            for partition in iter_partitions(*args, **kwargs):
                count[0] += 1
                yield partition

        monkeypatch.setattr(tolerance, "iter_partitions", counted)
        rep, _ = set_tolerance(ONE_TO(n), r)
        assert rep.value == (n + 1) // r - 2
        assert count[0] == partitions

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_value_only_line_search_evaluates_the_seed_alone(self, monkeypatch, r):
        # the value-only search looks only for a partition that beats the
        # alternating one; on a line pairs decide and the cut is exact at
        # the leaves, so none is yielded and only the seed is evaluated
        yields, evaluated = [0], []
        iter_partitions, evaluate = tolerance.iter_partitions, tolerance._tolerance

        def counted(*args, **kwargs):
            for partition in iter_partitions(*args, **kwargs):
                yields[0] += 1
                yield partition

        def recorded(labels, *args):
            evaluated.append(labels)
            return evaluate(labels, *args)

        monkeypatch.setattr(tolerance, "iter_partitions", counted)
        monkeypatch.setattr(tolerance, "_tolerance", recorded)
        assert set_tolerance_value(ONE_TO(12), r) == 13 // r - 2
        assert (yields[0], evaluated) == (0, [alternating_partition(12, r).labels])

    @pytest.mark.parametrize("n, r, report, labels", [
        (9, 2, ToleranceReport(3, (1, 3, 5, 7), True), (1, 2, 1, 2, 1, 2, 1, 2, 1)),
        (12, 2, ToleranceReport(4, (3, 5, 7, 9, 11), True), (1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1)),
        (9, 3, ToleranceReport(1, (3, 6), True), (1, 1, 2, 3, 1, 2, 3, 1, 2)),
        (12, 3, ToleranceReport(2, (3, 6, 9), True), (1, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2)),
        (12, 4, ToleranceReport(1, (3, 7), True), (1, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3)),
    ])
    def test_one_pair_walk_per_report(self, monkeypatch, n, r, report, labels):
        # where pairs decide, the breaking set is walked off the pair DP for
        # the reported partition only, not for the alternating seed as well
        walks = []
        walk = tolerance.pair_breaking_set

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(tolerance, "pair_breaking_set", counted)
        rep, part = set_tolerance(ONE_TO(n), r)
        assert len(walks) == 1
        assert (rep, part.labels) == (report, labels)

    @pytest.mark.parametrize("n, labels", [
        (5, (1, 1, 1, 2, 3)), (6, (1, 1, 1, 1, 2, 3)), (7, (1, 1, 1, 1, 1, 2, 3)),
    ])
    def test_thin_blocks_never_bound_below_minus_one(self, n, labels):
        # d = 4: a block of floor(4/2) = 2 points or fewer breaks alone, but
        # no tolerance is below -1, so no partition may be cut for it
        X = moment_points(MomentSpec(4, range(1, n + 1)))
        rep, part = set_tolerance(X, 3)
        assert rep == ToleranceReport(value=-1, breaking_set=(), exhausted=True)
        assert part.labels == labels == brute_set_tolerance(X, 3)[1]

    @pytest.mark.parametrize("seed", range(20))
    def test_set_tolerance_matches_the_oracle(self, seed):
        # seeded reversed and shuffled lines and moment sets in R^2..R^4, some
        # reversed, with and without a budget: the report and the argmax
        # partition are those of the brute-force search
        rng = random.Random(seed)
        kind = seed % 5
        if kind < 2:
            n, r = rng.randint(4, 7), rng.randint(2, 3)
            values = rng.sample(range(-20, 20), n)
            values = sorted(values, reverse=True) if kind == 0 else values
            X = PointSet(1, [(v,) for v in values])
        else:
            n, r = rng.randint(kind + 3, kind + 4), rng.randint(2, 3)
            points = moment_points(MomentSpec(kind, sorted(rng.sample(range(-6, 7), n)))).points
            X = PointSet(kind, points[::rng.choice((1, -1))])
        budget = rng.choice((None, None, 0, 1))
        rep, part = set_tolerance(X, r, budget=budget)
        assert (rep, part.labels) == brute_set_tolerance(X, r, budget)


@st.composite
def small_sets(draw):
    """``(X, r)``: n <= 6 rational points in R^d, d = 1..3, r = 1..4.  Each
    point is new, a repeat of an earlier one, or on the line through two
    earlier ones; or the set is a moment set, homogeneous in index order."""
    d, r = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = draw(st.integers(r, 6))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if draw(st.booleans()):
        alphas = draw(st.lists(value, min_size=n, max_size=n, unique=True))
        return moment_points(MomentSpec(d, sorted(alphas))), r
    points = []
    for _ in range(n):
        kind = draw(st.sampled_from(["new", "repeat", "collinear"]) if len(points) >= 2
                    else st.just("new"))
        if kind == "new":
            points.append(tuple(draw(value) for _ in range(d)))
        elif kind == "repeat":
            points.append(draw(st.sampled_from(points)))
        else:
            p, q = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            t = draw(st.sampled_from([Rational(-1), Rational(1, 2), Rational(2)]))
            points.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
    return PointSet(d, points), r


#: the largest n drawn per (d, r) by :class:`TestTheoremBounds`; a set at
#: (3,3,9) costs about 0.7 s, at (3,3,8) 0.3 s, any other at most 0.1 s
THEOREM_N = {(1, 2): 9, (1, 3): 9, (2, 2): 9, (2, 3): 7, (3, 2): 9, (3, 3): 9}


def unimodular(data, d):
    """A drawn integer matrix of determinant +-1: shears, then a signed
    permutation of the coordinates."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(data.draw(st.integers(0, 3)) if d > 1 else 0):
        i, j = data.draw(st.permutations(range(d)))[:2]
        c = data.draw(st.integers(-2, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    order = data.draw(st.permutations(range(d)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    return [[s * v for v in m[k]] for s, k in zip(signs, order)]


class TestTheoremBounds:
    """Bounds that hold on every point set, and the symmetries that fix the
    value, on random integer sets with repeated points allowed: an engine
    that compares only with itself could break them."""

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(st.data())
    def test_bounds_and_symmetries(self, data):
        # each example draws a set for every (d, r) of THEOREM_N, so every
        # pair gets four: hypothesis's simplest (all points equal) and three more
        for d, r in sorted(THEOREM_N):
            self.check_bounds_and_symmetry(data, d, r)

    @staticmethod
    def check_bounds_and_symmetry(data, d, r):
        tverberg = (r - 1) * (d + 1) + 1
        n = data.draw(st.integers(max(r, tverberg - 1), THEOREM_N[d, r]))
        points = data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d),
                                    min_size=n, max_size=n))
        value = set_tolerance(PointSet(d, points), r)[0].value
        # Tverberg: (r-1)(d+1)+1 points have a partition with a common point
        assert value >= 0 or n < tverberg
        # Soberon-Strausz: (r-1)(t+1)(d+1)+1 points have tolerance t
        assert value >= (n - 1) // ((r - 1) * (d + 1)) - 1
        # removing a smallest block, of at most n // r points, breaks
        assert value <= n // r - 1
        # the value of the permuted set, or of its image under an integer
        # unimodular map plus a translation
        if data.draw(st.booleans()):
            image = data.draw(st.permutations(points))
        else:
            m = unimodular(data, d)
            shift = data.draw(st.tuples(*[st.integers(-9, 9)] * d))
            image = [tuple(sum(map(operator.mul, row, p)) + c for row, c in zip(m, shift))
                     for p in points]
        assert set_tolerance(PointSet(d, image), r)[0].value == value, (points, image)


class TestAgainstUnprunedScan:
    """The run rule, the pair bound, the partition branch and bound and the
    witness-support prune, with the integer screen on and off, against plain
    enumeration with the canonical simplex deciding every removal set."""

    @given(small_sets(), st.sampled_from([None, 1, 2]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_partition_tolerance(self, case, budget, data):
        X, r = case
        n = len(X)
        labels = data.draw(st.lists(st.integers(1, r), min_size=n, max_size=n)
                           .filter(lambda labels: set(labels) == set(range(1, r + 1))))
        part = Partition(n, r, labels)
        value, breaking = brute_tolerance(X, part)
        cap = n if budget is None else min(budget, n)
        expected = (ToleranceReport(value=cap, breaking_set=None, exhausted=False)
                    if value >= cap else
                    ToleranceReport(value=value, breaking_set=breaking, exhausted=True))
        for screened in (True, False):
            with screening(screened):
                assert partition_tolerance(X, part, budget) == expected

    @given(small_sets(), st.sampled_from([None, 1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_set_tolerance(self, case, budget):
        X, r = case
        expected = brute_set_tolerance(X, r, budget)
        for screened in (True, False):
            with screening(screened):
                rep, part = set_tolerance(X, r, budget)
            assert (rep, part.labels) == expected


@st.composite
def value_sets(draw):
    """``(X, r)``: n <= 9 points in R^d, d = 1..3, r = 1..4: a line in no
    sorted order, with repeated values or without; a moment set, forwards or
    backwards (on a line, sorted either way); or random rationals, whose
    removal scans run LPs."""
    d, r = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = draw(st.integers(r, 9))
    value = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    kind = draw(st.sampled_from(["line", "forwards", "backwards", "rationals"]))
    if kind == "line":
        # five values for up to nine points often repeat; unique ones come unsorted
        pool = value if draw(st.booleans()) else st.integers(-2, 2)
        values = draw(st.lists(pool, min_size=n, max_size=n, unique=pool is value))
        return PointSet(1, [(v,) for v in values]), r
    if kind == "rationals":
        return PointSet(d, [tuple(draw(value) for _ in range(d)) for _ in range(n)]), r
    alphas = sorted(draw(st.lists(value, min_size=n, max_size=n, unique=True)))
    points = moment_points(MomentSpec(d, alphas)).points
    return PointSet(d, points if kind == "forwards" else points[::-1]), r


class TestValueOnly:
    """The value-only search looks only for a partition that beats the
    alternating one; it must find the value that the report's search, which
    names the lexicographically first maximum, finds."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(value_sets())
    def test_value_is_the_reported_value(self, case):
        X, r = case
        value = set_tolerance(X, r)[0].value
        assert set_tolerance_value(X, r) == value
        if is_order_homogeneous(X).homogeneous:
            assert check_tolerance_sandwich(X, r).t_value == value


def perturbed_moment_set(seed, n, d, sign):
    """Seeded moment-curve set, nudged off the curve and kept only if still
    homogeneous; ``sign=-1`` mirrors the first coordinate."""
    rng = random.Random(2 * seed + (sign < 0))
    while True:
        alphas = seeded_increasing_alphas(rng.randrange(10 ** 6), n, lo=-6, hi=6)
        pts = [
            tuple(
                sign ** (k == 0) * (a ** (k + 1) + Rational(rng.randint(-4, 4), 16))
                for k in range(d)
            )
            for a in alphas
        ]
        X = PointSet(d, pts)
        result = is_order_homogeneous(X)
        if result.homogeneous:
            assert result.sign == sign and not result.trivial
            return X


HOMOGENEOUS_SETS = [
    (d, sign, seed) for d in (2, 3, 4) for sign in (1, -1) for seed in (0, 1)
]


class TestRunRule:
    @pytest.mark.parametrize("d, sign, seed", HOMOGENEOUS_SETS)
    def test_r2_rule_equals_lp(self, d, sign, seed):
        X = perturbed_moment_set(seed, 7, d, sign)
        order = tolerance._run_order(X, 2)
        assert order == tuple(range(7))
        for part in iter_partitions(7, 2):
            lp = hulls_common_point(split(X.points, part.labels, 2), d).feasible
            assert (pair_bound(part.labels, 2, d + 1, order) >= 0) == lp, part.labels
            assert (_depleted_feasible(part.labels, 2, X) is not None) == lp

    @pytest.mark.parametrize("d, sign, seed", HOMOGENEOUS_SETS)
    def test_r2_closed_form_matches_brute(self, d, sign, seed):
        X = perturbed_moment_set(seed, 7, d, sign)
        for part in iter_partitions(7, 2):
            rep = partition_tolerance(X, part)
            assert (rep.value, rep.breaking_set) == brute_tolerance(X, part), part.labels

    @pytest.mark.parametrize("d, sign, seed", HOMOGENEOUS_SETS)
    def test_r3_lp_feasible_implies_every_pair_passes(self, d, sign, seed):
        # 2(d+1)+2 points, so that near-alternating 3-partitions can be
        # feasible; random ones are mostly not
        n = 2 * (d + 1) + 2
        X = perturbed_moment_set(seed, n, d, sign)
        order = tolerance._run_order(X, 3)
        rng = random.Random(seed)
        alternating = alternating_partition(n, 3).labels
        parts = []
        while len(parts) < 60:
            if len(parts) < 40:
                labels = list(alternating)
                for i in rng.sample(range(n), rng.randint(0, 2)):
                    labels[i] = rng.randint(1, 3)
            else:
                labels = _random_partition_labels(rng, n, 3)
            if set(labels) == {1, 2, 3}:
                parts.append(Partition(n, 3, labels))
        feasible = 0
        for part in parts:
            lp = depleted_feasible(X, part, ())
            if lp:
                feasible += 1
                assert pair_bound(part.labels, 3, d + 1, order) >= 0, part.labels
            assert (_depleted_feasible(part.labels, 3, X) is not None) == lp
        assert feasible > 0

    @pytest.mark.parametrize("d, r", itertools.product(range(1, 5), range(1, 5)))
    def test_pair_bound_is_exact_where_pairs_decide(self, d, r):
        # the pair bound is never below the brute-force tolerance, and equals
        # it where pairs decide, where the breaking set read off it is the
        # brute-force one: sorted, reversed and shuffled lines, and moment
        # sets read forwards and backwards
        n = 7
        rng = random.Random(10 * d + r)
        values = rng.sample(range(-20, 20), n)
        if d == 1:
            sets = [PointSet(1, [(v,) for v in order])
                    for order in (sorted(values), sorted(values, reverse=True), values)]
        else:
            points = moment_points(MomentSpec(d, sorted(values))).points
            sets = [PointSet(d, points), PointSet(d, points[::-1])]
        for X in sets:
            order = tolerance._run_order(X, r)
            for _ in range(6):
                part = Partition(n, r, _random_partition_labels(rng, n, r))
                bound = pair_bound(part.labels, r, d + 1, order)
                value, breaking = brute_tolerance(X, part)
                exact = r == 1 or (order is not None and (r == 2 or d == 1))
                assert bound >= value and (bound == value or not exact), part.labels
                if exact:
                    rep = partition_tolerance(X, part)
                    assert rep.breaking_set == breaking, part.labels


class TestPairBound:
    @given(st.integers(1, 4), st.sampled_from([2, 3, 4]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_deletions(self, r, runs, data):
        # the one run DP against every deletion set, for strings over 0..r
        # (0 = removed) read in a drawn order; r >= 3 here needs no LP
        n = data.draw(st.integers(0, 9))
        labels = data.draw(st.lists(st.integers(0, r), min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        string = [0] * n
        for i, label in enumerate(labels):
            string[order[i]] = label
        assert pair_bound(labels, r, runs, order) == fewest_pair_deletions(string, r, runs) - 1
        assert pair_bound(labels, r, runs) == min(labels.count(k) for k in range(1, r + 1)) - 1
        # zeroing k nonzero letters lowers the bound by at most k (a string
        # never gains runs, nor a block points, when letters go), so the
        # removal scan's sizes up to the bound never meet a pair-broken set
        removed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        masked = [0 if out else label for out, label in zip(removed, labels)]
        lost = sum(1 for out, label in zip(removed, labels) if out and label)
        drop = pair_bound(labels, r, runs, order) - pair_bound(masked, r, runs, order)
        assert 0 <= drop <= lost


def blocks_named_in_order(n, r):
    """Every string of n letters over 0..r whose blocks are named by first
    appearance: every string up to renaming blocks, which changes no pair
    bound and so no breaking set."""
    for string in itertools.product(range(r + 1), repeat=n):
        named = [k for k in dict.fromkeys(string) if k]
        if named == list(range(1, len(named) + 1)):
            yield string


def five_orders(n):
    """None, the index order, its reverse and two seeded permutations."""
    drawn = []
    for seed in (n, n + 100):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        drawn.append(tuple(order))
    return [None, tuple(range(n)), tuple(range(n - 1, -1, -1)), *drawn]


class TestPairBreakingSet:
    # every string up to renaming blocks at n <= 8 and r = 4 would be 952,812
    # calls of each: the largest n that keeps each r to seconds (one block
    # has no pair, so r = 1 tests the block count alone)
    @pytest.mark.parametrize("r, largest", [(1, 6), (2, 7), (3, 6), (4, 6)])
    def test_matches_the_greedy_on_every_short_string(self, r, largest):
        for n in range(largest + 1):
            orders = five_orders(n)
            for string, runs, order in itertools.product(
                    blocks_named_in_order(n, r), range(2, 6), orders):
                bound = pair_bound(string, r, runs, order)
                for size in range(max(bound, -1) + 3):
                    assert (pair_breaking_set(string, r, size, runs, order)
                            == greedy_pair_breaking_set(string, r, size, runs, order)), \
                        (string, r, size, runs, order)

    @given(st.integers(1, 4), st.integers(2, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_greedy_on_drawn_strings(self, r, runs, data):
        n = data.draw(st.integers(0, 14))
        string = data.draw(st.lists(st.integers(0, r), min_size=n, max_size=n))
        order = data.draw(st.one_of(st.none(), st.permutations(range(n))))
        bound = pair_bound(string, r, runs, order)
        size = data.draw(st.integers(0, max(bound, -1) + 2))
        assert (pair_breaking_set(string, r, size, runs, order)
                == greedy_pair_breaking_set(string, r, size, runs, order))

    def test_reads_each_letter_twice_in_a_monotone_order(self, monkeypatch):
        # the index order or its reverse reads each letter at most twice;
        # any other order at most once more per chosen index
        rng = random.Random(37)
        calls = count_reads(monkeypatch)
        for _ in range(300):
            n, r, runs = rng.randint(0, 14), rng.randint(2, 4), rng.randint(2, 5)
            string = [rng.randint(0, r) for _ in range(n)]
            shuffled = rng.sample(range(n), n)
            letters = n - string.count(0)
            for order in (list(range(n)), list(range(n - 1, -1, -1)), shuffled):
                for size in range(max(pair_bound(string, r, runs, order), -1) + 3):
                    calls["reads"] = 0
                    found = pair_breaking_set(string, r, size, runs, order)
                    passes = 2 + size * (order is shuffled)
                    assert calls["reads"] <= passes * letters, (string, r, size, runs, order)
                    assert found == greedy_pair_breaking_set(string, r, size, runs, order)


class TestBreakingSetsWherePrinted:
    # the run DP made 148, 990 and 70 reads for the first three values when
    # each named a breaking set and dropped it, and 58, 443 and 37 (and
    # 1,227 for t_line(14, 7)) when each also searched down to a partition
    # that ties the alternating one, as set_tolerance does
    @pytest.mark.parametrize("value, expected, reads", [
        (lambda: t_line(12, 3), 2, 13),
        (lambda: n_line(3, 3), 14, 118),
        (lambda: check_tolerance_sandwich(moment_points(MomentSpec(3, range(1, 9))), 2).t_value,
         1, 13),
        (lambda: t_line(14, 7), 0, 15),
    ], ids=["t_line", "n_line", "sandwich", "t_line_14_7"])
    def test_value_only_callers_name_no_breaking_set(self, monkeypatch, value, expected, reads):
        calls = count_reads(monkeypatch)
        assert value() == expected
        assert calls == {"reads": reads, "breaking_sets": 0}

    def test_reports_name_one_breaking_set(self, monkeypatch):
        # in two passes of the run DP: a whole pair bound per index tried
        # made 148 reads on 1..12; r = 2 under the run rule, off a line
        calls = count_reads(monkeypatch)
        rep, _ = set_tolerance(ONE_TO(12), 3)
        assert (rep.value, rep.breaking_set) == (2, (3, 6, 9))
        assert calls == {"reads": 76, "breaking_sets": 1}
        X = moment_points(MomentSpec(3, range(1, 9)))
        for report in (lambda: set_tolerance(X, 2)[0],
                       lambda: partition_tolerance(X, alternating_partition(8, 2))):
            calls["breaking_sets"] = 0
            assert report().exhausted
            assert calls["breaking_sets"] == 1


def test_reversed_line_is_monotone(monkeypatch):
    """A line given in decreasing order is ranked in reverse, which has the
    same runs, so the run count cuts its partition search as it cuts the
    increasing one: 61 run-DP reads against 62, for the same value."""
    calls = count_reads(monkeypatch)
    reads = []
    for values in (range(1, 11), range(10, 0, -1)):
        calls["reads"] = 0
        rep, _ = set_tolerance(PointSet(1, [(Rational(v),) for v in values]), 3)
        assert rep.value == 1
        reads.append(calls["reads"])
    assert reads == [62, 61]


class TestBounds:
    def test_alternating_bound_values(self):
        assert alternating_bound(3, 4) == 25
        assert alternating_bound(2, 2) == 7
        for r in range(1, 8):
            assert alternating_bound(1, r) == 2 * r - 1

    def test_even_bound_values(self):
        assert alternating_bound_even(2, 3) == 9
        assert alternating_bound_even(2, 5) == 15
        with pytest.raises(InputError):
            alternating_bound_even(3, 2)
        # one block has a common point as soon as it has a point
        for d in (2, 4, 6):
            assert alternating_bound_even(d, 1) == 1 == alternating_bound(d, 1)

    def test_even_bound_large_r(self):
        # for r large relative to d (above d(d+1)/2) the minimum settles at
        # d(d+1)/2 * r; below that threshold the i=0 term undercuts it
        for d in (2, 4):
            base = d * (d + 1) // 2
            for r in range(base, 13):
                assert alternating_bound_even(d, r) == base * r
        assert alternating_bound_even(4, 6) == 54  # 10*5 + s_0 with s_0 = 4

    def test_tolerance_upper_bound(self):
        assert tolerance_upper_bound(5, 1, 2) == 2
        assert tolerance_upper_bound(16, 3, 4) == 3
        assert tolerance_upper_bound(4, 6, 2) == -1


class TestSandwich:
    def test_line_seven_points(self):
        rep = check_tolerance_sandwich(ONE_TO(7), 2)
        assert rep.t_value == 2
        assert rep.lower_bound == 0 and rep.upper_bound == 3

    def test_moment_d2_upper(self):
        X = moment_points(MomentSpec(2, range(1, 9)))
        rep = check_tolerance_sandwich(X, 2)
        assert rep.upper_bound == 3
        assert rep.lower_bound <= rep.t_value <= rep.upper_bound

    def test_requires_homogeneous(self):
        X = PointSet(2, [(0, 0), (2, 0), (1, 3), (1, 1)])
        with pytest.raises(InputError):
            check_tolerance_sandwich(X, 2)

    def test_requires_enough_points(self):
        with pytest.raises(InputError):
            check_tolerance_sandwich(ONE_TO(2), 3)


class TestSuperadditivity:
    def test_separated_sets_small(self):
        # t(X1 u X2, r) >= t(X1, r) + t(X2, r) for hyperplane-separated sets
        rng = random.Random(23)
        for trial in range(6):
            n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
            left = sorted(rng.sample(range(-20, -1), n1))
            right = sorted(rng.sample(range(1, 20), n2))
            X1 = PointSet(1, [(v,) for v in left])
            X2 = PointSet(1, [(v,) for v in right])
            U = PointSet(1, [(v,) for v in left + right])
            tu = set_tolerance(U, 2)[0].value
            t1 = set_tolerance(X1, 2)[0].value
            t2 = set_tolerance(X2, 2)[0].value
            assert tu >= t1 + t2
