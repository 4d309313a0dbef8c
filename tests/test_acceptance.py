"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact arithmetic throughout: every assertion is an exact comparison, zero
numerical tolerance anywhere.  Stated runtime budgets are asserted too, so a
performance regression fails loudly rather than silently blowing the suite.
"""

import random
import time

from oracles import interval_common_point, seeded_increasing_alphas
from tverlab.feasibility import (
    hulls_common_point,
    verify_outcome,
)
from tverlab.kernel import Hyperplane, PointSet, Rational
from tverlab.ordertype import (
    MomentSpec,
    gale_facets,
    is_order_homogeneous,
    moment_points,
    path_crossings,
)
from tverlab.search import (
    Counterexample,
    NoneFound,
    SearchStrategy,
    alternating_blocks,
    c_lower_bound,
    check_growth_inequality,
    find_counterexample,
    n_line,
    n_line_formula,
    scan_c_lower,
    verified_sixteen_point_example,
)
from tverlab.tolerance import (
    alternating_bound,
    iter_partitions,
    partition_tolerance,
    set_tolerance,
    tolerance_upper_bound,
)

from oracles import brute_force_facets, seeded_int_points


def _report(num, label, elapsed, budget, detail=""):
    line = f"[PASS] criterion {num}: {label} ({elapsed:.2f}s < {budget}s)"
    if detail:
        line += f" -- {detail}"
    print(line)


def test_criterion_1_sixteen_point_reproduction():
    """16-point, d=3, r=4 moment configuration: certified infeasible."""
    start = time.perf_counter()
    example, eps = verified_sixteen_point_example()
    assert example.n == 16 and example.dim == 3 and example.r == 4
    assert not example.outcome.feasible
    X = moment_points(MomentSpec(3, example.alphas))
    blocks = alternating_blocks(X, 4)
    assert verify_outcome(blocks, example.outcome, 3)
    assert is_order_homogeneous(X).sign == 1
    c_lower = example.n + 1
    assert c_lower >= 17
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    _report(1, "16-point witness gives c(3,4) >= 17", elapsed, 5,
            f"epsilon {eps}")


def test_criterion_2_small_threshold_values():
    """Scans match the known small values of c(d,r)."""
    start = time.perf_counter()
    # d = 1, r in 2..5: exact at the 2r-1 threshold
    for r in (2, 3, 4, 5):
        scan = scan_c_lower(1, r, range(max(r, 2 * r - 3), 2 * r + 1))
        for n, res in scan.items():
            if n <= 2 * r - 2:
                assert isinstance(res, Counterexample), (r, n)
            else:
                assert isinstance(res, NoneFound) and res.tried == 1, (r, n)
        found = [n for n, res in scan.items() if isinstance(res, Counterexample)]
        assert c_lower_bound(found) == 2 * r - 1
    # (d, r) = (2, 2): found at n = 3, none within budget for n >= 4
    strategy = SearchStrategy(kind="clustered", seed=1)
    res3 = find_counterexample(2, 2, 3, strategy=strategy, budget=500)
    assert isinstance(res3, Counterexample)
    for n in (4, 5, 6):
        res = find_counterexample(2, 2, n, strategy=strategy, budget=500)
        assert isinstance(res, NoneFound) and res.tried == 500, n
    # (d, r) = (2, 3): counterexamples all the way up to n = 3r - 1 = 8
    for n in range(3, 9):
        res = find_counterexample(2, 3, n, strategy=strategy, budget=10 ** 4)
        assert isinstance(res, Counterexample), n
        blocks = alternating_blocks(moment_points(MomentSpec(2, res.alphas)), 3)
        assert verify_outcome(blocks, res.outcome, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(2, "small c(d,r) scans (d=1 exact; (2,2); (2,3) up to n=8)",
            elapsed, 120)


def test_criterion_3_line_tolerance_numbers():
    """n_line(t, r) = r(t+2) - 1 for all t <= 3, r <= 3, exhaustively."""
    start = time.perf_counter()
    produced = []
    for r in (1, 2, 3):
        for t in (0, 1, 2, 3):
            value = n_line(t, r)
            assert value == n_line_formula(t, r), (t, r, value)
            produced.append((1, r, t, value))
    # finite growth inequality holds on every produced d=1 record
    for d, r, t, n in produced:
        assert check_growth_inequality(d, r, t, n), (d, r, t, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report(3, "d=1 tight numbers r(t+2)-1 for t <= 3, r <= 3", elapsed, 300,
            f"{len(produced)} records, growth inequality verified on all")


def test_criterion_4_alternating_bound_suite():
    """At n = alternating_bound(d, r) the alternating partition always meets."""
    start = time.perf_counter()
    checked = 0
    for d in (1, 2, 3):
        for r in (1, 2, 3, 4):
            n = alternating_bound(d, r)
            for seed in range(200):
                alphas = seeded_increasing_alphas(
                    10_000 + 61 * d + 17 * r + seed, n, lo=-3 * n - 5, hi=3 * n + 5
                )
                blocks = alternating_blocks(moment_points(MomentSpec(d, alphas)), r)
                out = hulls_common_point(blocks, d)
                assert out.feasible, (d, r, seed)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(4, "alternating intersection feasible at the bound size",
            elapsed, 120, f"{checked} seeded configurations")


def test_criterion_5_tolerance_sandwich():
    """floor(n/r) - bound <= t(X, r) <= floor(n/r) - floor(d/2) on moment sets."""
    start = time.perf_counter()
    checked = 0
    for d in (1, 2, 3):
        for r in (1, 2, 3):
            for n in range(max(r, d + 1), 11):
                families = [tuple(range(1, n + 1))]
                if n >= 9:  # one seeded parameter set at the heavy sizes
                    families.append(
                        tuple(seeded_increasing_alphas(777 + d * 31 + r * 7 + n, n))
                    )
                for alphas in families:
                    X = moment_points(MomentSpec(d, alphas))
                    report, _ = set_tolerance(X, r)
                    t = report.value
                    lo = n // r - alternating_bound(d, r)
                    hi = n // r - d // 2
                    assert lo <= t <= hi, (d, r, n, alphas, t, lo, hi)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _report(5, "tolerance sandwich on moment-curve sets (n <= 10)",
            elapsed, 600, f"{checked} configurations")


def test_criterion_6_tolerance_cap_exhaustive():
    """partition_tolerance <= floor(n/r) - floor(d/2), all partitions, n <= 8."""
    start = time.perf_counter()
    violations = 0
    checked = 0
    for d in (1, 2, 3):
        for r in (2, 3):
            for n, seed in ((8, 5000 + 10 * d + r), (7, 6000 + 10 * d + r)):
                X = seeded_int_points(seed, n, d, box=15)
                cap = tolerance_upper_bound(n, d, r)
                for partition in iter_partitions(n, r):
                    value = partition_tolerance(X, partition).value
                    checked += 1
                    if value > cap:
                        violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report(6, "tolerance cap floor(n/r) - floor(d/2), exhaustive partitions",
            elapsed, 300, f"{checked} partitions, zero violations")


def test_criterion_7_gale_oracle_equivalence():
    """Gale evenness equals brute-force facet enumeration, d <= 5, n <= 10."""
    start = time.perf_counter()
    pinned = {(2, 5): 5, (3, 6): 8, (4, 7): 14}
    for d in range(1, 6):
        for n in range(d + 1, 11):
            X = moment_points(MomentSpec(d, range(1, n + 1)))
            gale = gale_facets(n, d)
            brute = sorted(brute_force_facets(X))
            assert gale == brute, (d, n)
            if (d, n) in pinned:
                assert len(gale) == pinned[(d, n)]
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(7, "Gale evenness == brute-force facets (d <= 5, n <= 10)",
            elapsed, 60, "counts 5@(2,5), 8@(3,6), 14@(4,7)")


def test_criterion_8_path_crossing_bound():
    """1000 seeded vertex-avoiding hyperplanes: crossings <= d always."""
    start = time.perf_counter()
    rng = random.Random(20250811)
    done = 0
    per_d = 250
    for d in (1, 2, 3, 4):
        X = moment_points(MomentSpec(d, range(1, 11)))
        count = 0
        while count < per_d:
            normal = [rng.randint(-12, 12) for _ in range(d)]
            if not any(normal):
                continue
            offset = Rational(rng.randint(-2000, 2000), rng.randint(1, 7))
            h = Hyperplane(normal, offset)
            if any(h.side_of(p) == 0 for p in X.points):
                continue
            assert len(path_crossings(X, h)) <= d, (d, normal, offset)
            count += 1
            done += 1
    assert done == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(8, "path crossings <= d on homogeneous paths", elapsed, 60,
            "1000 hyperplanes")


def test_criterion_9_certificate_soundness_fuzz():
    """10^4 seeded intersection instances: every outcome replays exactly."""
    start = time.perf_counter()
    rng = random.Random(99)
    total = 10 ** 4
    feasible_count = 0
    for trial in range(total):
        d = rng.randint(1, 3)
        r = rng.randint(1, 3)
        blocks = [
            [
                tuple(Rational(rng.randint(-9, 9)) for _ in range(d))
                for _ in range(rng.randint(1, 4))
            ]
            for _ in range(r)
        ]
        out = hulls_common_point(blocks, d)
        assert verify_outcome(blocks, out, d), (trial, blocks)
        if out.feasible:
            feasible_count += 1
        if d == 1:
            expect = interval_common_point(
                [[p[0] for p in b] for b in blocks]
            ) is not None
            assert out.feasible == expect, (trial, blocks)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report(9, "certificate soundness fuzzing", elapsed, 300,
            f"{total} instances, {feasible_count} feasible, d=1 oracle exact")


def test_criterion_10_superadditivity():
    """t(X1 u X2, 2) >= t(X1, 2) + t(X2, 2) for separated sets."""
    start = time.perf_counter()
    rng = random.Random(31)
    pairs = 0
    while pairs < 100:
        d = 1 if pairs < 60 else 2
        n1 = rng.randint(2, 4)
        n2 = rng.randint(2, min(4, 10 - n1 - 2) + 2)
        left, right = set(), set()
        while len(left) < n1:
            left.add(
                tuple([Rational(rng.randint(-9, -1))]
                      + [Rational(rng.randint(-9, 9)) for _ in range(d - 1)])
            )
        while len(right) < n2:
            right.add(
                tuple([Rational(rng.randint(1, 9))]
                      + [Rational(rng.randint(-9, 9)) for _ in range(d - 1)])
            )
        left, right = sorted(left), sorted(right)
        X1, X2 = PointSet(d, left), PointSet(d, right)
        union = PointSet(d, left + right)
        t_union = set_tolerance(union, 2)[0].value
        t1 = set_tolerance(X1, 2)[0].value
        t2 = set_tolerance(X2, 2)[0].value
        assert t_union >= t1 + t2, (d, left, right, t_union, t1, t2)
        pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report(10, "tolerance superadditivity across a separating hyperplane",
            elapsed, 300, "100 seeded pairs (60 at d=1, 40 at d=2)")
