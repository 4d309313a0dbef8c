"""The four benchmark workloads and their independent answer checks.

Each workload turns ``--seed`` into inputs (``setup``) and then runs them
through ``tverlab.cli.main`` in-process (``execute``), checking every answer
with code of its own: a closed form, a theorem, or a certificate replayed
with ``fractions.Fraction`` against blocks rebuilt from the record's inputs.
A certificate is never taken on the word of ``tverlab verify`` alone,
because verify does not yet bind a certificate to its record's inputs.

A run is a number of rounds of equal size, fixed by ``--seconds`` through
each workload's nominal ``round_s`` (measured when the benchmark was
defined) and not by a clock, so two runs of one seed do exactly the same
work.  ``setup`` returns one plan per round; ``run_round`` executes one.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tverlab.cli
from tverlab.search import SearchStrategy, alpha_candidates


# ---------------------------------------------------------------------------
# running the CLI and tallying answers


class Cli:
    """Calls ``tverlab.cli.main(argv)`` and returns its exit code and records.

    Every record line goes into ``digest`` with its ``timing`` removed, so two
    runs that computed the same answers have the same digest.
    """

    def __init__(self):
        self.digest = hashlib.sha256()

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = tverlab.cli.main([str(a) for a in argv])
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        for record in records:
            body = {k: v for k, v in record.items() if k != "timing"}
            self.digest.update(json.dumps(body, separators=(",", ":")).encode() + b"\n")
        return code, records


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def answer(self, ok: bool, what: str, count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)


# ---------------------------------------------------------------------------
# exact geometry of the checks, independent of tverlab


def moment_point(alpha, dim):
    return tuple(alpha ** k for k in range(1, dim + 1))


def write_otps(path: Path, points, dim: int):
    rows = [" ".join(str(Fraction(c)) for c in p) for p in points]
    path.write_text(f"otps {dim} {len(points)}\n" + "\n".join(rows) + "\n")


def alternating_blocks(points, r: int):
    return [list(points[k::r]) for k in range(r)]


def decode_blocks(blocks):
    return [[tuple(Fraction(c) for c in p) for p in block] for block in blocks]


def replay_certificate(cert, blocks, dim: int) -> bool:
    """Replay a witness or Farkas payload against ``blocks`` (Fraction points).

    The Farkas system is tverlab's documented canonical layout: one column
    per point (blocks in order), one convexity row per block with right-hand
    side 1, then ``dim`` rows per consecutive block pair equating the two
    combinations, right-hand side 0.
    """
    if cert is None or cert.get("dim") != dim or decode_blocks(cert["blocks"]) != blocks:
        return False
    if cert.get("kind") == "witness" and cert.get("status") == "feasible":
        point = tuple(Fraction(c) for c in cert["point"])
        coeffs = [[Fraction(c) for c in cs] for cs in cert["coefficients"]]
        if len(coeffs) != len(blocks):
            return False
        for block, lam in zip(blocks, coeffs):
            if len(lam) != len(block) or min(lam) < 0 or sum(lam) != 1:
                return False
            combo = tuple(sum(l * p[c] for l, p in zip(lam, block)) for c in range(dim))
            if combo != point:
                return False
        return True
    if cert.get("kind") == "farkas" and cert.get("status") == "infeasible":
        u = [Fraction(v) for v in cert["multipliers"]]
        r = len(blocks)
        if len(u) != r + (r - 1) * dim:
            return False
        convexity, chains = u[:r], u[r:]
        if sum(convexity) <= 0:
            return False
        for k, block in enumerate(blocks):
            for p in block:
                column = convexity[k]
                if k < r - 1:
                    column += sum(chains[k * dim + c] * p[c] for c in range(dim))
                if k > 0:
                    column -= sum(chains[(k - 1) * dim + c] * p[c] for c in range(dim))
                if column > 0:
                    return False
        return True
    return False


# ---------------------------------------------------------------------------
# search-d3r4


class SearchD3R4:
    """``search-c -d 3 -r 4`` at n=16: each round chains searches until it
    has decided exactly 100 candidates.  Search j of round k uses seed
    ``S + 1000 (100 k + j)`` and the budget the round has left."""

    name = "search-d3r4"
    round_s = 2.5
    candidates = 100

    def setup(self, seed, rounds, workdir):
        return [seed + 100_000 * k for k in range(rounds)]

    def run_round(self, first_seed, cli, tally):
        decided = 0
        j = 0
        while decided < self.candidates:
            seed = first_seed + 1000 * j
            budget = self.candidates - decided
            code, records = cli(["--seed", seed, "search-c", "-d", 3, "-r", 4,
                                 "--n-from", 16, "--n-to", 16, "--budget", budget])
            ok, count = self._check(code, records, seed, budget)
            tally.answer(ok, f"search-c seed {seed}", count)
            decided += count
            j += 1

    @staticmethod
    def _check(code, records, seed, budget):
        if code != 0 or len(records) != 2:
            return False, budget
        record, summary = records
        outcome = record["outcome"]
        found = outcome.get("found") is True
        summary_ok = (summary["outcome"]["per_n"] == {"16": found}
                      and summary["outcome"]["lower_bound"] == (17 if found else None))
        if not found:
            return summary_ok and outcome.get("tried") == budget, budget
        alphas = tuple(Fraction(a) for a in outcome["alphas"])
        stream = alpha_candidates(SearchStrategy(kind="clustered", seed=seed), 16, 4)
        position = next((i for i, (_, cand) in enumerate(zip(range(budget), stream), 1)
                         if tuple(cand) == alphas), None)
        if position is None:
            return False, budget
        # strictly increasing parameters make the moment points order-type
        # homogeneous (positive Vandermonde determinants)
        increasing = len(alphas) == 16 and all(a < b for a, b in zip(alphas, alphas[1:]))
        blocks = alternating_blocks([moment_point(a, 3) for a in alphas], 4)
        ok = (summary_ok and increasing and record["inputs"]["n"] == 16
              and record["certificate"]["status"] == "infeasible"
              and replay_certificate(record["certificate"], blocks, 3))
        return ok, position


# ---------------------------------------------------------------------------
# tolerance-moment


class ToleranceMoment:
    """``tolerance --set -r r`` on seeded moment-curve sets.

    One round is nine sets: every (d, r, n) with d, r in {2, 3} and n in
    {8, 9, 10} except the three that take over ten seconds each at the
    defining commit ((2,3,10), (3,3,9), (3,3,10)).  Every round draws new
    parameters.
    """

    name = "tolerance-moment"
    round_s = 3.75
    cases = ((2, 2, 8), (2, 2, 9), (2, 2, 10), (2, 3, 8), (2, 3, 9),
             (3, 2, 8), (3, 2, 9), (3, 2, 10), (3, 3, 8))
    #: tolerance per (d, r, n), recorded at the defining commit; the same in
    #: every one of the first ``recorded_rounds`` rounds of every seed in
    #: ``recorded_seeds``
    expected = {(2, 2, 8): 2, (2, 2, 9): 2, (2, 2, 10): 3, (2, 3, 8): 0, (2, 3, 9): 0,
                (3, 2, 8): 1, (3, 2, 9): 2, (3, 2, 10): 2, (3, 3, 8): -1}
    recorded_seeds = range(1, 11)
    recorded_rounds = 4

    def setup(self, seed, rounds, workdir):
        rng = random.Random(seed)
        plans = []
        for k in range(rounds):
            plan = []
            for d, r, n in self.cases:
                alphas = sorted(rng.sample(range(-4 * n, 4 * n + 1), n))
                path = f"moment-{k}-d{d}r{r}n{n}.otps"
                write_otps(workdir / path, [moment_point(a, d) for a in alphas], d)
                recorded = seed in self.recorded_seeds and k < self.recorded_rounds
                plan.append((path, d, r, n, recorded))
            plans.append(plan)
        return plans

    def run_round(self, plan, cli, tally):
        for path, d, r, n, recorded in plan:
            code, records = cli(["tolerance", path, "--set", "-r", r])
            ok = code == 0 and len(records) == 1
            if ok:
                outcome = records[0]["outcome"]
                value = outcome["value"]
                lower = n // r - ((d + 1) * (d // 2 + 1) * (r - 1) + 1)
                upper = n // r - d // 2
                ok = (outcome["exhausted"] is True and lower <= value <= upper
                      and (not recorded or value == self.expected[d, r, n]))
            tally.answer(ok, f"tolerance --set {path}")


# ---------------------------------------------------------------------------
# line-d1


class LineD1:
    """``t-line`` and ``tolerance --set`` at d=1: partition enumeration and
    the interval closed form, with no LP solve.  The ``tolerance --set``
    sets are seeded rationals, new in every round, listed in increasing
    order; ``t-line`` takes no points.  (In a seeded order the first
    partition tried is a poor one, and the run time then depends on the
    seed by a third.)"""

    name = "line-d1"
    round_s = 3.5
    t_line_cases = ((12, 3), (10, 4), (14, 2))
    set_cases = ((12, 3), (10, 4), (12, 2))

    def setup(self, seed, rounds, workdir):
        rng = random.Random(seed)
        plans = []
        for k in range(rounds):
            plan = [("t-line", n, r) for n, r in self.t_line_cases]
            for n, r in self.set_cases:
                values = set()
                while len(values) < n:
                    values.add(Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
                points = [(v,) for v in sorted(values)]
                path = f"line-{k}-n{n}r{r}.otps"
                write_otps(workdir / path, points, 1)
                plan.append((path, n, r))
            plans.append(plan)
        return plans

    def run_round(self, plan, cli, tally):
        for step in plan:
            if step[0] == "t-line":
                _, n, r = step
                code, records = cli(["t-line", "-n", n, "-r", r])
            else:
                path, n, r = step
                code, records = cli(["tolerance", path, "--set", "-r", r])
            # t(n, 1, r) = floor((n + 1) / r) - 2 for every n-point set on a line
            ok = (code == 0 and len(records) == 1
                  and records[0]["outcome"]["value"] == (n + 1) // r - 2)
            tally.answer(ok, f"line-d1 {step}")


# ---------------------------------------------------------------------------
# certify


def clustered_alphas(rng, n=16, clusters=3, size=3, span=64, eps=Fraction(1, 1000)):
    """n increasing parameters: ``clusters`` tight clusters of ``size`` points
    (steps of ``eps``) at seeded integer centers, plus a seeded integer tail.

    The shape is fixed and only the positions are seeded: the size of the
    numbers, and so the kernel's work, then varies little with the seed.
    """
    centers = rng.sample(range(-span, span + 1), clusters + n - clusters * size)
    values = [Fraction(c) + i * eps for c in centers[:clusters] for i in range(size)]
    values += [Fraction(c) for c in centers[clusters:]]
    return sorted(values)


def tamper(record, kind):
    """A copy of ``record`` whose certificate no longer proves its claim."""
    bad = json.loads(json.dumps(record))
    cert = bad["certificate"]
    if cert["kind"] == "witness":
        if kind % 2:
            cert["point"][0] = str(Fraction(cert["point"][0]) + 1)
        else:
            cert["coefficients"][0][0] = str(Fraction(cert["coefficients"][0][0]) + 1)
    elif kind % 2:
        cert["multipliers"] = [str(-Fraction(u)) for u in cert["multipliers"]]
    else:
        cert["multipliers"] = cert["multipliers"][:-1]
    return bad


class Certify:
    """An independent verifier's job on seeded 16-point clustered moment
    configurations: ``homog --expect homogeneous`` on each, then ``verify`` on
    a report of their certificates.  The report holds, per configuration, an
    ``intersect --alternating 4`` record for all 16 points (a witness as a
    rule), one for the first 8 (a Farkas certificate as a rule) and one
    tampered copy of either, which must be rejected.  Every round repeats
    the same inputs: making them costs an LP per record, which would
    otherwise dominate set-up."""

    name = "certify"
    round_s = 4.0
    configurations = 16

    def setup(self, seed, rounds, workdir):
        rng = random.Random(seed)
        cli = Cli()
        configs = []
        for i in range(self.configurations):
            points = [moment_point(a, 3) for a in clustered_alphas(rng)]
            write_otps(workdir / f"cfg-{i}.otps", points, 3)
            write_otps(workdir / f"sub-{i}.otps", points[:8], 3)
            configs.append(points)
        records = []
        for i in range(self.configurations):
            for name in (f"cfg-{i}.otps", f"sub-{i}.otps"):
                code, out = cli(["intersect", workdir / name, "--alternating", 4])
                if code != 0:
                    raise RuntimeError(f"intersect {name} exited {code}")
                out[0]["timing"] = None
                records.append(out[0])
        lines, expect = [], []
        for i in range(self.configurations):
            whole, sub = records[2 * i], records[2 * i + 1]
            lines += [whole, sub, tamper(sub if i % 2 else whole, i // 2)]
            expect += [(i, whole, configs[i]), (i, sub, configs[i][:8]), (i, None, None)]
        (workdir / "report.jsonl").write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in lines))
        return [expect] * rounds

    def run_round(self, expect, cli, tally):
        verdicts = []
        for i in range(self.configurations):
            code, records = cli(["homog", f"cfg-{i}.otps", "--expect", "homogeneous"])
            outcome = records[0]["outcome"] if records else {}
            verdicts.append(code == 0 and outcome.get("homogeneous") is True
                            and outcome.get("sign") == 1)
        code, records = cli(["verify", "report.jsonl"])
        results = records[0]["outcome"]["results"] if records else []
        if code != 1 or len(results) != len(expect):
            verdicts = [False] * self.configurations
            results = []
        for (i, record, points), result in zip(expect, results):
            if record is None:  # tampered: must be rejected
                ok = result["replayed"] is False
            else:  # accepted, and independently valid for its own inputs
                ok = (result["replayed"] is True
                      and decode_blocks([record["inputs"]["pointset"]["points"]]) == [points]
                      and replay_certificate(record["certificate"],
                                             alternating_blocks(points, 4), 3))
            verdicts[i] = verdicts[i] and ok
        for i, ok in enumerate(verdicts):
            tally.answer(ok, f"certify configuration {i}")


WORKLOADS = {w.name: w for w in (SearchD3R4(), ToleranceMoment(), LineD1(), Certify())}
