"""Command-line workbench: every command emits JSON-line report records.

Each record ties the command to a claim tag, echoes its inputs, and carries
self-contained certificate payloads, so any report can be re-verified later
by ``tverlab verify <report.jsonl>`` using only the exact kernel and the
feasibility engine.  One rule binds every certificate to its record: the
payload's ``dim``, ``blocks`` and ``status`` must equal what the record's own
inputs and outcome define (the point set, partition and status of
``intersect``; the alternating partition of the moment points of a found
``search-c`` record or of ``verify-figure2``, with no common point), and its
evidence must replay.  ``search-c`` resume takes a found record back only
under the same rule.

Exit status: 0 = computed and all requested claim checks passed; 1 = a claim
check failed (the record says which); 2 = input error, or a path that
cannot be read or written; 3 = an exhaustive enumeration guard was hit; 4 =
an internal fault or any other exception (a bug, not a verdict on the
claim).  Identical invocations with identical seeds produce byte-identical
reports apart from the timing field.

Every record goes through one writer, which stamps its ``timing`` (seconds
since the command started), keeps it for stdout and appends it to ``--out``.
A ``search-c`` record is written as soon as its n finishes, and ``search-c``
reads ``--out`` back to resume an interrupted scan deterministically.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from . import search as searchmod
from .errors import InputError, InternalError, ResourceGuardError
from .feasibility import hulls_common_point, verify_outcome
from .kernel import Hyperplane, PointSet
from .ordertype import (
    MomentSpec,
    gale_facets,
    is_neighborly,
    is_order_homogeneous,
    moment_points,
    path_crossings,
)
from .pointset_io import (
    ReportRecord,
    emit_pointset,
    encode_points,
    format_rational,
    jsonable,
    load_records,
    outcome_payload,
    parse_pointset,
    parse_rational,
    replay_record,
)
from .search import (
    Counterexample,
    SearchStrategy,
    c_lower_bound,
    check_growth_inequality,
    n_line,
    n_line_formula,
    scan_c_lower,
    t_line,
    verified_sixteen_point_example,
)
from .tolerance import (
    Partition,
    alternating_bound,
    alternating_bound_even,
    alternating_partition,
    block_points,
    check_tolerance_sandwich,
    partition_tolerance,
    set_tolerance,
    tolerance_upper_bound,
)

# claim tags are stable wire-format identifiers used by downstream tooling
CLAIM_GALE = "Lemma2.1"
CLAIM_CROSSINGS = "Lemma2.2"
CLAIM_ALTERNATING_BOUND = "Lemma3.2"
CLAIM_EVEN_BOUND = "EvenD"
CLAIM_SCAN = "Problem3.3"
CLAIM_SANDWICH_UPPER = "Thm3.4-upper"
CLAIM_TOLERANCE_CAP = "Prop4.1"
CLAIM_SIXTEEN = "Figure2"
CLAIM_LINE_TIGHT = "TightD1"
CLAIM_GROWTH = "Thm1.1-d1"


def _read_text(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _load_pointset(path: str) -> PointSet:
    return parse_pointset(_read_text(path))


def _parse_alphas(args) -> List:
    if args.alphas is not None:
        return [parse_rational(tok) for tok in args.alphas.split(",") if tok.strip()]
    if args.alphas_file is not None:
        toks = _read_text(args.alphas_file).split()
        return [parse_rational(tok) for tok in toks]
    raise InputError("provide --alphas or --alphas-file")


def _parse_blocks(spec: str, n: int) -> Partition:
    blocks = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            blocks.append([int(tok) for tok in part.split(",") if tok.strip()])
        except ValueError:
            raise InputError(f"block spec {part!r} is not a comma list of indices")
    return Partition.from_blocks(n, blocks)


def _partition_for(args, n: int) -> Partition:
    if getattr(args, "alternating", None) is not None:
        return alternating_partition(n, args.alternating)
    if getattr(args, "blocks", None):
        return _parse_blocks(args.blocks, n)
    raise InputError("provide --blocks or --alternating")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (records, claim_failed)


def _cmd_gen(args):
    alphas = _parse_alphas(args)
    spec = MomentSpec(args.dim, alphas)
    ps = moment_points(spec)
    text = emit_pointset(ps)
    if args.pointset_out:
        Path(args.pointset_out).write_text(text)
    record = ReportRecord(
        command="gen",
        inputs={"dim": args.dim, "alphas": [format_rational(a) for a in alphas]},
        claim=None,
        outcome={"pointset": ps, "text": text},
        seed=args.seed,
    )
    return [record], False


def _cmd_homog(args):
    ps = _load_pointset(args.pointset)
    result = is_order_homogeneous(ps)
    outcome = {
        "homogeneous": result.homogeneous,
        "sign": result.sign,
        "trivial": result.trivial,
        "witness": result.witness,
    }
    failed = False
    if args.expect is not None:
        expected = args.expect == "homogeneous"
        failed = result.homogeneous != expected
        outcome["expected"] = args.expect
    record = ReportRecord(
        command="homog",
        inputs={"pointset": ps},
        claim="OrderType",
        outcome=outcome,
        seed=args.seed,
    )
    return [record], failed


def _cmd_facets(args):
    fs = gale_facets(args.n, args.dim)
    record = ReportRecord(
        command="facets",
        inputs={"n": args.n, "dim": args.dim},
        claim=CLAIM_GALE,
        outcome={"count": len(fs), "facets": [list(f) for f in fs]},
        seed=args.seed,
    )
    return [record], False


def _cmd_neighborly(args):
    value = is_neighborly(args.n, args.dim)
    record = ReportRecord(
        command="neighborly",
        inputs={"n": args.n, "dim": args.dim},
        claim="Neighborly",
        outcome={"neighborly": value, "k": args.dim // 2},
        seed=args.seed,
    )
    return [record], not value


def _cmd_crossings(args):
    ps = _load_pointset(args.pointset)
    normal = [parse_rational(tok) for tok in args.normal.split(",")]
    h = Hyperplane(normal, parse_rational(args.offset))
    edges = path_crossings(ps, h)
    within = len(edges) <= ps.dim
    record = ReportRecord(
        command="crossings",
        inputs={"pointset": ps, "normal": normal, "offset": h.offset},
        claim=CLAIM_CROSSINGS,
        outcome={
            "count": len(edges),
            "edges": list(edges),
            "bound": ps.dim,
            "within_bound": within,
        },
        seed=args.seed,
    )
    return [record], not within


def _cmd_intersect(args):
    ps = _load_pointset(args.pointset)
    partition = _partition_for(args, len(ps))
    blocks = block_points(ps, partition.blocks())
    outcome = hulls_common_point(blocks, ps.dim)
    replayed = verify_outcome(blocks, outcome, ps.dim)
    payload = outcome_payload(blocks, ps.dim, outcome)
    failed = not replayed
    if args.expect is not None:
        failed = failed or (outcome.status != args.expect)
    record = ReportRecord(
        command="intersect",
        inputs={"pointset": ps, "partition": list(partition.labels)},
        claim="Intersection",
        outcome={
            "status": outcome.status,
            "replayed": replayed,
            "expected": args.expect,
        },
        certificate=payload,
        seed=args.seed,
    )
    return [record], failed


def _cmd_tolerance(args):
    ps = _load_pointset(args.pointset)
    if args.sandwich:
        if args.r is None:
            raise InputError("--sandwich needs -r")
        rep = check_tolerance_sandwich(ps, args.r)
        record = ReportRecord(
            command="tolerance",
            inputs={"pointset": ps, "mode": "sandwich", "r": args.r},
            claim=CLAIM_SANDWICH_UPPER,
            outcome={
                "t_value": rep.t_value,
                "lower_bound": rep.lower_bound,
                "upper_bound": rep.upper_bound,
                "lower_ok": rep.lower_ok,
                "upper_ok": rep.upper_ok,
            },
            seed=args.seed,
        )
        return [record], not (rep.lower_ok and rep.upper_ok)
    if args.set_mode:
        if args.r is None:
            raise InputError("--set needs -r")
        report, partition = set_tolerance(ps, args.r, budget=args.budget)
        mode = "set"
    else:
        partition = _partition_for(args, len(ps))
        report = partition_tolerance(ps, partition, budget=args.budget)
        mode = "partition"
    record = ReportRecord(
        command="tolerance",
        inputs={
            "pointset": ps,
            "mode": mode,
            "r": partition.r,
            "partition": list(partition.labels),
            "budget": args.budget,
        },
        claim="Tolerance",
        outcome={
            "value": report.value,
            "breaking_set": jsonable(report.breaking_set),
            "exhausted": report.exhausted,
            "partition": list(partition.labels),
        },
        seed=args.seed,
    )
    return [record], False


def _cmd_bounds(args):
    if args.kind == "lemma32":
        value = alternating_bound(args.dim, args.r)
        claim = CLAIM_ALTERNATING_BOUND
        inputs = {"kind": args.kind, "dim": args.dim, "r": args.r}
    elif args.kind == "even-d":
        value = alternating_bound_even(args.dim, args.r)
        claim = CLAIM_EVEN_BOUND
        inputs = {"kind": args.kind, "dim": args.dim, "r": args.r}
    else:  # prop41
        if args.n is None:
            raise InputError("prop41 bound needs -n")
        value = tolerance_upper_bound(args.n, args.dim, args.r)
        claim = CLAIM_TOLERANCE_CAP
        inputs = {"kind": args.kind, "n": args.n, "dim": args.dim, "r": args.r}
    record = ReportRecord(
        command="bounds", inputs=inputs, claim=claim, outcome={"value": value},
        seed=args.seed,
    )
    return [record], False


def _strategy_from(args) -> SearchStrategy:
    kwargs = {"kind": args.strategy, "seed": args.seed or 0, "cluster_count": args.cluster_count}
    if args.spread is not None:
        kwargs["spread"] = args.spread
    return SearchStrategy(**kwargs)


def _strategy_fingerprint(strategy: SearchStrategy, budget: int) -> Dict:
    return {**dataclasses.asdict(strategy), "budget": budget}


def _scan_record(args, strategy, n, result, fingerprint) -> ReportRecord:
    inputs = {"d": args.dim, "r": args.r, "n": n, "strategy": fingerprint}
    if isinstance(result, Counterexample):
        payload = outcome_payload(result.blocks, result.dim, result.outcome)
        outcome = {
            "found": True,
            "alphas": [format_rational(a) for a in result.alphas],
            "exact": args.dim == 1,
        }
        return ReportRecord(
            command="search-c", inputs=inputs, claim=CLAIM_SCAN,
            outcome=outcome, certificate=payload, seed=strategy.seed,
        )
    outcome = {"found": False, "tried": result.tried, "exact": result.exact}
    return ReportRecord(
        command="search-c", inputs=inputs, claim=CLAIM_SCAN,
        outcome=outcome, seed=strategy.seed,
    )


def _load_resume(args, fingerprint) -> Dict[int, bool]:
    """What the ``--out`` checkpoint found at each n (:func:`_scan_found`),
    with a warning for each record dropped and for a torn final line."""
    path = Path(args.out) if args.out else None
    if not path or not path.exists():
        return {}
    data = path.read_bytes()
    cut = data.rfind(b"\n") + 1
    if cut < len(data):
        # every record is written with its newline: an unended last line is
        # an append cut short, which later appends would run onto
        print(f"warning: {path}: dropping a torn final line", file=sys.stderr)
        os.truncate(path, cut)
        data = data[:cut]
    inputs = {"d": args.dim, "r": args.r, "strategy": jsonable(fingerprint)}
    found, dropped = _scan_found(load_records(data.decode()), inputs, _replay_bound)
    for n in dropped:
        print(f"warning: {path}: dropping the n={n} counterexample, whose certificate "
              "does not replay against its own inputs", file=sys.stderr)
    return found


def _cmd_search_c(args):
    if args.n_to < args.n_from:
        raise InputError(f"empty n range: --n-to {args.n_to} is below --n-from {args.n_from}")
    strategy = _strategy_from(args)
    budget = args.budget if args.budget is not None else 1000
    fingerprint = _strategy_fingerprint(strategy, budget)
    found = _load_resume(args, fingerprint)
    ns = range(args.n_from, args.n_to + 1)
    resumed = [n for n in ns if n in found]

    def on_result(n, result):
        found[n] = isinstance(result, Counterexample)
        # each n reaches --out as it finishes, so an interrupted scan resumes
        args.emit(_scan_record(args, strategy, n, result, fingerprint))

    todo = [n for n in ns if n not in found]
    scan_c_lower(args.dim, args.r, todo, strategy=strategy, budget=budget, on_result=on_result)
    summary = ReportRecord(
        command="search-c-summary",
        inputs={"d": args.dim, "r": args.r, "n_from": args.n_from,
                "n_to": args.n_to, "strategy": fingerprint},
        claim=CLAIM_SCAN,
        outcome={**_scan_summary({n: found[n] for n in ns}), "resumed": resumed},
        seed=strategy.seed,
    )
    return [summary], False


def _cmd_t_line(args):
    value = t_line(args.n, args.r)
    record = ReportRecord(
        command="t-line",
        inputs={"n": args.n, "r": args.r},
        claim=CLAIM_LINE_TIGHT,
        outcome={"value": value},
        seed=args.seed,
    )
    return [record], False


def _cmd_n_line(args):
    value = n_line(args.t, args.r)
    oracle = n_line_formula(args.t, args.r)
    growth_ok = check_growth_inequality(1, args.r, args.t, value)
    record = ReportRecord(
        command="n-line",
        inputs={"t": args.t, "r": args.r},
        claim=CLAIM_GROWTH,
        outcome={
            "value": value,
            "oracle": oracle,
            "match": value == oracle,
            "growth_inequality_ok": growth_ok,
        },
        seed=args.seed,
    )
    return [record], not (value == oracle and growth_ok)


def _cmd_verify_sixteen(args):
    eps = parse_rational(args.epsilon) if args.epsilon else searchmod.DEFAULT_EPSILON
    # a certificate that does not replay raised InternalError in _certified
    example, working_eps = verified_sixteen_point_example(eps)
    record = ReportRecord(
        command="verify-figure2",
        inputs={"epsilon": working_eps},
        claim=CLAIM_SIXTEEN,
        outcome=_figure2_outcome(example.alphas),
        certificate=outcome_payload(example.blocks, example.dim, example.outcome),
        seed=args.seed,
    )
    return [record], False


def _figure2_outcome(alphas) -> Dict:
    """The outcome of a ``verify-figure2`` record for the given alphas, whose
    alternating 4-partition in R^3 was certified empty and replayed."""
    n = len(alphas)
    return {
        "status": "infeasible",
        "replayed": True,
        "n": n,
        "alphas": [format_rational(a) for a in alphas],
        "c_lower_bound": {"d": 3, "r": 4, "at_least": c_lower_bound([n])},
    }


def _claimed(record: ReportRecord) -> Optional[list]:
    """The ``[dim, blocks, status]`` that a record's own inputs and outcome
    define, in the canonical text form payloads are written in; None when the
    record claims nothing a certificate could prove.  ``intersect`` claims the
    status it states for the blocks of its point set and partition;
    ``search-c`` (found) and ``verify-figure2`` claim that the alternating
    r-partition of their moment points in R^d has no common point.  Every
    field of a ``verify-figure2`` outcome follows from its epsilon, and must
    equal what that epsilon gives."""
    inputs, outcome = record.inputs, record.outcome
    if record.command == "intersect":
        points = inputs["pointset"]["points"]
        labels = list(inputs["partition"])
        partition = Partition(len(points), max(labels, default=0), labels)
        blocks = [[points[i - 1] for i in b] for b in partition.blocks()]
        return [inputs["pointset"]["dim"], blocks, outcome["status"]]
    if record.command == "search-c" and outcome["found"] is True:
        dim, r = inputs["d"], inputs["r"]
        alphas = tuple(parse_rational(a) for a in outcome["alphas"])
        if len(alphas) != inputs["n"]:
            return None
    elif record.command == "verify-figure2":
        dim, r = 3, 4
        alphas = searchmod.sixteen_point_alphas(parse_rational(inputs["epsilon"]))
        if outcome != _figure2_outcome(alphas):
            return None
    else:
        return None
    # moment_points refuses unordered alphas
    blocks = searchmod.moment_blocks(dim, r, alphas)
    return [dim, [encode_points(b) for b in blocks], "infeasible"]


def _replay_bound(record: ReportRecord) -> Optional[bool]:
    """Whether a record's certificate states the claim its own inputs and
    outcome define and its evidence replays; None when the record carries no
    certificate.  A certificate on a record that claims nothing proves
    nothing and fails."""
    cert = record.certificate
    if cert is None:
        return None
    try:
        return (
            _claimed(record) == [cert["dim"], cert["blocks"], cert["status"]]
            and replay_record(record)
        )
    except (InputError, KeyError, TypeError, ValueError, AttributeError):
        return False


def _scan_found(records, inputs, replays):
    """``(found, dropped)``: n -> whether the ``search-c`` records of the d,
    r and strategy of ``inputs`` found a counterexample at n (``found`` true,
    and a certificate that replays), and the n of each found record that
    does not replay against its own inputs; ``replays(record)`` is a found
    record's verdict (:func:`_replay_bound`)."""
    found: Dict[int, bool] = {}
    dropped = []
    for rec in records:
        if rec.command != "search-c" or any(
            rec.inputs.get(key) != inputs[key] for key in ("d", "r", "strategy")
        ):
            continue
        n, hit = rec.inputs.get("n"), rec.outcome.get("found") is True
        if hit and not replays(rec):
            dropped.append(n)
        else:
            found[n] = found.get(n, False) or hit
    return found, dropped


def _scan_summary(found: Dict[int, bool]) -> Dict:
    """The ``per_n`` and ``lower_bound`` of a ``search-c-summary`` over
    ``found``, n -> whether a counterexample was found, in increasing n."""
    return {
        "per_n": {str(n): hit for n, hit in found.items()},
        "lower_bound": c_lower_bound(n for n, hit in found.items() if hit),
    }


def _summary_bound(summary: ReportRecord, records, replays) -> bool:
    """Whether a ``search-c-summary`` states, for each n from n_from to
    n_to, what the report's records found (:func:`_scan_found`), and the
    lower bound that follows."""
    inputs = summary.inputs
    try:
        found, _ = _scan_found(records, inputs, replays)
        ns = range(inputs["n_from"], inputs["n_to"] + 1)
        expected = _scan_summary({n: found[n] for n in ns})  # KeyError: no record
        return all(summary.outcome[key] == value for key, value in expected.items())
    except (KeyError, TypeError):
        return False


def _cmd_verify(args):
    records_in = load_records(_read_text(args.report))
    # one replay per certificate: a summary reads its records' verdicts
    verdicts = {id(rec): _replay_bound(rec) for rec in records_in}
    results = []
    for i, rec in enumerate(records_in, start=1):
        verdict = verdicts[id(rec)]
        if rec.command == "search-c-summary" and rec.certificate is None:
            verdict = _summary_bound(rec, records_in, lambda r: verdicts[id(r)])
        results.append({"record": i, "command": rec.command, "replayed": verdict})
    failed = any(res["replayed"] is False for res in results)
    record = ReportRecord(
        command="verify",
        inputs={"report": args.report, "records": len(records_in)},
        claim="Replay",
        outcome={"results": results, "all_ok": not failed},
        seed=None,
    )
    return [record], failed


# ---------------------------------------------------------------------------
# parser and dispatch


@functools.cache  # parse_args fills a fresh namespace: calls share no state
def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="search seed")
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="candidate budget")
    common.add_argument("--format", choices=("json", "table"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="append records to this file")
    parser = argparse.ArgumentParser(
        prog="tverlab",
        description="Exact-arithmetic workbench for tolerant Tverberg "
        "partitions of order-type homogeneous sets.",
        parents=[common],
    )
    # SUPPRESS defaults everywhere: the subparser parses into a fresh
    # namespace and would otherwise overwrite globals given before the
    # subcommand; main() fills the gaps after parsing
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", parents=[common], help="moment-curve points from parameters")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("--alphas", help="comma-separated rationals")
    p.add_argument("--alphas-file", help="whitespace-separated rationals")
    p.add_argument("--pointset-out", help="write the otps file here")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("homog", parents=[common], help="order-type homogeneity check")
    p.add_argument("pointset", help="otps file ('-' for stdin)")
    p.add_argument("--expect", choices=("homogeneous", "violation"))
    p.set_defaults(handler=_cmd_homog)

    p = sub.add_parser("facets", parents=[common], help="cyclic-polytope facets (Gale evenness)")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_facets)

    p = sub.add_parser("neighborly", parents=[common], help="floor(d/2)-neighborliness check")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_neighborly)

    p = sub.add_parser("crossings", parents=[common], help="path-hyperplane crossing count")
    p.add_argument("pointset")
    p.add_argument("--normal", required=True, help="comma-separated rationals")
    p.add_argument("--offset", required=True)
    p.set_defaults(handler=_cmd_crossings)

    p = sub.add_parser("intersect", parents=[common], help="common point of block hulls")
    p.add_argument("pointset")
    p.add_argument("--blocks", help="e.g. '1,4;2,5;3'")
    p.add_argument("--alternating", type=int, metavar="R")
    p.add_argument("--expect", choices=("feasible", "infeasible"))
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("tolerance", parents=[common], help="partition or set tolerance")
    p.add_argument("pointset")
    p.add_argument("--blocks")
    p.add_argument("--alternating", type=int, metavar="R")
    p.add_argument("--set", dest="set_mode", action="store_true",
                   help="maximize over all r-partitions")
    p.add_argument("--sandwich", action="store_true",
                   help="check the homogeneous-set tolerance sandwich")
    p.add_argument("-r", type=int, help="number of blocks for --set/--sandwich")
    p.set_defaults(handler=_cmd_tolerance)

    p = sub.add_parser("bounds", parents=[common], help="threshold/tolerance bound formulas")
    p.add_argument("--kind", choices=("lemma32", "even-d", "prop41"), required=True)
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("search-c", parents=[common], help="scan n for alternating counterexamples")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--strategy", choices=("clustered",), default="clustered")
    p.add_argument("--cluster-count", type=int)
    p.add_argument("--spread", type=int)
    p.set_defaults(handler=_cmd_search_c)

    p = sub.add_parser("t-line", parents=[common], help="exact t(n, 1, r)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(handler=_cmd_t_line)

    p = sub.add_parser("n-line", parents=[common], help="least n on the line with tolerance t")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(handler=_cmd_n_line)

    p = sub.add_parser("verify-figure2", parents=[common],
                       help="verify the 16-point witness for c(3,4) >= 17")
    p.add_argument("--epsilon", help="starting perturbation step")
    p.set_defaults(handler=_cmd_verify_sixteen)

    p = sub.add_parser("verify", parents=[common], help="replay certificates in a report file")
    p.add_argument("report", help="JSON-lines report ('-' for stdin)")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _render_table(record: ReportRecord) -> str:
    lines = [f"== {record.command} (claim: {record.claim})"]
    for key, value in record.outcome.items():
        lines.append(f"  {key}: {jsonable(value)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in (("seed", None), ("budget", None),
                          ("format", "json"), ("out", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    start = time.perf_counter()
    emitted = []  # (record, its line) for stdout

    def emit(record: ReportRecord) -> None:
        """Stamp a record's timing, keep it for stdout and append it to --out."""
        record.timing = round(time.perf_counter() - start, 6)
        line = record.to_json_line()
        emitted.append((record, line))
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(line + "\n")

    args.emit = emit  # search-c emits each n as it finishes
    try:
        if args.budget is not None and args.budget < 0:
            raise InputError(f"--budget must be >= 0, got {args.budget}")
        records, failed = args.handler(args)
        for record in records:
            emit(record)
    except (InputError, OSError) as exc:  # ParseError; OSError: a path unreadable or unwritable
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a bug, not a verdict on the claim
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    for record, line in emitted:
        print(_render_table(record) if args.format == "table" else line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
