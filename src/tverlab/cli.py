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

Every record takes one path.  A handler hands :func:`main` what it computed
(inputs, claim tag, outcome, an optional certificate, and whether the claim
failed), and ``main`` alone builds the record: it names the command after
the subcommand, sets the seed by the rule the subcommand declares where it is
registered, stamps ``timing`` (seconds since the command started) and
appends the record to ``--out`` at once.  So a ``search-c`` record is
written as soon as its n finishes, and ``search-c`` reads ``--out`` back to
resume an interrupted scan deterministically.  Stdout gets every record
once the whole command has succeeded.
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
from .errors import InputError, InternalError, ParseError, ResourceGuardError
from .feasibility import hulls_common_point, verify_outcome
from .kernel import Hyperplane, PointSet
from .labels import Partition, alternating_partition, split
from .ordertype import (
    MomentSpec,
    gale_facets,
    is_neighborly,
    is_order_homogeneous,
    moment_points,
    path_crossings,
)
from .pointset_io import (
    RECORD_START,
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
    alternating_bound,
    alternating_bound_even,
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


def _decode(data: bytes, name: str) -> str:
    """``data`` as UTF-8 text; bytes that are not UTF-8 are an input error
    that names ``name`` and the line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not UTF-8 text ({exc.reason})",
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def _read_text(path: str) -> str:
    if path == "-":
        return _decode(sys.stdin.buffer.read(), "standard input")
    return _decode(Path(path).read_bytes(), path)


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
    if args.alternating is not None:
        return alternating_partition(n, args.alternating)
    if args.blocks is not None:
        return _parse_blocks(args.blocks, n)
    raise InputError("provide --blocks or --alternating")


# ---------------------------------------------------------------------------
# subcommand handlers: each hands main what it computed, one
# hand(inputs, claim, outcome, certificate, failed) call per record


def _cmd_gen(args, hand):
    alphas = _parse_alphas(args)
    spec = MomentSpec(args.dim, alphas)
    ps = moment_points(spec)
    text = emit_pointset(ps)
    if args.pointset_out:
        Path(args.pointset_out).write_text(text, encoding="utf-8")
    hand({"dim": args.dim, "alphas": [format_rational(a) for a in alphas]}, None,
         {"pointset": ps, "text": text})


def _cmd_homog(args, hand):
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
    hand({"pointset": ps}, "OrderType", outcome, failed=failed)


def _cmd_facets(args, hand):
    fs = gale_facets(args.n, args.dim)
    hand({"n": args.n, "dim": args.dim}, CLAIM_GALE,
         {"count": len(fs), "facets": [list(f) for f in fs]})


def _cmd_neighborly(args, hand):
    value = is_neighborly(args.n, args.dim)
    hand({"n": args.n, "dim": args.dim}, "Neighborly",
         {"neighborly": value, "k": args.dim // 2}, failed=not value)


def _cmd_crossings(args, hand):
    ps = _load_pointset(args.pointset)
    normal = [parse_rational(tok) for tok in args.normal.split(",")]
    h = Hyperplane(normal, parse_rational(args.offset))
    edges = path_crossings(ps, h)
    within = len(edges) <= ps.dim
    hand({"pointset": ps, "normal": normal, "offset": h.offset}, CLAIM_CROSSINGS,
         {"count": len(edges), "edges": list(edges), "bound": ps.dim, "within_bound": within},
         failed=not within)


def _cmd_intersect(args, hand):
    ps = _load_pointset(args.pointset)
    partition = _partition_for(args, len(ps))
    blocks = split(ps.points, partition.labels, partition.r)
    outcome = hulls_common_point(blocks, ps.dim)
    replayed = verify_outcome(blocks, outcome, ps.dim)
    hand({"pointset": ps, "partition": list(partition.labels)}, "Intersection",
         {"status": outcome.status, "replayed": replayed, "expected": args.expect},
         outcome_payload(blocks, ps.dim, outcome),
         failed=not replayed or args.expect not in (None, outcome.status))


def _cmd_tolerance(args, hand):
    ps = _load_pointset(args.pointset)
    if args.sandwich:
        if args.r is None:
            raise InputError("--sandwich needs -r")
        if args.budget is not None:
            # the sandwich's bounds hold only for the exact tolerance
            raise InputError("--sandwich takes no --budget")
        rep = check_tolerance_sandwich(ps, args.r)
        lower_ok = rep.lower_bound <= rep.t_value
        upper_ok = rep.t_value <= rep.upper_bound
        hand({"pointset": ps, "mode": "sandwich", "r": args.r}, CLAIM_SANDWICH_UPPER,
             {"t_value": rep.t_value, "lower_bound": rep.lower_bound,
              "upper_bound": rep.upper_bound, "lower_ok": lower_ok, "upper_ok": upper_ok},
             failed=not (lower_ok and upper_ok))
        return
    if args.set_mode:
        if args.r is None:
            raise InputError("--set needs -r")
        report, partition = set_tolerance(ps, args.r, budget=args.budget)
        mode = "set"
    else:
        partition = _partition_for(args, len(ps))
        if args.r not in (None, partition.r):
            raise InputError(f"-r {args.r} differs from the partition's {partition.r} blocks")
        report = partition_tolerance(ps, partition, budget=args.budget)
        mode = "partition"
    labels = list(partition.labels)
    hand({"pointset": ps, "mode": mode, "r": partition.r, "partition": labels,
          "budget": args.budget}, "Tolerance",
         {"value": report.value, "breaking_set": jsonable(report.breaking_set),
          "exhausted": report.exhausted, "partition": labels})


def _cmd_bounds(args, hand):
    if args.kind == "prop41":
        if args.n is None:
            raise InputError("prop41 bound needs -n")
        value = tolerance_upper_bound(args.n, args.dim, args.r)
        claim = CLAIM_TOLERANCE_CAP
        inputs = {"kind": args.kind, "n": args.n, "dim": args.dim, "r": args.r}
    else:
        if args.n is not None:
            raise InputError(f"the {args.kind} bound takes no -n")
        bound, claim = {"lemma32": (alternating_bound, CLAIM_ALTERNATING_BOUND),
                        "even-d": (alternating_bound_even, CLAIM_EVEN_BOUND)}[args.kind]
        value = bound(args.dim, args.r)
        inputs = {"kind": args.kind, "dim": args.dim, "r": args.r}
    hand(inputs, claim, {"value": value})


def _strategy_from(args) -> SearchStrategy:
    kwargs = {"kind": args.strategy, "seed": args.seed, "cluster_count": args.cluster_count}
    if args.spread is not None:
        kwargs["spread"] = args.spread
    return SearchStrategy(**kwargs)


def _strategy_fingerprint(strategy: SearchStrategy, budget: int) -> Dict:
    return {**dataclasses.asdict(strategy), "budget": budget}


def _scan_exact(d) -> bool:
    """The ``exact`` label of a ``search-c`` record at dimension d: at d = 1
    the parameters 1..n decide every n-point set, so a none-found is a proof
    there and only evidence elsewhere."""
    return d == 1


def _load_resume(args, fingerprint) -> Dict[int, bool]:
    """What the ``--out`` checkpoint found at each n (:func:`_scan_found`),
    with a warning for each record dropped and for a torn final line.  The
    whole file is checked before the torn line is cut off: a file that is
    not a report is an input error and stays as it was."""
    path = Path(args.out) if args.out else None
    if not path or not path.exists():
        return {}
    data = path.read_bytes()
    cut = data.rfind(b"\n") + 1
    records = load_records(_decode(data[:cut], str(path)))
    tail = data[cut:]
    if tail[: len(RECORD_START)] != RECORD_START[: len(tail)]:
        raise ParseError("an unended last line that is not the start of a record",
                         line=data.count(b"\n") + 1)
    if tail:
        # every record is written with its newline: an unended record line
        # is an append cut short, which later appends would run onto
        print(f"warning: {path}: dropping a torn final line", file=sys.stderr)
        os.truncate(path, cut)
    inputs = {"d": args.dim, "r": args.r, "strategy": jsonable(fingerprint)}
    found, dropped = _scan_found(records, inputs, _replay_bound)
    for n in dropped:
        print(f"warning: {path}: dropping the n={n} record, which does not replay "
              "against its own inputs", file=sys.stderr)
    return found


def _cmd_search_c(args, hand):
    if args.n_to < args.n_from:
        raise InputError(f"empty n range: --n-to {args.n_to} is below --n-from {args.n_from}")
    strategy = _strategy_from(args)
    fingerprint = _strategy_fingerprint(strategy, args.budget)
    found = _load_resume(args, fingerprint)
    ns = range(args.n_from, args.n_to + 1)
    resumed = [n for n in ns if n in found]

    def on_result(n, result):
        found[n] = isinstance(result, Counterexample)
        if found[n]:
            outcome = {"found": True, "alphas": [format_rational(a) for a in result.alphas]}
            payload = outcome_payload(result.blocks, result.dim, result.outcome)
        else:
            outcome, payload = {"found": False, "tried": result.tried}, None
        # each n reaches --out as it finishes, so an interrupted scan resumes
        hand({"d": args.dim, "r": args.r, "n": n, "strategy": fingerprint}, CLAIM_SCAN,
             {**outcome, "exact": _scan_exact(args.dim)}, payload)

    todo = [n for n in ns if n not in found]
    scan_c_lower(args.dim, args.r, todo, strategy=strategy, budget=args.budget,
                 on_result=on_result)
    hand({"d": args.dim, "r": args.r, "n_from": args.n_from, "n_to": args.n_to,
          "strategy": fingerprint}, CLAIM_SCAN,
         {**_scan_summary({n: found[n] for n in ns}), "resumed": resumed}, summary=True)


def _cmd_t_line(args, hand):
    hand({"n": args.n, "r": args.r}, CLAIM_LINE_TIGHT, {"value": t_line(args.n, args.r)})


def _cmd_n_line(args, hand):
    value = n_line(args.t, args.r)
    oracle = n_line_formula(args.t, args.r)
    growth_ok = check_growth_inequality(1, args.r, args.t, value)
    hand({"t": args.t, "r": args.r}, CLAIM_GROWTH,
         {"value": value, "oracle": oracle, "match": value == oracle,
          "growth_inequality_ok": growth_ok},
         failed=not (value == oracle and growth_ok))


def _cmd_verify_sixteen(args, hand):
    eps = parse_rational(args.epsilon) if args.epsilon else searchmod.DEFAULT_EPSILON
    # a certificate that does not replay raised InternalError in _certified
    example, working_eps = verified_sixteen_point_example(eps)
    hand({"epsilon": working_eps}, CLAIM_SIXTEEN, _figure2_outcome(example.alphas),
         outcome_payload(example.blocks, example.dim, example.outcome))


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
        blocks = split(points, partition.labels, partition.r)
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
    outcome define and its evidence replays; None when the record claims
    nothing and carries no certificate.  A claim without a certificate is
    unproved and fails; a certificate on a record that claims nothing proves
    nothing and fails, and so does a ``search-c`` record whose ``exact``
    label is not the one its d gives (:func:`_scan_exact`)."""
    cert = record.certificate
    try:
        if (record.command == "search-c"
                and record.outcome["exact"] is not _scan_exact(record.inputs["d"])):
            return False
        if cert is None:
            return None if _claimed(record) is None else False
        return (
            _claimed(record) == [cert["dim"], cert["blocks"], cert["status"]]
            and replay_record(record)
        )
    except (InputError, KeyError, TypeError, ValueError, AttributeError):
        return False


def _scan_found(records, inputs, replays):
    """``(found, dropped)``: n -> whether the ``search-c`` records of the d,
    r and strategy of ``inputs`` found a counterexample at n (``found`` true,
    and a certificate that replays), and the n of each record that fails
    against its own inputs, or is found without a certificate;
    ``replays(record)`` is a record's verdict (:func:`_replay_bound`)."""
    found: Dict[int, bool] = {}
    dropped = []
    for rec in records:
        if rec.command != "search-c" or any(
            rec.inputs.get(key) != inputs[key] for key in ("d", "r", "strategy")
        ):
            continue
        n, hit = rec.inputs.get("n"), rec.outcome.get("found") is True
        verdict = replays(rec)
        if verdict is False or (hit and not verdict):
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


def _cmd_verify(args, hand):
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
    hand({"report": args.report, "records": len(records_in)}, "Replay",
         {"results": results, "all_ok": not failed}, failed=failed)


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

    def command(name, handler, help, reads=None):
        """Register a subcommand.  ``reads`` maps each global flag it reads,
        besides --format and --out, to the value that flag takes when absent
        (by default, --seed alone, absent as null); main() refuses the
        others.  A record's seed is the value of --seed."""
        reads = {"seed": None} if reads is None else reads
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler, reads={"format": "json", "out": None, **reads})
        return p

    # a command's alternative flags (its input sources, its modes) are one
    # exclusive group: two of them exit 2
    p = command("gen", _cmd_gen, "moment-curve points from parameters")
    p.add_argument("-d", "--dim", type=int, required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--alphas", help="comma-separated rationals")
    source.add_argument("--alphas-file", help="whitespace-separated rationals")
    p.add_argument("--pointset-out", help="write the otps file here")

    p = command("homog", _cmd_homog, "order-type homogeneity check")
    p.add_argument("pointset", help="otps file ('-' for stdin)")
    p.add_argument("--expect", choices=("homogeneous", "violation"))

    p = command("facets", _cmd_facets, "cyclic-polytope facets (Gale evenness)")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-n", type=int, required=True)

    p = command("neighborly", _cmd_neighborly, "floor(d/2)-neighborliness check")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-n", type=int, required=True)

    p = command("crossings", _cmd_crossings, "path-hyperplane crossing count")
    p.add_argument("pointset")
    p.add_argument("--normal", required=True, help="comma-separated rationals")
    p.add_argument("--offset", required=True)

    p = command("intersect", _cmd_intersect, "common point of block hulls")
    p.add_argument("pointset")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--blocks", help="e.g. '1,4;2,5;3'")
    mode.add_argument("--alternating", type=int, metavar="R")
    p.add_argument("--expect", choices=("feasible", "infeasible"))

    p = command("tolerance", _cmd_tolerance, "partition or set tolerance",
                reads={"seed": None, "budget": None})
    p.add_argument("pointset")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--blocks")
    mode.add_argument("--alternating", type=int, metavar="R")
    mode.add_argument("--set", dest="set_mode", action="store_true",
                      help="maximize over all r-partitions")
    mode.add_argument("--sandwich", action="store_true",
                      help="check the homogeneous-set tolerance sandwich")
    p.add_argument("-r", type=int, help="number of blocks; --set and --sandwich need it")

    p = command("bounds", _cmd_bounds, "threshold/tolerance bound formulas")
    p.add_argument("--kind", choices=("lemma32", "even-d", "prop41"), required=True)
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int)

    # the scan records the seed its candidate stream drew from
    p = command("search-c", _cmd_search_c, "scan n for alternating counterexamples",
                reads={"seed": 0, "budget": searchmod.DEFAULT_BUDGET})
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--strategy", choices=("clustered",), default="clustered")
    p.add_argument("--cluster-count", type=int)
    p.add_argument("--spread", type=int)

    p = command("t-line", _cmd_t_line, "exact t(n, 1, r)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)

    p = command("n-line", _cmd_n_line, "least n on the line with tolerance t")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-r", type=int, required=True)

    p = command("verify-figure2", _cmd_verify_sixteen,
                "verify the 16-point witness for c(3,4) >= 17")
    p.add_argument("--epsilon", help="starting perturbation step")

    p = command("verify", _cmd_verify, "replay certificates in a report file", reads={})
    p.add_argument("report", help="JSON-lines report ('-' for stdin)")

    return parser


def _render_table(record: ReportRecord) -> str:
    lines = [f"== {record.command} (claim: {record.claim})"]
    for key, value in record.outcome.items():
        lines.append(f"  {key}: {jsonable(value)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    emitted = []  # (record, its line, whether its claim failed) for stdout

    def hand(inputs, claim, outcome, certificate=None, failed=False, summary=False):
        """Build the record of what a handler computed, stamp its timing and
        append it to --out at once; ``summary`` marks a scan's closing record."""
        record = ReportRecord(
            command=args.subcommand + ("-summary" if summary else ""), inputs=inputs,
            claim=claim, outcome=outcome, certificate=certificate, seed=args.seed,
            timing=round(time.perf_counter() - start, 6),
        )
        line = record.to_json_line()
        emitted.append((record, line, failed))
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    try:
        for flag in ("budget", "seed", "format", "out"):
            if hasattr(args, flag) and flag not in args.reads:
                raise InputError(f"{args.subcommand} takes no --{flag}")
            setattr(args, flag, getattr(args, flag, args.reads.get(flag)))
        if args.budget is not None and args.budget < 0:
            raise InputError(f"--budget must be >= 0, got {args.budget}")
        args.handler(args, hand)
    # ParseError, a file that is not UTF-8 text too; OSError: a path
    # unreadable or unwritable
    except (InputError, OSError) as exc:
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
    try:  # a reader that closes stdout ends the output, not the claim
        for record, line, _ in emitted:
            print(_render_table(record) if args.format == "table" else line)
        sys.stdout.flush()
    except BrokenPipeError:  # so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if any(failed for *_, failed in emitted) else 0


if __name__ == "__main__":
    sys.exit(main())
