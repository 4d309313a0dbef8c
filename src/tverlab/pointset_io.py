"""Point-set text format and machine-readable report records.

Point-set files ("otps" format):

    # optional comments anywhere, blank lines ignored
    otps <dim> <n>
    <d rationals, whitespace separated>   x n rows

Rationals are serialized in lowest terms as ``p/q`` or a bare integer with
the sign on the numerator only; parse(emit(ps)) is the identity and emit
produces a canonical byte-exact form.

Reports are JSON lines, one self-contained record per line: a record that
carries a certificate can be replayed later (by :func:`replay_record`) with
nothing but the exact kernel and the feasibility engine.  Rationals appear
in JSON as their canonical strings.  A payload is read back, by ``int`` and
a round trip that accept those alone, to exactly the blocks, dim and
evidence it was written from; the evidence lifts itself to integers in its
own replay.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import InputError, ParseError
from .feasibility import (
    EmptyBlockCertificate,
    FarkasCertificate,
    Witness,
    verify_outcome,
)
from .kernel import PointSet, Rational, to_rational

#: ASCII digits only: ``\d`` (and ``Fraction``) would also read other scripts'
#: decimal digits, such as U+0663 for 3.  Groups: the signed numerator and
#: the denominator if a ``/`` is present
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")


def _read_rational(token: str, text, line: Optional[int]) -> Rational:
    """The value of a token of :data:`_RATIONAL_RE`; any other token, or one
    with more digits than the interpreter reads into an int (4,300 unless
    ``sys.set_int_max_str_digits`` says otherwise), is a :class:`ParseError`
    naming ``text``."""
    match = _RATIONAL_RE.fullmatch(token)
    if match is None:
        raise ParseError(f"malformed rational {text!r}", line=line)
    numerator, denominator = match.groups()
    try:
        if denominator is None:
            return Rational(int(numerator))
        return Rational(int(numerator), int(denominator))
    except ValueError:
        raise ParseError(f"a number of {len(token)} characters has more digits than "
                         "Python reads into an int", line=line) from None


def parse_rational(text: str, line: Optional[int] = None) -> Rational:
    """A rational from an integer or ``p/q`` token in ASCII digits, surrounding
    whitespace, a sign, leading zeros and common factors allowed."""
    if not isinstance(text, str):
        raise ParseError(f"a rational is a string, not {text!r}", line=line)
    return _read_rational(text.strip(), text, line)


def parse_int(text: str, line: Optional[int] = None) -> int:
    """An integer from a token of ASCII digits with an optional sign,
    surrounding whitespace and leading zeros allowed: :func:`parse_rational`'s
    rule without a denominator, where ``int`` would also read underscores
    and other scripts' digits."""
    token = text.strip()
    match = _RATIONAL_RE.fullmatch(token)
    if match is None or match[2] is not None:
        raise ParseError(f"{text!r} is not an integer", line=line)
    return int(_read_rational(token, text, line))


def format_rational(value) -> str:
    """``p/q`` or a bare integer in lowest terms; a number with more digits
    than the interpreter writes from an int (``sys.get_int_max_str_digits``)
    is an :class:`InputError`, raised before anything is written."""
    number = to_rational(value)
    try:
        return str(number)
    except ValueError:
        raise InputError(f"a number has more digits than Python writes from an int "
                         f"({sys.get_int_max_str_digits()})") from None


def parse_pointset(text: str) -> PointSet:
    """Parse the otps format; errors carry 1-based line numbers."""
    header = None
    rows: List[Tuple[Rational, ...]] = []
    dim = n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "otps":
                raise ParseError(
                    f"expected header 'otps <dim> <n>', got {raw!r}", line=lineno
                )
            dim, n = (parse_int(part, lineno) for part in parts[1:])
            if dim < 1 or n < 0:
                raise ParseError(f"invalid header values dim={dim} n={n}", line=lineno)
            header = (dim, n)
            continue
        tokens = line.split()
        if len(tokens) != dim:
            raise ParseError(
                f"expected {dim} coordinates, got {len(tokens)}", line=lineno
            )
        rows.append(tuple(parse_rational(tok, line=lineno) for tok in tokens))
    if header is None:
        raise ParseError("missing 'otps' header", line=1)
    if len(rows) != n:
        raise ParseError(
            f"header promised {n} rows, found {len(rows)}", line=len(text.splitlines())
        )
    return PointSet(dim, rows)


def emit_pointset(ps: PointSet) -> str:
    """Canonical text form; emit . parse is the identity on it."""
    lines = [f"otps {ps.dim} {len(ps)}"]
    for p in ps.points:
        lines.append(" ".join(format_rational(c) for c in p))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON encoding of domain values


def jsonable(value):
    """Recursively convert domain values to JSON-encodable structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        raise InputError("refusing to serialize a float; everything is rational")
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, PointSet):
        return {"dim": value.dim, "points": encode_points(value.points)}
    # Fractions and anything rational-like
    return format_rational(value)


def encode_points(points) -> List[List[str]]:
    return [[format_rational(c) for c in p] for p in points]


def _read_canonical(value):
    """The rational a string in the form :func:`format_rational` writes
    stands for, checked by ``int`` and a round trip: the int t when
    ``str(int(t)) == t``, and ``Rational(p, q)`` when q > 1, ``f"{p}/{q}"``
    is the token and p and q are coprime.  The round trip refuses what
    ``int`` reads leniently (+, _, whitespace, other scripts' digits,
    leading zeros, -0); what ``int`` refuses, past its digit limit too, is a
    :class:`ParseError` as well."""
    if type(value) is str:
        head, slash, tail = value.partition("/")
        try:
            p = int(head)
            if not slash:
                if str(p) == value:
                    return p
            else:
                q = int(tail)
                if q > 1 and f"{p}/{q}" == value and math.gcd(p, q) == 1:
                    return Rational(p, q)
        except ValueError:
            pass
    raise ParseError(f"payload value {value!r} is not in canonical form")


def _read_int(value):
    """A JSON integer (not a bool), and nothing else."""
    if type(value) is int:
        return value
    raise ParseError(f"payload value {value!r} is not in canonical form")


def _list_of(field):
    """The ``(write, read)`` of a JSON list of what ``field`` writes and
    reads, read as a tuple, and of nothing else."""
    write, read = field
    def read_list(value):
        if type(value) is not list:
            raise ParseError(f"payload value {value!r} is not in canonical form")
        return tuple(map(read, value))
    return (lambda values: [write(v) for v in values]), read_list


#: ``(write, read)`` of a JSON integer, and of a rational in the one form
#: :func:`format_rational` writes and :func:`_read_canonical` reads
_INT = (int, _read_int)
_RATIONALS = _list_of((format_rational, _read_canonical))

#: wire ``kind`` -> (evidence type, each field's ``(write, read)``, in the
#: order :func:`outcome_payload` writes them after dim, blocks, status and kind)
EVIDENCE_KINDS = {
    "witness": (Witness, {"point": _RATIONALS, "coefficients": _list_of(_RATIONALS)}),
    "farkas": (FarkasCertificate, {"multipliers": _RATIONALS}),
    "empty-block": (EmptyBlockCertificate, {"block_index": _INT}),
}

#: the ``(write, read)`` of the fields every payload has
_PAYLOAD_FIELDS = {"dim": _INT, "blocks": _list_of(_list_of(_RATIONALS))}


def outcome_payload(blocks, dim: int, outcome) -> Dict:
    """Self-contained, replayable form of the evidence
    :func:`~tverlab.feasibility.hulls_common_point` returned, each field in
    the form its reader reads, an int as the equal Fraction."""
    kind, fields = next((kind, fields) for kind, (evidence, fields) in EVIDENCE_KINDS.items()
                        if type(outcome) is evidence)
    writers = {name: write for name, (write, _) in {**_PAYLOAD_FIELDS, **fields}.items()}
    return {"dim": writers["dim"](dim), "blocks": writers["blocks"](blocks),
            "status": outcome.status, "kind": kind,
            **{name: writers[name](getattr(outcome, name)) for name in fields}}


def payload_outcome(payload: Dict):
    """The ``(blocks, dim, evidence)`` a payload of :func:`outcome_payload`
    was written from: each JSON list a tuple, each rational an int or a
    :class:`Rational`.  Any other form is a :class:`ParseError`."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if not isinstance(kind, str) or kind not in EVIDENCE_KINDS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    evidence, fields = EVIDENCE_KINDS[kind]
    try:
        values = {name: read(payload[name])
                  for name, (_, read) in {**_PAYLOAD_FIELDS, **fields}.items()}
    except KeyError as exc:
        raise ParseError(f"payload has no field {exc}") from None
    return values.pop("blocks"), values.pop("dim"), evidence(**values)


def replay_payload(payload: Dict) -> bool:
    """Re-verify a payload produced by :func:`outcome_payload`: it must
    decode (:func:`payload_outcome`), and its evidence must replay and prove
    the status it states.  A payload whose points disagree with its ``dim``
    does not replay either.  Uses only the exact kernel and the feasibility
    verifiers; no state from the original run is needed."""
    try:
        blocks, dim, outcome = payload_outcome(payload)
        return payload.get("status") == outcome.status and verify_outcome(blocks, outcome, dim)
    except InputError:  # ParseError included
        return False


# ---------------------------------------------------------------------------
# report records


#: how every line :meth:`ReportRecord.to_json_line` writes begins
RECORD_START = b'{"command":"'


@dataclass
class ReportRecord:
    """One machine-readable result line tying a command to a claim tag."""

    command: str
    inputs: Dict
    claim: Optional[str]
    outcome: Dict
    certificate: Optional[Dict] = None
    seed: Optional[int] = None
    timing: Optional[float] = None

    def to_json_line(self) -> str:
        body = {
            "command": self.command,
            "inputs": jsonable(self.inputs),
            "claim": self.claim,
            "outcome": jsonable(self.outcome),
            "certificate": jsonable(self.certificate),
            "seed": self.seed,
            "timing": self.timing,
        }
        return json.dumps(body, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str, lineno: Optional[int] = None) -> "ReportRecord":
        try:
            body = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON record: {exc}", line=lineno) from exc
        except RecursionError:
            raise ParseError("a JSON record nested too deeply to read", line=lineno) from None
        # a command is echoed in verify's results, so it must be no nest of lists
        if not (isinstance(body, dict) and isinstance(body.get("command", ""), str) and all(
                isinstance(body.get(key, {}), dict) for key in ("inputs", "outcome"))):
            raise ParseError("a record is a JSON object whose command is a string and whose "
                             "inputs and outcome are objects", line=lineno)
        return cls(
            command=body.get("command", ""),
            inputs=body.get("inputs", {}),
            claim=body.get("claim"),
            outcome=body.get("outcome", {}),
            certificate=body.get("certificate"),
            seed=body.get("seed"),
            timing=body.get("timing"),
        )


def replay_record(record: ReportRecord) -> Optional[bool]:
    """Replay a record's certificate; None when it carries none."""
    if record.certificate is None:
        return None
    return replay_payload(record.certificate)


def load_records(text: str) -> List[ReportRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip():
            records.append(ReportRecord.from_json_line(line, lineno))
    return records
