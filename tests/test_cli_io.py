import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tverlab
from tverlab.cli import main
from tverlab.errors import InputError, InternalError, ParseError
from tverlab.kernel import PointSet, Rational
from tverlab.pointset_io import (
    ReportRecord,
    _decode,
    emit_pointset,
    format_rational,
    jsonable,
    outcome_payload,
    parse_pointset,
    parse_rational,
    payload_outcome,
    replay_payload,
    replay_record,
)
from tverlab.feasibility import (
    EmptyBlockCertificate,
    FarkasCertificate,
    Witness,
    hulls_common_point,
)
from tverlab.search import sixteen_point_alphas
from tverlab.ordertype import MomentSpec, moment_points

GOLDEN = Path(__file__).resolve().parent / "golden"
TOLERANCE_GOLDEN = json.loads((GOLDEN / "tolerance.json").read_text())
COMMANDS_GOLDEN = json.loads((GOLDEN / "commands.json").read_text())
#: the lenient rational rule as one anchored regex, on the stripped token
OLD_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")
#: the witness payload of the square's diagonals, which cross at (1/2, 1/2)
WITNESS_PAYLOAD = {
    "dim": 2, "blocks": [[["0", "0"], ["1", "1"]], [["1", "0"], ["0", "1"]]],
    "status": "feasible", "kind": "witness", "point": ["1/2", "1/2"],
    "coefficients": [["1/2", "1/2"], ["1/2", "1/2"]]}


class TestRationalFormat:
    def test_parse_examples(self):
        assert parse_rational("1/2") == Rational(1, 2)
        assert parse_rational("-3/4") == Rational(-3, 4)
        assert parse_rational("7") == 7

    def test_rejects_junk(self):
        for bad in ("0.5", "1/0", "1/-2", "a", "", "1 / 2", "\u0663", "1/\u0662"):
            with pytest.raises(ParseError):
                parse_rational(bad)

    def test_canonical_lowest_terms(self):
        assert format_rational(Rational(2, 4)) == "1/2"
        assert format_rational(Rational(-2, 4)) == "-1/2"
        assert format_rational(Rational(8, 2)) == "4"

    @given(st.from_regex(r"[+-]?[0-9]{1,40}(/[0-9]{1,20})?", fullmatch=True)
           | st.text("+-/0123456789 \t\n\u0663", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_parse_rational_reads_what_fraction_reads(self, token):
        # on a token of ASCII digits the value is Fraction's; anything else,
        # a zero denominator included, is a ParseError
        try:
            value = parse_rational(token)
        except ParseError:
            assert not OLD_RATIONAL_RE.match(token.strip())
        else:
            assert value == Rational(token) and type(value) is Rational

    @given(st.from_regex(r"[+-]?[0-9]{1,6}(/[0-9]{1,4})?", fullmatch=True)
           | st.text("+-/0123456789 \n\u0661", max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_payload_decoder_accepts_what_the_round_trip_did(self, value):
        # canonical is what str(Fraction) writes back unchanged, as the
        # decoder once tested by a round trip
        stripped = value.strip()
        canonical = bool(OLD_RATIONAL_RE.match(stripped)) and str(Rational(stripped)) == value
        try:
            decoded = _decode(Rational, value)
        except ParseError:
            assert not canonical, value
        else:
            assert canonical and decoded == Rational(value), value

    def test_payload_decoder_refuses_other_forms(self):
        assert replay_payload(WITNESS_PAYLOAD) is True
        for value in ("+3", "03", "-0", "0/5", "3/1", "2/4", "-2/4", "-03/4", " 3", "3\n",
                      "\u0661", "1/\u0662", 3, None, ["3"]):
            with pytest.raises(ParseError):
                _decode(Rational, value)
            assert replay_payload({**WITNESS_PAYLOAD, "point": [value, "1/2"]}) is False
        for value in ("0", "3", "-3", "1/2", "-7/12", "10/3"):
            assert _decode(Rational, value) == Rational(value)

    def test_numbers_past_the_int_digit_limit_are_parse_errors(self, tmp_path):
        # int and Fraction read at most 4,300 digits from a string
        long = "9" * 4400
        for text, line in ((f"otps 1 1\n{long}\n", 2), (f"otps 1 1\n1/{long}\n", 2),
                           (f"otps {long} 1\n1\n", 1)):
            with pytest.raises(ParseError) as exc:
                parse_pointset(text)
            assert exc.value.line == line
        assert replay_payload({**WITNESS_PAYLOAD, "point": [long, "1/2"]}) is False
        big = tmp_path / "big.otps"
        big.write_text(f"otps 1 2\n0\n{long}\n")
        assert main(["homog", str(big)]) == 2

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter writes ints of any length")
    def test_numbers_past_the_int_digit_limit_are_refused_on_output(self, tmp_path, capsys):
        # alpha^3 of a 1,500-digit alpha has 4,500 digits, past the 4,300
        # Python writes from an int: exit 2, with nothing printed or appended
        nines = "9" * 1500
        with pytest.raises(InputError, match=str(sys.get_int_max_str_digits())):
            format_rational(Rational(int(nines)) ** 3)
        ledger, out = tmp_path / "ledger.jsonl", tmp_path / "moment.otps"
        ledger.write_text("kept\n")
        argv = ["--out", str(ledger), "gen", "-d", "3", f"--alphas=1,2,{nines}",
                "--pointset-out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "more digits" in captured.err
        assert ledger.read_text() == "kept\n" and not out.exists()


class TestPointSetFormat:
    def test_parse_simple(self):
        ps = parse_pointset("otps 1 3\n1\n2\n3\n")
        assert ps.dim == 1 and len(ps) == 3

    def test_parse_rational_row(self):
        ps = parse_pointset("otps 2 1\n1/2 -3/4\n")
        assert ps.points[0] == (Rational(1, 2), Rational(-3, 4))

    def test_comments_and_blanks(self):
        ps = parse_pointset("# hi\notps 1 2\n\n1  # inline\n2\n")
        assert len(ps) == 2

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_pointset("otps 2 1\n1/2\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError) as exc:
            parse_pointset("otps 2 1\n1/2 junk\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            parse_pointset("nope 1 1\n3\n")
        with pytest.raises(ParseError):
            parse_pointset("otps 1 3\n1\n2\n")
        for text, message in [("otps x 2\n1\n", "non-integer header fields"),
                              ("otps 0 2\n1\n2\n", "invalid header values"),
                              # ASCII digits only, as for rationals
                              ("otps \u0663 1\n0 0 0\n", "non-integer header fields"),
                              ("otps 1_0 0\n", "non-integer header fields"),
                              ("# only\n# comments\n", "missing 'otps' header")]:
            with pytest.raises(ParseError, match=message) as exc:
                parse_pointset(text)
            assert exc.value.line == 1

    def test_round_trip_canonical(self):
        text = "otps 2 2\n1/2 -3/4\n5 0\n"
        ps = parse_pointset(text)
        assert emit_pointset(ps) == text
        assert emit_pointset(parse_pointset(emit_pointset(ps))) == text

    def test_sixteen_point_file_round_trip(self):
        X = moment_points(MomentSpec(3, sixteen_point_alphas()))
        text = emit_pointset(X)
        assert parse_pointset(text).points == X.points
        assert emit_pointset(parse_pointset(text)) == text


rationals = st.builds(
    Rational,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(rows):
    ps = PointSet(2, rows)
    assert parse_pointset(emit_pointset(ps)).points == ps.points


class TestRecords:
    def test_record_round_trip(self):
        rec = ReportRecord(
            command="facets",
            inputs={"n": 5, "dim": 2},
            claim="Lemma2.1",
            outcome={"count": 5},
            seed=3,
            timing=0.5,
        )
        back = ReportRecord.from_json_line(rec.to_json_line())
        assert back.command == "facets" and back.inputs == {"n": 5, "dim": 2}
        assert back.claim == "Lemma2.1" and back.seed == 3
        with pytest.raises(InputError):
            jsonable(0.5)

    def test_replay_feasible_and_infeasible(self):
        feas_blocks = [[(0, 0), (1, 1)], [(1, 0), (0, 1)]]
        out = hulls_common_point(feas_blocks, 2)
        payload = outcome_payload(feas_blocks, 2, out)
        assert replay_payload(payload)

        inf_blocks = [[(0,), (1,)], [(2,), (3,)]]
        out2 = hulls_common_point(inf_blocks, 1)
        payload2 = outcome_payload(inf_blocks, 1, out2)
        assert replay_payload(payload2)

        # tampering must be caught
        tampered = json.loads(json.dumps(payload2))
        tampered["multipliers"][0] = "9999"
        rec = ReportRecord(
            command="intersect", inputs={}, claim=None, outcome={},
            certificate=tampered,
        )
        assert replay_record(rec) is False

    @pytest.mark.parametrize("blocks, dim, kind", [
        ([[(0, 0), (1, 1)], [(1, 0), (0, 1)]], 2, Witness),
        ([[(0,), (1,)], [(2,), (3,)]], 1, FarkasCertificate),
        ([[(0, 0)], []], 2, EmptyBlockCertificate),
    ])
    def test_evidence_codec_round_trip(self, blocks, dim, kind):
        evidence = hulls_common_point(blocks, dim)
        assert isinstance(evidence, kind)
        payload = json.loads(json.dumps(outcome_payload(blocks, dim, evidence)))
        assert payload_outcome(payload) == (blocks, dim, evidence)

    def test_farkas_replay_builds_no_system(self, monkeypatch):
        # the replay reads the layout column by column: the sixteen-point
        # certificate replays without the system, and a payload whose
        # multiplier count cannot match its dim fails before any work
        golden = json.loads((GOLDEN / "sixteen_point.json").read_text())
        sixteen = json.loads(golden["intersect_alternating_4"])["certificate"]

        def refuse(*args):
            raise AssertionError("the replay built the intersection system")

        monkeypatch.setattr(tverlab.feasibility, "intersection_system", refuse)
        assert replay_payload(sixteen) is True
        huge = {"dim": 10 ** 12, "blocks": [[], []], "status": "infeasible",
                "kind": "farkas", "multipliers": ["1", "1"]}
        assert replay_payload(huge) is False

    def test_record_without_certificate(self):
        rec = ReportRecord(command="t-line", inputs={}, claim=None, outcome={})
        assert replay_record(rec) is None


class TestCLI:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_closed_stdout_ends_the_output_quietly(self):
        # about 106 KB of records, more than a pipe holds, into a reader that
        # closes after 10 bytes: no traceback, and the exit code the records
        # earned
        argv = ["search-c", "-d", "1", "-r", "1", "--n-from", "1", "--n-to", "400",
                "--budget", "1"]
        env = {**os.environ, "PYTHONPATH": str(Path(tverlab.__file__).parent.parent)}
        with subprocess.Popen([sys.executable, "-m", "tverlab.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{"command"'
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=60), stderr) == (0, b"")

    def test_facets_record(self, capsys):
        code, out = self.run(capsys, "facets", "-d", "2", "-n", "5")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["claim"] == "Lemma2.1"
        assert rec["outcome"]["count"] == 5

    def test_gen_homog_pipeline(self, capsys, tmp_path):
        path = tmp_path / "m.otps"
        code, out = self.run(
            capsys, "gen", "-d", "2", "--alphas", "1,2,3,4",
            "--pointset-out", str(path),
        )
        assert code == 0 and path.exists()
        code, out = self.run(capsys, "homog", str(path), "--expect", "homogeneous")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["outcome"]["homogeneous"] is True and rec["outcome"]["sign"] == 1

    def test_homog_expect_mismatch_exit1(self, capsys, tmp_path):
        path = tmp_path / "m.otps"
        self.run(capsys, "gen", "-d", "2", "--alphas", "1,2,3",
                 "--pointset-out", str(path))
        code, _ = self.run(capsys, "homog", str(path), "--expect", "violation")
        assert code == 1

    @pytest.mark.parametrize("case", ["nonhomogeneous_d3", "degenerate_d2"])
    def test_homog_witness_golden(self, capsys, tmp_path, case):
        """The witness is the first zero or mismatching subset in
        lexicographic order; the report is byte-identical, apart from timing,
        to the one recorded before the signs were read off one integer lift."""
        golden = json.loads((GOLDEN / "homog.json").read_text())[case]
        path = tmp_path / "set.otps"
        path.write_text(golden["otps"])
        code, out = self.run(capsys, "homog", str(path))
        assert code == 0
        stripped, count = re.subn(r',"timing":[0-9.e-]+', "", out)
        assert count == 1
        assert stripped == golden["line"]

    def test_intersect_and_verify(self, capsys, tmp_path):
        ps = tmp_path / "sq.otps"
        ps.write_text("otps 2 4\n0 0\n1 0\n1 1\n0 1\n")
        report = tmp_path / "report.jsonl"
        code, out = self.run(
            capsys, "--out", str(report), "intersect", str(ps),
            "--blocks", "1,3;2,4", "--expect", "feasible",
        )
        assert code == 0
        code, out = self.run(capsys, "verify", str(report))
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["outcome"]["all_ok"] is True

    def verify_lines(self, capsys, tmp_path, records):
        report = tmp_path / "forged.jsonl"
        report.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, out = self.run(capsys, "verify", str(report))
        return code, [r["replayed"] for r in json.loads(out)["outcome"]["results"]]

    def test_verify_accepts_certifying_commands(self, capsys, tmp_path):
        report = tmp_path / "report.jsonl"
        for argv in (
            ["search-c", "-d", "2", "-r", "2", "--n-from", "3", "--n-to", "4"],
            ["verify-figure2"],
            ["intersect", str(GOLDEN.parent.parent / "data" / "sixteen_point_c34.otps"),
             "--alternating", "4"],
        ):
            code, _ = self.run(capsys, "--out", str(report), *argv)
            assert code == 0
        code, out = self.run(capsys, "verify", str(report))
        assert code == 0
        verdicts = [r["replayed"] for r in json.loads(out)["outcome"]["results"]]
        # n=3 found, n=4 not found (no certificate), summary, figure 2, intersect
        assert verdicts == [True, None, True, True, True]

    def test_verify_rejects_a_stripped_certificate(self, capsys, tmp_path):
        # a record that claims something and carries no certificate fails
        # (exit 1), an intersect record with its status flipped too; one
        # that claims nothing keeps null
        report = tmp_path / "report.jsonl"
        for argv in (
            ["search-c", "-d", "2", "-r", "2", "--n-from", "3", "--n-to", "4"],
            ["verify-figure2"],
            ["intersect", str(GOLDEN.parent.parent / "data" / "sixteen_point_c34.otps"),
             "--alternating", "4"],
        ):
            code, _ = self.run(capsys, "--out", str(report), *argv)
            assert code == 0
        found, missed, summary, figure2, intersect = map(
            json.loads, report.read_text().splitlines())
        assert found["outcome"]["found"] is True and missed["certificate"] is None
        flipped = json.loads(json.dumps(intersect))
        flipped["outcome"]["status"] = "feasible"
        for stripped in (found, figure2, intersect, flipped):
            stripped["certificate"] = None
            code, verdicts = self.verify_lines(capsys, tmp_path, [stripped, missed])
            assert (code, verdicts) == (1, [False, None]), stripped["command"]

    def test_verify_binds_search_c_to_its_inputs(self, capsys, tmp_path):
        # the found n=3 record relabelled as n=4 still carries a certificate
        # that replays against the blocks stored inside it
        report = tmp_path / "ck.jsonl"
        code, _ = self.run(capsys, "--out", str(report), "search-c", "-d", "2",
                           "-r", "2", "--n-from", "3", "--n-to", "3")
        assert code == 0
        rec = json.loads(report.read_text().splitlines()[0])
        assert rec["outcome"]["found"] and replay_payload(rec["certificate"])
        relabelled = json.loads(json.dumps(rec))
        relabelled["inputs"]["n"] = 4
        other_r = json.loads(json.dumps(rec))
        other_r["inputs"]["r"] = 3
        not_found = json.loads(json.dumps(rec))
        not_found["outcome"]["found"] = False
        # payloads that replay_payload rejects: each states a claim other
        # than the record's own, or has a malformed rational
        payload_forgeries = []
        for key, value in (("status", "feasible"),
                           ("blocks", [[["7", "7"]], [["9", "9"]]]),
                           ("dim", 5), ("multipliers", ["1/0"])):
            forged = json.loads(json.dumps(rec))
            forged["certificate"][key] = value
            assert not replay_payload(forged["certificate"])
            payload_forgeries.append(forged)
        code, verdicts = self.verify_lines(
            capsys, tmp_path, [rec, relabelled, other_r, not_found, *payload_forgeries])
        assert code == 1
        assert verdicts == [True] + [False] * 7

    @pytest.mark.parametrize("d, r, n_from", [(1, 3, 4), (2, 2, 3)])
    def test_exact_label_is_bound_to_d(self, capsys, tmp_path, d, r, n_from):
        # search-c labels its records exact iff d = 1; verify and resume
        # refuse a found or none-found record labelled otherwise
        report = tmp_path / "scan.jsonl"
        scan = ["search-c", "-d", str(d), "-r", str(r),
                "--n-from", str(n_from), "--n-to", str(n_from + 1)]
        code, _ = self.run(capsys, "--out", str(report), *scan)
        assert code == 0
        hit, miss, _ = [json.loads(line) for line in report.read_text().splitlines()]
        assert (hit["outcome"]["found"], miss["outcome"]["found"]) == (True, False)
        assert hit["outcome"]["exact"] is miss["outcome"]["exact"] is (d == 1)
        forged = json.loads(json.dumps([hit, miss]))
        for rec in forged:
            rec["outcome"]["exact"] = d != 1
        code, verdicts = self.verify_lines(capsys, tmp_path, [hit, miss, *forged])
        assert (code, verdicts) == (1, [True, None, False, False])

        report.write_text("".join(json.dumps(rec) + "\n" for rec in forged))
        code = main(["--out", str(report), *scan])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.count("warning") == 2
        summary = json.loads(captured.out.splitlines()[-1])["outcome"]
        assert summary["resumed"] == []
        assert summary["per_n"] == {str(n_from): True, str(n_from + 1): False}

    def test_n_line_mismatch_is_a_failed_claim(self, capsys, monkeypatch):
        # a table that disagrees with r(t+2)-1 fails the claim (exit 1), and
        # is no internal fault
        import tverlab.search

        t_line = tverlab.search.t_line
        monkeypatch.setattr(tverlab.search, "t_line", lambda n, r: t_line(n, r) - 1)
        code, out = self.run(capsys, "n-line", "-t", "2", "-r", "2")
        outcome = json.loads(out)["outcome"]
        assert code == 1 and outcome["match"] is False
        assert outcome["value"] != outcome["oracle"]

    def test_verify_binds_the_summary_to_its_scan(self, capsys, tmp_path):
        # a summary states, for each n of its range, what the report's own
        # search-c records of its d, r and strategy found, and the bound
        # that follows; anything else fails
        report = tmp_path / "ck.jsonl"
        code, _ = self.run(capsys, "--out", str(report), "search-c", "-d", "2",
                           "-r", "2", "--n-from", "3", "--n-to", "4")
        assert code == 0
        *scan, summary = [json.loads(line) for line in report.read_text().splitlines()]
        assert summary["outcome"]["per_n"] == {"3": True, "4": False}
        assert summary["outcome"]["lower_bound"] == 4
        forgeries = []
        for edits in (
            {("outcome", "lower_bound"): 99, ("outcome", "per_n"): {"3": True, "98": True}},
            {("outcome", "lower_bound"): 99},
            {("outcome", "lower_bound"): None},
            {("outcome", "per_n"): {"3": True}},
            {("outcome", "per_n"): {"3": True, "4": True}, ("outcome", "lower_bound"): 5},
            {("inputs", "n_to"): 5},
            {("inputs", "r"): 3},
            {("inputs", "strategy"): {**summary["inputs"]["strategy"], "budget": 7}},
        ):
            forged = json.loads(json.dumps(summary))
            for (part, key), value in edits.items():
                forged[part][key] = value
            forgeries.append(forged)
        code, verdicts = self.verify_lines(capsys, tmp_path, [*scan, summary, *forgeries])
        assert (code, verdicts) == (1, [True, None, True] + [False] * len(forgeries))
        # without its scan records a summary rests on nothing
        code, verdicts = self.verify_lines(capsys, tmp_path, [summary])
        assert (code, verdicts) == (1, [False])

    def test_replay_payload_rejects_missing_and_garbled_fields(self, capsys, tmp_path):
        report = tmp_path / "ck.jsonl"
        code, _ = self.run(capsys, "--out", str(report), "search-c", "-d", "2",
                           "-r", "2", "--n-from", "3", "--n-to", "3")
        assert code == 0
        payload = json.loads(report.read_text().splitlines()[0])["certificate"]
        ps = tmp_path / "sq.otps"
        ps.write_text("otps 2 4\n0 0\n1 0\n1 1\n0 1\n")
        code, out = self.run(capsys, "intersect", str(ps), "--alternating", "2")
        witness = json.loads(out)["certificate"]
        # both blocks are empty, so block indices 1 and 2 are both true
        empty = outcome_payload([[], []], 2, hulls_common_point([[], []], 2))
        assert all(map(replay_payload, (payload, witness, empty)))
        rows = [(payload, key, value) for key, value in (
            ("kind", None), ("dim", "x"), ("blocks", None), ("multipliers", None),
            ("multipliers", 7), ("multipliers", [1]))]
        # a value is refused unless it is in the form outcome_payload writes:
        # JSON integers where ints belong, canonical rational strings
        rows += [(witness, "point", [0, 0]), (witness, "point", ["2/4", "1/2"])]
        rows += [(empty, "block_index", value) for value in (2.7, "2", True)]
        for base, key, value in rows:
            forged = json.loads(json.dumps(base))
            if value is None:
                del forged[key]
            else:
                forged[key] = value
            assert replay_payload(forged) is False, key
            with pytest.raises(InputError):
                payload_outcome(forged)
        for value in (None, 7, "farkas", [payload], {"kind": ["farkas"]}):
            assert replay_payload(value) is False, value
        # payloads that decode but state blocks hulls_common_point refuses:
        # no block at all, or a dim below 1
        gated = [{**witness, "blocks": [], "coefficients": []}, {**empty, "dim": -3}]
        gated += [{**payload, "dim": dim, "blocks": [[], []], "multipliers": ["1", "1"]}
                  for dim in (-3, 0)]
        for forged in gated:
            payload_outcome(forged)
            assert replay_payload(forged) is False, forged

    def test_verify_rejects_unordered_alphas(self, capsys, tmp_path):
        # a true certificate for the moment points taken out of parameter
        # order: those points are not order-type homogeneous
        report = tmp_path / "ck.jsonl"
        self.run(capsys, "--out", str(report), "search-c", "-d", "2", "-r", "2",
                 "--n-from", "3", "--n-to", "3")
        rec = json.loads(report.read_text().splitlines()[0])
        alphas = [parse_rational(a) for a in rec["outcome"]["alphas"]]
        alphas[0], alphas[1] = alphas[1], alphas[0]
        X = [(a, a * a) for a in alphas]
        blocks = [[X[0], X[2]], [X[1]]]
        outcome = hulls_common_point(blocks, 2)
        assert not outcome.feasible
        rec["outcome"]["alphas"] = [format_rational(a) for a in alphas]
        rec["certificate"] = outcome_payload(blocks, 2, outcome)
        assert replay_payload(rec["certificate"])
        code, verdicts = self.verify_lines(capsys, tmp_path, [rec])
        assert (code, verdicts) == (1, [False])

    def test_verify_binds_figure2_to_its_epsilon(self, capsys, tmp_path):
        code, out = self.run(capsys, "verify-figure2")
        assert code == 0
        rec = json.loads(out)
        relabelled = json.loads(out)
        relabelled["inputs"]["epsilon"] = "1/2000"
        feasible = json.loads(out)
        feasible["certificate"]["status"] = "feasible"
        two_blocks = json.loads(out)
        two_blocks["certificate"]["blocks"] = two_blocks["certificate"]["blocks"][:2]
        for forged in (feasible, two_blocks):
            assert not replay_payload(forged["certificate"])
        # outcome fields the epsilon defines, printed over a payload that
        # still replays
        outcome_forgeries = []
        for key, value in (("c_lower_bound", {"d": 3, "r": 4, "at_least": 99}),
                           ("n", 40), ("replayed", False)):
            forged = json.loads(out)
            forged["outcome"][key] = value
            assert replay_payload(forged["certificate"])
            outcome_forgeries.append(forged)
        code, verdicts = self.verify_lines(
            capsys, tmp_path, [rec, relabelled, feasible, two_blocks, *outcome_forgeries])
        assert (code, verdicts) == (1, [True] + [False] * 6)

    @pytest.mark.parametrize("edit", ["point", "partition", "status", "both-statuses",
                                      "command"])
    def test_verify_binds_intersect_to_its_inputs(self, capsys, tmp_path, edit):
        ps = tmp_path / "sq.otps"
        ps.write_text("otps 2 4\n0 0\n1 0\n1 1\n0 1\n")
        code, out = self.run(capsys, "intersect", str(ps), "--blocks", "1,3;2,4")
        assert code == 0
        rec = json.loads(out)
        forged = json.loads(out)
        if edit == "point":
            forged["inputs"]["pointset"]["points"][0] = ["5", "5"]
        elif edit == "partition":
            forged["inputs"]["partition"] = [1, 1, 2, 2]
        elif edit == "status":
            forged["outcome"]["status"] = "infeasible"
        elif edit == "both-statuses":
            # a witness proves "feasible", whatever status its payload states
            forged["outcome"]["status"] = forged["certificate"]["status"] = "infeasible"
        else:
            forged["command"] = "homog"
        assert replay_payload(forged["certificate"]) is (edit != "both-statuses")
        code, verdicts = self.verify_lines(capsys, tmp_path, [rec, forged])
        assert (code, verdicts) == (1, [True, False])

    def test_verify_rejects_forged_witnesses_and_partitions(self, capsys, tmp_path):
        # the intervals [0, 2] and [1, 3] meet at 1; [0, 1] and [2, 3] do not
        records = {}
        for name, values in (("meet", "0 2 1 3"), ("apart", "0 1 2 3")):
            ps = tmp_path / f"{name}.otps"
            ps.write_text("otps 1 4\n" + values.replace(" ", "\n") + "\n")
            code, out = self.run(capsys, "intersect", str(ps), "--blocks", "1,2;3,4")
            records[name] = json.loads(out)
        honest = records["meet"]
        assert honest["certificate"]["point"] == ["1"]
        assert honest["certificate"]["coefficients"] == [["1/2", "1/2"], ["1", "0"]]

        def forge(record, **fields):
            forged = json.loads(json.dumps(record))
            forged["certificate"].update(fields)
            return forged

        # an affine, not convex, combination: 2 = -1*0 + 2*1 = 1*2 + 0*3
        affine = forge(records["apart"], status="feasible", kind="witness", point=["2"],
                       coefficients=[["-1", "2"], ["1", "0"]])
        del affine["certificate"]["multipliers"]
        affine["outcome"]["status"] = "feasible"
        forgeries = [
            affine,
            forge(honest, coefficients=[["1/2", "1/2"]]),
            forge(honest, coefficients=[["1/2"], ["1", "0"]]),
            forge(honest, coefficients=[["1/2", "2"], ["1", "0"]]),
            forge(honest, point=["7/4"]),
        ]
        for labels in ([1, 2, 2], [1, 3, 3, 1], [1, 2, 3, 5], [0, 1, 1, 1]):
            forged = json.loads(json.dumps(honest))
            forged["inputs"]["partition"] = labels
            forgeries.append(forged)
        code, verdicts = self.verify_lines(capsys, tmp_path, [honest, *forgeries])
        assert (code, verdicts) == (1, [True] + [False] * 9)

    def test_verify_rejects_separating_hyperplane_payload(self, capsys, tmp_path):
        # no command writes this kind; verify accepts only witness, farkas
        # and empty-block evidence, so a true separator proves nothing
        ps = tmp_path / "tri.otps"
        ps.write_text("otps 2 4\n0 0\n1 0\n0 1\n2 0\n")
        code, out = self.run(capsys, "intersect", str(ps), "--blocks", "1,2,3;4")
        assert code == 0
        rec = json.loads(out)
        forged = json.loads(out)
        cert = forged["certificate"]
        assert cert["status"] == "infeasible"
        del cert["multipliers"]
        cert.update(kind="separating-hyperplane", normal=["1", "0"], offset="3/2",
                    point_side=1)
        code, verdicts = self.verify_lines(capsys, tmp_path, [rec, forged])
        assert (code, verdicts) == (1, [True, False])

    def test_verify_binds_empty_block_payloads(self, capsys, tmp_path):
        # n < r leaves an alternating block empty: the payload names it
        report = tmp_path / "ck.jsonl"
        code, _ = self.run(capsys, "--out", str(report), "search-c", "-d", "2",
                           "-r", "3", "--n-from", "1", "--n-to", "2")
        assert code == 0
        recs = [json.loads(line) for line in report.read_text().splitlines()[:2]]
        assert [(r["inputs"]["n"], r["certificate"]["kind"], r["certificate"]["block_index"])
                for r in recs] == [(1, "empty-block", 2), (2, "empty-block", 3)]
        forged = json.loads(json.dumps(recs[1]))
        forged["certificate"]["block_index"] = 1
        code, verdicts = self.verify_lines(capsys, tmp_path, [*recs, forged])
        assert (code, verdicts) == (1, [True, True, False])

    def test_neighborly_exit_codes(self, capsys, monkeypatch):
        code, out = self.run(capsys, "neighborly", "-d", "4", "-n", "7")
        assert code == 0
        assert json.loads(out)["outcome"] == {"neighborly": True, "k": 2}
        code, out = self.run(capsys, "neighborly", "-d", "4", "-n", "4")
        assert (code, out) == (2, "")
        # a facet list missing the facets without index 1 leaves the pair
        # {2, 3} uncovered: the claim check fails
        import tverlab.ordertype as ordertype

        gale_facets = ordertype.gale_facets

        def without_index_2_facets(n, dim):
            return [f for f in gale_facets(n, dim) if 1 in f]

        monkeypatch.setattr(ordertype, "gale_facets", without_index_2_facets)
        code, out = self.run(capsys, "neighborly", "-d", "4", "-n", "7")
        assert code == 1
        assert json.loads(out)["outcome"] == {"neighborly": False, "k": 2}

    def test_t_line(self, capsys):
        code, out = self.run(capsys, "t-line", "-n", "7", "-r", "2")
        assert code == 0
        rec = json.loads(out)
        assert (rec["claim"], rec["inputs"], rec["outcome"]) == (
            "TightD1", {"n": 7, "r": 2}, {"value": 2})

    @pytest.mark.parametrize("n, r", [(3, 0), (3, -2), (2, 3)])
    def test_t_line_checks_n_and_r(self, capsys, n, r):
        # t-line checks both bounds itself, so its message names the command
        # and not a helper that the search would reach with r < 1
        code = main(["t-line", "-n", str(n), "-r", str(r)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"input error: t-line needs n >= r >= 1, got n={n}, r={r}\n"

    @pytest.mark.parametrize("flags, fields", [
        (["--cluster-count", "2", "--spread", "3"], {"kind": "clustered", "cluster_count": 2,
                                                      "spread": 3}),
    ])
    def test_search_c_strategy_flags_in_fingerprint(self, capsys, flags, fields):
        code, out = self.run(capsys, "search-c", "-d", "2", "-r", "2", "--n-from", "3",
                             "--n-to", "3", *flags)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        for rec in records:
            strategy = rec["inputs"]["strategy"]
            assert {k: strategy[k] for k in fields} == fields
        assert records[0]["outcome"]["found"] is True

    @pytest.mark.parametrize("change", [["-d", "3"], ["-r", "3"], ["--seed", "2"],
                                        ["--budget", "7"], ["--spread", "5"]])
    def test_search_c_resume_skips_other_scans(self, capsys, tmp_path, change):
        # a checkpoint record is taken back only for the same d, r and strategy
        report = tmp_path / "scan.jsonl"
        base = {"-d": "2", "-r": "2", "--seed": "1", "--budget": "60"}
        argv = lambda opts: ["--out", str(report), "search-c", "--n-from", "3",
                             "--n-to", "3", *[x for kv in opts.items() for x in kv]]
        code, _ = self.run(capsys, *argv(base))
        assert code == 0
        code, out = self.run(capsys, *argv({**base, change[0]: change[1]}))
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["outcome"]
        assert summary["resumed"] == [] and summary["per_n"] == {"3": True}
        code, out = self.run(capsys, *argv(base))
        assert json.loads(out.splitlines()[-1])["outcome"]["resumed"] == [3]

    def test_n_line_exit_and_oracle(self, capsys):
        code, out = self.run(capsys, "n-line", "-t", "2", "-r", "2")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["outcome"]["value"] == 7 and rec["outcome"]["match"] is True

    def test_verify_figure2(self, capsys):
        code, out = self.run(capsys, "verify-figure2")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["claim"] == "Figure2"
        assert rec["outcome"]["status"] == "infeasible"
        assert rec["outcome"]["replayed"] is True
        assert rec["outcome"]["c_lower_bound"]["at_least"] == 17

    def test_verify_figure2_halves_epsilon(self, capsys, tmp_path):
        # 1/3, 1/6 and 1/12 leave the alternating 4-partition feasible
        report = tmp_path / "figure2.jsonl"
        code, out = self.run(capsys, "--out", str(report), "verify-figure2",
                             "--epsilon", "1/3")
        assert code == 0
        rec = json.loads(out)
        assert rec["inputs"] == {"epsilon": "1/24"}
        assert rec["outcome"]["n"] == len(rec["outcome"]["alphas"]) == 16
        code, out = self.run(capsys, "verify", str(report))
        assert code == 0 and json.loads(out)["outcome"]["all_ok"] is True

    def test_tolerance_set_mode(self, capsys, tmp_path):
        ps = tmp_path / "line.otps"
        ps.write_text("otps 1 5\n1\n2\n3\n4\n5\n")
        code, out = self.run(capsys, "tolerance", str(ps), "--set", "-r", "2")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["outcome"]["value"] == 1

    @pytest.mark.parametrize("mode", ["--set", "--sandwich"])
    def test_tolerance_d4_thin_blocks(self, capsys, tmp_path, mode):
        # five moment points in R^4: every 3-partition has tolerance -1,
        # though the thin-block bound alone would put some below it
        ps = tmp_path / "m.otps"
        self.run(capsys, "gen", "-d", "4", "--alphas", "1,2,3,4,5",
                 "--pointset-out", str(ps))
        code, out = self.run(capsys, "tolerance", str(ps), mode, "-r", "3")
        assert code == 0
        outcome = json.loads(out.strip())["outcome"]
        if mode == "--set":
            assert (outcome["value"], outcome["partition"]) == (-1, [1, 1, 1, 2, 3])
        else:
            assert outcome["t_value"] == -1 and outcome["upper_ok"]

    def test_tolerance_breaking_set_empty_vs_absent(self, capsys, tmp_path):
        # value -1: the empty removal already breaks, so the breaking set is
        # [], not null; null means a budget cut the search
        ps = tmp_path / "line.otps"
        ps.write_text("otps 1 4\n1\n2\n3\n4\n")
        code, out = self.run(capsys, "tolerance", str(ps), "--blocks", "1,2;3,4")
        assert code == 0
        outcome = json.loads(out.strip())["outcome"]
        assert (outcome["value"], outcome["breaking_set"], outcome["exhausted"]) == (-1, [], True)

        ps.write_text("otps 1 7\n1\n2\n3\n4\n5\n6\n7\n")
        code, out = self.run(capsys, "tolerance", str(ps), "--alternating", "2",
                             "--budget", "1")
        assert code == 0
        outcome = json.loads(out.strip())["outcome"]
        assert (outcome["value"], outcome["breaking_set"], outcome["exhausted"]) == (1, None, False)

    def test_bounds(self, capsys):
        code, out = self.run(capsys, "bounds", "--kind", "lemma32", "-d", "3", "-r", "4")
        rec = json.loads(out.strip())
        assert code == 0 and rec["outcome"]["value"] == 25 and rec["claim"] == "Lemma3.2"
        code, out = self.run(capsys, "bounds", "--kind", "even-d", "-d", "2", "-r", "3")
        assert json.loads(out.strip())["outcome"]["value"] == 9
        code, out = self.run(
            capsys, "bounds", "--kind", "prop41", "-n", "16", "-d", "3", "-r", "4"
        )
        assert json.loads(out.strip())["outcome"]["value"] == 3

    def test_successive_calls_share_no_state(self, capsys, tmp_path):
        # the parser is built once per process; the flags of one call must
        # not reach the next
        out = tmp_path / "records.jsonl"
        code, text = self.run(capsys, "facets", "-d", "2", "-n", "5", "--seed", "7",
                              "--out", str(out), "--format", "table")
        assert code == 0 and text.startswith("== facets")
        written = out.read_text()
        assert json.loads(written)["seed"] == 7
        code, text = self.run(capsys, "facets", "-d", "2", "-n", "5")
        assert code == 0 and out.read_text() == written
        assert json.loads(text.strip())["seed"] is None

    def test_input_error_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.otps"
        bad.write_text("otps 2 1\n1/2\n")
        code = main(["homog", str(bad)])
        assert code == 2
        square = tmp_path / "sq.otps"
        square.write_text("otps 2 4\n0 0\n1 0\n1 1\n0 1\n")
        code = main(["crossings", str(square), "--normal", "1,0,0", "--offset", "1/2"])
        assert code == 2

    def test_missing_file_exit2(self, capsys, tmp_path):
        code = main(["homog", str(tmp_path / "nope.otps")])
        assert code == 2

    def test_negative_alphas_equals_form(self, capsys, tmp_path):
        path = tmp_path / "m.otps"
        code = main(["gen", "-d", "3", "--alphas=-2,-1,1,2",
                     "--pointset-out", str(path)])
        capsys.readouterr()
        assert code == 0
        assert parse_pointset(path.read_text()).points[0] == (
            Rational(-2), Rational(4), Rational(-8)
        )

    def test_resource_guard_exit3(self, capsys, tmp_path):
        ps = tmp_path / "long.otps"
        ps.write_text("otps 1 13\n" + "\n".join(str(i) for i in range(13)) + "\n")
        code = main(["tolerance", str(ps), "--set", "-r", "2"])
        assert code == 3
        assert main(["n-line", "-t", "5", "-r", "3"]) == 3

    def test_crossings_claim(self, capsys, tmp_path):
        ps = tmp_path / "sq.otps"
        ps.write_text("otps 2 4\n0 0\n1 0\n1 1\n0 1\n")
        code, out = self.run(
            capsys, "crossings", str(ps), "--normal", "1,0", "--offset", "1/2"
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["outcome"]["count"] == 2 and rec["outcome"]["edges"] == [1, 3]

    def test_search_c_resume_deterministic(self, capsys, tmp_path):
        report = tmp_path / "scan.jsonl"
        args = [
            "--out", str(report), "--seed", "1", "--budget", "60",
            "search-c", "-d", "2", "-r", "2", "--n-from", "3", "--n-to", "4",
        ]
        code, out1 = self.run(capsys, *args)
        assert code == 0
        first = [json.loads(l) for l in out1.strip().splitlines()]
        # resuming re-reads the checkpoint: no new per-n records
        code, out2 = self.run(capsys, *args)
        assert code == 0
        second = [json.loads(l) for l in out2.strip().splitlines()]
        per_n_second = [r for r in second if r["command"] == "search-c"]
        assert per_n_second == []
        summary = [r for r in second if r["command"] == "search-c-summary"][0]
        assert summary["outcome"]["resumed"] == [3, 4]
        assert summary["outcome"]["per_n"] == {"3": True, "4": False}

    @pytest.mark.parametrize("content", [b"my notes\nsecond line", b"just one line"])
    def test_search_c_out_that_is_no_report_stays_whole(self, capsys, tmp_path, content):
        # an unended last line is cut off only when it starts a record, and
        # only after every whole line parsed
        report = tmp_path / "notes.jsonl"
        report.write_bytes(content)
        code = main(["--out", str(report), "search-c", "-d", "2", "-r", "2",
                     "--n-from", "3", "--n-to", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("input error: line 1:")
        assert captured.err.count("\n") == 1
        assert report.read_bytes() == content

    @pytest.mark.parametrize("command", ["homog", "verify", "search-c"])
    def test_non_utf8_input_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes("otps 1 1\n# caf\u00e9\n1\n".encode("latin-1"))
        argv = {
            "homog": ["homog", str(path)],
            "verify": ["verify", str(path)],
            "search-c": ["--out", str(path), "search-c", "-d", "2", "-r", "2",
                         "--n-from", "3", "--n-to", "3"],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("input error: line 2:") and captured.err.count("\n") == 1
        assert str(path) in captured.err

    def test_search_c_resume_after_torn_line(self, capsys, tmp_path):
        # a kill during the per-n append leaves a partial last line; resume
        # drops it with one warning and recomputes that n
        report = tmp_path / "scan.jsonl"
        args = [
            "--out", str(report), "--seed", "1", "--budget", "60",
            "search-c", "-d", "2", "-r", "2", "--n-from", "3", "--n-to", "4",
        ]
        code, out1 = self.run(capsys, *args)
        assert code == 0
        lines = report.read_text().splitlines(keepends=True)
        assert [json.loads(l)["command"] for l in lines] == [
            "search-c", "search-c", "search-c-summary",
        ]
        report.write_text(lines[0] + lines[1][: len(lines[1]) // 2])

        code = main(args)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.count("warning") == 1 and "torn" in captured.err
        second = [json.loads(l) for l in captured.out.strip().splitlines()]
        summary = second[-1]["outcome"]
        assert summary["resumed"] == [3]
        assert summary["per_n"] == {"3": True, "4": False}

        def without_timing(line):
            rec = json.loads(line)
            rec.pop("timing")
            return rec

        recomputed = [l for l in captured.out.splitlines() if '"search-c"' in l]
        assert [without_timing(l) for l in recomputed] == [
            without_timing(out1.splitlines()[1])
        ]
        # the checkpoint is whole again: a further resume recomputes nothing
        code, out3 = self.run(capsys, *args)
        assert code == 0
        assert json.loads(out3.strip().splitlines()[-1])["outcome"]["resumed"] == [3, 4]

    @pytest.mark.parametrize("forgery", ["relabel-n", "zero-multipliers", "status"])
    def test_search_c_resume_replays_found_records(self, capsys, tmp_path, forgery):
        # a found record whose certificate does not replay against the
        # alternating partition of its own n moment points is dropped with one
        # warning, and that n is recomputed
        report = tmp_path / "scan.jsonl"
        scan = ["--out", str(report), "search-c", "-d", "2", "-r", "2"]
        code, _ = self.run(capsys, *scan, "--n-from", "3", "--n-to", "3")
        assert code == 0
        rec = json.loads(report.read_text().splitlines()[0])
        assert rec["outcome"]["found"] and rec["certificate"]["kind"] == "farkas"
        n = 3
        if forgery == "relabel-n":
            rec["inputs"]["n"] = n = 4
        elif forgery == "zero-multipliers":
            rec["certificate"]["multipliers"] = ["0"] * len(rec["certificate"]["multipliers"])
        else:
            rec["certificate"]["status"] = "feasible"
        report.write_text(json.dumps(rec) + "\n")

        code = main(scan + ["--n-from", str(n), "--n-to", str(n)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.count("warning") == 1 and f"n={n}" in captured.err
        summary = json.loads(captured.out.strip().splitlines()[-1])["outcome"]
        assert summary["resumed"] == []
        expected = {3: (True, 4), 4: (False, None)}[n]
        assert (summary["per_n"][str(n)], summary["lower_bound"]) == expected

    def test_search_c_resume_mixed_checkpoint(self, capsys, tmp_path):
        # found and not-found records are taken back; a found record that
        # does not replay is dropped and its n recomputed; a record whose
        # found is null found nothing; verify accepts the summary written
        report = tmp_path / "scan.jsonl"
        scan = ["--out", str(report), "--seed", "1", "--budget", "60",
                "search-c", "-d", "2", "-r", "2"]
        code, _ = self.run(capsys, *scan, "--n-from", "3", "--n-to", "4")
        assert code == 0
        hit, miss, _ = [json.loads(line) for line in report.read_text().splitlines()]
        assert (hit["outcome"]["found"], miss["outcome"]["found"]) == (True, False)
        forged = json.loads(json.dumps(hit))
        forged["inputs"]["n"] = 5
        null = json.loads(json.dumps(miss))
        null["inputs"]["n"], null["outcome"]["found"] = 6, None
        report.write_text("".join(json.dumps(r) + "\n" for r in (hit, miss, forged, null)))

        code = main(scan + ["--n-from", "3", "--n-to", "6"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.count("warning") == 1 and "n=5" in captured.err
        *computed, summary = [json.loads(line) for line in captured.out.splitlines()]
        assert [rec["inputs"]["n"] for rec in computed] == [5]
        found_5 = computed[0]["outcome"]["found"]
        assert summary["outcome"] == {
            "per_n": {"3": True, "4": False, "5": found_5, "6": False},
            "lower_bound": 6 if found_5 else 4,
            "resumed": [3, 4, 6],
        }
        code, out = self.run(capsys, "verify", str(report))
        verdicts = [r["replayed"] for r in json.loads(out)["outcome"]["results"]]
        # hit, miss, forged, null, the recomputed n=5, the summary
        assert verdicts == [True, None, False, None, True if found_5 else None, True]

    def test_interrupted_scan_resumes(self, capsys, tmp_path, monkeypatch):
        # a fault at the second n leaves the first n's record in --out, and
        # a rerun resumes it and writes what an uninterrupted scan writes
        import tverlab.search

        scan = ["--seed", "1", "--budget", "60", "search-c", "-d", "2", "-r", "2",
                "--n-from", "3", "--n-to", "4"]
        whole, cut = tmp_path / "whole.jsonl", tmp_path / "cut.jsonl"
        assert self.run(capsys, "--out", str(whole), *scan)[0] == 0
        find = tverlab.search.find_counterexample

        def without_timing(path):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for rec in records:
                rec.pop("timing")
            return records

        def fault_at_4(d, r, n, **kwargs):
            if n == 4:
                raise InternalError("forced")
            return find(d, r, n, **kwargs)

        monkeypatch.setattr(tverlab.search, "find_counterexample", fault_at_4)
        code, out = self.run(capsys, "--out", str(cut), *scan)
        assert (code, out) == (4, "")
        assert without_timing(cut) == without_timing(whole)[:1]
        monkeypatch.undo()

        assert self.run(capsys, "--out", str(cut), *scan)[0] == 0
        *rerun, summary = without_timing(cut)
        *uninterrupted, expected = without_timing(whole)
        assert rerun == uninterrupted
        assert summary["outcome"].pop("resumed") == [3]
        assert expected["outcome"].pop("resumed") == []
        assert summary == expected

    def test_verify_figure2_replays_once(self, capsys, monkeypatch):
        # _certify replays the certificate; the command does not replay it again
        import tverlab.cli
        import tverlab.search

        calls = []
        for module in (tverlab.search, tverlab.cli):
            def counted(*args, replay=module.verify_outcome):
                calls.append(args)
                return replay(*args)
            monkeypatch.setattr(module, "verify_outcome", counted)
        code, _ = self.run(capsys, "verify-figure2")
        assert (code, len(calls)) == (0, 1)

    def test_verify_replays_each_certificate_once(self, capsys, tmp_path, monkeypatch):
        # a summary reads its records' verdicts instead of replaying them again
        import tverlab.cli

        report = tmp_path / "scan.jsonl"
        code, _ = self.run(capsys, "--out", str(report), "--seed", "1", "--budget", "60",
                           "search-c", "-d", "2", "-r", "2", "--n-from", "3", "--n-to", "6")
        assert code == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        certified = sum(rec["certificate"] is not None for rec in records)
        assert certified >= 1 and records[-1]["command"] == "search-c-summary"
        calls = []
        replay = tverlab.cli.replay_record

        def counted(record):
            calls.append(record)
            return replay(record)

        monkeypatch.setattr(tverlab.cli, "replay_record", counted)
        code, out = self.run(capsys, "verify", str(report))
        assert (code, len(calls)) == (0, certified)
        assert json.loads(out)["outcome"]["all_ok"] is True

    @pytest.mark.parametrize("command", ["verify", "resume"])
    @pytest.mark.parametrize("edit", ["line", "inputs", "outcome", "json"])
    def test_malformed_record_exits_2(self, capsys, tmp_path, command, edit):
        # a line that is not JSON, not a JSON object, or whose inputs or
        # outcome is not one, is an input error that names its report line,
        # whether verified or resumed from
        report = tmp_path / "scan.jsonl"
        scan = ["--out", str(report), "search-c", "-d", "2", "-r", "2",
                "--n-from", "3", "--n-to", "4"]
        assert self.run(capsys, *scan)[0] == 0
        lines = report.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        rec, lineno = json.loads(lines[0]), 1
        if edit == "json":
            lines[2], lineno = "{oops\n", 3
        elif edit == "line":
            lines[0] = json.dumps([1, 2]) + "\n"
        else:
            rec[edit] = [1, 2] if edit == "inputs" else [1]
            lines[0] = json.dumps(rec) + "\n"
        report.write_text("".join(lines))
        code = main(["verify", str(report)] if command == "verify" else scan)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"input error: line {lineno}:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["t-line", "-n", "3", "-r", "0"], ">= r >= 1"),
        (["tolerance", "LINE", "--set", "-r", "0"], ">= r >= 1"),
        (["tolerance", "LINE", "--sandwich", "-r", "0"], ">= r >= 1"),
        (["tolerance", "LINE", "--alternating", "0"], ">= r >= 1"),
        (["intersect", "LINE", "--alternating", "0"], ">= r >= 1"),
        (["search-c", "-d", "2", "-r", "0", "--n-from", "3", "--n-to", "3"], ">= r >= 1"),
        (["facets", "-d", "-1", "-n", "3"], "dim + 1 >= 2"),
        (["facets", "-d", "0", "-n", "3"], "dim + 1 >= 2"),
        (["neighborly", "-d", "-2", "-n", "3"], "dim + 1 >= 2"),
        (["search-c", "-d", "2", "-r", "2", "--n-from", "5", "--n-to", "3"], "empty n range"),
        (["search-c", "-d", "2", "-r", "2", "--n-from", "3", "--n-to", "3",
          "--cluster-count", "-1"], "cluster count"),
        (["gen", "-d", "2", "--alphas", "1,2,3", "--pointset-out", "MISSING/x.otps"],
         "No such file"),
        (["--out", "MISSING/r.jsonl", "t-line", "-n", "5", "-r", "2"], "No such file"),
        (["--out", "MISSING/r.jsonl", "search-c", "-d", "2", "-r", "2",
          "--n-from", "3", "--n-to", "3"], "No such file"),
        (["tolerance", "MISSING/x.otps", "--set", "-r", "2"], "No such file"),
        (["verify", "MISSING"], "No such file"),
        (["gen", "-d", "2"], "provide --alphas"),
        (["tolerance", "LINE", "--blocks", "1,x;2,3,4,5"], "not a comma list"),
        (["tolerance", "LINE", "--blocks", "1,9;2,3,4,5"], "out of range"),
        (["tolerance", "LINE"], "provide --blocks"),
        (["intersect", "LINE"], "provide --blocks"),
        (["tolerance", "LINE", "--sandwich"], "--sandwich needs -r"),
        (["tolerance", "LINE", "--set"], "--set needs -r"),
        (["bounds", "--kind", "prop41", "-d", "2", "-r", "2"], "needs -n"),
        (["gen", "-d", "0", "--alphas", "1,2"], "dimension must be >= 1"),
        (["n-line", "-t", "-1", "-r", "2"], "need t >= 0"),
        (["bounds", "--kind", "lemma32", "-d", "0", "-r", "2"], "need d >= 1"),
        (["bounds", "--kind", "even-d", "-d", "2", "-r", "0"], "need r >= 1"),
        (["bounds", "--kind", "prop41", "-n", "0", "-d", "2", "-r", "2"], "need positive n"),
        (["tolerance", "LINE", "--alternating", "2", "-r", "3"], "differs from the partition"),
        (["tolerance", "LINE", "--blocks", "1,3,5;2,4", "-r", "3"], "differs from the partition"),
        (["--budget", "0", "tolerance", "LINE", "--sandwich", "-r", "2"], "takes no --budget"),
        (["bounds", "--kind", "lemma32", "-d", "3", "-r", "4", "-n", "16"], "takes no -n"),
        (["bounds", "--kind", "even-d", "-d", "2", "-r", "3", "-n", "9"], "takes no -n"),
        (["facets", "-d", "2", "-n", "5", "--budget", "3"], "takes no --budget"),
        (["--budget", "3", "n-line", "-t", "1", "-r", "2"], "takes no --budget"),
        (["--seed", "3", "verify", "MISSING"], "takes no --seed"),
        (["search-c", "-d", "2", "-r", "2", "--n-from", "3", "--n-to", "3", "--spread=-5"],
         "spread must be >= 1"),
        (["intersect", "LINE", "--blocks", ""], "blocks do not cover all indices"),
        (["search-c", "-d", "0", "-r", "2", "--n-from", "3", "--n-to", "3"],
         "dimension must be >= 1"),
        (["search-c", "-d", "-1", "-r", "2", "--n-from", "3", "--n-to", "3"],
         "dimension must be >= 1"),
        (["--budget", "0", "search-c", "-d", "0", "-r", "2", "--n-from", "3", "--n-to", "3"],
         "dimension must be >= 1"),
    ])
    def test_bad_input_exits_2(self, capsys, tmp_path, argv, message):
        # no input exits 1 (a failed claim) or 4 (a fault), and none prints
        line = tmp_path / "line5.otps"
        line.write_text("otps 1 5\n1\n2\n3\n4\n5\n")
        argv = [a.replace("LINE", str(line)).replace("MISSING", str(tmp_path / "no"))
                for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("argv", [
        ["intersect", "LINE", "--blocks", "1,2;3,4,5", "--alternating", "2"],
        ["tolerance", "LINE", "--blocks", "1,2;3,4,5", "--alternating", "2"],
        ["tolerance", "LINE", "--set", "-r", "2", "--blocks", "1,2;3,4,5"],
        ["tolerance", "LINE", "--set", "-r", "2", "--alternating", "2"],
        ["tolerance", "LINE", "--sandwich", "-r", "2", "--set"],
        ["tolerance", "LINE", "--sandwich", "-r", "2", "--blocks", "1,2;3,4,5"],
        ["gen", "-d", "1", "--alphas", "1,2", "--alphas-file", "LINE"],
    ])
    def test_conflicting_modes_exit_2(self, capsys, tmp_path, argv):
        # two mode flags are refused, not one of them silently dropped
        line = tmp_path / "line5.otps"
        line.write_text("otps 1 5\n1\n2\n3\n4\n5\n")
        with pytest.raises(SystemExit) as exc:
            main([str(line) if a == "LINE" else a for a in argv])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "not allowed with argument" in captured.err

    def test_reports_byte_identical_modulo_timing(self, capsys):
        def strip_timing(lines):
            out = []
            for line in lines.strip().splitlines():
                rec = json.loads(line)
                rec.pop("timing", None)
                out.append(json.dumps(rec, sort_keys=True))
            return out

        code, out1 = self.run(capsys, "--seed", "9", "search-c", "-d", "2",
                              "-r", "2", "--n-from", "3", "--n-to", "4",
                              "--budget", "40")
        code, out2 = self.run(capsys, "--seed", "9", "search-c", "-d", "2",
                              "-r", "2", "--n-from", "3", "--n-to", "4",
                              "--budget", "40")
        assert strip_timing(out1) == strip_timing(out2)

    def test_table_format(self, capsys):
        code, out = self.run(capsys, "facets", "-d", "2", "-n", "5",
                             "--format", "table")
        assert code == 0 and out.startswith("== facets")

    @pytest.mark.parametrize("argv", [
        ["tolerance", "LINE", "--set", "-r", "2"],
        ["tolerance", "LINE", "--blocks", "1,3,5;2,4"],
        ["search-c", "-d", "3", "-r", "4", "--n-from", "16", "--n-to", "16"],
    ])
    def test_negative_budget_is_an_input_error(self, capsys, tmp_path, argv):
        # no budget below zero means anything: the run prints and appends nothing
        line = tmp_path / "line5.otps"
        line.write_text("otps 1 5\n1\n2\n3\n4\n5\n")
        out = tmp_path / "out.jsonl"
        argv = [str(line) if a == "LINE" else a for a in argv]
        code = main(["--budget", "-1", "--out", str(out), *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, out.exists()) == (2, "", False)
        assert "--budget" in captured.err

    def test_tolerance_sandwich_mode(self, capsys, tmp_path):
        ps = tmp_path / "line.otps"
        ps.write_text("otps 1 7\n1\n2\n3\n4\n5\n6\n7\n")
        code, out = self.run(capsys, "tolerance", str(ps), "--sandwich", "-r", "2")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["claim"] == "Thm3.4-upper"
        assert rec["outcome"]["t_value"] == 2
        assert rec["outcome"]["lower_ok"] and rec["outcome"]["upper_ok"]

    def test_intersect_alternating_flag(self, capsys, tmp_path):
        ps = tmp_path / "m.otps"
        self.run(capsys, "gen", "-d", "1", "--alphas", "1,2,3,4,5",
                 "--pointset-out", str(ps))
        code, out = self.run(capsys, "intersect", str(ps), "--alternating", "3",
                             "--expect", "feasible")
        assert code == 0

    def test_gen_from_alphas_file(self, capsys, tmp_path):
        alphas = tmp_path / "alphas.txt"
        alphas.write_text("1 3/2\n2\n")
        code, out = self.run(capsys, "gen", "-d", "2", "--alphas-file", str(alphas))
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["outcome"]["pointset"]["points"][1] == ["3/2", "9/4"]

    def test_shipped_data_file_replays(self, capsys):
        from pathlib import Path

        data = Path(__file__).resolve().parent.parent / "data" / "sixteen_point_c34.otps"
        ps = parse_pointset(data.read_text())
        assert ps.dim == 3 and len(ps) == 16
        # canonical body round-trips byte-identically (comments aside)
        body = "".join(
            line + "\n"
            for line in data.read_text().splitlines()
            if not line.startswith("#")
        )
        assert emit_pointset(ps) == body
        out = hulls_common_point(
            [[ps.points[i] for i in range(k, 16, 4)] for k in range(4)], 3
        )
        assert not out.feasible

    def test_intersect_sixteen_point_golden(self, capsys):
        """The report is byte-identical, apart from timing, to the recorded one."""
        golden = json.loads((GOLDEN / "sixteen_point.json").read_text())
        data = Path(__file__).resolve().parent.parent / "data" / "sixteen_point_c34.otps"
        code, out = self.run(capsys, "intersect", str(data), "--alternating", "4")
        assert code == 0
        stripped, count = re.subn(r',"timing":[0-9.e-]+', "", out)
        assert count == 1
        assert stripped == golden["intersect_alternating_4"]

    @pytest.mark.parametrize("case", ["found", "exhausted"])
    def test_search_c_golden(self, capsys, case):
        """``search-c`` at d = 3, r = 4, n = 16: one run that finds a
        counterexample after 127 feasible candidates, one that exhausts its
        budget.  The search-c line (tried, alphas, Farkas multipliers) is
        byte-identical, apart from timing, to the one recorded before the
        candidate loop confirmed feasibility ahead of the canonical simplex."""
        golden = json.loads((GOLDEN / "search_c.json").read_text())[case]
        code, out = self.run(capsys, *golden["argv"])
        assert code == 0
        stripped, count = re.subn(r',"timing":[0-9.e-]+', "", out.splitlines()[0])
        assert count == 1
        assert stripped == golden["line"]

    @pytest.mark.parametrize("case", sorted(TOLERANCE_GOLDEN["cases"]))
    def test_tolerance_golden(self, capsys, tmp_path, case):
        """``tolerance --set -r 2/3/4``, ``--alternating`` with and without a
        budget, ``--blocks`` and ``intersect --alternating`` on the moment
        points 1..10 in R^2 and 1..11 in R^3 and on an unsorted line: each
        report is byte-identical, apart from timing, to the one recorded
        before the label-string rules moved to one module."""
        golden = TOLERANCE_GOLDEN["cases"][case]
        path = tmp_path / "set.otps"
        path.write_text(TOLERANCE_GOLDEN["sets"][golden["set"]])
        code, out = self.run(capsys, *[str(path) if a == "SET" else a for a in golden["argv"]])
        assert code == 0
        stripped, count = re.subn(r',"timing":[0-9.e-]+', "", out.strip())
        assert count == 1
        assert stripped == golden["line"]

    @pytest.mark.parametrize("case", sorted(COMMANDS_GOLDEN["cases"]))
    def test_command_golden(self, capsys, tmp_path, monkeypatch, case):
        """``gen``, ``homog`` on a homogeneous set, ``facets``,
        ``neighborly``, ``crossings``, the three ``bounds`` kinds,
        ``tolerance --sandwich``, ``t-line``, ``n-line``, ``verify-figure2``,
        ``search-c`` with and without ``--seed``, ``verify`` over a report
        with an accepted, a none-found, a tampered and a summary record, and
        one ``--format table``: each exit code and report is byte-identical,
        apart from timing, to the one recorded before every record went
        through one path in ``main``."""
        monkeypatch.chdir(tmp_path)
        for name, text in COMMANDS_GOLDEN["files"].items():
            (tmp_path / name).write_text(text)
        golden = COMMANDS_GOLDEN["cases"][case]
        code, out = self.run(capsys, *golden["argv"])
        lines = out.splitlines()
        assert all('"timing":' in line for line in lines if line.startswith("{"))
        stripped = [re.sub(r',"timing":[0-9.e-]+', "", line) for line in lines]
        assert (code, stripped) == (golden["code"], golden["lines"])

    def test_internal_error_exit4(self, capsys, monkeypatch):
        import tverlab.search

        monkeypatch.setattr(tverlab.search, "verify_outcome", lambda *a, **k: False)
        code = main(["verify-figure2"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "internal error" in captured.err
        # a final simplex basis without a dual is a fault, not an exit-1 claim
        monkeypatch.setattr(tverlab.feasibility, "_basis_dual", lambda *args: None)
        sixteen = Path(__file__).resolve().parent.parent / "data" / "sixteen_point_c34.otps"
        assert main(["intersect", str(sixteen), "--alternating", "4"]) == 4
        assert "internal error" in capsys.readouterr().err


    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        import tverlab.cli

        def fault(*args, **kwargs):
            raise ZeroDivisionError("forced")

        monkeypatch.setattr(tverlab.cli, "t_line", fault)
        code = main(["t-line", "-n", "5", "-r", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert "Traceback" in captured.err and "ZeroDivisionError: forced" in captured.err
