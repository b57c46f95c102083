"""CLI behaviour: commands, output routing and exit codes."""

import ast
import gc
import importlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import httplift
from httplift.cli import (main, entry_point, _build_parser, EXIT_OK,
                          EXIT_VIOLATIONS, EXIT_ERROR)
from httplift.rdf import isomorphic_datasets
from httplift.turtle import parse_trig, parse_turtle

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SAMPLE = os.path.join(FIXTURES, "registration.http")
HAR = os.path.join(FIXTURES, "registration.har")
FINDINGS = os.path.join(FIXTURES, "findings.http")
GOLDEN = os.path.join(FIXTURES, "registration_golden.trig")
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def golden_dataset():
    with open(GOLDEN, encoding="utf-8") as fh:
        return parse_trig(fh.read())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLift:
    def test_transcript_to_trig(self, capsys):
        code, out, _ = run(capsys, "lift", SAMPLE)
        assert code == EXIT_OK
        assert isomorphic_datasets(parse_trig(out),
                                   golden_dataset())

    def test_har_input_by_extension(self, capsys):
        code, out, _ = run(capsys, "lift", HAR)
        assert code == EXIT_OK
        assert isomorphic_datasets(parse_trig(out),
                                   golden_dataset())

    def test_turtle_flag_emits_default_graph_only(self, capsys):
        code, out, _ = run(capsys, "lift", "--turtle", SAMPLE)
        assert code == EXIT_OK
        g = parse_turtle(out)
        assert len(g) == 75

    def test_output_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "lift", SAMPLE)
        _, out2, _ = run(capsys, "lift", SAMPLE)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "lifted.trig"
        code, out, _ = run(capsys, "lift", SAMPLE, "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert isomorphic_datasets(parse_trig(target.read_text()),
                                   golden_dataset())

    def test_stdin_dash(self, capsys, monkeypatch):
        with open(SAMPLE, "rb") as fh:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
                io.BytesIO(fh.read())))
        code, out, _ = run(capsys, "lift", "-", "--format", "transcript")
        assert code == EXIT_OK and out

    def test_stdin_reads_as_a_file_does(self, capsys, monkeypatch, tmp_path):
        # CRLF lines, and a Content-Length that counts LF line ends.
        body = "".join('<http://x/s> <http://x/p> "%d" .\n' % i
                       for i in range(5))
        data = ("POST /p HTTP/1.1\r\nHost: h\r\nContent-Type: text/turtle"
                "\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body.replace("\n", "\r\n"))).encode("utf-8")
        path = tmp_path / "x.http"
        path.write_bytes(data)
        from_file = run(capsys, "lift", str(path))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(capsys, "lift", "-") == from_file
        assert from_file[0] == EXIT_OK


class TestValidate:
    def test_clean_input_exits_zero(self, capsys):
        code, out, _ = run(capsys, "validate", SAMPLE)
        assert code == EXIT_OK
        assert "no findings" in out

    def test_violation_sets_exit_code(self, capsys, tmp_path):
        # a request without a method breaks R2
        broken = tmp_path / "broken.trig"
        broken.write_text(
            "@prefix : <http://w3id.org/http#> .\n"
            "_:q a :Request .\n")
        code, out, _ = run(capsys, "validate", str(broken))
        assert code == EXIT_VIOLATIONS
        assert "R2" in out

    def test_tsv_report(self, capsys, tmp_path):
        broken = tmp_path / "broken.trig"
        broken.write_text(
            "@prefix : <http://w3id.org/http#> .\n"
            "_:q a :Request .\n")
        code, out, _ = run(capsys, "validate", "--report", "tsv", str(broken))
        assert code == EXIT_VIOLATIONS
        first = out.strip().splitlines()[0].split("\t")
        assert first[0].startswith("R") and first[1] == "violation"

    def test_iri_with_a_no_break_space_validates(self, capsys, tmp_path):
        # U+00A0 is whitespace to str.isspace(), but IRIREF allows it.
        trig = tmp_path / "nbsp.trig"
        trig.write_text("<http://x/a\u00a0b> <http://x/p> <http://x/o> .\n",
                        encoding="utf-8")
        assert run(capsys, "validate", str(trig)) == (
            EXIT_OK, "OK: 10 rules checked, no findings\n", "")

    def test_lift_then_validate_composes(self, capsys, tmp_path):
        lifted = tmp_path / "lifted.trig"
        assert run(capsys, "lift", SAMPLE, "--out", str(lifted))[0] == EXIT_OK
        code, out, _ = run(capsys, "validate", str(lifted))
        assert code == EXIT_OK, out


class TestQuery:
    def test_cq1(self, capsys):
        code, out, _ = run(capsys, "query", "1", SAMPLE)
        assert code == EXIT_OK
        assert "text/turtle" in out

    def test_cq2(self, capsys):
        code, out, _ = run(capsys, "query", "2", SAMPLE)
        assert code == EXIT_OK
        statuses = sorted(line.split("\t")[1] for line in out.strip().splitlines())
        assert statuses == ["200", "201"]

    def test_cq3(self, capsys):
        code, out, _ = run(capsys, "query", "3", SAMPLE)
        assert "x8344" in out

    def test_cq4(self, capsys):
        code, out, _ = run(capsys, "query", "4", SAMPLE)
        assert out.strip() == "200"

    def test_cq5_prints_per_request_verdicts(self, capsys):
        code, out, _ = run(capsys, "query", "5", SAMPLE)
        verdicts = sorted(line.split("\t")[1]
                          for line in out.strip().splitlines())
        assert verdicts == ["false", "true"]

    def test_cq6_needs_prop(self, capsys):
        code, _, err = run(capsys, "query", "6", SAMPLE)
        assert code == EXIT_ERROR and "prop" in err

    def test_cq6(self, capsys):
        code, out, _ = run(capsys, "query", "6", SAMPLE,
                           "--prop", "http://example.org/ns#ids")
        assert out.split() == ["14", "35", "28", "6", "22"]

    def test_cq7(self, capsys):
        code, out, _ = run(capsys, "query", "7", SAMPLE, "--name", "count")
        assert out.strip() == '"5"'

    def test_cq7_needs_name(self, capsys):
        code, _, err = run(capsys, "query", "7", SAMPLE)
        assert code == EXIT_ERROR and "name" in err

    def test_unknown_cq(self, capsys):
        code, _, err = run(capsys, "query", "9", SAMPLE)
        assert code == EXIT_ERROR

    # A missing option is reported before the input is read, so neither a
    # missing file nor a malformed one hides it.
    @pytest.mark.parametrize("cq, text, message", [
        ("6", None, "error: CQ6 requires --prop\n"),
        ("7", "HTTP/1.1 200 OK\n", "error: CQ7 requires --name\n"),
    ], ids=["cq6-missing-file", "cq7-malformed-transcript"])
    def test_required_option_is_checked_first(self, capsys, tmp_path, cq,
                                              text, message):
        path = tmp_path / "input.http"
        if text is not None:
            path.write_text(text)
        assert run(capsys, "query", cq, str(path)) == (EXIT_ERROR, "",
                                                       message)


class TestOntology:
    def test_prints_parseable_turtle(self, capsys):
        code, out, _ = run(capsys, "ontology")
        assert code == EXIT_OK
        assert len(parse_turtle(out)) > 500

    def test_extensions_flag_adds_terms(self, capsys):
        _, base, _ = run(capsys, "ontology")
        _, ext, _ = run(capsys, "ontology", "--extensions")
        assert len(parse_turtle(ext)) > len(parse_turtle(base))
        assert "content-type" in ext


# A subject and predicate before deeply nested objects.
_NEST = "<http://x/s> <http://x/p> "
_HAR_STATUS = ('{"log": {"entries": [{"request": {"method": "GET", "url": '
               '"http://h/"}, "response": {"status": %s}}]}}')
_TOO_MANY_DIGITS = ("HAR entry 1: status code must have at most 3 digits: "
                    + "2" * 20 + "...")


def _cut(c: str) -> str:
    """How an error quotes a long run of the character `c`: 30 characters,
    with '...' in the middle."""
    return "'%s...%s'" % (c * 12, c * 13)


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "lift", "/nonexistent/input.http")
        assert code == EXIT_ERROR and err

    def test_malformed_transcript(self, capsys, tmp_path):
        bad = tmp_path / "bad.http"
        bad.write_text("HTTP/1.1 200 OK\n")  # response with no request
        code, _, err = run(capsys, "lift", str(bad))
        assert code == EXIT_ERROR and err

    def test_malformed_trig(self, capsys, tmp_path):
        bad = tmp_path / "bad.trig"
        bad.write_text("@prefix broken")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == EXIT_ERROR and err

    def test_stdin_that_is_not_utf_8(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"GET /a HTTP/1.1\r\nX: \xff\r\n")))
        code, out, err = run(capsys, "lift", "-")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: not UTF-8: byte 0xff (line 2, column 4)\n"

    def test_no_command_errors(self, capsys):
        assert main([]) == EXIT_ERROR

    @pytest.mark.parametrize("suffix, mutate, message", [
        (".har", lambda d: d["log"]["entries"][1]["response"].update(
            status="abc"), "HAR entry 2: "),
        (".har", lambda d: d["log"]["entries"][1]["response"].update(
            status=1000), "HAR entry 2: "),
        (".har", lambda d: d["log"]["entries"][0]["request"].update(
            method="G T"), "HAR entry 1: "),
        (".har", lambda d: d["log"]["entries"][0]["request"]["headers"][0]
         .pop("name"), "HAR entry 1: missing 'name'"),
        (".har", lambda d: d.update(log=[]), "'log' is not an object"),
        (".har", lambda d: d["log"]["entries"][1]["response"]["content"]
         .update(text="QUJ", encoding="base64"), "HAR entry 2: "),
        (".har", lambda d: d["log"]["entries"][1]["response"]["content"]
         .update(text="QUJD!!REVG", encoding="base64"),
         "HAR entry 2: Only base64 data is allowed"),
        (".http", "Bad Header: x", "transcript message 1 (line 1): header "
         "name must be a non-empty token: 'Bad Header'"),
        (".http", "Content-Length: -5", "bad Content-Length: '-5'"),
        (".trig", "<http://x/s> <http://x/p> <> .",
         "malformed IRI reference (line 1, column 27)"),
        (".trig", '<http://x/s> <http://x/p> "\\U00110000" .',
         "bad unicode escape (line 1, column 28)"),
        (".trig", '<http://x/s> <http://x/p> "\\uD800" .',
         "bad unicode escape (line 1, column 28)"),
        (".har", lambda d: d["log"]["entries"][0]["request"]["headers"][0]
         .update(value="a\ud800"), "HAR entry 1: lone surrogate at offset 1"),
        (".har", lambda d: d["log"]["entries"][1]["request"].update(
            url="http://h/\ud800"), "HAR entry 2: lone surrogate at offset 9"),
        (".har", lambda d: d["log"]["entries"][1]["response"].update(
            httpVersion="HTTP/1.1\udfff"), "HAR entry 2: lone surrogate at "
         "offset 8"),
        (".har", lambda d: d["log"]["entries"][0]["request"]["headers"][0]
         .update(value=None), "HAR entry 1: not a string: null"),
        # A url whose repr runs to 1,000 characters, and stays shallow
        # enough for json.loads under the test runner's stack.
        (".har", '{"log": {"entries": [{"request": {"method": "GET", "url": '
         '%s%s}, "response": {"status": 200}}]}}' % ("[" * 500, "]" * 500),
         "HAR entry 1: not a string: array"),
        # "\udcff" is written as the byte 0xff.
        (".http", "X: a\r\nY: \udcff", "not UTF-8: byte 0xff "
         "(line 4, column 4)"),
        (".http", "Content-Length: 5\nContent-Length: 2", "transcript "
         "message 1 (line 1): differing Content-Length values: '5', '2'"),
        (".http", "Transfer-Encoding: chunked", "transcript message 1 "
         "(line 1): bad chunk size: 'hello' (body line 1)"),
        (".http", "Transfer-Encoding: chunked\n\n20", "transcript message "
         "1 (line 1): truncated chunk: 7 of 32 bytes (body line 2)"),
        (".http", "Transfer-Encoding: chunked\n\n" + "f" * 3000,
         "transcript message 1 (line 1): chunk size of more than 64 bits "
         "(body line 1)"),
        (".http", "Transfer-Encoding: chunked\n\n" + "f" * 3700,
         "transcript message 1 (line 1): chunk size of more than 64 bits "
         "(body line 1)"),
        (".har", '{"log": {"entries": [{"request": {"method": "GET", "url": '
         '"http://h/"}, "response": {"status": 1e999}}]}}',
         "HAR entry 1: cannot convert float infinity to integer"),
        # More status digits than int() converts at its lowest limit, as
        # a string and as a JSON number.
        (".har", _HAR_STATUS % ('"%s"' % ("2" * 700)), _TOO_MANY_DIGITS),
        (".har", _HAR_STATUS % ('"%s"' % ("2" * 5000)), _TOO_MANY_DIGITS),
        (".har", _HAR_STATUS % ("2" * 700), _TOO_MANY_DIGITS),
        (".har", _HAR_STATUS % ("2" * 5000), _TOO_MANY_DIGITS),
        (".har", '{"log": {"entries": %s%s}}' % ("[" * 1200, "]" * 1200),
         "not a HAR document: "),
        (".trig", _NEST + "(" * 10000 + ")" * 10000 + " .",
         "nesting too deep (line 1, column "),
        (".trig", _NEST + "[ <http://x/p> " * 10000 + "<http://x/o> "
         + "]" * 10000 + " .", "nesting too deep (line 1, column "),
        (".http", "Content-Type: text/turtle\n\n" + _NEST + "(" * 10000,
         "transcript message 1 (line 1): unparseable RDF body: nesting too "
         "deep (body line 1, column "),
        (".http", "Content-Type: text/turtle\n\n" + _NEST
         + "[ <http://x/p> " * 10000, "transcript message 1 (line 1): "
         "unparseable RDF body: nesting too deep (body line 1, column "),
        (".http", "Content-Type: text/turtle\n\n@prefix ex: <http://x/> .\n"
         "ex:s ex:p .", "transcript message 1 (line 1): unparseable RDF "
         "body: expected object (body line 2, column 11)"),
        # A second message, with a Host that would move the path.
        (".http", "\n---\nGET /a?q=1 HTTP/1.1\nHost: h/x", "transcript "
         "message 2 (line 5): bad Host header: 'h/x'"),
        (".http", "\n---\nGET /a HTTP/1.1\nHost: :80", "transcript "
         "message 2 (line 5): bad Host header: ':80'"),
        (".har", lambda d: d["log"]["entries"][0]["request"].update(
            url="http://:80/a"), "HAR entry 1: empty host in request "
         "target: 'http://:80/a'"),
        (".http", "\n---\nGET http://h:8x/a HTTP/1.1", "transcript "
         "message 2 (line 5): bad host in request target: 'http://h:8x/a'"),
        # A long outside value is quoted cut to 30 characters.
        (".http", "\n---\n" + "@" * 3000 + " /a HTTP/1.1\nHost: h",
         "transcript message 2 (line 5): method name must be a non-empty "
         "token: " + _cut("@")),
        (".http", "@" * 6000 + ": x", "transcript message 1 (line 1): "
         "header name must be a non-empty token: " + _cut("@")),
        (".http", "Content-Length: " + "x" * 6000, "transcript message 1 "
         "(line 1): bad Content-Length: " + _cut("x")),
        (".http", "".join("Content-Length: %d\n" % n for n in range(500)),
         "transcript message 1 (line 1): differing Content-Length values: "
         "'0', '1'"),
        (".http", "\n---\nGET /a HTTP/" + "1" * 6000, "transcript message "
         "2 (line 5): bad HTTP version: 'HTTP/1111111...1111111111111'"),
        (".http", "\n---\nGET /a HTTP/1.1\nHost: " + "/" * 6000,
         "transcript message 2 (line 5): bad Host header: " + _cut("/")),
        (".http", "Transfer-Encoding: " + "x" * 6000, "transcript message 1 "
         "(line 1): transfer-coding %s is not supported" % _cut("x")),
        (".http", "\n---\nHTTP/1.1 " + "2" * 6000 + " OK", "transcript "
         "message 2 (line 5): status code must have exactly 3 digits: "
         + _cut("2")),
        (".http", "Transfer-Encoding: chunked\n\n" + "g" * 6000,
         "transcript message 1 (line 1): bad chunk size: %s (body line 1)"
         % _cut("g")),
        (".har", lambda d: d["log"]["entries"][0]["request"].update(
            url="http://:80/" + "a" * 4989), "HAR entry 1: empty host in "
         "request target: 'http://:80/a...aaaaaaaaaaaaa'"),
        (".har", lambda d: d["log"]["entries"][1]["response"].update(
            status="a" * 5000), "HAR entry 2: status is not an integer: "
         + _cut("a")),
        (".trig", _NEST + "b" * 4000 + " .", "unexpected token %s (line 1, "
         "column 27)" % _cut("b")),
        (".trig", "x" * 5000 + ":s <http://x/p> <http://x/o> .", "unknown "
         "prefix 'xxxxxxxxxxxx...xxxxxxxxxxxx:' (line 1, column 1)"),
        ("argv", ["query", "6", SAMPLE, "--prop", "a b"],
         "argument --prop: invalid Iri value: 'a b'"),
        ("argv", ["lift", SAMPLE, "--base", "http://x/<q>"],
         "argument --base: invalid Iri value: 'http://x/<q>'"),
    ], ids=["har-status-abc", "har-status-1000", "har-method-space",
            "har-header-without-name", "har-log-not-object",
            "har-base64-padding", "har-base64-alphabet", "header-name-space",
            "negative-content-length", "trig-empty-iri",
            "trig-escape-above-10ffff", "trig-escape-surrogate",
            "har-header-surrogate", "har-url-surrogate",
            "har-version-surrogate", "har-header-value-null",
            "har-url-deep-list",
            "transcript-not-utf-8", "differing-content-lengths",
            "chunk-size-not-hex", "chunk-truncated",
            "chunk-size-3000-hex-digits", "chunk-size-3700-hex-digits",
            "har-status-infinite", "har-status-700-digit-string",
            "har-status-5000-digit-string", "har-status-700-digit-number",
            "har-status-5000-digit-number",
            "har-nesting-too-deep", "trig-nested-collections",
            "trig-nested-property-lists", "body-nested-collections",
            "body-nested-property-lists", "body-second-line",
            "host-with-slash", "host-empty", "har-url-empty-host",
            "absolute-form-bad-host",
            "long-method", "long-header-name", "long-content-length",
            "500-differing-content-lengths", "long-http-version",
            "long-host", "long-transfer-coding", "long-status-code",
            "long-chunk-size", "har-long-url-empty-host", "har-long-status",
            "trig-long-word", "trig-long-prefix",
            "prop-not-an-iri",
            "base-not-an-iri"])
    def test_malformed_input_exits_2(self, capsys, tmp_path, suffix, mutate,
                                     message):
        # suffix "argv": `mutate` is the whole command line, and a bad
        # option is a usage error. A HAR `mutate` that is a string is the
        # whole text.
        if suffix == "argv":
            argv = mutate
        else:
            if suffix == ".har" and callable(mutate):
                with open(HAR) as fh:
                    doc = json.load(fh)
                mutate(doc)
                text = json.dumps(doc)
            elif suffix == ".http":
                text = "POST /p HTTP/1.1\nHost: h\n%s\n\nhello\n" % mutate
            else:
                text = mutate
            bad = tmp_path / ("bad" + suffix)
            bad.write_bytes(text.encode("utf-8", "surrogateescape"))
            argv = ["validate", str(bad)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ERROR and out == ""
        if suffix == "argv":
            assert err.startswith("usage: "), err
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert len(err) < 200, err
        assert message in err and "Traceback" not in err

    # A long value on the command line is quoted cut, as an input value is.
    @pytest.mark.parametrize("argv, message", [
        (["query", "9" * 3000, SAMPLE],
         "error: unknown competency question " + _cut("9")),
        (["query", "6", SAMPLE, "--prop", "<" * 3000],
         "argument --prop: invalid Iri value: " + _cut("<")),
        (["lift", SAMPLE, "--base", "{" * 3000],
         "argument --base: invalid Iri value: " + _cut("{")),
    ], ids=["long-cq", "long-prop", "long-base"])
    def test_long_command_line_value_gives_a_short_line(self, capsys, argv,
                                                         message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ERROR and out == ""
        assert message in err and max(map(len, err.splitlines())) < 200, err

    # RFC 9112 whitespace: only SP, HTAB, VT, FF and bare CR separate the
    # words of a start line, and field names are never trimmed.
    @pytest.mark.parametrize("text, message", [
        ("GET /a\xa0HTTP/1.1\nHost: h\n", "transcript message 1 (line 1): "
         "malformed request line: 'GET /a\\xa0HTTP/1.1'"),
        ("GET /a HTTP/1.1\nHost: h\n---\nHTTP/1.1\xa0200 OK\n",
         "transcript message 2 (line 4): bad HTTP version: "
         "'HTTP/1.1\\xa0200'"),
        ("GET /a HTTP/1.1\nHost: h\nX\xa0: v\n", "transcript message 1 "
         "(line 1): header name must be a non-empty token: 'X\\xa0'"),
        ("GET /a HTTP/1.1\nHost: h\nX : v\n", "transcript message 1 "
         "(line 1): whitespace before the colon in header line: 'X : v'"),
        ("GET /a HTTP/1.1\nHost: h\n X: v\n", "transcript message 1 "
         "(line 1): header name must be a non-empty token: ' X'"),
        ("GET /a HTTP/1.1\nHost: h\n---\nHTTP/1.1 200 OK\nX\xa0: v\n",
         "transcript message 2 (line 4): header name must be a non-empty "
         "token: 'X\\xa0'"),
    ], ids=["request-line-nbsp", "status-line-nbsp", "request-name-nbsp",
            "request-name-space", "request-name-leading-space",
            "response-name-nbsp"])
    def test_wire_whitespace_exits_2(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.http"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "lift", str(bad))
        assert (code, out, err) == (EXIT_ERROR, "", "error: %s\n" % message)

    # RFC 9112 section 2.3 on transcript start lines.
    @pytest.mark.parametrize("text, message", [
        ("GET /a HTTP/x.y!\nHost: h\n", "transcript message 1 (line 1): "
         "bad HTTP version: 'HTTP/x.y!'"),
        ("GET /a HTTP/1.1\nHost: h\n---\n\n201 Created HTTP/1\n",
         "transcript message 2 (line 5): bad HTTP version: 'HTTP/1'"),
    ], ids=["request-version", "inverted-status-line-version"])
    def test_bad_http_version_exits_2(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.http"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "lift", str(bad))
        assert (code, out, err) == (EXIT_ERROR, "", "error: %s\n" % message)

    def test_wire_whitespace_accepted(self, capsys, tmp_path):
        # HTAB separates start-line words; SP before a response field
        # name's colon is dropped.
        good = tmp_path / "good.http"
        good.write_text("GET\t/a\tHTTP/1.1\nHost: h\n---\n"
                        "HTTP/1.1\t200\tOK\nX-A : v\n", encoding="utf-8")
        code, out, _ = run(capsys, "lift", str(good))
        assert code == EXIT_OK
        assert '"X-A"' in out and '"X-A "' not in out

    def test_console_script_installed(self, capsys):
        # The suite runs from a checkout, where no wrapper script exists, so
        # check the declared entry and run its target as a wrapper would.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "httplift" in scripts
        module, _, attr = scripts["httplift"].partition(":")
        assert getattr(importlib.import_module(module), attr) is entry_point
        wrapper = [sys.executable, "-c",
                   "import sys; from %s import %s; sys.exit(%s())"
                   % (module, attr, attr)]
        package_root = os.path.dirname(os.path.dirname(httplift.__file__))
        pythonpath = os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        check_console_script(capsys, wrapper, {"PYTHONPATH": pythonpath})

    @pytest.mark.skipif(shutil.which("httplift") is None,
                        reason="httplift console script not installed")
    def test_console_script_on_path(self, capsys):
        check_console_script(capsys, [shutil.which("httplift")], {})


def check_console_script(capsys, command, env):
    """Run `command` as the httplift CLI in a fresh process and check the
    documented exit codes and that its stdout matches the in-process CLI."""
    assert main(["ontology"]) == EXIT_OK
    expected = capsys.readouterr().out.encode("utf-8")
    env = dict(os.environ, PYTHONIOENCODING="utf-8", **env)
    ontology = subprocess.run(command + ["ontology"], capture_output=True,
                              env=env, timeout=60)
    assert ontology.returncode == EXIT_OK, ontology.stderr
    assert ontology.stdout == expected
    no_args = subprocess.run(command, capture_output=True, env=env,
                             timeout=60)
    assert no_args.returncode == EXIT_ERROR, no_args.stderr


# Every command on one input, help, and each kind of refusal.
_ARGV_POOL = [
    ["lift", SAMPLE], ["lift", "--turtle", SAMPLE], ["validate", SAMPLE],
    ["validate", "--report", "tsv", SAMPLE],
    *[["query", cq, SAMPLE] for cq in "12345"],
    ["query", "6", SAMPLE, "--prop", "http://example.org/ns#ids"],
    ["query", "7", SAMPLE, "--name", "count"],
    ["ontology"], ["ontology", "--extensions"],
    ["--help"], ["query", "--help"], ["nope", SAMPLE],
    ["lift", SAMPLE, "--format", "xml"],
    ["lift", SAMPLE, "--base", "http://x/<q>"],
    ["query", "9", SAMPLE], ["query", "6", SAMPLE],
]


class TestRepeatedCalls:
    """main() builds its parser once per process and pauses the cyclic
    collector while a command runs; neither may show in what a call does."""

    @settings(max_examples=20, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from(_ARGV_POOL), min_size=1, max_size=6))
    def test_reused_parser_answers_as_a_new_one(self, capsys, argvs):
        reused = [run(capsys, *argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            _build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv, code", [
        (["validate", SAMPLE], EXIT_OK),
        (["validate", FINDINGS], EXIT_VIOLATIONS),
        (["lift", None], EXIT_ERROR),
        (["lift", "--format", "xml", SAMPLE], EXIT_ERROR),
        (["--help"], EXIT_OK),
    ], ids=["ok", "findings", "ingest-error", "usage-error", "help"])
    def test_collector_state_is_restored(self, capsys, tmp_path, enabled,
                                         argv, code):
        bad = tmp_path / "bad.http"
        bad.write_text("HTTP/1.1 200 OK\n")  # a response with no request
        argv = [str(bad) if a is None else a for a in argv]
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestStartup:
    def test_import_leaves_unused_modules_out(self):
        # Only HAR input needs json, the vendored files are read with
        # open(), and the records are namedtuples, not dataclasses.
        unused = ["dataclasses", "inspect", "json", "importlib.resources"]
        package_root = os.path.dirname(os.path.dirname(httplift.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import httplift.cli, httplift; "
                "print(*[m for m in sys.argv[2:] if m in sys.modules])")
        result = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code, package_root, *unused],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

    def test_no_global_statement_in_the_package(self):
        # Module-level state that one call leaves for the next starts with
        # a `global` statement; the package has none.
        package_dir = os.path.dirname(httplift.__file__)
        sources = sorted(name for name in os.listdir(package_dir)
                         if name.endswith(".py"))
        assert "rdf.py" in sources and "cli.py" in sources
        found = []
        for name in sources:
            with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Global)]
        assert found == []

    def test_errors_quote_outside_values_with_reprlib(self):
        # An error quotes a value from the input or the command line with
        # reprlib.repr, which cuts it to 30 characters, so that no message
        # grows with its input: these modules use no %r, !r or builtin repr,
        # except in the bodies of __repr__ methods, which spell a value whole.
        package_dir = os.path.dirname(httplift.__file__)
        found = []
        for name in ("model.py", "uri.py", "ingest.py", "turtle.py",
                     "cli.py", "rdf.py", "validate.py"):
            with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            exempt = {id(node) for method in ast.walk(tree)
                      if isinstance(method, ast.FunctionDef)
                      and method.name == "__repr__"
                      for node in ast.walk(method)}
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if id(node) not in exempt
                      and (isinstance(node, ast.Constant)
                      and isinstance(node.value, str) and "%r" in node.value
                      or isinstance(node, ast.FormattedValue)
                      and node.conversion == ord("r")
                      or isinstance(node, ast.Name) and node.id == "repr")]
        assert found == []

    def test_every_imported_name_is_used(self):
        # A name that a module imports and never refers to is left over
        # from deleted code. __init__.py imports names to export them, and
        # `from __future__ import annotations` binds no name.
        package_dir = os.path.dirname(httplift.__file__)
        sources = sorted(name for name in os.listdir(package_dir)
                         if name.endswith(".py") and name != "__init__.py")
        assert "rdf.py" in sources and "cli.py" in sources
        unused = []
        for name in sources:
            with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    unused += ["%s:%d %s" % (name, node.lineno, bound)
                               for bound in ((a.asname or a.name).split(".")[0]
                                             for a in node.names)
                               if bound not in used]
        assert unused == []
