"""Raw message parsing, transcript and HAR loading."""

import base64
import contextlib
import json
import os
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from httplift.ingest import (
    parse_http_request, parse_http_response, load_transcript, load_har,
    IngestError, RDF_MEDIA_TYPES,
)
from httplift.lift import lift_conversation
from httplift.model import Header, Method, header_value
from httplift.rdf import Literal, isomorphic_datasets
from httplift.turtle import ParseError, parse_trig, serialize_trig
from httplift.uri import parse_uri, recompose
from httplift.validate import validate
from httplift.vocab import PREFIXES


REQ = ("POST /reg?count=5 HTTP/1.1\r\n"
       "Host: example.org:8080\r\n"
       "\r\n")

RESP = ("HTTP/1.1 201 Created\r\n"
        "Location: /reg/x8344\r\n"
        "\r\n")


class TestParseRequest:
    def test_basic(self):
        r = parse_http_request(REQ)
        assert r.method == Method("POST")
        assert recompose(r.uri) == "http://example.org:8080/reg?count=5"
        assert r.http_version == "HTTP/1.1"
        assert r.body is None

    def test_lf_only_line_endings(self):
        r = parse_http_request(REQ.replace("\r\n", "\n"))
        assert r.method == Method("POST")

    def test_absolute_form_target(self):
        r = parse_http_request("GET http://h/p HTTP/1.1\n\n")
        assert recompose(r.uri) == "http://h/p"

    def test_missing_host_errors(self):
        with pytest.raises(IngestError):
            parse_http_request("GET /p HTTP/1.1\n\n")

    # RFC 9110 section 7.2: Host = uri-host [ ":" port ]. A '/', '?' or
    # '#' in it would move the path, query or fragment of the target, and
    # section 4.2.1 rejects an empty host.
    @pytest.mark.parametrize("host", [
        "h/x", "h?x", "h#x", "u@h", "h h", "h:8x", ":80", ":"])
    def test_host_that_is_not_host_and_port_errors(self, host):
        with pytest.raises(IngestError,
                           match=re.escape("bad Host header: %r" % host)):
            parse_http_request("GET /a?q=1 HTTP/1.1\nHost: %s\n\n" % host)

    @pytest.mark.parametrize("target", [
        "http://:80/a", "http:///a", "http://u@:80/a", "HTTPS://:/a"])
    def test_absolute_form_with_an_empty_host_errors(self, target):
        with pytest.raises(IngestError, match=re.escape(
                "empty host in request target: %r" % target)):
            parse_http_request("GET %s HTTP/1.1\n\n" % target)

    # The authority after any userinfo is held to the Host grammar too.
    @pytest.mark.parametrize("target", [
        "http://h:8x/a", "http://u@h:8x/a", "https://h:80:80/a",
        "http://[::1/a", "http://h%zz/a", "http://h<x>/a"])
    def test_absolute_form_with_a_bad_host_errors(self, target):
        with pytest.raises(IngestError, match=re.escape(
                "bad host in request target: %r" % target)):
            parse_http_request("GET %s HTTP/1.1\n\n" % target)

    @pytest.mark.parametrize("authority", [
        "h", "h:", "h:8080", "u:p@h:80", "u@[::1]:8080", "a-b.c_d~e"])
    def test_absolute_form_keeps_a_good_authority(self, authority):
        uri = parse_http_request("GET http://%s/a HTTP/1.1\n\n"
                                 % authority).uri
        assert (uri.authority, uri.path) == (authority, "/a")

    @pytest.mark.parametrize("host", [
        "h", "h:", "h:80", "[::1]:8080", "example.org:8080", "a-b.c_d~e"])
    def test_host_and_port_keep_the_target_components(self, host):
        uri = parse_http_request("GET /a?q=1 HTTP/1.1\nHost: %s\n\n"
                                 % host).uri
        assert (uri.authority, uri.path, uri.query) == (host, "/a", "q=1")

    # RFC 9112 section 3.2: more than one Host field line is rejected,
    # whatever the values, the casing of the names or the target's form.
    @pytest.mark.parametrize("target", ["/a", "http://h/a"])
    @pytest.mark.parametrize("fields", [
        "Host: h\nHost: h", "Host: h\nHost: other", "host: h\nHost: h",
        "Host: h\nX: v\nHOST: other"])
    def test_more_than_one_host_line_errors(self, fields, target):
        with pytest.raises(IngestError,
                           match="^more than one Host field line$"):
            parse_http_request("GET %s HTTP/1.1\n%s\n\n" % (target, fields))

    def test_transcript_names_the_message_with_two_host_lines(self):
        text = ("GET /a HTTP/1.1\nHost: h\n---\nHTTP/1.1 200 OK\n---\n"
                "GET /b HTTP/1.1\nHost: h\nhost: g\n")
        with pytest.raises(IngestError, match=re.escape(
                "transcript message 3 (line 6): more than one Host field "
                "line")):
            load_transcript(text)

    def test_malformed_request_line(self):
        with pytest.raises(IngestError):
            parse_http_request("GET /p\n\n")

    def test_body_framed_by_content_length(self):
        text = ("POST /p HTTP/1.1\nHost: h\nContent-Type: text/plain\n"
                "Content-Length: 5\n\nhelloTRAILING GARBAGE")
        r = parse_http_request(text)
        assert r.body.octets == b"hello"
        assert header_value(r.headers, "Content-Type") == "text/plain"

    def test_negative_content_length_rejected(self):
        # rest[:-5] would silently cut the body short
        text = ("POST /p HTTP/1.1\nHost: h\nContent-Type: text/plain\n"
                "Content-Length: -5\n\nhello world")
        with pytest.raises(IngestError, match="bad Content-Length: '-5'"):
            parse_http_request(text)

    def test_identical_content_lengths_count_as_one(self):
        text = ("POST /p HTTP/1.1\nHost: h\nContent-Length: 5\n"
                "Content-Length: 5\n\nhello world")
        assert parse_http_request(text).body.octets == b"hello"

    @pytest.mark.parametrize("lengths, message", [
        (("5", "2"), "differing Content-Length values: '5', '2'"),
        (("5", "5", "05"), "differing Content-Length values: '5', '05'"),
        (("-5", "-5"), "bad Content-Length: '-5'"),
        (("\u0663",), "bad Content-Length: '\u0663'"),
    ])
    def test_content_length_rules(self, lengths, message):
        text = ("POST /p HTTP/1.1\nHost: h\n%s\nhello world"
                % "".join("Content-Length: %s\n" % n for n in lengths))
        with pytest.raises(IngestError, match=re.escape(message)):
            parse_http_request(text)

    @pytest.mark.parametrize("length, octets", [
        ("10", b"hello worl"), ("99", b"hello world"),
        ("100", b"hello world"), ("9" * 5000, b"hello world"),
        ("0" * 5000 + "5", b"hello")],
        ids=["shorter", "two-digits", "three-digits", "5000-digits",
             "5000-zeros"])
    def test_content_length_of_any_number_of_digits(self, length, octets):
        # A length beyond what is left takes all of it, with no int() of
        # more digits than sys.get_int_max_str_digits() allows.
        text = ("POST /p HTTP/1.1\nHost: h\nContent-Length: %s\n\n"
                "hello world" % length)
        assert parse_http_request(text).body.octets == octets

    def test_head_ends_at_the_first_empty_line(self):
        # LF line ends in the head, CRLF ones in the body.
        r = parse_http_request("POST /p HTTP/1.1\nHost: h\n"
                               "Content-Length: 6\n\na\r\n\r\nb")
        assert r.body.octets == b"a\r\n\r\nb"
        assert [h.name for h in r.headers] == ["Host", "Content-Length"]

    @pytest.mark.parametrize("fields", [
        "Transfer-Encoding: gzip, chunked",
        "Transfer-Encoding: chunked\nTransfer-Encoding: gzip",
        # A Kelvin sign, which str.lower() maps to "k".
        "Transfer-Encoding: chun\u212aed"])
    def test_unknown_transfer_coding_rejected(self, fields):
        text = "POST /p HTTP/1.1\nHost: h\n%s\n\n0\r\n\r\n" % fields
        with pytest.raises(IngestError, match="transfer-coding '(gzip, "
                           "chunked|chunked, gzip|chun\u212aed)' is not "
                           "supported"):
            parse_http_request(text)


CHUNKED = ("POST /p HTTP/1.1\r\nHost: h\r\nContent-Type: text/plain\r\n"
           "Transfer-Encoding: chunked\r\n\r\n")


class TestChunkedBody:
    """RFC 9112 section 7.1."""

    @pytest.mark.parametrize("body", [
        "4\r\nWiki\r\n7\r\npedia i\r\nB\r\nn \r\nchunks.\r\n0\r\n\r\n",
        # Chunk extensions are ignored, with or without a value.
        "4;a=1\r\nWiki\r\n7 ; b\r\npedia i\r\nb;c=\"x;y\"\r\nn \r\nchunks."
        "\r\n000;end\r\n\r\n",
        # The trailer section is dropped.
        "4\r\nWiki\r\n12\r\npedia in \r\nchunks.\r\n0\r\nExpires: never\r\n"
        "X-Sum: 1\r\n\r\n",
        # A transcript may end lines with LF alone, and its last line with
        # nothing.
        "4\nWiki\n12\npedia in \r\nchunks.\n0",
        # Leading zeros do not count towards the 64-bit size limit.
        "0" * 3000 + "4\r\nWiki\r\n7\r\npedia i\r\nB\r\nn \r\nchunks.\r\n0"
        "\r\n\r\n",
    ], ids=["plain", "extensions", "trailers", "lf-lines", "leading-zeros"])
    def test_decoded(self, body):
        r = parse_http_request(CHUNKED + body)
        assert r.body.octets == b"Wikipedia in \r\nchunks."
        assert header_value(r.headers, "Content-Type") == "text/plain"

    def test_overrides_content_length(self):
        text = CHUNKED.replace("\r\n\r\n", "\r\nContent-Length: 2\r\n\r\n")
        r = parse_http_request(text + "5\r\nhello\r\n0\r\n\r\n")
        assert r.body.octets == b"hello"

    def test_empty(self):
        assert parse_http_response("HTTP/1.1 200 OK\nTransfer-Encoding: "
                                   "Chunked\n\n0\n\n").body is None

    @pytest.mark.parametrize("body, message", [
        ("4\r\nWiki\r\nzz\r\nab\r\n0\r\n\r\n",
         "bad chunk size: 'zz' (body line 3)"),
        ("-1\r\n\r\n", "bad chunk size: '-1' (body line 1)"),
        ("\r\n0\r\n\r\n", "bad chunk size: '' (body line 1)"),
        ("4\r\nWiki\r\n9\r\npedia\r\n",
         "truncated chunk: 7 of 9 bytes (body line 4)"),
        ("4\r\nWiki\r\n", "truncated chunked body: no last chunk "
         "(body line 3)"),
        ("", "truncated chunked body: no last chunk (body line 1)"),
        ("4\r\nWikipedia\r\n0\r\n\r\n",
         "chunk of 4 bytes not followed by a line end (body line 2)"),
        ("f" * 16 + "\r\nab\r\n",
         "truncated chunk: 4 of 18446744073709551615 bytes (body line 2)"),
        ("4\r\nWiki\r\n1" + "0" * 16 + "\r\nab\r\n",
         "chunk size of more than 64 bits (body line 3)"),
        ("f" * 3700 + "\r\nhello\r\n0\r\n\r\n",
         "chunk size of more than 64 bits (body line 1)"),
    ], ids=["bad-size", "negative-size", "empty-size", "truncated-chunk",
            "no-last-chunk", "no-chunk", "overlong-chunk", "size-64-bits",
            "size-65-bits", "size-3700-hex-digits"])
    def test_malformed(self, body, message):
        with pytest.raises(IngestError) as info:
            parse_http_request(CHUNKED + body)
        assert str(info.value) == message

    def test_error_names_the_message(self):
        text = "GET /a HTTP/1.1\nHost: h\n---\nHTTP/1.1 200 OK\n" \
               "Transfer-Encoding: chunked\n\n4\nab\n"
        with pytest.raises(IngestError) as info:
            load_transcript(text)
        assert str(info.value) == ("transcript message 2 (line 4): "
                                   "truncated chunk: 3 of 4 bytes "
                                   "(body line 2)")


class TestParseResponse:
    def test_basic(self):
        r = parse_http_response(RESP)
        assert r.status_code == 201
        assert header_value(r.headers, "location") == "/reg/x8344"

    def test_inverted_status_line(self):
        r = parse_http_response("201 Created HTTP/1.1\n\n")
        assert r.status_code == 201
        assert r.http_version == "HTTP/1.1"

    def test_reason_phrase_optional(self):
        assert parse_http_response("HTTP/1.1 204\n\n").status_code == 204

    def test_rdf_body_is_parsed(self):
        body = "@prefix ex: <http://example.org/> . ex:s ex:p ex:o .\n"
        text = ("HTTP/1.1 200 OK\nContent-Type: text/turtle\n"
                "Content-Length: %d\n\n%s" % (len(body), body))
        r = parse_http_response(text)
        assert r.body.rdf is not None and len(r.body.rdf) == 1

    def test_trig_body_flattens_its_graphs(self):
        # The default graph and every named graph make one body graph.
        body = ("<http://x/s> <http://x/p> 1 .\n"
                "<http://x/g> { <http://x/s> <http://x/q> 2 . }\n")
        r = parse_http_response("HTTP/1.1 200 OK\nContent-Type: "
                                "application/trig\n\n" + body)
        assert r.body.rdf == parse_trig("<http://x/s> <http://x/p> 1 . "
                                        "<http://x/s> <http://x/q> 2 ."
                                        ).default_graph

    def test_rdf_body_that_is_not_utf_8_errors(self):
        with pytest.raises(IngestError) as info:
            parse_http_response(b"HTTP/1.1 200 OK\r\nContent-Type: "
                                b"text/turtle\r\n\r\n\xff")
        assert str(info.value) == (
            "unparseable RDF body: not UTF-8: byte 0xff (body line 1, "
            "column 1)")

    def test_non_rdf_body_not_parsed(self):
        text = ('HTTP/1.1 200 OK\nContent-Type: application/json\n'
                'Content-Length: 2\n\n{}')
        r = parse_http_response(text)
        assert r.body.rdf is None and r.body.octets == b"{}"

    def test_bad_status_codes(self):
        for line in ("HTTP/1.1 20 OK", "HTTP/1.1 2000 OK", "HTTP/1.1 abc OK",
                     "HTTP/1.1 \xb201 OK", "\u0662\u0660\u0660 OK HTTP/1.1"):
            with pytest.raises(IngestError):
                parse_http_response(line + "\n\n")

    def test_rdf_media_types(self):
        assert "text/turtle" in RDF_MEDIA_TYPES
        assert "application/trig" in RDF_MEDIA_TYPES


class TestWireWhitespace:
    """RFC 9112: start-line words are separated by SP, HTAB, VT, FF or a
    bare CR only (section 3), and a field name is never trimmed: a request
    with whitespace before the colon is rejected, a response loses the SP
    and HTAB there (section 5.1)."""

    @pytest.mark.parametrize("sep", [" ", "\t", "\x0b", "\x0c", "\r", " \t "])
    def test_request_line_separators(self, sep):
        r = parse_http_request("GET%s/a%sHTTP/1.1\nHost: h\n\n" % (sep, sep))
        assert (r.method, recompose(r.uri), r.http_version) == \
            (Method("GET"), "http://h/a", "HTTP/1.1")

    @pytest.mark.parametrize("sep", ["\xa0", "\x1c", "\x85", "\u2003",
                                     "\u3000"])
    def test_other_whitespace_is_not_a_separator(self, sep):
        with pytest.raises(IngestError, match="malformed request line"):
            parse_http_request("GET /a%sHTTP/1.1\nHost: h\n\n" % sep)
        # The version word runs on into the status code.
        with pytest.raises(IngestError) as e:
            parse_http_response("HTTP/1.1%s200 OK\n\n" % sep)
        assert str(e.value) == "bad HTTP version: %r" % ("HTTP/1.1%s200" % sep)

    def test_status_line_separators(self):
        r = parse_http_response("HTTP/1.1\t204\x0cNo Content\n\n")
        assert (r.http_version, r.status_code) == ("HTTP/1.1", 204)

    @pytest.mark.parametrize("name", ["X ", "X\t", "X \t "])
    def test_request_rejects_whitespace_before_the_colon(self, name):
        with pytest.raises(IngestError) as e:
            parse_http_request("GET /a HTTP/1.1\nHost: h\n%s: v\n\n" % name)
        assert str(e.value) == ("whitespace before the colon in header "
                                "line: %r" % (name + ": v"))

    @pytest.mark.parametrize("name", ["X ", "X\t", "X \t "])
    def test_response_drops_sp_and_htab_before_the_colon(self, name):
        r = parse_http_response("HTTP/1.1 200 OK\n%s: v\n\n" % name)
        assert r.headers == (Header("X", "v"),)

    @pytest.mark.parametrize("line, name", [
        ("X\xa0: v", "X\xa0"), ("X\x0b: v", "X\x0b"), (" X: v", " X"),
        ("\tX: v", "\tX")])
    def test_field_names_are_not_stripped(self, line, name):
        message = "header name must be a non-empty token: %r" % name
        with pytest.raises(IngestError) as e:
            parse_http_request("GET /a HTTP/1.1\nHost: h\n%s\n\n" % line)
        assert str(e.value) == message
        with pytest.raises(IngestError) as e:
            parse_http_response("HTTP/1.1 200 OK\n%s\n\n" % line)
        assert str(e.value) == message

    # RFC 9110 section 5.5: a field value holds no CR, LF or NUL once OWS
    # is stripped. LF cannot occur, as the head is split into lines on it,
    # and a CR that ends a line is part of the line end.
    @pytest.mark.parametrize("value, shown", [
        ("a\x00b", "'a\\x00b'"), ("a\rb", "'a\\rb'"),
        (" \x00 ", "'\\x00'"), ("a\r \r", "'a\\r'")],
        ids=["nul", "cr", "nul-alone", "cr-before-the-line-end"])
    def test_cr_or_nul_in_a_field_value_errors(self, value, shown):
        message = "CR, LF or NUL in header value: " + shown
        for parse, head in [(parse_http_request, "GET /a HTTP/1.1\nHost: h\n"),
                            (parse_http_response, "HTTP/1.1 200 OK\n")]:
            with pytest.raises(IngestError) as e:
                parse(head + "X: %s\r\n\r\n" % value)
            assert str(e.value) == message

    def test_cr_and_nul_outside_field_values_are_not_this_error(self):
        # A bare CR separates start-line words, and a CR that ends a field
        # line is its line end.
        r = parse_http_response("HTTP/1.1\r200 OK\r\nX: a \r\n\r\n\x00")
        assert (r.status_code, r.headers) == (200, (Header("X", "a"),))
        assert r.body.octets == b"\x00"

    # RFC 9112 section 2.3: HTTP-version = "HTTP/" DIGIT "." DIGIT.
    @pytest.mark.parametrize("version", ["HTTP/x.y!", "HTTP/1.10", "HTTP/11",
                                         "HTTP/1.", "HTTP/2", "HTTP/\u0661.1"])
    def test_version_must_be_digit_dot_digit(self, version):
        message = "bad HTTP version: %r" % version
        for parse, text in [
                (parse_http_request, "GET /a %s\nHost: h\n\n"),
                (parse_http_response, "%s 200 OK\n\n"),
                (parse_http_response, "200 OK %s\n\n")]:
            with pytest.raises(IngestError) as e:
                parse(text % version)
            assert str(e.value) == message

    @pytest.mark.parametrize("version", ["HTTP/1.0", "HTTP/1.1", "HTTP/2.0",
                                         "HTTP/9.9"])
    def test_digit_dot_digit_versions_parse(self, version):
        assert parse_http_request("GET /a %s\nHost: h\n\n"
                                  % version).http_version == version
        assert parse_http_response("%s 200 OK\n\n"
                                   % version).http_version == version

    def test_transcript_response_block_by_the_same_rule(self):
        # "\xa0HTTP/1.1" is one word, so the block is read as a request.
        text = "GET /a HTTP/1.1\nHost: h\n---\n\xa0HTTP/1.1 200 OK\n"
        with pytest.raises(IngestError) as e:
            load_transcript(text)
        assert str(e.value) == ("transcript message 2 (line 4): malformed "
                                "request line: '\\xa0HTTP/1.1 200 OK'")
        text = "GET /a HTTP/1.1\nHost: h\n---\n\tHTTP/1.1\t200 OK\n"
        [i] = load_transcript(text).interactions
        assert i.responses[-1].status_code == 200


def render(start_line, message) -> bytes:
    """A parsed message back in wire form: CRLF line ends, then the body."""
    head = "".join("%s\r\n" % line for line in [start_line] + [
        "%s: %s" % (h.name, h.value) for h in message.headers])
    body = message.body.octets if message.body else b""
    return (head + "\r\n").encode("iso-8859-1") + body


class TestRender:
    def test_request_round_trip(self):
        r = parse_http_request(REQ)
        assert parse_http_request(render("POST /reg?count=5 HTTP/1.1",
                                         r)) == r

    def test_response_round_trip(self):
        body = "@prefix ex: <http://example.org/> . ex:s ex:p ex:o .\n"
        text = ("HTTP/1.1 200 OK\nContent-Type: text/turtle\n"
                "Content-Length: %d\n\n%s" % (len(body), body))
        r = parse_http_response(text)
        assert parse_http_response(render("HTTP/1.1 200", r)) == r


with open(__file__.rsplit("/", 1)[0] + "/fixtures/registration.http",
          encoding="utf-8") as fh:
    SAMPLE_TRANSCRIPT = fh.read()


class TestCharset:
    # One exchange with non-ASCII text in its request target and headers,
    # among it Unicode spaces that are not OWS.
    TRANSCRIPT = ("GET /caf%C3%A9/\xe9?q=\xe9 HTTP/1.1\nHost: h\n"
                  "X-Name: caf\xe9\xa0\n\n---\nHTTP/1.1 200 OK\n"
                  "X-Name: \u2003na\xefve\n\n")
    HAR = json.dumps({"log": {"entries": [{
        "request": {"method": "GET", "url": "http://h/caf%C3%A9/\xe9?q=\xe9",
                    "httpVersion": "HTTP/1.1",
                    "headers": [{"name": "Host", "value": "h"},
                                {"name": "X-Name",
                                 "value": "caf\xe9\xa0"}]},
        "response": {"status": 200, "httpVersion": "HTTP/1.1",
                     "headers": [{"name": "X-Name",
                                  "value": "\u2003na\xefve"}]}}]}})

    def test_transcript_and_har_lift_alike(self):
        transcript = lift_conversation(load_transcript(self.TRANSCRIPT))
        har = lift_conversation(load_har(self.HAR))
        assert isomorphic_datasets(transcript, har)
        lexicals = {t.object.lexical for t in transcript.default_graph
                    if isinstance(t.object, Literal)}
        assert {"caf\xe9\xa0", "\u2003na\xefve", "/caf%C3%A9/\xe9", "q=\xe9",
                "\xe9"} <= lexicals

    def test_wire_bytes_are_iso_8859_1(self):
        r = parse_http_request(b"GET /caf\xe9 HTTP/1.1\r\nHost: h\r\n"
                               b"X-Name: caf\xe9\r\n\r\n")
        assert r.uri.path == "/caf\xe9"
        assert header_value(r.headers, "X-Name") == "caf\xe9"


class TestTranscript:
    def test_fixture_pairs_up(self):
        c = load_transcript(SAMPLE_TRANSCRIPT)
        assert len(c.interactions) == 2
        assert c.interactions[0].request.method == Method("POST")
        assert c.interactions[0].responses[-1].status_code == 201
        assert c.interactions[1].responses[-1].status_code == 200

    def test_interim_responses_attach_to_same_interaction(self):
        text = ("GET /p HTTP/1.1\nHost: h\n"
                "---\n"
                "HTTP/1.1 100 Continue\n"
                "---\n"
                "HTTP/1.1 200 OK\n")
        c = load_transcript(text)
        (i,) = c.interactions
        assert [r.status_code for r in i.responses] == [100, 200]

    def test_response_before_request_errors(self):
        with pytest.raises(IngestError, match=r"^transcript message 1 "
                           r"\(line 1\): response before any request$"):
            load_transcript("HTTP/1.1 200 OK\n")

    # A response after a final one breaks the rule that every response
    # but the last is 1xx, and gets the model's message for it.
    @pytest.mark.parametrize("second, final", [("200 OK", 200),
                                               ("100 Continue", 200),
                                               ("204 No Content", 201)])
    def test_response_after_a_final_one_errors(self, second, final):
        text = ("GET /a HTTP/1.1\nHost: h\n---\nHTTP/1.1 %d Done\n---\n"
                "HTTP/1.1 %s\n" % (final, second))
        with pytest.raises(IngestError) as info:
            load_transcript(text)
        assert str(info.value) == (
            "transcript message 3 (line 6): interim response must have a "
            "1xx status, got %d" % final)

    def test_interim_checks_grow_linearly_with_the_responses(
            self, monkeypatch):
        # Each response is checked against the one before it, not against
        # every earlier one: at most 3 is_interim calls per response.
        import httplift.model
        original = httplift.model.is_interim
        calls = 0

        def counted(response):
            nonlocal calls
            calls += 1
            return original(response)

        monkeypatch.setattr(httplift.model, "is_interim", counted)
        n = 2000
        conversation = load_transcript("GET /a HTTP/1.1\nHost: h\n"
                                       + "---\nHTTP/1.1 100 Continue\n" * n)
        assert len(conversation.interactions[0].responses) == n
        assert calls <= 3 * n

    def test_status_line_without_a_version_errors(self):
        # "200" makes the block a response, but no word is HTTP/x.y.
        with pytest.raises(IngestError) as info:
            load_transcript("GET /a HTTP/1.1\nHost: h\n---\n200 OK\n")
        assert str(info.value) == ("transcript message 2 (line 4): "
                                   "malformed status line: '200 OK'")

    def test_errors_name_the_message_and_its_line(self):
        text = ("GET /a HTTP/1.1\nHost: h\n"
                "---\n"
                "HTTP/1.1 200 OK\n"
                "---\n"
                "   \n"
                "---\n"
                "POST /b HTTP/1.1\nHost: h\nContent-Length: x\n\nhi\n")
        # The whitespace-only block is no message: POST is message 3, and
        # it starts on line 8.
        with pytest.raises(IngestError) as info:
            load_transcript(text)
        assert str(info.value) == ("transcript message 3 (line 8): "
                                   "bad Content-Length: 'x'")

    def test_blank_lines_after_a_separator_are_skipped(self):
        text = ("GET /a HTTP/1.1\nHost: h\n"
                "---\n"
                "\n"
                "HTTP/1.1 200 OK\n"
                "---\n"
                "\n"
                "  \n"
                "POST /b HTTP/1.1\nHost: h\nContent-Length: 2\n\nhi\n")
        c = load_transcript(text)
        assert [[r.status_code for r in i.responses]
                for i in c.interactions] == [[200], []]
        assert c.interactions[1].request.body.octets == b"hi"
        # Message 3 is counted from its request line, not the blank lines.
        with pytest.raises(IngestError) as info:
            load_transcript(text.replace("Length: 2", "Length: x"))
        assert str(info.value) == ("transcript message 3 (line 9): "
                                   "bad Content-Length: 'x'")

    # A separator is "---" with at most ASCII SP, HTAB and CR around it,
    # and a blank line holds nothing else.
    def test_separator_and_blank_lines_allow_only_ascii_whitespace(self):
        text = "GET /a HTTP/1.1\nHost: h\n \t---\r\n\t\r\nHTTP/1.1 200 OK\n"
        [i] = load_transcript(text).interactions
        assert i.responses[-1].status_code == 200

    def test_no_break_space_separator_splits_nothing(self):
        text = "GET /a HTTP/1.1\nHost: h\n\xa0---\xa0\nHTTP/1.1 200 OK\n"
        with pytest.raises(IngestError) as e:
            load_transcript(text)
        assert str(e.value) == ("transcript message 1 (line 1): malformed "
                                "header line: '\\xa0---\\xa0'")

    def test_no_break_space_line_is_not_blank(self):
        text = "GET /a HTTP/1.1\nHost: h\n---\n\xa0\nHTTP/1.1 200 OK\n"
        with pytest.raises(IngestError) as e:
            load_transcript(text)
        assert str(e.value) == ("transcript message 2 (line 4): malformed "
                                "request line: '\\xa0'")

    def test_dangling_request_allowed(self):
        c = load_transcript("GET /p HTTP/1.1\nHost: h\n")
        (i,) = c.interactions
        assert i.responses == ()

    def test_consecutive_requests(self):
        text = ("GET /a HTTP/1.1\nHost: h\n"
                "---\n"
                "GET /b HTTP/1.1\nHost: h\n"
                "---\n"
                "HTTP/1.1 200 OK\n")
        c = load_transcript(text)
        assert len(c.interactions) == 2
        assert c.interactions[0].responses == ()
        assert c.interactions[1].responses[-1].status_code == 200

    # Requests, 1xx responses and final responses in any order, against a
    # written-out pairing: a request opens a group, and a response joins
    # the open group. With no group, or after a final response, the
    # transcript is an error.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.builds("GET /p{} HTTP/1.1\nHost: h{}\n".format,
                  st.integers(0, 99), st.integers(0, 9)),
        st.builds("HTTP/1.1 {} Info\n".format, st.integers(100, 199)),
        st.builds("HTTP/1.1 {:03d} Done\nX: {}\n".format,
                  st.integers(0, 99) | st.integers(200, 999),
                  st.integers(0, 9))), max_size=12))
    def test_pairing_follows_the_status_classes(self, blocks):
        text = "---\n".join(blocks)
        groups, error = [], None
        line = 1
        for n, block in enumerate(blocks, 1):
            if block.startswith("GET"):
                groups.append((parse_http_request(block), ()))
            elif not groups:
                error = ("transcript message %d (line %d): response before "
                         "any request" % (n, line))
                break
            elif groups[-1][1] and not (
                    100 <= groups[-1][1][-1].status_code <= 199):
                error = ("transcript message %d (line %d): interim response "
                         "must have a 1xx status, got %d"
                         % (n, line, groups[-1][1][-1].status_code))
                break
            else:
                request, responses = groups[-1]
                groups[-1] = (request,
                              responses + (parse_http_response(block),))
            line += block.count("\n") + 1
        if error is not None:
            with pytest.raises(IngestError) as info:
                load_transcript(text)
            assert str(info.value) == error
        else:
            assert [(i.request, i.responses)
                    for i in load_transcript(text).interactions] == groups


with open(__file__.rsplit("/", 1)[0] + "/fixtures/registration.har",
          encoding="utf-8") as fh:
    SAMPLE_HAR = fh.read()


def _one_entry_har(status: str) -> str:
    """A HAR document of one GET entry whose response status is the JSON
    text `status`."""
    return ('{"log": {"entries": [{"request": {"method": "GET", "url": '
            '"http://h/"}, "response": {"status": %s}}]}}' % status)


# The interpreter's own int() digit limit, and 640, the lowest it accepts
# (Python 3.11, 3.10.7 and later).
_INT_DIGIT_LIMITS = [None] + (
    [640] if hasattr(sys, "set_int_max_str_digits") else [])


@contextlib.contextmanager
def _int_digit_limit(limit):
    """Run the block with int()'s digit limit at `limit`, None leaving it."""
    if limit is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestHar:
    def test_fixture_loads(self):
        c = load_har(SAMPLE_HAR)
        assert len(c.interactions) == 2
        assert header_value(c.interactions[1].responses[-1].headers,
                            "content-type") == "text/turtle"

    def test_entries_sorted_by_start_time(self):
        doc = json.loads(SAMPLE_HAR)
        doc["log"]["entries"].reverse()
        c = load_har(json.dumps(doc))
        assert c.interactions[0].request.method == Method("POST")

    # sorted() is stable: entries that start at the same time keep the
    # order of the file.
    def test_entries_that_start_together_keep_file_order(self):
        def entry(path, started):
            return {"startedDateTime": started,
                    "request": {"method": "GET", "url": "http://h" + path},
                    "response": {"status": 200}}
        doc = {"log": {"entries": [
            entry("/c", "2024-03-01T10:00:01Z"),
            entry("/b", "2024-03-01T10:00:01Z"),
            entry("/a", "2024-03-01T10:00:00Z"),
            entry("/d", "2024-03-01T10:00:01Z")]}}
        c = load_har(json.dumps(doc))
        assert [i.request.uri.path for i in c.interactions] == [
            "/a", "/c", "/b", "/d"]

    def test_base64_content(self):
        doc = json.loads(SAMPLE_HAR)
        content = doc["log"]["entries"][1]["response"]["content"]
        content["text"] = base64.b64encode(
            content["text"].encode()).decode("ascii")
        content["encoding"] = "base64"
        c = load_har(json.dumps(doc))
        assert c.interactions[1].responses[-1].body.rdf is not None

    def test_base64_content_is_strict(self):
        doc = json.loads(SAMPLE_HAR)
        content = doc["log"]["entries"][1]["response"]["content"]
        encoded = base64.b64encode(content["text"].encode()).decode("ascii")
        content["encoding"] = "base64"
        # Line-wrapped base64 decodes to the same body.
        content["text"] = "\r\n".join(encoded[i:i + 16]
                                      for i in range(0, len(encoded), 16))
        body = load_har(json.dumps(doc)).interactions[1].responses[-1].body
        assert body.octets == base64.b64decode(encoded)
        # Characters outside the alphabet are an error, not dropped.
        for bad in ("!!", "\u00a0", "-"):
            content["text"] = encoded[:8] + bad + encoded[8:]
            with pytest.raises(IngestError, match=r"^HAR entry 2: "):
                load_har(json.dumps(doc))

    def test_mime_type_becomes_content_type_header(self):
        c = load_har(SAMPLE_HAR)
        resp = c.interactions[1].responses[-1]
        assert header_value(resp.headers, "content-type") == "text/turtle"

    def test_explicit_header_wins_over_mime_type(self):
        doc = json.loads(SAMPLE_HAR)
        entry = doc["log"]["entries"][1]["response"]
        entry["headers"] = [{"name": "Content-Type", "value": "text/x-turtle"}]
        c = load_har(json.dumps(doc))
        resp = c.interactions[1].responses[-1]
        assert header_value(resp.headers, "content-type") == "text/x-turtle"

    def test_http_version_is_free_form(self):
        # Browsers write "h2" or "http/2.0", which no start line allows.
        doc = json.loads(SAMPLE_HAR)
        doc["log"]["entries"][0]["request"]["httpVersion"] = "h2"
        doc["log"]["entries"][0]["response"]["httpVersion"] = "http/2.0"
        i = next(i for i in load_har(json.dumps(doc)).interactions
                 if i.request.http_version == "h2")
        assert i.responses[-1].http_version == "http/2.0"

    def test_not_json_errors(self):
        with pytest.raises(IngestError):
            load_har("not json at all")

    def test_entry_that_is_not_an_object_errors(self):
        with pytest.raises(IngestError, match=r"^not a HAR document: "
                           r"'entries' is not a list of objects$"):
            load_har('{"log": {"entries": [1]}}')

    def test_lone_interim_entry_has_no_final_response(self):
        (i,) = load_har(_one_entry_har("101")).interactions
        assert [r.status_code for r in i.responses] == [101]

    def test_missing_log_errors(self):
        with pytest.raises(IngestError):
            load_har("{}")

    def test_missing_fields_error(self):
        with pytest.raises(IngestError):
            load_har(json.dumps(
                {"log": {"entries": [{"request": {}, "response": {}}]}}))

    def test_status_that_overflows_errors(self):
        # 1e999 reads as float infinity, which no int can hold.
        text = ('{"log": {"entries": [{"request": {"method": "GET", "url": '
                '"http://h/"}, "response": {"status": 1e999}}]}}')
        with pytest.raises(IngestError, match=r"^HAR entry 1: cannot "
                           r"convert float infinity to integer$"):
            load_har(text)

    def test_nesting_too_deep_for_json_errors(self):
        text = '{"log": {"entries": %s%s}}' % ("[" * 1200, "]" * 1200)
        with pytest.raises(IngestError, match=r"^not a HAR document: "):
            load_har(text)

    # The transcript loader's rule for an absolute-form target, RFC 9110
    # section 4.2.1.
    @pytest.mark.parametrize("url", [
        "http://:80/a", "http:///a", "http://u@:80/a", "HTTPS://:/a"])
    def test_url_with_an_empty_host_errors(self, url):
        doc = json.loads(SAMPLE_HAR)
        doc["log"]["entries"][0]["request"]["url"] = url
        with pytest.raises(IngestError, match="^%s$" % re.escape(
                "HAR entry 1: empty host in request target: %r" % url)):
            load_har(json.dumps(doc))

    @pytest.mark.parametrize("url", [
        "http://h:8x/a", "http://u@h:8x/a", "http://h h/a", "http://[::1/a"])
    def test_url_with_a_bad_host_errors(self, url):
        doc = json.loads(SAMPLE_HAR)
        doc["log"]["entries"][0]["request"]["url"] = url
        with pytest.raises(IngestError, match="^%s$" % re.escape(
                "HAR entry 1: bad host in request target: %r" % url)):
            load_har(json.dumps(doc))

    # Every string, object and array of an entry is checked where it is
    # read: a value of another JSON type, or a lone surrogate, is named.
    @pytest.mark.parametrize("n, mutate, message", [
        (1, lambda e: e["request"].update(method=5), "not a string: number"),
        (1, lambda e: e["request"]["headers"][0].update(name=5),
         "not a string: number"),
        (1, lambda e: e["request"].update(postData={
            "mimeType": "text/plain", "text": 5}), "not a string: number"),
        (2, lambda e: e["response"]["content"].update(text=5),
         "not a string: number"),
        (2, lambda e: e["response"]["content"].update(
            text=5, encoding="base64"), "not a string: number"),
        (2, lambda e: e["response"]["content"].update(text=[1]),
         "not a string: array"),
        (2, lambda e: e["response"]["content"].update(text="\ud800"),
         "lone surrogate at offset 0"),
        (1, lambda e: e.update(request=[1]), "not an object: array"),
        (2, lambda e: e.update(response=[1]), "not an object: array"),
        (1, lambda e: e["request"].update(headers=[1]),
         "not an object: number"),
        (1, lambda e: e["request"].update(headers={"a": 1}),
         "not an array: object"),
        (1, lambda e: e["request"].update(postData="x"),
         "not an object: string"),
        (2, lambda e: e["response"].update(content=[1]),
         "not an object: array"),
        # Every JSON integer is kept as text: 0 is a number like 5.
        (1, lambda e: e["request"].update(postData={
            "mimeType": "text/plain", "text": 0}), "not a string: number"),
        (2, lambda e: e["response"].update(content=0),
         "not an object: number"),
        (1, lambda e: e["request"].update(headers=0),
         "not an array: number"),
    ], ids=["method", "header-name", "post-data-text", "content-text",
            "content-text-base64", "content-text-array",
            "content-text-surrogate", "request-array", "response-array",
            "header-number", "headers-object", "post-data-string",
            "content-array", "post-data-text-zero", "content-zero",
            "headers-zero"])
    def test_value_that_is_not_a_string_errors(self, n, mutate, message):
        doc = json.loads(SAMPLE_HAR)
        mutate(doc["log"]["entries"][n - 1])
        with pytest.raises(IngestError, match="^%s$" % re.escape(
                "HAR entry %d: %s" % (n, message))):
            load_har(json.dumps(doc))

    # Null, empty strings and empty objects and arrays are read as empty.
    @pytest.mark.parametrize("empty", [None, {}, [], ""])
    def test_null_or_empty_values_are_empty(self, empty):
        doc = json.loads(SAMPLE_HAR)
        request = doc["log"]["entries"][0]["request"]
        response = doc["log"]["entries"][1]["response"]
        request.update(headers=empty, postData=empty)
        response.update(headers=empty, content=empty)
        doc["log"]["entries"][1]["request"].update(postData={
            "mimeType": "text/plain", "text": empty})
        c = load_har(json.dumps(doc))
        assert c.interactions[0].request.headers == ()
        assert c.interactions[0].request.body is None
        assert c.interactions[1].request.body is None
        assert c.interactions[1].responses[-1].body is None

    # A status is a JSON integer or a string of ASCII digits; browsers
    # write 0 for an aborted request.
    @pytest.mark.parametrize("status, code", [
        (200, 200), ("200", 200), (0, 0), ("0", 0), ("0200", 200)])
    def test_integer_status_loads(self, status, code):
        doc = json.loads(SAMPLE_HAR)
        doc["log"]["entries"][0]["response"]["status"] = status
        i = load_har(json.dumps(doc)).interactions[0]
        assert i.responses[-1].status_code == code

    @pytest.mark.parametrize("status, message", [
        (True, "boolean"), (False, "boolean"), (200.7, "200.7"),
        (200.0, "200.0"), (-0.5, "-0.5"), ("2_00", "'2_00'"),
        (" 200", "' 200'"), ("-5", "'-5'"), ("", "''"),
        ("\u0662\u0660\u0660", "'\u0662\u0660\u0660'"), (None, "null"),
        ([200], "array")])
    def test_status_that_is_not_an_integer_errors(self, status, message):
        doc = json.loads(SAMPLE_HAR)
        doc["log"]["entries"][0]["response"]["status"] = status
        with pytest.raises(IngestError, match="^%s$" % re.escape(
                "HAR entry 1: status is not an integer: %s" % message)):
            load_har(json.dumps(doc))

    def test_number_too_long_for_int_errors(self):
        # Python 3.11 (and 3.10.7) limit int() to 4300 digits by default;
        # without a limit the status is out of range.
        text = ('{"log": {"entries": [{"request": {"method": "GET", "url": '
                '"http://h/"}, "response": {"status": %s}}]}}' % ("1" * 5000))
        with pytest.raises(IngestError, match=r"^(not a HAR document: "
                           r"Exceeds the limit|HAR entry 1: status code)"):
            load_har(text)

    # A status of more than three digits after its leading zeros is an
    # error before int() is called: int() refuses more than 640 digits at
    # the lowest limit an interpreter may set, and json.loads calls it on
    # every JSON integer. The message is the same at any limit.
    @pytest.mark.parametrize("status, shown", [
        ('"%s"' % ("2" * 700), "2" * 20 + "..."),
        ('"%s"' % ("2" * 5000), "2" * 20 + "..."),
        ("2" * 700, "2" * 20 + "..."),
        ("2" * 5000, "2" * 20 + "..."),
        ("-" + "2" * 5000, "-" + "2" * 19 + "..."),
        ('"%s1000"' % ("0" * 4400), "1000"),
        ("1000", "1000"), ('"1000"', "1000"), ("-1000", "-1000")],
        ids=["string-700-digits", "string-5000-digits", "number-700-digits",
             "number-5000-digits", "negative-number-5000-digits",
             "string-1000-after-4400-zeros", "number-1000", "string-1000",
             "negative-number-1000"])
    def test_status_of_more_than_three_digits_errors(self, status, shown):
        text = _one_entry_har(status)
        for limit in _INT_DIGIT_LIMITS:
            with _int_digit_limit(limit), pytest.raises(
                    IngestError, match="^%s$" % re.escape(
                        "HAR entry 1: status code must have at most 3 "
                        "digits: %s" % shown)):
                load_har(text)

    @pytest.mark.parametrize("zeros", [700, 4400])
    def test_status_after_leading_zeros_loads(self, zeros):
        text = _one_entry_har('"%s200"' % ("0" * zeros))
        for limit in _INT_DIGIT_LIMITS:
            with _int_digit_limit(limit):
                i = load_har(text).interactions[0]
            assert i.responses[-1].status_code == 200

    def test_long_number_where_no_number_is_read(self):
        # A 5000-digit number in a field the loader skips is no error, and
        # in a string field it is a number like any other.
        skipped = _one_entry_har("200, \"bodySize\": %s" % ("9" * 5000))
        method = _one_entry_har("200").replace('"GET"', "9" * 5000)
        for limit in _INT_DIGIT_LIMITS:
            with _int_digit_limit(limit):
                i = load_har(skipped).interactions[0]
                assert i.responses[-1].status_code == 200
                with pytest.raises(IngestError, match="^HAR entry 1: not a "
                                   "string: number$"):
                    load_har(method)


# Mutation fuzzing: any text gives a Conversation or an IngestError, and
# whatever loads survives lift -> serialize_trig -> parse_trig.

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


# Lone surrogates, raw and as JSON escapes; the byte 0xff as a
# surrogate-escaped, a Latin-1 and a JSON-escaped character; pieces of
# HTTP, Turtle and JSON syntax; and non-ASCII letters and digits.
_INSERTS = ["\ud800", "\\ud800", "\\udfff", "\udcff", "\xff", "\\u00ff",
            "\r\n", "\n", "\n---\n", ":", " ", "\"", "\\", "{", "}", "[",
            ",", "0", "-1", "../", "#", "<", ">", "@prefix", "HTTP/1.1 ",
            "Content-Length: 3\n", "Content-Type: text/turtle\n",
            "Location: ../x\n", "Transfer-Encoding: chunked\n", "\xe9",
            "\xb2", "\u0663"]


@st.composite
def _mutated(draw, names, spans=r'\A([\s\S]*)'):
    """A fixture with one to four edits: an insert, a delete or a
    replacement, each at a random place inside group 1 of a random match
    of `spans` (by default, anywhere)."""
    text = draw(st.sampled_from([_fixture(n) for n in names]))
    rnd = draw(st.randoms(use_true_random=False))
    for _ in range(rnd.randint(1, 4)):
        span = rnd.choice(list(re.finditer(spans, text)))
        i = rnd.randint(span.start(1), span.end(1))
        op = rnd.choice(["insert", "insert", "delete", "replace"])
        cut = i + rnd.randint(1, 8) if op != "insert" else i
        new = "" if op == "delete" else rnd.choice(_INSERTS)
        text = text[:i] + new + text[cut:]
    return text


def _loads_and_round_trips(load, text):
    try:
        conversation = load(text)
    except IngestError:
        return
    lifted = lift_conversation(conversation)
    # Written as UTF-8, as the CLI does, which fails on a lone surrogate.
    trig = serialize_trig(lifted, PREFIXES).encode("utf-8")
    assert isomorphic_datasets(parse_trig(trig.decode("utf-8")), lifted)


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(_mutated(["registration.http", "findings.http",
                 "registration_json.http"]))
def test_mutated_transcripts_load_or_raise_ingest_error(text):
    _loads_and_round_trips(load_transcript, text)


@_FUZZ
@given(_mutated(["registration.har"], spans=r'"([^"\\\n]*)"'))
def test_mutated_har_loads_or_raises_ingest_error(text):
    _loads_and_round_trips(load_har, text)


# Any TriG text gives a ParseError on one of its lines (the empty one after
# a final newline included), or a dataset that validates and survives
# serialize_trig -> parse_trig.
@_FUZZ
@given(_mutated(["registration_golden.trig"]))
def test_mutated_trig_parses_or_raises_parse_error(text):
    try:
        dataset = parse_trig(text)
    except ParseError as e:
        assert 1 <= e.line <= text.count("\n") + 1 and e.col >= 1
        return
    validate(dataset)
    trig = serialize_trig(dataset, PREFIXES)
    assert isomorphic_datasets(parse_trig(trig), dataset)
