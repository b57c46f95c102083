"""Parse concrete HTTP/1.1 traffic into conversations, from raw message
bytes, plain-text transcripts or HAR 1.2 archives."""

from __future__ import annotations

import base64
import re
import reprlib
from itertools import chain
from typing import List, Optional, Tuple, Union

from . import turtle
from .model import (
    Body, Conversation, Header, IngestError, Interaction, Method, Request,
    Response, header_value,
)
from .rdf import Graph
from .uri import effective_request_uri, parse_uri, require_host

# Media types whose bodies are parsed into RDF graphs.
RDF_MEDIA_TYPES = ("text/turtle", "application/trig")


# The empty line that ends the header section, after the line end of the
# last field line. Either line end may be LF alone (RFC 9112 section 2.2).
_HEAD_END = re.compile(rb"\r?\n\r?\n")


def _utf8(text: str) -> bytes:
    """`text` as UTF-8, which cannot encode a lone surrogate."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise IngestError("lone surrogate at offset %d" % e.start)


def _split_head_body(raw: Union[bytes, str]) -> Tuple[str, List[str], bytes]:
    """The start line and the field lines as text, and the rest as bytes.
    Wire bytes are read as ISO-8859-1 (RFC 9110 section 5.5); a str keeps
    its text, and its body is encoded as UTF-8."""
    data, charset = ((_utf8(raw), "utf-8") if isinstance(raw, str)
                     else (raw, "iso-8859-1"))
    head, *rest = _HEAD_END.split(data, 1)
    start, *fields = head.decode(charset).split("\n")
    return start, fields, rest[0] if rest else b""


# RFC 9112 section 3: the words of a start line are separated by SP, HTAB,
# VT, FF or a bare CR, and no other character.
_START_LINE_WORD = re.compile(r"[^ \t\x0b\x0c\r]+")
# RFC 9112 section 2.3: HTTP-version = HTTP-name "/" DIGIT "." DIGIT.
_HTTP_VERSION = re.compile(r"HTTP/[0-9]\.[0-9]")


def _check_version(version: str) -> None:
    if not _HTTP_VERSION.fullmatch(version):
        raise IngestError("bad HTTP version: %s" % reprlib.repr(version))


def _parse_headers(lines: List[str], request: bool) -> List[Header]:
    headers = []
    for line in lines:
        line = line.rstrip("\r")
        if not line:
            continue
        if ":" not in line:
            raise IngestError("malformed header line: " + reprlib.repr(line))
        name, value = line.split(":", 1)
        if name.endswith((" ", "\t")):
            # RFC 9112 section 5.1: a server rejects whitespace between a
            # field name and the colon; a proxy removes it from a response.
            if request:
                raise IngestError("whitespace before the colon in header "
                                  "line: %s" % reprlib.repr(line))
            name = name.rstrip(" \t")
        # RFC 9110 section 5.5: OWS is SP or HTAB; no CR, LF or NUL inside.
        value = value.strip(" \t")
        headers.append(Header(name, value))
        if "\r" in value or "\0" in value:
            raise IngestError("CR, LF or NUL in header value: "
                              + reprlib.repr(value))
    return headers


# A chunk-size line (RFC 9112 section 7.1): hex digits and extensions,
# which are ignored. Transcripts may end lines with LF alone, and the last
# line of a message with nothing.
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?(?:\r?\n|\Z)")
_LINE_END = re.compile(rb"\r?\n")


def _dechunk(data: bytes) -> bytes:
    """The content of a chunked body; the trailer section is dropped."""
    def error(message: str, pos: int) -> IngestError:
        return IngestError("%s (body line %d)"
                           % (message, data.count(b"\n", 0, pos) + 1))

    chunks, pos = [], 0
    while True:
        m = _CHUNK_SIZE.match(data, pos)
        if m is None:
            if pos == len(data):
                raise error("truncated chunked body: no last chunk", pos)
            line = data[pos:].split(b"\n", 1)[0].rstrip(b"\r")
            raise error("bad chunk size: %s"
                        % reprlib.repr(line.decode("iso-8859-1")), pos)
        if len(m.group(1).lstrip(b"0")) > 16:
            raise error("chunk size of more than 64 bits", pos)
        size, pos = int(m.group(1), 16), m.end()
        if not size:
            return b"".join(chunks)
        chunk = data[pos:pos + size]
        if len(chunk) < size:
            raise error("truncated chunk: %d of %d bytes"
                        % (len(chunk), size), pos)
        end = _LINE_END.match(data, pos + size)
        if end is None:
            raise error("chunk of %d bytes not followed by a line end"
                        % size, pos + size)
        chunks.append(chunk)
        pos = end.end()


def _frame_body(headers: List[Header], rest: bytes) -> bytes:
    # Field lines of one name make one comma-separated list (RFC 9110
    # section 5.3), so a second Transfer-Encoding line is not overlooked.
    coding = ", ".join(h.value for h in headers
                       if h.name.lower() == "transfer-encoding")
    if coding.isascii() and coding.strip().lower() == "chunked":
        # RFC 9112 section 6.3: Transfer-Encoding overrides Content-Length.
        return _dechunk(rest)
    if coding and coding.lower() != "identity":
        raise IngestError("transfer-coding %s is not supported"
                          % reprlib.repr(coding))
    # RFC 9112 section 6.3: Content-Length = 1*DIGIT, and field lines
    # with differing values are an error; identical ones count as one.
    lengths = [h.value for h in headers
               if h.name.lower() == "content-length"]
    if not lengths:
        return rest
    if len(set(lengths)) > 1:
        # The first two distinct values, so that many make one short line.
        raise IngestError("differing Content-Length values: %s" % ", ".join(
            map(reprlib.repr, list(dict.fromkeys(lengths))[:2])))
    if not (lengths[0].isascii() and lengths[0].isdecimal()):
        raise IngestError("bad Content-Length: " + reprlib.repr(lengths[0]))
    # No int() of more digits than len(rest) has: such a length takes it all.
    digits = lengths[0].lstrip("0") or "0"
    return rest if len(digits) > len(str(len(rest))) else rest[:int(digits)]


def _make_body(headers: List[Header], octets: bytes) -> Optional[Body]:
    if not octets:
        return None
    media_type = header_value(headers, "Content-Type") or ""
    base = media_type.split(";", 1)[0].strip().lower()
    rdf = None
    if base in RDF_MEDIA_TYPES:
        try:
            text = turtle.decode(octets)
            if base == "application/trig":
                dataset = turtle.parse_trig(text)
                rdf = Graph(chain(dataset.default_graph,
                                  *dataset.named_graphs.values()))
            else:
                rdf = turtle.parse_turtle(text)
        except turtle.ParseError as e:
            raise IngestError("unparseable RDF body: %s (body line %d, "
                              "column %d)" % (e.message, e.line, e.col))
    return Body(octets=octets, rdf=rdf)


def parse_http_request(raw: Union[bytes, str]) -> Request:
    """Parse a raw HTTP/1.1 request. The effective URI is computed from the
    request target and (for origin-form targets) the Host header."""
    start, fields, rest = _split_head_body(raw)
    parts = _START_LINE_WORD.findall(start)
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise IngestError("malformed request line: " + reprlib.repr(start))
    method_token, target, version = parts
    _check_version(version)
    headers = _parse_headers(fields, request=True)
    method = Method(method_token)
    # RFC 9112 section 3.2: a server rejects more than one Host field line.
    hosts = [h.value for h in headers if h.name.lower() == "host"]
    if len(hosts) > 1:
        raise IngestError("more than one Host field line")
    uri = effective_request_uri(target, hosts[0] if hosts else None)
    return Request(method=method, uri=uri, headers=tuple(headers),
                   body=_make_body(headers, _frame_body(headers, rest)),
                   http_version=version)


def parse_http_response(raw: Union[bytes, str]) -> Response:
    """Parse a raw HTTP/1.1 response. Both status-line orders are accepted:
    'HTTP/1.1 201 Created' and the inverted '201 Created HTTP/1.1'."""
    start, fields, rest = _split_head_body(raw)
    parts = _START_LINE_WORD.findall(start)
    if len(parts) >= 2 and parts[0].startswith("HTTP/"):
        version, code_token = parts[0], parts[1]
    elif len(parts) >= 2 and parts[-1].startswith("HTTP/"):
        version, code_token = parts[-1], parts[0]
    else:
        raise IngestError("malformed status line: " + reprlib.repr(start))
    _check_version(version)
    if not (code_token.isascii() and code_token.isdigit()):
        raise IngestError("non-numeric status code: %s"
                          % reprlib.repr(code_token))
    if len(code_token) != 3:
        raise IngestError("status code must have exactly 3 digits: %s"
                          % reprlib.repr(code_token))
    headers = _parse_headers(fields, request=False)
    return Response(status_code=int(code_token), headers=tuple(headers),
                    body=_make_body(headers, _frame_body(headers, rest)),
                    http_version=version)


# --------------------------------------------------------------------------
# Transcript format: message blocks separated by lines of exactly "---".

def _is_response_block(block: str) -> bool:
    first = _START_LINE_WORD.search(block.split("\n", 1)[0])
    token = first.group() if first else ""
    return token.startswith("HTTP/") or token.isdigit()


def _transcript_blocks(text: str) -> List[Tuple[int, str]]:
    """The message blocks of a transcript that hold more than whitespace,
    each with the 1-based number of its first non-blank line. Blank lines
    before a message are skipped, as RFC 9112 section 2.2 lets a server
    skip empty lines before a request line."""
    blocks = []
    current: List[str] = []
    start = 1
    for n, line in enumerate(text.split("\n"), 1):
        # A separator or a blank line may have ASCII SP, HTAB and CR around
        # it, and no other whitespace.
        bare = line.strip(" \t\r")
        if bare == "---":
            if current:
                blocks.append((start, "\n".join(current)))
            current = []
        elif current or bare:
            if not current:
                start = n
            current.append(line)
    if current:
        blocks.append((start, "\n".join(current)))
    return blocks


def load_transcript(text: str) -> Conversation:
    """Pair a transcript's messages into interactions: each request opens
    one, and the responses after it join it in order. A request may have
    no response. A malformed message, or a response with no request or
    after a final one, raises IngestError naming the message, counted
    from 1, and the line it starts on."""
    # Each request with its responses so far. The model's rule is between
    # neighbours: a response is checked with the one before it alone, and
    # each Interaction is built once, at the end.
    pairs: List[Tuple[Request, List[Response]]] = []
    for n, (line, block) in enumerate(_transcript_blocks(text), 1):
        try:
            if _is_response_block(block):
                response = parse_http_response(block)
                if not pairs:
                    raise IngestError("response before any request")
                request, responses = pairs[-1]
                if responses:
                    Interaction(request, (responses[-1], response))
                responses.append(response)
            else:
                pairs.append((parse_http_request(block), []))
        except IngestError as e:
            raise IngestError("transcript message %d (line %d): %s"
                              % (n, line, e))
    return Conversation(tuple(Interaction(request, tuple(responses))
                              for request, responses in pairs))


# --------------------------------------------------------------------------
# HAR 1.2 subset.

def load_har(text: str) -> Conversation:
    """Each HAR entry becomes one interaction with one response. Entries
    are ordered by startedDateTime, falling back to file order. A malformed
    entry raises IngestError naming the entry by its position in the file,
    counted from 1."""
    # Imported here, as only HAR input is JSON.
    import json
    try:
        doc = json.loads(text, parse_int=_Number)
    except (ValueError, RecursionError) as e:
        raise IngestError("not a HAR document: %s" % e)
    if not isinstance(doc, dict) or "log" not in doc:
        raise IngestError("not a HAR document: missing 'log'")
    if not isinstance(doc["log"], dict):
        raise IngestError("not a HAR document: 'log' is not an object")
    entries = doc["log"].get("entries", [])
    if not isinstance(entries, list) \
            or not all(isinstance(e, dict) for e in entries):
        raise IngestError("not a HAR document: 'entries' is not a list of "
                          "objects")
    indexed = sorted(enumerate(entries, 1),
                     key=lambda pair: str(pair[1].get("startedDateTime", "")))
    interactions = []
    for n, entry in indexed:
        try:
            interactions.append(_har_interaction(entry))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            reason = "missing %s" % e if isinstance(e, KeyError) else e
            raise IngestError("HAR entry %d: %s" % (n, reason))
    return Conversation(tuple(interactions))


# ASCII whitespace, as in string.whitespace.
_NO_WHITESPACE = str.maketrans("", "", " \t\n\r\x0b\x0c")


class _Number(str):
    """A JSON integer, as its text: int() refuses thousands of digits."""


# The JSON name of each type that load_har's json.loads gives.
_JSON_TYPES = {type(None): "null", bool: "boolean", _Number: "number",
               float: "number", str: "string", list: "array", dict: "object"}


def _har_text(text: str) -> str:
    """`text`, if it is a string that UTF-8 can encode. JSON's "\\ud800"
    escape gives a lone surrogate, which it cannot."""
    if type(text) is not str:
        raise TypeError("not a string: %s" % _JSON_TYPES[type(text)])
    if not text.isascii():
        _utf8(text)
    return text


def _har_json(value, kind: type = dict):
    """`value`, a JSON object or array (`kind`); null or empty is kind()."""
    if not value:
        return kind()
    if type(value) is not kind:
        raise TypeError("not an %s: %s" % (_JSON_TYPES[kind],
                                           _JSON_TYPES[type(value)]))
    return value


def _har_status(status) -> int:
    """`status`, if it is a JSON integer or a string of ASCII digits."""
    if type(status) is _Number or (type(status) is str and status.isascii()
                                     and status.isdigit()):
        digits = status.lstrip("0")
        if len(digits) > 3:
            raise ValueError("status code must have at most 3 digits: %s%s"
                             % (digits[:20], "..." * (len(digits) > 20)))
        return int(digits or "0")
    if isinstance(status, float):
        int(status)  # An infinity overflows, as it always did.
    raise ValueError("status is not an integer: %s" % (
        reprlib.repr(status) if isinstance(status, (str, float))
        else _JSON_TYPES[type(status)]))


def _har_headers(items, mime_type: Optional[str]) -> List[Header]:
    """A HAR message's headers, plus a Content-Type of `mime_type` when
    there is none."""
    headers = [Header(_har_text(h["name"]), _har_text(h.get("value", "")))
               for h in map(_har_json, _har_json(items, list))]
    if mime_type and not header_value(headers, "Content-Type"):
        headers.append(Header("Content-Type", _har_text(mime_type)))
    return headers


def _har_interaction(entry: dict) -> Interaction:
    req = _har_json(entry.get("request"))
    resp = _har_json(entry.get("response"))
    uri = require_host(parse_uri(_har_text(req["url"])))
    post = _har_json(req.get("postData"))
    text = _har_text(post.get("text") or "")
    req_headers = _har_headers(req.get("headers"),
                               text and post.get("mimeType"))
    req_body = _make_body(req_headers, text.encode("utf-8")) if text else None
    request = Request(method=Method(_har_text(req["method"])), uri=uri,
                      headers=tuple(req_headers), body=req_body,
                      http_version=_har_text(req.get("httpVersion")
                                             or "HTTP/1.1"))

    content = _har_json(resp.get("content"))
    resp_headers = _har_headers(resp.get("headers"), content.get("mimeType"))
    text = _har_text(content.get("text") or "")
    if content.get("encoding") == "base64":
        # Line-wrapped base64 stays legal; any other character outside
        # the alphabet is an error, not silently dropped.
        octets = base64.b64decode(text.translate(_NO_WHITESPACE),
                                  validate=True)
    else:
        octets = text.encode("utf-8")
    status = _har_status(resp["status"])
    response = Response(status_code=status, headers=tuple(resp_headers),
                        body=_make_body(resp_headers, octets),
                        http_version=_har_text(resp.get("httpVersion")
                                               or "HTTP/1.1"))
    return Interaction(request, (response,))
