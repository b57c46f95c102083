"""URI decomposition, recomposition, resource identity and query params."""

import re
import reprlib
import urllib.parse

import pytest
from hypothesis import given, settings, strategies as st

from httplift.uri import (
    QueryParam, UriParts, parse_uri, recompose, id_res, percent_decode,
    decode_query_params, effective_request_uri, UriError,
    remove_dot_segments, resolve_reference,
)


class TestParse:
    def test_full_uri(self):
        u = parse_uri("http://example.org:8080/reg?count=5#frag")
        assert u.scheme == "http"
        assert u.authority == "example.org:8080"
        assert u.path == "/reg"
        assert u.query == "count=5"
        assert u.fragment == "frag"

    def test_minimal_uri(self):
        u = parse_uri("http://example.org")
        assert u.path == ""
        assert u.query is None and u.fragment is None

    def test_empty_query_is_kept(self):
        assert parse_uri("http://h/p?").query == ""

    def test_scheme_required(self):
        for bad in ("/relative/path", "no-scheme", "://h/p", "1http://h"):
            with pytest.raises(UriError):
                parse_uri(bad)

    def test_params_decoded(self):
        u = parse_uri("http://h/p?a=1&b=hello+world&c=%2F")
        assert u.params == (QueryParam("a", "1"), QueryParam("b", "hello world"),
                            QueryParam("c", "/"))

    def test_param_without_value(self):
        assert parse_uri("http://h/p?flag").params == (QueryParam("flag", ""),)

    def test_empty_segments_skipped(self):
        assert parse_uri("http://h/p?a=1&&b=2").params == (
            QueryParam("a", "1"), QueryParam("b", "2"))


class TestRecompose:
    CASES = [
        "http://example.org:8080/reg?count=5",
        "http://example.org/reg/x8344",
        "https://user@h:1/a/b/c?x=y&z#top",
        "http://h",
        "http://h/",
        "http://h/p?",
        "http://h/p#",
        "ftp://ftp.is.co.za/rfc/rfc1808.txt",
        "http://www.ietf.org/rfc/rfc2396.txt",
        "ldap://[2001:db8::7]/c=GB?objectClass?one",
        "telnet://192.0.2.16:80/",
    ]

    @pytest.mark.parametrize("uri", CASES)
    def test_identity(self, uri):
        assert recompose(parse_uri(uri)) == uri

    @pytest.mark.parametrize("uri", CASES)
    def test_matches_urlsplit(self, uri):
        u = parse_uri(uri)
        ref = urllib.parse.urlsplit(uri)
        assert u.scheme == ref.scheme
        assert u.authority == ref.netloc
        assert u.path == ref.path

    def test_many_generated_identities(self):
        # recompose(parse(u)) == u over a grid of component choices
        count = 0
        for auth in ("h", "h.example", "h:80", "u@h", "[::1]:8080"):
            for path in ("", "/", "/a", "/a/b.c", "/%20x"):
                for query in (None, "", "k=v", "a=1&b=2", "x%26y=z"):
                    for frag in (None, "", "f", "se/ct?ion"):
                        uri = "http://" + auth + path
                        if query is not None:
                            uri += "?" + query
                        if frag is not None:
                            uri += "#" + frag
                        assert recompose(parse_uri(uri)) == uri
                        count += 1
        assert count == 500


class TestIdRes:
    def test_strips_query(self):
        assert id_res(parse_uri("http://example.org:8080/reg?count=5")) == \
            "http://example.org:8080/reg"

    def test_strips_fragment(self):
        assert id_res(parse_uri("http://h/p#frag")) == "http://h/p"

    def test_plain_uri_unchanged(self):
        assert id_res(parse_uri("http://h/a/b")) == "http://h/a/b"


class TestPercentDecode:
    def test_basic(self):
        assert percent_decode("a%2Fb") == "a/b"

    def test_utf8_sequences(self):
        assert percent_decode("%C3%A9") == "é"

    def test_truncated_escape_errors(self):
        with pytest.raises(UriError):
            percent_decode("abc%2")

    def test_bad_hex_reports_offset(self):
        with pytest.raises(UriError) as exc:
            percent_decode("ab%zz")
        assert "2" in str(exc.value)


class TestQueryParams:
    def test_plus_means_space(self):
        assert decode_query_params("q=hello+world") == [QueryParam("q", "hello world")]

    def test_first_equals_splits(self):
        assert decode_query_params("k=a=b") == [QueryParam("k", "a=b")]

    def test_order_and_duplicates_preserved(self):
        assert decode_query_params("a=1&a=2&b=3") == [
            QueryParam("a", "1"), QueryParam("a", "2"), QueryParam("b", "3")]

    @given(st.lists(st.tuples(
        st.text(alphabet="abcdez /&=+%", min_size=1, max_size=8),
        st.text(alphabet="abcdez /&=+%", max_size=8)), max_size=6))
    def test_agrees_with_stdlib(self, pairs):
        encoded = "&".join(
            "%s=%s" % (urllib.parse.quote_plus(k), urllib.parse.quote_plus(v))
            for k, v in pairs)
        assert [(p.name, p.value) for p in decode_query_params(encoded)] == pairs


class TestEffectiveRequestUri:
    def test_origin_form(self):
        u = effective_request_uri("/reg?count=5", host="example.org:8080")
        assert recompose(u) == "http://example.org:8080/reg?count=5"

    def test_absolute_form(self):
        u = effective_request_uri("http://h/p", host="ignored.example")
        assert recompose(u) == "http://h/p"

    def test_origin_form_needs_host(self):
        with pytest.raises(UriError):
            effective_request_uri("/reg", host=None)

    def test_asterisk_form_rejected(self):
        with pytest.raises(UriError):
            effective_request_uri("*", host="h")

    def test_authority_form_rejected(self):
        with pytest.raises(UriError):
            effective_request_uri("example.org:443", host="h")


class TestResolveReference:
    """RFC 3986 section 5.4, against the base URI http://a/b/c/d;p?q."""

    BASE = parse_uri("http://a/b/c/d;p?q")

    # Section 5.4.1, normal examples.
    @pytest.mark.parametrize("ref, target", [
        ("g:h", "g:h"),
        ("g", "http://a/b/c/g"),
        ("./g", "http://a/b/c/g"),
        ("g/", "http://a/b/c/g/"),
        ("/g", "http://a/g"),
        ("//g", "http://g"),
        ("?y", "http://a/b/c/d;p?y"),
        ("g?y", "http://a/b/c/g?y"),
        ("#s", "http://a/b/c/d;p?q#s"),
        ("g#s", "http://a/b/c/g#s"),
        ("g?y#s", "http://a/b/c/g?y#s"),
        (";x", "http://a/b/c/;x"),
        ("g;x", "http://a/b/c/g;x"),
        ("g;x?y#s", "http://a/b/c/g;x?y#s"),
        ("", "http://a/b/c/d;p?q"),
        (".", "http://a/b/c/"),
        ("./", "http://a/b/c/"),
        ("..", "http://a/b/"),
        ("../", "http://a/b/"),
        ("../g", "http://a/b/g"),
        ("../..", "http://a/"),
        ("../../", "http://a/"),
        ("../../g", "http://a/g"),
    ])
    def test_normal_examples(self, ref, target):
        assert resolve_reference(ref, self.BASE) == target

    # Section 5.2.4, steps 2A and 2D: a leading "../" or "./" is dropped,
    # and a lone "." or ".." leaves nothing.
    @pytest.mark.parametrize("path, result", [
        ("../a", "a"), ("./a", "a"), (".", ""), ("..", "")])
    def test_remove_dot_segments_of_a_relative_path(self, path, result):
        assert remove_dot_segments(path) == result

    # Section 5.4.2, abnormal examples; "http:g" by the strict parser.
    @pytest.mark.parametrize("ref, target", [
        ("../../../g", "http://a/g"),
        ("../../../../g", "http://a/g"),
        ("/./g", "http://a/g"),
        ("/../g", "http://a/g"),
        ("g.", "http://a/b/c/g."),
        (".g", "http://a/b/c/.g"),
        ("g..", "http://a/b/c/g.."),
        ("..g", "http://a/b/c/..g"),
        ("./../g", "http://a/b/g"),
        ("./g/.", "http://a/b/c/g/"),
        ("g/./h", "http://a/b/c/g/h"),
        ("g/../h", "http://a/b/c/h"),
        ("g;x=1/./y", "http://a/b/c/g;x=1/y"),
        ("g;x=1/../y", "http://a/b/c/y"),
        ("g?y/./x", "http://a/b/c/g?y/./x"),
        ("g?y/../x", "http://a/b/c/g?y/../x"),
        ("g#s/./x", "http://a/b/c/g#s/./x"),
        ("g#s/../x", "http://a/b/c/g#s/../x"),
        ("http:g", "http:g"),
    ])
    def test_abnormal_examples(self, ref, target):
        assert resolve_reference(ref, self.BASE) == target

    def test_empty_base_path_merges_under_the_root(self):
        assert resolve_reference("g", parse_uri("http://a")) == "http://a/g"

    def test_same_document_reference_keeps_the_base_path(self):
        # Section 5.2.2: T.path = Base.path, without removing dot segments.
        base = parse_uri("http://a/b/../c?q")
        assert resolve_reference("#f", base) == "http://a/b/../c?q#f"

    # Section 5.2.4's worked examples.
    @pytest.mark.parametrize("path, result", [
        ("/a/b/c/./../../g", "/a/g"),
        ("mid/content=5/../6", "mid/6"),
    ])
    def test_remove_dot_segments(self, path, result):
        assert remove_dot_segments(path) == result


# The split, the decoder and the dot-segment loop that parse_uri,
# percent_decode and remove_dot_segments replaced, kept as reference
# implementations.
_OLD_URI_RE = re.compile(
    r'^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)([^?#]*)'
    r'(?:\?([^#]*))?(?:#(.*))?$', re.S)

_HEX = "0123456789abcdefABCDEF"


def _old_percent_decode(text, base_offset=0):
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == '%':
            hexpart = text[i + 1:i + 3]
            if len(hexpart) < 2 or hexpart[0] not in _HEX or hexpart[1] not in _HEX:
                raise UriError("malformed percent escape at offset %d"
                               % (base_offset + i))
            out.append(int(hexpart, 16))
            i += 3
        elif ch == '+':
            out.append(0x20)
            i += 1
        else:
            out.extend(ch.encode('utf-8'))
            i += 1
    try:
        return out.decode('utf-8')
    except UnicodeDecodeError:
        raise UriError("percent escapes do not decode as UTF-8 at offset %d"
                       % base_offset)


def _old_parse_uri(text):
    if not text:
        raise UriError("empty URI")
    m = _OLD_URI_RE.match(text)
    if not m:
        raise UriError("not an absolute URI with authority: %s"
                       % reprlib.repr(text))
    scheme, authority, path, query, fragment = m.groups()
    params = tuple(decode_query_params(query)) if query is not None else ()
    return UriParts(scheme, authority, path, query, fragment, params)


def _old_remove_dot_segments(path):
    out = []
    while path:
        if path.startswith(("../", "./")):
            path = path[path.index("/") + 1:]
        elif path.startswith("/./") or path == "/.":
            path = "/" + path[3:]
        elif path.startswith("/../") or path == "/..":
            path = "/" + path[4:]
            if out:
                out.pop()
        elif path in (".", ".."):
            path = ""
        else:
            end = path.find("/", 1)
            end = len(path) if end == -1 else end
            out.append(path[:end])
            path = path[end:]
    return "".join(out)


def _outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


# Text weighted toward the characters these grammars care about. Lone
# surrogates are left out: ingest rejects them before any URI is parsed.
_uri_text = st.text(st.one_of(
    st.sampled_from("%%%+++0123456789abcdefABCDEFgG:/?#&=\n\r. @[]"),
    st.characters(min_codepoint=0x80, exclude_categories=("Cs",))),
    max_size=40)


@settings(max_examples=400)
@given(st.sampled_from(["", "http://", "h:", "a+b.c-d://", "1a://", "//",
                        "é://", "http:/"]), _uri_text)
def test_parse_uri_agrees_with_the_old_split(head, tail):
    text = head + tail
    assert _outcome(parse_uri, text) == _outcome(_old_parse_uri, text)


@settings(max_examples=400)
@given(_uri_text, st.integers(0, 99))
def test_percent_decode_agrees_with_the_old_loop(text, offset):
    assert _outcome(percent_decode, text, offset) \
        == _outcome(_old_percent_decode, text, offset)


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(["a", "b", ".", "..", "/", "./", "../"]),
                max_size=12).map("".join))
def test_remove_dot_segments_agrees_with_the_old_loop(path):
    assert remove_dot_segments(path) == _old_remove_dot_segments(path)
