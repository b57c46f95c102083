"""RFC 3986 URI decomposition, x-www-form-urlencoded query decoding and
effective request URI computation."""

from __future__ import annotations

import re
import reprlib
from collections import namedtuple
from typing import List, Optional
from urllib.parse import unquote_to_bytes

from .model import IngestError


class UriError(IngestError):
    pass


QueryParam = namedtuple("QueryParam", "name value")

# The five components of an absolute URI (query and fragment None when
# absent) and the decoded query parameters, a tuple of QueryParams.
UriParts = namedtuple("UriParts",
                      "scheme authority path query fragment params",
                      defaults=(None, None, ()))


# RFC 3986 appendix B: any URI reference splits into these five parts.
_REFERENCE_RE = re.compile(
    r'(?:([^:/?#]+):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?', re.S)
_SCHEME_RE = re.compile(r'[A-Za-z][A-Za-z0-9+.-]*')

# RFC 9110 section 7.2: Host = uri-host [ ":" port ], with host and port
# as in RFC 3986 sections 3.2.2-3.2.3: an IP literal in brackets (of an
# IPv6 address, only the characters are checked) or a reg-name, which
# covers every IPv4 address. The reg-name may not be empty: RFC 9110
# section 4.2.1 rejects an http URI with an empty host.
_HOST_RE = re.compile(r"""(?:
      \[ (?: [0-9A-Fa-f:.]+ | v[0-9A-Fa-f]+\.[-A-Za-z0-9._~!$&'()*+,;=:]+ ) \]
    | (?: [-A-Za-z0-9._~!$&'()*+,;=] | %[0-9A-Fa-f]{2} )+
    ) (?: :[0-9]* )?""", re.X)

# A '%' not followed by two hex digits.
_BAD_ESCAPE_RE = re.compile(r'%(?![0-9A-Fa-f]{2})')


def percent_decode(text: str, base_offset: int = 0) -> str:
    """Decode %XX escapes and '+' as space, the form-encoding rule. Escaped
    octets are interpreted as UTF-8. Raises UriError naming the absolute
    offset of a malformed or truncated escape."""
    bad = _BAD_ESCAPE_RE.search(text)
    if bad:
        raise UriError("malformed percent escape at offset %d"
                       % (base_offset + bad.start()))
    try:
        return unquote_to_bytes(text.replace('+', ' ')).decode('utf-8')
    except UnicodeDecodeError:
        raise UriError("percent escapes do not decode as UTF-8 at offset %d"
                       % base_offset)


def decode_query_params(query: str) -> List[QueryParam]:
    """Split an x-www-form-urlencoded query into ordered name/value pairs.
    Empty segments are skipped; a segment without '=' yields an empty value."""
    params = []
    offset = 0
    for segment in query.split('&'):
        if segment:
            if '=' in segment:
                rawname, rawvalue = segment.split('=', 1)
            else:
                rawname, rawvalue = segment, ''
            name = percent_decode(rawname, offset)
            value = percent_decode(rawvalue, offset + len(rawname) + 1)
            params.append(QueryParam(name, value))
        offset += len(segment) + 1
    return params


def parse_uri(text: str) -> UriParts:
    """Decompose an absolute URI into its five components. The components
    exactly partition the input: recompose(parse_uri(s)) == s."""
    if not text:
        raise UriError("empty URI")
    scheme, authority, path, query, fragment = \
        _REFERENCE_RE.fullmatch(text).groups()
    if authority is None or not _SCHEME_RE.fullmatch(scheme or ""):
        raise UriError("not an absolute URI with authority: %s"
                       % reprlib.repr(text))
    params = tuple(decode_query_params(query)) if query is not None else ()
    return UriParts(scheme=scheme, authority=authority, path=path,
                    query=query, fragment=fragment, params=params)


def recompose(u: UriParts) -> str:
    out = "%s://%s%s" % (u.scheme, u.authority, u.path)
    if u.query is not None:
        out += "?" + u.query
    if u.fragment is not None:
        out += "#" + u.fragment
    return out


def id_res(u: UriParts) -> str:
    """The resource identifier: scheme, authority and path with both the
    query and the fragment stripped."""
    return "%s://%s%s" % (u.scheme, u.authority, u.path)


def effective_request_uri(target: str, host: Optional[str]) -> UriParts:
    """Combine a wire-level request target with the Host header into an
    absolute http URI. Supports origin-form and absolute-form targets."""
    if target == "*":
        raise UriError("asterisk-form request target is not supported")
    if target.startswith("/"):
        if not host:
            raise UriError("origin-form request target requires a Host header")
        if not _HOST_RE.fullmatch(host):
            raise UriError("bad Host header: %s" % reprlib.repr(host))
        return parse_uri("http://%s%s" % (host, target))
    if "://" in target:
        return require_host(parse_uri(target))
    raise UriError("unsupported request-target form: " + reprlib.repr(target))


def require_host(u: UriParts) -> UriParts:
    """`u`, a parsed request or Location target, unless it is an http or
    https URI whose host is empty (RFC 9110 section 4.2.1) or whose
    authority, after any userinfo, is not uri-host [ ":" port ]."""
    if u.scheme.lower() in ("http", "https"):
        host_port = u.authority.rpartition("@")[2]
        empty = not host_port.partition(":")[0]
        if empty or not _HOST_RE.fullmatch(host_port):
            raise UriError("%s host in request target: %s" % (
                "empty" if empty else "bad", reprlib.repr(recompose(u))))
    return u


def remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4: interpret the "." and ".." segments, in one
    pass over the path's segments."""
    segments = path.split("/")
    # Steps 2A and 2D drop the leading "." and ".." segments.
    first = 0
    while first < len(segments) and segments[first] in (".", ".."):
        first += 1
    # Every later segment is output with its "/" (step 2E), but a "." is
    # dropped (2B) and a ".." pops the last one output (2C); either leaves
    # a "/" when it ends the path.
    out = segments[first:first + 1]
    for segment in segments[first + 1:]:
        if segment == "..":
            del out[-1:]
        elif segment != ".":
            out.append("/" + segment)
    if first + 1 < len(segments) and segments[-1] in (".", ".."):
        out.append("/")
    return "".join(out)


def resolve_reference(ref: str, base: UriParts) -> str:
    """RFC 3986 section 5.2.2, strict: the target URI of the reference
    `ref` against the absolute URI `base`, recomposed (section 5.3)."""
    scheme, authority, path, query, fragment = \
        _REFERENCE_RE.fullmatch(ref).groups()
    relative = scheme is None and authority is None
    if relative and not path:
        path = base.path
        query = base.query if query is None else query
    else:
        if relative and not path.startswith("/"):
            # Section 5.2.3: merge with the base path.
            path = (base.path[:base.path.rfind("/") + 1] or "/") + path
        path = remove_dot_segments(path)
    if scheme is None:
        authority = base.authority if authority is None else authority
        scheme = base.scheme
    return "%s:%s%s%s%s" % (
        scheme, "" if authority is None else "//" + authority, path,
        "" if query is None else "?" + query,
        "" if fragment is None else "#" + fragment)
