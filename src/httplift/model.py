"""Protocol-level domain model: methods, headers, bodies, requests,
responses (interim or final), interactions and conversations."""

from __future__ import annotations

import re
import reprlib
from collections import namedtuple
from typing import Optional, Tuple


class IngestError(ValueError):
    """Input that breaks a rule of HTTP, a URI or the input format."""


# RFC 9110 section 5.6.2: token = 1*tchar.
_TOKEN_RE = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")


def is_token(text: str) -> bool:
    return bool(text) and _TOKEN_RE.fullmatch(text) is not None


# Value records are namedtuples; those with a check subclass one, with
# empty __slots__ so that instances stay immutable, and _Checked, so that
# _make, _replace, copy and every pickle protocol make the check too.

class _Checked:
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class Method(_Checked, namedtuple("Method", "name")):
    __slots__ = ()

    def __new__(cls, name: str):
        if not is_token(name):
            raise IngestError("method name must be a non-empty token: %s"
                              % reprlib.repr(name))
        return tuple.__new__(cls, (name,))


class Header(_Checked, namedtuple("Header", "name value")):
    """A header field, its name in its original casing; `header_value`
    looks names up case-insensitively."""
    __slots__ = ()

    def __new__(cls, name: str, value: str):
        if not is_token(name):
            raise IngestError("header name must be a non-empty token: %s"
                              % reprlib.repr(name))
        return tuple.__new__(cls, (name, value))


# A body: its octets and, for an RDF Content-Type, the parsed rdf.Graph.
Body = namedtuple("Body", "octets rdf", defaults=(b"", None))

# A request: a Method, a uri.UriParts and a tuple of Headers.
Request = namedtuple("Request", "method uri headers body http_version",
                     defaults=((), None, None))


class Response(_Checked, namedtuple(
        "Response", "status_code headers body http_version")):
    __slots__ = ()

    def __new__(cls, status_code: int, headers: Tuple[Header, ...] = (),
                body: Optional[Body] = None,
                http_version: Optional[str] = None):
        if not (0 <= status_code <= 999):
            # repr() refuses an int of more digits than the interpreter's
            # limit, 640 at the lowest: so a long one is given by its size.
            raise IngestError("status code must have at most 3 digits: %s" % (
                reprlib.repr(status_code) if status_code.bit_length() < 2000
                else "an integer of %d bits" % status_code.bit_length()))
        return tuple.__new__(cls, (status_code, headers, body, http_version))


def is_interim(response: Response) -> bool:
    # RFC 9110 section 15.2; written out: ingest runs before the registry.
    return 100 <= response.status_code <= 199


def header_value(headers, name: str) -> Optional[str]:
    """First header value whose name matches case-insensitively."""
    name = name.lower()
    for h in headers:
        if h.name.lower() == name:
            return h.value
    return None


class Interaction(_Checked, namedtuple("Interaction", "request responses")):
    """One request with its responses in wire order: 1xx (interim) ones,
    then at most one final response (RFC 9110 section 15.2)."""
    __slots__ = ()

    def __new__(cls, request: Request, responses: Tuple[Response, ...] = ()):
        for r in responses[:-1]:
            if not is_interim(r):
                raise IngestError("interim response must have a 1xx status, "
                                  "got %d" % r.status_code)
        return tuple.__new__(cls, (request, responses))


Conversation = namedtuple("Conversation", "interactions", defaults=((),))
