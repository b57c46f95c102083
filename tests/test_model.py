"""HTTP message model: status classes, registry, headers, interactions,
and the value semantics of every record type. The status classes are the
ontology's datatype restrictions, read through vocab.registry()."""

import copy
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

import httplift.ingest
import httplift.uri
from httplift.model import (
    Method, Header, Body, Request, Response, Interaction, Conversation,
    is_interim, is_token, header_value,
    IngestError,
)
from httplift import vocab
from httplift.rdf import RDF_TYPE, XSD, XSD_INTEGER, Graph, Iri
from httplift.turtle import parse_turtle
from httplift.uri import QueryParam, UriParts, parse_uri
from httplift.validate import Finding, ValidationReport


CLASSES = {1: "Informational", 2: "Successful", 3: "Redirection",
           4: "ClientError", 5: "ServerError"}


def status_classes(code):
    """The status classes whose interval in the ontology holds `code`."""
    return [term for term, (_, lo, hi) in vocab.registry().intervals.items()
            if term != vocab.THREE_DIGIT and lo <= code <= hi]


class TestStatusClass:
    def test_exhaustive_over_all_codes(self):
        for code in range(1000):
            if code < 100 or code > 599:
                assert status_classes(code) == [], code
            else:
                assert status_classes(code) == [
                    Iri(vocab.SC + CLASSES[code // 100])], code

    def test_class_names(self):
        assert status_classes(200) == [Iri(vocab.SC + "Successful")]
        assert status_classes(101) == [Iri(vocab.SC + "Informational")]
        assert status_classes(302) == [Iri(vocab.SC + "Redirection")]
        assert status_classes(404) == [Iri(vocab.SC + "ClientError")]
        assert status_classes(503) == [Iri(vocab.SC + "ServerError")]

    def test_is_interim_is_informational(self):
        # is_interim is written by hand, as ingest runs before the
        # ontology is read; it must agree with sc:Informational.
        informational = [Iri(vocab.SC + "Informational")]
        for code in range(1000):
            assert is_interim(Response(code)) == (
                status_classes(code) == informational), code

    def test_is_interim(self):
        assert is_interim(Response(status_code=100))
        assert is_interim(Response(status_code=199))
        assert not is_interim(Response(status_code=200))


class TestRegistry:
    """The status individuals that the vendored ontology defines."""

    def test_registry_size(self):
        assert len(vocab.registry().statuses) == 51

    def test_inverse_consistency(self):
        r = vocab.registry()
        assert len(r.codes) == len(r.statuses)
        for code, node in r.statuses.items():
            assert r.codes[node] == code

    def test_well_known_entries(self):
        statuses = vocab.registry().statuses
        assert statuses[200] == Iri(vocab.SC + "OK")
        assert statuses[201] == Iri(vocab.SC + "Created")
        assert statuses[404] == Iri(vocab.SC + "NotFound")
        assert statuses[307] == Iri(vocab.SC + "TemporaryRedirect")
        assert statuses[415] == Iri(vocab.SC + "UnsupportedMediaType")

    def test_standard_status_name(self):
        statuses = vocab.registry().statuses
        assert statuses.get(204) == Iri(vocab.SC + "NoContent")
        assert statuses.get(299) is None

    def test_functional_properties_are_those_the_ontology_declares(self):
        onto = parse_turtle(vocab.ontology_text(extensions=True))
        declared = onto.subjects(RDF_TYPE,
                                 Iri(vocab.OWL + "FunctionalProperty"))
        names = ("mthd methodName uri scheme authority path query fragment "
                 "idRes hdrName hdrValue link paramName paramValue body sc "
                 "statusCodeNumber").split()
        assert declared == {Iri(vocab.HTTP + n) for n in names}
        assert vocab.registry().functional == declared

    def test_intervals_are_the_ontology_datatype_restrictions(self):
        # The five status classes and :threeDigit, the range of
        # :statusCodeNumber, whose xsd:nonNegativeInteger base states no
        # minInclusive; :notEmptyToken restricts by xsd:minLength only.
        assert dict(vocab.registry().intervals) == {
            Iri(vocab.SC + "Informational"): (XSD_INTEGER, 100, 199),
            Iri(vocab.SC + "Successful"): (XSD_INTEGER, 200, 299),
            Iri(vocab.SC + "Redirection"): (XSD_INTEGER, 300, 399),
            Iri(vocab.SC + "ClientError"): (XSD_INTEGER, 400, 499),
            Iri(vocab.SC + "ServerError"): (XSD_INTEGER, 500, 599),
            vocab.THREE_DIGIT: (Iri(XSD + "nonNegativeInteger"), None, 999),
        }

    def test_shared_mappings_are_read_only(self):
        r = vocab.registry()
        for mapping, key in ((r.methods, "FOO"), (r.statuses, 299),
                             (r.codes, Iri(vocab.SC + "Foo")),
                             (r.intervals, vocab.THREE_DIGIT)):
            with pytest.raises(TypeError):
                mapping[key] = None


class TestTokens:
    @pytest.mark.parametrize("ok", ["GET", "POST", "PATCH", "X-CUSTOM",
                                    "a", "A0!#$%&'*+-.^_`|~"])
    def test_valid_tokens(self, ok):
        assert is_token(ok)

    @pytest.mark.parametrize("bad", ["", "BAD METHOD", "GE\tT", "a,b",
                                     "méthode", "g/t", "(x)"])
    def test_invalid_tokens(self, bad):
        assert not is_token(bad)


class TestMessages:
    def test_header_named_is_case_insensitive(self):
        headers = [Header("Content-Type", "text/turtle")]
        assert header_value(headers, "content-type") == "text/turtle"
        assert header_value(headers, "CONTENT-TYPE") == "text/turtle"
        assert header_value(headers, "accept") is None

    def test_header_value_helper(self):
        headers = [Header("Host", "h"), Header("Accept", "text/turtle")]
        assert header_value(headers, "accept") == "text/turtle"
        assert header_value(headers, "location") is None

    def test_response_rejects_out_of_range_status(self):
        with pytest.raises(ValueError):
            Response(status_code=1000)
        with pytest.raises(ValueError):
            Response(status_code=-1)

    # 10**5000 has more digits than repr() of an int gives at the
    # interpreter's default limit, or at 640, the lowest it accepts.
    @pytest.mark.parametrize("limit", [None] + (
        [640] if hasattr(sys, "set_int_max_str_digits") else []))
    @pytest.mark.parametrize("code", [10**5000, -10**5000],
                             ids=["10**5000", "-10**5000"])
    def test_response_rejects_a_status_too_long_to_print(self, limit, code):
        if limit:
            saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(limit)
        try:
            with pytest.raises(IngestError) as e:
                Response(code)
        finally:
            if limit:
                sys.set_int_max_str_digits(saved)
        assert str(e.value).startswith(
            "status code must have at most 3 digits: ")
        assert len(str(e.value)) < 200

    def test_interaction_orders_responses(self):
        req = Request(method=Method("GET"), uri=parse_uri("http://h/p"))
        interim = Response(status_code=100)
        final = Response(status_code=200)
        i = Interaction(req, (interim, final))
        assert i.responses == (interim, final)

    def test_interaction_rejects_final_in_interims(self):
        req = Request(method=Method("GET"), uri=parse_uri("http://h/p"))
        with pytest.raises(ValueError):
            Interaction(req, (Response(status_code=200),
                              Response(status_code=200)))

    def test_interaction_rejects_interim_final(self):
        # A 1xx response may not come after the final one.
        req = Request(method=Method("GET"), uri=parse_uri("http://h/p"))
        with pytest.raises(ValueError):
            Interaction(req, (Response(status_code=200),
                              Response(status_code=100)))

    def test_interaction_without_final(self):
        req = Request(method=Method("GET"), uri=parse_uri("http://h/p"))
        i = Interaction(req, (Response(status_code=100),))
        assert i.responses == (Response(status_code=100),)

    def test_checks_raise_one_error_type(self):
        # Ingest passes these on as they are, and the CLI catches one type.
        req = Request(method=Method("GET"), uri=parse_uri("http://h/p"))
        for make in (lambda: Method("G T"), lambda: Header("A B", "v"),
                     lambda: Response(1000),
                     lambda: Interaction(req, (Response(200),) * 2),
                     lambda: parse_uri("h/p")):
            with pytest.raises(IngestError):
                make()
        assert issubclass(httplift.uri.UriError, IngestError)
        assert issubclass(IngestError, ValueError)
        assert httplift.ingest.IngestError is IngestError

    def test_conversation_holds_interactions(self):
        req = Request(method=Method("GET"), uri=parse_uri("http://h/p"))
        c = Conversation((Interaction(req, (Response(status_code=200),)),))
        assert len(c.interactions) == 1


_URI = UriParts("http", "h", "/p", "a=1", None, (QueryParam("a", "1"),))
_GET = Request(Method("GET"), _URI)

# One field list per record type, every field given, in declaration order.
RECORDS = [
    (Method, {"name": "GET"}),
    (Header, {"name": "A", "value": "b"}),
    (Body, {"octets": b"hi", "rdf": Graph()}),
    (Request, {"method": Method("GET"), "uri": _URI,
               "headers": (Header("Host", "h"),), "body": None,
               "http_version": "HTTP/1.1"}),
    (Response, {"status_code": 201, "headers": (), "body": Body(),
                "http_version": None}),
    (Interaction, {"request": _GET,
                   "responses": (Response(100), Response(200))}),
    (Conversation, {"interactions": (Interaction(_GET),)}),
    (QueryParam, {"name": "a", "value": "1"}),
    (UriParts, {"scheme": "http", "authority": "h", "path": "/",
                "query": None, "fragment": None, "params": ()}),
    (Finding, {"rule_id": "R6", "severity": "violation",
               "focus": Iri("http://x/m"), "message": "no type"}),
    (ValidationReport, {"findings": (), "checked_rules": ("R1",)}),
]
CHECKED = [(cls, fields) for cls, fields in RECORDS
           if cls in (Method, Header, Response, Interaction)]


class TestValueRecords:
    @pytest.mark.parametrize("cls, fields", RECORDS,
                             ids=[cls.__name__ for cls, _ in RECORDS])
    def test_value_semantics(self, cls, fields):
        a, b = cls(**fields), cls(*fields.values())
        assert a == b and hash(a) == hash(b)
        for name, value in fields.items():
            assert getattr(a, name) is value
        first = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(a, first, fields[first])
        with pytest.raises(AttributeError):
            a.extra = 1
        assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % item for item in fields.items()))

    @pytest.mark.parametrize("make, message", [
        (lambda: Method("G T"),
         "method name must be a non-empty token: 'G T'"),
        (lambda: Method(""), "method name must be a non-empty token: ''"),
        (lambda: Header("A B", "v"),
         "header name must be a non-empty token: 'A B'"),
        (lambda: Response(1000),
         "status code must have at most 3 digits: 1000"),
        (lambda: Response(status_code=-1),
         "status code must have at most 3 digits: -1"),
        (lambda: Interaction(_GET, (Response(200), Response(200))),
         "interim response must have a 1xx status, got 200"),
    ])
    def test_checks_keep_their_messages(self, make, message):
        with pytest.raises(ValueError) as e:
            make()
        assert str(e.value) == message

    # The namedtuple helpers build through the checked constructor.
    @pytest.mark.parametrize("make, message", [
        (lambda: Method._make(["G T"]),
         "method name must be a non-empty token: 'G T'"),
        (lambda: Method("GET")._replace(name=""),
         "method name must be a non-empty token: ''"),
        (lambda: Header._make(["A B", "v"]),
         "header name must be a non-empty token: 'A B'"),
        (lambda: Header("A", "v")._replace(name="A:"),
         "header name must be a non-empty token: 'A:'"),
        (lambda: Response(200)._replace(status_code=5000),
         "status code must have at most 3 digits: 5000"),
        (lambda: Response._make([-1, (), None, None]),
         "status code must have at most 3 digits: -1"),
        (lambda: Interaction._make([_GET, (Response(200), Response(200))]),
         "interim response must have a 1xx status, got 200"),
        (lambda: Interaction(_GET)._replace(
            responses=(Response(200), Response(101))),
         "interim response must have a 1xx status, got 200"),
    ], ids=["method-make", "method-replace", "header-make", "header-replace",
            "response-replace", "response-make", "interaction-make",
            "interaction-replace"])
    def test_make_and_replace_check_too(self, make, message):
        with pytest.raises(ValueError) as e:
            make()
        assert str(e.value) == message

    def test_make_and_replace_keep_the_class(self):
        for made, want in [
                (Method._make(["GET"]), Method("GET")),
                (Header("A", "v")._replace(value="w"), Header("A", "w")),
                (Response(200)._replace(status_code=404), Response(404)),
                (Interaction(_GET)._replace(responses=(Response(204),)),
                 Interaction(_GET, (Response(204),)))]:
            assert type(made) is type(want) and made == want

    # copy and every pickle protocol rebuild a checked record by a call of
    # its class: a good one keeps its exact class, a bad one fails the check.
    @pytest.mark.parametrize("cls, fields", CHECKED,
                             ids=[cls.__name__ for cls, _ in CHECKED])
    def test_copies_keep_their_exact_class(self, cls, fields):
        a = cls(**fields)
        for b in [copy.copy(a), copy.deepcopy(a)] + [
                pickle.loads(pickle.dumps(a, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
            assert type(b) is cls and b == a

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("bad, message", [
        (tuple.__new__(Method, ("a b",)),
         "method name must be a non-empty token: 'a b'"),
        (tuple.__new__(Header, ("a b", "v")),
         "header name must be a non-empty token: 'a b'"),
        (tuple.__new__(Response, (1000, (), None, None)),
         "status code must have at most 3 digits: 1000"),
        (tuple.__new__(Interaction, (_GET, (Response(200),) * 2)),
         "interim response must have a 1xx status, got 200"),
    ], ids=["method", "header", "response", "interaction"])
    def test_every_protocol_runs_the_checks(self, bad, message, protocol):
        for copy_of in (copy.copy, lambda x: pickle.loads(
                pickle.dumps(x, protocol))):
            with pytest.raises(IngestError) as e:
                copy_of(bad)
            assert str(e.value) == message


# The character set that is_token replaced, kept as a reference.
_OLD_TCHAR = set("!#$%&'*+-.^_`|~"
                 "0123456789"
                 "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "abcdefghijklmnopqrstuvwxyz")


@settings(max_examples=300)
@given(st.text(st.one_of(
    st.sampled_from("%+0aF:/?#\n\r\t ,;\"()[]{}@\\=GET-~|^`"),
    st.characters(min_codepoint=0x80, exclude_categories=("Cs",))),
    max_size=12))
def test_is_token_agrees_with_the_old_character_set(text):
    assert is_token(text) == (bool(text)
                              and all(c in _OLD_TCHAR for c in text))
