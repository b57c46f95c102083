"""Competency questions CQ1-CQ7 over the lifted fixture conversation."""

import os

import pytest

from httplift.ingest import load_transcript
from httplift.lift import lift_conversation, uri_node
from httplift.queries import (
    cq1_media_types, cq2_interaction_status, cq3_locations,
    cq4_conversation_status, cq5_negotiation, cq6_body_values,
    cq7_query_param,
)
from httplift.rdf import Iri, Literal, RDF_TYPE, XSD_INTEGER
from httplift.uri import parse_uri
from httplift import vocab

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lift_fixture(name):
    with open(os.path.join(FIXTURES, name)) as f:
        return lift_conversation(load_transcript(f.read()))


@pytest.fixture(scope="module")
def turtle_conv():
    return lift_fixture("registration.http")


@pytest.fixture(scope="module")
def json_conv():
    return lift_fixture("registration_json.http")


def requests_of(d):
    g = d.default_graph
    by_method = {}
    for q in g.subjects(RDF_TYPE, vocab.REQUEST):
        m = g.value(q, vocab.MTHD_PROP)
        by_method[g.value(m, vocab.METHOD_NAME).lexical] = q
    return by_method


class TestCq1:
    def test_fixture_media_type(self, turtle_conv):
        (b,) = cq1_media_types(turtle_conv)
        assert b["mt"] == Literal("text/turtle")

    def test_json_fixture(self, json_conv):
        (b,) = cq1_media_types(json_conv)
        assert b["mt"] == Literal("application/json")

    def test_requires_an_actual_body(self, turtle_conv):
        # the 201 response declares no content type and carries no body
        g = turtle_conv.default_graph
        for b in cq1_media_types(turtle_conv):
            assert g.objects(b["m"], vocab.BODY)


class TestCq2:
    def test_statuses(self, turtle_conv):
        rows = cq2_interaction_status(turtle_conv)
        statuses = sorted(int(b["status"].lexical) for b in rows)
        assert statuses == [200, 201]

    def test_brute_force_oracle(self, turtle_conv):
        # re-derive the expected rows by scanning the raw triples
        g = turtle_conv.default_graph
        expected = set()
        for t in g:
            if t.predicate == vocab.RESP:
                for sc in g.objects(t.object, vocab.SC_PROP):
                    for n in g.objects(sc, vocab.STATUS_CODE_NUMBER):
                        expected.add((t.subject, n))
        got = {(b["q"], b["status"]) for b in cq2_interaction_status(turtle_conv)}
        assert got == expected


class TestCq3:
    def test_location_target(self, turtle_conv):
        (b,) = cq3_locations(turtle_conv)
        assert b["next"] == uri_node(parse_uri("http://example.org:8080/reg/x8344"))

    def test_no_duplicates(self, turtle_conv):
        rows = cq3_locations(turtle_conv)
        assert len(rows) == len({b["next"] for b in rows})


class TestCq4:
    def test_follow_up_status(self, turtle_conv):
        rows = cq4_conversation_status(turtle_conv)
        assert [b["status"] for b in rows] == \
            [Literal("200", datatype=XSD_INTEGER)]

    def test_join_is_on_shared_uri_node(self, turtle_conv):
        # remove interaction 2 and the join yields nothing
        with open(os.path.join(FIXTURES, "registration.http"),
                  encoding="utf-8") as f:
            blocks = f.read().split("---")
        single = lift_conversation(
            load_transcript(blocks[0] + "---" + blocks[1]))
        assert cq4_conversation_status(single) == []


class TestCq5:
    def test_per_request(self, turtle_conv):
        reqs = requests_of(turtle_conv)
        assert cq5_negotiation(turtle_conv, reqs["GET"]) is True
        # no Accept header on the POST: vacuously not negotiated
        assert cq5_negotiation(turtle_conv, reqs["POST"]) is False

    def test_substring_containment_both_ways(self, json_conv):
        reqs = requests_of(json_conv)
        assert cq5_negotiation(json_conv, reqs["GET"]) is True


class TestCq6:
    def test_collection_flattened_in_order(self, turtle_conv):
        values = cq6_body_values(turtle_conv, Iri("http://example.org/ns#ids"))
        assert values == [Literal(str(n), datatype=XSD_INTEGER)
                          for n in (14, 35, 28, 6, 22)]

    def test_absent_property(self, turtle_conv):
        assert cq6_body_values(turtle_conv, Iri("http://example.org/ns#nope")) == []

    def test_non_collection_value_passed_through(self):
        body = ("@prefix ex: <http://example.org/> . ex:s ex:v 7 .\n")
        text = ("GET /p HTTP/1.1\nHost: h\n---\n"
                "HTTP/1.1 200 OK\nContent-Type: text/turtle\n"
                "Content-Length: %d\n\n%s" % (len(body), body))
        d = lift_conversation(load_transcript(text))
        assert cq6_body_values(d, Iri("http://example.org/v")) == \
            [Literal("7", datatype=XSD_INTEGER)]

    @pytest.mark.parametrize("value, members", [
        ("()", []),
        # The second node has no rdf:first: the list ends before it.
        ("_:l1 . _:l1 rdf:first 1 ; rdf:rest _:l2 . _:l2 rdf:rest rdf:nil",
         [Literal("1", datatype=XSD_INTEGER)]),
    ])
    def test_list_members(self, value, members):
        body = ("@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
                ".\n<http://example.org/s> <http://example.org/v> %s .\n"
                % value)
        text = ("GET /p HTTP/1.1\nHost: h\n---\n"
                "HTTP/1.1 200 OK\nContent-Type: text/turtle\n"
                "Content-Length: %d\n\n%s" % (len(body), body))
        d = lift_conversation(load_transcript(text))
        assert cq6_body_values(d, Iri("http://example.org/v")) == members


class TestCq7:
    def test_count_param(self, turtle_conv):
        assert cq7_query_param(turtle_conv, "count") == [Literal("5")]

    def test_unknown_param(self, turtle_conv):
        assert cq7_query_param(turtle_conv, "page") == []

    def test_repeated_params_all_reported(self):
        text = "GET /p?tag=a&tag=b HTTP/1.1\nHost: h\n"
        d = lift_conversation(load_transcript(text))
        assert cq7_query_param(d, "tag") == [Literal("a"), Literal("b")]


class TestRows:
    def test_rows_are_dicts_in_projection_order(self, turtle_conv):
        # The CLI prints a row's values in key order.
        for cq, keys in ((cq1_media_types, ["m", "mt"]),
                         (cq2_interaction_status, ["q", "status"]),
                         (cq3_locations, ["next"]),
                         (cq4_conversation_status, ["status"])):
            rows = cq(turtle_conv)
            assert rows, cq.__name__
            for row in rows:
                assert type(row) is dict and list(row) == keys, cq.__name__
