"""Closed-world validation rules R1-R10.

The clean fixture must validate with no findings; each mutation below breaks
exactly one rule and must be reported under exactly that rule id.
"""

import os

import pytest

from httplift.ingest import load_transcript
from httplift.lift import lift_conversation
from httplift.rdf import (
    BlankNode, Iri, Literal, Triple, Graph, Dataset, RDF_FIRST, RDF_NIL,
    RDF_REST, RDF_TYPE, XSD_INTEGER,
)
from httplift.validate import validate, explain, RULE_IDS
from httplift import cli, vocab
from httplift.turtle import format_term, parse_trig, parse_turtle

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def clean_dataset():
    with open(os.path.join(FIXTURES, "registration.http")) as f:
        return lift_conversation(load_transcript(f.read()))


def with_graph(dataset, graph):
    return Dataset(graph, dict(dataset.named_graphs))


def node(g, rdf_type, **by):
    """The unique node of `rdf_type` whose properties match `by`."""
    candidates = g.subjects(RDF_TYPE, rdf_type)
    for prop, value in by.items():
        pred = getattr(vocab, prop)
        candidates = {c for c in candidates if g.value(c, pred) == value}
    (only,) = candidates
    return only


@pytest.fixture(scope="module")
def clean():
    return clean_dataset()


class TestCleanFixture:
    def test_no_findings(self, clean):
        assert validate(clean).findings == ()

    def test_all_rules_checked(self, clean):
        assert tuple(validate(clean).checked_rules) == tuple(RULE_IDS)


def _mutations():
    """(rule, graph-mutator) pairs; each breaks exactly one rule."""
    POST = vocab.registry().methods["POST"]
    GET = vocab.registry().methods["GET"]
    OK = Iri(vocab.SC + "OK")
    Created = Iri(vocab.SC + "Created")

    def q1(g):
        return node(g, vocab.REQUEST, MTHD_PROP=POST)

    def q2(g):
        return node(g, vocab.REQUEST, MTHD_PROP=GET)

    def r1(g):
        return node(g, vocab.FINAL_RESPONSE, SC_PROP=Created)

    def r2(g):
        return node(g, vocab.FINAL_RESPONSE, SC_PROP=OK)

    def r1_second_method(g):
        return Graph([*g, Triple(q1(g), vocab.MTHD_PROP, GET)])

    def r2_drop_method(g):
        (t,) = g.match(q1(g), vocab.MTHD_PROP, None)
        return Graph(set(g) - {t})

    def r3_drop_status(g):
        (t,) = g.match(r1(g), vocab.SC_PROP, None)
        return Graph(set(g) - {t})

    def r4_wrong_number(g):
        (t,) = g.match(OK, vocab.STATUS_CODE_NUMBER, None)
        return Graph(set(g) - {t} | {
            Triple(OK, vocab.STATUS_CODE_NUMBER,
                   Literal("201", datatype=XSD_INTEGER))})

    def r5_second_final(g):
        return Graph([*g, Triple(q1(g), vocab.RESP, r2(g))])

    def r6_drop_content_type(g):
        (t,) = g.match(r2(g), vocab.CONTENT_TYPE, None)
        return Graph(set(g) - {t})

    def r8_accept_mismatch(g):
        (t,) = g.match(None, vocab.MEDIA_TYPE, None)
        return Graph(set(g) - {t} | {
            Triple(t.subject, vocab.MEDIA_TYPE, Literal("application/json"))})

    def r9_bad_method_name(g):
        (t,) = g.match(q1(g), vocab.MTHD_PROP, None)
        bad = BlankNode("badmethod")
        return Graph(set(g) - {t} | {
            Triple(t.subject, vocab.MTHD_PROP, bad),
            Triple(bad, vocab.METHOD_NAME, Literal("BAD METHOD"))})

    def r10_drop_link(g):
        (hdr,) = g.subjects(RDF_TYPE, vocab.LOCATION_HEADER)
        (t,) = g.match(hdr, vocab.LINK, None)
        extra = set(g.match(hdr, vocab.IS_LOCATION_HEADER, None))
        materialized = set(g.match(None, vocab.LOCATION, None))
        return Graph(set(g) - {t} - extra - materialized)

    return [
        ("R1", r1_second_method),
        ("R2", r2_drop_method),
        ("R3", r3_drop_status),
        ("R4", r4_wrong_number),
        ("R5", r5_second_final),
        ("R6", r6_drop_content_type),
        ("R8", r8_accept_mismatch),
        ("R9", r9_bad_method_name),
        ("R10", r10_drop_link),
    ]


@pytest.mark.parametrize("rule,mutate", _mutations(),
                         ids=[r for r, _ in _mutations()])
def test_mutation_trips_exactly_one_rule(clean, rule, mutate):
    mutated = with_graph(clean, mutate(clean.default_graph))
    report = validate(mutated)
    assert [f.rule_id for f in report.findings] == [rule], report.to_text()


def test_r7_head_with_body(clean):
    g = clean.default_graph
    GET = vocab.registry().methods["GET"]
    q2 = node(g, vocab.REQUEST, MTHD_PROP=GET)
    (t,) = g.match(q2, vocab.MTHD_PROP, None)
    head = vocab.registry().methods["HEAD"]
    g = Graph(set(g) - {t} | {
        Triple(q2, vocab.MTHD_PROP, head),
        Triple(head, RDF_TYPE, vocab.METHOD),
        Triple(head, vocab.METHOD_NAME, Literal("HEAD"))})
    report = validate(with_graph(clean, g))
    assert [f.rule_id for f in report.findings] == ["R7"], report.to_text()


class TestSeverities:
    def test_r8_is_a_warning(self, clean):
        for rule, mutate in _mutations():
            if rule == "R8":
                mutated = with_graph(clean, mutate(clean.default_graph))
                (finding,) = validate(mutated).findings
                assert finding.severity == "warning"
                assert not validate(mutated).violations  # warnings pass

    def test_r4_out_of_range_is_a_warning(self, clean):
        g = clean.default_graph
        r1 = node(g, vocab.FINAL_RESPONSE, SC_PROP=Iri(vocab.SC + "Created"))
        weird = BlankNode("weird")
        (t,) = g.match(r1, vocab.SC_PROP, None)
        g = Graph(set(g) - {t} | {
            Triple(r1, vocab.SC_PROP, weird),
            Triple(weird, vocab.STATUS_CODE_NUMBER,
                   Literal("999", datatype=XSD_INTEGER))})
        (finding,) = validate(with_graph(clean, g)).findings
        assert finding.rule_id == "R4" and finding.severity == "warning"

    def test_violations_fail_the_report(self, clean):
        g = clean.default_graph
        GET = vocab.registry().methods["GET"]
        q = node(g, vocab.REQUEST, MTHD_PROP=GET)
        (t,) = g.match(q, vocab.MTHD_PROP, None)
        report = validate(with_graph(clean, Graph(set(g) - {t})))
        assert report.violations


class TestReporting:
    def test_explain_covers_all_rules(self):
        for rule in RULE_IDS:
            text = explain(rule)
            assert rule in text or text

    def test_explain_unknown_rule_errors(self):
        with pytest.raises(KeyError):
            explain("R99")

    def test_explain_quotes_a_long_rule_id_cut(self):
        with pytest.raises(KeyError) as info:
            explain("R" * 3000)
        assert info.value.args == (
            "unknown rule id: 'RRRRRRRRRRRR...RRRRRRRRRRRRR'",)

    def test_long_content_type_gives_short_report_lines(self):
        # R8 quotes the content type with reprlib.repr; a short one prints
        # whole, as the golden reports have it.
        content_type = "text/" + "x" * 3000
        report = validate(lift_conversation(load_transcript(
            "GET /a HTTP/1.1\nHost: h\nAccept: text/turtle\n---\n"
            "HTTP/1.1 200 OK\nContent-Type: %s\n\nbody\n" % content_type)))
        (finding,) = report.findings
        assert finding.rule_id == "R8"
        assert finding.message == (
            "content type 'text/xxxxxxx...xxxxxxxxxxxxx' matches no accepted"
            " media range")
        for text in (report.to_text(), report.to_tsv()):
            lines = [line for line in text.splitlines() if "R8" in line]
            assert lines and all(len(line) < 200 for line in lines), text

    def test_status_instance_without_a_number(self):
        r, s = BlankNode("r"), BlankNode("s")
        g = Graph({Triple(r, RDF_TYPE, vocab.RESPONSE),
                   Triple(r, vocab.SC_PROP, s)})
        assert validate(Dataset(g, {})).to_text() == (
            "VIOLATION [R3] _:s: status instance has no status code number\n")

    def test_to_text_and_tsv(self, clean):
        g = clean.default_graph
        q = node(g, vocab.REQUEST, MTHD_PROP=vocab.registry().methods["GET"])
        (t,) = g.match(q, vocab.MTHD_PROP, None)
        report = validate(with_graph(clean, Graph(set(g) - {t})))
        assert "R2" in report.to_text()
        line = report.to_tsv().strip().splitlines()[-1]
        assert line.split("\t")[0] == "R2"

    def test_findings_sorted_by_rule(self, clean):
        # break two rules at once; R2 must come before R3
        g = clean.default_graph
        q = node(g, vocab.REQUEST, MTHD_PROP=vocab.registry().methods["GET"])
        r = node(g, vocab.FINAL_RESPONSE, SC_PROP=Iri(vocab.SC + "Created"))
        (t1,) = g.match(q, vocab.MTHD_PROP, None)
        (t2,) = g.match(r, vocab.SC_PROP, None)
        report = validate(with_graph(clean, Graph(set(g) - {t1, t2})))
        assert [f.rule_id for f in report.findings] == ["R2", "R3"]


class TestLocationTargets:
    """A Location value whose http authority is not uri-host [":" port] is
    not lifted to a URI, so R10 reports it and `validate` exits 1."""

    @staticmethod
    def transcript(location):
        return ("POST /a HTTP/1.1\nHost: h\n---\n"
                "HTTP/1.1 201 Created\nLocation: %s\n" % location)

    @pytest.mark.parametrize("location", ["http://h:8x/b", "http://:80/b"])
    def test_bad_authority_is_reported_by_r10(self, location):
        d = lift_conversation(load_transcript(self.transcript(location)))
        (finding,) = validate(d).findings
        assert finding.rule_id == "R10" and finding.severity == "violation"

    @pytest.mark.parametrize("location, code", [
        ("http://h:8x/b", 1), ("http://:80/b", 1), ("http://h:8080/b", 0),
        ("http://u@[::1]:80/b", 0), ("/b", 0)])
    def test_validate_exit_code(self, tmp_path, capsys, location, code):
        path = tmp_path / "t.http"
        path.write_text(self.transcript(location))
        assert cli.main(["validate", str(path)]) == code
        out = capsys.readouterr().out
        assert ("R10" in out) is bool(code)


class TestFunctionalProperties:
    """R1 checks every owl:FunctionalProperty of the ontology, not only
    the six it checked by name."""

    def test_header_with_two_values(self, clean):
        g = clean.default_graph
        (hdr,) = {t.subject for t in g.match(None, vocab.HDR_NAME, None)
                  if t.object.lexical == "Location"}
        g = Graph([*g, Triple(hdr, vocab.HDR_VALUE, Literal("/other"))])
        (finding,) = validate(with_graph(clean, g)).findings
        assert finding == ("R1", "violation", hdr, "2 values for "
                           "functional property :hdrValue")

    @pytest.mark.parametrize("prop", ["SCHEME", "AUTHORITY", "PATH", "ID_RES",
                                      "METHOD_NAME"])
    def test_each_functional_property_is_checked(self, clean, prop):
        pred = getattr(vocab, prop)
        (t, *_) = sorted(clean.default_graph.match(None, pred, None))
        g = Graph([*clean.default_graph,
                   Triple(t.subject, pred, Literal("x"))])
        (finding,) = validate(with_graph(clean, g)).findings
        assert finding.rule_id == "R1" and finding.focus == t.subject


class TestResponsePairs:
    """R5, R7 and R8 read each request-response pair of :resp."""

    HEAD = vocab.registry().methods["HEAD"]

    def findings(self, triples, rule):
        report = validate(Dataset(Graph(triples)))
        return [f for f in report.findings if f.rule_id == rule]

    def test_response_under_two_head_requests(self):
        q1, q2, r = BlankNode("q1"), BlankNode("q2"), BlankNode("r")
        found = self.findings([
            Triple(q1, vocab.MTHD_PROP, self.HEAD),
            Triple(q2, vocab.MTHD_PROP, self.HEAD),
            Triple(q1, vocab.RESP, r), Triple(q2, vocab.RESP, r),
            Triple(r, vocab.BODY, BlankNode("c"))], "R7")
        assert found == [("R7", "violation", r,
                          "response to a HEAD request has a body")] * 2

    def test_r5_counts_distinct_final_responses(self):
        q = BlankNode("q")
        finals = [BlankNode("f1"), BlankNode("f2")]
        interims = [BlankNode("i1"), BlankNode("i2"), BlankNode("i3")]
        triples = [Triple(q, vocab.RESP, r) for r in finals + interims]
        triples += [Triple(r, RDF_TYPE, vocab.INTERIM_RESPONSE)
                    for r in interims]
        # One final response typed, one not; a repeated triple is one.
        triples += [Triple(finals[0], RDF_TYPE, vocab.FINAL_RESPONSE),
                    Triple(q, vocab.RESP, finals[0])]
        assert self.findings(triples, "R5") == [
            ("R5", "violation", q, "request has 2 non-interim responses")]
        one_final = [t for t in triples if t.object != finals[1]]
        assert self.findings(one_final, "R5") == []

    def test_r8_warns_for_each_pair(self):
        q1, q2, r, ranges = (BlankNode(x) for x in ("q1", "q2", "r", "a"))
        found = self.findings([
            Triple(q1, vocab.RESP, r), Triple(q2, vocab.RESP, r),
            Triple(q1, vocab.ACCEPT, ranges), Triple(q2, vocab.ACCEPT, ranges),
            Triple(ranges, vocab.MEDIA_TYPE, Literal("text/turtle")),
            Triple(r, vocab.CONTENT_TYPE, Literal("text/html"))], "R8")
        assert [f.focus for f in found] == [r, r]


def _short(lexical):
    return lexical if len(lexical) < 20 else "%d-digits" % len(lexical)


class TestStatusCodeLexical:
    """R4 reads a status code number by the xsd:integer lexical form
    [+-]?[0-9]+, not by what int() accepts, takes it only with an integer
    datatype of the ontology's :threeDigit, and checks that range."""

    @staticmethod
    def findings(clean, lexical, datatype=XSD_INTEGER, language=None):
        g = clean.default_graph
        r = node(g, vocab.FINAL_RESPONSE, SC_PROP=Iri(vocab.SC + "Created"))
        (t,) = g.match(r, vocab.SC_PROP, None)
        status = BlankNode("status")
        g = Graph(set(g) - {t} | {
            Triple(r, vocab.SC_PROP, status),
            Triple(status, vocab.STATUS_CODE_NUMBER,
                   Literal(lexical, datatype, language))})
        return [(f.severity, f.message)
                for f in validate(with_graph(clean, g)).findings]

    @pytest.mark.parametrize("lexical", ["+200", "0200", "-0200",
                                         "0" * 637 + "201"], ids=_short)
    def test_integer_forms(self, clean, lexical):
        found = self.findings(clean, lexical)
        assert all("not an integer" not in m for _, m in found), found

    @pytest.mark.parametrize("lexical", [
        "2_00", "1_000", "٢٠٠", " 200", "200 ", "+", "",
        "2e2", "0x1F", "1" * 641], ids=_short)
    def test_other_forms_are_not_integers(self, clean, lexical):
        assert self.findings(clean, lexical) == [
            ("violation", "status code number is not an integer: %s"
             % format_term(Literal(lexical, datatype=XSD_INTEGER),
                           vocab.PREFIXES))]

    def test_out_of_range_warns(self, clean):
        assert self.findings(clean, "+0600") == [
            ("warning", "status code 600 belongs to no status class")]

    @pytest.mark.parametrize("lexical", ["600", "799", "999", "0", "-0"])
    def test_three_digit_without_a_class_warns(self, clean, lexical):
        assert self.findings(clean, lexical) == [
            ("warning", "status code %d belongs to no status class"
             % int(lexical))]

    @pytest.mark.parametrize("lexical", ["-5", "-1", "1000", "+01000",
                                         "1" * 640], ids=_short)
    def test_outside_three_digit_is_a_violation(self, clean, lexical):
        assert self.findings(clean, lexical) == [
            ("violation", "status code %d is not a :threeDigit"
             % int(lexical))]

    @pytest.mark.parametrize("datatype", [
        XSD_INTEGER, vocab.THREE_DIGIT,
        Iri(vocab.XSD + "nonNegativeInteger")], ids=lambda d: d.value)
    def test_integer_datatypes(self, clean, datatype):
        assert self.findings(clean, "201", datatype) == []

    @pytest.mark.parametrize("datatype,language", [
        (Iri(vocab.XSD + "string"), None), (None, "en"),
        (Iri(vocab.XSD + "int"), None),
        (Iri(vocab.XSD + "positiveInteger"), None),
        (Iri(vocab.XSD + "decimal"), None),
        (Iri(vocab.HTTP + "StatusCode"), None)],
        ids=["string", "lang", "int", "positiveInteger", "decimal", "iri"])
    def test_other_datatypes_are_not_integers(self, clean, datatype,
                                              language):
        literal = Literal("201", datatype, language)
        assert self.findings(clean, "201", datatype, language) == [
            ("violation", "status code number is not an integer: %s"
             % format_term(literal, vocab.PREFIXES))]


class TestRequiredValues:
    """R2, R3, R6 and R10 report each focus node with no value of a
    required property, once per time the node is listed: a status node
    shared by two responses, a message with two bodies and a header with
    two names each give two identical lines."""

    def test_every_missing_value_is_reported(self):
        dataset = parse_trig(
            "@prefix : <http://w3id.org/http#> .\n"
            "@prefix ex: <http://example.org/> .\n"
            "ex:q a :Request .\n"
            "ex:r1 a :Response .\n"
            "ex:r2 a :Response ; :sc ex:s .\n"
            "ex:r3 a :Response ; :sc ex:s .\n"
            "ex:m :body ex:b1 , ex:b2 .\n"
            'ex:h :hdrName "Location" , "location" .\n')
        assert validate(dataset).to_text() == (
            "VIOLATION [R1] <http://example.org/h>: 2 values for functional"
            " property :hdrName\n"
            "VIOLATION [R1] <http://example.org/m>: 2 values for functional"
            " property :body\n"
            "VIOLATION [R2] <http://example.org/q>: request has no effective"
            " URI\n"
            "VIOLATION [R2] <http://example.org/q>: request has no method\n"
            "VIOLATION [R3] <http://example.org/r1>: response has no status"
            " instance\n"
            "VIOLATION [R3] <http://example.org/s>: status instance has no"
            " status code number\n"
            "VIOLATION [R3] <http://example.org/s>: status instance has no"
            " status code number\n"
            "VIOLATION [R6] <http://example.org/m>: message has a body but no"
            " declared content type\n"
            "VIOLATION [R6] <http://example.org/m>: message has a body but no"
            " declared content type\n"
            "VIOLATION [R10] <http://example.org/h>: Location header value"
            " could not be lifted to a URI\n"
            "VIOLATION [R10] <http://example.org/h>: Location header value"
            " could not be lifted to a URI\n")

    def test_pairs_are_restrictions_of_the_ontology(self):
        # R2's, R3's and R10's (class, property) pairs are the
        # owl:someValuesFrom restrictions under each class's rdfs:subClassOf
        # or owl:equivalentClass, directly or in an owl:intersectionOf list.
        onto = parse_turtle(vocab.ontology_text(extensions=True))

        def owl(name):
            return Iri(vocab.OWL + name)

        def restricted(cls):
            """The properties of cls's owl:someValuesFrom restrictions."""
            nodes = [n for axiom in (Iri(vocab.RDFS + "subClassOf"),
                                     owl("equivalentClass"))
                     for n in onto.objects(cls, axiom)]
            for head in [h for n in nodes
                         for h in onto.objects(n, owl("intersectionOf"))]:
                while head != RDF_NIL:
                    nodes.append(onto.value(head, RDF_FIRST))
                    head = onto.value(head, RDF_REST)
            return {onto.value(n, owl("onProperty")) for n in nodes
                    if onto.objects(n, owl("someValuesFrom"))}

        assert restricted(vocab.REQUEST) == {vocab.MTHD_PROP, vocab.URI_PROP}
        assert restricted(vocab.RESPONSE) == {vocab.SC_PROP}
        assert restricted(vocab.STATUS_CODE) == {vocab.STATUS_CODE_NUMBER}
        assert restricted(vocab.LOCATION_HEADER) == {vocab.LINK}
