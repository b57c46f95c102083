"""Acceptance gate: end-to-end checks over the golden conversation fixture.

Each test prints a single CRITERION n: PASS/FAIL line so the gate can be
read off the pytest output directly.
"""

import os
import random
import time

import pytest

from httplift.ingest import load_transcript, load_har
from httplift.lift import lift_conversation, uri_node, vocabulary_scan
from httplift.model import (
    Conversation, Interaction, Method, Request, Response,
)
from httplift.queries import (
    cq2_interaction_status, cq3_locations, cq4_conversation_status,
    cq5_negotiation, cq6_body_values, cq7_query_param,
)
from httplift.rdf import (
    Iri, BlankNode, Literal, Triple, Graph, Dataset,
    isomorphic_datasets, RDF_TYPE, XSD_INTEGER, XSD_BOOLEAN,
)
from httplift.turtle import parse_turtle, parse_trig, serialize_turtle
from httplift.uri import parse_uri, recompose
from httplift.validate import validate
from httplift import vocab

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    with open(os.path.join(FIXTURES, name)) as f:
        return f.read()


def lift_fixture():
    return lift_conversation(load_transcript(fixture("registration.http")))


def report(n, ok):
    print("CRITERION %d: %s" % (n, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed" % n


def test_criterion_1_golden_fixture_isomorphism():
    """Lifting the example transcript matches the hand-written TriG fixture
    under exact isomorphism, in under a second."""
    start = time.monotonic()
    lifted = lift_fixture()
    golden = parse_trig(fixture("registration_golden.trig"))
    ok = isomorphic_datasets(lifted, golden)
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 1.0)


def test_criterion_2_competency_questions():
    d = lift_fixture()
    g = d.default_graph
    uri2 = uri_node(parse_uri("http://example.org:8080/reg/x8344"))

    cq2 = {int(b["status"].lexical) for b in cq2_interaction_status(d)}
    cq3 = {b["next"] for b in cq3_locations(d)}
    cq4 = [int(b["status"].lexical) for b in cq4_conversation_status(d)]
    cq6 = cq6_body_values(d, Iri("http://example.org/ns#ids"))
    cq7 = cq7_query_param(d, "count")
    (q2,) = g.subjects(vocab.URI_PROP, uri2)
    cq5 = cq5_negotiation(d, q2)

    ok = (cq2 == {201, 200}
          and cq3 == {uri2}
          and cq4 == [200]
          and cq6 == [Literal(str(n), datatype=XSD_INTEGER)
                      for n in (14, 35, 28, 6, 22)]
          and cq7 == [Literal("5")]
          and cq5 is True)
    report(2, ok)


def test_criterion_3_status_classification():
    # the ontology's five status classes partition 100-599 of the codes
    # 0-999 by their first digit
    names = {1: "Informational", 2: "Successful", 3: "Redirection",
             4: "ClientError", 5: "ServerError"}
    intervals = vocab.registry().intervals
    ok = all(
        [term for term, (_, lo, hi) in intervals.items()
         if term != vocab.THREE_DIGIT and lo <= code <= hi]
        == ([Iri(vocab.SC + names[code // 100])] if 100 <= code <= 599
            else [])
        for code in range(1000))

    # a response carrying each embedded status individual's number lifts
    # to that individual
    onto = parse_turtle(vocab.ontology_text())
    seen = {}
    for node in onto.subjects(RDF_TYPE, vocab.STATUS_CODE):
        number = onto.value(node, vocab.STATUS_CODE_NUMBER)
        seen[int(number.lexical)] = node
    ok = ok and len(seen) == 51 and all(
        lifted_nodes("GET", code)[1] == node for code, node in seen.items())
    ok = ok and seen.get(201) == Iri(vocab.SC + "Created") \
        and seen.get(226) == Iri(vocab.SC + "IMUsed") \
        and seen.get(506) == Iri(vocab.SC + "VariantAlsoNegotiates")
    report(3, ok)


def lifted_nodes(method, code):
    """The method and status nodes that one request with `method`,
    answered with `code`, lifts to."""
    request = Request(Method(method), parse_uri("http://h/p"))
    interaction = Interaction(request, (Response(code),))
    g = lift_conversation(Conversation((interaction,))).default_graph
    (m,) = g.match(None, vocab.MTHD_PROP, None)
    (s,) = g.match(None, vocab.SC_PROP, None)
    return m.object, s.object


def _mutations(g):
    """One graph mutation per validation rule, keyed by the rule it breaks."""
    methods = vocab.registry().methods
    POST, GET = methods["POST"], methods["GET"]
    OK, Created = Iri(vocab.SC + "OK"), Iri(vocab.SC + "Created")

    def pick(rdf_type, pred, value):
        (n,) = {c for c in g.subjects(RDF_TYPE, rdf_type)
                if g.value(c, pred) == value}
        return n

    q1 = pick(vocab.REQUEST, vocab.MTHD_PROP, POST)
    q2 = pick(vocab.REQUEST, vocab.MTHD_PROP, GET)
    r1 = pick(vocab.FINAL_RESPONSE, vocab.SC_PROP, Created)
    r2 = pick(vocab.FINAL_RESPONSE, vocab.SC_PROP, OK)

    def drop(t, *added):
        """g without t, with the triples `added`."""
        return Graph(set(g) - {t} | set(added))

    (t_q1m,) = g.match(q1, vocab.MTHD_PROP, None)
    (t_q2m,) = g.match(q2, vocab.MTHD_PROP, None)
    (t_r1s,) = g.match(r1, vocab.SC_PROP, None)
    (t_okn,) = g.match(OK, vocab.STATUS_CODE_NUMBER, None)
    (t_ct,) = g.match(r2, vocab.CONTENT_TYPE, None)
    (t_mt,) = g.match(None, vocab.MEDIA_TYPE, None)
    (hdr,) = g.subjects(RDF_TYPE, vocab.LOCATION_HEADER)
    (t_link,) = g.match(hdr, vocab.LINK, None)

    bad = BlankNode("badmethod")
    head = vocab.registry().methods["HEAD"]
    return {
        "R1": Graph([*g, Triple(q1, vocab.MTHD_PROP, GET)]),
        "R2": drop(t_q1m),
        "R3": drop(t_r1s),
        "R4": drop(t_okn, Triple(OK, vocab.STATUS_CODE_NUMBER,
                                 Literal("201", datatype=XSD_INTEGER))),
        "R5": Graph([*g, Triple(q1, vocab.RESP, r2)]),
        "R6": drop(t_ct),
        "R7": drop(t_q2m, Triple(q2, vocab.MTHD_PROP, head),
                   Triple(head, RDF_TYPE, vocab.METHOD),
                   Triple(head, vocab.METHOD_NAME, Literal("HEAD"))),
        "R8": drop(t_mt, Triple(t_mt.subject, vocab.MEDIA_TYPE,
                                Literal("application/json"))),
        "R9": drop(t_q1m, Triple(q1, vocab.MTHD_PROP, bad),
                   Triple(bad, vocab.METHOD_NAME, Literal("BAD METHOD"))),
        "R10": Graph(set(g) - {t_link}
                     - set(g.match(hdr, vocab.IS_LOCATION_HEADER, None))
                     - set(g.match(None, vocab.LOCATION, None))),
    }


def test_criterion_4_mutation_matrix():
    d = lift_fixture()
    ok = validate(d).findings == ()
    for rule, mutated in _mutations(d.default_graph).items():
        found = [f.rule_id for f in
                 validate(Dataset(mutated, dict(d.named_graphs))).findings]
        if found != [rule]:
            ok = False
    report(4, ok)


def test_criterion_5_round_trip_property():
    rng = random.Random(8344)
    EX = "http://example.org/"
    iris = [Iri(EX + w) for w in ("s", "p", "o", "alpha", "beta")]
    blanks = [BlankNode("n%d" % i) for i in range(4)]
    lits = [Literal("plain"), Literal('tricky"\n\\'), Literal("bonjour", language="fr"),
            Literal("9", datatype=XSD_INTEGER),
            Literal("false", datatype=XSD_BOOLEAN)]
    start = time.monotonic()
    ok = True
    for _ in range(1000):
        triples = [Triple(rng.choice(iris + blanks), rng.choice(iris),
                          rng.choice(iris + blanks + lits))
                   for _ in range(rng.randrange(0, 9))]
        g = Graph(triples)
        if not isomorphic_datasets(Dataset(parse_turtle(serialize_turtle(
                g, {"ex": EX}))), Dataset(g)):
            ok = False
            break
    elapsed = time.monotonic() - start
    report(5, ok and elapsed < 30.0)


def test_criterion_6_uri_decomposition():
    u = parse_uri("http://example.com:8042/over/there?name=ferret#nose")
    ok = (u.scheme == "http" and u.authority == "example.com:8042"
          and u.path == "/over/there" and u.query == "name=ferret"
          and u.fragment == "nose")

    rng = random.Random(3986)
    alphabet = "abcxyz0129-._~%41!$&'()*+,;=:@"
    count = 0
    for _ in range(500):
        uri = "%s://%s%s" % (
            rng.choice(("http", "https", "ftp", "urn+x")),
            "".join(rng.choice("abchost.:19@") for _ in range(rng.randrange(1, 9)))
                .replace("?", "").replace("/", ""),
            "/" + "".join(rng.choice(alphabet + "/")
                          for _ in range(rng.randrange(0, 12))))
        if rng.random() < 0.6:
            uri += "?" + "".join(rng.choice(alphabet + "=&/?")
                                 for _ in range(rng.randrange(0, 10)))
        if rng.random() < 0.6:
            uri += "#" + "".join(rng.choice(alphabet + "/?")
                                 for _ in range(rng.randrange(0, 8)))
        try:
            if recompose(parse_uri(uri)) != uri:
                ok = False
        except ValueError:
            # URIs with undecodable queries may be rejected, never corrupted
            pass
        count += 1
    report(6, ok and count == 500)


def test_criterion_7_ontology_integrity():
    onto = parse_turtle(vocab.ontology_text())
    methods = {"GET", "HEAD", "POST", "PUT", "DELETE",
               "CONNECT", "OPTIONS", "TRACE", "PATCH"}
    found = onto.subjects(RDF_TYPE, vocab.METHOD)
    ok = len(found) == 9
    for m in found:
        name = m.value.rsplit("#", 1)[1]
        ok = ok and name in methods \
            and onto.value(m, vocab.METHOD_NAME) == Literal(name) \
            and lifted_nodes(name, 200)[0] == m

    statuses = onto.subjects(RDF_TYPE, vocab.STATUS_CODE)
    ok = ok and len(statuses) == 51
    for s in statuses:
        code = int(onto.value(s, vocab.STATUS_CODE_NUMBER).lexical)
        ok = ok and onto.value(s, vocab.STATUS_CODE_NUMBER) == \
            Literal(str(code), datatype=XSD_INTEGER) \
            and lifted_nodes("GET", code)[1] == s

    ok = ok and vocabulary_scan(lift_fixture()) == set()
    report(7, ok)


def test_criterion_8_cross_loader_equivalence():
    from_transcript = lift_fixture()
    from_har = lift_conversation(load_har(fixture("registration.har")))
    report(8, isomorphic_datasets(from_transcript, from_har))
