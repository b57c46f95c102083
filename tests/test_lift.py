"""Lifting HTTP messages into RDF datasets."""

import os
import subprocess
import sys

import pytest

import httplift
from httplift import cli, turtle
from httplift.ingest import load_transcript, parse_http_request, \
    parse_http_response
from httplift.lift import (
    Lifter, lift_conversation, uri_node, vocabulary_scan,
    DEFAULT_URI_NODE_BASE,
)
from httplift.model import (
    Conversation, Interaction, Method, Request, Response,
)
from httplift.rdf import (
    Iri, BlankNode, Literal, Triple, Dataset, Graph, isomorphic_datasets,
    RDF_TYPE, XSD_INTEGER,
)
from httplift.turtle import parse_trig, parse_turtle
from httplift.uri import parse_uri
from httplift.validate import validate
from httplift import vocab

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    with open(os.path.join(FIXTURES, name)) as f:
        return f.read()


def lift_fixture(name="registration.http", base=None):
    return lift_conversation(load_transcript(fixture(name)), base=base)


def lift_uri(text):
    """The node of one lifted URI and the graph of its triples."""
    lifter = Lifter()
    node = lifter.lift_uri(parse_uri(text))
    return node, Graph(lifter.triples)


def lift_interaction(i):
    return lift_conversation(Conversation((i,)))


class TestUriNodes:
    def test_deterministic_iri(self):
        u = parse_uri("http://example.org:8080/reg?count=5")
        node = uri_node(u)
        assert node == Iri(DEFAULT_URI_NODE_BASE +
                           "http%3A%2F%2Fexample.org%3A8080%2Freg%3Fcount%3D5")

    def test_lift_uri_components(self):
        node, g = lift_uri("http://h:1/p?a=1#f")
        val = lambda p: g.value(node, p)
        assert val(RDF_TYPE) == vocab.URI
        assert val(vocab.SCHEME) == Literal("http")
        assert val(vocab.AUTHORITY) == Literal("h:1")
        assert val(vocab.PATH) == Literal("/p")
        assert val(vocab.QUERY) == Literal("a=1")
        assert val(vocab.FRAGMENT) == Literal("f")
        assert val(vocab.ID_RES) == Literal("http://h:1/p")

    def test_absent_query_and_fragment_not_asserted(self):
        node, g = lift_uri("http://h/p")
        assert g.value(node, vocab.QUERY) is None
        assert g.value(node, vocab.FRAGMENT) is None

    def test_query_params_lifted(self):
        node, g = lift_uri("http://h/p?a=1&b=2")
        params = g.objects(node, vocab.QUERY_PARAMS)
        assert len(params) == 2
        names = {g.value(p, vocab.PARAM_NAME) for p in params}
        assert names == {Literal("a"), Literal("b")}


class TestConversationLift:
    def test_matches_golden(self):
        lifted = lift_fixture()
        golden = parse_trig(fixture("registration_golden.trig"))
        assert isomorphic_datasets(lifted, golden)

    def test_uri_nodes_unify_across_interactions(self):
        d = lift_fixture()
        g = d.default_graph
        target = uri_node(parse_uri("http://example.org:8080/reg/x8344"))
        # the Location target of interaction 1 ...
        assert g.subjects(vocab.LOCATION, target)
        # ... is the very node interaction 2's request points at
        assert g.subjects(vocab.URI_PROP, target)

    def test_one_object_per_literal_and_body_blank_node(self):
        d = lift_fixture()
        for g, kind in [(d.default_graph, Literal),
                        *[(g, BlankNode) for g in d.named_graphs.values()]]:
            ids = {}
            for t in g:
                for x in (t.subject, t.object):
                    if isinstance(x, kind):
                        ids.setdefault(x, set()).add(id(x))
            assert ids and all(len(same) == 1 for same in ids.values())

    def test_long_bad_base_gives_a_short_message(self):
        c = load_transcript("GET /a HTTP/1.1\nHost: h\n")
        with pytest.raises(ValueError) as info:
            lift_conversation(c, "http://x/" + "<" * 3000)
        assert str(info.value).startswith("not an IRI: ")
        assert len(str(info.value)) < 200

    def test_relative_location_is_resolved(self):
        # RFC 3986 section 5.2 against the request URI; R10 used to flag it.
        d = lift_conversation(load_transcript(
            "POST /a/b/c HTTP/1.1\nHost: h\n---\n"
            "HTTP/1.1 201 Created\nLocation: ../d?x=1\n"))
        target = uri_node(parse_uri("http://h/a/d?x=1"))
        assert d.default_graph.subjects(vocab.LOCATION, target)
        assert validate(d).findings == ()

    @pytest.mark.parametrize("location", ["http://h:8x/b", "http://:80/b"])
    def test_location_with_a_bad_authority_is_not_linked(self, location):
        # The same authority in a request target is an exit-2 error; in a
        # Location value it is left unlinked, and R10 reports it.
        d = lift_conversation(load_transcript(
            "POST /a HTTP/1.1\nHost: h\n---\n"
            "HTTP/1.1 201 Created\nLocation: %s\n" % location))
        g = d.default_graph
        (header,) = g.subjects(RDF_TYPE, vocab.LOCATION_HEADER)
        assert g.value(header, vocab.HDR_VALUE) == Literal(location)
        assert not g.match(None, vocab.LINK, None)
        assert not g.match(None, vocab.LOCATION, None)

    @pytest.mark.parametrize("location, target", [
        ("http://h:8080/b", "http://h:8080/b"),
        ("http://u@[::1]:80/b", "http://u@[::1]:80/b"),
        ("/b", "http://h/b"),
    ])
    def test_location_with_a_good_authority_is_linked(self, location, target):
        d = lift_conversation(load_transcript(
            "POST /a HTTP/1.1\nHost: h\n---\n"
            "HTTP/1.1 201 Created\nLocation: %s\n" % location))
        node = uri_node(parse_uri(target))
        assert d.default_graph.subjects(vocab.LOCATION, node)
        assert validate(d).findings == ()

    def test_location_chain_materialised(self):
        d = lift_fixture()
        g = d.default_graph
        (header,) = g.subjects(RDF_TYPE, vocab.LOCATION_HEADER)
        assert g.value(header, vocab.IS_LOCATION_HEADER) == header
        linked = g.value(header, vocab.LINK)
        (resp,) = g.subjects(vocab.HDR, header)
        assert g.value(resp, vocab.LOCATION) == linked

    def test_standard_individuals_carry_their_facts(self):
        g = lift_fixture().default_graph
        post = vocab.registry().methods["POST"]
        assert g.value(post, vocab.METHOD_NAME) == Literal("POST")
        created = Iri(vocab.SC + "Created")
        assert g.value(created, vocab.STATUS_CODE_NUMBER) == \
            Literal("201", datatype=XSD_INTEGER)

    def test_content_type_and_accept_extensions(self):
        g = lift_fixture().default_graph
        (resp2,) = g.subjects(vocab.SC_PROP, Iri(vocab.SC + "OK"))
        assert g.value(resp2, vocab.CONTENT_TYPE) == Literal("text/turtle")
        accepts = g.subjects(RDF_TYPE, vocab.ACCEPT_HEADER)
        assert len(accepts) == 1

    def test_body_named_graph(self):
        d = lift_fixture()
        (name,) = list(d.named_graphs)
        body_graph = d.graph(name)
        ex = Iri("http://example.org/ns#x8344")
        assert body_graph.value(ex, Iri("http://example.org/ns#ids")) is not None
        # the content node links to the graph name
        (content,) = d.default_graph.subjects(vocab.ABOUT, name)
        assert Triple(content, RDF_TYPE, vocab.CONTENT_AS_RDF) \
            in d.default_graph

    def test_vocabulary_scan_clean(self):
        assert vocabulary_scan(lift_fixture()) == set()

    def test_vocabulary_scan_flags_foreign_terms(self):
        d = lift_fixture()
        alien = Iri("http://example.org/alien")
        g = Graph([*d.default_graph,
                   Triple(BlankNode("z"), alien, Literal("x")),
                   Triple(BlankNode("z"), RDF_TYPE, alien)])
        assert vocabulary_scan(Dataset(g, dict(d.named_graphs))) == {alien}


class TestMessageLift:
    def test_base_mints_message_iris(self):
        d = lift_fixture(base="http://log.example/c1/")
        g = d.default_graph
        reqs = g.subjects(RDF_TYPE, vocab.REQUEST)
        assert reqs == {Iri("http://log.example/c1/req1"),
                        Iri("http://log.example/c1/req3")}

    def test_default_messages_are_blank(self):
        g = lift_fixture().default_graph
        for req in g.subjects(RDF_TYPE, vocab.REQUEST):
            assert isinstance(req, BlankNode)

    def test_interim_response_typing(self):
        req = parse_http_request("GET /p HTTP/1.1\nHost: h\n\n")
        interim = parse_http_response("HTTP/1.1 100 Continue\n\n")
        final = parse_http_response("HTTP/1.1 200 OK\n\n")
        d = lift_interaction(Interaction(req, (interim, final)))
        g = d.default_graph
        (i_node,) = g.subjects(RDF_TYPE, vocab.INTERIM_RESPONSE)
        (f_node,) = g.subjects(RDF_TYPE, vocab.FINAL_RESPONSE)
        assert i_node != f_node
        (q,) = g.subjects(RDF_TYPE, vocab.REQUEST)
        assert g.objects(q, vocab.RESP) == {i_node, f_node}

    @pytest.mark.parametrize("code, kind", [
        (100, vocab.INTERIM_RESPONSE), (199, vocab.INTERIM_RESPONSE),
        (0, vocab.FINAL_RESPONSE), (200, vocab.FINAL_RESPONSE),
        (999, vocab.FINAL_RESPONSE)])
    def test_response_typed_by_its_status(self, code, kind):
        lifter = Lifter()
        node = lifter.lift_response(Response(status_code=code),
                                    parse_uri("http://h/p"))
        types = {t.object for t in lifter.triples
                 if t[:2] == (node, RDF_TYPE)}
        assert types == {vocab.RESPONSE, kind}

    def test_responses_lift_in_order(self):
        req = parse_http_request("GET /p HTTP/1.1\nHost: h\n\n")
        i = Interaction(req, (Response(100), Response(103), Response(200)))
        lifter = Lifter()
        q = lifter.lift_interaction(i)
        g = Graph(lifter.triples)
        numbers = {int(g.value(g.value(r, vocab.SC_PROP),
                               vocab.STATUS_CODE_NUMBER).lexical): r
                   for r in g.objects(q, vocab.RESP)}
        # The lifter numbers blank nodes as it mints them.
        labels = [int(numbers[c].label[1:]) for c in (100, 103, 200)]
        assert labels == sorted(labels)

    def test_nonstandard_method_gets_fresh_node(self):
        req = Request(method=Method("FROBNICATE"),
                      uri=parse_uri("http://h/p"))
        d = lift_interaction(Interaction(req))
        g = d.default_graph
        (q,) = g.subjects(RDF_TYPE, vocab.REQUEST)
        m = g.value(q, vocab.MTHD_PROP)
        assert isinstance(m, BlankNode)
        assert g.value(m, vocab.METHOD_NAME) == Literal("FROBNICATE")

    def test_nonstandard_status_gets_fresh_node(self):
        req = parse_http_request("GET /p HTTP/1.1\nHost: h\n\n")
        d = lift_interaction(Interaction(req, (Response(status_code=299),)))
        g = d.default_graph
        (r,) = g.subjects(RDF_TYPE, vocab.FINAL_RESPONSE)
        sc = g.value(r, vocab.SC_PROP)
        assert isinstance(sc, BlankNode)
        assert g.value(sc, vocab.STATUS_CODE_NUMBER) == \
            Literal("299", datatype=XSD_INTEGER)

    def test_trig_body_blank_labels_stay_disjoint(self):
        # a body graph using labels the lifter also mints must not collide
        body = "@prefix ex: <http://example.org/> . _:b1 ex:p _:b2 .\n"
        text = ("GET /p HTTP/1.1\nHost: h\n"
                "---\n"
                "HTTP/1.1 200 OK\nContent-Type: text/turtle\n"
                "Content-Length: %d\n\n%s" % (len(body), body))
        d = lift_conversation(load_transcript(text))
        (name,) = list(d.named_graphs)
        (t,) = list(d.graph(name))
        assert t.subject not in {s for tr in d.default_graph
                                 for s in (tr.subject, tr.object)}

    @staticmethod
    def _lift_bodies(*bodies):
        """The dataset of one GET per body, each answered with that body as
        Turtle, and the bodies' own parsed graphs."""
        text = "\n---\n".join(
            "GET /p%d HTTP/1.1\nHost: h\n\n---\n"
            "HTTP/1.1 200 OK\nContent-Type: text/turtle\n"
            "Content-Length: %d\n\n%s" % (n, len(body.encode()), body)
            for n, body in enumerate(bodies))
        conversation = load_transcript(text)
        return lift_conversation(conversation), [
            i.responses[0].body.rdf for i in conversation.interactions]

    def test_two_bodies_share_no_blank_node(self):
        body = ("@prefix ex: <http://example.org/> .\n"
                "_:x ex:p [ ex:q _:x ] .\n")
        d, parsed = self._lift_bodies(body, body)

        def bnodes(g):
            return {x for t in g for x in (t.subject, t.object)
                    if isinstance(x, BlankNode)}

        first, second = (bnodes(g) for g in d.named_graphs.values())
        default = bnodes(d.default_graph) | set(d.named_graphs)
        assert len(first) == len(second) == 2
        assert not first & second and not (first | second) & default
        for g, source in zip(d.named_graphs.values(), parsed):
            assert isomorphic_datasets(Dataset(g), Dataset(source))

    def test_ground_body_lifts_unchanged(self):
        body = ("@prefix ex: <http://example.org/> .\n"
                "ex:a ex:p ex:b , \"v\"@en , 3 .\n")
        d, (parsed,) = self._lift_bodies(body)
        (g,) = d.named_graphs.values()
        assert len(g) == 3 and g == parsed


def lifted_method_and_status(method, code):
    """The method and status nodes that one request with `method`,
    answered with `code`, lifts to."""
    request = Request(method=Method(method), uri=parse_uri("http://h/p"))
    interaction = Interaction(request, (Response(status_code=code),))
    g = lift_interaction(interaction).default_graph
    (m,) = g.match(None, vocab.MTHD_PROP, None)
    (s,) = g.match(None, vocab.SC_PROP, None)
    return m.object, s.object


class TestOntologyIndividuals:
    """Standard methods and status codes lift to the individuals of the
    vendored ontology, read here by a parse of its own."""

    onto = parse_turtle(vocab.ontology_text())

    def test_every_status_code_lifts_to_its_individual_or_a_blank_node(self):
        onto = self.onto
        by_number = {int(onto.value(n, vocab.STATUS_CODE_NUMBER).lexical): n
                     for n in onto.subjects(RDF_TYPE, vocab.STATUS_CODE)}
        assert len(by_number) == 51
        for code in range(1000):
            node = lifted_method_and_status("GET", code)[1]
            if code in by_number:
                assert node == by_number[code], code
            else:
                assert isinstance(node, BlankNode), code

    def test_method_names_lift_to_their_individuals(self):
        onto = self.onto
        by_name = {onto.value(n, vocab.METHOD_NAME).lexical: n
                   for n in onto.subjects(RDF_TYPE, vocab.METHOD)}
        assert sorted(by_name) == sorted([
            "GET", "HEAD", "POST", "PUT", "DELETE", "CONNECT", "OPTIONS",
            "TRACE", "PATCH"])
        for name, individual in by_name.items():
            assert individual == Iri(vocab.MTHD + name)
            assert lifted_method_and_status(name, 200)[0] == individual
        for name in ("get", "FOO"):
            assert isinstance(lifted_method_and_status(name, 200)[0],
                              BlankNode)


class TestRegistryReads:
    def test_import_does_not_parse_the_ontology(self):
        package_root = os.path.dirname(os.path.dirname(httplift.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import httplift.cli, httplift; from httplift import vocab; "
                "print(vocab.registry.cache_info().currsize)")
        result = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code, package_root],
            capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout) == (0, "0\n"), \
            result.stderr

    def test_calls_in_one_process_parse_it_once(self, monkeypatch, capsys):
        parsed = []
        original = turtle.parse_turtle

        def counted(text):
            if text == vocab.ontology_text(extensions=True):
                parsed.append(text)
            return original(text)

        monkeypatch.setattr(turtle, "parse_turtle", counted)
        vocab.registry.cache_clear()
        try:
            for name in ("registration.http", "findings.http",
                         "registration.har"):
                for command in ("lift", "validate"):
                    cli.main([command, os.path.join(FIXTURES, name)])
            validate(lift_fixture())
        finally:
            vocab.registry.cache_clear()
        capsys.readouterr()
        assert len(parsed) == 1
