"""Lift the HTTP domain model into RDF datasets conforming to the embedded
ontology, materializing the lifted header properties (Location,
Content-Type, Accept) and named-graph bodies so queries run without a
reasoner."""

from __future__ import annotations

import urllib.parse
from typing import Dict, Optional, Set, Union

from . import vocab
from .model import (
    Body, Conversation, Header, Interaction, Request, Response, is_interim,
)
from .rdf import (
    RDF_TYPE, XSD_INTEGER, BlankNode, Dataset, Graph, Iri, Literal, Term,
    Triple, _new_bnode, _new_literal, _new_triple,
)
from .uri import (
    UriError, UriParts, id_res, parse_uri, recompose, require_host,
    resolve_reference,
)

DEFAULT_URI_NODE_BASE = "urn:uri:"


def uri_node(u: UriParts, base: Optional[str] = None) -> Iri:
    """Deterministic IRI for a URI node: base plus the percent-encoded
    recomposed URI."""
    prefix = base or DEFAULT_URI_NODE_BASE
    return Iri(prefix + urllib.parse.quote(recompose(u), safe=""))


class Lifter:
    """One lifting run: a monotonic blank-node counter, the nodes already
    described, so that a URI, method or status node is described once per
    conversation, and one xsd:string literal per lexical form."""

    def __init__(self, base: Optional[str] = None):
        self.base = base
        self._counter = 0
        self._described: Set[Term] = set()
        self._literals: Dict[str, Literal] = {}
        self.triples: Set[Triple] = set()
        self.named: Dict[Term, Graph] = {}
        self._msg_index = 0

    def bnode(self) -> BlankNode:
        self._counter += 1
        return _new_bnode(BlankNode, "b%d" % self._counter)

    def add(self, s: Term, p: Iri, o: Term):
        self.triples.add(_new_triple(Triple, s, p, o))

    def literal(self, lexical: str) -> Literal:
        term = self._literals.get(lexical)
        if term is None:
            term = self._literals[lexical] = _new_literal(Literal, lexical)
        return term

    def _message_node(self, kind: str) -> Term:
        self._msg_index += 1
        if self.base is None:
            return self.bnode()
        return Iri("%s%s%d" % (self.base, kind, self._msg_index))

    # -- URIs ---------------------------------------------------------------

    def lift_uri(self, u: UriParts) -> Iri:
        node = uri_node(u, self.base)
        if node in self._described:
            return node
        self._described.add(node)
        self.add(node, RDF_TYPE, vocab.URI)
        self.add(node, vocab.SCHEME, self.literal(u.scheme))
        self.add(node, vocab.AUTHORITY, self.literal(u.authority))
        self.add(node, vocab.PATH, self.literal(u.path))
        if u.query is not None:
            self.add(node, vocab.QUERY, self.literal(u.query))
        if u.fragment is not None:
            self.add(node, vocab.FRAGMENT, self.literal(u.fragment))
        self.add(node, vocab.ID_RES, self.literal(id_res(u)))
        for param in u.params:
            pnode = self.bnode()
            self.add(node, vocab.QUERY_PARAMS, pnode)
            self.add(pnode, RDF_TYPE, vocab.QUERY_PARAM)
            self.add(pnode, vocab.PARAM_NAME, self.literal(param.name))
            self.add(pnode, vocab.PARAM_VALUE, self.literal(param.value))
        return node

    # -- Headers ------------------------------------------------------------

    def lift_header(self, h: Header, msg_node: Term,
                    request_uri: UriParts):
        hnode = self.bnode()
        self.add(msg_node, vocab.HDR, hnode)
        self.add(hnode, RDF_TYPE, vocab.HEADER)
        self.add(hnode, vocab.HDR_NAME, self.literal(h.name))
        self.add(hnode, vocab.HDR_VALUE, self.literal(h.value))
        lname = h.name.lower()
        if lname == "location":
            self.add(hnode, RDF_TYPE, vocab.LOCATION_HEADER)
            self.add(hnode, vocab.IS_LOCATION_HEADER, hnode)
            target = self._resolve_location(h.value, request_uri)
            if target is not None:
                unode = self.lift_uri(target)
                self.add(hnode, vocab.LINK, unode)
                # Property chain hdr . isLocationHeader . link,
                # materialized eagerly.
                self.add(msg_node, vocab.LOCATION, unode)
        elif lname == "content-type":
            self.add(hnode, RDF_TYPE, vocab.CONTENT_TYPE_HEADER)
            self.add(msg_node, vocab.CONTENT_TYPE, self.literal(h.value))
        elif lname == "accept":
            self.add(hnode, RDF_TYPE, vocab.ACCEPT_HEADER)
            anode = self.bnode()
            self.add(msg_node, vocab.ACCEPT, anode)
            for media_range in h.value.split(","):
                media_range = media_range.strip()
                if media_range:
                    self.add(anode, vocab.MEDIA_TYPE,
                             self.literal(media_range))

    def _resolve_location(self, value: str,
                          request_uri: UriParts) -> Optional[UriParts]:
        """The target of a Location value, resolved against the request
        URI (RFC 3986 section 5.2), or None if it has no authority, does
        not parse or names no valid http(s) host (validation rule R10
        reports it)."""
        try:
            return require_host(parse_uri(resolve_reference(value.strip(),
                                                            request_uri)))
        except UriError:
            return None

    # -- Bodies -------------------------------------------------------------

    def lift_body(self, b: Body, msg_node: Term):
        cnode = self.bnode()
        self.add(msg_node, vocab.BODY, cnode)
        self.add(cnode, RDF_TYPE, vocab.CONTENT)
        if b.rdf is not None:
            self.add(cnode, RDF_TYPE, vocab.CONTENT_AS_RDF)
            if isinstance(msg_node, Iri):
                gname: Term = Iri(msg_node.value + "/body-graph")
            else:
                gname = self.bnode()
            # Blank-node labels are dataset-scoped: keep the body graph's
            # labels out of the lifter's namespace, one node per label.
            tag = len(self.named) + 1
            nodes = {x for s, _, o in b.rdf for x in (s, o)
                     if isinstance(x, BlankNode)}
            get = {x: _new_bnode(BlankNode, "body%d-%s" % (tag, x.label))
                   for x in nodes}.get
            self.named[gname] = Graph([
                _new_triple(Triple, get(s, s), p, get(o, o))
                for s, p, o in b.rdf])
            self.add(gname, RDF_TYPE, vocab.SD_GRAPH)
            self.add(cnode, vocab.ABOUT, gname)

    # -- Messages -----------------------------------------------------------

    def _lift_individual(self, node: Optional[Iri], cls: Iri, prop: Iri,
                         value: Literal) -> Term:
        """A method or status code: `node`, its individual in the vendored
        ontology, described once, or a new blank node if it has none."""
        if node not in self._described:
            node = node or self.bnode()
            self._described.add(node)
            self.add(node, RDF_TYPE, cls)
            self.add(node, prop, value)
        return node

    def lift_request(self, r: Request) -> Term:
        node = self._message_node("req")
        self.add(node, RDF_TYPE, vocab.REQUEST)
        self.add(node, vocab.MTHD_PROP, self._lift_individual(
            vocab.registry().methods.get(r.method.name), vocab.METHOD,
            vocab.METHOD_NAME, self.literal(r.method.name)))
        self.add(node, vocab.URI_PROP, self.lift_uri(r.uri))
        return self._lift_message_parts(r, node, r.uri)

    def lift_response(self, r: Response, request_uri: UriParts) -> Term:
        node = self._message_node("resp")
        self.add(node, RDF_TYPE, vocab.RESPONSE)
        self.add(node, RDF_TYPE, vocab.INTERIM_RESPONSE if is_interim(r)
                 else vocab.FINAL_RESPONSE)
        self.add(node, vocab.SC_PROP, self._lift_individual(
            vocab.registry().statuses.get(r.status_code), vocab.STATUS_CODE,
            vocab.STATUS_CODE_NUMBER,
            _new_literal(Literal, str(r.status_code), XSD_INTEGER)))
        return self._lift_message_parts(r, node, request_uri)

    def _lift_message_parts(self, r: Union[Request, Response], node: Term,
                            request_uri: UriParts) -> Term:
        """The HTTP version, headers and body of a request or response."""
        if r.http_version:
            self.add(node, vocab.HTTP_VERSION, self.literal(r.http_version))
        for h in r.headers:
            self.lift_header(h, node, request_uri)
        if r.body is not None:
            self.lift_body(r.body, node)
        return node

    def lift_interaction(self, i: Interaction) -> Term:
        qnode = self.lift_request(i.request)
        for r in i.responses:
            self.add(qnode, vocab.RESP, self.lift_response(r, i.request.uri))
        return qnode


def lift_conversation(c: Conversation, base: Optional[str] = None) -> Dataset:
    """Lift a whole conversation into one dataset. URI nodes are unified by
    their recomposed absolute URI, so a Location target and a later request
    URI share a single node."""
    lifter = Lifter(base)
    for i in c.interactions:
        lifter.lift_interaction(i)
    return Dataset(Graph(lifter.triples), lifter.named)


def vocabulary_scan(dataset: Dataset) -> Set[Iri]:
    """Closed-vocabulary check over a lifted dataset's interaction graph:
    predicates and class IRIs not found in the embedded ontology or the
    documented extension set. Body named graphs carry user vocabulary and
    are not scanned."""
    allowed = vocab.registry().terms
    unknown = set()
    for t in dataset.default_graph:
        if t.predicate not in allowed:
            unknown.add(t.predicate)
        if t.predicate == RDF_TYPE and isinstance(t.object, Iri) \
                and t.object not in allowed:
            unknown.add(t.object)
    return unknown
