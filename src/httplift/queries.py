"""Executable competency questions over lifted datasets, built on triple
matching and property-path evaluation."""

from __future__ import annotations

from typing import Dict, List

from . import vocab
from .rdf import (RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE, Dataset, Graph,
                  Iri, Literal, Term, eval_path, path_lexicals)
from .turtle import format_term

Row = Dict[str, Term]


def _key(term: Term) -> str:
    return format_term(term, vocab.PREFIXES)


def _sorted(rows: List[Row]) -> List[Row]:
    """Rows ordered by their values, compared in projection order."""
    return sorted(rows, key=lambda row: tuple(_key(v) for v in row.values()))


def _location_targets(g: Graph) -> set:
    """URI nodes given by the Location headers of responses."""
    return {u for t in g.match(None, vocab.RESP, None)
            for u in g.objects(t.object, vocab.LOCATION)}


def cq1_media_types(d: Dataset) -> List[Row]:
    """Media types of message bodies: (m, mt) pairs where the message has a
    body and a declared content type."""
    g = d.default_graph
    return _sorted([{"m": t.subject, "mt": t.object}
                    for t in g.match(None, vocab.CONTENT_TYPE, None)
                    if g.objects(t.subject, vocab.BODY)])


def cq2_interaction_status(d: Dataset) -> List[Row]:
    """Status code numbers per interaction: (q, status) for every response
    of every request."""
    g = d.default_graph
    return _sorted([{"q": t.subject, "status": n}
                    for t in g.match(None, vocab.RESP, None)
                    for n in eval_path(g, t.object, vocab.STATUS_NUMBER)])


def cq3_locations(d: Dataset) -> List[Row]:
    """URI nodes provided by Location headers of responses."""
    return _sorted([{"next": u}
                    for u in _location_targets(d.default_graph)])


def cq4_conversation_status(d: Dataset) -> List[Row]:
    """Final status codes of requests that dereference a Location target of
    an earlier response (pure join, no temporal constraint)."""
    g = d.default_graph
    targets = _location_targets(g)
    return _sorted([{"status": n}
                    for t in g.match(None, vocab.URI_PROP, None)
                    if t.object in targets
                    for r in g.objects(t.subject, vocab.RESP)
                    if vocab.FINAL_RESPONSE in g.objects(r, RDF_TYPE)
                    for n in eval_path(g, r, vocab.STATUS_NUMBER)])


_DECLARED_TYPE = (vocab.RESP, vocab.CONTENT_TYPE)  # :resp/hds:content-type


def cq5_negotiation(d: Dataset, request: Term) -> bool:
    """ASK: does some media range of the request's Accept header and the
    response's content type satisfy substring containment either way?
    False when either side is absent."""
    g = d.default_graph
    accepted = path_lexicals(g, request, vocab.ACCEPTED_RANGE)
    declared = path_lexicals(g, request, _DECLARED_TYPE)
    return any(a in c or c in a for a in accepted for c in declared)


def _flatten(graph: Graph, node: Term) -> List[Term]:
    """RDF collection members in list order; a non-collection node is
    returned as-is."""
    if node == RDF_NIL:
        return []
    if not graph.objects(node, RDF_FIRST):
        return [node]
    members = []
    seen = set()
    while node != RDF_NIL and node not in seen:
        seen.add(node)
        firsts = graph.objects(node, RDF_FIRST)
        if not firsts:
            break
        members.extend(sorted(firsts, key=_key))
        rest = graph.objects(node, RDF_REST)
        node = next(iter(rest)) if rest else RDF_NIL
    return members


def cq6_body_values(d: Dataset, prop: Iri) -> List[Term]:
    """Values of `prop` inside RDF message bodies, flattening RDF
    collections into their members (list order preserved)."""
    g = d.default_graph
    graph_names = [n for t in g.match(None, vocab.BODY, None)
                   for n in g.objects(t.object, vocab.ABOUT)]
    out = []
    for gname in sorted(graph_names, key=_key):
        body = d.graph(gname)
        for t in sorted(body.match(None, prop, None),
                        key=lambda t: _key(t.subject)):
            out.extend(_flatten(body, t.object))
    return out


def cq7_query_param(d: Dataset, name: str) -> List[Term]:
    """Values of the query parameter called `name` on request URIs."""
    g = d.default_graph
    return sorted((v for t in g.match(None, vocab.URI_PROP, None)
                   for p in g.objects(t.object, vocab.QUERY_PARAMS)
                   if Literal(name) in g.objects(p, vocab.PARAM_NAME)
                   for v in g.objects(p, vocab.PARAM_VALUE)), key=_key)
