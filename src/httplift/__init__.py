"""httplift: lift HTTP/1.1 interactions into RDF datasets, validate them
against the HTTP interaction ontology and answer the built-in competency
questions."""

from .ingest import load_har, load_transcript, parse_http_request, \
    parse_http_response
from .lift import lift_conversation, vocabulary_scan
from .queries import (
    cq1_media_types, cq2_interaction_status, cq3_locations,
    cq4_conversation_status, cq5_negotiation, cq6_body_values,
    cq7_query_param,
)
from .rdf import (
    BlankNode, Dataset, Graph, Iri, Literal, Triple, eval_path,
    isomorphic_datasets,
)
from .turtle import parse_trig, parse_turtle, serialize_trig, serialize_turtle
from .validate import ValidationReport, explain, validate

__all__ = [
    "BlankNode", "Dataset", "Graph", "Iri", "Literal", "Triple",
    "ValidationReport",
    "cq1_media_types", "cq2_interaction_status", "cq3_locations",
    "cq4_conversation_status", "cq5_negotiation", "cq6_body_values",
    "cq7_query_param",
    "eval_path", "explain", "isomorphic_datasets",
    "lift_conversation",
    "load_har", "load_transcript", "parse_http_request",
    "parse_http_response", "parse_trig", "parse_turtle", "serialize_trig",
    "serialize_turtle", "validate", "vocabulary_scan",
]
