"""Vocabulary constants for the HTTP interaction ontology, and the
registry read from the vendored ontology and its extension block."""

from __future__ import annotations

import functools
import os
from collections import namedtuple
from types import MappingProxyType

from .rdf import RDF, RDF_TYPE, XSD, BlankNode, Iri
from . import turtle

HTTP = "http://w3id.org/http#"
MTHD = "http://w3id.org/http/mthd#"
SC = "http://w3id.org/http/sc#"
HDS = "http://w3id.org/http/headers#"
CNT = "http://w3id.org/http/content#"
SD = "http://www.w3.org/ns/sparql-service-description#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"

PREFIXES = {
    "": HTTP,
    "mthd": MTHD,
    "sc": SC,
    "hds": HDS,
    "cnt": CNT,
    "sd": SD,
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "xsd": XSD,
}

# Classes.
REQUEST = Iri(HTTP + "Request")
RESPONSE = Iri(HTTP + "Response")
INTERIM_RESPONSE = Iri(HTTP + "InterimResponse")
FINAL_RESPONSE = Iri(HTTP + "FinalResponse")
METHOD = Iri(HTTP + "Method")
URI = Iri(HTTP + "URI")
HEADER = Iri(HTTP + "Header")
QUERY_PARAM = Iri(HTTP + "QueryParam")
STATUS_CODE = Iri(HTTP + "StatusCode")
CONTENT = Iri(CNT + "Content")
CONTENT_AS_RDF = Iri(CNT + "ContentAsRDF")
SD_GRAPH = Iri(SD + "Graph")
LOCATION_HEADER = Iri(HDS + "LocationHeader")
FUNCTIONAL_PROPERTY = Iri(OWL + "FunctionalProperty")
THREE_DIGIT = Iri(HTTP + "threeDigit")

# Properties.
RESP = Iri(HTTP + "resp")
MTHD_PROP = Iri(HTTP + "mthd")
METHOD_NAME = Iri(HTTP + "methodName")
URI_PROP = Iri(HTTP + "uri")
SCHEME = Iri(HTTP + "scheme")
AUTHORITY = Iri(HTTP + "authority")
PATH = Iri(HTTP + "path")
QUERY = Iri(HTTP + "query")
FRAGMENT = Iri(HTTP + "fragment")
ID_RES = Iri(HTTP + "idRes")
QUERY_PARAMS = Iri(HTTP + "queryParams")
PARAM_NAME = Iri(HTTP + "paramName")
PARAM_VALUE = Iri(HTTP + "paramValue")
HDR = Iri(HTTP + "hdr")
HDR_NAME = Iri(HTTP + "hdrName")
HDR_VALUE = Iri(HTTP + "hdrValue")
LINK = Iri(HTTP + "link")
IS_LOCATION_HEADER = Iri(HDS + "isLocationHeader")
LOCATION = Iri(HDS + "location")
BODY = Iri(HTTP + "body")
ABOUT = Iri(CNT + "about")
SC_PROP = Iri(HTTP + "sc")
STATUS_CODE_NUMBER = Iri(HTTP + "statusCodeNumber")
HTTP_VERSION = Iri(HTTP + "httpVersion")

# Extension terms (declared in extensions.ttl, not in the vendored
# ontology): lifted Content-Type and Accept headers, following the Location
# header pattern.
CONTENT_TYPE_HEADER = Iri(HDS + "ContentTypeHeader")
CONTENT_TYPE = Iri(HDS + "content-type")
ACCEPT_HEADER = Iri(HDS + "AcceptHeader")
ACCEPT = Iri(HDS + "accept")
MEDIA_TYPE = Iri(HDS + "media-type")

# SPARQL 1.1 sequence paths (tuples of predicates, for rdf.eval_path) shared
# by CQs and rules: :sc/:statusCodeNumber and hds:accept/hds:media-type.
STATUS_NUMBER = (SC_PROP, STATUS_CODE_NUMBER)
ACCEPTED_RANGE = (ACCEPT, MEDIA_TYPE)


def ontology_text(extensions: bool = False) -> str:
    """The vendored ontology Turtle, optionally with the extension block."""
    # The files are installed next to this module (package-data in
    # pyproject.toml). Importing importlib.resources, which loads pathlib,
    # tempfile and shutil, would cost a fresh process more than parsing the
    # ontology does.
    here = os.path.dirname(__file__)
    with open(os.path.join(here, "ontology.ttl"), encoding="utf-8") as fh:
        text = fh.read()
    if extensions:
        path = os.path.join(here, "extensions.ttl")
        with open(path, encoding="utf-8") as fh:
            text = text + "\n" + fh.read()
    return text


# What the vendored ontology and its extension block define: every IRI they
# mention, method name -> individual, status code <-> individual, the
# owl:FunctionalProperty set, and each term that restricts a datatype ->
# (owl:onDatatype, minInclusive, maxInclusive), None for a bound not stated.
# The mappings are read-only: callers share them.
Registry = namedtuple("Registry",
                      "terms methods statuses codes functional intervals")
_BOUNDS = {Iri(XSD + "minInclusive"): 1, Iri(XSD + "maxInclusive"): 2}
_ON_DATATYPE = Iri(OWL + "onDatatype")


@functools.cache
def registry() -> Registry:
    """The registry, parsed on first use."""
    full = turtle.parse_turtle(ontology_text(extensions=True))
    methods = {t.object.lexical: t.subject for t in full
               if t.predicate == METHOD_NAME}
    codes = {t.subject: int(t.object.lexical) for t in full
             if t.predicate == STATUS_CODE_NUMBER}
    # A facet sits in the owl:withRestrictions list of its datatype, which
    # the named term's description holds: walk up, one blank node at a time.
    up = {t.object: t.subject for t in full if isinstance(t.object, BlankNode)}
    on = {t.subject: t.object for t in full if t.predicate == _ON_DATATYPE}
    intervals = {}
    for t in [t for t in full if t.predicate in _BOUNDS]:
        node, base = t.subject, None
        while isinstance(node, BlankNode):
            node = up[node]
            base = base or on.get(node)
        entry = intervals.setdefault(node, [base, None, None])
        entry[_BOUNDS[t.predicate]] = int(t.object.lexical)
    return Registry(
        frozenset(x for t in full for x in t if isinstance(x, Iri)),
        MappingProxyType(methods),
        MappingProxyType({code: node for node, code in codes.items()}),
        MappingProxyType(codes),
        frozenset(t.subject for t in full if t.predicate == RDF_TYPE
                  and t.object == FUNCTIONAL_PROPERTY),
        MappingProxyType({k: tuple(v) for k, v in intervals.items()}))
