"""Vocabulary constants for the HTTP interaction ontology, the vendored
ontology graph and the documented extension terms."""

from __future__ import annotations

import functools

from .rdf import RDF, XSD, Iri, Pred, Seq
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

# Extension terms (not in the vendored ontology): lifted Content-Type and
# Accept headers, following the Location header pattern.
CONTENT_TYPE_HEADER = Iri(HDS + "ContentTypeHeader")
CONTENT_TYPE = Iri(HDS + "content-type")
ACCEPT_HEADER = Iri(HDS + "AcceptHeader")
ACCEPT = Iri(HDS + "accept")
MEDIA_TYPE = Iri(HDS + "media-type")

EXTENSION_TERMS = frozenset({
    CONTENT_TYPE_HEADER, CONTENT_TYPE, ACCEPT_HEADER, ACCEPT, MEDIA_TYPE,
})

# Property paths shared by the competency questions and the rules.
STATUS_NUMBER = Seq(Pred(SC_PROP), Pred(STATUS_CODE_NUMBER))
ACCEPTED_RANGE = Seq(Pred(ACCEPT), Pred(MEDIA_TYPE))


def method_iri(name: str) -> Iri:
    return Iri(MTHD + name)


def status_iri(local_name: str) -> Iri:
    return Iri(SC + local_name)


def ontology_text(extensions: bool = False) -> str:
    """The vendored ontology Turtle, optionally with the extension block."""
    # Imported here: only the ontology command and the vocabulary scan
    # read the vendored files.
    from importlib import resources
    text = (resources.files(__package__) / "ontology.ttl").read_text("utf-8")
    if extensions:
        ext = (resources.files(__package__) / "extensions.ttl").read_text("utf-8")
        text = text + "\n" + ext
    return text


@functools.lru_cache(maxsize=None)
def known_terms() -> frozenset:
    """Every IRI mentioned by the vendored ontology or the extension set."""
    full = turtle.parse_turtle(ontology_text(extensions=True))
    return frozenset({x for t in full
                      for x in (t.subject, t.predicate, t.object)
                      if isinstance(x, Iri)} | EXTENSION_TERMS)
