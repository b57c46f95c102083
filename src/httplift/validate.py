"""Closed-world conformance rules over lifted datasets.

Rules check the absence of required facts, which open-world OWL reasoning
cannot express; every problem is reported as a finding, never an exception.
"""

from __future__ import annotations

import re
import reprlib
from collections import Counter, namedtuple
from typing import List, Tuple

from . import vocab
from .model import is_token
from .rdf import RDF_TYPE, XSD_INTEGER, Dataset, Literal, Term, path_lexicals
from .turtle import format_term

VIOLATION = "violation"
WARNING = "warning"


def _fmt(term: Term) -> str:
    return format_term(term, vocab.PREFIXES)


Finding = namedtuple("Finding", "rule_id severity focus message")


class ValidationReport(namedtuple("ValidationReport",
                                  "findings checked_rules")):
    """A tuple of Findings and the ids of the rules checked."""
    __slots__ = ()

    @property
    def violations(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == VIOLATION)

    def to_text(self) -> str:
        if not self.findings:
            return "OK: %d rules checked, no findings\n" % len(self.checked_rules)
        lines = ["%s [%s] %s: %s" % (f.severity.upper(), f.rule_id,
                                     _fmt(f.focus), f.message)
                 for f in self.findings]
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        lines = ["%s\t%s\t%s\t%s" % (f.rule_id, f.severity, _fmt(f.focus),
                                     f.message)
                 for f in self.findings]
        return "\n".join(lines) + ("\n" if lines else "")


_RULES = {
    "R1": "Every owl:FunctionalProperty of the ontology admits at most "
          "one value per node.",
    "R2": "Every request must have a method and an effective URI.",
    "R3": "Every response must have a status instance carrying a status "
          "code number.",
    "R4": "A status code number must be an xsd:integer of :threeDigit; "
          "one in no status class of the ontology is flagged; a standard "
          "status individual must carry its registered number.",
    "R5": "A request may have many interim responses but only one final "
          "response.",
    "R6": "A message with a body must declare a content type.",
    "R7": "Responses to HEAD requests must not have a body.",
    "R8": "The response media type should match one of the media ranges "
          "of the request's Accept header (substring containment either "
          "way; */* matches anything).",
    "R9": "A method name must be a non-empty token without separators.",
    "R10": "A Location header value must be liftable to a URI.",
}

RULE_IDS = tuple(sorted(_RULES, key=lambda r: int(r[1:])))

# The xsd:integer lexical space (XML Schema part 2, section 3.4.13), up to
# 640 digits: no interpreter's int() limit is lower (sys.int_info).
_INTEGER = re.compile(r"[+-]?[0-9]{1,640}")


def explain(rule_id: str) -> str:
    if rule_id not in _RULES:
        raise KeyError("unknown rule id: " + reprlib.repr(rule_id))
    return "%s: %s" % (rule_id, _RULES[rule_id])


def _media_match(content_type: str, media_range: str) -> bool:
    ct, mr = content_type.strip(), media_range.strip()
    return mr == "*/*" or ct in mr or mr in ct


def validate(dataset: Dataset) -> ValidationReport:
    """Evaluate the full rule registry over a lifted dataset. Deterministic:
    findings are ordered by rule, focus node and message."""
    g = dataset.default_graph
    findings: List[Finding] = []

    def report(rule_id: str, severity: str, focus: Term, message: str):
        findings.append(Finding(rule_id, severity, focus, message))

    # R1 functional properties. Triples are distinct: n triples, n values.
    for prop in vocab.registry().functional:
        values = Counter(t.subject for t in g.match(None, prop, None))
        for subject, n in values.items():
            if n > 1:
                report("R1", VIOLATION, subject,
                       "%d values for functional property %s"
                       % (n, _fmt(prop)))

    # R2, R3, R6 and R10: each listed node needs a value of `prop`, a
    # minimum count of 1 (SHACL 4.2.1); a node listed twice is reported twice.
    def require(rule_id: str, nodes: list, prop: Term, message: str):
        for n in nodes:
            if not g.objects(n, prop):
                report(rule_id, VIOLATION, n, message)

    requests = list(g.subjects(RDF_TYPE, vocab.REQUEST))
    require("R2", requests, vocab.MTHD_PROP, "request has no method")
    require("R2", requests, vocab.URI_PROP, "request has no effective URI")
    responses = list(g.subjects(RDF_TYPE, vocab.RESPONSE))
    require("R3", responses, vocab.SC_PROP, "response has no status instance")
    require("R3", [s for r in responses for s in g.objects(r, vocab.SC_PROP)],
            vocab.STATUS_CODE_NUMBER,
            "status instance has no status code number")
    require("R6", [t.subject for t in g.match(None, vocab.BODY, None)],
            vocab.CONTENT_TYPE,
            "message has a body but no declared content type")
    require("R10", [t.subject for t in g.match(None, vocab.HDR_NAME, None)
                    if isinstance(t.object, Literal)
                    and t.object.lexical.lower() == "location"],
            vocab.LINK, "Location header value could not be lifted to a URI")

    # R4 status code numbers. Their range :threeDigit restricts
    # xsd:nonNegativeInteger, whose minInclusive is 0 (XSD part 2, 3.4.20).
    classes = dict(vocab.registry().intervals)
    base, _, top = classes.pop(vocab.THREE_DIGIT)
    registered = vocab.registry().codes
    for t in g.match(None, vocab.STATUS_CODE_NUMBER, None):
        if not (isinstance(t.object, Literal)
                and t.object.datatype in (XSD_INTEGER, vocab.THREE_DIGIT, base)
                and _INTEGER.fullmatch(t.object.lexical)):
            report("R4", VIOLATION, t.subject,
                   "status code number is not an integer: " + _fmt(t.object))
            continue
        code = int(t.object.lexical)
        expected = registered.get(t.subject, code)
        if code != expected:
            report("R4", VIOLATION, t.subject,
                   "standard status individual carries %d, expected %d"
                   % (code, expected))
        elif not 0 <= code <= top:
            report("R4", VIOLATION, t.subject,
                   "status code %d is not a :threeDigit" % code)
        elif not any(lo <= code <= hi for _, lo, hi in classes.values()):
            report("R4", WARNING, t.subject,
                   "status code %d belongs to no status class" % code)

    # R5 single final response, R7 HEAD responses without a body and R8
    # content negotiation, over each request-response pair.
    head = vocab.registry().methods["HEAD"]
    finals = Counter()
    for q, _, r in g.match(None, vocab.RESP, None):
        if vocab.INTERIM_RESPONSE not in g.objects(r, RDF_TYPE):
            finals[q] += 1
        if head in g.objects(q, vocab.MTHD_PROP) and g.objects(r, vocab.BODY):
            report("R7", VIOLATION, r, "response to a HEAD request has a body")
        ranges = path_lexicals(g, q, vocab.ACCEPTED_RANGE)
        if not ranges:
            continue
        for ct in g.objects(r, vocab.CONTENT_TYPE):
            if isinstance(ct, Literal) and not any(
                    _media_match(ct.lexical, mr) for mr in ranges):
                report("R8", WARNING, r,
                       "content type %s matches no accepted media range"
                       % reprlib.repr(ct.lexical))
    for q, n in finals.items():
        if n > 1:
            report("R5", VIOLATION, q, "request has %d non-interim responses"
                   % n)

    # R9 method token.
    for t in g.match(None, vocab.METHOD_NAME, None):
        if not isinstance(t.object, Literal) or not is_token(t.object.lexical):
            report("R9", VIOLATION, t.subject,
                   "method name is not a valid token: %s" % _fmt(t.object))

    findings.sort(key=lambda f: (int(f.rule_id[1:]), _fmt(f.focus),
                                 f.message))
    return ValidationReport(tuple(findings), RULE_IDS)
