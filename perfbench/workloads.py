"""Seeded input generators for the benchmark's workloads, and the oracle.

A generator builds a list of `Exchange` records (what was sent and what
came back), renders them as the files the program reads, and derives from
the same records the answers every command must give. The oracle never
looks at the program's output: it knows the answers because it chose the
traffic.

Sizes and shapes are fixed per workload; the seed only picks values
(names, numbers, header values, which exchange carries a planted defect).
That keeps the work per command nearly equal across seeds, so run-to-run
spread measures the program and the machine, not the inputs.
"""

from __future__ import annotations

import base64
import json
import os
import random
import urllib.parse
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

EX = "http://example.org/ns#"
HTTP = "http://w3id.org/http#"

WORDS = ("amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet",
         "harbor", "indigo", "juniper", "kestrel", "lagoon", "marble",
         "nectar", "onyx", "prairie", "quartz", "raven", "sierra", "tundra",
         "umber", "violet", "willow", "xenon", "yarrow", "zephyr")


@dataclass
class Exchange:
    """One generated request and its final response, plus the facts the
    oracle needs about the RDF body the response carries."""
    method: str
    uri: str                                  # absolute request URI
    req_headers: List[Tuple[str, str]]
    req_body: bytes = b""
    status: int = 200
    resp_headers: List[Tuple[str, str]] = field(default_factory=list)
    resp_body: bytes = b""
    location: Optional[str] = None            # absolute Location target
    rdf_triples: int = 0                      # triples in the Turtle body
    body_values: List[int] = field(default_factory=list)  # CQ6 members


def _header(headers: List[Tuple[str, str]], name: str) -> Optional[str]:
    for n, v in headers:
        if n.lower() == name.lower():
            return v
    return None


def _query_params(uri: str) -> List[Tuple[str, str]]:
    query = urllib.parse.urlsplit(uri).query
    return urllib.parse.parse_qsl(query, keep_blank_values=True)


# --------------------------------------------------------------------------
# Oracle

@dataclass
class Expected:
    """Answers the program must give on one workload's inputs."""
    requests: int
    graph_sizes: List[int]          # triples per named graph, sorted
    rules: Dict[str, int]           # findings per rule id
    validate_exit: int
    cq1_rows: int
    cq2: Counter                    # status numbers, as printed
    cq3_targets: int
    cq4: Counter
    cq5_true: int
    cq5_rows: int
    cq6: Counter                    # collection members, as printed
    cq7: Counter                    # parameter values, as printed


def expect(exchanges: List[Exchange], planted: Counter, violations: set,
           param: str) -> Expected:
    """Derive every expected answer from the generated exchanges. `planted`
    counts the rule findings the generator planted on purpose and
    `violations` names the planted rules whose severity is violation."""
    targets = {e.location for e in exchanges if e.location}
    cq1 = 0
    cq5_true = 0
    for e in exchanges:
        cq1 += bool(e.req_body) and _header(e.req_headers, "Content-Type") is not None
        cq1 += bool(e.resp_body) and _header(e.resp_headers, "Content-Type") is not None
        accept = _header(e.req_headers, "Accept")
        ctype = _header(e.resp_headers, "Content-Type")
        if accept and ctype:
            ranges = [r.strip() for r in accept.split(",") if r.strip()]
            cq5_true += any(r in ctype or ctype in r for r in ranges)
    return Expected(
        requests=len(exchanges),
        graph_sizes=sorted(e.rdf_triples for e in exchanges if e.rdf_triples),
        rules=dict(planted),
        validate_exit=1 if violations else 0,
        cq1_rows=cq1,
        cq2=Counter(str(e.status) for e in exchanges),
        cq3_targets=len(targets),
        cq4=Counter(str(e.status) for e in exchanges if e.uri in targets),
        cq5_true=cq5_true,
        cq5_rows=len(exchanges),
        cq6=Counter(str(v) for e in exchanges for v in e.body_values),
        cq7=Counter('"%s"' % v for e in exchanges
                    for n, v in _query_params(e.uri) if n == param),
    )


# --------------------------------------------------------------------------
# Renderers

def render_transcript(exchanges: List[Exchange]) -> str:
    """Plain-text transcript: message blocks separated by `---` lines."""
    blocks = []
    for e in exchanges:
        parts = urllib.parse.urlsplit(e.uri)
        target = parts.path + ("?" + parts.query if parts.query else "")
        head = ["%s %s HTTP/1.1" % (e.method, target),
                "Host: %s" % parts.netloc]
        head += ["%s: %s" % h for h in e.req_headers]
        blocks.append(_block(head, e.req_body))
        head = ["HTTP/1.1 %d" % e.status]
        head += ["%s: %s" % h for h in e.resp_headers]
        blocks.append(_block(head, e.resp_body))
    return "\n---\n".join(blocks) + "\n"


def _block(head: List[str], body: bytes) -> str:
    text = "\n".join(head)
    if body:
        text += "\n\n" + body.decode("utf-8")
    return text


def render_har(exchanges: List[Exchange]) -> str:
    entries = []
    for i, e in enumerate(exchanges):
        ctype = _header(e.resp_headers, "Content-Type") or ""
        content = {"size": len(e.resp_body), "mimeType": ctype}
        if e.resp_body:
            content["text"] = base64.b64encode(e.resp_body).decode("ascii")
            content["encoding"] = "base64"
        entries.append({
            "startedDateTime": "2020-07-27T10:%02d:%02d.%03dZ"
                               % (i // 3600 % 60, i // 60 % 60, i % 1000),
            "request": {
                "method": e.method, "url": e.uri, "httpVersion": "HTTP/1.1",
                "headers": [{"name": n, "value": v} for n, v in e.req_headers],
                "queryString": [{"name": n, "value": v}
                                for n, v in _query_params(e.uri)],
            },
            "response": {
                "status": e.status, "httpVersion": "HTTP/1.1",
                "headers": [{"name": n, "value": v}
                            for n, v in e.resp_headers],
                "content": content,
            },
        })
    return json.dumps({"log": {"version": "1.2",
                               "creator": {"name": "perfbench"},
                               "entries": entries}}, indent=1)


# --------------------------------------------------------------------------
# rest-session: the paper's registration traffic, scaled up

REST_PAIRS = 16
# The round trip runs on the first pairs only. One backtracking isomorphism
# of the whole session takes 2-3 s at commit dfb0f64. A run then holds too
# few samples for a steady quantile on a shared machine.
REST_SLICE_PAIRS = 8


def _item_body(rng: random.Random, item: str, ids: List[int]) -> Tuple[str, int]:
    text = ("@prefix ex: <%s> .\n"
            "ex:%s a ex:Item ;\n"
            "    ex:name \"%s %s\"@en ;\n"
            "    ex:ids (%s) ;\n"
            "    ex:maker [ ex:label \"%s\" ] .\n"
            % (EX, item, rng.choice(WORDS), rng.choice(WORDS),
               " ".join(map(str, ids)), rng.choice(WORDS)))
    # type, name, ids head, two per member, maker, label
    return text, 5 + 2 * len(ids)


def rest_session(seed: int, pairs: int = REST_PAIRS):
    """POST -> 201 + Location, then follow-your-nose GET -> 200 Turtle, with
    one planted finding each for R4 (warning), R6, R7 and R8 (warning)."""
    rng = random.Random(seed)
    host = "%s.example.org:%d" % (rng.choice(WORDS), rng.randrange(8000, 9000))
    base = "http://" + host
    # Which message carries which header value is fixed, and collection
    # members are all distinct: that decides how far the backtracking
    # isomorphism search must go, so the seed must not change it.
    r6_at, r8_at = pairs // 3, 2 * pairs // 3
    ids = iter(rng.sample(range(1, 100000), 5 * pairs))
    exchanges = []
    for i in range(pairs):
        # Item names and URIs lead with the pair index, so the order in
        # which the search visits nodes (sorted by their rendered form)
        # does not depend on the random part.
        item = "x%02d-%04d" % (i, rng.randrange(10000))
        payload = json.dumps({"name": rng.choice(WORDS),
                              "qty": rng.randrange(100)}).encode()
        post_headers = [("Accept", "text/turtle")]
        if i != r6_at:
            post_headers.append(("Content-Type", "application/json"))
        exchanges.append(Exchange(
            "POST", "%s/reg?batch=%02d&count=%d" % (base, i, rng.randrange(1, 50)),
            post_headers, payload, 201,
            [("Location", "/reg/%s" % item)],
            location="%s/reg/%s" % (base, item)))
        values = [next(ids) for _ in range(3 + i % 3)]
        body, triples = _item_body(rng, item, values)
        accept = "application/json" if i == r8_at else (
            "text/turtle", "text/turtle, application/trig",
            "application/trig, text/turtle;q=0.9")[i % 3]
        exchanges.append(Exchange(
            "GET", "%s/reg/%s" % (base, item), [("Accept", accept)], b"", 200,
            [("Content-Type", "text/turtle")], body.encode("utf-8"),
            rdf_triples=triples, body_values=values))
    exchanges.append(Exchange(
        "HEAD", "%s/health" % base, [], b"", 200,
        [("Content-Type", "text/plain")], b"up\n"))
    exchanges.append(Exchange(
        "GET", "%s/status?count=%d" % (base, rng.randrange(1, 50)),
        [], b"", 799, []))
    planted = Counter({"R4": 1, "R6": 1, "R7": 1, "R8": 1})
    return exchanges, planted, {"R6", "R7"}


# --------------------------------------------------------------------------
# har-capture: a browser page load of scripts

HAR_ENTRIES = 150
HAR_SLICE = 8


def har_capture(seed: int, entries: int = HAR_ENTRIES):
    """Script fetches with ten request and seven response headers, long
    percent-encoded URLs and base64 JavaScript bodies; every 20th entry is
    a 304 without a body. No RDF, no Location, no planted findings."""
    rng = random.Random(seed)
    site = "%s.example.com" % rng.choice(WORDS)
    agent = "Mozilla/5.0 (X11; Linux x86_64; rv:%d.0) Gecko/20100101" % (
        rng.randrange(60, 130))
    server = "nginx/1.%d.%d" % (rng.randrange(10, 25), rng.randrange(10))
    # A header value is either the same on every entry or unique to one,
    # and body lengths depend only on the entry's index, so the seed does
    # not change which header nodes look alike to the isomorphism search.
    exchanges = []
    for i in range(entries):
        name = "%s %s-%d.min.js" % (rng.choice(WORDS), rng.choice(WORDS), i)
        path = "/static/%s/v%d/%s" % (rng.choice(WORDS), rng.randrange(1, 9),
                                     urllib.parse.quote(name))
        params = [("v", "%d.%d" % (rng.randrange(9), rng.randrange(99))),
                  ("q", "%s %s/%s" % (rng.choice(WORDS), "été",
                                      rng.choice(WORDS))),
                  ("lang", rng.choice(("en", "de", "fr"))),
                  ("cb", str(rng.randrange(10 ** 9)))][:i % 5]
        uri = "https://cdn%d.%s%s" % (i % 4, site, path)
        if params:
            uri += "?" + urllib.parse.urlencode(params)
        req_headers = [
            ("User-Agent", agent),
            ("Accept", "*/*"),
            ("Accept-Language", "en-US,en;q=0.5"),
            ("Accept-Encoding", "gzip, deflate, br"),
            ("Referer", "https://www.%s/%s-%d" % (site, rng.choice(WORDS),
                                                   i)),
            ("Cookie", "sid=%032x; theme=%s" % (rng.getrandbits(128),
                                                 rng.choice(WORDS))),
            ("Connection", "keep-alive"),
            ("Cache-Control", "no-cache"),
            ("Pragma", "no-cache"),
            ("Sec-Fetch-Mode", "no-cors"),
        ]
        body = b""
        status = 304 if i % 20 == 19 else 200
        if status == 200:
            body = ("/* entry %04d */\n" % i + "".join(
                "function f%d_%d(a){return a*%02d+%02d;}\n"
                % (i, k, rng.randrange(99), rng.randrange(99))
                for k in range(6 + i % 7))).encode("utf-8")
        resp_headers = [
            ("Content-Type", "application/javascript"),
            ("Content-Length", str(len(body))),
            ("Cache-Control", "public, max-age=%d"
             % (100000 * i + rng.randrange(60, 86400))),
            ("ETag", '"%016x"' % rng.getrandbits(64)),
            ("Date", "Mon, 27 Jul 2020 10:%02d:%02d GMT"
                     % (i // 60 % 60, i % 60)),
            ("Server", server),
            ("Vary", "Accept-Encoding"),
        ]
        exchanges.append(Exchange("GET", uri, req_headers, b"", status,
                                  resp_headers, body))
    return exchanges, Counter(), set()


def check(argv, code, stdout: str, exp: Expected) -> List[str]:
    """Errors in one command's exit code and output against the oracle."""
    errors = []
    want = exp.validate_exit if argv[0] == "validate" else 0
    if code != want:
        return ["exit code %r, expected %d" % (code, want)]
    lines = stdout.splitlines()
    if argv[0] == "lift":
        from httplift.turtle import parse_trig
        d = parse_trig(stdout)
        requests = sum(1 for t in d.default_graph
                       if t.predicate.value.endswith("#type")
                       and getattr(t.object, "value", "") == HTTP + "Request")
        got = (requests, sorted(len(g) for g in d.named_graphs.values()))
        if got != (exp.requests, exp.graph_sizes):
            errors.append("lifted %d requests and named graphs %s, expected "
                          "%d and %s" % (got + (exp.requests, exp.graph_sizes)))
    elif argv[0] == "validate":
        if exp.rules:
            got = Counter(line.split("[", 1)[-1].split("]", 1)[0]
                          for line in lines)
        else:
            got = Counter() if len(lines) == 1 and lines[0].startswith(
                "OK: 10 rules checked") else Counter(lines)
        if got != Counter(exp.rules):
            errors.append("findings per rule %s, expected %s"
                          % (dict(got), exp.rules))
    else:
        cq = argv[1]
        col = lambda i: Counter(line.split("\t")[i] for line in lines)
        answers = {
            "1": lambda: (len(lines), exp.cq1_rows),
            "2": lambda: (col(1), exp.cq2),
            "3": lambda: (len(lines), exp.cq3_targets),
            "4": lambda: (Counter(lines), exp.cq4),
            "5": lambda: ((len(lines), col(1)["true"]),
                          (exp.cq5_rows, exp.cq5_true)),
            "6": lambda: (Counter(lines), exp.cq6),
            "7": lambda: (Counter(lines), exp.cq7),
        }
        try:
            got, want = answers[cq]()
        except IndexError:
            return ["CQ%s printed a line without a tab" % cq]
        if got != want:
            errors.append("CQ%s answer differs from the oracle: %s"
                          % (cq, _diff(got, want)))
    return errors


def _diff(got, want) -> str:
    if isinstance(got, Counter):
        return "missing %s, unexpected %s" % (
            dict(list((want - got).items())[:5]),
            dict(list((got - want).items())[:5]))
    return "got %s, expected %s" % (got, want)


# --------------------------------------------------------------------------
# Workload definitions

@dataclass
class Command:
    """One timed command metric and the main() calls one sample makes."""
    metric: str
    argv: List[List[str]]


@dataclass
class Workload:
    name: str
    commands: List[Command]
    roundtrip_input: str            # file lifted for the round-trip check
    expected: Dict[str, Expected]   # input file -> answers


def _queries(path: str, prop: str, param: str) -> List[List[str]]:
    argvs = [["query", str(n), path] for n in range(1, 6)]
    argvs.append(["query", "6", path, "--prop", prop])
    argvs.append(["query", "7", path, "--name", param])
    return argvs


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the named workload's files under `workdir`."""
    j = lambda f: os.path.join(workdir, f)
    if name == "rest-session":
        ex, planted, viol = rest_session(seed)
        files = {"session.http": render_transcript(ex),
                 "slice.http": render_transcript(ex[:2 * REST_SLICE_PAIRS])}
        expected = {"session.http": expect(ex, planted, viol, "count")}
        commands = [
            Command("lift_s", [["lift", j("session.http"), "--out",
                                j("session.trig")]]),
            Command("validate_s", [["validate", j("session.http")]]),
            Command("query_s", _queries(j("session.http"), EX + "ids",
                                        "count")),
        ]
        rt = "slice.http"
    elif name == "har-capture":
        ex, planted, viol = har_capture(seed)
        small = ex[:HAR_SLICE]
        files = {"capture.har": render_har(ex),
                 "slice.har": render_har(small)}
        expected = {"capture.har": expect(ex, planted, viol, "v"),
                    "slice.har": expect(small, planted, viol, "v")}
        commands = [
            Command("lift_s", [["lift", j("capture.har"), "--out",
                                j("capture.trig")]]),
            Command("validate_s", [["validate", j("slice.har")]]),
            Command("query_s", _queries(j("slice.har"), EX + "ids", "v")),
        ]
        rt = "slice.har"
    else:
        raise KeyError(name)
    for fname, text in files.items():
        with open(j(fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    return Workload(name, commands, j(rt), expected)


WORKLOADS = ("rest-session", "har-capture")
