"""Spans and counts recorded from outside the program.

The tracer replaces public functions of httplift's modules with wrappers
that record a span (name, start, end, parent, operation id) per call and
add counts at the same boundary. Each name is wrapped where its caller
looks it up: `cli` imported `load_transcript` and friends by name, `ingest`
and `lift` imported the `uri` functions by name, and `Graph` methods are
looked up on the class. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# Layers whose self time is reported. "bench" is the benchmark's own glue
# around the library round trip; it is kept out of every layer metric.
LAYERS = ("cli", "ingest", "uri", "lift", "validate", "queries",
          "turtle.parse", "turtle.serialize", "turtle.format_term",
          "rdf.lookup", "rdf.build", "rdf.iso")


def layer_of(name: str) -> str:
    """Span name to layer: "queries.cq6" belongs to "queries"."""
    if name.startswith("queries."):
        return "queries"
    return name


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index or None, operation id]
        self.spans: List[list] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.op = 0
        self._stack: List[int] = []
        self._patched: list = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           stack[-1] if stack else None, self.op])
        stack.append(idx)
        return idx

    def end(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable,
             counter: Optional[Callable] = None,
             outermost: bool = False) -> Callable:
        """`fn` with a span per call. `counter(counts, args, result)` adds
        counts inside the span. With `outermost`, a call made while a span
        of the same name is open (Graph.objects calling Graph.match) is
        neither timed nor counted again."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if outermost and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(self.counts[self.op], args, result)
                return result
            finally:
                self.end(idx)

        traced.__wrapped__ = fn
        return traced

    # -- installing -------------------------------------------------------

    def patch(self, owner, attr: str, name: str,
              counter: Optional[Callable] = None, outermost: bool = False):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counter, outermost))

    def unpatch(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def self_time_by_op(spans: List[list]) -> Dict[int, Counter]:
    """Seconds per layer, per operation id: each layer's self time, plus
    each CQ's whole duration under its own span name ("queries.cq6").
    Spans of no reported layer (the benchmark's own glue) are skipped."""
    result: Dict[int, Counter] = defaultdict(Counter)
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, op = span
        layer = layer_of(name)
        if layer in LAYERS:
            result[op][layer] += own
        if name != layer:
            result[op][name] += end - start
    return result


def install(tracer: Tracer):
    """Wrap httplift's public functions at the places their callers look
    them up. `tracer.unpatch()` restores the originals."""
    from httplift import cli, ingest, lift, queries, rdf, turtle
    # The package re-exports the function validate() under the module's
    # name, so fetch the module itself.
    validate_mod = importlib.import_module("httplift.validate")

    tracer.patch(cli, "main", "cli")

    def lookup_counter(counts, args, result):
        counts["rdf.lookup_calls"] += 1
        if isinstance(result, set):
            counts["rdf.lookup_results"] += len(result)
        else:
            counts["rdf.lookup_results"] += result is not None

    for method in ("match", "objects", "subjects", "value"):
        tracer.patch(rdf.Graph, method, "rdf.lookup", lookup_counter,
                     outermost=True)
    tracer.patch(rdf.Graph, "__init__", "rdf.build",
                 lambda c, a, r: c.update(("rdf.builds",)))

    def parse_counter(counts, args, result):
        if isinstance(result, rdf.Graph):
            counts["turtle.parse_triples"] += len(result)
        else:
            counts["turtle.parse_triples"] += dataset_triples(result)

    for owner in (turtle, cli):
        tracer.patch(owner, "parse_trig", "turtle.parse", parse_counter)
    tracer.patch(turtle, "parse_turtle", "turtle.parse", parse_counter)

    def serialize_counter(counts, args, result):
        counts["turtle.serialize_bytes"] += len(result.encode("utf-8"))

    for attr in ("serialize_trig", "serialize_turtle"):
        tracer.patch(turtle, attr, "turtle.serialize", serialize_counter)

    for owner in (cli, validate_mod, queries):
        tracer.patch(owner, "format_term", "turtle.format_term",
                     lambda c, a, r: c.update(("turtle.format_term_calls",)))

    def ingest_counter(counts, args, conversation):
        for i in conversation.interactions:
            for m in (i.request,) + i.responses:
                counts["ingest.messages"] += 1
                counts["ingest.rdf_bodies"] += (m.body is not None
                                                and m.body.rdf is not None)

    for attr in ("load_transcript", "load_har"):
        tracer.patch(cli, attr, "ingest", ingest_counter)

    uri_counter = lambda c, a, r: c.update(("uri.calls",))
    for attr in ("effective_request_uri", "parse_uri"):
        tracer.patch(ingest, attr, "uri", uri_counter)
    for attr in ("parse_uri", "recompose", "id_res"):
        tracer.patch(lift, attr, "uri", uri_counter)

    tracer.patch(cli, "lift_conversation", "lift",
                 lambda c, a, r: c.update({"lift.triples":
                                           dataset_triples(r)}))
    tracer.patch(cli, "_run_rules", "validate",
                 lambda c, a, r: c.update({"validate.findings":
                                           len(r.findings)}))

    def rows_counter(counts, args, result):
        counts["queries.rows"] += (len(result) if isinstance(result, list)
                                   else 1)

    for n, attr in enumerate(("cq1_media_types", "cq2_interaction_status",
                              "cq3_locations", "cq4_conversation_status",
                              "cq5_negotiation", "cq6_body_values",
                              "cq7_query_param"), 1):
        tracer.patch(queries, attr, "queries.cq%d" % n, rows_counter)

    def iso_counter(counts, args, result):
        counts["rdf.iso_bnodes"] += len(dataset_bnodes(args[0]))

    tracer.patch(rdf, "isomorphic_datasets", "rdf.iso", iso_counter)


def dataset_triples(dataset) -> int:
    return len(dataset.default_graph) + sum(
        len(g) for g in dataset.named_graphs.values())


def dataset_bnodes(dataset) -> set:
    from httplift.rdf import BlankNode
    nodes = {name for name in dataset.named_graphs
             if isinstance(name, BlankNode)}
    for g in [dataset.default_graph, *dataset.named_graphs.values()]:
        for t in g:
            for x in (t.subject, t.object):
                if isinstance(x, BlankNode):
                    nodes.add(x)
    return nodes
