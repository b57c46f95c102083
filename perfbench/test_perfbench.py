"""Tests of the benchmark itself: generators, oracle, negative control and
self-time arithmetic.

    PYTHONPATH=src python -m pytest perfbench
"""

import contextlib
import io
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import EX, Exchange  # noqa: E402

FIXTURE = os.path.join(ROOT, "tests", "fixtures", "registration.http")


def _files(name, seed, directory):
    directory.mkdir(parents=True)
    workloads.build(name, seed, str(directory))
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_generators_are_deterministic_per_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = _files(name, 7, tmp_path / name / "a")
        assert first == _files(name, 7, tmp_path / name / "b")
        assert first != _files(name, 8, tmp_path / name / "c")


def _registration():
    """The exchanges of tests/fixtures/registration.http, written by hand."""
    base = "http://example.org:8080"
    return [
        Exchange("POST", base + "/reg?count=5", [], b"", 201,
                 [("Location", "/reg/x8344")],
                 location=base + "/reg/x8344"),
        Exchange("GET", base + "/reg/x8344", [("Accept", "text/turtle")],
                 b"", 200, [("Content-Type", "text/turtle")],
                 b"@prefix ex: <http://example.org/ns#> .\n"
                 b"ex:x8344 ex:ids (14 35 28 6 22) .\n",
                 rdf_triples=11, body_values=[14, 35, 28, 6, 22]),
    ]


def _cli(argv):
    from httplift import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_oracle_reproduces_the_registration_fixture():
    exchanges = _registration()
    exp = workloads.expect(exchanges, Counter(), set(), "count")
    assert exp.cq2 == Counter({"201": 1, "200": 1})
    assert exp.cq6 == Counter(["14", "35", "28", "6", "22"])
    assert exp.cq7 == Counter(['"5"'])
    assert (exp.requests, exp.graph_sizes, exp.validate_exit) == (2, [11], 0)
    queries = [["query", str(n), FIXTURE] for n in range(1, 6)]
    queries += [["query", "6", FIXTURE, "--prop", EX + "ids"],
                ["query", "7", FIXTURE, "--name", "count"]]
    for argv in queries + [["validate", FIXTURE]]:
        code, out = _cli(argv)
        assert workloads.check(argv, code, out, exp) == [], argv
    # CQ6 keeps list order.
    _, out = _cli(queries[5])
    assert out.split() == ["14", "35", "28", "6", "22"]


def test_oracle_catches_a_wrong_answer():
    exp = workloads.expect(_registration(), Counter(), set(), "count")
    argv = ["query", "2", FIXTURE]
    assert workloads.check(argv, 0, "_:b1\t201\n_:b3\t201\n", exp)
    assert workloads.check(argv, 2, "", exp)


def test_lift_check_counts_requests_and_graphs(tmp_path):
    out = tmp_path / "reg.trig"
    argv = ["lift", FIXTURE, "--out", str(out)]
    code, _ = _cli(argv)
    exp = workloads.expect(_registration(), Counter(), set(), "count")
    assert workloads.check(argv, code, out.read_text(), exp) == []
    exp.graph_sizes = [12]
    assert workloads.check(argv, code, out.read_text(), exp)


def test_negative_control_is_not_isomorphic():
    from httplift import cli
    from httplift.rdf import isomorphic_datasets
    lifted = cli._load_dataset(FIXTURE, None, None)
    swapped = run.swap_header_values(lifted)
    assert swapped is not None
    assert len(swapped.default_graph) == len(lifted.default_graph)
    assert isomorphic_datasets(lifted, lifted)
    assert not isomorphic_datasets(lifted, swapped)


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6]; a has child c [2, 3].
    spans = [["cli", 0.0, 10.0, None, 1],
             ["lift", 1.0, 4.0, 0, 1],
             ["rdf.build", 3.0, 6.0, 0, 1],
             ["uri", 2.0, 3.0, 1, 1],
             ["queries.cq6", 20.0, 25.0, None, 2],
             ["rdf.lookup", 21.0, 24.0, 4, 2]]
    assert tracing.self_times(spans) == [5.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    by_op = tracing.self_time_by_op(spans)
    assert by_op[1] == Counter({"cli": 5.0, "lift": 2.0, "rdf.build": 3.0,
                                "uri": 1.0})
    assert by_op[2] == Counter({"queries": 2.0, "queries.cq6": 5.0,
                                "rdf.lookup": 3.0})


def test_tracer_counts_outermost_lookups_only():
    from httplift import Graph, Iri, Triple
    t = Triple(Iri("urn:a"), Iri("urn:p"), Iri("urn:b"))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        g = Graph([t])
        assert g.objects(Iri("urn:a"), Iri("urn:p")) == {Iri("urn:b")}
    finally:
        tracer.unpatch()
    assert [s[0] for s in tracer.spans] == ["rdf.build", "rdf.lookup"]
    assert tracer.counts[0]["rdf.lookup_calls"] == 1
    assert not hasattr(Graph.objects, "__wrapped__")       # unpatched
