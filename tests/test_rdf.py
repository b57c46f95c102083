"""Term, graph, dataset and isomorphism behaviour."""

import copy
import itertools
import os
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import event, given, settings, strategies as st

from httplift import cli, queries, rdf, vocab
from httplift.ingest import load_transcript
from httplift.lift import lift_conversation
from httplift.model import Body
from httplift.turtle import parse_trig, serialize_trig
from httplift.validate import validate
from httplift.rdf import (
    Iri, BlankNode, Literal, Triple, Graph, Dataset,
    eval_path, isomorphic_datasets,
    XSD_STRING, XSD_INTEGER, RDF_TYPE, RDF_FIRST, RDF_REST, RDF_NIL,
    RDF_LANG_STRING,
)

EX = "http://example.org/"
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def iri(s):
    return Iri(EX + s)


class _SubTriple(Triple):
    __slots__ = ()


class TestTerms:
    def test_literal_defaults_to_xsd_string(self):
        assert Literal("hi").datatype == XSD_STRING

    def test_language_literal_forces_langstring(self):
        lit = Literal("chat", language="fr")
        assert lit.datatype == RDF_LANG_STRING

    def test_terms_are_hashable_and_compare_by_value(self):
        assert Iri(EX) == Iri(EX)
        assert BlankNode("b1") == BlankNode("b1")
        assert len({Literal("a"), Literal("a"), Literal("b")}) == 2

    def test_literal_distinct_by_datatype(self):
        assert Literal("1") != Literal("1", datatype=XSD_INTEGER)

    def test_literal_subject_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            Triple(Literal("x"), iri("p"), iri("o"))

    def test_blank_predicate_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            Triple(iri("s"), BlankNode("p"), iri("o"))

    @pytest.mark.parametrize("text", [
        "", "http://x/a b", "http://x/<q>", 'a"b', "a{b}", "a|b", "a^b",
        "a`b", "a\\b", "a\nb", "a\x00b"])
    def test_iri_rejects_what_iriref_excludes(self, text):
        with pytest.raises(ValueError, match="not an IRI"):
            Iri(text)

    def test_long_values_are_quoted_cut(self):
        # A message quotes the bad value with reprlib.repr, so it stays
        # short however long the value is.
        with pytest.raises(ValueError) as info:
            Iri("http://x/" + "<" * 3000)
        assert str(info.value) == "not an IRI: 'http://x/<<<...<<<<<<<<<<<<<'"
        with pytest.raises(TypeError) as info:
            Graph([("x" * 3000,)])
        assert str(info.value) == (
            "not a Triple: ('xxxxxxxxxxxx...xxxxxxxxxxxxx',)")

    def test_iri_allows_non_ascii_whitespace(self):
        text = "http://x/a\u00a0b\u2003c"
        assert Iri(text).value == text

    # The lifter and the parser call the checking functions directly; a
    # class call runs the same function as the class's __new__.
    @pytest.mark.parametrize("cls, new, args", [
        (Triple, rdf._new_triple, (Literal("x"), iri("p"), iri("o"))),
        (Triple, rdf._new_triple, (iri("s"), BlankNode("p"), iri("o"))),
        (Triple, rdf._new_triple, (iri("s"), Literal("p"), iri("o"))),
        (Triple, rdf._new_triple, (iri("s"), iri("p"), "o")),
        (BlankNode, rdf._new_bnode, ("",)),
        (Literal, rdf._new_literal, ("1", "http://x/dt")),
    ], ids=["literal-subject", "blank-predicate", "literal-predicate",
            "str-object", "empty-label", "str-datatype"])
    def test_direct_call_rejects_what_the_class_call_does(self, cls, new,
                                                           args):
        with pytest.raises(Exception) as by_class:
            cls(*args)
        with pytest.raises(Exception) as direct:
            new(cls, *args)
        assert type(direct.value) is type(by_class.value) is ValueError
        assert str(direct.value) == str(by_class.value)

    def test_literal_datatype_must_be_an_iri(self):
        with pytest.raises(ValueError) as info:
            Literal("1", "http://x/" + "d" * 3000)
        assert str(info.value) == (
            "literal datatype must be an IRI: 'http://x/ddd...ddddddddddddd'")
        # A language tag sets the datatype, so no other is looked at.
        assert Literal("chat", None, "fr") == Literal("chat", language="fr")

    @pytest.mark.parametrize("x", [
        iri("a"), BlankNode("b"), Literal("c"), Literal("1", XSD_INTEGER),
        Literal("chat", language="fr"),
        Triple(BlankNode("s"), iri("p"), Literal("o", language="en"))],
        ids=["iri", "blank-node", "plain", "typed", "tagged", "triple"])
    def test_repr_evaluates_to_an_equal_term(self, x):
        names = {"Iri": Iri, "BlankNode": BlankNode, "Literal": Literal,
                 "Triple": Triple}
        y = eval(repr(x), names)
        assert type(y) is type(x) and y == x

    @pytest.mark.parametrize("x", [
        iri("a"), BlankNode("b"), Literal("c"), Literal("1", XSD_INTEGER),
        Literal("chat", language="fr"),
        Triple(iri("s"), iri("p"), Literal("o")),
        _SubTriple(BlankNode("s"), iri("p"), iri("o"))],
        ids=lambda x: type(x).__name__)
    def test_copies_keep_their_exact_class(self, x):
        copies = [copy.copy(x), copy.deepcopy(x)] + [
            pickle.loads(pickle.dumps(x, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies:
            assert type(y) is type(x) and y == x

    def test_subclass_call_builds_the_subclass(self):
        t = _SubTriple(iri("s"), iri("p"), iri("o"))
        assert type(t) is _SubTriple and t.object == iri("o")
        with pytest.raises(ValueError, match="predicate must be an IRI"):
            _SubTriple(iri("s"), BlankNode("p"), iri("o"))

    @pytest.mark.parametrize("bad, message", [
        (tuple.__new__(Triple, (Literal("x"), iri("p"), iri("o"))),
         "triple subject must be an IRI or blank node"),
        (tuple.__new__(BlankNode, (None, "")),
         "blank node label must be non-empty")],
        ids=["triple", "blank-node"])
    def test_unpickling_runs_the_checks(self, bad, message):
        # An instance built around the checks pickles, but its unpickling
        # calls __new__ and fails there.
        data = pickle.dumps(bad)
        with pytest.raises(ValueError, match=message):
            pickle.loads(data)

    # copy and every pickle protocol rebuild a term or triple by a call of
    # its class, so each runs the check.
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("bad, message", [
        (tuple.__new__(Iri, ("a b",)), "not an IRI: 'a b'"),
        (tuple.__new__(BlankNode, (None, "")),
         "blank node label must be non-empty"),
        (tuple.__new__(Triple, (Literal("x"), iri("p"), iri("p"))),
         "triple subject must be an IRI or blank node")],
        ids=["iri", "blank-node", "triple"])
    def test_every_protocol_runs_the_checks(self, bad, message, protocol):
        for copy_of in (copy.copy, lambda x: pickle.loads(
                pickle.dumps(x, protocol))):
            with pytest.raises(ValueError) as e:
                copy_of(bad)
            assert str(e.value) == message

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_protocol_tags_a_literal_as_its_class_does(self, protocol):
        # A language-tagged literal carries rdf:langString.
        bad = tuple.__new__(Literal, ("x", XSD_INTEGER, "en"))
        for y in (copy.copy(bad), pickle.loads(pickle.dumps(bad, protocol))):
            assert tuple(y) == ("x", RDF_LANG_STRING, "en")
            assert type(y) is Literal


# hypothesis: terms compare and hash by kind and value, also when one text
# is an IRI, a blank node label and a literal's lexical form at once

_texts = st.sampled_from(["a", "b", "http://x/a"])
_any_term = st.one_of(
    _texts.map(Iri), _texts.map(BlankNode),
    st.builds(Literal, _texts, st.sampled_from([XSD_STRING, XSD_INTEGER,
                                                Iri("a")])),
    st.builds(Literal, _texts, language=st.sampled_from(["a", "en"])))
_FIELDS = {Iri: ("value",), BlankNode: ("label",),
           Literal: ("lexical", "datatype", "language")}


def _kind_and_fields(term):
    return (type(term),) + tuple(getattr(term, f) for f in _FIELDS[type(term)])


@given(_any_term, _any_term, st.data())
def test_terms_are_equal_exactly_when_kind_and_fields_are(a, b, data):
    same = _kind_and_fields(a) == _kind_and_fields(b)
    assert (a == b) is same and (a != b) is not same
    assert (b in {a}) is same
    if same:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    subject = data.draw(st.sampled_from([x for x in (a, b)
                                         if not isinstance(x, Literal)]
                                        or [iri("s")]))
    t = Triple(subject, iri("p"), b)
    assert all(t != x and x != t for x in (a, b, subject, t.predicate))
    assert t not in {a, b} and pickle.loads(pickle.dumps(t)) == t


class TestGraph:
    def setup_method(self):
        self.g = Graph([
            Triple(iri("s"), iri("p"), iri("o")),
            Triple(iri("s"), iri("p"), Literal("v")),
            Triple(iri("s"), iri("q"), iri("o2")),
        ])

    def test_set_semantics(self):
        g = Graph([*self.g, Triple(iri("s"), iri("p"), iri("o"))])
        assert len(g) == 3

    def test_match_wildcards(self):
        assert len(self.g.match(iri("s"), None, None)) == 3
        assert len(self.g.match(None, iri("p"), None)) == 2
        (hit,) = self.g.match(None, None, Literal("v"))
        assert hit.subject == iri("s")

    def test_objects_subjects_value(self):
        assert self.g.objects(iri("s"), iri("q")) == {iri("o2")}
        assert self.g.subjects(iri("p"), iri("o")) == {iri("s")}
        assert self.g.value(iri("s"), iri("q")) == iri("o2")
        assert self.g.value(iri("nope"), iri("q")) is None

    def test_contains(self):
        assert Triple(iri("s"), iri("q"), iri("o2")) in self.g
        assert Triple(iri("s"), iri("q"), iri("o3")) not in self.g


class TestDatasetGraph:
    def setup_method(self):
        self.g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        self.d = Dataset(Graph(), {iri("g"): self.g})

    def test_existing_name_gives_the_stored_graph(self, monkeypatch):
        builds = []
        original = Graph.__init__

        def counting(graph, *args):
            builds.append(graph)
            original(graph, *args)

        monkeypatch.setattr(Graph, "__init__", counting)
        assert self.d.graph(iri("g")) is self.d.named_graphs[iri("g")]
        assert self.d.graph(iri("nope")) == Graph()
        # One build: the Graph() just compared with, none inside graph().
        assert len(builds) == 1

    def test_missing_name_gives_an_empty_graph(self):
        missing = self.d.graph(iri("nope"))
        assert isinstance(missing, Graph)
        assert len(missing) == 0 and missing == Graph()

    @pytest.mark.parametrize("default", [
        "not a graph", frozenset(), [Triple(iri("s"), iri("p"), iri("o"))],
        None], ids=["str", "frozenset", "triples", "none"])
    def test_default_graph_must_be_a_graph(self, default):
        with pytest.raises(TypeError, match="^default graph must be a Graph$"):
            Dataset(default)


class _ForgedGraph:
    """Pickles as a Graph call with a member that is not a Triple."""

    def __reduce__(self):
        return Graph, (frozenset({("a", "b", "c")}),)


class _ForgedDataset:
    """Pickles as a Dataset call whose default graph is a string."""

    def __reduce__(self):
        return Dataset, ("not a graph", {})


class TestGraphPickle:
    g = Graph([Triple(iri("s"), iri("p"), Literal("v")),
               Triple(BlankNode("b"), iri("q"), iri("o"))])

    @pytest.mark.parametrize("x", [
        g, Dataset(g, {iri("n"): g, BlankNode("m"): Graph()}),
        Body(b"x", g)], ids=["graph", "dataset", "body"])
    def test_round_trips_at_every_protocol_and_copy(self, x):
        copies = [copy.copy(x)] + [
            pickle.loads(pickle.dumps(x, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies:
            assert type(y) is type(x) and y == x

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_built_groupings_stay_out_of_the_pickle(self, protocol):
        g = Graph(self.g)
        g.match(iri("s"), iri("p"))
        g.match(None, iri("q"), iri("o"))
        assert g._index
        assert (pickle.dumps(g, protocol)
                == pickle.dumps(Graph(self.g), protocol))
        assert pickle.loads(pickle.dumps(g, protocol))._index is None

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_runs_the_triple_check(self, protocol):
        data = pickle.dumps(_ForgedGraph(), protocol)
        with pytest.raises(TypeError, match="^not a Triple: "):
            pickle.loads(data)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_runs_the_default_graph_check(self, protocol):
        data = pickle.dumps(_ForgedDataset(), protocol)
        with pytest.raises(TypeError, match="^default graph must be a Graph$"):
            pickle.loads(data)


class TestPaths:
    def setup_method(self):
        # a linked list: node1 -> node2 -> node3, values attached via `first`
        self.g = Graph([
            Triple(iri("n1"), RDF_FIRST, Literal("1", datatype=XSD_INTEGER)),
            Triple(iri("n1"), RDF_REST, iri("n2")),
            Triple(iri("n2"), RDF_FIRST, Literal("2", datatype=XSD_INTEGER)),
            Triple(iri("n2"), RDF_REST, iri("n3")),
            Triple(iri("n3"), RDF_FIRST, Literal("3", datatype=XSD_INTEGER)),
            Triple(iri("n3"), RDF_REST, RDF_NIL),
        ])

    def test_pred(self):
        assert eval_path(self.g, iri("n2"), (RDF_REST,)) == {iri("n3")}

    def test_seq(self):
        assert eval_path(self.g, iri("n1"), (RDF_REST, RDF_FIRST)) == {
            Literal("2", datatype=XSD_INTEGER)}

    def test_empty_path_gives_start(self):
        assert eval_path(self.g, iri("n1"), ()) == {iri("n1")}

    def test_path_through_a_literal_gives_nothing(self):
        assert eval_path(self.g, iri("n1"), (RDF_FIRST, RDF_REST)) == set()


class TestIsomorphism:
    def test_ground_graphs_compare_by_equality(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        h = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        assert isomorphic_datasets(Dataset(g), Dataset(h))
        assert not isomorphic_datasets(Dataset(g), Dataset(Graph()))

    def test_blank_relabelling_is_isomorphic(self):
        g = Graph([Triple(BlankNode("a"), iri("p"), BlankNode("b")),
                   Triple(BlankNode("b"), iri("p"), iri("end"))])
        h = Graph([Triple(BlankNode("x"), iri("p"), BlankNode("y")),
                   Triple(BlankNode("y"), iri("p"), iri("end"))])
        assert isomorphic_datasets(Dataset(g), Dataset(h))

    def test_structure_matters(self):
        g = Graph([Triple(BlankNode("a"), iri("p"), BlankNode("b")),
                   Triple(BlankNode("b"), iri("p"), iri("end"))])
        h = Graph([Triple(BlankNode("x"), iri("p"), BlankNode("y")),
                   Triple(BlankNode("x"), iri("p"), iri("end"))])
        assert not isomorphic_datasets(Dataset(g), Dataset(h))

    def test_blank_mapping_must_be_injective(self):
        g = Graph([Triple(BlankNode("a"), iri("p"), iri("o")),
                   Triple(BlankNode("b"), iri("q"), iri("o"))])
        h = Graph([Triple(BlankNode("x"), iri("p"), iri("o")),
                   Triple(BlankNode("x"), iri("q"), iri("o"))])
        assert not isomorphic_datasets(Dataset(g), Dataset(h))

    def test_dataset_iso_spans_graph_names(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        a = Dataset(Graph([Triple(BlankNode("c"), iri("g"), BlankNode("n"))]),
                    {BlankNode("n"): g})
        b = Dataset(Graph([Triple(BlankNode("k"), iri("g"), BlankNode("m"))]),
                    {BlankNode("m"): g})
        assert isomorphic_datasets(a, b)

    def test_dataset_named_graph_contents_checked(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        a = Dataset(Graph(), {iri("g1"): g})
        b = Dataset(Graph(), {iri("g1"): Graph()})
        assert not isomorphic_datasets(a, b)

    def test_default_graph_is_no_named_graph(self):
        t = Triple(iri("s"), iri("p"), iri("o"))
        default = Dataset(Graph([t]))
        named = Dataset(Graph(),
                        {Iri("urn:x-httplift:default-graph"): Graph([t])})
        assert not isomorphic_datasets(default, named)
        assert not isomorphic_datasets(named, default)

    @pytest.mark.parametrize("name", [BlankNode("g"), iri("g")])
    def test_empty_named_graph_counts(self, name):
        empty = Dataset(Graph(), {name: Graph()})
        assert not isomorphic_datasets(empty, Dataset())
        assert not isomorphic_datasets(Dataset(), empty)
        assert isomorphic_datasets(empty, Dataset(Graph(), {name: Graph()}))


# Cases that colour refinement cannot settle alone, or that are too deep or
# too symmetric for a backtracking search.

def _cycle(labels):
    return [Triple(BlankNode(x), iri("p"), BlankNode(y))
            for x, y in zip(labels, labels[1:] + labels[:1])]


def _chain(labels, reversed_at=None):
    """_:labels[0] :p _:labels[1] ..., one edge reversed if asked."""
    return Graph(Triple(BlankNode(y), iri("p"), BlankNode(x))
                 if i == reversed_at else
                 Triple(BlankNode(x), iri("p"), BlankNode(y))
                 for i, (x, y) in enumerate(zip(labels, labels[1:])))


_CHAIN = ["n%d" % i for i in range(2000)]
_RELABELLED_CHAIN = ["m%d" % i for i in random.Random(0).sample(range(2000),
                                                                 2000)]


def _lone_nodes(numbers, prefix):
    """Blank nodes that each carry only :p "x"."""
    return Graph(Triple(BlankNode("%s%d" % (prefix, i)), iri("p"),
                        Literal("x")) for i in numbers)


def _lifted_registration():
    with open(os.path.join(FIXTURES, "registration.http")) as fh:
        return lift_conversation(load_transcript(fh.read()))


def _relabelled(d):
    """`d` with every blank node, graph names included, given a new label."""
    def term(x):
        return BlankNode("r" + x.label) if isinstance(x, BlankNode) else x

    def graph(g):
        return Graph(Triple(*map(term, t)) for t in g)
    return Dataset(graph(d.default_graph), {
        term(name): graph(g) for name, g in d.named_graphs.items()})


def _registration_header_swap():
    """The lifted registration fixture, and a copy in which two messages
    exchange header nodes whose values differ. Every node keeps its
    triples' shapes, so only the wider structure tells the copies apart."""
    lifted = _lifted_registration()
    g = lifted.default_graph
    links = sorted(g.match(None, vocab.HDR, None), key=repr)
    x, y = next((x, y) for x, y in itertools.combinations(links, 2)
                if x.subject != y.subject
                and g.value(x.object, vocab.HDR_VALUE)
                != g.value(y.object, vocab.HDR_VALUE))
    swapped = (set(g) - {x, y}) | {Triple(x.subject, vocab.HDR, y.object),
                                   Triple(y.subject, vocab.HDR, x.object)}
    return lifted, Dataset(Graph(swapped), lifted.named_graphs)


@pytest.mark.parametrize("a, b, expected", [
    pytest.param(Graph(_cycle(["a", "b", "c"]) + _cycle(["d", "e", "f"])),
                 Graph(_cycle(["u", "v", "w", "x", "y", "z"])), False,
                 id="two-triangles-vs-hexagon"),
    pytest.param(Graph(_cycle(["a", "b", "c", "d", "e", "f"])),
                 Graph(_cycle(["w", "u", "z", "x", "v", "y"])), True,
                 id="hexagon-relabelled"),
    pytest.param(_chain(_CHAIN), _chain(_RELABELLED_CHAIN), True,
                 id="chain-2000-relabelled"),
    pytest.param(_chain(_CHAIN), _chain(_CHAIN, reversed_at=1000), False,
                 id="chain-2000-one-edge-reversed"),
    pytest.param(*_registration_header_swap(), False,
                 id="registration-header-nodes-swapped"),
    pytest.param(_lifted_registration(), _relabelled(_lifted_registration()),
                 True, id="registration-relabelled"),
    # Only one-node tuples on one side, only shared tuples on the other.
    pytest.param(Graph([Triple(BlankNode("a"), iri("p"), BlankNode("a")),
                        Triple(BlankNode("b"), iri("p"), BlankNode("b"))]),
                 Graph(_cycle(["a", "b"])), False,
                 id="self-loops-vs-2-cycle"),
    # A graph name that is the subject of a triple in its own graph, and
    # the same triple in the default graph.
    pytest.param(Dataset(Graph(), {BlankNode("g"): Graph([Triple(
                     BlankNode("g"), iri("p"), iri("o"))])}),
                 Dataset(Graph([Triple(BlankNode("g"), iri("p"), iri("o"))]),
                         {BlankNode("g"): Graph()}), False,
                 id="graph-name-in-own-graph-vs-default"),
    # One cell of 2000 tied nodes: 999 individualisations deep.
    pytest.param(_lone_nodes(range(1000), "n"),
                 _lone_nodes(random.Random(2).sample(range(1000), 1000), "m"),
                 True, id="lone-nodes-1000-relabelled"),
])
def test_hard_isomorphism_cases(a, b, expected):
    if isinstance(a, Graph):
        a, b = Dataset(a), Dataset(b)
    assert isomorphic_datasets(a, b) is expected
    assert isomorphic_datasets(b, a) is expected


def test_search_backtracks_past_a_failed_branch():
    # Refinement leaves all 12 nodes of a side tied. Individualising a
    # triangle node against a hexagon node, or the reverse, fails once
    # refined, and the search must go on to the next candidate. Which
    # candidate comes first depends on iteration order, hence the many
    # relabellings.
    labels = ["n%d" % i for i in range(12)]
    g = Graph(_cycle(labels[:3]) + _cycle(labels[3:6]) + _cycle(labels[6:]))
    rng = random.Random(1)
    for k in range(20):
        new = ["r%d-%d" % (k, i) for i in rng.sample(range(12), 12)]
        h = Graph(_cycle(new[:3]) + _cycle(new[3:6]) + _cycle(new[6:]))
        assert isomorphic_datasets(Dataset(g), Dataset(h))


def test_undo_restores_the_colouring_at_its_mark(monkeypatch):
    snapshots, undone = {}, []
    mark, undo = rdf._Colouring.mark, rdf._Colouring.undo

    def state(c):
        return c.colour[:], [set(cell) for cell in c.cells], c.cell_sig[:]

    def checked_mark(c):
        m = mark(c)
        snapshots[m] = state(c)
        return m

    def checked_undo(c, m):
        undo(c, m)
        assert state(c) == snapshots[m]
        undone.append(m)

    monkeypatch.setattr(rdf._Colouring, "mark", checked_mark)
    monkeypatch.setattr(rdf._Colouring, "undo", checked_undo)
    # Symmetric and not isomorphic, so every branch is tried and undone. The
    # hub's cell is a pair before the search, and changes its signature on
    # each individualisation.
    labels = ["n%d" % i for i in range(6)]
    hub = [Triple(BlankNode("hub"), iri("q"), BlankNode(x)) for x in labels]
    g = Graph(hub + _cycle(labels[:3]) + _cycle(labels[3:]))
    h = Graph(hub + _cycle(labels))
    assert not isomorphic_datasets(Dataset(g), Dataset(h))
    assert len(undone) > 3


def _get_transcript(pairs):
    """GET/200 pairs with distinct paths and header values."""
    return "\n---\n".join(
        "GET /r/%d?q=%d HTTP/1.1\nHost: example.org\nX-Id: %d\n---\n"
        "HTTP/1.1 200 OK\nContent-Type: text/plain\nETag: \"%d\"\n\nbody %d"
        % ((i,) * 5) for i in range(pairs))


@pytest.fixture
def signature_calls(monkeypatch):
    """The nodes whose refinement signature was computed, in order."""
    calls = []
    signature = rdf._Colouring._signature

    def counted(c, v):
        calls.append(v)
        return signature(c, v)

    monkeypatch.setattr(rdf._Colouring, "_signature", counted)
    return calls


def test_signatures_per_blank_node_stay_flat(signature_calls):
    # Counts, not times: refinement stays linear in the size of the data.
    calls = signature_calls
    per_node = []
    for pairs in (10, 100):
        lifted = lift_conversation(load_transcript(_get_transcript(pairs)))
        calls.clear()
        assert isomorphic_datasets(lifted, _relabelled(lifted))
        per_node.append(len(calls) / (2 * len(_blank_nodes(lifted))))
    assert 1 / 1.1 <= per_node[1] / per_node[0] <= 1.1, per_node


# Equal inputs are accepted by one comparison, before any refinement; every
# other input still goes through the search.

_LIFTED_FIXTURES = ["registration.http", "registration.har",
                    "registration_json.http", "findings.http"]


def _lifted_and_reparsed(name):
    lifted = cli._load_dataset(os.path.join(FIXTURES, name), None, None)
    return lifted, parse_trig(serialize_trig(lifted, vocab.PREFIXES))


def _swap_header_values(d):
    """`d` with the values of two header nodes exchanged, chosen so that
    neither header's new value occurs under its name anywhere in `d`: the
    same counts and ground triples, different blank-node structure."""
    g = d.default_graph
    names = {t.subject: t.object for t in g.match(None, vocab.HDR_NAME, None)}
    values = sorted(g.match(None, vocab.HDR_VALUE, None), key=repr)
    seen = {}                               # header name -> its values
    for t in values:
        seen.setdefault(names.get(t.subject), set()).add(t.object)
    x, y = next((x, y) for x, y in itertools.combinations(values, 2)
                if y.object not in seen[names.get(x.subject)]
                and x.object not in seen[names.get(y.subject)])
    swapped = (set(g) - {x, y}) | {
        Triple(x.subject, vocab.HDR_VALUE, y.object),
        Triple(y.subject, vocab.HDR_VALUE, x.object)}
    return Dataset(Graph(swapped), d.named_graphs)


class TestEqualInputs:
    @pytest.mark.parametrize("name", _LIFTED_FIXTURES)
    def test_reparse_is_accepted_without_refinement(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("refinement ran on equal inputs")

        monkeypatch.setattr(rdf._Colouring, "__init__", refuse)
        lifted, reparsed = _lifted_and_reparsed(name)
        assert _blank_nodes(lifted) and lifted == reparsed
        assert isomorphic_datasets(lifted, reparsed) is True
        assert isomorphic_datasets(Dataset(lifted.default_graph),
                                   Dataset(reparsed.default_graph)) is True

    @pytest.mark.parametrize("name", _LIFTED_FIXTURES)
    def test_relabelled_copy_still_refines(self, name, signature_calls):
        lifted, _ = _lifted_and_reparsed(name)
        relabelled = _relabelled(lifted)
        assert isomorphic_datasets(lifted, relabelled) is True
        assert signature_calls
        signature_calls.clear()
        assert isomorphic_datasets(Dataset(lifted.default_graph),
                                   Dataset(relabelled.default_graph)) is True
        assert signature_calls

    @pytest.mark.parametrize("name", _LIFTED_FIXTURES)
    def test_header_values_exchanged_are_not_isomorphic(self, name):
        # The benchmark's negative control, on the TriG reparse.
        lifted, reparsed = _lifted_and_reparsed(name)
        swapped = _swap_header_values(reparsed)
        assert len(swapped.default_graph) == len(lifted.default_graph)
        assert isomorphic_datasets(lifted, swapped) is False
        assert isomorphic_datasets(swapped, lifted) is False


# hypothesis: relabelling blank nodes never changes the isomorphism class

_labels = st.sampled_from(["a", "b", "c", "d", "e"])
_preds = st.sampled_from([iri("p"), iri("q"), RDF_TYPE])
_nodes = st.one_of(_labels.map(BlankNode), st.sampled_from([iri("u"), iri("v")]))
_objects = st.one_of(_nodes, st.sampled_from([Literal("x"), Literal("y")]))
_triples = st.builds(Triple, _nodes, _preds, _objects)


@given(st.lists(_triples, max_size=12), st.permutations(["a", "b", "c", "d", "e"]))
def test_blank_permutation_preserves_isomorphism(triples, perm):
    mapping = dict(zip(["a", "b", "c", "d", "e"], perm))

    def rename(t):
        def f(x):
            return BlankNode(mapping[x.label]) if isinstance(x, BlankNode) else x
        return Triple(f(t.subject), t.predicate, f(t.object))

    g = Graph(triples)
    h = Graph(rename(t) for t in triples)
    assert isomorphic_datasets(Dataset(g), Dataset(h))


# hypothesis: isomorphism agrees with a search over every bijection

def _blank_nodes(d: Dataset) -> set:
    nodes = {name for name in d.named_graphs if isinstance(name, BlankNode)}
    for g in [d.default_graph, *d.named_graphs.values()]:
        nodes |= {x for t in g for x in (t.subject, t.object)
                  if isinstance(x, BlankNode)}
    return nodes


def _isomorphic_by_brute_force(a: Dataset, b: Dataset) -> bool:
    """Reference: try every bijection between the blank nodes of a and b."""
    nodes_a = sorted(_blank_nodes(a), key=repr)
    nodes_b = sorted(_blank_nodes(b), key=repr)
    if len(nodes_a) != len(nodes_b):
        return False
    for image in itertools.permutations(nodes_b):
        f = dict(zip(nodes_a, image))

        def graph(g):
            return Graph(Triple(f.get(t.subject, t.subject), t.predicate,
                                f.get(t.object, t.object)) for t in g)

        if graph(a.default_graph) == b.default_graph and b.named_graphs == {
                f.get(name, name): graph(g)
                for name, g in a.named_graphs.items()}:
            return True
    return False


# Few terms, so that independent draws are often isomorphic.
_few_terms_triple = st.builds(
    Triple, _labels.map(BlankNode), st.just(iri("p")),
    st.one_of(_labels.map(BlankNode), st.just(Literal("x"))))
_few_triples = st.lists(_few_terms_triple, max_size=5)


@settings(max_examples=300)
@given(_few_triples, _few_triples)
def test_isomorphic_agrees_with_brute_force(ta, tb):
    expected = _isomorphic_by_brute_force(Dataset(Graph(ta)),
                                          Dataset(Graph(tb)))
    event("isomorphic" if expected else "not isomorphic")
    assert isomorphic_datasets(Dataset(Graph(ta)),
                               Dataset(Graph(tb))) is expected


def _dataset(quads) -> Dataset:
    """Triples under None go to the default graph; the others are named
    by their blank node, which may also occur in triples. A quad whose
    triple is None only names its graph, which may then be empty."""
    named = {}
    for name, t in quads:
        named.setdefault(name, []).extend([t] if t else [])
    return Dataset(Graph(named.pop(None, ())),
                   {name: Graph(ts) for name, ts in named.items()})


_few_quads = st.lists(st.tuples(st.one_of(st.none(), _labels.map(BlankNode)),
                                st.one_of(st.none(), _few_terms_triple)),
                      max_size=5)


@settings(max_examples=300)
@given(_few_quads, _few_quads)
def test_isomorphic_datasets_agrees_with_brute_force(qa, qb):
    a, b = _dataset(qa), _dataset(qb)
    expected = _isomorphic_by_brute_force(a, b)
    event("isomorphic" if expected else "not isomorphic")
    assert isomorphic_datasets(a, b) is expected


# hypothesis: the equality shortcut and the search agree on equal inputs

def _quads(d: Dataset) -> list:
    """The tuples `isomorphic_datasets` hands to the search."""
    out = [(None, *t) for t in d.default_graph]
    for name, g in d.named_graphs.items():
        out.append((name,))
        out.extend((name, *t) for t in g)
    return out


def _rebuilt_dataset(d: Dataset) -> Dataset:
    """An equal dataset built from equal terms that are different objects."""
    def graph(g):
        return Graph(Triple(*map(_rebuilt, t)) for t in g)
    return Dataset(graph(d.default_graph), {
        _rebuilt(name): graph(g) for name, g in d.named_graphs.items()})


_mixed_quads = st.lists(
    st.tuples(st.one_of(st.none(), _labels.map(BlankNode),
                        st.just(iri("g"))),
              st.one_of(st.none(), _triples)),
    max_size=12)


@settings(max_examples=200)
@given(_mixed_quads)
def test_shortcut_and_search_agree_on_equal_datasets(quads):
    d = _dataset(quads)
    copy = _rebuilt_dataset(d)
    assert copy == d
    assert isomorphic_datasets(d, copy) is True
    assert rdf._tuples_isomorphic(_quads(d), _quads(copy)) is True
    assert rdf._tuples_isomorphic(list(d.default_graph),
                                  list(copy.default_graph)) is True


# hypothesis: every indexed lookup agrees with a scan over all triples

_subjects = st.sampled_from([iri("s1"), iri("s2"), BlankNode("b1")])
_predicates = st.sampled_from([iri("p"), iri("q"), RDF_TYPE])
_values = st.one_of(
    _subjects,
    st.sampled_from([Literal("1", datatype=XSD_INTEGER), Literal("1"),
                     Literal("x"), Literal("x", language="en")]))
# Terms found in no generated graph, including near misses of its literals.
_OUTSIDE = [iri("elsewhere"), BlankNode("b9"), Literal("2", datatype=XSD_INTEGER),
            Literal("x", language="fr")]


def _rebuilt(term):
    """An equal term that is a different object."""
    if isinstance(term, Literal):
        return Literal(term.lexical, Iri(term.datatype.value), term.language)
    if isinstance(term, Iri):
        return Iri(term.value)
    return BlankNode(term.label)


def _scan(g, s, p, o):
    return {t for t in g if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)}


@given(st.lists(st.builds(Triple, _subjects, _predicates, _values),
                max_size=30), st.data())
def test_lookups_agree_with_a_scan(triples, data):
    g = Graph(triples)
    # Any term of the graph may be asked for in any position.
    pool = sorted({x for t in g for x in (t.subject, t.predicate, t.object)},
                  key=repr) + _OUTSIDE

    def term():
        picked = data.draw(st.sampled_from(pool))
        return _rebuilt(picked) if data.draw(st.booleans()) else picked

    for bound in itertools.product((False, True), repeat=3):
        s, p, o = (term() if b else None for b in bound)
        expected = _scan(g, s, p, o)
        found = g.match(s, p, o)
        assert found == expected
        found.clear()
        found.add(Triple(iri("added"), iri("p"), iri("o")))
        assert g.match(s, p, o) == expected

        objects = g.objects(s, p)
        assert objects == {t.object for t in _scan(g, s, p, None)}
        objects.clear()
        assert g.objects(s, p) == {t.object for t in _scan(g, s, p, None)}
        subjects = g.subjects(p, o)
        assert subjects == {t.subject for t in _scan(g, None, p, o)}
        subjects.clear()
        assert g.subjects(p, o) == {t.subject for t in _scan(g, None, p, o)}

        # value() binds s and p; None matches nothing, as in a scan.
        candidates = {t.object for t in g
                      if t.subject == s and t.predicate == p}
        value = g.value(s, p)
        assert value in candidates if candidates else value is None
    assert g.match() == set(g)


class TestIndexBuilds:
    @pytest.fixture
    def built(self, monkeypatch):
        """(triples, position) of every grouping that gets built."""
        calls = []
        original = rdf._build_index

        def counting(triples, pos):
            triples = list(triples)
            calls.append((frozenset(triples), pos))
            return original(triples, pos)

        monkeypatch.setattr(rdf, "_build_index", counting)
        return calls

    @staticmethod
    def conversation():
        with open(os.path.join(FIXTURES, "registration.http")) as fh:
            return load_transcript(fh.read())

    def test_rules_and_queries_build_the_default_index_once(self, built):
        d = lift_conversation(self.conversation())
        validate(d)
        g = d.default_graph
        queries.cq1_media_types(d)
        queries.cq2_interaction_status(d)
        queries.cq3_locations(d)
        queries.cq4_conversation_status(d)
        for request in g.subjects(RDF_TYPE, vocab.REQUEST):
            queries.cq5_negotiation(d, request)
        assert queries.cq6_body_values(d, Iri("http://example.org/ns#ids"))
        queries.cq7_query_param(d, "count")
        assert built.count((frozenset(g), 1)) == 1
        # No rule or query reads a header's value by subject or object, so
        # :hdrValue is grouped by predicate only.
        assert vocab.HDR_VALUE in g._index[None]
        assert [key for key in g._index
                if key is not None and key[0] == vocab.HDR_VALUE] == []

    # `order` holds the groupings within one predicate that answer the
    # pattern, as their keys in `Graph._index`: (predicate, the position
    # they are grouped by). None: the pattern reads no grouping at all.
    @pytest.mark.parametrize("pattern, order", [
        ("spo", {("p", 0)}), ("sp-", {("p", 0)}),
        ("s--", {("p", 0), ("q", 0)}),
        ("-po", {("p", 2)}), ("-p-", set()),
        ("s-o", {("p", 0), ("q", 0)}), ("--o", {("p", 2), ("q", 2)}),
        ("---", None)])
    def test_a_lookup_builds_only_the_index_it_reads(self, built, pattern,
                                                     order):
        t = Triple(iri("s"), iri("p"), iri("o"))
        u = Triple(iri("s"), iri("q"), iri("o"))
        g = Graph([t, u, Triple(iri("s2"), iri("p"), iri("o2"))])
        s, p, o = (x if c != "-" else None for x, c in zip(t, pattern))
        for _ in range(2):
            assert g.match(s, p, o) == _scan(g, s, p, o)
        if order is None:
            assert built == [] and g._index is None
            return
        keys = {(iri(name), pos) for name, pos in order}
        assert set(g._index) == {None} | keys
        expected = [(frozenset(g), 1)] + [
            (frozenset(_scan(g, None, q, None)), pos) for q, pos in keys]
        assert len(built) == len(expected) and set(built) == set(expected)

    def test_lift_and_serialize_build_no_index(self, built):
        d = lift_conversation(self.conversation())
        serialize_trig(d, vocab.PREFIXES)
        assert built == []

    def test_threads_racing_on_first_lookups_get_the_scan(self):
        # Enough triples, and a short enough switch interval, that a first
        # grouping is still being built when other threads ask for it.
        g = Graph(Triple(iri("s%d" % (i % 50)), iri("p%d" % (i % 7)),
                         Literal(str(i % 30))) for i in range(3000))
        terms = (iri("s3"), iri("p3"), Literal("3"))
        patterns = [tuple(x if b else None for x, b in zip(terms, bound))
                    for bound in itertools.product((False, True), repeat=3)]
        expected = [_scan(g, *pattern) for pattern in patterns]
        values = {t.object for t in _scan(g, *terms[:2], None)}
        start = threading.Barrier(8, timeout=30)

        def first_lookups(k):
            start.wait()
            order = list(range(k, 8)) + list(range(k))
            found = {i: g.match(*patterns[i]) for i in order}
            return [found[i] for i in range(8)], g.value(*terms[:2])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                answers = list(pool.map(first_lookups, range(8),
                                        timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(found == expected and value in values
                   for found, value in answers)
