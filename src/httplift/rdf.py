"""Minimal in-memory RDF data model: terms, triples, graphs, named-graph
datasets, property paths and blank-node-aware isomorphism.

Graphs and datasets are immutable after construction; all operations here
are pure functions and safe to use from multiple threads. A graph builds
its triple indexes on its first lookup, not on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"


@dataclass(frozen=True, slots=True)
class Iri:
    value: str

    def __post_init__(self):
        if not self.value:
            raise ValueError("IRI must be non-empty")
        if any(c.isspace() for c in self.value):
            raise ValueError("IRI must not contain whitespace: %r" % self.value)

    def __repr__(self):
        return "Iri(%r)" % self.value


@dataclass(frozen=True, slots=True)
class BlankNode:
    label: str

    def __post_init__(self):
        if not self.label:
            raise ValueError("blank node label must be non-empty")

    def __repr__(self):
        return "BlankNode(%r)" % self.label


XSD_STRING = Iri(XSD + "string")
XSD_INTEGER = Iri(XSD + "integer")
XSD_BOOLEAN = Iri(XSD + "boolean")
XSD_DATE = Iri(XSD + "date")

RDF_TYPE = Iri(RDF + "type")
RDF_FIRST = Iri(RDF + "first")
RDF_REST = Iri(RDF + "rest")
RDF_NIL = Iri(RDF + "nil")
RDF_LANG_STRING = Iri(RDF + "langString")


@dataclass(frozen=True, slots=True)
class Literal:
    lexical: str
    datatype: Iri = XSD_STRING
    language: Optional[str] = None

    def __post_init__(self):
        # A language-tagged literal always carries the langString datatype.
        if self.language is not None:
            object.__setattr__(self, "datatype", RDF_LANG_STRING)

    def __repr__(self):
        if self.language is not None:
            return "Literal(%r, lang=%r)" % (self.lexical, self.language)
        if self.datatype == XSD_STRING:
            return "Literal(%r)" % self.lexical
        return "Literal(%r, %r)" % (self.lexical, self.datatype.value)


Term = Union[Iri, BlankNode, Literal]


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject must not be a literal")
        if not isinstance(self.subject, (Iri, BlankNode)):
            raise ValueError("triple subject must be an IRI or blank node")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        if not isinstance(self.object, (Iri, BlankNode, Literal)):
            raise ValueError("triple object must be a term")


_NO_KEYS: Mapping = MappingProxyType({})


def _build_index(triples: Iterable[Triple]) -> tuple:
    """SPO, POS and OSP indexes, each `term -> term -> [Triple]`. Every list
    keeps the order in which `triples` yields its members."""
    spo, pos, osp = {}, {}, {}
    for t in triples:
        s, p, o = t.subject, t.predicate, t.object
        spo.setdefault(s, {}).setdefault(p, []).append(t)
        pos.setdefault(p, {}).setdefault(o, []).append(t)
        osp.setdefault(o, {}).setdefault(s, []).append(t)
    return spo, pos, osp


class Graph:
    """An immutable, duplicate-free set of triples.

    Lookups are answered from SPO, POS and OSP hash indexes (Weiss, Karras &
    Bernstein, "Hexastore", VLDB 2008), built on the first lookup rather
    than on construction. They live in one slot assigned once, so threads
    racing on that first lookup each see either no index or a whole one."""

    __slots__ = ("_triples", "_index")

    def __init__(self, triples: Iterable[Triple] = ()):
        triples = frozenset(triples)
        for t in triples:
            if not isinstance(t, Triple):
                raise TypeError("not a Triple: %r" % (t,))
        self._triples = triples
        self._index = None

    def insert(self, triple: Triple) -> "Graph":
        if not isinstance(triple, Triple):
            raise TypeError("not a Triple: %r" % (triple,))
        if triple in self._triples:
            return self
        return Graph(self._triples | {triple})

    def _indexes(self) -> tuple:
        index = self._index
        if index is None:
            index = self._index = _build_index(self._triples)
        return index

    def _lookup(self, s: Optional[Term], p: Optional[Term],
                o: Optional[Term]) -> Iterable[Triple]:
        """The triples matching a pattern, None being a wildcard. The result
        may be an internal container: callers copy it, never hand it out."""
        if s is None and p is None and o is None:
            return self._triples
        spo, pos, osp = self._indexes()
        if s is not None:
            if p is not None:
                found = spo.get(s, _NO_KEYS).get(p, ())
                return found if o is None else [t for t in found
                                                if t.object == o]
            if o is not None:
                return osp.get(o, _NO_KEYS).get(s, ())
            return chain.from_iterable(spo.get(s, _NO_KEYS).values())
        if p is not None:
            if o is not None:
                return pos.get(p, _NO_KEYS).get(o, ())
            return chain.from_iterable(pos.get(p, _NO_KEYS).values())
        return chain.from_iterable(osp.get(o, _NO_KEYS).values())

    def match(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> set:
        return set(self._lookup(s, p, o))

    def objects(self, s: Optional[Term], p: Optional[Term]) -> set:
        return {t.object for t in self._lookup(s, p, None)}

    def subjects(self, p: Optional[Term], o: Optional[Term]) -> set:
        return {t.subject for t in self._lookup(None, p, o)}

    def value(self, s: Term, p: Iri) -> Optional[Term]:
        """A single object of (s, p, ·), or None. Arbitrary pick on >1."""
        found = self._indexes()[0].get(s, _NO_KEYS).get(p)
        return found[0].object if found else None

    def __len__(self):
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __eq__(self, other):
        return isinstance(other, Graph) and self._triples == other._triples

    def __hash__(self):
        return hash(self._triples)

    def __repr__(self):
        return "Graph(<%d triples>)" % len(self._triples)


_EMPTY_GRAPH = Graph()


class Dataset:
    """A default graph plus named graphs keyed by IRI or blank node."""

    __slots__ = ("_default", "_named")

    def __init__(self, default_graph: Graph = _EMPTY_GRAPH,
                 named_graphs: Optional[Mapping] = None):
        self._default = default_graph
        named = dict(named_graphs or {})
        for name, g in named.items():
            if not isinstance(name, (Iri, BlankNode)):
                raise ValueError("graph name must be an IRI or blank node")
            if not isinstance(g, Graph):
                raise TypeError("named graph value must be a Graph")
        self._named = named

    @property
    def default_graph(self) -> Graph:
        return self._default

    @property
    def named_graphs(self) -> Mapping:
        return dict(self._named)

    def graph(self, name) -> Graph:
        return self._named.get(name, _EMPTY_GRAPH)

    def __eq__(self, other):
        return (isinstance(other, Dataset) and self._default == other._default
                and self._named == other._named)

    def __repr__(self):
        return "Dataset(<%d triples, %d named graphs>)" % (
            len(self._default), len(self._named))


# --------------------------------------------------------------------------
# Property paths

@dataclass(frozen=True, slots=True)
class Pred:
    iri: Iri


@dataclass(frozen=True, slots=True)
class Seq:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True, slots=True)
class Star:
    inner: "PathExpr"


PathExpr = Union[Pred, Seq, Star]


def eval_path(graph: Graph, start: Term, path: PathExpr) -> set:
    """Nodes reachable from `start` along `path`. Star always includes the
    start node itself; cycles are handled by visited-set semantics."""
    if isinstance(path, Pred):
        return graph.objects(start, path.iri)
    if isinstance(path, Seq):
        out = set()
        for mid in eval_path(graph, start, path.left):
            out |= eval_path(graph, mid, path.right)
        return out
    if isinstance(path, Star):
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in eval_path(graph, node, path.inner):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen
    raise TypeError("not a path expression: %r" % (path,))


def path_lexicals(graph: Graph, start: Term, path: PathExpr) -> set:
    """Lexical forms of the literals reachable from `start` along `path`."""
    return {o.lexical for o in eval_path(graph, start, path)
            if isinstance(o, Literal)}


# --------------------------------------------------------------------------
# Isomorphism

def _is_ground(tup) -> bool:
    return not any(isinstance(x, BlankNode) for x in tup)


def _skeleton(tup, node):
    """Tuple with `node` marked and other blank nodes wildcarded."""
    return tuple("SELF" if x == node
                 else ("BNODE" if isinstance(x, BlankNode) else x)
                 for x in tup)


def _signature(tuples, node):
    return tuple(sorted(repr(_skeleton(t, node)) for t in tuples
                        if node in t))


def _tuples_isomorphic(a: list, b: list) -> bool:
    """Backtracking bijection search between the blank nodes of two lists
    of term tuples (triples or quads)."""
    ground_a = {t for t in a if _is_ground(t)}
    ground_b = {t for t in b if _is_ground(t)}
    if ground_a != ground_b or len(a) != len(b):
        return False
    var_a = [t for t in a if not _is_ground(t)]
    var_b = {t for t in b if not _is_ground(t)}
    nodes_a = sorted({x.label for t in var_a for x in t
                      if isinstance(x, BlankNode)})
    nodes_b = sorted({x.label for t in var_b for x in t
                      if isinstance(x, BlankNode)})
    if len(nodes_a) != len(nodes_b):
        return False

    sig_a = {n: _signature(var_a, BlankNode(n)) for n in nodes_a}
    sig_b = {n: _signature(var_b, BlankNode(n)) for n in nodes_b}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False

    def substitute(t, mapping):
        return tuple(BlankNode(mapping[x.label]) if isinstance(x, BlankNode)
                     else x for x in t)

    # Assign the most constrained (rarest signature) nodes first.
    order = sorted(nodes_a, key=lambda n: (repr(sig_a[n]), n))

    def backtrack(i, mapping, used):
        if i == len(order):
            return {substitute(t, mapping) for t in var_a} == var_b
        n = order[i]
        for cand in nodes_b:
            if cand in used or sig_b[cand] != sig_a[n]:
                continue
            mapping[n] = cand
            used.add(cand)
            # Prune: every fully-mapped tuple touching n must exist in b.
            ok = True
            for t in var_a:
                if BlankNode(n) not in t:
                    continue
                labels = [x.label for x in t if isinstance(x, BlankNode)]
                if all(l in mapping for l in labels):
                    if substitute(t, mapping) not in var_b:
                        ok = False
                        break
            if ok and backtrack(i + 1, mapping, used):
                return True
            del mapping[n]
            used.discard(cand)
        return False

    return backtrack(0, {}, set())


def isomorphic(a: Graph, b: Graph) -> bool:
    """True iff some blank-node bijection maps graph a exactly onto b."""
    ta = [(t.subject, t.predicate, t.object) for t in a]
    tb = [(t.subject, t.predicate, t.object) for t in b]
    return _tuples_isomorphic(ta, tb)


_DEFAULT_GRAPH_MARK = Iri("urn:x-httplift:default-graph")


def isomorphic_datasets(a: Dataset, b: Dataset) -> bool:
    """Dataset isomorphism: one bijection over the blank nodes of the whole
    dataset (graph names included) mapping a onto b."""

    def quads(d: Dataset) -> list:
        out = [(_DEFAULT_GRAPH_MARK, t.subject, t.predicate, t.object)
               for t in d.default_graph]
        for name, g in d.named_graphs.items():
            out.extend((name, t.subject, t.predicate, t.object) for t in g)
        return out

    return _tuples_isomorphic(quads(a), quads(b))
