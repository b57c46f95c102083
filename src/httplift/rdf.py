"""Minimal in-memory RDF data model: terms, triples, graphs, named-graph
datasets, property paths and blank-node-aware isomorphism.

Graphs and datasets are immutable after construction; all operations here
are pure functions and safe to use from multiple threads. A graph groups
its triples by predicate, and one predicate's by subject or object, when a
lookup first reads that grouping, never on construction.

Isomorphism first tries the bijection that keeps every label: equal inputs
are accepted by one comparison. Otherwise it seeds blank-node colours from
one-node tuples, refines both sides together over shared tuples, and
branches, on an explicit stack, only where colour classes stay tied; a
failed branch is undone from a trail. A bijection is accepted only after it
has been checked against every tuple.
"""

from __future__ import annotations

import re
import reprlib
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Tuple, Union

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

# One or more IRI reference characters (W3C RDF 1.1 Turtle section 6.5,
# IRIREF): anything but controls, space, <>"{}|^` and the backslash.
IRI_CHARS = r'[^<>"{}|^`\\\x00-\x20]+'
_IRI = re.compile(IRI_CHARS)


# Terms are tuples, so that hash and == run in C. Each kind has a length of
# its own, so terms of different kinds never compare equal: an IRI is
# (value,), a blank node (None, label) and a literal (lexical, datatype,
# language). A triple's first item is a term, never a str, so no triple
# equals a literal. BlankNode, Literal and Triple check their items in a
# function installed as __new__, which the lifter and parser call directly.
# Each kind pickles as a call of its class, so every protocol checks too.

_tuple_new = tuple.__new__


class Iri(tuple):
    __slots__ = ()
    value = property(itemgetter(0))

    def __new__(cls, value: str):
        if not _IRI.fullmatch(value):
            raise ValueError("not an IRI: " + reprlib.repr(value))
        return _tuple_new(cls, (value,))

    def __reduce__(self):
        return type(self), tuple(self)

    def __repr__(self):
        return "Iri(%r)" % self.value


def _new_bnode(cls, label: str):
    if not label:
        raise ValueError("blank node label must be non-empty")
    return _tuple_new(cls, (None, label))


class BlankNode(tuple):
    __slots__ = ()
    label = property(itemgetter(1))
    __new__ = _new_bnode

    def __reduce__(self):
        return type(self), (self[1],)

    def __repr__(self):
        return "BlankNode(%r)" % self.label


XSD_STRING = Iri(XSD + "string")
XSD_INTEGER = Iri(XSD + "integer")
XSD_BOOLEAN = Iri(XSD + "boolean")

RDF_TYPE = Iri(RDF + "type")
RDF_FIRST = Iri(RDF + "first")
RDF_REST = Iri(RDF + "rest")
RDF_NIL = Iri(RDF + "nil")
RDF_LANG_STRING = Iri(RDF + "langString")


def _new_literal(cls, lexical: str, datatype: Iri = XSD_STRING,
                 language: Optional[str] = None):
    # A language-tagged literal always carries the langString datatype.
    if language is not None:
        datatype = RDF_LANG_STRING
    return _tuple_new(cls, (lexical, datatype, language))


class Literal(tuple):
    __slots__ = ()
    lexical = property(itemgetter(0))
    datatype = property(itemgetter(1))
    language = property(itemgetter(2))
    __new__ = _new_literal

    def __reduce__(self):
        return type(self), tuple(self)

    def __repr__(self):
        lexical, datatype, language = self
        if language is not None:
            return "Literal(%r, lang=%r)" % (lexical, language)
        if datatype == XSD_STRING:
            return "Literal(%r)" % lexical
        return "Literal(%r, %r)" % (lexical, datatype.value)


Term = Union[Iri, BlankNode, Literal]
_NODE_TYPES = (Iri, BlankNode)
_TERM_TYPES = (Iri, BlankNode, Literal)


def _new_triple(cls, subject: Term, predicate: Term, object: Term):
    if not isinstance(subject, _NODE_TYPES):
        raise ValueError("triple subject must be an IRI or blank node")
    if not isinstance(predicate, Iri):
        raise ValueError("triple predicate must be an IRI")
    if not isinstance(object, _TERM_TYPES):
        raise ValueError("triple object must be a term")
    return _tuple_new(cls, (subject, predicate, object))


class Triple(tuple):
    __slots__ = ()
    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))
    __new__ = _new_triple

    def __reduce__(self):
        return type(self), tuple(self)

    def __repr__(self):
        return "Triple(subject=%r, predicate=%r, object=%r)" % self


def _build_index(triples: Iterable[Triple], pos: int) -> dict:
    """`triples` grouped by their item at `pos`. Every list keeps the order
    in which `triples` yields its members."""
    groups = {}
    for t in triples:
        groups.setdefault(t[pos], []).append(t)
    return groups


class Graph:
    """An immutable, duplicate-free set of triples.

    Lookups read the triples grouped by predicate (vertical partitioning:
    Abadi, Marcus, Madden & Hollenbach, VLDB 2007), and a predicate's
    triples grouped by subject or by object, each grouping built by the
    first lookup that reads it. They live in one dict, made on first use:
    key None maps each predicate to its triples, and key (p, 0) or (p, 2)
    maps p's triples by subject or by object. Each entry is assigned once
    its grouping is complete, so threads racing on a first use build equal
    groupings and a reader never sees a partial one. Patterns that leave
    the predicate open chain over every predicate's triples. A graph
    pickles and copies as a call of its class with its triples alone."""

    __slots__ = ("_triples", "_index")

    def __init__(self, triples: Iterable[Triple] = ()):
        triples = frozenset(triples)
        for t in triples:
            if not isinstance(t, Triple):
                raise TypeError("not a Triple: " + reprlib.repr(t))
        self._triples = triples
        self._index = None

    def __reduce__(self):
        return type(self), (self._triples,)

    def _group(self, key) -> dict:
        """The grouping under `key`: None, or (predicate, 0 or 2)."""
        if self._index is None:
            self._index = {}
        found = self._index.get(key)
        if found is None:
            found = (_build_index(self._triples, 1) if key is None else
                     _build_index(self._group(None).get(key[0], ()), key[1]))
            self._index[key] = found
        return found

    def _lookup(self, s: Optional[Term], p: Optional[Term],
                o: Optional[Term]) -> Iterable[Triple]:
        """The triples matching a pattern, None being a wildcard. The result
        may be an internal container: callers copy it, never hand it out."""
        if p is None:
            if s is None and o is None:
                return self._triples
            return chain.from_iterable(self._lookup(s, q, o)
                                       for q in self._group(None))
        if s is not None:
            found = self._group((p, 0)).get(s, ())
            return found if o is None else [t for t in found if t[2] == o]
        if o is not None:
            return self._group((p, 2)).get(o, ())
        return self._group(None).get(p, ())

    def match(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> set:
        return set(self._lookup(s, p, o))

    def objects(self, s: Optional[Term], p: Optional[Term]) -> set:
        return {t.object for t in self._lookup(s, p, None)}

    def subjects(self, p: Optional[Term], o: Optional[Term]) -> set:
        return {t.subject for t in self._lookup(None, p, o)}

    def value(self, s: Term, p: Iri) -> Optional[Term]:
        """A single object of (s, p, ·), or None. Arbitrary pick on >1."""
        found = self._group((p, 0)).get(s)
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
        if not isinstance(default_graph, Graph):
            raise TypeError("default graph must be a Graph")
        self._default = default_graph
        named = dict(named_graphs or {})
        for name, g in named.items():
            if not isinstance(name, _NODE_TYPES):
                raise ValueError("graph name must be an IRI or blank node")
            if not isinstance(g, Graph):
                raise TypeError("named graph value must be a Graph")
        self._named = named

    def __reduce__(self):
        return type(self), (self._default, self._named)

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
# Property paths: SPARQL 1.1 sequence paths, as tuples of predicate IRIs.

def eval_path(graph: Graph, start: Term, path: Tuple[Iri, ...]) -> set:
    """Nodes reached from `start` by following the predicates of `path` in
    turn; the empty path gives {start}."""
    nodes = {start}
    for p in path:
        nodes = {o for n in nodes for o in graph.objects(n, p)}
    return nodes


def path_lexicals(graph: Graph, start: Term, path: Tuple[Iri, ...]) -> set:
    """Lexical forms of the literals reachable from `start` along `path`."""
    return {o.lexical for o in eval_path(graph, start, path)
            if isinstance(o, Literal)}


# --------------------------------------------------------------------------
# Isomorphism
#
# Colour refinement with individualisation (A. Hogan, "Canonical Forms for
# Isomorphic and Equivalent RDF Graphs", ACM TWEB 2017). The blank nodes of
# both tuple lists are refined together as one disjoint union: nodes
# 0 .. n_a - 1 are a's, the rest b's. Colour ids are then shared by the two
# sides, and a colour class ("cell") holding more nodes of one side than of
# the other refutes the isomorphism at once. A node's first colour is the
# sorted skeleton ids of the tuples it alone fills; refinement only splits
# cells, so only tuples shared by two or more nodes enter its signature.

_BLANK = object()   # a blank node's place in the ground skeleton of a tuple


class _Colouring:
    """A colouring of the blank nodes of two tuple lists. A node's
    signature is the sorted list of the tuples it shares with other blank
    nodes, each as its skeleton id followed by the colours of its blank
    nodes, with -1 for the node itself. Every node of a cell has the
    cell's signature once `refine` returns True.

    Every change is recorded on a trail, so that `undo` returns to any
    earlier `mark`: a node that leaves a cell always goes to a new cell,
    so undoing means putting nodes back and dropping the newer cells."""

    __slots__ = ("occurrences", "neighbours", "n_a", "colour", "cells",
                 "cell_sig", "moves", "sigs")

    def __init__(self, occurrences: list, neighbours: list, n_a: int,
                 colour: list):
        self.occurrences = occurrences     # node -> [(skeleton id, nodes)]
        self.neighbours = neighbours       # node -> nodes sharing a tuple
        self.n_a = n_a
        self.colour = colour
        self.cells = [set() for _ in range(max(colour) + 1)]
        for v, c in enumerate(colour):
            self.cells[c].add(v)
        self.cell_sig = [None] * len(self.cells)
        self.moves = []                    # (node, colour it left)
        self.sigs = []                     # (cell, signature it had)

    def mark(self) -> tuple:
        return len(self.moves), len(self.sigs), len(self.cells)

    def undo(self, mark: tuple):
        n_moves, n_sigs, n_cells = mark
        colour, cells, moves, sigs = (self.colour, self.cells, self.moves,
                                      self.sigs)
        while len(moves) > n_moves:
            v, c = moves.pop()
            cells[c].add(v)
            colour[v] = c
        while len(sigs) > n_sigs:
            c, sig = sigs.pop()
            self.cell_sig[c] = sig
        del cells[n_cells:], self.cell_sig[n_cells:]

    def _split_off(self, c: int, nodes, sig, dirty: set):
        """Move `nodes` from cell c to a new cell with signature `sig`,
        and add their neighbours to `dirty`."""
        colour, cell, neighbours = self.colour, self.cells[c], self.neighbours
        new = len(self.cells)
        self.cells.append(set(nodes))
        self.cell_sig.append(sig)
        for v in nodes:
            cell.discard(v)
            colour[v] = new
            self.moves.append((v, c))
            dirty.update(neighbours[v])

    def _signature(self, v: int) -> tuple:
        colour = self.colour
        c, colour[v] = colour[v], -1
        sig = tuple(sorted([(shape,) + tuple(map(colour.__getitem__, nodes))
                            for shape, nodes in self.occurrences[v]]))
        colour[v] = c
        return sig

    def refine(self, dirty: set) -> bool:
        """Split cells until they are equitable, recomputing only the
        signatures of `dirty` nodes and of nodes whose neighbour changed
        colour. The largest part of a split cell keeps its colour, so its
        neighbours need no new signature. False as soon as a cell is
        unbalanced between the two sides."""
        colour, cells, cell_sig, n_a = (self.colour, self.cells,
                                        self.cell_sig, self.n_a)
        while dirty:
            by_cell = {}
            for v in dirty:
                by_cell.setdefault(colour[v], {}).setdefault(
                    self._signature(v), []).append(v)
            dirty = set()
            for c, groups in by_cell.items():
                # Nodes whose signature is the cell's stay where they are.
                groups.pop(cell_sig[c], None)
                if not groups:
                    continue
                parts = list(groups.items())
                staying = len(cells[c]) - sum(len(nodes) for _, nodes in parts)
                big = max(range(len(parts)), key=lambda i: len(parts[i][1]))
                if len(parts[big][1]) > staying:
                    # The largest group keeps the cell; the nodes that would
                    # have stayed leave it instead.
                    sig = parts[big][0]
                    moving = set(chain.from_iterable(groups.values()))
                    parts[big] = (cell_sig[c],
                                  [v for v in cells[c] if v not in moving])
                    self.sigs.append((c, cell_sig[c]))
                    cell_sig[c] = sig
                # The cell was balanced, so the part that keeps it is
                # balanced when every other part is.
                for sig, nodes in parts:
                    if 2 * sum(v < n_a for v in nodes) != len(nodes):
                        return False
                    if nodes:
                        self._split_off(c, nodes, sig, dirty)
        return True

    def individualise(self, x: int, y: int) -> bool:
        """Give x (of a) and y (of b), two nodes of one cell, a colour of
        their own, then refine."""
        c = self.colour[x]
        dirty = set()
        self._split_off(c, (x, y), self.cell_sig[c], dirty)
        return self.refine(dirty)

    def smallest_tied_cell(self) -> Optional[set]:
        tied = [cell for cell in self.cells if len(cell) > 2]
        return min(tied, key=len) if tied else None

    def bijection(self) -> dict:
        """a's node -> b's node, for a colouring whose cells are pairs."""
        return dict(sorted(cell) for cell in self.cells)


def _tuples_isomorphic(a: list, b: list) -> bool:
    """Whether one bijection between the blank nodes of two lists of
    distinct term tuples (triples or quads) maps a exactly onto b."""
    if len(a) != len(b):
        return False
    skeletons, ground, forms, counts = {}, [], [], []
    for tuples in (a, b):
        # Blank nodes become ids, a's from 0 and b's after them. A tuple
        # with blank nodes becomes its skeleton's id and its nodes' ids.
        ids, offset, g, f = {}, sum(counts), set(), []
        for t in tuples:
            if BlankNode not in map(type, t):
                g.add(t)
                continue
            shape = tuple([_BLANK if type(x) is BlankNode else x for x in t])
            f.append((skeletons.setdefault(shape, len(skeletons)),
                      tuple([ids.setdefault(x, offset + len(ids))
                             for x in t if type(x) is BlankNode])))
        ground.append(g)
        forms.append(f)
        counts.append(len(ids))
    n_a, n_b = counts
    if ground[0] != ground[1] or n_a != n_b:
        return False
    if not n_a:
        return True

    seeds = [[] for _ in range(n_a + n_b)]
    occurrences = [[] for _ in range(n_a + n_b)]
    neighbours = [set() for _ in range(n_a + n_b)]
    for shape, nodes in chain(*forms):
        distinct = set(nodes)
        if len(distinct) == 1:
            seeds[nodes[0]].append(shape)
            continue
        for v in distinct:
            occurrences[v].append((shape, nodes))
            neighbours[v].update(distinct)
    for v, near in enumerate(neighbours):
        near.discard(v)
    starts = {}
    colour = [starts.setdefault(tuple(sorted(shapes)), len(starts))
              for shapes in seeds]
    if sorted(colour[:n_a]) != sorted(colour[n_a:]):
        return False
    colouring = _Colouring(occurrences, neighbours, n_a, colour)
    if not colouring.refine(set(range(n_a + n_b))):
        return False
    # Depth-first search over individualisations. Each level of the stack
    # holds the mark to undo to, a's node of a tied cell and b's nodes of
    # that cell still to try against it, the next one last.
    stack = []
    target = set(forms[1])
    while True:
        cell = colouring.smallest_tied_cell()
        if cell is None:
            # Signatures decide the cells exactly, but the bijection is
            # still checked against every tuple before it is accepted.
            m = colouring.bijection()
            if {(shape, tuple([m[v] for v in nodes]))
                    for shape, nodes in forms[0]} == target:
                return True
        else:
            # A tied cell is balanced, and a's nodes come before b's.
            nodes = sorted(cell)
            candidates = nodes[len(nodes) // 2:]
            candidates.reverse()
            stack.append((colouring.mark(), nodes[0], candidates))
        while stack:
            mark, x, candidates = stack[-1]
            colouring.undo(mark)
            if not candidates:
                stack.pop()
            elif colouring.individualise(x, candidates.pop()):
                break
        else:
            return False


def isomorphic_datasets(a: Dataset, b: Dataset) -> bool:
    """Dataset isomorphism: one bijection over the blank nodes of the whole
    dataset (graph names included) mapping a onto b."""

    def quads(d: Dataset) -> list:
        # None marks the default graph: no graph name can be None. Each
        # graph name also has a 1-tuple of its own, so empty graphs count.
        out = [(None, *t) for t in d.default_graph]
        for name, g in d.named_graphs.items():
            out.append((name,))
            out.extend((name, *t) for t in g)
        return out

    return a == b or _tuples_isomorphic(quads(a), quads(b))
