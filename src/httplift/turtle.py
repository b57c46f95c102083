"""Turtle and TriG concrete syntax: a parser for the supported subset and a
deterministic serializer.

Supported subset: @prefix directives, IRIs, prefixed names, labeled and
anonymous blank nodes (including [ ... ] property lists), collections,
string/integer/boolean literals with ^^ datatypes and language tags, the
`a` keyword and `;`/`,` continuations. TriG adds `name { ... }` blocks.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from .rdf import (
    IRI_CHARS, RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE, XSD_BOOLEAN,
    XSD_INTEGER, XSD_STRING, BlankNode, Dataset, Graph, Iri, Literal, Term,
    Triple,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


def _error(message: str, text: str, pos: int) -> ParseError:
    """A ParseError at offset `pos` of `text`, with its line and column."""
    return ParseError(message, text.count('\n', 0, pos) + 1,
                      pos - text.rfind('\n', 0, pos))


# --------------------------------------------------------------------------
# Tokenizer

# A local name or blank-node label may hold dots, but not end with one.
_LOCAL = r'[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?'

# Whitespace and comments. A comment runs to the end of its line, so a
# failed token match cannot backtrack into it.
_SKIP = re.compile(r'[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*')

# Skipped text, then one token or the end of the text. The kind is the name
# of the group that matched; a symbol is its own kind. No two groups start
# with the same character, except @prefix before a language tag and a
# prefixed name before a bare word.
_TOKEN = re.compile(r"""%s
    (?:
      (?P<symbol>[.;,()\[\]{}]|@prefix|\^\^)
    | (?P<pname>(?:[A-Za-z][A-Za-z0-9_-]*)?:(?:%s)?)
    | (?P<bnode>_:%s)
    | (?P<string>"(?P<body>(?:[^"\\\n]+|\\[\s\S])*)(?P<closed>")?)
    | (?P<iri><%s>)
    | (?P<word>[A-Za-z]+)
    | (?P<integer>[+-]?[0-9]+)
    | (?P<langtag>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
    | (?P<eof>\Z)
    )""" % (_SKIP.pattern, _LOCAL, _LOCAL, IRI_CHARS), re.X)

_ESCAPE = re.compile(r'\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|([\s\S]))')
_ESCAPES = {'t': '\t', 'b': '\b', 'n': '\n', 'r': '\r', 'f': '\f',
            '"': '"', "'": "'", '\\': '\\'}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _unescape(body: str, text: str, pos: int) -> str:
    """The value of a string body that starts at offset `pos` of `text`."""
    def decode(m):
        hexpart, other = m.group(1) or m.group(2), m.group(3)
        if hexpart:
            code = int(hexpart, 16)
            # Unicode scalar values only: no surrogates.
            if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
                return chr(code)
        elif other in _ESCAPES:
            return _ESCAPES[other]
        elif other not in 'uU':
            raise _error("unknown string escape \\%s" % other, text,
                         pos + m.start())
        raise _error("bad unicode escape", text, pos + m.start())
    return _ESCAPE.sub(decode, body)


def _malformed(text: str, pos: int) -> str:
    """Why no token starts at text[pos]."""
    ch = text[pos]
    if ch == '<':
        return "malformed IRI reference"
    if ch == '@':
        return "malformed language tag"
    if text.startswith('_:', pos):
        return "malformed blank node label"
    if ch in '+-' or ch.isdigit():
        return "malformed numeric literal"
    return "unexpected character %r" % ch


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line, linestart, end = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if m.start() != end:
            break
        pos, end_of_token = m.span(kind)
        # Count the newlines in the skipped text.
        newlines = text.count('\n', end, pos)
        if newlines:
            line += newlines
            linestart = text.rindex('\n', end, pos) + 1
        end = end_of_token
        value = m.group(kind)
        if kind == 'symbol':
            kind = value
        elif kind == 'pname':
            prefix, _, local = value.partition(':')
            value = (prefix, local)
        elif kind == 'bnode':
            value = value[2:]
        elif kind == 'string':
            value = m.group('body')
            if '\\' in value:
                value = _unescape(value, text, pos + 1)
            if m.group('closed') is None:
                raise _error("unterminated string literal", text, pos)
        elif kind == 'iri':
            value = value[1:-1]
        elif kind == 'word':
            if value not in ('a', 'true', 'false'):
                raise _error("unexpected token %r" % value, text, pos)
            kind = value
        elif kind == 'langtag':
            value = value[1:]
        tokens.append(_Token(kind, value, line, pos - linestart + 1))
        if kind == 'eof':
            return tokens
    end = _SKIP.match(text, end).end()
    raise _error(_malformed(text, end), text, end)


# --------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str, trig: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.trig = trig
        self.prefixes: Dict[str, str] = {}
        self.default: set = set()
        self.named: Dict[Term, set] = {}
        self.sink = self.default
        self._anon = 0
        # One object per distinct term for the call: an IRI's text maps to
        # its Iri, so a repeated IRI is checked once; a blank node or a
        # literal maps to itself.
        self.terms: dict = {}

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != 'eof':
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError("expected %r, found %r" % (kind, tok.value or
                             tok.kind), tok.line, tok.col)
        return tok

    def error(self, msg: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def fresh_bnode(self) -> BlankNode:
        self._anon += 1
        return BlankNode("anon-%d" % self._anon)

    def emit(self, s, p, o):
        self.sink.add(Triple(s, p, o))

    # grammar

    def parse(self):
        while self.peek().kind != 'eof':
            if self.peek().kind == '@prefix':
                self.directive()
            elif self.trig and self.graph_block_ahead():
                self.graph_block()
            else:
                self.triples_statement()
                self.expect('.')

    def directive(self):
        self.expect('@prefix')
        tok = self.expect('pname')
        prefix, local = tok.value
        if local:
            self.error("prefix declaration must end with ':'", tok)
        iri = self.expect('iri')
        self.prefixes[prefix] = iri.value
        self.expect('.')

    def graph_block_ahead(self) -> bool:
        return (self.peek().kind in ('iri', 'pname', 'bnode')
                and self.tokens[self.pos + 1].kind == '{')

    def graph_block(self):
        name = self.node(self.next())
        self.expect('{')
        graph = self.named.setdefault(name, set())
        outer = self.sink
        self.sink = graph
        try:
            while self.peek().kind != '}':
                self.triples_statement()
                if self.peek().kind == '.':
                    self.next()
                elif self.peek().kind != '}':
                    self.error("expected '.' or '}'")
            self.expect('}')
        finally:
            self.sink = outer

    def triples_statement(self):
        tok = self.peek()
        if tok.kind == '[':
            subject = self.bnode_property_list()
            if self.peek().kind not in ('.', '}'):
                self.predicate_object_list(subject)
        elif tok.kind == '(':
            subject = self.collection()
            self.predicate_object_list(subject)
        else:
            subject = self.subject()
            self.predicate_object_list(subject)

    def subject(self) -> Term:
        tok = self.next()
        term = self.node(tok)
        if term is None:
            self.error("expected subject", tok)
        return term

    def node(self, tok: _Token) -> Optional[Term]:
        """The term of an IRI, prefixed-name or blank-node token, or None
        for a token of any other kind."""
        if tok.kind == 'iri':
            return self.iri(tok.value)
        if tok.kind == 'pname':
            prefix, local = tok.value
            if prefix not in self.prefixes:
                self.error("unknown prefix %r" % (prefix + ':'), tok)
            return self.iri(self.prefixes[prefix] + local)
        if tok.kind == 'bnode':
            return self.shared(BlankNode(tok.value))
        return None

    def iri(self, text: str) -> Iri:
        term = self.terms.get(text)
        if term is None:
            term = self.terms[text] = Iri(text)
        return term

    def shared(self, term: Term) -> Term:
        return self.terms.setdefault(term, term)

    def predicate_object_list(self, subject: Term):
        while True:
            predicate = self.verb()
            self.object_list(subject, predicate)
            if self.peek().kind == ';':
                self.next()
                # Trailing ';' before '.', ']' or '}' is permitted.
                while self.peek().kind == ';':
                    self.next()
                if self.peek().kind in ('.', ']', '}'):
                    return
                continue
            return

    def verb(self) -> Iri:
        tok = self.next()
        if tok.kind == 'a':
            return RDF_TYPE
        term = self.node(tok)
        if not isinstance(term, Iri):
            self.error("expected predicate", tok)
        return term

    def object_list(self, subject: Term, predicate: Iri):
        while True:
            obj = self.object_term()
            self.emit(subject, predicate, obj)
            if self.peek().kind == ',':
                self.next()
                continue
            return

    def object_term(self) -> Term:
        tok = self.peek()
        if tok.kind == '[':
            return self.bnode_property_list()
        if tok.kind == '(':
            return self.collection()
        tok = self.next()
        term = self.node(tok)
        if term is not None:
            return term
        if tok.kind == 'integer':
            return self.shared(Literal(tok.value, XSD_INTEGER))
        if tok.kind in ('true', 'false'):
            return self.shared(Literal(tok.kind, XSD_BOOLEAN))
        if tok.kind == 'string':
            if self.peek().kind == 'langtag':
                lang = self.next().value
                return self.shared(Literal(tok.value, language=lang))
            if self.peek().kind == '^^':
                self.next()
                dt_tok = self.next()
                dt = self.node(dt_tok)
                if not isinstance(dt, Iri):
                    self.error("expected datatype IRI", dt_tok)
                return self.shared(Literal(tok.value, dt))
            return self.shared(Literal(tok.value))
        self.error("expected object", tok)

    def bnode_property_list(self) -> BlankNode:
        self.expect('[')
        node = self.fresh_bnode()
        if self.peek().kind != ']':
            self.predicate_object_list(node)
        self.expect(']')
        return node

    def collection(self) -> Term:
        self.expect('(')
        items = []
        while self.peek().kind != ')':
            if self.peek().kind == 'eof':
                self.error("unterminated collection")
            items.append(self.object_term())
        self.expect(')')
        if not items:
            return RDF_NIL
        nodes = [self.fresh_bnode() for _ in items]
        for i, (node, item) in enumerate(zip(nodes, items)):
            self.emit(node, RDF_FIRST, item)
            rest = nodes[i + 1] if i + 1 < len(nodes) else RDF_NIL
            self.emit(node, RDF_REST, rest)
        return nodes[0]


def parse_turtle(text: str) -> Graph:
    p = _Parser(text, trig=False)
    p.parse()
    return Graph(p.default)


def parse_trig(text: str) -> Dataset:
    p = _Parser(text, trig=True)
    p.parse()
    return Dataset(Graph(p.default),
                   {name: Graph(ts) for name, ts in p.named.items()})


# --------------------------------------------------------------------------
# Serializer

_LOCAL_OK = re.compile('(?:%s)?' % _LOCAL)
_PLAIN_INT = re.compile(r'[+-]?[0-9]+')

# Control characters become \uXXXX, except those with a short escape.
_STRING_ESCAPES = str.maketrans({
    **{chr(c): '\\u%04X' % c for c in range(0x20)},
    '\\': '\\\\', '"': '\\"', '\n': '\\n', '\r': '\\r', '\t': '\\t'})
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')


def _escape_string(s: str) -> str:
    return s.translate(_STRING_ESCAPES) if _NEEDS_ESCAPE.search(s) else s


# The key of an IRI or namespace is its text up to the last '#' or '/'. A
# local name holds neither, so an IRI has the key of every namespace that
# can compact it. The table maps a key to [(namespace, label)], longest
# namespace first, ties in mapping order. Only the last mapping's table is
# kept, with a copy of the mapping and whether two labels share a
# namespace; it is rebuilt whenever the mapping differs.
_last_namespaces: tuple = ({}, {}, False)


def _namespaces(prefixes: Dict[str, str]) -> Dict[str, list]:
    global _last_namespaces
    mapping, table, ties = _last_namespaces
    # Equal dicts may differ in order, which only decides ties.
    if mapping != prefixes or ties and list(mapping) != list(prefixes):
        table = {}
        for label, ns in prefixes.items():
            key = ns[:max(ns.rfind('#'), ns.rfind('/')) + 1]
            table.setdefault(key, []).append((ns, label))
        for entries in table.values():
            entries.sort(key=lambda entry: -len(entry[0]))
        ties = len(set(prefixes.values())) < len(prefixes)
        _last_namespaces = (dict(prefixes), table, ties)
    return table


def format_term(term: Term, prefixes: Optional[Dict[str, str]] = None) -> str:
    """Render one term in Turtle syntax. An IRI becomes a prefixed name
    with the longest namespace in `prefixes` (a map from prefix label to
    namespace IRI) that leaves a legal local name, if there is one."""
    if isinstance(term, Iri):
        iri = term.value
        key = iri[:max(iri.rfind('#'), iri.rfind('/')) + 1]
        for ns, label in _namespaces(prefixes or {}).get(key, ()):
            if iri.startswith(ns) and _LOCAL_OK.fullmatch(iri, len(ns)):
                return "%s:%s" % (label, iri[len(ns):])
        return "<%s>" % iri
    if isinstance(term, BlankNode):
        return "_:%s" % term.label
    if isinstance(term, Literal):
        if term.language is not None:
            return '"%s"@%s' % (_escape_string(term.lexical), term.language)
        if term.datatype == XSD_STRING:
            return '"%s"' % _escape_string(term.lexical)
        if term.datatype == XSD_INTEGER and _PLAIN_INT.fullmatch(term.lexical):
            return term.lexical
        if term.datatype == XSD_BOOLEAN and term.lexical in ('true', 'false'):
            return term.lexical
        return '"%s"^^%s' % (_escape_string(term.lexical),
                             format_term(term.datatype, prefixes))
    raise TypeError("not a term: %r" % (term,))


class _Rendered(dict):
    """Term -> Turtle text for one serialization: each term is rendered on
    its first lookup only."""

    def __init__(self, prefixes: Dict[str, str]):
        self.prefixes = prefixes

    def __missing__(self, term: Term) -> str:
        text = self[term] = format_term(term, self.prefixes)
        return text


def _triple_lines(graph: Graph, text: _Rendered,
                  indent: str = "") -> List[str]:
    rdf_type = text[RDF_TYPE]
    lines = []
    for t in graph:
        pred = text[t.predicate]
        lines.append("%s%s %s %s ." % (indent, text[t.subject],
                                       "a" if pred == rdf_type else pred,
                                       text[t.object]))
    return sorted(lines)


def _prefix_header(prefixes: Dict[str, str]) -> List[str]:
    return ["@prefix %s: <%s> ." % (label, ns)
            for label, ns in sorted(prefixes.items())]


def _serialize(default: Graph, named: Dict[Term, Graph],
               prefixes: Optional[Dict[str, str]]) -> str:
    prefixes = dict(prefixes or {})
    text = _Rendered(prefixes)
    parts = _prefix_header(prefixes)
    body = _triple_lines(default, text)
    if parts and body:
        parts.append("")
    parts.extend(body)
    for name, graph in sorted(named.items(), key=lambda kv: text[kv[0]]):
        if parts:
            parts.append("")
        parts.append("%s {" % text[name])
        parts.extend(_triple_lines(graph, text, indent="    "))
        parts.append("}")
    text.clear()    # so that the memo and the output are never held at once
    return "\n".join(parts) + ("\n" if parts else "")


def serialize_turtle(graph: Graph, prefixes: Optional[Dict[str, str]] = None) -> str:
    """Byte-stable Turtle: prefix header, then triples sorted by their
    rendered form. Output reparses to a graph isomorphic to the input."""
    return _serialize(graph, {}, prefixes)


def serialize_trig(dataset: Dataset,
                   prefixes: Optional[Dict[str, str]] = None) -> str:
    """Byte-stable TriG: default graph triples, then named-graph blocks
    sorted by rendered graph name."""
    return _serialize(dataset.default_graph, dataset.named_graphs, prefixes)
