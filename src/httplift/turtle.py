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


# --------------------------------------------------------------------------
# Tokenizer

_IRIREF = re.compile('<(%s)>' % IRI_CHARS)
_BLANK = re.compile(r'_:([A-Za-z0-9][A-Za-z0-9_.-]*)')
_INTEGER = re.compile(r'[+-]?[0-9]+')
_PNAME = re.compile(r'([A-Za-z][A-Za-z0-9_-]*)?:([A-Za-z0-9_]'
                    r'[A-Za-z0-9_.-]*)?')
_BAREWORD = re.compile(r'[A-Za-z]+')
_LANGTAG = re.compile(r'@([A-Za-z]+(?:-[A-Za-z0-9]+)*)')

_ESCAPES = {'t': '\t', 'b': '\b', 'n': '\n', 'r': '\r', 'f': '\f',
            '"': '"', "'": "'", '\\': '\\'}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    i, line, linestart = 0, 1, 0
    n = len(text)

    def pos():
        return line, i - linestart + 1

    def err(msg):
        l, c = pos()
        raise ParseError(msg, l, c)

    while i < n:
        ch = text[i]
        if ch == '\n':
            line += 1
            i += 1
            linestart = i
            continue
        if ch in ' \t\r':
            i += 1
            continue
        if ch == '#':
            while i < n and text[i] != '\n':
                i += 1
            continue
        l, c = pos()
        if ch == '<':
            m = _IRIREF.match(text, i)
            if not m:
                err("malformed IRI reference")
            tokens.append(_Token('iri', m.group(1), l, c))
            i = m.end()
            continue
        if ch == '"':
            # Single-line double-quoted string with escapes.
            i += 1
            buf = []
            while True:
                if i >= n or text[i] == '\n':
                    raise ParseError("unterminated string literal", l, c)
                s = text[i]
                if s == '"':
                    i += 1
                    break
                if s == '\\':
                    if i + 1 >= n:
                        raise ParseError("unterminated string literal", l, c)
                    e = text[i + 1]
                    if e in _ESCAPES:
                        buf.append(_ESCAPES[e])
                        i += 2
                    elif e == 'u' or e == 'U':
                        width = 4 if e == 'u' else 8
                        hexpart = text[i + 2:i + 2 + width]
                        code = (int(hexpart, 16) if len(hexpart) == width
                                and re.fullmatch(r'[0-9A-Fa-f]+', hexpart)
                                else -1)
                        # Unicode scalar values only: no surrogates.
                        if not 0 <= code <= 0x10FFFF \
                                or 0xD800 <= code <= 0xDFFF:
                            err("bad unicode escape")
                        buf.append(chr(code))
                        i += 2 + width
                    else:
                        err("unknown string escape \\%s" % e)
                else:
                    buf.append(s)
                    i += 1
            tokens.append(_Token('string', ''.join(buf), l, c))
            continue
        if ch == '@':
            if text.startswith('@prefix', i):
                tokens.append(_Token('@prefix', '@prefix', l, c))
                i += len('@prefix')
                continue
            m = _LANGTAG.match(text, i)
            if not m:
                err("malformed language tag")
            tokens.append(_Token('langtag', m.group(1), l, c))
            i = m.end()
            continue
        if ch == '_' and text.startswith('_:', i):
            m = _BLANK.match(text, i)
            if not m:
                err("malformed blank node label")
            label = m.group(1)
            end = m.end()
            while label.endswith('.'):
                label = label[:-1]
                end -= 1
            tokens.append(_Token('bnode', label, l, c))
            i = end
            continue
        if ch == '^' and text.startswith('^^', i):
            tokens.append(_Token('^^', '^^', l, c))
            i += 2
            continue
        if ch in '.;,()[]{}':
            # A dot may start a number only in the unsupported decimal form;
            # treat it as punctuation.
            tokens.append(_Token(ch, ch, l, c))
            i += 1
            continue
        if ch in '+-' or ch.isdigit():
            m = _INTEGER.match(text, i)
            if not m:
                err("malformed numeric literal")
            tokens.append(_Token('integer', m.group(0), l, c))
            i = m.end()
            continue
        m = _PNAME.match(text, i)
        if m and ':' in m.group(0):
            local = m.group(2) or ''
            end = m.end()
            while local.endswith('.'):
                local = local[:-1]
                end -= 1
            tokens.append(_Token('pname', (m.group(1) or '', local), l, c))
            i = end
            continue
        m = _BAREWORD.match(text, i)
        if m:
            word = m.group(0)
            if word in ('a', 'true', 'false'):
                tokens.append(_Token(word, word, l, c))
                i = m.end()
                continue
            err("unexpected token %r" % word)
        err("unexpected character %r" % ch)
    tokens.append(_Token('eof', '', line, n - linestart + 1))
    return tokens


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

    # token plumbing

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

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
                and self.peek(1).kind == '{')

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
            return Iri(tok.value)
        if tok.kind == 'pname':
            prefix, local = tok.value
            if prefix not in self.prefixes:
                self.error("unknown prefix %r" % (prefix + ':'), tok)
            return Iri(self.prefixes[prefix] + local)
        if tok.kind == 'bnode':
            return BlankNode(tok.value)
        return None

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
            return Literal(tok.value, XSD_INTEGER)
        if tok.kind in ('true', 'false'):
            return Literal(tok.kind, XSD_BOOLEAN)
        if tok.kind == 'string':
            if self.peek().kind == 'langtag':
                lang = self.next().value
                return Literal(tok.value, language=lang)
            if self.peek().kind == '^^':
                self.next()
                dt_tok = self.next()
                dt = self.node(dt_tok)
                if not isinstance(dt, Iri):
                    self.error("expected datatype IRI", dt_tok)
                return Literal(tok.value, dt)
            return Literal(tok.value)
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

_LOCAL_OK = re.compile(r'(?:[A-Za-z0-9_][A-Za-z0-9_.-]*)?$')
_PLAIN_INT = re.compile(r'[+-]?[0-9]+$')

# Control characters become \uXXXX, except those with a short escape.
_STRING_ESCAPES = str.maketrans({
    **{chr(c): '\\u%04X' % c for c in range(0x20)},
    '\\': '\\\\', '"': '\\"', '\n': '\\n', '\r': '\\r', '\t': '\\t'})


def _escape_string(s: str) -> str:
    return s.translate(_STRING_ESCAPES)


def format_term(term: Term, prefixes: Optional[Dict[str, str]] = None) -> str:
    """Render one term in Turtle syntax, compacting with `prefixes`
    (a map from prefix label to namespace IRI) when possible."""
    prefixes = prefixes or {}
    if isinstance(term, Iri):
        best = None
        for label, ns in prefixes.items():
            if term.value.startswith(ns):
                local = term.value[len(ns):]
                if _LOCAL_OK.fullmatch(local) and not local.endswith('.'):
                    if best is None or len(ns) > len(prefixes[best[0]]):
                        best = (label, local)
        if best is not None:
            return "%s:%s" % best
        return "<%s>" % term.value
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


def _triple_lines(graph: Graph, prefixes: Dict[str, str],
                  indent: str = "") -> List[str]:
    lines = []
    for t in graph:
        pred = ("a" if t.predicate == RDF_TYPE
                else format_term(t.predicate, prefixes))
        lines.append("%s%s %s %s ." % (indent,
                                       format_term(t.subject, prefixes),
                                       pred,
                                       format_term(t.object, prefixes)))
    return sorted(lines)


def _prefix_header(prefixes: Dict[str, str]) -> List[str]:
    return ["@prefix %s: <%s> ." % (label, ns)
            for label, ns in sorted(prefixes.items())]


def _serialize(default: Graph, named: Dict[Term, Graph],
               prefixes: Optional[Dict[str, str]]) -> str:
    prefixes = dict(prefixes or {})
    parts = _prefix_header(prefixes)
    body = _triple_lines(default, prefixes)
    if parts and body:
        parts.append("")
    parts.extend(body)
    for name, graph in sorted(named.items(),
                              key=lambda kv: format_term(kv[0], prefixes)):
        if parts:
            parts.append("")
        parts.append("%s {" % format_term(name, prefixes))
        parts.extend(_triple_lines(graph, prefixes, indent="    "))
        parts.append("}")
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
