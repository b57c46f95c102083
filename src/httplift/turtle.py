"""Turtle and TriG concrete syntax: a parser for the supported subset and a
deterministic serializer.

Supported subset: @prefix directives, IRIs, prefixed names, labeled and
anonymous blank nodes (including [ ... ] property lists), collections,
string/integer/boolean literals with ^^ datatypes and language tags, the
`a` keyword and `;`/`,` continuations. TriG adds `name { ... }` blocks.

The tokenizer is one regex scan whose matches are the token texts, as
strings, with '' for the end of the text. The parser tells their kinds
apart by the first character and decodes a token only when it consumes it.
It accepts no malformed token, so the first error in the text wins: at the
token where parsing stopped, the token's own error if it is malformed, else
the grammar's, which shows the token as written. No token carries a
position: only on an error is the text scanned again, for its location.
"""

from __future__ import annotations

import re
import reprlib
from itertools import count, filterfalse, islice
from typing import Dict, List, Optional

from .rdf import (
    IRI_CHARS, RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE, XSD_BOOLEAN,
    XSD_INTEGER, XSD_STRING, BlankNode, Dataset, Graph, Iri, Literal, Term,
    Triple, _new_bnode, _new_literal, _new_triple,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.message = message
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

# Whitespace and comments. A comment runs to the end of its line.
_SKIP = r'[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*'

# Skipped text, then one token as the only group: a symbol, a prefixed
# name, a blank node, a string (closed or not), an IRI, a word, an integer
# or a language tag, which may end in '-' or hold '--'. No two start with
# the same character, except @prefix before a language tag and a prefixed
# name before a word. Any other character is a token of its own, which is
# malformed, and the end of the text is ''.
_TOKEN = re.compile(r"""%s(
      [.;,()\[\]{}] | @prefix | \^\^
    | (?:[A-Za-z][A-Za-z0-9_-]*)?:(?:%s)?
    | _:%s
    | "(?:[^"\\\n]+|\\[\s\S])*"?
    | <%s>
    | [A-Za-z]+
    | [+-]?[0-9]+
    | @[A-Za-z]+(?:-[A-Za-z0-9]*)*
    | [\s\S] | \Z
    )""" % (_SKIP, _LOCAL, _LOCAL, IRI_CHARS), re.X)

_LANGTAG = re.compile(r'@[A-Za-z]+(?:-[A-Za-z0-9]+)*')
_ESCAPE = re.compile(r'\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|([\s\S]))')
_ESCAPES = {'t': '\t', 'b': '\b', 'n': '\n', 'r': '\r', 'f': '\f',
            '"': '"', "'": "'", '\\': '\\'}


class _Malformed(Exception):
    """A malformed token: the message and the offset in the token."""


def _escape(m) -> str:
    hexpart, other = m.group(1) or m.group(2), m.group(3)
    if hexpart:
        code = int(hexpart, 16)
        # Unicode scalar values only: no surrogates.
        if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
            return chr(code)
    elif other in _ESCAPES:
        return _ESCAPES[other]
    elif other not in 'uU':
        raise _Malformed("unknown string escape \\%s" % other, m.start())
    raise _Malformed("bad unicode escape", m.start())


def _string(tok: str) -> str:
    """The value of a string token."""
    if '\\' not in tok:
        if len(tok) > 1 and tok[-1] == '"':
            return tok[1:-1]
        raise _Malformed("unterminated string literal", 0)
    # Backslashes pair up from the left, so a last quote closes the string
    # unless an odd number of them comes before it. Escapes decode first,
    # and never touch a quote that opens or closes the string.
    closed = tok[-1] == '"' and (len(tok) - len(tok[:-1].rstrip('\\'))) % 2
    tok = _ESCAPE.sub(_escape, tok)
    if not closed:
        raise _Malformed("unterminated string literal", 0)
    return tok[1:-1]


def _fault(text: str, pos: int, tok: str) -> Optional[ParseError]:
    """The error of the token `tok` at offset `pos`, if it is malformed."""
    if tok[:1] == '"':
        try:
            _string(tok)
        except _Malformed as e:
            return _error(e.args[0], text, pos + e.args[1])
    elif tok[:1] == '@' and not _LANGTAG.fullmatch(tok):
        return _error("malformed language tag", text, pos)
    elif tok.isalpha() and tok.isascii():
        if tok not in ('a', 'true', 'false'):
            return _error("unexpected token " + reprlib.repr(tok), text, pos)
    # A one-character token that no other alternative matched: say why.
    elif len(tok) == 1 and tok not in '.;,()[]{}:0123456789':
        if tok == '<':
            return _error("malformed IRI reference", text, pos)
        if text.startswith('_:', pos):
            return _error("malformed blank node label", text, pos)
        if tok in '+-' or tok.isdigit():
            return _error("malformed numeric literal", text, pos)
        return _error("unexpected character " + reprlib.repr(tok), text, pos)
    return None


# --------------------------------------------------------------------------
# Parser

class _Parser:
    """Each production takes the index of its first token and returns the
    index after its last; one that yields a term returns (term, index)."""

    def __init__(self, text: str, trig: bool):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.pos = 0        # where the innermost '[' or '(' began
        self.trig = trig
        self.prefixes: Dict[str, str] = {}
        self.default: set = set()
        self.named: Dict[Term, set] = {}
        self.sink = self.default
        self.anon = None    # fresh blank-node labels, made on first use
        # One object per recurring token: the term of each node token while
        # the prefixes stay the same, and the literal of each string token
        # that has no language tag or datatype. Strings are kept apart, so
        # that no string is taken for a subject.
        self.nodes: dict = {}
        self.strings: dict = {}

    def fail(self, message: str, i: int):
        """Raise the error of token i, where parsing stopped: its own error
        if it is malformed, else `message`. No token before i is malformed,
        so this is the first error in the text."""
        m = next(islice(_TOKEN.finditer(self.text), i, None))
        raise (_fault(self.text, m.start(1), m.group(1))
               or _error(message, self.text, m.start(1)))

    def expect(self, symbol: str, i: int) -> int:
        tok = self.tokens[i]
        if tok != symbol:
            self.fail("expected '%s', found %s"
                      % (symbol, reprlib.repr(tok or 'eof')), i)
        return i + 1

    def fresh_bnode(self) -> BlankNode:
        if self.anon is None:
            # Labels are local to the document (RDF 1.1 Turtle section 2.6),
            # so a fresh node takes no label that the text writes.
            self.anon = map("anon-%d".__mod__, count(1))
            if "_:anon-" in self.text:
                written = {tok[2:] for tok in self.tokens
                           if tok.startswith("_:anon-")}
                self.anon = filterfalse(written.__contains__, self.anon)
        return _new_bnode(BlankNode, next(self.anon))

    # grammar

    def parse(self):
        tokens, i = self.tokens, 0
        try:
            while tokens[i]:
                if tokens[i] == '@prefix':
                    i = self.directive(i + 1)
                elif (self.trig and tokens[i + 1] == '{'
                      and (name := self.node(i)) is not None):
                    i = self.graph_block(name, i + 2)
                else:
                    i = self.expect('.', self.triples_statement(i))
        except RecursionError:
            self.fail("nesting too deep", self.pos)

    def directive(self, i: int) -> int:
        tok = self.tokens[i]
        if ':' not in tok or tok[0] in '"<_':
            self.fail("expected 'PNAME_NS', found %s"
                      % reprlib.repr(tok or 'eof'), i)
        prefix, _, local = tok.partition(':')
        if local:
            self.fail("prefix declaration must end with ':'", i)
        iri = self.tokens[i + 1]
        if iri[:1] != '<' or len(iri) == 1:
            self.fail("expected 'IRIREF', found %s"
                      % reprlib.repr(iri or 'eof'), i + 1)
        self.prefixes[prefix] = iri[1:-1]
        self.nodes.clear()
        return self.expect('.', i + 2)

    def graph_block(self, name: Term, i: int) -> int:
        self.sink = self.named.setdefault(name, set())
        tokens = self.tokens
        while tokens[i] != '}':
            i = self.triples_statement(i)
            if tokens[i] == '.':
                i += 1
            elif tokens[i] != '}':
                self.fail("expected '.' or '}'", i)
        self.sink = self.default
        return i + 1

    def triples_statement(self, i: int) -> int:
        tok = self.tokens[i]
        if tok == '[':
            subject, i = self.bnode_property_list(i)
            if self.tokens[i] in ('.', '}'):
                return i
        elif tok == '(':
            subject, i = self.collection(i)
        else:
            subject = self.nodes.get(tok) or self.node(i)
            if subject is None:
                self.fail("expected subject", i)
            i += 1
        return self.predicate_object_list(subject, i)

    def node(self, i: int) -> Optional[Term]:
        """The term of token i if it is an IRI, a prefixed name or a blank
        node, or None."""
        tok = self.tokens[i]
        term = self.nodes.get(tok)
        if term is not None:
            return term
        first = tok[:1]
        if first == '<' and len(tok) > 1:
            term = Iri(tok[1:-1])
        elif first == '_' and len(tok) > 1:
            term = _new_bnode(BlankNode, tok[2:])
        elif first != '"' and ':' in tok:
            prefix, _, local = tok.partition(':')
            if prefix not in self.prefixes:
                self.fail("unknown prefix %s" % reprlib.repr(prefix + ':'), i)
            term = Iri(self.prefixes[prefix] + local)
        else:
            return None
        self.nodes[tok] = term
        return term

    def predicate_object_list(self, subject: Term, i: int) -> int:
        tokens, nodes, strings = self.tokens, self.nodes, self.strings
        add = self.sink.add
        while True:
            tok = tokens[i]
            predicate = (RDF_TYPE if tok == 'a'
                         else nodes.get(tok) or self.node(i))
            if not isinstance(predicate, Iri):
                self.fail("expected predicate", i)
            i += 1
            while True:
                # A memoized token is one whole object, unless a string is
                # followed by a language tag or a datatype (or the end).
                tok = tokens[i]
                term = nodes.get(tok)
                if term is None:
                    term = strings.get(tok)
                    if term is None or tokens[i + 1][:1] in '@^':
                        term, i = self.object_term(i)
                    else:
                        i += 1
                else:
                    i += 1
                add(_new_triple(Triple, subject, predicate, term))
                if tokens[i] != ',':
                    break
                i += 1
            if tokens[i] != ';':
                return i
            # Trailing ';' before '.', ']' or '}' is permitted.
            while tokens[i] == ';':
                i += 1
            if tokens[i] in ('.', ']', '}'):
                return i

    def object_term(self, i: int) -> tuple:
        tokens = self.tokens
        tok = tokens[i]
        if tok == '[':
            return self.bnode_property_list(i)
        if tok == '(':
            return self.collection(i)
        term = self.node(i)
        if term is not None:
            return term, i + 1
        if tok[:1] == '"':
            try:
                value = _string(tok)
            except _Malformed:
                self.fail("expected object", i)   # the token's error wins
            tag = tokens[i + 1]
            if tag[:1] == '@' and tag != '@prefix' and _LANGTAG.fullmatch(tag):
                return _new_literal(Literal, value, language=tag[1:]), i + 2
            if tag == '^^':
                dt = self.node(i + 2)
                if not isinstance(dt, Iri):
                    self.fail("expected datatype IRI", i + 2)
                return _new_literal(Literal, value, dt), i + 3
            term = self.strings[tok] = _new_literal(Literal, value)
            return term, i + 1
        if tok[-1:].isdigit() and tok[0] in '+-0123456789':
            return _new_literal(Literal, tok, XSD_INTEGER), i + 1
        if tok == 'true' or tok == 'false':
            return _new_literal(Literal, tok, XSD_BOOLEAN), i + 1
        self.fail("expected object", i)

    def bnode_property_list(self, i: int) -> tuple:
        self.pos = i
        node = self.fresh_bnode()
        i += 1
        if self.tokens[i] != ']':
            i = self.predicate_object_list(node, i)
        return node, self.expect(']', i)

    def collection(self, i: int) -> tuple:
        self.pos = i
        tokens = self.tokens
        items = []
        i += 1
        while tokens[i] != ')':
            if not tokens[i]:
                self.fail("unterminated collection", i)
            item, i = self.object_term(i)
            items.append(item)
        if not items:
            return RDF_NIL, i + 1
        nodes = [self.fresh_bnode() for _ in items]
        for node, item, rest in zip(nodes, items, nodes[1:] + [RDF_NIL]):
            self.sink.add(_new_triple(Triple, node, RDF_FIRST, item))
            self.sink.add(_new_triple(Triple, node, RDF_REST, rest))
        return nodes[0], i + 1


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


def format_term(term: Term, prefixes: Optional[Dict[str, str]] = None) -> str:
    """Render one term in Turtle syntax. An IRI becomes a prefixed name
    with the longest namespace in `prefixes` (label -> namespace IRI; the
    first label wins a tie) that leaves a legal local name, if any."""
    if isinstance(term, Iri):
        iri, best = term.value, None
        for label, ns in (prefixes or {}).items():
            if (best is None or len(ns) > len(best[1])) \
                    and iri.startswith(ns) \
                    and _LOCAL_OK.fullmatch(iri, len(ns)):
                best = label, ns
        if best is None:
            return "<%s>" % iri
        return "%s:%s" % (best[0], iri[len(best[1]):])
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
    raise TypeError("not a term: %s" % reprlib.repr(term))


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
    lines = ["%s%s %s %s ." % (indent, text[s],
                               "a" if (pred := text[p]) == rdf_type else pred,
                               text[o])
             for s, p, o in graph]
    lines.sort()
    return lines


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
