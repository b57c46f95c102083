"""Turtle/TriG parsing and the byte-stable serializer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from httplift.rdf import (
    IRI_CHARS, Iri, BlankNode, Literal, Triple, Graph, Dataset,
    isomorphic_datasets, XSD_INTEGER, XSD_BOOLEAN, RDF_TYPE,
)
from httplift import turtle
from httplift.turtle import (
    parse_turtle, parse_trig, serialize_turtle, serialize_trig,
    format_term, ParseError,
)

EX = "http://example.org/"


class TestParseTurtle:
    def test_basic_triple(self):
        g = parse_turtle('<%ss> <%sp> <%so> .' % (EX, EX, EX))
        assert Triple(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o")) in g

    def test_prefixed_names(self):
        g = parse_turtle('@prefix ex: <%s> . ex:s ex:p ex:o .' % EX)
        assert g.value(Iri(EX + "s"), Iri(EX + "p")) == Iri(EX + "o")

    def test_default_prefix(self):
        g = parse_turtle('@prefix : <%s> . :s :p :o .' % EX)
        assert len(g) == 1

    def test_a_keyword(self):
        g = parse_turtle('@prefix ex: <%s> . ex:s a ex:C .' % EX)
        assert g.value(Iri(EX + "s"), RDF_TYPE) == Iri(EX + "C")

    def test_object_and_predicate_lists(self):
        g = parse_turtle(
            '@prefix ex: <%s> . ex:s ex:p ex:a, ex:b ; ex:q ex:c .' % EX)
        assert len(g) == 3
        assert g.objects(Iri(EX + "s"), Iri(EX + "p")) == {
            Iri(EX + "a"), Iri(EX + "b")}

    def test_literals(self):
        g = parse_turtle(
            '@prefix ex: <%s> . ex:s ex:p "plain", 5, true, '
            '"typed"^^ex:dt, "hola"@es .' % EX)
        objs = g.objects(Iri(EX + "s"), Iri(EX + "p"))
        assert Literal("plain") in objs
        assert Literal("5", datatype=XSD_INTEGER) in objs
        assert Literal("true", datatype=XSD_BOOLEAN) in objs
        assert Literal("typed", datatype=Iri(EX + "dt")) in objs
        assert Literal("hola", language="es") in objs

    def test_string_escapes(self):
        g = parse_turtle('<%ss> <%sp> "a\\nb\\t\\"c\\"\\u0041" .' % (EX, EX))
        (t,) = list(g)
        assert t.object.lexical == 'a\nb\t"c"A'

    def test_blank_node_label(self):
        g = parse_turtle('_:x <%sp> _:y .' % EX)
        (t,) = list(g)
        assert isinstance(t.subject, BlankNode)
        assert isinstance(t.object, BlankNode)
        assert t.subject != t.object

    # RDF 1.1 Turtle section 6.5, BLANK_NODE_LABEL: the first character
    # may be '_' or a digit, and dots may not end the label.
    @pytest.mark.parametrize("label", ["x", "_x", "_", "0", "a.b", "a-b_"])
    def test_blank_node_labels_accepted(self, label):
        (t,) = parse_turtle('_:%s <%sp> "v" .' % (label, EX))
        assert t.subject == BlankNode(label)

    def test_anonymous_blank_node(self):
        g = parse_turtle('[] <%sp> [] .' % EX)
        (t,) = list(g)
        assert isinstance(t.subject, BlankNode)
        assert t.subject != t.object

    # Labels are local to the document (RDF 1.1 Turtle section 2.6): a
    # fresh node for [ ] or ( ) is never one that the text writes, before
    # or after it.
    @pytest.mark.parametrize("text", [
        '_:anon-1 ex:p ex:a . [ ex:q ex:b ] . [ ex:q ex:c ] .\n'
        '_:anon-3 ex:p ex:d .',
        '[ ex:q ex:b ] . _:anon-1 ex:p ex:a .\n'
        '( ex:c ) ex:q ex:c . _:anon-2 ex:p ex:d .',
    ], ids=["written-first", "written-after"])
    def test_fresh_blank_nodes_take_no_written_label(self, text):
        g = parse_turtle('@prefix ex: <%s> .\n' % EX + text)
        subjects = {t.subject for t in g}
        assert len(subjects) == 4
        assert all(isinstance(x, BlankNode) for x in subjects)

    def test_blank_node_property_list(self):
        g = parse_turtle(
            '@prefix ex: <%s> . ex:s ex:p [ ex:q ex:o ] .' % EX)
        assert len(g) == 2
        inner = g.value(Iri(EX + "s"), Iri(EX + "p"))
        assert g.value(inner, Iri(EX + "q")) == Iri(EX + "o")

    def test_collection(self):
        g = parse_turtle('@prefix ex: <%s> . ex:s ex:p (1 2 3) .' % EX)
        # 1 link triple + 3x (first, rest)
        assert len(g) == 7

    def test_empty_collection_is_nil(self):
        g = parse_turtle('@prefix ex: <%s> . ex:s ex:p () .' % EX)
        (t,) = list(g)
        assert t.object == Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#nil")

    def test_comments_ignored(self):
        g = parse_turtle('# leading\n<%ss> <%sp> <%so> . # trailing' % (EX, EX, EX))
        assert len(g) == 1

    def test_unknown_prefix_errors(self):
        with pytest.raises(ParseError):
            parse_turtle('nope:s nope:p nope:o .')

    def test_missing_dot_errors(self):
        with pytest.raises(ParseError):
            parse_turtle('<%ss> <%sp> <%so>' % (EX, EX, EX))

    def test_error_carries_position(self):
        try:
            parse_turtle('<%ss> <%sp>\n@@nonsense' % (EX, EX))
        except ParseError as e:
            assert e.line == 2
        else:
            pytest.fail("no error raised")

    # tests/test_cli.py checks \U00110000 and \uD800 end to end.
    @pytest.mark.parametrize("escape", ["\\uDFFF", "\\U0000DC00"])
    def test_unicode_escape_must_be_a_scalar_value(self, escape):
        with pytest.raises(ParseError, match="bad unicode escape "
                           r"\(line 1, column 49\)"):
            parse_turtle('<%ss> <%sp> "a%s" .' % (EX, EX, escape))

    def test_highest_scalar_values_parse(self):
        g = parse_turtle('<%ss> <%sp> "\\U0010FFFF\\uD7FF\\uE000" .'
                         % (EX, EX))
        assert {t.object for t in g} == {Literal("\U0010FFFF\uD7FF\uE000")}


class TestParseTrig:
    def test_default_and_named(self):
        text = ('@prefix ex: <%s> .\n'
                'ex:s ex:p ex:o .\n'
                'ex:g1 { ex:a ex:b ex:c . }\n' % EX)
        d = parse_trig(text)
        assert len(d.default_graph) == 1
        assert len(d.graph(Iri(EX + "g1"))) == 1

    def test_blank_graph_name(self):
        d = parse_trig('@prefix ex: <%s> . _:g { ex:a ex:b ex:c . }' % EX)
        assert list(d.named_graphs) == [BlankNode("g")]

    def test_blank_labels_shared_across_graphs(self):
        text = ('@prefix ex: <%s> .\n'
                '_:n ex:p ex:o .\n'
                'ex:g { _:n ex:q ex:o2 . }\n' % EX)
        d = parse_trig(text)
        (t1,) = list(d.default_graph)
        (t2,) = list(d.graph(Iri(EX + "g")))
        assert t1.subject == t2.subject

    def test_one_object_per_distinct_term(self):
        # One object per recurring node token and plain-string token: ex:x
        # is also a graph name and a datatype, and _:b and "v" recur in the
        # default and the named graph.
        text = ('@prefix ex: <%s> .\n' % EX
                + "".join('ex:s%d ex:x _:b , "v" , "w"^^ex:x , ex:x .\n' % i
                          for i in range(3))
                + 'ex:x { _:b ex:x "v" , ex:x . }\n')
        d = parse_trig(text)
        graphs = [d.default_graph, *d.named_graphs.values()]
        terms = [x for g in graphs for t in g for x in t] + list(d.named_graphs)
        terms += [t.object.datatype for g in graphs for t in g
                  if isinstance(t.object, Literal)]
        for term in (Iri(EX + "x"), BlankNode("b"), Literal("v")):
            found = [x for x in terms if x == term]
            assert len(found) >= 3 and len(set(map(id, found))) == 1, term

    def test_fresh_blank_nodes_take_no_written_label(self):
        # Labels are shared across the graphs of one document, so a label
        # written in either graph is taken.
        d = parse_trig('@prefix ex: <%s> .\n' % EX
                       + '[ ex:q ex:b ] . _:anon-1 ex:p ex:a .\n'
                       'ex:g { ( ex:c ) ex:q ex:c . _:anon-2 ex:p ex:d .\n'
                       '[ ex:q ex:e ] . }\n')
        graphs = [d.default_graph, *d.named_graphs.values()]
        subjects = {t.subject for g in graphs for t in g}
        assert len(subjects) == 5
        assert all(isinstance(x, BlankNode) for x in subjects)

    def test_memoized_string_keeps_its_tag_and_datatype(self):
        d = parse_trig('@prefix ex: <%s> .\n'
                       'ex:s ex:p "v" , "v"@en , "v"^^ex:d .' % EX)
        assert d.default_graph.objects(Iri(EX + "s"), Iri(EX + "p")) == {
            Literal("v"), Literal("v", language="en"),
            Literal("v", Iri(EX + "d"))}

    @pytest.mark.parametrize("text, message, col", [
        ('ex:s ex:p "v" .\n"v" ex:p ex:o .', "expected subject", 1),
        ('ex:s ex:p "v" .\nex:s "v" ex:o .', "expected predicate", 6),
        ('ex:s ex:p "v" .\n"v" { ex:s ex:p ex:o . }', "expected subject",
         1),
        ('ex:s ex:p "v" .\nex:s ex:p "w"^^"v" .', "expected datatype IRI",
         16),
    ], ids=["subject", "predicate", "graph-name", "datatype"])
    def test_memoized_string_is_only_an_object(self, text, message, col):
        # A string seen as an object is still no node in any other place.
        with pytest.raises(ParseError) as info:
            parse_trig('@prefix ex: <%s> .\n' % EX + text)
        assert (info.value.message, info.value.line, info.value.col) == (
            message, 3, col)


# Statements built from a small pool of tokens, strings among them in
# every place: a document must parse as the union of its statements, each
# parsed alone, or fail with the error of the first statement that fails.
# Repeats in a pool make its tokens that are errors rarer.
_NODE_TOKENS = ["ex:a", "<http://example.org/a>", "_:b"]
_OBJECT_TOKENS = 2 * (_NODE_TOKENS + [
    '"v"', '"w"', '"v"@en', '"v"^^ex:d', '"v"^^<http://example.org/d>', "1",
    "-2"])
_bodies = st.builds(
    lambda s, p, objects: "%s %s %s" % (s, p, " , ".join(objects)),
    st.sampled_from(_NODE_TOKENS * 4 + ['"v"']),
    st.sampled_from(["ex:p", "<http://example.org/p>", "a"] * 3 + ['"v"']),
    st.lists(st.sampled_from(_OBJECT_TOKENS + ['"w"^^"v"']),
             min_size=1, max_size=3))
_statements = st.builds(
    lambda name, body: body + " ." if name is None
    else "%s { %s . }" % (name, body),
    st.sampled_from([None] * 4 + ["ex:g", "_:g"] * 2 + ['"v"']), _bodies)


def _parse_or_error(text):
    try:
        return parse_trig('@prefix ex: <%s> .\n' % EX + text)
    except ParseError as e:
        return e


@settings(max_examples=300)
@given(st.lists(_statements, min_size=1, max_size=8))
def test_memo_carries_no_term_across_positions(statements):
    whole = _parse_or_error("\n".join(statements))
    parts = [_parse_or_error(s) for s in statements]
    failed = [(k, e) for k, e in enumerate(parts)
              if isinstance(e, ParseError)]
    if failed:
        # Statement k is on line k + 2 of the document, and alone on line 2.
        k, e = failed[0]
        assert isinstance(whole, ParseError), whole
        assert (whole.message, whole.line, whole.col) == (
            e.message, e.line + k, e.col)
        return
    named = {}
    for d in parts:
        for name, g in d.named_graphs.items():
            named.setdefault(name, set()).update(g)
    assert whole == Dataset(
        Graph(set().union(*(d.default_graph for d in parts))),
        {name: Graph(ts) for name, ts in named.items()})


class TestSerialize:
    def test_deterministic_output(self):
        g = parse_turtle('@prefix ex: <%s> . ex:s ex:p ex:a, ex:b .' % EX)
        prefixes = {"ex": EX}
        assert serialize_turtle(g, prefixes) == serialize_turtle(g, prefixes)

    def test_order_independence(self):
        a = parse_turtle('@prefix ex: <%s> . ex:s ex:p ex:a . ex:s ex:q ex:b .' % EX)
        b = parse_turtle('@prefix ex: <%s> . ex:s ex:q ex:b . ex:s ex:p ex:a .' % EX)
        assert serialize_turtle(a, {"ex": EX}) == serialize_turtle(b, {"ex": EX})

    def test_prefix_compaction(self):
        g = Graph([Triple(Iri(EX + "s"), RDF_TYPE, Iri(EX + "C"))])
        out = serialize_turtle(g, {"ex": EX})
        assert "ex:s a ex:C ." in out

    def test_format_term_integers_and_booleans(self):
        assert format_term(Literal("42", datatype=XSD_INTEGER), {}) == "42"
        assert format_term(Literal("true", datatype=XSD_BOOLEAN), {}) == "true"

    def test_format_term_of_a_non_term_errors(self):
        with pytest.raises(TypeError, match=r"^not a term: 'x'$"):
            format_term("x")
        with pytest.raises(TypeError) as info:
            format_term("y" * 100)
        assert str(info.value) == "not a term: '%s...%s'" % ("y" * 12,
                                                             "y" * 13)

    def test_format_term_language(self):
        lit = Literal("chat", language="fr")
        assert format_term(lit, {}) == '"chat"@fr'

    def test_string_escaping_round_trips(self):
        tricky = 'line1\nline2\t"quoted"\\back'
        g = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), Literal(tricky))])
        g2 = parse_turtle(serialize_turtle(g, {}))
        assert g2 == g

    def test_trig_round_trip(self):
        text = ('@prefix ex: <%s> .\n'
                'ex:s ex:p ex:o .\n'
                'ex:g { ex:a ex:b 5 . }\n' % EX)
        d = parse_trig(text)
        d2 = parse_trig(serialize_trig(d, {"ex": EX}))
        assert isomorphic_datasets(d, d2)


# Randomized round-trip oracle: serialize then reparse must yield an
# isomorphic graph.  Seeded, so failures reproduce.

def _random_graph(rng):
    iris = [Iri(EX + w) for w in ("s", "p", "o", "alpha", "beta")]
    blanks = [BlankNode("n%d" % i) for i in range(4)]
    lits = [Literal("plain"), Literal('we"ird\n\\'), Literal("7", datatype=XSD_INTEGER),
            Literal("true", datatype=XSD_BOOLEAN), Literal("bonjour", language="fr"),
            Literal("typed", datatype=Iri(EX + "dt"))]
    triples = []
    for _ in range(rng.randrange(0, 9)):
        s = rng.choice(iris + blanks)
        p = rng.choice(iris)
        o = rng.choice(iris + blanks + lits)
        triples.append(Triple(s, p, o))
    return Graph(triples)


def test_randomized_round_trips():
    rng = random.Random(20240826)
    prefixes = {"ex": EX}
    for i in range(1000):
        g = _random_graph(rng)
        text = serialize_turtle(g, prefixes)
        assert isomorphic_datasets(Dataset(parse_turtle(text)), Dataset(g)), (
            "case %d:\n%s" % (i, text))


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40))
def test_any_string_literal_round_trips(s):
    g = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), Literal(s))])
    assert parse_turtle(serialize_turtle(g, {})) == g


_iri_text = st.from_regex(IRI_CHARS, fullmatch=True)


@settings(max_examples=300)
@given(_iri_text, _iri_text)
def test_any_iri_round_trips(a, b):
    # Whole IRIs and local parts after a declared prefix, in every position.
    g = Graph([Triple(Iri(a), Iri(EX + b), Iri(EX + a)),
               Triple(Iri(EX + b), Iri(b), Literal("x", Iri(a)))])
    assert parse_turtle(serialize_turtle(g, {"ex": EX})) == g


# Every tokenizer error kind, with its exact message and position. The
# position is the token's first character, or the escape's backslash.
_S = '<http://x/s> <http://x/p> '


@pytest.mark.parametrize("text, message, line, col", [
    (_S + '<a b> .', "malformed IRI reference", 1, 27),
    (_S + '<http://x/o .', "malformed IRI reference", 1, 27),
    (_S + '"abc\n<http://x/o> .', "unterminated string literal", 1, 27),
    (_S + '"abc', "unterminated string literal", 1, 27),
    (_S + '"abc\\', "unterminated string literal", 1, 27),
    (_S + '"a\\"', "unterminated string literal", 1, 27),
    (_S + '"a\\qb" .', "unknown string escape \\q", 1, 29),
    (_S + '"a\\\nb" .', "unknown string escape \\\n", 1, 29),
    (_S + '"\\q\n', "unknown string escape \\q", 1, 28),
    (_S + '"\\t\\u12G4" .', "bad unicode escape", 1, 30),
    (_S + '"\\u00\n" .', "bad unicode escape", 1, 28),
    (_S + '"\\u00', "bad unicode escape", 1, 28),
    (_S + '"ok" , "\\U00110000" .', "bad unicode escape", 1, 35),
    (_S + '"x"@-en .', "malformed language tag", 1, 30),
    (_S + '"x"@ en .', "malformed language tag", 1, 30),
    (_S + '"x"@en- .', "malformed language tag", 1, 30),
    (_S + '"x"@en--gb .', "malformed language tag", 1, 30),
    ('_:-a <http://x/p> <http://x/o> .', "malformed blank node label", 1, 1),
    (_S + '_: .', "malformed blank node label", 1, 27),
    (_S + '+x .', "malformed numeric literal", 1, 27),
    (_S + '- .', "malformed numeric literal", 1, 27),
    (_S + '\u0663 .', "malformed numeric literal", 1, 27),
    (_S + 'foo .', "unexpected token 'foo'", 1, 27),
    ('@prefix ex: <http://x/> .\nex:s ex:p ex:a. ex:b.\n\t@prefixes',
     "expected predicate", 2, 21),
    ('@prefixes', "unexpected token 'es'", 1, 8),
    (_S + '^x .', "unexpected character '^'", 1, 27),
    (_S + '_x .', "unexpected character '_'", 1, 27),
    (_S + "'x' .", "unexpected character \"'\"", 1, 27),
    (_S[:-1] + '\u00a0<http://x/o> .', "unexpected character '\\xa0'", 1, 26),
    ('# one\n# two "\n\t' + _S + '"a\\q" .', "unknown string escape \\q",
     3, 30),
    (_S + '"a\\nb" . # c\r\n\r\n  ' + _S + '$ .',
     "unexpected character '$'", 3, 29),
    (_S + '<http://x/o> . # no x\n$', "unexpected character '$'", 2, 1),
    (_S + '<http://x/o> # "a\\q', "expected '.', found 'eof'", 1, 46),
], ids=["iri-space", "iri-unclosed", "string-mid-line", "string-at-eof",
        "string-backslash-at-eof", "string-escaped-quote-at-eof",
        "unknown-escape", "escaped-newline", "escape-before-newline",
        "unicode-not-hex", "unicode-short-before-newline",
        "unicode-short-at-eof", "unicode-above-10ffff", "langtag-dash",
        "langtag-space", "langtag-trailing-dash", "langtag-double-dash",
        "blank-label-dash", "blank-label-empty",
        "number-sign-only", "number-minus", "number-non-ascii-digit",
        "token-word", "token-after-prefix", "token-after-prefix-keyword",
        "char-caret", "char-underscore",
        "char-single-quote", "char-no-break-space", "after-comments",
        "after-crlf-lines", "after-a-word-in-a-comment",
        "comment-at-eof"])
def test_tokenizer_errors_are_located(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_trig(text)
    assert (str(info.value), info.value.line, info.value.col) == (
        "%s (line %d, column %d)" % (message, line, col), line, col)


# Every parser error kind, located at the token where parsing stopped, which
# the message shows as written. The first error in the text wins: a grammar
# error before a malformed token is the one reported.
_P = '@prefix ex: <http://x/> .\n'


@pytest.mark.parametrize("text, message, line, col", [
    ('# a comment\n# "another"\n' + _S + '<http://x/o>  # end',
     "expected '.', found 'eof'", 3, 46),
    (_P + 'ex:s ex:p ex:o ex:q .', "expected '.', found 'ex:q'", 2, 16),
    (_S + '<http://x/o> "a\\nb"', "expected '.', found '\"a\\\\nb\"'", 1, 40),
    (_S + '<http://x/o> ""', "expected '.', found '\"\"'", 1, 40),
    (_S + '<http://x/o> 5', "expected '.', found '5'", 1, 40),
    (_S + '<http://x/o> _:b', "expected '.', found '_:b'", 1, 40),
    (_S + '<http://x/o> @en', "expected '.', found '@en'", 1, 40),
    (_S + '<http://x/o> @prefix', "expected '.', found '@prefix'", 1, 40),
    (_S + 'true false .', "expected '.', found 'false'", 1, 32),
    (_S + '[ <http://x/p> <http://x/o> .', "expected ']', found '.'", 1, 55),
    ('@prefix ex: "x" .', "expected 'IRIREF', found '\"x\"'", 1, 13),
    ('@prefix <http://x/> .', "expected 'PNAME_NS', found '<http://x/>'",
     1, 9),
    (_P + '\r\n\r\nex:s ex:p nope:o .', "unknown prefix 'nope:'", 4, 11),
    ('ex:g { ex:s ex:p ex:o }', "unknown prefix 'ex:'", 1, 1),
    ('\n\n  "s" <http://x/p> <http://x/o> .', "expected subject", 3, 3),
    (_S + '<http://x/o> .\n}', "expected subject", 2, 1),
    ('_:g { ' + _S + '<http://x/o> . } .', "expected subject", 1, 50),
    ('<http://x/s> "p" <http://x/o> .', "expected predicate", 1, 14),
    ('<http://x/s> _:p <http://x/o> .', "expected predicate", 1, 14),
    (_S + '.', "expected object", 1, 27),
    (_S + '<http://x/o> .\n# c\n<http://x/s> a a .', "expected object",
     3, 16),
    ('@prefix ex:a <http://x/> .', "prefix declaration must end with ':'",
     1, 9),
    (_S + '( 1 2', "unterminated collection", 1, 32),
    ('<http://x/g> {\r\n ' + _S + '<http://x/o> <http://x/o2> }',
     "expected '.' or '}'", 2, 41),
    (_S + '"x"^^"y" .', "expected datatype IRI", 1, 32),
    (_S + '<http://x/o> <http://x/o2> .\n' + _S + '"a\\q" .',
     "expected '.', found '<http://x/o2>'", 1, 40),
    (_S + '. # "\r\n' + _S + '<http://x/o> $', "expected object", 1, 27),
], ids=["eof-after-comments", "found-pname", "found-string",
        "found-empty-string", "found-integer", "found-blank-node",
        "found-langtag", "found-prefix-keyword", "found-boolean",
        "unclosed-bracket", "prefix-without-iri", "prefix-without-pname",
        "unknown-prefix-after-crlf", "unknown-graph-name-prefix",
        "subject-string", "subject-brace", "subject-dot",
        "predicate-string", "predicate-blank-node", "object-dot",
        "object-a-after-comment", "prefix-with-local",
        "collection-at-eof", "graph-missing-dot", "datatype-string",
        "grammar-then-bad-escape", "grammar-then-bad-character"])
def test_parser_errors_are_located(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_trig(text)
    assert (str(info.value), info.value.line, info.value.col) == (
        "%s (line %d, column %d)" % (message, line, col), line, col)


# Nesting deeper than the interpreter's stack allows is a located error at
# the token where the parser ran out of stack; nesting to depth 100 parses.
_NESTED = {"collection": ("(", "", ")"),
           "property-list": ("[ <http://x/p> ", "<http://x/o> ", "]")}


def _nested(form, depth):
    opening, inner, closing = _NESTED[form]
    return _S + opening * depth + inner + closing * depth + " ."


@pytest.mark.parametrize("form", sorted(_NESTED))
def test_deep_nesting_is_a_located_error(form):
    with pytest.raises(ParseError) as info:
        parse_trig(_nested(form, 10000))
    e, opening = info.value, _NESTED[form][0]
    assert str(e) == "nesting too deep (line 1, column %d)" % e.col
    # The column lies in the run of openings.
    assert e.line == 1 and len(_S) < e.col <= len(_S) + 10000 * len(opening)


@pytest.mark.parametrize("form, triples", [("collection", 199),
                                           ("property-list", 101)])
def test_nesting_to_depth_100_parses(form, triples):
    assert len(parse_trig(_nested(form, 100)).default_graph) == triples


# format_term against a brute-force reference: every namespace that starts
# the IRI and leaves a legal local name is a candidate; the longest wins,
# and among equal namespaces the label that comes first in the mapping.

def _legal_local(local):
    return local == "" or (local[0] not in ".-"
                           and local[-1] != "."
                           and all(c.isascii() and (c.isalnum() or c in "_.-")
                                   for c in local))


def _reference_format(term, prefixes):
    if isinstance(term, Literal):
        return '"%s"^^%s' % (term.lexical,
                             _reference_format(term.datatype, prefixes))
    best = None
    for label, ns in prefixes.items():
        local = term.value[len(ns):]
        if term.value.startswith(ns) and _legal_local(local) \
                and (best is None or len(ns) > len(best[1])):
            best = (label, ns, local)
    return "<%s>" % term.value if best is None else "%s:%s" % (best[0],
                                                              best[2])


_bases = st.sampled_from(["http://x/", "http://x/a", "urn:x", "urn:x:"])
_namespaces = st.builds(lambda b, s: b + s, _bases,
                        st.text("ab1/#.-_", max_size=4))
_prefix_maps = st.dictionaries(st.sampled_from(["", "p", "q", "r", "s"]),
                               _namespaces, max_size=5)
_iris = st.builds(lambda b, s: Iri(b + s), _bases,
                  st.text("ab1/#.-_:", max_size=7))


@settings(max_examples=500)
@given(_prefix_maps, _iris, _iris)
def test_format_term_agrees_with_brute_force(prefixes, iri, datatype):
    assert format_term(iri, prefixes) == _reference_format(iri, prefixes)
    literal = Literal("v", datatype)
    assert format_term(literal, prefixes) == _reference_format(literal,
                                                               prefixes)


def test_equal_namespaces_tie_in_mapping_order():
    # The two mappings are equal as dicts; only their order differs.
    iri = Iri(EX + "a")
    assert format_term(iri, {"p": EX, "q": EX}) == "p:a"
    assert format_term(iri, {"q": EX, "p": EX}) == "q:a"
    assert format_term(iri, {"q": EX, "p": EX, "r": EX + "a"}) == "r:"


def test_empty_namespace_can_win():
    assert format_term(Iri("abc"), {"e": ""}) == "e:abc"
    assert format_term(Iri(EX + "a"), {"e": "", "p": EX}) == "p:a"


def test_serializer_renders_each_term_once(monkeypatch):
    rendered = []
    missing = turtle._Rendered.__missing__

    def counting(self, term):
        rendered.append(term)
        return missing(self, term)

    monkeypatch.setattr(turtle._Rendered, "__missing__", counting)
    g = parse_trig('@prefix ex: <%s> .\n'
                   'ex:s a ex:C ; ex:p ex:o, "x", "y"^^ex:dt, 5, _:b .\n'
                   '_:b ex:p ex:s .\n'
                   'ex:g { ex:s ex:p ex:o, "y"^^ex:dt . }\n'
                   '_:g { ex:o ex:p ex:dt . }\n' % EX)
    text = serialize_trig(g, {"ex": EX})
    terms = set(g.named_graphs)
    for graph in [g.default_graph, *g.named_graphs.values()]:
        terms |= {term for t in graph
                  for term in (t.subject, t.predicate, t.object)}
    # ex:dt is an object too, so the datatype adds no term of its own.
    assert sorted(map(repr, rendered)) == sorted(map(repr, terms))
    assert parse_trig(text) == g
