"""Command-line entry point: lift, validate, query and ontology commands.

Exit codes: 0 success (warnings allowed), 1 conformance violations,
2 input or invocation errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import reprlib
import sys
from typing import Optional

from . import queries, turtle, vocab
from .validate import validate as _run_rules
from .ingest import IngestError, load_har, load_transcript
from .lift import lift_conversation
from .rdf import BlankNode, Dataset, Iri, Literal
from .turtle import format_term, parse_trig

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _read_input(path: str) -> str:
    """The text of a file or of stdin ('-'), with universal newlines as in
    text mode. Both are read as bytes: a text-mode stdin under the C locale
    turns bad UTF-8 into lone surrogates."""
    if path == "-":
        text = turtle.decode(sys.stdin.buffer.read())
    else:
        with open(path, "rb") as fh:
            text = turtle.decode(fh.read())
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _guess_format(path: str) -> str:
    if path.endswith(".har"):
        return "har"
    if path.endswith(".trig"):
        return "trig"
    return "transcript"


def _load_dataset(path: str, fmt: Optional[str],
                  base: Optional[Iri]) -> Dataset:
    text = _read_input(path)
    fmt = fmt or _guess_format(path)
    if fmt == "trig":
        return parse_trig(text)
    conversation = load_har(text) if fmt == "har" else load_transcript(text)
    return lift_conversation(conversation, base and base.value)


def _write_output(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _iri(text: str) -> Iri:
    """An option's IRI; argparse would quote a bad one whole."""
    try:
        return Iri(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid Iri value: "
                                         + reprlib.repr(text))


def _add_input_args(sub):
    sub.add_argument("input", help="input file, or '-' for stdin")
    sub.add_argument("--format", choices=("transcript", "har", "trig"),
                     help="input format (default: by file extension)")
    sub.add_argument("--base", metavar="IRI", type=_iri,
                     help="mint stable message IRIs under this base")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH")


# Built once per process: it is made of constants, and parsing does not
# change it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="httplift",
        description="Lift HTTP interactions into RDF, validate them and "
                    "answer the built-in competency questions.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_lift = subs.add_parser("lift", help="lift traffic to TriG/Turtle")
    _add_input_args(p_lift)
    p_lift.set_defaults(run=_cmd_lift)
    p_lift.add_argument("--turtle", action="store_true",
                        help="emit Turtle (default graph only) instead of TriG")

    p_val = subs.add_parser("validate", help="run the conformance rules")
    _add_input_args(p_val)
    p_val.set_defaults(run=_cmd_validate)
    p_val.add_argument("--report", choices=("text", "tsv"), default="text")

    p_query = subs.add_parser("query", help="answer a competency question")
    p_query.add_argument("cq", help="competency question number (1-7)")
    _add_input_args(p_query)
    p_query.set_defaults(run=_cmd_query)
    p_query.add_argument("--name", help="query parameter name (CQ7)")
    p_query.add_argument("--prop", metavar="IRI", type=_iri,
                         help="body property IRI (CQ6)")

    p_onto = subs.add_parser("ontology", help="print the vendored ontology")
    p_onto.add_argument("--extensions", action="store_true",
                        help="include the extension term declarations")
    p_onto.add_argument("--out", metavar="PATH")
    p_onto.set_defaults(run=_cmd_ontology)
    return parser


def _cmd_lift(args) -> int:
    dataset = _load_dataset(args.input, args.format, args.base)
    if args.turtle:
        text = turtle.serialize_turtle(dataset.default_graph, vocab.PREFIXES)
    else:
        text = turtle.serialize_trig(dataset, vocab.PREFIXES)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    dataset = _load_dataset(args.input, args.format, args.base)
    report = _run_rules(dataset)
    text = report.to_tsv() if args.report == "tsv" else report.to_text()
    _write_output(text, args.out)
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def _fmt(term) -> str:
    return format_term(term, vocab.PREFIXES)


def _cq5_rows(dataset, args):
    """One (request, "true"/"false") row per request with a response."""
    requests = dataset.default_graph.subjects(vocab.RESP, None)
    return [(q, str(queries.cq5_negotiation(dataset, q)).lower())
            for q in sorted(requests, key=_fmt)]


# Competency question -> (answer(dataset, args), required option). The
# answers look the CQ functions up on `queries` when they are called.
_CQS = {
    "1": (lambda d, args: queries.cq1_media_types(d), None),
    "2": (lambda d, args: queries.cq2_interaction_status(d), None),
    "3": (lambda d, args: queries.cq3_locations(d), None),
    "4": (lambda d, args: queries.cq4_conversation_status(d), None),
    "5": (_cq5_rows, None),
    "6": (lambda d, args: queries.cq6_body_values(d, args.prop), "prop"),
    "7": (lambda d, args: queries.cq7_query_param(d, args.name), "name"),
}


def _format_row(row) -> str:
    """A dict row's values, a tuple's items or a single term, tab-separated;
    strings are printed as they are. Terms are tuples too, so they are
    tested for first."""
    cells = (row,) if isinstance(row, (Iri, BlankNode, Literal)) \
        else row.values() if isinstance(row, dict) else row
    return "\t".join(c if isinstance(c, str) else _fmt(c) for c in cells)


def _cmd_query(args) -> int:
    if args.cq not in _CQS:
        print("error: unknown competency question %s"
              % reprlib.repr(args.cq), file=sys.stderr)
        return EXIT_ERROR
    answer, option = _CQS[args.cq]
    if option and not getattr(args, option):
        print("error: CQ%s requires --%s" % (args.cq, option), file=sys.stderr)
        return EXIT_ERROR
    dataset = _load_dataset(args.input, args.format, args.base)
    _write_output("".join(_format_row(row) + "\n"
                          for row in answer(dataset, args)), args.out)
    return EXIT_OK


def _cmd_ontology(args) -> int:
    _write_output(vocab.ontology_text(extensions=args.extensions), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code else EXIT_OK
    # Nearly all that a command allocates stays live until it returns, so
    # collector passes while it runs would walk it again and again. Cycles
    # it leaves are collected once the collector runs again.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except (IngestError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
