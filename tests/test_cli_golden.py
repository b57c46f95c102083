"""Byte-for-byte CLI output on the fixtures: exit code, stdout and stderr of
every command, compared with the expected files in tests/fixtures/cli_golden.

After an intended change of output, rewrite the expected files by running
this file as a script: `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import os

import pytest

from httplift.cli import main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
GOLDEN = os.path.join(FIXTURES, "cli_golden")
INPUTS = ("registration.http", "registration_json.http", "registration.har",
          "registration_golden.trig", "findings.http")

COMMANDS = (
    ["lift"],
    ["lift", "--turtle"],
    ["validate"],
    ["validate", "--report", "tsv"],
    *(["query", str(n)] for n in range(1, 6)),
    ["query", "6", "--prop", "http://example.org/ns#ids"],
    ["query", "7", "--name", "count"],
    ["query", "6"],
    ["query", "7"],
    ["query", "9"],
)


def command_argv(command, path):
    """`command` run on the input `path`."""
    return command[:2] + [path] + command[2:] if command[0] == "query" \
        else command + [path]


def run_cli(argv):
    """The exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_all(name):
    """One record per command: argv (input path relative to the fixtures),
    exit code, and stdout and stderr as lists of lines with their ends."""
    records = []
    for command in COMMANDS:
        argv = command_argv(command, name)
        code, out, err = run_cli(command_argv(command,
                                              os.path.join(FIXTURES, name)))
        records.append({"argv": argv, "exit": code,
                        "stdout": out.splitlines(keepends=True),
                        "stderr": err.splitlines(keepends=True)})
    return records


def golden_path(name):
    return os.path.join(GOLDEN, name + ".json")


@pytest.mark.parametrize("name", INPUTS)
def test_cli_output_matches_golden(name):
    with open(golden_path(name), encoding="utf-8") as fh:
        expected = json.load(fh)
    got = run_all(name)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for g, e in zip(got, expected):
        assert (g["exit"], "".join(g["stdout"]), "".join(g["stderr"])) == \
            (e["exit"], "".join(e["stdout"]), "".join(e["stderr"])), g["argv"]


# validate, its TSV report and the seven questions with their arguments.
REREAD = COMMANDS[2:11]


@pytest.mark.parametrize("name", [n for n in INPUTS
                                  if not n.endswith(".trig")])
def test_lifted_trig_reads_back_as_its_source(name, tmp_path):
    # lift --out lifted.trig, then validate or query lifted.trig: each
    # command answers as it does on the source.
    source = os.path.join(FIXTURES, name)
    lifted = str(tmp_path / "lifted.trig")
    assert run_cli(["lift", source, "--out", lifted])[0] == 0
    for command in REREAD:
        on_source, on_lifted = (run_cli(command_argv(command, path))[:2]
                                for path in (source, lifted))
        assert on_lifted == on_source, command


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in INPUTS:
        with open(golden_path(name), "w", encoding="utf-8") as fh:
            json.dump(run_all(name), fh, indent=1, ensure_ascii=False)
            fh.write("\n")
