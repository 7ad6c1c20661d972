"""The README's command-line and library examples print what it shows."""

import json
import re
import shlex
import sys
from pathlib import Path

from fixfnm.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"(?ms)^```{language}\n(.*?)^```$", README)


def _cli_examples():
    """(command, expected lines) for each `$ fixfnm ...` line of a sh block;
    its output runs to the next blank line or the end of the block."""
    examples = []
    for block in _blocks("sh"):
        for chunk in block.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ fixfnm "):
                examples.append((lines[0][2:], lines[1:]))
    return examples


def _pattern(expected):
    """A line ending in `...` matches by prefix; a line that is only `...`
    matches any run of lines."""
    parts = []
    for line in expected:
        if line == "...":
            parts.append(r"(?:[^\n]*\n)*")
        elif line.endswith("..."):
            parts.append(re.escape(line[:-3]) + r"[^\n]*\n")
        else:
            parts.append(re.escape(line) + r"\n")
    return "".join(parts)


def _timing_names(payload):
    """The payload with its timings' names in place of their values."""
    return {**payload, "timings": sorted(payload["timings"])}


def test_readme_examples(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the examples name files under scripts/data
    examples = _cli_examples()
    assert {command.split()[1] for command, _ in examples} == {
        "classify", "fix", "intersect", "oracle", "eq", "mihailova"
    }
    problems = []
    for command, expected in examples:
        main(shlex.split(command)[1:])
        captured = capsys.readouterr()
        shown = captured.out + captured.err
        if "--json" in command:
            # wrapped over lines in the README; the timings vary from run to run
            want, got = json.loads(" ".join(expected)), json.loads(shown)
            matches = _timing_names(got) == _timing_names(want)
        else:
            matches = re.fullmatch(_pattern(expected), shown) is not None
        if not matches:
            problems.append(f"{command}\n{shown}")
    assert not problems, "\n".join(problems)

    # each `print(...)  # text` line of the library example prints that text
    (code,) = _blocks("python")
    printed = {}

    def record(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))

    exec(compile(code, "README.md", "exec"), {"print": record})
    expected = {
        lineno: line.split("  # ", 1)[1].strip()
        for lineno, line in enumerate(code.splitlines(), start=1)
        if line.startswith("print(") and "  # " in line
    }
    assert expected
    assert {lineno: printed.get(lineno) for lineno in expected} == expected
