"""Golden corpus transcript: the stdout and exit code of every corpus file.

``tests/golden/corpus.txt`` records, for every file under ``corpus/``, what
``solve``, ``solve --mode search``, ``bound``, ``finite-ext``, ``hnn`` and
``amalgam`` print in text and machine format (276 in-process calls).  The
test replays each call and compares byte for byte, so a change that should
keep the answers can show that it does.  Only stdout is recorded: stderr
carries tracebacks and file paths.

Regenerate the file (only for a change meant to alter the output) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import io
import os
import sys
from contextlib import redirect_stdout

import pytest

from ggsolve.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, "..")
GOLDEN = os.path.join(HERE, "golden", "corpus.txt")
COMMANDS = (
    ("solve",),
    ("solve", "--mode", "search"),
    ("bound",),
    ("finite-ext",),
    ("hnn",),
    ("amalgam",),
)
FORMATS = ("text", "machine")


def corpus_files():
    return sorted(f for f in os.listdir(os.path.join(ROOT, "corpus")) if f.endswith(".gg"))


def calls(name):
    """The argv of each recorded call on corpus file ``name``, path relative to the root."""
    path = f"corpus/{name}"
    return [["--format", fmt, *cmd, path] for fmt in FORMATS for cmd in COMMANDS]


def replay(argv):
    """One call's transcript block: the command line, its stdout and its exit code."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv[:-1] + [os.path.join(ROOT, argv[-1])])
    return f"$ ggsolve {' '.join(argv)}\n{buf.getvalue()}exit {code}\n"


def recorded():
    """The golden file as a dict from a block's command line to the block."""
    blocks = {}
    with open(GOLDEN) as fh:
        for line in fh:
            if line.startswith("$ ggsolve "):
                head = line.rstrip("\n")
                blocks[head] = ""
            blocks[head] += line
    return blocks


@pytest.mark.parametrize("name", corpus_files())
def test_corpus_transcript(name):
    blocks = recorded()
    for argv in calls(name):
        block = replay(argv)
        head = block.split("\n", 1)[0]
        assert head in blocks, head
        assert block == blocks[head]


def test_transcript_covers_the_corpus():
    assert len(recorded()) == len(corpus_files()) * len(FORMATS) * len(COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        for name in corpus_files():
            for argv in calls(name):
                fh.write(replay(argv))
