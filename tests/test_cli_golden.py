"""Pins the CLI surface on every bundled name.

For each command below and each bundled polytope, polygon and fixture name,
`tests/cli_golden.json` stores the sha256 of stdout, of stderr, the exit code
and the sha256 of every file the run writes (discriminant SVG/JSON under a
relative output directory).  Running this module as a script rewrites the
file from the current code:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from fanoscope import cli, fileio

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = (("analyze",), ("analyze", "--decomposition", "auto"),
            ("decompositions",), ("gamma",),
            ("gamma", "--decomposition", "auto"),
            ("discriminant", "--svg", "out"))


def bundled_names():
    table = fileio.bundled_polytopes()
    names = {k for k in table if k != "polygons"} | set(table["polygons"])
    return sorted(names | set(fileio.list_fixtures()))


def cases():
    return [(cmd[0], name, *cmd[1:]) for cmd in COMMANDS
            for name in bundled_names()]


def sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def record(argv) -> dict:
    """Run `argv` in-process in the current directory and hash what it left."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    files = {str(path): sha(path.read_text())
             for path in sorted(Path(".").rglob("*")) if path.is_file()}
    return {"exit": code, "stdout": sha(out.getvalue()),
            "stderr": sha(err.getvalue()), "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_is_pinned(argv, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert record(argv) == golden[" ".join(argv)]


def regenerate():
    doc = {}
    for argv in cases():
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                doc[" ".join(argv)] = record(argv)
            finally:
                os.chdir(cwd)
    GOLDEN.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
