"""Behaviour corpus: each argv of ``data/corpus.txt`` gives the exit status,
stdout, stderr and ``--json -`` records held in ``data/corpus_golden.json``.

Each argv runs in-process through ``cli.run``; a command that writes records
runs a second time with ``--json -`` appended, unless the argv already picks
a format.  The word ``PATH`` in an argv stands for a fresh temporary path,
and the file written there is digested as a fourth stream.  The golden file
holds the sha256 of each stream, the three timing fields masked: JSON
``"millis"``, the last column of CSV records and the ``ms`` column of the
``suite`` table.  The test names the first argv and stream that differ.

The golden file changes only with a deliberate change of behaviour, and
then every argv whose entry changed is listed in CHANGES.md.  This file
writes it:

    PYTHONPATH=src python tests/test_corpus.py
"""

import argparse
import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from dunklpoly import cli

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "corpus.txt"
GOLDEN = DATA / "corpus_golden.json"

_JSON_MILLIS = re.compile(rb'("millis": )[^\n]*')
_CSV_HEADER = b"suite,target,params,degrees,outcome,residual,tolerance,millis\n"
_CSV_MILLIS = re.compile(rb",[^,\n]*$", re.M)
_TABLE_MS = re.compile(rb"^(\S+ +\d+ +\d+ +\d+ +\d+) +\d+$", re.M)


def _argvs():
    """The corpus lines that are not blank or comments."""
    lines = CORPUS.read_text().splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def _writes_records(command):
    parser = argparse.ArgumentParser()
    cli._COMMANDS[command][1](parser)
    return "--json" in parser._option_string_actions


def _masked(command, stream):
    stream = _JSON_MILLIS.sub(rb"\1masked", stream)
    head, csv_header, records = stream.partition(_CSV_HEADER)
    if csv_header:
        stream = head + csv_header + _CSV_MILLIS.sub(b",masked", records)
    if command == "suite":
        stream = _TABLE_MS.sub(rb"\1 masked", stream)
    return stream


def _run(argv):
    """(exit status, stdout bytes, stderr bytes) of one in-process run."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.run(argv)
    out.flush()
    return status, out.buffer.getvalue(), err.getvalue().encode()


def _digest(command, stream):
    return hashlib.sha256(_masked(command, stream)).hexdigest()


def observe(line):
    """The golden entry of one corpus line."""
    argv = line.split()
    command = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records"
        argv = [str(path) if word == "PATH" else word for word in argv]
        status, out, err = _run(argv)
        written = path.read_bytes() if path.exists() else None
    entry = {"status": status, "stdout": _digest(command, out),
             "stderr": _digest(command, err), "records": None,
             "file": None if written is None else _digest(command, written)}
    if _writes_records(command) and not {"--json", "--csv"} & set(argv):
        entry["records"] = _digest(command, _run(argv + ["--json", "-"])[1])
    return entry


def test_corpus_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    argvs = _argvs()
    assert list(golden) == argvs, "corpus.txt and corpus_golden.json list other argvs"
    for line in argvs:
        observed = observe(line)
        for stream, value in golden[line].items():
            assert observed[stream] == value, f"{line!r}: {stream} differs"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({line: observe(line) for line in _argvs()}, indent=1) + "\n")
