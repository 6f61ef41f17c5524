"""The golden report corpus: each case of cases.json run through cli.main, kept as a transcript.

A case lists argv steps that run in order, in process, in a fresh directory
holding every input file of the manifest.  Its transcript records, for each
step, the exit code, stderr and stdout, then the text of each file the steps
wrote.  A report's timing block is cut out: it is the one part of a report
that may differ between runs.  tests/test_golden.py compares every case with
its <name>.txt here.

The corpus is the one store of whole-report and CLI transcript pins; the only
inline pins are tests/test_lp.py's pivot paths, simplex internals that no
report shows.

Rewrite the expected files (all of them, or only the named cases) with

    PYTHONPATH=src python tests/golden/record.py [NAME ...]

and name each changed case and the reason for the change in CHANGES.md.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from dirspan import cli

HERE = Path(__file__).resolve().parent
# a report's timing block is its last key and holds only numbers
_TIMING = re.compile(r', "timing": \{[^{}]*\}')


def load_manifest():
    return json.loads((HERE / "cases.json").read_text(encoding="utf-8"))


def expected_path(case):
    return HERE / f"{case['name']}.txt"


def transcript(case, inputs, workdir):
    """Run the case's steps in workdir, which must be empty, and return their transcript."""
    workdir = Path(workdir)
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    parts = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in case["steps"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            parts.append(f"$ dirspan {' '.join(argv)}\nexit {code}\n"
                         f"--- stderr\n{err.getvalue()}--- stdout\n{_TIMING.sub('', out.getvalue())}")
    finally:
        os.chdir(cwd)
    for path in sorted(workdir.iterdir()):
        if path.name not in inputs:
            parts.append(f"--- file {path.name}\n{_TIMING.sub('', path.read_text(encoding='utf-8'))}")
    return "".join(parts)


def record(names=()):
    manifest = load_manifest()
    unknown = set(names) - {case["name"] for case in manifest["cases"]}
    if unknown:
        raise SystemExit(f"no such case: {', '.join(sorted(unknown))}")
    for case in manifest["cases"]:
        if names and case["name"] not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            expected_path(case).write_text(transcript(case, manifest["inputs"], tmp), encoding="utf-8")
        print(f"recorded {case['name']}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
