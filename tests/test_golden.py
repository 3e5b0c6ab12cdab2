"""Golden CLI corpus: byte-exact stdout and exit code of fixed invocations.

``golden/cases.json`` lists each case's name, argv and exit code; the
expected stdout is ``golden/<name>.out``.  The corpus was captured once from
a known-good tree and is never regenerated to make a change pass: a
difference here is a change of the CLI's output contract.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from eulercong.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(case["argv"]))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code == case["exit"]
    assert out.getvalue().encode() == (GOLDEN / f"{case['name']}.out").read_bytes()
