"""Frozen CLI bytes: exit code and sha256 of stdout and stderr per request.

The corpus covers every subcommand on every grid type in text and JSON,
markdown and an explicit --ell per subcommand, every stalks flavor x
kind x coefficient ring on one simply-laced type and one folded type
per symmetry group, `tables` in all three formats, and the documented
refusals.  Refactors must leave every byte unchanged.  Regenerate the
fixture only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from decnum.cli import MINIMAL_MAX_RANK, main

FIXTURE = Path(__file__).with_name("golden") / "cli.json"
WINDOW_ENV = "DECNUM_DEGREE_WINDOW"

GRID = (
    [("A", n) for n in range(1, 11)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 11)]
    + [("E", n) for n in (6, 7, 8)] + [("F", 4), ("G", 2)]
)
TYPED = ("lattice", "simple", "subregular", "minimal", "stalks")
PRIMES = ("2", "3", "5", "7")


def _typed(cmd: str, series: str, rank: int, *flags: str) -> list[str]:
    return [cmd, "--type", series, "--rank", str(rank), *flags]


def corpus() -> list[tuple[list[str], str | None]]:
    """(argv, DECNUM_DEGREE_WINDOW or None) for every frozen request."""
    out: list[tuple[list[str], str | None]] = []
    for cmd in TYPED:
        for series, rank in GRID:
            out.append((_typed(cmd, series, rank), None))
            out.append((_typed(cmd, series, rank, "--format", "json"), None))
    out.append((_typed("lattice", "D", 6, "--dual"), None))
    out.append((_typed("lattice", "B", 5, "--dual", "--format", "json"), None))
    for cmd, (series, rank), ell in zip(
        TYPED[1:], (("D", 6), ("G", 2), ("F", 4), ("C", 3)), ("2", "2", "3", "5")
    ):
        out.append((_typed(cmd, series, rank, "--format", "markdown"), None))
        out.append((_typed(cmd, series, rank, "--ell", ell), None))
    out.append((_typed("lattice", "E", 6, "--format", "markdown"), None))
    for series, rank in (("D", 4), ("B", 3), ("G", 2)):
        for flavor in ("p", "pplus"):
            for kind in ("shriek", "ic", "star"):
                flags = ["--flavor", flavor, "--kind", kind]
                for coeff in ("K", "O"):
                    out.append((_typed("stalks", series, rank, *flags,
                                       "--coeff", coeff), None))
                for ell in PRIMES:
                    out.append((_typed("stalks", series, rank, *flags,
                                       "--coeff", "F", "--ell", ell), None))
    for fmt in ("text", "json", "markdown"):
        out.append((["tables", "--format", fmt], None))
    out.append((["tables", "--paper"], None))
    # documented refusals and usage errors
    for ell in ("6", "1", "0", "x"):
        out.append((_typed("simple", "A", 3, "--ell", ell), None))
    out.append((_typed("stalks", "A", 2, "--coeff", "F"), None))
    out.append((_typed("stalks", "D", 5, "--coeff", "F", "--ell", "3",
                       "--flavor", "pplus"), None))
    out.append((_typed("simple", "B", 3), None))
    out.append((_typed("simple", "G", 2, "--format", "json"), None))
    out.append((_typed("minimal", "A", MINIMAL_MAX_RANK + 1), None))
    out.append((_typed("minimal", "E", 9), None))
    out.append((_typed("lattice", "D", 3), None))
    out.append((["tables", "--format", "yaml"], None))
    for window in ("wide", "1", "8:2"):
        out.append((_typed("simple", "A", 2), window))
        out.append((_typed("stalks", "A", 1, "--kind", "star"), window))
    out.append((_typed("minimal", "E", 8), "64"))
    out.append((_typed("stalks", "B", 3, "--flavor", "pplus", "--kind", "ic"), "-1:1"))
    return out


def run(argv: list[str], window: str | None) -> dict:
    """Run cli.main in process; exit code and sha256 of both streams."""
    saved = os.environ.pop(WINDOW_ENV, None)
    if window is not None:
        os.environ[WINDOW_ENV] = window
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code
    finally:
        os.environ.pop(WINDOW_ENV, None)
        if saved is not None:
            os.environ[WINDOW_ENV] = saved

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    return {"code": code, "stdout": digest(out.getvalue()),
            "stderr": digest(err.getvalue()), "text": (out.getvalue(), err.getvalue())}


def _record(argv: list[str], window: str | None) -> dict:
    got = run(argv, window)
    del got["text"]
    return {"argv": argv, "window": window, **got}


def test_cli_bytes_match_golden_corpus():
    frozen = json.loads(FIXTURE.read_text())
    assert [(r["argv"], r["window"]) for r in frozen] == corpus()
    for want in frozen:
        got = run(want["argv"], want["window"])
        text = got.pop("text")
        expected = {k: want[k] for k in ("code", "stdout", "stderr")}
        assert got == expected, (
            f"decnum {' '.join(want['argv'])} (window {want['window']!r}) changed:\n"
            f"exit {got['code']}\n--- stdout\n{text[0]}--- stderr\n{text[1]}"
        )


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    records = [_record(argv, window) for argv, window in corpus()]
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} requests to {FIXTURE}")
