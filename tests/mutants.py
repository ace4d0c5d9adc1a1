"""Raise-to-pass mutants of src/decnum, each run against the test suite.

For every `raise` statement in src/decnum, a copy of the repository in a
temporary directory gets that one statement replaced by `pass`, and the
suite (tier-1 plus the doctests of src/decnum) runs on the copy with -x
under a per-mutant timeout.  A mutant survives when that run passes: no
test notices the refusal or check is gone.  A run that times out counts
as killed.  The survivors are written as JSON, one object per site.

Run from anywhere (866 s, about 15 minutes, on a 2-vCPU machine):

    python tests/mutants.py [--out survivors.json]

Pytest does not collect this file, and it is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "decnum"
TIMEOUT = 300.0  # seconds one mutant's suite may run


def raise_sites(root: Path) -> list[dict]:
    """Every raise statement under root/src/decnum, in file and line order."""
    sites = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                sites.append({
                    "file": str(path.relative_to(root)),
                    "line": node.lineno,
                    "span": (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset),
                    "code": lines[node.lineno - 1].strip(),
                })
    sites.sort(key=lambda site: (site["file"], site["span"]))
    return sites


def mutate(text: str, span: tuple[int, int, int, int]) -> str:
    """text with the statement at span (1-based lines, 0-based columns) made `pass`."""
    lines = text.splitlines(keepends=True)
    first, col, last, end_col = span
    head = lines[first - 1][:col]
    tail = lines[last - 1][end_col:]
    return "".join(lines[:first - 1] + [head + "pass" + tail] + lines[last:])


def run_suite(copy: Path) -> str:
    """'passed', 'failed' or 'timeout' for the suite run in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "tests", "--doctest-modules", str(PACKAGE)]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the survivors here (default: stdout)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="decnum-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        if run_suite(copy) != "passed":
            print("the suite fails without any mutant; nothing to measure", file=sys.stderr)
            return 1
        sites = raise_sites(copy)
        survivors = []
        start = time.monotonic()
        for k, site in enumerate(sites, 1):
            path = copy / site["file"]
            original = path.read_text()
            path.write_text(mutate(original, site["span"]))
            try:
                outcome = run_suite(copy)
            finally:
                path.write_text(original)
            print(f"[{k}/{len(sites)} {time.monotonic() - start:.0f}s] {outcome:7} "
                  f"{site['file']}:{site['line']} {site['code']}", file=sys.stderr)
            if outcome == "passed":
                survivors.append({key: site[key] for key in ("file", "line", "code")})

    print(f"{len(survivors)} of {len(sites)} mutants survived", file=sys.stderr)
    report = json.dumps(survivors, indent=2, ensure_ascii=False) + "\n"
    if args.out is None:
        sys.stdout.write(report)
    else:
        args.out.write_text(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
