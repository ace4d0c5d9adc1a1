"""Mutants of src/decnum, each run against the tests of its module.

Three operators, each applied to one site at a time in a copy of the
repository in a temporary directory:

* raise -> pass: a `raise` statement becomes `pass`;
* comparison flip: one operator of a comparison becomes its negation
  (< and >=, <= and >, == and !=, in and not in, is and is not);
* if-test: the test of an `if` or `elif` becomes True, and also False
  unless its body is a lone `raise` with no else, which raise -> pass
  already covers.

A mutant of src/decnum/<module>.py runs the test files MODULE_TESTS
names for that module, the whole-program tests in COMMON_TESTS and the
module's doctests, with -x under a per-mutant timeout and address-space
cap.  A mutant survives when that run passes: no test notices the
change.  A run that times out or crashes counts as killed.  The report
is JSON: {"killed": [...], "survived": [...]}, one object per site,
each killed one with its outcome ("failed" or "timeout").

Run from anywhere (a full run takes about 20 minutes on a 2-vCPU VM):

    python tests/mutants.py [--out report.json]

--help lists the options that narrow a run.  A kill-set comparison for
one test is two commands: a run of its module (--module), then a rerun
of that report's killed sites (--sites) with the test deselected
(--deselect).  Only a killed site can change when a test is left out,
and the comparison holds when every one of them is killed again.

Pytest does not collect this file, and it is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "decnum"
TIMEOUT = 40.0  # seconds one mutant's tests may run
MEMORY = 2 << 30  # bytes of address space one mutant's tests may map
SAMPLE_SIZE, SAMPLE_SEED = 30, 1  # the sites --sample draws

COMMON_TESTS = ("test_golden_cli.py", "test_acceptance.py", "test_cli.py")
MODULE_TESTS = {
    "cli": ("test_cli_properties.py",),
    "intmat": ("test_intmat.py", "test_values.py"),
    "modrep": ("test_modrep.py",),
    "omodule": ("test_omodule.py",),
    "perverse": ("test_perverse.py",),
    "rootsys": ("test_rootsys.py",),
    "tables": ("test_tables.py",),
}

# each comparison operator and its negation, both ways round
_PAIRS = ((ast.Lt, ast.GtE), (ast.LtE, ast.Gt), (ast.Eq, ast.NotEq),
          (ast.In, ast.NotIn), (ast.Is, ast.IsNot))
_FLIP = {a: b for pair in _PAIRS for a, b in (pair, pair[::-1])}


def sites(root: Path) -> list[dict]:
    """Every mutation site under root/src/decnum, in file and span order.

    A site carries the mutated node's span (1-based lines, 0-based UTF-8
    byte columns, as ast reports them), its code (the lines it spans,
    joined) and the source text that replaces it.
    """
    found = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                mutants = [(node, "raise -> pass", "pass")]
            elif isinstance(node, ast.Compare):
                mutants = []
                for i, op in enumerate(node.ops):
                    ops = list(node.ops)
                    ops[i] = _FLIP[type(op)]()
                    flipped = ast.Compare(node.left, ops, node.comparators)
                    mutants.append((node, "comparison flip", ast.unparse(flipped)))
            elif isinstance(node, ast.If):
                lone_raise = (not node.orelse and len(node.body) == 1
                              and isinstance(node.body[0], ast.Raise))
                values = ("True",) if lone_raise else ("True", "False")
                mutants = [(node.test, "if-test", value) for value in values]
            else:
                continue
            for target, operator, replacement in mutants:
                found.append({
                    "file": str(path.relative_to(root)),
                    "module": path.stem,
                    "line": target.lineno,
                    "operator": operator,
                    "span": (target.lineno, target.col_offset,
                             target.end_lineno, target.end_col_offset),
                    "replacement": replacement,
                    "code": " ".join(line.strip() for line in
                                     lines[target.lineno - 1:target.end_lineno]),
                })
    found.sort(key=lambda site: (site["file"], site["span"], site["replacement"]))
    return found


def mutate(text: str, span: tuple[int, int, int, int], replacement: str) -> str:
    """text with the node at span replaced by replacement."""
    lines = text.splitlines(keepends=True)
    first, col, last, end_col = span
    head = lines[first - 1].encode()[:col].decode()
    tail = lines[last - 1].encode()[end_col:].decode()
    mutated = "".join(lines[:first - 1] + [head + replacement + tail] + lines[last:])
    ast.parse(mutated)  # a harness fault, not a killed mutant, if this fails
    return mutated


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_tests(copy: Path, module: str, deselect: list[str] = ()) -> str:
    """'passed', 'failed' or 'timeout' for module's tests run in copy,
    each node id in deselect left out."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    tests = [f"tests/{name}" for name in MODULE_TESTS.get(module, ()) + COMMON_TESTS]
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *tests, "--doctest-modules", str(PACKAGE / f"{module}.py"),
               *(f"--deselect={node}" for node in deselect)]
    # a session of its own, so a timeout also ends the CLI processes a test started
    child = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True,
                             preexec_fn=_limit_memory)
    try:
        returncode = child.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"
    return "passed" if returncode == 0 else "failed"


def _key(site: dict) -> tuple:
    # a site's identity without its line, which edits elsewhere in its file move
    return site["file"], site["operator"], site["code"], site["replacement"]


def _select(todo: list[dict], args) -> list[dict]:
    if args.module:
        unknown = set(args.module) - {site["module"] for site in todo}
        if unknown:
            raise SystemExit(f"no module {', '.join(sorted(unknown))} in {PACKAGE}")
        todo = [site for site in todo if site["module"] in args.module]
    if args.sites is not None:
        wanted = {(*_key(site), site["line"])
                  for site in json.loads(args.sites.read_text())["killed"]}
        todo = [site for site in todo if (*_key(site), site["line"]) in wanted]
        if len(todo) != len(wanted):
            raise SystemExit(f"{args.sites}: {len(wanted) - len(todo)} sites are not in the source")
    if args.sample:
        todo = sorted(random.Random(SAMPLE_SEED).sample(todo, min(SAMPLE_SIZE, len(todo))),
                      key=lambda site: (site["file"], site["span"], site["replacement"]))
    return todo


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the report here (default: stdout)")
    parser.add_argument("--module", action="append", metavar="NAME",
                        help="only the sites of src/decnum/NAME.py (repeatable)")
    parser.add_argument("--deselect", action="append", default=[], metavar="NODEID",
                        help="passed through to pytest (repeatable)")
    parser.add_argument("--sites", type=Path, metavar="FILE",
                        help="only the killed sites of an earlier report")
    parser.add_argument("--sample", action="store_true",
                        help=f"only {SAMPLE_SIZE} sites drawn with seed {SAMPLE_SEED}")
    parser.add_argument("--known", type=Path, metavar="FILE",
                        help="exit 1 if a survivor is not in this JSON list, "
                             "a site listed n times covering at most n survivors")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="decnum-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        todo = _select(sites(copy), args)
        for module in sorted({site["module"] for site in todo}):
            if run_tests(copy, module, args.deselect) != "passed":
                print(f"the tests of {module} fail without any mutant; nothing to measure",
                      file=sys.stderr)
                return 1
        report = {"killed": [], "survived": []}
        start = time.monotonic()
        for k, site in enumerate(todo, 1):
            path = copy / site["file"]
            original = path.read_text()
            path.write_text(mutate(original, site["span"], site["replacement"]))
            try:
                outcome = run_tests(copy, site["module"], args.deselect)
            finally:
                path.write_text(original)
            print(f"[{k}/{len(todo)} {time.monotonic() - start:.0f}s] {outcome:7} "
                  f"{site['file']}:{site['line']} {site['code']} -> {site['replacement']}",
                  file=sys.stderr)
            entry = {key: site[key] for key in ("file", "line", "operator", "code", "replacement")}
            if outcome == "passed":
                report["survived"].append(entry)
            else:
                report["killed"].append(dict(entry, outcome=outcome))

    for operator, count in sorted(Counter(site["operator"] for site in todo).items()):
        left = sum(site["operator"] == operator for site in report["survived"])
        print(f"{operator}: {left} of {count} mutants survived", file=sys.stderr)
    timeouts = sum(site["outcome"] == "timeout" for site in report["killed"])
    print(f"killed {len(report['killed'])} of {len(todo)} ({timeouts} by timeout)",
          file=sys.stderr)
    text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    if args.known is not None:
        known = Counter(_key(site) for site in json.loads(args.known.read_text()))
        new = []
        for site in report["survived"]:
            if known[_key(site)]:
                known[_key(site)] -= 1
            else:
                new.append(site)
        for site in new:
            print(f"unexpected survivor: {site['file']}:{site['line']} {site['code']} -> "
                  f"{site['replacement']}", file=sys.stderr)
        return 1 if new else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
