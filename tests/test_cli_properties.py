"""Property test: every typed request is answered or refused, never crashed.

Random argv for the typed subcommands, under random DECNUM_DEGREE_WINDOW
values, must exit 0 (answer), 1 (refusal) or 2 (usage error) with no
exception escaping `main`, print nothing to stdout unless answering, and
print one JSON object when answering with --format json.  Ranks are drawn
at most 12 or above the command's ceiling, so every request is fast.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from decnum.cli import RANK_CEILINGS, main  # noqa: E402

WINDOW_ENV = "DECNUM_DEGREE_WINDOW"

# admissible diagrams of rank at most 12, drawn as often as arbitrary pairs
DIAGRAMS = (
    [("A", n) for n in range(1, 13)] + [(s, n) for s in "BC" for n in range(2, 13)]
    + [("D", n) for n in range(4, 13)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

WINDOWS = st.one_of(
    st.none(),
    st.integers(-3, 40).map(str),
    st.tuples(st.integers(-40, 5), st.integers(-5, 40)).map("{0[0]}:{0[1]}".format),
    st.sampled_from(["wide", "", "1:", ":", "2:1", " 8 "]),
)

ELLS = st.one_of(
    st.sampled_from(["2", "3", "5", "7", "11", "13", "101"]),
    st.integers(-2, 60).map(str),
    st.sampled_from(["x", "1e3", "18446744073709551629"]),
)


@st.composite
def typed_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(RANK_CEILINGS)))
    ceiling = RANK_CEILINGS[command]
    series, rank = draw(st.sampled_from(DIAGRAMS) | st.tuples(
        st.sampled_from("ABCDEFG"), st.integers(-1, 12) | st.integers(ceiling + 1, 10**6)))
    argv = [command, "--type", series, "--rank", str(rank)]
    if command == "lattice" and draw(st.booleans()):
        argv.append("--dual")
    if command == "stalks":
        argv += ["--flavor", draw(st.sampled_from(["p", "pplus"])),
                 "--kind", draw(st.sampled_from(["shriek", "ic", "star"])),
                 "--coeff", draw(st.sampled_from("KOF"))]
    if command != "lattice" and draw(st.booleans()):
        argv += ["--ell", draw(ELLS)]
    return argv + ["--format", draw(st.sampled_from(["text", "json", "markdown"]))]


@contextmanager
def degree_window_env(value: str | None):
    saved = os.environ.pop(WINDOW_ENV, None)
    if value is not None:
        os.environ[WINDOW_ENV] = value
    try:
        yield
    finally:
        os.environ.pop(WINDOW_ENV, None)
        if saved is not None:
            os.environ[WINDOW_ENV] = saved


@settings(max_examples=100, deadline=None, database=None)
@given(argv=typed_argv(), window=WINDOWS)
def test_typed_requests_exit_with_a_documented_code(argv, window):
    out, err = io.StringIO(), io.StringIO()
    with degree_window_env(window), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    stdout, last = out.getvalue(), err.getvalue().rstrip("\n").rpartition("\n")[2]
    assert code in (0, 1, 2), (argv, window, code)
    if code == 0:
        assert err.getvalue() == ""
        if argv[-1] == "json":
            record = json.loads(stdout)
            assert record["command"] == argv[0] and "results" in record
    else:
        assert stdout == ""
        pattern = r"decnum: refused: " if code == 1 else rf"decnum( {argv[0]})?: error: "
        assert re.match(pattern, last), (argv, window, last)
