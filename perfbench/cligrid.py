"""The grid-cli requests: argv generation, expected answers, output parsing.

Every request is a `decnum` command line.  `expect` says what a correct
run returns (exit code and, for exit 0, the answer the oracle derives);
`parse` reads the answer back out of any of the three output formats,
so that text, JSON and markdown are all checked against the same values.
"""

from __future__ import annotations

import json
import re
from math import prod

import oracle
from oracle import PRIMES

FORMATS = ("text", "json", "markdown")
KINDS = {"shriek": "!", "ic": "!*", "star": "*"}
PERVERSITIES = {"p": "p", "pplus": "p+"}

# documented usage errors: each must exit 2 with nothing on stdout
USAGE_ERRORS = (
    ("simple", "--type", "B", "--rank", "3"),
    ("lattice", "--type", "D", "--rank", "3"),
    ("minimal", "--type", "E", "--rank", "9"),
    ("simple", "--type", "A", "--rank", "3", "--ell", "4"),
    ("stalks", "--type", "A", "--rank", "2", "--coeff", "F"),
    ("stalks", "--type", "D", "--rank", "5", "--coeff", "F", "--ell", "3",
     "--flavor", "pplus"),
    ("tables", "--format", "yaml"),
)

# requests per subcommand in one pass.  tables, the costliest request,
# runs once in each format: 3 of 60, so the p90 tail always reads the
# slowest ordinary requests at the same distance below the tables ones
PASS_SHAPE = {"lattice": 11, "simple": 11, "subregular": 9, "minimal": 11,
              "stalks": 12, "usage": 3}


def _format_flags(rng) -> list[str]:
    fmt = rng.choice(FORMATS)
    if fmt == "text" and rng.random() < 0.5:
        return []
    return ["--format", fmt]


def _typed(cmd: str, series: str, rank: int) -> list[str]:
    return [cmd, "--type", series, "--rank", str(rank)]


def _ell_flags(rng) -> list[str]:
    ell = rng.choice((None,) + PRIMES)
    return [] if ell is None else ["--ell", str(ell)]


def make_pass(rng) -> list[tuple[str, ...]]:
    """One pass of requests, shuffled; the seeded rng picks types and flags."""
    argvs = []
    for series, rank in rng.sample(oracle.MINIMAL_GRID, PASS_SHAPE["lattice"]):
        argvs.append(_typed("lattice", series, rank)
                     + (["--dual"] if rng.random() < 0.5 else []) + _format_flags(rng))
    for cmd, grid in (("simple", oracle.SIMPLE_GRID),
                      ("subregular", oracle.SUBREGULAR_GRID),
                      ("minimal", oracle.MINIMAL_GRID)):
        for series, rank in rng.sample(grid, PASS_SHAPE[cmd]):
            argvs.append(_typed(cmd, series, rank) + _ell_flags(rng) + _format_flags(rng))
    for series, rank in rng.sample(oracle.MINIMAL_GRID, PASS_SHAPE["stalks"]):
        coeff = rng.choice(("K", "O", "F"))
        flags = ["--coeff", coeff, "--kind", rng.choice(sorted(KINDS))]
        if coeff == "F":
            flags += ["--ell", str(rng.choice(PRIMES))]
        else:
            flags += ["--flavor", rng.choice(sorted(PERVERSITIES))]
        argvs.append(_typed("stalks", series, rank) + flags + _format_flags(rng))
    for fmt in FORMATS:
        argvs.append(["tables", "--format", fmt] + (["--paper"] if rng.random() < 0.5 else []))
    argvs += [list(a) for a in rng.sample(USAGE_ERRORS, PASS_SHAPE["usage"])]
    rng.shuffle(argvs)
    return [tuple(a) for a in argvs]


def _options(argv) -> dict[str, str | bool]:
    opts: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        if argv[i] in ("--dual", "--paper"):
            opts[argv[i][2:]] = True
            i += 1
        else:
            opts[argv[i][2:]] = argv[i + 1]
            i += 2
    return opts


# ---------------------------------------------------------- expectations

def _stalk_expect(series: str, rank: int, opts) -> dict:
    label = f"{'simple' if oracle.simply_laced(series) else 'subregular'} {series}{rank}"
    band = oracle.subregular_band(series, rank)
    coeff = opts.get("coeff", "O")
    perversity = PERVERSITIES[opts.get("flavor", "p")]
    kind = KINDS[opts.get("kind", "ic")]
    if coeff == "F":
        ell = int(opts["ell"])
        stalk = sorted(oracle.f_stalk(band, kind, ell).items())
        coeff = f"F_{ell}"
    else:
        integral = oracle.extension_stalk(band, perversity, kind)
        if coeff == "K":
            stalk = [(deg, r) for deg, (r, _) in integral.items() if r]
        else:
            stalk = [(deg, [r, list(t)]) for deg, (r, t) in integral.items()]
    return {"label": label, "flavor": f"{perversity},{kind}", "coeff": coeff,
            "stalk": [list(x) for x in stalk]}


def _tables_expect() -> dict:
    def sub(series, rank):
        return f"{series}_{rank}"

    simple = [[sub(s, n), oracle.group_text(oracle.fundamental_group(s, n)),
               [oracle.count_divisible(oracle.fundamental_group(s, n), ell)
                for ell in PRIMES]] for s, n in oracle.SIMPLE_GRID]
    subregular = []
    for s, n in oracle.SUBREGULAR_GRID:
        for ell in PRIMES:
            plain, chars = oracle.subregular_characters(s, n, ell)
            subregular.append([sub(s, n), ell, plain, chars])
    minimal = []
    for s, n in oracle.MINIMAL_GRID:
        m = oracle.minimal_answer(s, n)
        long_s, long_n = oracle.long_subsystem(s, n)
        minimal.append([sub(s, n).lower(), sub(long_s, long_n), m["group"],
                        [m["numbers"][ell] for ell in PRIMES]])
    return {"simple": simple, "subregular": subregular, "minimal": minimal}


def expect(argv) -> tuple[int, dict | None]:
    """(exit code, expected answer) for a request; the answer is None for exit 2."""
    if tuple(argv) in USAGE_ERRORS:
        return 2, None
    cmd, opts = argv[0], _options(argv)
    if cmd == "tables":
        return 0, _tables_expect()
    series, rank = opts["type"], int(opts["rank"])
    ells = [int(opts["ell"])] if "ell" in opts else list(PRIMES)
    divisors = oracle.fundamental_group(series, rank)
    if cmd == "lattice":
        which = "coweights mod coroots" if opts.get("dual") else "weights mod roots"
        return 0, {"diagram": f"{series}{rank}", "which": which,
                   "group": oracle.group_text(divisors), "divisors": list(divisors)}
    if cmd == "simple":
        return 0, {"label": f"simple {series}{rank}", "group": oracle.group_text(divisors),
                   "numbers": {str(e): oracle.count_divisible(divisors, e) for e in ells}}
    if cmd == "subregular":
        hs, hn, kind = oracle.unfolding(series, rank)
        reports = []
        for ell in ells:
            plain, chars = oracle.subregular_characters(series, rank, ell)
            reports.append([ell, plain, chars])
        return 0, {"label": f"subregular {series}{rank}", "unfolding": f"{hs}{hn}",
                   "symmetry": kind,
                   "group": oracle.group_text(oracle.fundamental_group(hs, hn)),
                   "reports": reports}
    if cmd == "minimal":
        m = oracle.minimal_answer(series, rank)
        return 0, {"label": m["label"], "long": m["long"], "group": m["group"],
                   "open_dim": m["open_dim"],
                   "numbers": {str(e): m["numbers"][e] for e in ells}}
    return 0, _stalk_expect(series, rank, opts)


# --------------------------------------------------------------- parsing

def _plain_group(text: str) -> str:
    return text.replace("ℤ", "Z").replace(" × ", " x ")


def _numbers(lines) -> dict[str, int]:
    out = {}
    for line in lines:
        m = re.fullmatch(r"  ell=(\d+): (\d+)", line)
        if not m:
            raise ValueError(f"unexpected line {line!r}")
        out[m[1]] = int(m[2])
    return out


def _module(text: str) -> list:
    rank, torsion = 0, []
    if text != "0":
        for part in text.split(" + "):
            if part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                rank = 1 if part == "O" else int(part[2:])
    return [rank, torsion]


def _parse_text(cmd: str, lines: list[str]) -> dict:
    head = lines[0]
    if cmd == "lattice":
        m = re.fullmatch(r"(\S+): (.+) = (.+)", head)
        return {"diagram": m[1], "which": m[2], "group": m[3],
                "divisors": json.loads(lines[1].removeprefix("invariant factors: "))}
    if cmd == "simple":
        m = re.fullmatch(r"(.+): fundamental group (.+)", head)
        return {"label": m[1], "group": m[2], "numbers": _numbers(lines[1:])}
    if cmd == "subregular":
        m = re.fullmatch(r"(.+): unfolds to (\S+) with symmetry (\S+)", head)
        reports = []
        for line in lines[2:]:
            r = re.fullmatch(r"  ell=(\d+): total (\d+)  \((.*)\)", line)
            chars = {k: int(v) for k, v in
                     (c.split(" -> ") for c in r[3].split(", "))}
            reports.append([int(r[1]), int(r[2]), chars])
        return {"label": m[1], "unfolding": m[2], "symmetry": m[3],
                "group": lines[1].removeprefix("fundamental group "), "reports": reports}
    if cmd == "minimal":
        m = re.fullmatch(r"(.+): long subsystem (\S+), dual fundamental group (.+), "
                         r"open dimension (\d+)", head)
        return {"label": m[1], "long": m[2], "group": m[3], "open_dim": int(m[4]),
                "numbers": _numbers(lines[1:])}
    m = re.fullmatch(r"(.+), flavor (\S+), coefficients (\S+)", head)
    coeff = m[3]
    stalk = []
    for line in lines[1:]:
        if line == "  0":
            continue
        r = re.fullmatch(r"  H\^(-?\d+) = (.+)", line)
        deg, body = int(r[1]), r[2]
        if coeff == "K":
            value = 1 if body == "K" else int(body.removeprefix("K^"))
        elif coeff == "O":
            value = _module(body)
        else:
            value = int(body.split("^")[1])
        stalk.append([deg, value])
    return {"label": m[1], "flavor": m[2], "coeff": coeff, "stalk": stalk}


def _parse_json(cmd: str, res: dict) -> dict:
    if cmd == "lattice":
        if res["free_rank"] != 0 or res["order"] != prod(res["divisors"]):
            raise ValueError("lattice order does not match its divisors")
        which = "coweights mod coroots" if res["dual"] else "weights mod roots"
        return {"diagram": res["diagram"], "which": which, "group": res["group"],
                "divisors": res["divisors"]}
    if cmd == "simple":
        return {"label": res["singularity"], "group": res["fundamental_group"],
                "numbers": res["decomposition_numbers"]}
    if cmd == "subregular":
        return {"label": res["singularity"], "unfolding": res["unfolding"],
                "symmetry": res["symmetry"], "group": res["fundamental_group"],
                "reports": [[r["ell"], r["plain"], r["characters"]] for r in res["reports"]]}
    if cmd == "minimal":
        return {"label": res["singularity"], "long": res["long_subsystem"],
                "group": res["dual_fundamental_group"], "open_dim": res["open_dim"],
                "numbers": res["decomposition_numbers"]}
    coeff = res["coefficients"]
    if coeff == "O":
        stalk = [[s["degree"], [s["rank"], s["torsion"]]] for s in res["stalk"]]
    else:
        stalk = [[s["degree"], s["dim"]] for s in res["stalk"]]
    return {"label": res["singularity"], "flavor": res["flavor"], "coeff": coeff,
            "stalk": stalk}


def _tables_json(res: dict) -> dict:
    simple = [[r["singularity"], r["fundamental_group"],
               [r["values"][str(e)] for e in PRIMES]] for r in res["simple"]]
    subregular = [[r["singularity"], r["ell"], r["plain"], r["characters"]]
                  for r in res["subregular"]]
    minimal = [[r["singularity"], r["long_subsystem"], r["dual_fundamental_group"],
                [r["values"][str(e)] for e in PRIMES]] for r in res["minimal"]]
    open_dims = [r["open_dim"] for r in res["minimal"]]
    want = [oracle.minimal_answer(s, n)["open_dim"] for s, n in oracle.MINIMAL_GRID]
    if open_dims != want:
        raise ValueError("minimal table open dimensions disagree with 2h - 2")
    return {"simple": simple, "subregular": subregular, "minimal": minimal}


def _tables_text(lines: list[str]) -> dict:
    out = {"simple": [], "subregular": [], "minimal": []}
    section = None
    for line in lines:
        if not line:
            continue
        if not line.startswith("  "):
            section = line.split()[0]
            continue
        if section == "simple":
            m = re.fullmatch(r"  (\S+)\s+(.+?)\s+(\d+)  (\d+)  (\d+)  (\d+)   \[.*\]", line)
            out["simple"].append([m[1], m[2], [int(m[i]) for i in range(3, 7)]])
        elif section == "subregular":
            m = re.fullmatch(r"  (\S+)\s+ell=(\d+)  total (\d+)  \((.*)\)", line)
            chars = {k: int(v) for k, v in (c.split(": ") for c in m[4].split(", "))}
            out["subregular"].append([m[1], int(m[2]), int(m[3]), chars])
        else:
            m = re.fullmatch(r"  (\S+)\s+(\S+)\s+(.+?)\s+(\d+)  (\d+)  (\d+)  (\d+)"
                             r"   \[.*\]", line)
            out["minimal"].append([m[1], m[2], m[3], [int(m[i]) for i in range(4, 8)]])
    return out


def _tables_markdown(lines: list[str]) -> dict:
    out = {"simple": [], "subregular": [], "minimal": []}
    section = None
    for line in lines:
        if line.startswith("## "):
            section = line.split()[1].lower()
            continue
        if not line.startswith("| ") or line.startswith("| singularity"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0] == "---":
            continue
        if section == "simple":
            out["simple"].append([cells[0], _plain_group(cells[1]),
                                  [int(c) for c in cells[3:7]]])
        elif section == "subregular":
            chars = {k: int(v) for k, v in zip(("1", "eps", "psi"), cells[6:9]) if v != "-"}
            out["subregular"].append([cells[0], int(cells[4]), int(cells[5]), chars])
        else:
            out["minimal"].append([cells[0], cells[1], _plain_group(cells[2]),
                                   [int(c) for c in cells[4:8]]])
    return out


def parse(argv, stdout: str) -> dict:
    """The answer a request's stdout carries, in the shape `expect` uses."""
    cmd = argv[0]
    fmt = _options(argv).get("format", "text")
    if fmt == "json":
        record = json.loads(stdout)
        if record["schema"] != 1 or record["command"] != cmd:
            raise ValueError("JSON record has the wrong schema or command")
        res = record["results"]
        return _tables_json(res) if cmd == "tables" else _parse_json(cmd, res)
    lines = stdout.rstrip("\n").split("\n")
    if cmd == "tables":
        return _tables_text(lines) if fmt == "text" else _tables_markdown(lines)
    if fmt == "markdown":
        if lines[:2] != [f"### decnum {cmd}", ""]:
            raise ValueError("markdown output lacks its heading")
        lines = [line.removeprefix("    ") for line in lines[2:]]
    return _parse_text(cmd, lines)
