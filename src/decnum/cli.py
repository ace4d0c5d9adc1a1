"""Command line interface.

    decnum <subcommand> --type <A..G> --rank <n> [options]

Subcommands: lattice, simple, subregular, minimal, stalks, tables.
Formats: text (default), json, markdown.  JSON output is a single
object {"schema": 1, "command": ..., "inputs": ..., "results": ...}
that parses back to the emitted record byte for byte.

Exit codes: 0 success, 1 computation refusal (a request the stored
data cannot answer, e.g. a truncation outside a known window), 2 usage
errors (bad flags, --ell not a prime below 2**64, inadmissible
type/rank, a rank above the command's ceiling in RANK_CEILINGS).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import tables
from .intmat import PRIME_BOUND, is_prime
from .omodule import DegreeWindowError, degree_window
from .perverse import (
    ConeError,
    ExtensionFlavor,
    extension_stalk,
    f_extension_stalk,
    link_cohomology_simple,
    subregular_cone,
)
from .rootsys import DynkinDiagram, fundamental_group

# largest rank each typed command accepts, checked before any matrix is
# built.  README's ceiling table gives the cold time and peak RSS of the
# slowest series at each ceiling
MINIMAL_MAX_RANK = 1200
RANK_CEILINGS = {
    "lattice": 2000,
    "simple": 2400,
    "subregular": 800,
    "minimal": MINIMAL_MAX_RANK,
    "stalks": 800,
}

# a usage error names a longer argument by its length instead of quoting it
_QUOTE_MAX = 20

_KINDS = {"shriek": "!", "ic": "!*", "star": "*"}
_PERVERSITIES = {"p": "p", "pplus": "p+"}


def _integer(text: str, invalid: str, too_long: str) -> int:
    """int(text), or ArgumentTypeError with a message of bounded length.

    An integer of more than _QUOTE_MAX digits (Python parses at most
    4300) is refused as `too_long`, naming its digit count; any other
    non-integer is refused as `invalid`, formatted with the quoted text
    or, when that is long, its length.
    """
    body = text.strip()
    if body[:1] in ("+", "-"):
        body = body[1:]
    if len(body) > _QUOTE_MAX and body.isdigit():
        raise argparse.ArgumentTypeError(f"{too_long}, got a {len(body)}-digit integer")
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= _QUOTE_MAX else f"a {len(text)}-character argument"
        raise argparse.ArgumentTypeError(invalid.format(shown)) from None


def _prime(text: str) -> int:
    value = _integer(text, "{} is not an integer", "must be a prime below 2**64")
    if value >= PRIME_BOUND:
        raise argparse.ArgumentTypeError(
            f"must be a prime below 2**64, got a {value.bit_length()}-bit integer"
        )
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _add_type_rank(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--type", required=True, choices=list("ABCDEFG"),
                     help="Dynkin series letter")
    sub.add_argument(
        "--rank", required=True, help="number of nodes",
        type=partial(_integer, invalid="invalid int value: {}",
                     too_long=f"rank out of range (at most {RANK_CEILINGS[command]})"),
    )


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", default="text",
                     choices=["text", "json", "markdown"])


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="decnum",
        description="decomposition numbers from integral link data",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("lattice", help="fundamental group of a root lattice")
    _add_type_rank(p, "lattice")
    p.add_argument("--dual", action="store_true",
                   help="coweights mod coroots instead of weights mod roots")
    _add_format(p)

    p = commands.add_parser("simple", help="decomposition numbers, simple singularity")
    _add_type_rank(p, "simple")
    p.add_argument("--ell", type=_prime, help="residue characteristic")
    _add_format(p)

    p = commands.add_parser("subregular",
                            help="equivariant decomposition numbers, folded surface cone")
    _add_type_rank(p, "subregular")
    p.add_argument("--ell", type=_prime)
    _add_format(p)

    p = commands.add_parser("minimal",
                            help="decomposition numbers, minimal nilpotent cone")
    _add_type_rank(p, "minimal")
    p.add_argument("--ell", type=_prime)
    _add_format(p)

    p = commands.add_parser("stalks", help="extension stalk tables at the cone point")
    _add_type_rank(p, "stalks")
    p.add_argument("--flavor", default="p", choices=sorted(_PERVERSITIES))
    p.add_argument("--kind", default="ic", choices=sorted(_KINDS))
    p.add_argument("--coeff", default="O", choices=["K", "O", "F"])
    p.add_argument("--ell", type=_prime, help="required when --coeff F")
    _add_format(p)

    p = commands.add_parser("tables", help="the three decomposition tables")
    p.add_argument("--paper", action="store_true",
                   help="emit the full table set (also the default)")
    _add_format(p)

    return parser, parser.parse_args(argv)


def _diagram(parser, args) -> DynkinDiagram:
    try:
        d = DynkinDiagram(args.type, args.rank)
    except ValueError as e:
        parser.error(str(e))
    ceiling = RANK_CEILINGS[args.command]
    if d.rank > ceiling:
        parser.error(f"{args.command} accepts rank at most {ceiling}, not {d.rank}")
    return d


def _module_cells(m) -> dict:
    return {"rank": m.rank, "torsion": list(m.torsion)}


def _integral_module_text(m) -> str:
    parts = []
    if m.rank == 1:
        parts.append("O")
    elif m.rank > 1:
        parts.append(f"O^{m.rank}")
    parts.extend(f"Z/{t}" for t in m.torsion)
    return " + ".join(parts) if parts else "0"


def _run_lattice(parser, args) -> tuple[dict, list[str]]:
    d = _diagram(parser, args)
    group, projection = fundamental_group(d, dual=args.dual)
    results = {
        "diagram": str(d),
        "dual": bool(args.dual),
        "group": str(group),
        "divisors": list(group.divisors),
        "free_rank": group.free_rank,
        "order": None if group.free_rank else group.order(),
        "projection": [list(row) for row in projection],
    }
    which = "coweights mod coroots" if args.dual else "weights mod roots"
    text = [
        f"{d}: {which} = {group}",
        f"invariant factors: {list(group.divisors)}",
    ]
    return results, text


def _ells(args) -> list[int]:
    return [args.ell] if args.ell else list(tables.GRID_PRIMES)


def _run_simple(parser, args) -> tuple[dict, list[str]]:
    d = _diagram(parser, args)
    if not d.simply_laced:
        parser.error(
            f"simple requires a simply-laced type, not {d}; "
            "use 'decnum subregular' for folded types"
        )
    cone, numbers = tables.simple_answer(d, _ells(args))
    group = tables.middle_group(cone)
    results = {
        "singularity": cone.label,
        "fundamental_group": str(group),
        "link": [{"degree": deg, **_module_cells(e)}
                 for deg, e in sorted(cone.link_cohomology.items())],
        "decomposition_numbers": numbers,
    }
    text = [f"{cone.label}: fundamental group {group}"]
    text += [f"  ell={ell}: {n}" for ell, n in numbers.items()]
    return results, text


def _run_subregular(parser, args) -> tuple[dict, list[str]]:
    d = _diagram(parser, args)
    cone, f, reports = tables.subregular_answer(d, _ells(args))
    results = {
        "singularity": cone.label,
        "unfolding": str(f.gamma_hat),
        "symmetry": f.symmetry,
        "fundamental_group": str(tables.middle_group(cone)),
        "quotient_groups": list(f.quotient_groups),
        "reports": [
            {"ell": r.ell, "plain": r.plain, "characters": dict(r.per_character)}
            for r in reports
        ],
    }
    text = [
        f"{cone.label}: unfolds to {f.gamma_hat} with symmetry {f.symmetry}",
        f"fundamental group {results['fundamental_group']}",
    ]
    for r in reports:
        chars = ", ".join(f"{k} -> {v}" for k, v in sorted(r.per_character.items()))
        text.append(f"  ell={r.ell}: total {r.plain}  ({chars})")
    return results, text


def _run_minimal(parser, args) -> tuple[dict, list[str]]:
    d = _diagram(parser, args)
    cone, sub, numbers = tables.minimal_answer(d, _ells(args))
    group = tables.middle_group(cone)
    results = {
        "singularity": cone.label,
        "long_subsystem": str(sub),
        "dual_fundamental_group": str(group),
        "open_dim": cone.open_dim,
        "decomposition_numbers": numbers,
    }
    text = [
        f"{cone.label}: long subsystem {sub}, dual fundamental group {group}, "
        f"open dimension {cone.open_dim}"
    ]
    text += [f"  ell={ell}: {n}" for ell, n in numbers.items()]
    return results, text


def _run_stalks(parser, args) -> tuple[dict, list[str]]:
    d = _diagram(parser, args)
    if args.coeff == "F" and args.ell is None:
        parser.error("--coeff F requires --ell")
    if args.coeff == "F" and args.flavor != "p":
        parser.error("field coefficients define stalks for --flavor p only")
    flavor = ExtensionFlavor(_PERVERSITIES[args.flavor], _KINDS[args.kind])
    cone = subregular_cone(d) if not d.simply_laced else link_cohomology_simple(d)
    results: dict = {
        "singularity": cone.label,
        "flavor": flavor.label(),
        "coefficients": args.coeff if args.coeff != "F" else f"F_{args.ell}",
    }
    text = [f"{cone.label}, flavor {flavor.label()}, coefficients "
            + results["coefficients"]]
    # one (degree, JSON cells, text cell) row per nonzero degree
    if args.coeff == "F":
        rows = [(deg, {"dim": dim}, f"F_{args.ell}^{dim}")
                for deg, dim in f_extension_stalk(cone, flavor, args.ell).items()]
    elif args.coeff == "K":
        rows = [(deg, {"dim": m.rank}, "K" + (f"^{m.rank}" if m.rank > 1 else ""))
                for deg, m in extension_stalk(cone, flavor).items() if m.rank]
    else:
        rows = [(deg, _module_cells(m), _integral_module_text(m))
                for deg, m in extension_stalk(cone, flavor).items()]
    results["stalk"] = [{"degree": deg, **cells} for deg, cells, _ in rows]
    text += [f"  H^{deg} = {cell}" for deg, _, cell in rows] or ["  0"]
    return results, text


def _run_tables(parser, args) -> tuple[dict, list[str]]:
    data = tables.paper_tables()
    return data, tables.render_text(data).splitlines()


def _inputs_dict(args) -> dict:
    skip = {"command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser, args = _parse_args(argv)
    try:
        degree_window()
    except ValueError as e:
        print(f"decnum: error: {e}", file=sys.stderr)
        return 2
    handler = {
        "lattice": _run_lattice,
        "simple": _run_simple,
        "subregular": _run_subregular,
        "minimal": _run_minimal,
        "stalks": _run_stalks,
        "tables": _run_tables,
    }[args.command]
    try:
        results, text = handler(parser, args)
    except (ConeError, DegreeWindowError) as e:
        print(f"decnum: refused: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"decnum: error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json  # only here: a text or markdown request never loads it

        record = {
            "schema": 1,
            "command": args.command,
            "inputs": _inputs_dict(args),
            "results": results,
        }
        print(json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False))
    elif args.format == "markdown" and args.command == "tables":
        print(tables.render_markdown(results))
    elif args.format == "markdown":
        lines = [f"### decnum {args.command}", ""]
        lines += [f"    {line}" for line in text]
        print("\n".join(lines))
    else:
        print("\n".join(text))
    return 0


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early: stdout is written only on the
        # answer path, so end silently; devnull takes the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    run()
