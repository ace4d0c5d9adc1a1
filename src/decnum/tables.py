"""The three standard decomposition tables, and one builder per cone family.

Grid: types A1-A10, B2-B8, C2-C8, D4-D10, E6-E8, F4, G2 where the
respective table applies, primes ell in {2, 3, 5, 7}.  Every numeric
cell is computed (never hardcoded) by the perverse module.  The
builders simple_answer, subregular_answer and minimal_answer return a
cone with its numbers and assert each number against the family's
closed-form rule; the table loops and the CLI's simple, subregular and
minimal subcommands share them, so an answer off the grid gets the same
check as a table cell.  The "rule" column carries that condition with
the rank-dependent part instantiated.
"""

from __future__ import annotations

from .intmat import FinAbGroup, is_prime
from .perverse import (
    ConeData,
    decomposition_number,
    equivariant_decomposition,
    link_cohomology_minimal,
    link_cohomology_simple,
    subregular_cone,
)
from .rootsys import DynkinDiagram, FoldingDatum, folding, long_root_subsystem

GRID_PRIMES = (2, 3, 5, 7)


def simple_grid() -> tuple[DynkinDiagram, ...]:
    return tuple(
        [DynkinDiagram("A", n) for n in range(1, 11)]
        + [DynkinDiagram("D", n) for n in range(4, 11)]
        + [DynkinDiagram("E", n) for n in (6, 7, 8)]
    )


def subregular_grid() -> tuple[DynkinDiagram, ...]:
    return tuple(
        [DynkinDiagram("B", n) for n in range(2, 9)]
        + [DynkinDiagram("C", n) for n in range(2, 9)]
        + [DynkinDiagram("F", 4), DynkinDiagram("G", 2)]
    )


def minimal_grid() -> tuple[DynkinDiagram, ...]:
    return tuple(sorted(simple_grid() + subregular_grid(),
                        key=lambda d: (d.series, d.rank)))


def _sub(d: DynkinDiagram) -> str:
    return f"{d.series}_{d.rank}"


def unicode_group(g) -> str:
    return str(g).replace("Z", "ℤ").replace(" x ", " × ")


def _divisibility_rule(count: int, modulus: int) -> str:
    if modulus == 1:
        return "0"
    if is_prime(modulus):
        return f"{count} if ℓ={modulus}"
    return f"{count} if ℓ divides {modulus}"


def _simple_rule(d: DynkinDiagram) -> tuple[int, int]:
    """(count, modulus): the cell is count when ell divides modulus, else 0."""
    if d.series == "A":
        return (1, d.rank + 1)
    if d.series == "D":
        return (2, 2) if d.rank % 2 == 0 else (1, 2)
    return {6: (1, 3), 7: (1, 2), 8: (1, 1)}[d.rank]


def _minimal_rule(d: DynkinDiagram) -> tuple[int, int]:
    """(count, modulus) of the minimal cone: the simple rule when d is
    simply laced (its long roots are all of its roots)."""
    if d.simply_laced:
        return _simple_rule(d)
    return {"B": (1, d.rank), "C": (1, 2), "F": (1, 3), "G": (1, 2)}[d.series]


def _check(cone: ConeData, rule: tuple[int, int], ell: int, got: int) -> int:
    count, modulus = rule
    if got != (count if modulus % ell == 0 else 0):
        raise AssertionError(
            f"{cone.label}: rule [{_divisibility_rule(*rule)}] broken at ell={ell}"
        )
    return got


def middle_group(cone: ConeData) -> FinAbGroup:
    """The middle link torsion, whose ell-divisible invariant factors the
    decomposition number counts: P/Q of a simple or subregular cone, the
    dual P/Q of the long-root subsystem of a minimal one."""
    return FinAbGroup(cone.entry_or_none(cone.open_dim).torsion)


def simple_answer(d: DynkinDiagram, ells) -> tuple[ConeData, dict[str, int]]:
    """The simple cone of d and its decomposition number at each ell,
    each checked against the closed-form rule."""
    cone = link_cohomology_simple(d)
    rule = _simple_rule(d)
    return cone, {str(ell): _check(cone, rule, ell, decomposition_number(cone, ell))
                  for ell in ells}


def subregular_answer(d: DynkinDiagram, ells) -> tuple[ConeData, FoldingDatum, list]:
    """The folded cone of d, its folding and one equivariant report per
    ell, each plain number checked against the rule of the unfolding."""
    f = folding(d)
    cone = subregular_cone(d, f)
    rule = _simple_rule(f.gamma_hat)
    reports = [equivariant_decomposition(cone, f.symmetry, ell) for ell in ells]
    for report in reports:
        _check(cone, rule, report.ell, report.plain)
    return cone, f, reports


def minimal_answer(d: DynkinDiagram, ells) -> tuple[ConeData, DynkinDiagram, dict]:
    """The minimal cone of d, its long-root subsystem and its
    decomposition number at each ell, each checked against the rule."""
    cone = link_cohomology_minimal(d)
    rule = _minimal_rule(d)
    numbers = {str(ell): _check(cone, rule, ell, decomposition_number(cone, ell))
               for ell in ells}
    return cone, long_root_subsystem(d), numbers


def simple_table() -> list[dict]:
    rows = []
    for d in simple_grid():
        cone, values = simple_answer(d, GRID_PRIMES)
        rows.append(
            {
                "singularity": _sub(d),
                "fundamental_group": str(middle_group(cone)),
                "rule": _divisibility_rule(*_simple_rule(d)),
                "values": values,
            }
        )
    return rows


def subregular_table() -> list[dict]:
    rows = []
    for d in subregular_grid():
        cone, f, reports = subregular_answer(d, GRID_PRIMES)
        for report in reports:
            rows.append(
                {
                    "singularity": _sub(d),
                    "unfolding": _sub(f.gamma_hat),
                    "symmetry": f.symmetry,
                    "fundamental_group": str(middle_group(cone)),
                    "ell": report.ell,
                    "plain": report.plain,
                    "characters": dict(report.per_character),
                }
            )
    return rows


def minimal_table() -> list[dict]:
    rows = []
    for d in minimal_grid():
        cone, sub, values = minimal_answer(d, GRID_PRIMES)
        rows.append(
            {
                "singularity": _sub(d).lower(),
                "long_subsystem": _sub(sub),
                "dual_fundamental_group": str(middle_group(cone)),
                "open_dim": cone.open_dim,
                "rule": _divisibility_rule(*_minimal_rule(d)),
                "values": values,
            }
        )
    return rows


def paper_tables() -> dict:
    return {
        "simple": simple_table(),
        "subregular": subregular_table(),
        "minimal": minimal_table(),
    }


def _md(rows: list[list[str]]) -> list[str]:
    out = [f"| {' | '.join(rows[0])} |", f"|{'|'.join(' --- ' for _ in rows[0])}|"]
    out.extend(f"| {' | '.join(r)} |" for r in rows[1:])
    return out


def render_markdown(tables: dict) -> str:
    prime_headers = [f"ℓ={p}" for p in GRID_PRIMES]
    lines = ["# Decomposition tables", ""]

    lines += ["## Simple singularities", ""]
    grid = [["singularity", "fundamental group", "rule"] + prime_headers]
    for r in tables["simple"]:
        grid.append(
            [r["singularity"], unicode_group(r["fundamental_group"]), r["rule"]]
            + [str(r["values"][str(p)]) for p in GRID_PRIMES]
        )
    lines += _md(grid) + [""]

    lines += ["## Subregular classes", ""]
    grid = [
        ["singularity", "unfolds to", "symmetry", "fundamental group",
         "ℓ", "total", "1", "ε", "ψ"]
    ]
    for r in tables["subregular"]:
        chars = r["characters"]
        grid.append(
            [r["singularity"], r["unfolding"], r["symmetry"],
             unicode_group(r["fundamental_group"]), str(r["ell"]), str(r["plain"])]
            + [str(chars.get(label, "-")) for label in ("1", "eps", "psi")]
        )
    lines += _md(grid) + [""]

    lines += ["## Minimal nilpotent cones", ""]
    grid = [["singularity", "long subsystem", "dual fundamental group", "rule"]
            + prime_headers]
    for r in tables["minimal"]:
        grid.append(
            [r["singularity"], r["long_subsystem"],
             unicode_group(r["dual_fundamental_group"]), r["rule"]]
            + [str(r["values"][str(p)]) for p in GRID_PRIMES]
        )
    lines += _md(grid) + [""]
    return "\n".join(lines)


def render_text(tables: dict) -> str:
    lines = []
    lines.append("simple singularities (columns: ell = %s)" % ", ".join(map(str, GRID_PRIMES)))
    for r in tables["simple"]:
        vals = "  ".join(str(r["values"][str(p)]) for p in GRID_PRIMES)
        lines.append(
            f"  {r['singularity']:<5} {r['fundamental_group']:<12} {vals}   [{r['rule']}]"
        )
    lines.append("")
    lines.append("subregular classes")
    for r in tables["subregular"]:
        chars = ", ".join(f"{k}: {v}" for k, v in sorted(r["characters"].items()))
        lines.append(
            f"  {r['singularity']:<5} ell={r['ell']}  total {r['plain']}  ({chars})"
        )
    lines.append("")
    lines.append("minimal nilpotent cones (columns: ell = %s)" % ", ".join(map(str, GRID_PRIMES)))
    for r in tables["minimal"]:
        vals = "  ".join(str(r["values"][str(p)]) for p in GRID_PRIMES)
        lines.append(
            f"  {r['singularity']:<5} {r['long_subsystem']:<4} "
            f"{r['dual_fundamental_group']:<12} {vals}   [{r['rule']}]"
        )
    lines.append("")
    return "\n".join(lines)
