"""Table generation: grids, rule strings, renderers, determinism."""

from __future__ import annotations

import json

from decnum import intmat, tables
from decnum.perverse import link_cohomology_simple
from decnum.rootsys import DynkinDiagram
from decnum.tables import (
    GRID_PRIMES,
    middle_group,
    minimal_grid,
    minimal_table,
    paper_tables,
    render_markdown,
    render_text,
    simple_grid,
    simple_table,
    subregular_grid,
    subregular_table,
    unicode_group,
)

import oracles


def test_grids():
    assert GRID_PRIMES == (2, 3, 5, 7)
    assert len(simple_grid()) == 20
    assert len(subregular_grid()) == 16
    assert len(minimal_grid()) == 36
    assert [str(d) for d in simple_grid()[:3]] == ["A1", "A2", "A3"]
    assert str(subregular_grid()[-1]) == "G2"


# the minimal grid as it was written out before minimal_grid() became the
# simple and subregular grids merged in (series, rank) order
EXPLICIT_MINIMAL_GRID = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10",
    "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "D4", "D5", "D6", "D7", "D8", "D9", "D10",
    "E6", "E7", "E8", "F4", "G2",
)


def _explicit_minimal_rule(d):
    # the minimal rule as it was tabulated before it read the simple rule
    # for simply-laced types
    if d.series == "A":
        return (1, d.rank + 1)
    if d.series == "B":
        return (1, d.rank)
    if d.series == "C":
        return (1, 2)
    if d.series == "D":
        return (2, 2) if d.rank % 2 == 0 else (1, 2)
    return {("E", 6): (1, 3), ("E", 7): (1, 2), ("E", 8): (1, 1),
            ("F", 4): (1, 3), ("G", 2): (1, 2)}[(d.series, d.rank)]


def test_derived_minimal_tables_match_the_explicit_ones():
    assert tuple(map(str, minimal_grid())) == EXPLICIT_MINIMAL_GRID
    types = set(minimal_grid())
    types.update(DynkinDiagram(s, n) for s in "BC" for n in range(2, 41))
    for d in types:
        assert tables._minimal_rule(d) == _explicit_minimal_rule(d), d


def test_middle_torsion_is_the_mckay_abelianisation():
    """H^2 of the link S^3/Gamma is Gamma^ab, computed from the binary
    polyhedral presentation, never from a Cartan matrix."""
    types = ([DynkinDiagram("A", n) for n in range(1, 61)]
             + [DynkinDiagram("D", n) for n in range(4, 61)]
             + [DynkinDiagram("E", n) for n in (6, 7, 8)])
    for d in types:
        group = middle_group(link_cohomology_simple(d))
        assert group.divisors == oracles.mckay_abelianisation(d.series, d.rank), d


def test_unicode_group():
    assert unicode_group("Z/2 x Z/4") == "ℤ/2 × ℤ/4"
    assert unicode_group("0") == "0"


def test_simple_table_rows():
    rows = {r["singularity"]: r for r in simple_table()}
    assert len(rows) == 20
    a1 = rows["A_1"]
    assert a1["fundamental_group"] == "Z/2"
    assert a1["rule"] == "1 if ℓ=2"
    assert a1["values"] == {"2": 1, "3": 0, "5": 0, "7": 0}
    assert rows["A_5"]["rule"] == "1 if ℓ divides 6"
    assert rows["A_5"]["values"] == {"2": 1, "3": 1, "5": 0, "7": 0}
    assert rows["D_4"]["rule"] == "2 if ℓ=2"
    assert rows["D_4"]["values"]["2"] == 2
    assert rows["D_5"]["rule"] == "1 if ℓ=2"
    assert rows["E_8"]["rule"] == "0"
    assert set(rows["E_8"]["values"].values()) == {0}


def test_subregular_table_rows():
    rows = subregular_table()
    assert len(rows) == 16 * len(GRID_PRIMES)
    by_key = {(r["singularity"], r["ell"]): r for r in rows}
    g2 = by_key[("G_2", 2)]
    assert g2["unfolding"] == "D_4" and g2["symmetry"] == "S3"
    assert g2["fundamental_group"] == "Z/2 x Z/2"
    assert g2["plain"] == 2 and g2["characters"] == {"1": 0, "psi": 1}
    f4 = by_key[("F_4", 3)]
    assert f4["plain"] == 1 and f4["characters"] == {"1": 0, "eps": 1}
    b4 = by_key[("B_4", 2)]
    assert b4["unfolding"] == "A_7"
    assert b4["plain"] == 1 and b4["characters"] == {"1": 1}
    c3 = by_key[("C_3", 2)]
    assert c3["plain"] == 2 and c3["characters"] == {"1": 2}
    # weighted character sums always reproduce the plain number
    for r in rows:
        total = sum(
            (2 if k == "psi" else 1) * v for k, v in r["characters"].items()
        )
        assert total == r["plain"], r


def test_minimal_table_rows():
    rows = {r["singularity"]: r for r in minimal_table()}
    assert len(rows) == 36
    g2 = rows["g_2"]
    assert g2["long_subsystem"] == "A_1"
    assert g2["dual_fundamental_group"] == "Z/2"
    assert g2["rule"] == "1 if ℓ=2"
    assert g2["values"] == {"2": 1, "3": 0, "5": 0, "7": 0}
    assert g2["open_dim"] == 6
    b6 = rows["b_6"]
    assert b6["rule"] == "1 if ℓ divides 6"
    assert b6["values"] == {"2": 1, "3": 1, "5": 0, "7": 0}
    assert rows["c_5"]["rule"] == "1 if ℓ=2"
    assert rows["a_3"]["rule"] == "1 if ℓ divides 4"
    assert rows["a_3"]["values"] == {"2": 1, "3": 0, "5": 0, "7": 0}
    assert rows["d_8"]["rule"] == "2 if ℓ=2"
    assert rows["f_4"]["rule"] == "1 if ℓ=3"
    assert rows["e_8"]["rule"] == "0"
    assert rows["e_8"]["open_dim"] == 58


def test_markdown_render():
    text = render_markdown(paper_tables())
    assert "# Decomposition tables" in text
    assert "## Simple singularities" in text
    assert "## Subregular classes" in text
    assert "## Minimal nilpotent cones" in text
    assert "| g_2 | A_1 | ℤ/2 | 1 if ℓ=2 | 1 | 0 | 0 | 0 |" in text
    assert "| e_8 | E_8 | 0 | 0 | 0 | 0 | 0 | 0 |" in text
    assert "| ℓ=2 | ℓ=3 | ℓ=5 | ℓ=7 |" in text
    assert "| ε | ψ |" in text  # per-character columns of the subregular table
    g2_rows = [ln for ln in text.splitlines() if ln.startswith("| G_2 ")]
    assert len(g2_rows) == 4
    assert g2_rows[0].split("|")[3].strip() == "S3"


def test_text_render():
    text = render_text(paper_tables())
    assert "simple singularities" in text
    assert "subregular classes" in text
    assert "minimal nilpotent cones" in text
    assert "g_2" in text and "[1 if ℓ=2]" in text


def test_tables_are_deterministic():
    first = paper_tables()
    second = paper_tables()
    assert first == second
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert render_markdown(first) == render_markdown(second)
    assert render_text(first) == render_text(second)


def test_paper_tables_reduce_each_cone_once(monkeypatch):
    # one Smith form per cone; a subregular cone's link torsion is the
    # group of its symmetry action, so the unfolding is reduced only once
    calls = []
    reduce = intmat.cokernel

    def counted(m):
        calls.append(len(m))
        return reduce(m)

    monkeypatch.setattr(intmat, "cokernel", counted)
    paper_tables()
    assert len(calls) == len(simple_grid()) + len(subregular_grid()) + len(minimal_grid())
    assert len(calls) == 72
