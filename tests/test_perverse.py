"""Link data, the six extension stalks, and decomposition numbers."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

import oracles
from oracles import ALL_DIAGRAMS_RANK_LE_8
from decnum import omodule, perverse
from decnum.intmat import FinAbGroup
from decnum.modrep import EquivariantAbGroup
from decnum.omodule import DegreeWindowError, GradedOModule, OModule, degree_window
from decnum.perverse import (
    FLAVOR_CHAIN,
    ZERO_ENTRY,
    ConeData,
    ConeError,
    DecompositionReport,
    ExtensionFlavor,
    LinkEntry,
    decomposition_number,
    equivariant_decomposition,
    extension_stalk,
    f_extension_stalk,
    link_cohomology_minimal,
    link_cohomology_simple,
    localize_stalk,
    subregular_cone,
)
from decnum.rootsys import DynkinDiagram, FoldingDatum, folding


def D(name):
    return DynkinDiagram(name[0], int(name[1:]))


def test_link_entry_validation():
    assert LinkEntry(0, ()).is_zero()
    assert not LinkEntry(None, ()).is_zero()
    assert LinkEntry(1, [2, 4]).torsion == (2, 4)
    with pytest.raises(ValueError, match="torsion-free"):
        LinkEntry(None, (2,))
    with pytest.raises(ValueError, match="invalid rank"):
        LinkEntry(-1)
    with pytest.raises(ValueError, match="invalid invariant factor"):
        LinkEntry(0, (1,))
    with pytest.raises(ValueError, match="divisor chain"):
        LinkEntry(0, (2, 3))


def test_extension_flavor():
    f = ExtensionFlavor("p+", "!*")
    assert f.plus and f.shifted_threshold == -1 and f.label() == "p+,!*"
    assert ExtensionFlavor("p", "!").shifted_threshold == -2
    assert ExtensionFlavor("p", "*").shifted_threshold == 0
    assert not ExtensionFlavor("p", "*").plus
    with pytest.raises(ValueError, match="unknown perversity"):
        ExtensionFlavor("q", "!")
    with pytest.raises(ValueError, match="unknown extension kind"):
        ExtensionFlavor("p", "!!")
    assert [f.label() for f in FLAVOR_CHAIN] == [
        "p,!", "p+,!", "p,!*", "p+,!*", "p,*", "p+,*",
    ]


def test_cone_data_validation():
    with pytest.raises(ValueError, match="positive dimension"):
        ConeData("x", 0, {0: LinkEntry(1)})
    assert ConeData("x", 1, {0: LinkEntry(1)}).open_dim == 1
    with pytest.raises(ValueError, match="^bad link entry at '1'$"):
        ConeData("x", 2, {0: LinkEntry(1), "1": ZERO_ENTRY})
    with pytest.raises(ValueError, match="^bad link entry at 1$"):
        ConeData("x", 2, {0: LinkEntry(1), 1: (0, ())})
    with pytest.raises(ValueError, match="H\\^0 = O"):
        ConeData("x", 2, {})
    with pytest.raises(ValueError, match="H\\^0 = O"):
        ConeData("x", 2, {0: LinkEntry(2)})
    with pytest.raises(ValueError, match="degree 1 missing"):
        ConeData("x", 2, {0: ZERO_ENTRY, 2: ZERO_ENTRY}, completeness=(0, 2))
    with pytest.raises(ValueError, match="degree 5 outside window"):
        ConeData("x", 2, {5: ZERO_ENTRY}, completeness=(0, 1))
    with pytest.raises(ValueError, match="empty completeness window"):
        ConeData("x", 2, {}, completeness=(3, 1))
    with pytest.raises(ValueError, match="unknown degree 50"):
        ConeData(
            "x", 6, {5: ZERO_ENTRY, 6: ZERO_ENTRY}, completeness=(5, 6),
            equivariant_degrees={50: EquivariantAbGroup(FinAbGroup((2,)))},
        )
    with pytest.raises(ValueError, match="does not match link torsion"):
        ConeData(
            "x", 2, {0: LinkEntry(1), 2: LinkEntry(0, (2,))},
            equivariant_degrees={2: EquivariantAbGroup(FinAbGroup((3,)))},
        )
    for open_dim in (2.5, True):
        with pytest.raises(ValueError, match=f"^open_dim must be an int, got {open_dim}$"):
            ConeData("x", open_dim, {0: LinkEntry(1)})
    with pytest.raises(ValueError, match="^bad link entry at True$"):
        ConeData("x", 2, {0: LinkEntry(1), True: ZERO_ENTRY})
    for window in ("partial", (5,), None, (5.0, 7)):
        message = f"completeness must be 'full' or (lo, hi), got {window!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConeData("x", 6, {5: ZERO_ENTRY, 6: ZERO_ENTRY, 7: ZERO_ENTRY},
                     completeness=window)
    with pytest.raises(ValueError, match="^bad equivariant entry at 2$"):
        ConeData("x", 2, {0: LinkEntry(1), 2: LinkEntry(0, (2,))},
                 equivariant_degrees={2: 5})
    for label in (5, None, b"x"):
        with pytest.raises(ValueError, match=f"^label must be a str, got {label!r}$"):
            ConeData(label, 2, {0: LinkEntry(1)})


def test_cone_entry_lookup():
    c = ConeData("x", 6, {5: ZERO_ENTRY, 6: LinkEntry(0, (2,))}, completeness=(5, 6))
    assert c.entry_or_none(6) == LinkEntry(0, (2,))
    assert c.entry_or_none(7) is None
    assert c.known_degrees() == (5, 6)
    full = ConeData("y", 2, {0: LinkEntry(1)})
    assert full.entry_or_none(17) == ZERO_ENTRY
    assert full.known_degrees() == (0,)


def test_simple_link_frozen():
    c = link_cohomology_simple(D("A1"))
    assert c.open_dim == 2 and c.completeness == "full"
    assert c.link_cohomology == {
        0: LinkEntry(1),
        2: LinkEntry(0, (2,)),
        3: LinkEntry(1),
    }
    assert link_cohomology_simple(D("A3")).link_cohomology[2].torsion == (4,)
    assert link_cohomology_simple(D("D4")).link_cohomology[2].torsion == (2, 2)
    assert link_cohomology_simple(D("D5")).link_cohomology[2].torsion == (4,)
    assert link_cohomology_simple(D("E6")).link_cohomology[2].torsion == (3,)
    # trivial fundamental group: no H^2 entry at all
    assert sorted(link_cohomology_simple(D("E8")).link_cohomology) == [0, 3]


def test_simple_link_rejects_folded_types():
    with pytest.raises(ConeError, match="fold it first"):
        link_cohomology_simple(D("B3"))


def test_subregular_cone_checks_its_folding():
    with pytest.raises(ConeError, match="folding of G2 given for B3"):
        subregular_cone(D("B3"), folding(D("G2")))
    # a folding whose unfolding is not simply laced cannot be built
    with pytest.raises(ValueError, match="unfolding B3 is not simply laced"):
        FoldingDatum(D("B3"), D("B3"), "trivial")


def test_subregular_cone_of_a_simply_laced_type_is_its_simple_cone():
    for d in ALL_DIAGRAMS_RANK_LE_8:
        if not d.simply_laced:
            continue
        sub, simple = subregular_cone(d), link_cohomology_simple(d)
        assert sub.link_cohomology == simple.link_cohomology, d
        assert (sub.open_dim, sub.completeness) == (simple.open_dim, simple.completeness)
        assert sub.equivariant_degrees[2].kind == "trivial"
        assert (sub.label, simple.label) == (f"subregular {d}", f"simple {d}")


def test_subregular_cones():
    c = subregular_cone(D("G2"))
    assert c.label == "subregular G2"
    assert c.link_cohomology[2].torsion == (2, 2)
    assert c.equivariant_degrees[2].kind == "S3"
    c = subregular_cone(D("B3"))
    assert c.link_cohomology[2].torsion == (6,)
    assert c.equivariant_degrees[2].kind == "C2"
    c = subregular_cone(D("C2"))
    assert c.link_cohomology[2].torsion == (4,)
    c = subregular_cone(D("A5"))
    assert c.equivariant_degrees[2].kind == "trivial"
    assert c.link_cohomology[2].torsion == (6,)


MINIMAL_EXPECT = {
    # name: (open_dim, torsion of the middle degree)
    "A2": (4, (3,)),
    "A5": (10, (6,)),
    "B4": (12, (4,)),
    "C4": (8, (2,)),
    "D5": (14, (4,)),
    "D6": (18, (2, 2)),
    "E6": (22, (3,)),
    "E7": (34, (2,)),
    "E8": (58, ()),
    "F4": (16, (3,)),
    "G2": (6, (2,)),
}


def test_minimal_link_frozen():
    for name, (d, torsion) in MINIMAL_EXPECT.items():
        c = link_cohomology_minimal(D(name))
        assert c.open_dim == d, name
        assert c.completeness == (d - 1, d + 1)
        assert c.link_cohomology[d - 1] == ZERO_ENTRY
        assert c.link_cohomology[d] == LinkEntry(0, torsion)
        assert c.link_cohomology[d + 1] == LinkEntry(None, ())
    assert link_cohomology_minimal(D("F4")).label == "minimal f_4"
    assert link_cohomology_minimal(D("A2")).label == "minimal a_2"


def stalk_dict(c, flavor):
    return dict(extension_stalk(c, flavor).items())


def test_extension_stalks_simple_a1():
    c = link_cohomology_simple(D("A1"))
    o = OModule(1)
    t = OModule(0, (2,))
    assert stalk_dict(c, ExtensionFlavor("p", "!")) == {-2: o}
    assert stalk_dict(c, ExtensionFlavor("p+", "!")) == {-2: o}
    assert stalk_dict(c, ExtensionFlavor("p", "!*")) == {-2: o}
    assert stalk_dict(c, ExtensionFlavor("p+", "!*")) == {-2: o, 0: t}
    assert stalk_dict(c, ExtensionFlavor("p", "*")) == {-2: o, 0: t}
    assert stalk_dict(c, ExtensionFlavor("p+", "*")) == {-2: o, 0: t}


def test_extension_stalks_minimal_windowed():
    """All six flavors are answerable from the three known degrees."""
    c = link_cohomology_minimal(D("G2"))
    t = OModule(0, (2,))
    assert stalk_dict(c, ExtensionFlavor("p", "!")) == {}
    assert stalk_dict(c, ExtensionFlavor("p+", "!")) == {}
    assert stalk_dict(c, ExtensionFlavor("p", "!*")) == {}
    assert stalk_dict(c, ExtensionFlavor("p+", "!*")) == {0: t}
    assert stalk_dict(c, ExtensionFlavor("p", "*")) == {0: t}
    assert stalk_dict(c, ExtensionFlavor("p+", "*")) == {0: t}


def test_extension_stalk_refusals():
    short = ConeData(
        "short", 6, {5: ZERO_ENTRY, 6: LinkEntry(0, (2,))}, completeness=(5, 6)
    )
    with pytest.raises(ConeError, match="window does not cover"):
        extension_stalk(short, ExtensionFlavor("p", "*"))
    with pytest.raises(ConeError, match=r"window does not cover.*p\+,\*"):
        extension_stalk(short, ExtensionFlavor("p+", "*"))
    # !* still works: it only needs degrees up to 6
    assert stalk_dict(short, ExtensionFlavor("p+", "!*")) == {0: OModule(0, (2,))}

    unknown = ConeData(
        "unknown", 6,
        {5: LinkEntry(None), 6: LinkEntry(0, (2,)), 7: ZERO_ENTRY},
        completeness=(5, 7),
    )
    with pytest.raises(ConeError, match="rank unknown at degree 5"):
        extension_stalk(unknown, ExtensionFlavor("p", "!*"))
    # a threshold below the unknown degree is still fine
    assert stalk_dict(unknown, ExtensionFlavor("p", "!")) == {}


def test_plus_edge_of_rank_only_is_not_window_checked(monkeypatch):
    """p+ adds only the torsion of the edge degree, so a rank-only edge
    outside a narrow support window leaves the stalk answerable."""
    c = ConeData(
        "x", 3, {2: ZERO_ENTRY, 3: LinkEntry(1), 4: LinkEntry(0)}, completeness=(2, 4)
    )
    monkeypatch.setenv("DECNUM_DEGREE_WINDOW", "1:5")
    assert extension_stalk(c, ExtensionFlavor("p+", "!*")) == GradedOModule({})


def test_localize_stalk():
    g = GradedOModule({0: OModule(1, (12, 2))})
    assert localize_stalk(g, 2).module_at(0) == OModule(1, (2, 1))
    assert localize_stalk(g, 3).module_at(0) == OModule(1, (1,))
    assert localize_stalk(g, 5).module_at(0) == OModule(1)
    assert localize_stalk(GradedOModule({1: OModule(0, (6, 30))}), 5).items() == (
        (1, OModule(0, (1,))),
    )
    for bad in (4, 1, 0, 9, -3, 3215031751):
        with pytest.raises(ValueError, match=f"ell must be a prime, got {bad}"):
            localize_stalk(g, bad)
    with pytest.raises(ValueError, match=r"ell must be a prime below 2\*\*64"):
        localize_stalk(g, 10**400)


def test_f_extension_stalk_simple():
    c = link_cohomology_simple(D("A1"))
    assert f_extension_stalk(c, ExtensionFlavor("p", "!"), 2).dims() == {-2: 1}
    assert f_extension_stalk(c, ExtensionFlavor("p", "!*"), 2).dims() == {
        -2: 1, -1: 1,
    }
    f = f_extension_stalk(c, ExtensionFlavor("p", "*"), 2)
    assert f.dims() == {-2: 1, -1: 1, 0: 1}
    # residue characteristic prime to the torsion: nothing survives but O
    for flavor in ("!", "!*", "*"):
        assert f_extension_stalk(
            c, ExtensionFlavor("p", flavor), 3
        ).dims() == {-2: 1}
    with pytest.raises(ConeError, match="perversity p only"):
        f_extension_stalk(c, ExtensionFlavor("p+", "!*"), 2)


def test_f_extension_stalk_minimal():
    c = link_cohomology_minimal(D("B3"))  # middle torsion (3,), d = 8
    assert c.open_dim == 8
    assert f_extension_stalk(c, ExtensionFlavor("p", "!"), 3).dims() == {}
    assert f_extension_stalk(c, ExtensionFlavor("p", "!*"), 3).dims() == {-1: 1}
    assert f_extension_stalk(c, ExtensionFlavor("p", "*"), 3).dims() == {-1: 1, 0: 1}
    assert f_extension_stalk(c, ExtensionFlavor("p", "!*"), 2).dims() == {}


SIMPLE_NUMBERS = [
    ("A1", 2, 1), ("A1", 3, 0), ("A5", 2, 1), ("A5", 3, 1), ("A5", 5, 0),
    ("A6", 7, 1), ("D4", 2, 2), ("D4", 3, 0), ("D5", 2, 1), ("D6", 2, 2),
    ("E6", 2, 0), ("E6", 3, 1), ("E7", 2, 1), ("E7", 3, 0),
    ("E8", 2, 0), ("E8", 3, 0), ("E8", 5, 0),
]


def test_decomposition_numbers_simple():
    for name, ell, want in SIMPLE_NUMBERS:
        assert decomposition_number(link_cohomology_simple(D(name)), ell) == want


MINIMAL_NUMBERS = [
    ("A4", 5, 1), ("A4", 2, 0), ("B5", 5, 1), ("B5", 2, 0), ("B6", 2, 1),
    ("B6", 3, 1), ("C7", 2, 1), ("C7", 3, 0), ("D6", 2, 2), ("D7", 2, 1),
    ("D7", 7, 0), ("E6", 3, 1), ("E7", 2, 1), ("E8", 2, 0), ("E8", 7, 0),
    ("F4", 3, 1), ("F4", 2, 0), ("G2", 2, 1), ("G2", 3, 0),
]


def test_decomposition_numbers_minimal():
    for name, ell, want in MINIMAL_NUMBERS:
        assert decomposition_number(link_cohomology_minimal(D(name)), ell) == want


def test_decomposition_number_refusals():
    c = ConeData("x", 2, {0: LinkEntry(1), 1: LinkEntry(1)})
    with pytest.raises(ConeError, match=r"H\^1 of the link must vanish"):
        decomposition_number(c, 2)
    c = ConeData("x", 2, {0: LinkEntry(1), 3: LinkEntry(0, (2,))})
    with pytest.raises(ConeError, match=r"H\^3 of the link must be torsion-free"):
        decomposition_number(c, 2)
    c = ConeData("x", 6, {5: ZERO_ENTRY, 6: LinkEntry(0, (2,))}, completeness=(5, 6))
    with pytest.raises(ConeError, match="degree 7 outside window"):
        decomposition_number(c, 2)
    c = ConeData(
        "x", 6,
        {5: ZERO_ENTRY, 6: LinkEntry(None), 7: ZERO_ENTRY},
        completeness=(5, 7),
    )
    with pytest.raises(ConeError, match="rank unknown at degree 6"):
        decomposition_number(c, 2)
    with pytest.raises(ValueError, match="ell must be a prime"):
        decomposition_number(link_cohomology_simple(D("A1")), 6)


def random_chain(rng, max_len=3):
    chain = []
    cur = rng.choice((2, 3, 4, 5, 6))
    for _ in range(rng.randint(0, max_len)):
        chain.append(cur)
        cur *= rng.choice((1, 2, 3))
    return tuple(chain)


def random_full_cone(rng, d):
    link = {0: LinkEntry(1)}
    for deg in range(1, d + 2):
        if rng.random() < 0.5:
            entry = LinkEntry(rng.randint(0, 2), random_chain(rng))
            if not entry.is_zero():
                link[deg] = entry
    return ConeData("random", d, link)


def test_extension_chain_triangles_random():
    """Consecutive flavors differ by one summand at one known degree."""
    rng = random.Random(707)
    for _ in range(150):
        d = rng.randint(2, 8)
        c = random_full_cone(rng, d)
        h = {k: c.link_cohomology.get(k, ZERO_ENTRY) for k in (d - 1, d, d + 1)}
        stalks = [stalk_dict(c, f) for f in FLAVOR_CHAIN]

        expect = dict(stalks[0])
        if h[d - 1].torsion:
            expect[-1] = OModule(0, h[d - 1].torsion)
        assert stalks[1] == expect

        expect = dict(stalks[0])
        if not h[d - 1].is_zero():
            expect[-1] = OModule(h[d - 1].rank, h[d - 1].torsion)
        assert stalks[2] == expect

        expect = dict(stalks[2])
        if h[d].torsion:
            expect[0] = OModule(0, h[d].torsion)
        assert stalks[3] == expect

        expect = dict(stalks[2])
        if not h[d].is_zero():
            expect[0] = OModule(h[d].rank, h[d].torsion)
        assert stalks[4] == expect

        expect = dict(stalks[4])
        if h[d + 1].torsion:
            expect[1] = OModule(0, h[d + 1].torsion)
        assert stalks[5] == expect


def test_extension_chain_monotone_random():
    rng = random.Random(808)
    for _ in range(100):
        c = random_full_cone(rng, rng.randint(2, 8))
        prev = None
        for flavor in FLAVOR_CHAIN:
            cur = stalk_dict(c, flavor)
            if prev is not None:
                for deg, mod in prev.items():
                    bigger = cur.get(deg, OModule(0))
                    assert bigger.rank >= mod.rank
                    assert len(bigger.torsion) >= len(mod.torsion)
            prev = cur


def random_family_cone(rng, d):
    """Full cone satisfying the Euler-comparison hypotheses."""
    link = {0: LinkEntry(1)}
    for deg in range(1, d - 1):
        if rng.random() < 0.4:
            entry = LinkEntry(rng.randint(0, 2), random_chain(rng))
            if not entry.is_zero():
                link[deg] = entry
    chain = random_chain(rng)
    if chain:
        link[d] = LinkEntry(0, chain)
    if rng.random() < 0.5:
        link[d + 1] = LinkEntry(rng.randint(1, 2))
    return ConeData("random family", d, link)


def test_collapse_identity_random():
    """The Euler comparison agrees with counting l-divisible factors."""
    rng = random.Random(909)
    for _ in range(150):
        d = rng.randint(2, 8)
        c = random_family_cone(rng, d)
        middle = c.link_cohomology.get(d, ZERO_ENTRY)
        for ell in (2, 3, 5):
            want = sum(1 for t in middle.torsion if t % ell == 0)
            # decomposition_number asserts the identity internally as well
            assert decomposition_number(c, ell) == want


def test_stalks_agree_over_K_random():
    rng = random.Random(1010)
    for _ in range(100):
        d = rng.randint(2, 8)
        c = random_family_cone(rng, d)
        profiles = []
        for flavor in FLAVOR_CHAIN:
            g = extension_stalk(c, flavor)
            profiles.append({deg: m.rank for deg, m in g.items() if m.rank})
        assert all(p == profiles[0] for p in profiles[1:])


PER_CHARACTER = [
    ("B3", 2, "C2", {"1": 1}),
    ("B3", 3, "C2", {"1": 0, "eps": 1}),
    ("B5", 5, "C2", {"1": 0, "eps": 1}),
    ("B4", 2, "C2", {"1": 1}),
    ("C3", 2, "C2", {"1": 2}),
    ("C5", 2, "C2", {"1": 2}),
    ("C4", 2, "C2", {"1": 1}),
    ("C4", 3, "C2", {"1": 0, "eps": 0}),
    ("F4", 3, "C2", {"1": 0, "eps": 1}),
    ("F4", 2, "C2", {"1": 0}),
    ("G2", 2, "S3", {"1": 0, "psi": 1}),
    ("G2", 3, "S3", {"1": 0, "eps": 0}),
    ("A5", 2, "trivial", {"1": 1}),
    ("A5", 5, "trivial", {"1": 0}),
    ("D4", 2, "trivial", {"1": 2}),
]


def test_equivariant_decomposition_frozen():
    for name, ell, group, per in PER_CHARACTER:
        report = equivariant_decomposition(subregular_cone(D(name)), group, ell)
        assert report.per_character == per, (name, ell)
        assert report.group == group
        assert report.ell == ell
        assert report.singularity == f"subregular {name}"


def test_equivariant_decomposition_report_shape():
    report = equivariant_decomposition(subregular_cone(D("G2")), "S3", 2)
    assert isinstance(report, DecompositionReport)
    assert report.plain == 2
    assert report.per_character == {"1": 0, "psi": 1}


def test_g2_stalks_at_the_cone_point():
    cone = subregular_cone(D("G2"))
    stalk = extension_stalk(cone, ExtensionFlavor("p+", "!*"))
    assert stalk.module_at(0) == OModule(0, (2, 2))
    f_stalk = f_extension_stalk(cone, ExtensionFlavor("p", "!*"), 2)
    assert f_stalk.dims() == {-2: 1, -1: 2}


def test_stalk_queries_keep_their_call_graph(monkeypatch):
    # a decomposition number is an Euler comparison of the reduced,
    # localized p,!* stalk with the F-coefficient stalk: both sides are
    # built through the public functors, not read off the link directly
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: counts.update([name]) or real(*a, **k))

    for name in ("extension_stalk", "localize_stalk", "f_extension_stalk",
                 "reduce_graded", "reduce_mod_l", "composition_multiplicities"):
        count(perverse, name)
    count(omodule, "degree_window")
    stalk_calls = {"extension_stalk": 1, "localize_stalk": 1, "f_extension_stalk": 1,
                   "reduce_graded": 2}
    # one window read per nonzero graded object: the simple cone's stalk,
    # its localization and reduction, the band, its reduction and truncation;
    # the minimal cone's p,!* stalk and its shadows are zero
    for cone, ell, reads in ((link_cohomology_simple(D("A3")), 2, 6),
                             (link_cohomology_minimal(D("E6")), 3, 3)):
        counts.clear()
        assert decomposition_number(cone, ell) == 1
        assert counts == {**stalk_calls, "degree_window": reads}, cone.label
    cone = subregular_cone(D("G2"))
    counts.clear()
    report = equivariant_decomposition(cone, "S3", 2)
    assert report.per_character == {"1": 0, "psi": 1}
    assert counts == {**stalk_calls, "degree_window": 6, "reduce_mod_l": 1,
                      "composition_multiplicities": 1}


def test_equivariant_decomposition_errors():
    with pytest.raises(ConeError, match="no symmetry action recorded"):
        equivariant_decomposition(link_cohomology_simple(D("A2")), "trivial", 2)
    with pytest.raises(ConeError, match="carries a C2 action, not S3"):
        equivariant_decomposition(subregular_cone(D("B3")), "S3", 2)


def random_reference_band(rng):
    """(open_dim, raw degree -> (rank or None, factors), window or None)."""

    def entry():
        if rng.random() < 0.1:
            return (None, ())
        return (rng.choice((0, 0, 1, 2)), random_chain(rng))

    d = rng.randint(2, 8)
    if rng.random() < 0.4:
        lo = d - rng.randint(0, 3)
        hi = max(lo, d + rng.randint(-1, 2))
        window = (lo, hi)
        entries = {deg: entry() for deg in range(lo, hi + 1)}
    else:
        window = None
        entries = {deg: entry() for deg in range(1, 2 * d + 2) if rng.random() < 0.6}
        entries[0] = (1, ())
    if rng.random() < 0.6:  # aim at the Euler hypotheses
        if window is None or d - 1 in entries:
            entries[d - 1] = (0, ())
        if d + 1 in entries and entries[d + 1][0] is not None:
            entries[d + 1] = (entries[d + 1][0], ())
    return d, entries, window


def outcome(call, canon):
    try:
        return canon(call())
    except ConeError:
        return oracles.STALK_REFUSED
    except DegreeWindowError:
        return oracles.OUT_OF_WINDOW


def graded_dict(g):
    return {deg: (m.rank, m.torsion) for deg, m in g.items()}


@pytest.mark.parametrize("support", [None, "-3:0"])
def test_stalk_calculus_matches_reference(monkeypatch, support):
    """Every stalk read agrees with the dict-based reference calculus."""
    rng = random.Random(1212)
    if support is not None:
        monkeypatch.setenv("DECNUM_DEGREE_WINDOW", support)
    window = degree_window()
    for _ in range(200):
        band = random_reference_band(rng)
        d, entries, known = band
        c = ConeData(
            "reference", d,
            {deg: LinkEntry(rank, torsion) for deg, (rank, torsion) in entries.items()},
            completeness="full" if known is None else known,
        )
        for flavor in FLAVOR_CHAIN:
            p, kind = flavor.perversity, flavor.kind
            want = oracles.reference_stalk(band, p, kind, window)
            got = outcome(lambda: extension_stalk(c, flavor), graded_dict)
            assert got == want, (band, flavor.label())
            for ell in (2, 3):
                want_local = (
                    want if want in (oracles.STALK_REFUSED, oracles.OUT_OF_WINDOW)
                    else oracles.reference_localize(want, ell)
                )
                got = outcome(
                    lambda: localize_stalk(extension_stalk(c, flavor), ell), graded_dict
                )
                assert got == want_local, (band, flavor.label(), ell)
                if p == "p":
                    want_f = oracles.reference_f_stalk(band, kind, ell, window)
                    got = outcome(lambda: f_extension_stalk(c, flavor, ell),
                                  lambda g: g.dims())
                    assert got == want_f, (band, flavor.label(), ell)
        for ell in (2, 3, 5, 7):
            want = oracles.reference_decomposition(band, ell, window)
            got = outcome(lambda: decomposition_number(c, ell), lambda n: n)
            assert got == want, (band, ell)


def _raised_or(call):
    """("ok", repr of the value) or (exception class name, message)."""
    try:
        return "ok", repr(call())
    except Exception as e:  # the exception itself is what is compared
        return type(e).__name__, str(e)


def random_windowed_cone(rng, d, hi):
    """A cone known on raw degrees lo..hi, about d; entries may be zero,
    of unknown rank, or carry torsion anywhere, H^{d-1} and H^{d+1} too."""

    def entry():
        if rng.random() < 0.15:
            return LinkEntry(None, ())
        return LinkEntry(rng.choice((0, 0, 0, 1, 2)), random_chain(rng, 2))

    lo = hi - rng.randint(0, 4)
    link = {deg: entry() for deg in range(lo, hi + 1)}
    if rng.random() < 0.6 and d - 1 in link:
        link[d - 1] = ZERO_ENTRY
    if rng.random() < 0.6 and d + 1 in link and link[d + 1].rank is not None:
        link[d + 1] = LinkEntry(link[d + 1].rank, ())
    return ConeData("windowed", d, link, completeness=(lo, hi))


@pytest.mark.parametrize("support", [None, "-3:0"])
def test_stalk_refusals_match_the_per_check_reference(monkeypatch, support):
    """On windowed bands, extension_stalk, f_extension_stalk and
    decomposition_number give the answer, or the exception type and
    message, of the routines that re-read the cone's bounds in each check;
    the Euler hypotheses refuse at d-1, then d, then d+1."""
    if support is None:
        monkeypatch.delenv("DECNUM_DEGREE_WINDOW", raising=False)
    else:
        monkeypatch.setenv("DECNUM_DEGREE_WINDOW", support)
    rng = random.Random(f"windowed refusals {support}")
    orders = Counter()  # window tops below d-1, at d-1 and at d; bottoms above d-1
    messages = set()
    for _ in range(400):
        d = rng.randint(4, 8)
        c = random_windowed_cone(rng, d, d + rng.randint(-4, 2))
        lo, hi = c.completeness
        for flavor in FLAVOR_CHAIN:
            got = _raised_or(lambda: extension_stalk(c, flavor))
            assert got == _raised_or(lambda: oracles.per_check_extension_stalk(c, flavor)), (
                c, flavor.label())
            messages.add(got[1])
            ell = rng.choice((2, 3, 4))
            got = _raised_or(lambda: f_extension_stalk(c, flavor, ell))
            assert got == _raised_or(
                lambda: oracles.per_check_f_extension_stalk(c, flavor, ell)), (
                c, flavor.label(), ell)
            messages.add(got[1])
        for ell in (2, 3, 5, 6):
            got = _raised_or(lambda: decomposition_number(c, ell))
            assert got == _raised_or(lambda: oracles.per_check_decomposition_number(c, ell)), (
                c, ell)
            messages.add(got[1])
            if ell == 6 or hi > d and lo <= d - 1:
                continue
            # the first of d-1, d, d+1 outside the window is named
            missing = d - 1 if lo > d - 1 or hi < d - 1 else hi + 1
            assert got == ("ConeError", f"insufficient link data: degree {missing} outside window")
            orders["above d-1" if lo > d - 1 else max(hi - d, -2)] += 1
    assert set(orders) == {-2, -1, 0, "above d-1"}, orders
    for fragment in ("window does not cover the truncation threshold for p+,*",
                     "no entry above the threshold", "rank unknown at degree",
                     "must vanish", "must be torsion-free", "perversity p only",
                     "ell must be a prime"):
        assert any(fragment in m for m in messages), fragment
