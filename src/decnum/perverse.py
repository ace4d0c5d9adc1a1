"""Stalk data of extensions across a cone point, and decomposition numbers.

The geometry enters only through a small package of invariants: a cone
with smooth part U of real dimension 2d carries the cohomology of U
("the link data") in a band of degrees, and every question answered
here (six flavors of extension stalks, their field-coefficient
variants, decomposition numbers, symmetry refinements) is a function of
that band.  The simple and the subregular (folded) surface cones share
one link, H^0 = O, H^2 = P/Q of the simply-laced unfolding, H^3 = O,
and one builder; a folded cone only attaches its symmetry's action on H^2.

Two conventions are load-bearing:

* Link cohomology is stored against raw degrees (H^0 = O for a
  connected U), with torsion recorded by integral invariant factors.
  The residue characteristic enters later: localize_stalk turns each
  invariant factor divisible by ell into one O-torsion summand with the
  matching pi-adic exponent, and drops the rest.
* Stalk tables are reported in shifted degrees (raw minus d, the
  convention that puts the constant sheaf's stalk in degree -d of
  itself, i.e. degree -2 for a surface cone).  In shifted terms the six
  truncation thresholds are uniform across all cones: degree d-2, d-1,
  d become -2, -1, 0.

Entries list ranks that may be unknown (rank None means torsion-free of
unrecorded rank); completeness is either "full" or a (lo, hi) window of
raw degrees outside which nothing is known.  Requests that would need
unknown data refuse with ConeError rather than guess.
"""

from __future__ import annotations

import math

from .modrep import (
    CHARACTER_DIMS, EquivariantAbGroup, composition_multiplicities, reduce_mod_l,
)
from .omodule import (
    FGraded, GradedOModule, OModule, poincare_dual, reduce_graded, truncate_F,
)
from .rootsys import (
    DynkinDiagram,
    FoldingDatum,
    cartan_matrix,
    folding,
    fundamental_group,
    long_root_subsystem,
    root_system,
    symmetry_action_on_fundamental_group,
)
from . import intmat
from .intmat import FinAbGroup, FrozenRecord, Record


class ConeError(ValueError):
    """A stalk or decomposition request the stored link data cannot answer."""


class LinkEntry(FrozenRecord):
    """One cohomology degree of a link: free rank plus invariant factors.

    rank None flags "torsion-free but of unrecorded rank"; its torsion
    must then be empty.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int | None, torsion: tuple[int, ...] = ()) -> None:
        torsion = tuple(torsion)
        if rank is None:
            if torsion:
                raise ValueError("unknown-rank entries must be torsion-free")
        elif type(rank) is not int or rank < 0:
            raise ValueError(f"invalid rank {rank!r}")
        FinAbGroup(torsion)  # the invariant-factor checks
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion


ZERO_ENTRY = LinkEntry(0, ())


class ExtensionFlavor(FrozenRecord):
    """A perversity ("p" or "p+") and an extension kind ("!", "!*", "*")."""

    __slots__ = ("perversity", "kind")

    _OFFSETS = {"!": -2, "!*": -1, "*": 0}

    def __init__(self, perversity: str, kind: str) -> None:
        if perversity not in ("p", "p+"):
            raise ValueError(f"unknown perversity {perversity!r}")
        if kind not in self._OFFSETS:
            raise ValueError(f"unknown extension kind {kind!r}")
        object.__setattr__(self, "perversity", perversity)
        object.__setattr__(self, "kind", kind)

    @property
    def plus(self) -> bool:
        return self.perversity == "p+"

    @property
    def shifted_threshold(self) -> int:
        """Truncation threshold in shifted degrees: -2, -1 or 0."""
        return self._OFFSETS[self.kind]

    def label(self) -> str:
        return f"{self.perversity},{self.kind}"


FLAVOR_CHAIN = (
    ExtensionFlavor("p", "!"),
    ExtensionFlavor("p+", "!"),
    ExtensionFlavor("p", "!*"),
    ExtensionFlavor("p+", "!*"),
    ExtensionFlavor("p", "*"),
    ExtensionFlavor("p+", "*"),
)


class ConeData(Record):
    """Link cohomology of a cone, keyed by raw degree.

    completeness "full" means all raw degrees are known (_bounds() is
    (-inf, inf)) and unlisted ones vanish; a (lo, hi) pair means only
    degrees lo..hi are known and each of them is listed.  Either way
    known_degrees() are the listed degrees.  equivariant_degrees
    optionally attaches a symmetry action to the torsion of a degree.
    """

    __slots__ = ("label", "open_dim", "link_cohomology", "completeness",
                 "equivariant_degrees")

    def __init__(
        self,
        label: str,
        open_dim: int,
        link_cohomology: dict[int, LinkEntry],
        completeness: str | tuple[int, int] = "full",
        equivariant_degrees: dict[int, EquivariantAbGroup] | None = None,
    ) -> None:
        self.label = label
        self.open_dim = open_dim
        self.link_cohomology = link_cohomology
        self.completeness = completeness
        self.equivariant_degrees = {} if equivariant_degrees is None else equivariant_degrees
        if not isinstance(label, str):
            raise ValueError(f"label must be a str, got {label!r}")
        if type(open_dim) is not int:
            raise ValueError(f"open_dim must be an int, got {open_dim!r}")
        if open_dim < 1:
            raise ValueError("open part must have positive dimension")
        for deg, entry in self.link_cohomology.items():
            if type(deg) is not int or not isinstance(entry, LinkEntry):
                raise ValueError(f"bad link entry at {deg!r}")
        if completeness == "full":
            zero = self.link_cohomology.get(0, ZERO_ENTRY)
            if zero != LinkEntry(1, ()):
                raise ValueError("a full link table must have H^0 = O")
        elif type(completeness) is not tuple or [*map(type, completeness)] != [int, int]:
            raise ValueError(f"completeness must be 'full' or (lo, hi), got {completeness!r}")
        else:
            lo, hi = completeness
            if lo > hi:
                raise ValueError("empty completeness window")
            for deg in self.link_cohomology:
                if not lo <= deg <= hi:
                    raise ValueError(f"entry at degree {deg} outside window")
            for deg in range(lo, hi + 1):
                if deg not in self.link_cohomology:
                    raise ValueError(f"window degree {deg} missing an entry")
        for deg, eq in self.equivariant_degrees.items():
            if type(deg) is not int or not isinstance(eq, EquivariantAbGroup):
                raise ValueError(f"bad equivariant entry at {deg!r}")
            entry = self.entry_or_none(deg)
            if entry is None:
                raise ValueError(f"equivariant action at unknown degree {deg}")
            if eq.group.divisors != entry.torsion:
                raise ValueError(
                    f"action group at degree {deg} does not match link torsion"
                )

    def _bounds(self) -> tuple[float, float]:
        """Lowest and highest known raw degree."""
        return (-math.inf, math.inf) if self.completeness == "full" else self.completeness

    def entry_or_none(self, deg: int) -> LinkEntry | None:
        """The entry at a raw degree, or None if outside the known window."""
        lo, hi = self._bounds()
        return self.link_cohomology.get(deg, ZERO_ENTRY) if lo <= deg <= hi else None

    def known_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.link_cohomology))


def _surface_cone(label: str, group: FinAbGroup,
                  equivariant: dict[int, EquivariantAbGroup] | None = None) -> ConeData:
    """Full link data of a surface cone whose weight/root lattice
    comparison map has cokernel group.

    Built by the compactly-supported route: the resolved space retracts
    to the exceptional locus, and Poincare duality on the real
    4-dimensional link converts its cohomology to ordinary cohomology.
    The result always lands as H^0 = O, H^2 = group, H^3 = O.
    """
    if group.free_rank:
        raise AssertionError("lattice comparison map must be injective")
    hc = GradedOModule(
        {1: OModule(1), 3: OModule(0, group.divisors), 4: OModule(1)}
    )
    link = {
        deg: LinkEntry(m.rank, tuple(sorted(m.torsion)))
        for deg, m in poincare_dual(hc, 4).items()
    }
    return ConeData(label, 2, link, "full", equivariant)


def _require_simply_laced(hat: DynkinDiagram) -> None:
    if not hat.simply_laced:
        raise ConeError(f"{hat} is not simply laced; fold it first (see subregular_cone)")


def link_cohomology_simple(hat: DynkinDiagram) -> ConeData:
    """Full link data of the surface cone attached to a simply-laced type.

    The comparison map is the transposed Cartan matrix (the Cartan
    matrix itself, as a simply-laced one is symmetric), so H^2 is the
    weight mod root torsion.

    >>> c = link_cohomology_simple(DynkinDiagram("A", 1))
    >>> [(d, e.rank, e.torsion) for d, e in sorted(c.link_cohomology.items())]
    [(0, 1, ()), (2, 0, (2,)), (3, 1, ())]
    """
    _require_simply_laced(hat)
    group, _ = intmat.cokernel(cartan_matrix(hat))
    return _surface_cone(f"simple {hat}", group)


def subregular_cone(
    gamma: DynkinDiagram, folding_source: FoldingDatum | None = None
) -> ConeData:
    """The folded surface cone of any type, with its symmetry action.

    Its link is that of the simple cone of the unfolding, with the
    folding symmetry's action on H^2 attached; the action's group is
    that H^2, so one Smith reduction serves both.  For simply-laced
    gamma the action is trivial.  A caller that already holds
    folding(gamma) passes it as folding_source.
    """
    if folding_source is None:
        folding_source = folding(gamma)
    elif folding_source.gamma != gamma:
        raise ConeError(f"folding of {folding_source.gamma} given for {gamma}")
    action = symmetry_action_on_fundamental_group(folding_source)
    return _surface_cone(f"subregular {gamma}", action.group, {2: action})


def link_cohomology_minimal(gamma: DynkinDiagram) -> ConeData:
    """Windowed link data of the minimal nilpotent cone of a given type.

    The open part has complex dimension d = 2h - 2 (h the dual Coxeter
    number); the known band is H^{d-1} = 0, H^d = dual fundamental
    group of the subsystem spanned by the long roots, H^{d+1}
    torsion-free of unrecorded rank.

    >>> c = link_cohomology_minimal(DynkinDiagram("F", 4))
    >>> (c.open_dim, c.link_cohomology[c.open_dim].torsion)
    (16, (3,))
    """
    rs = root_system(gamma)
    d = 2 * rs.dual_coxeter - 2
    sub = long_root_subsystem(gamma)
    group, _ = fundamental_group(sub, dual=True)
    if group.free_rank:
        raise AssertionError("dual fundamental group must be finite")
    return ConeData(
        label=f"minimal {gamma.series.lower()}_{gamma.rank}",
        open_dim=d,
        link_cohomology={
            d - 1: ZERO_ENTRY,
            d: LinkEntry(0, group.divisors),
            d + 1: LinkEntry(None, ()),
        },
        completeness=(d - 1, d + 1),
    )


def _band(c: ConeData, cap: float = math.inf, ell: int | None = None,
          skip_unknown: bool = False) -> dict[int, OModule]:
    """The known link degrees up to raw degree cap, shifted by -d.

    One walk over the sorted link degrees, each entry read once, so the
    result is ascending too.  Zero entries are left out.  An entry of
    unknown rank refuses, or with skip_unknown is passed over (it is
    torsion-free, so its only trace after reduction mod pi would be its
    unknown rank).  With ell the integral torsion is localized at ell.
    """
    d = c.open_dim
    link = c.link_cohomology
    out = {}
    for deg in sorted(link):
        if deg > cap:
            break
        entry = link[deg]
        rank, torsion = entry.rank, entry.torsion
        if rank is None:
            if skip_unknown:
                continue
            raise ConeError(f"insufficient link data: rank unknown at degree {deg}")
        if torsion and ell is not None:
            torsion = _localize(torsion, ell)
        if rank or torsion:
            out[deg - d] = OModule(rank, torsion)
    return out


def _check_covered(threshold: int, hi: float, f: ExtensionFlavor) -> None:
    """Refuse unless the known band, up to raw degree hi, reaches one
    degree past f's raw threshold."""
    if threshold + 1 > hi:
        raise ConeError(
            "insufficient link data: window does not cover the "
            f"truncation threshold for {f.label()}"
        )


def _localize(torsion: tuple[int, ...], ell: int) -> tuple[int, ...]:
    """ell-adic valuations of the invariant factors divisible by ell."""
    exps = []
    for t in torsion:
        e = 0
        while t % ell == 0:
            t //= ell
            e += 1
        if e:
            exps.append(e)
    return tuple(exps)


def extension_stalk(c: ConeData, f: ExtensionFlavor) -> GradedOModule:
    """Cone-point stalk of the f-extension, in shifted degrees.

    Torsion entries carry the link's integral invariant factors; apply
    localize_stalk to specialize them to O-torsion at a residue
    characteristic.  For windowed cones only the known band is
    reported, and the request refuses if the truncation threshold + 1
    is not covered.

    >>> c = link_cohomology_simple(DynkinDiagram("A", 1))
    >>> extension_stalk(c, ExtensionFlavor("p", "!*")).items()
    ((-2, OModule(rank=1, torsion=())),)
    >>> extension_stalk(c, ExtensionFlavor("p+", "!*")).items()
    ((-2, OModule(rank=1, torsion=())), (0, OModule(rank=0, torsion=(2,))))
    """
    lo, hi = c._bounds()
    shifted = f.shifted_threshold
    threshold = c.open_dim + shifted
    _check_covered(threshold, hi, f)
    stalk = _band(c, cap=threshold)
    if f.plus:
        if threshold + 1 < lo:  # _check_covered has bounded it by hi
            raise ConeError("insufficient link data: no entry above the threshold")
        edge = c.link_cohomology.get(threshold + 1, ZERO_ENTRY)
        if edge.torsion:
            stalk[shifted + 1] = OModule(0, edge.torsion)
    return GradedOModule(stalk)


def localize_stalk(g: GradedOModule, ell: int) -> GradedOModule:
    """Specialize integral torsion to O-torsion at residue characteristic ell.

    Each invariant factor divisible by ell becomes one summand with its
    ell-adic valuation as the pi-exponent; factors prime to ell vanish.

    >>> localize_stalk(GradedOModule({0: OModule(1, (12, 2))}), 2).module_at(0)
    OModule(rank=1, torsion=(2, 1))
    """
    intmat.check_prime(ell)
    return GradedOModule({
        deg: OModule(m.rank, _localize(m.torsion, ell)) if m.torsion else m
        for deg, m in g.items()
    })


def f_extension_stalk(c: ConeData, f: ExtensionFlavor, ell: int) -> FGraded:
    """Cone-point stalk of the f-extension with coefficients in F_ell.

    Only defined for perversity "p": reduction mod pi of the localized
    link band (entries of unknown rank skipped) followed by naive
    truncation at the same threshold.  For windowed cones, dimensions
    are reported for the known band only.

    >>> c = link_cohomology_simple(DynkinDiagram("A", 1))
    >>> f_extension_stalk(c, ExtensionFlavor("p", "!*"), 2).dims()
    {-2: 1, -1: 1}
    """
    if f.perversity != "p":
        raise ConeError("field-coefficient stalks are defined for perversity p only")
    intmat.check_prime(ell)
    d = c.open_dim
    lo, hi = c._bounds()
    shifted = f.shifted_threshold
    _check_covered(d + shifted, hi, f)
    band = GradedOModule(_band(c, ell=ell, skip_unknown=True))
    reduced = reduce_graded(band)
    return truncate_F(reduced, shifted, lo - d)


def _check_euler_hypotheses(c: ConeData, ell: int) -> tuple[LinkEntry, float]:
    """H^d of the link, and the lowest shifted degree the link data
    speaks for (-inf when full); refuses at the first of d-1, d, d+1
    outside the known window, then at a failed hypothesis."""
    intmat.check_prime(ell)
    d = c.open_dim
    lo, hi = c._bounds()
    for deg in (d - 1, d, d + 1):
        if not lo <= deg <= hi:
            raise ConeError(f"insufficient link data: degree {deg} outside window")
    link = c.link_cohomology
    below = link.get(d - 1, ZERO_ENTRY)
    middle = link.get(d, ZERO_ENTRY)
    above = link.get(d + 1, ZERO_ENTRY)
    if below.rank != 0 or below.torsion:
        raise ConeError(
            f"hypotheses not met: H^{d - 1} of the link must vanish"
        )
    if above.torsion:
        raise ConeError(
            f"hypotheses not met: H^{d + 1} of the link must be torsion-free"
        )
    if middle.rank is None:
        raise ConeError(f"insufficient link data: rank unknown at degree {d}")
    return middle, lo - d


def decomposition_number(c: ConeData, ell: int) -> int:
    """Multiplicity of the cone-point simple object inside the integral
    intermediate extension, read off by an Euler-characteristic
    comparison of its two mod-pi shadows.

    Requires the link band around degree d to be known with
    H^{d-1} = 0 and H^{d+1} torsion-free; refuses otherwise.  The
    result always equals the number of invariant factors of H^d
    divisible by ell, and that identity is asserted.

    >>> decomposition_number(link_cohomology_minimal(DynkinDiagram("E", 8)), 5)
    0
    >>> decomposition_number(link_cohomology_simple(DynkinDiagram("A", 3)), 2)
    1
    """
    middle, floor = _check_euler_hypotheses(c, ell)
    flavor = FLAVOR_CHAIN[2]  # p,!*
    o_side = reduce_graded(localize_stalk(extension_stalk(c, flavor), ell))
    f_side = f_extension_stalk(c, flavor, ell)
    # compare only degrees the known window speaks for
    diff = sum(
        dim if deg % 2 == 0 else -dim
        for deg, dim in o_side.items()
        if deg >= floor
    ) - f_side.euler_characteristic()
    expected = sum(1 for t in middle.torsion if t % ell == 0)
    if diff != expected:
        raise AssertionError(
            f"Euler comparison produced {diff}, torsion count says {expected}"
        )
    return diff


class DecompositionReport(Record):
    """Structured output of equivariant_decomposition, CLI-ready."""

    __slots__ = ("singularity", "ell", "group", "plain", "per_character")

    def __init__(self, singularity: str, ell: int, group: str, plain: int,
                 per_character: dict[str, int]) -> None:
        self.singularity = singularity
        self.ell = ell
        self.group = group
        self.plain = plain
        self.per_character = per_character


def equivariant_decomposition(c: ConeData, group: str, ell: int) -> DecompositionReport:
    """Refine the decomposition number by the symmetry action on the link.

    group names the expected symmetry kind ("trivial", "C2", "S3") and
    must match the action stored on the cone's middle degree.  The
    per-character multiplicities always sum (with dimension weights) to
    the plain decomposition number.
    """
    d = c.open_dim
    eq = c.equivariant_degrees.get(d)
    if eq is None:
        raise ConeError(f"no symmetry action recorded at degree {d}")
    if eq.kind != group:
        raise ConeError(f"cone carries a {eq.kind} action, not {group}")
    plain = decomposition_number(c, ell)
    per = composition_multiplicities(reduce_mod_l(eq, ell))
    if sum(CHARACTER_DIMS[lb] * v for lb, v in per.items()) != plain:
        raise AssertionError("character multiplicities do not add up")
    return DecompositionReport(
        singularity=c.label,
        ell=ell,
        group=group,
        plain=plain,
        per_character=per,
    )
