"""Expected answers for every query the benchmark makes, from first principles.

Nothing here imports decnum.  The root-system facts are the classical
closed forms by rank (Bourbaki, Lie Groups and Lie Algebras, ch. VI,
plates I-IX): the invariant factors of the weight lattice mod the root
lattice, the dual Coxeter number h^vee, and the long simple roots.  The
stalk answers follow the definitions in the paper: truncation of the
link cohomology at the flavor's threshold, reduction mod pi with its Tor
term, and the decomposition number as the count of middle invariant
factors divisible by ell.  The modular characters use the irreducible
F_ell-representations of the trivial group, C2 and S3.
"""

from __future__ import annotations

from dataclasses import dataclass

PRIMES = (2, 3, 5, 7)
EXCEPTIONAL = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
REFUSED = "refused"


def simply_laced(series: str) -> bool:
    return series in "ADE"


# the grids of the `tables` subcommand, as its documentation lists them
SIMPLE_GRID = tuple(
    [("A", n) for n in range(1, 11)] + [("D", n) for n in range(4, 11)]
    + [("E", n) for n in (6, 7, 8)]
)
SUBREGULAR_GRID = tuple(
    [("B", n) for n in range(2, 9)] + [("C", n) for n in range(2, 9)]
    + [("F", 4), ("G", 2)]
)
MINIMAL_GRID = tuple(
    [("A", n) for n in range(1, 11)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 11)]
    + [("E", n) for n in (6, 7, 8)] + [("F", 4), ("G", 2)]
)


def fundamental_group(series: str, rank: int) -> tuple[int, ...]:
    """Invariant factors (each >= 2) of P/Q; the coweight quotient agrees."""
    if series == "A":
        return (rank + 1,)
    if series in "BC":
        return (2,)
    if series == "D":
        return (2, 2) if rank % 2 == 0 else (4,)
    return {("E", 6): (3,), ("E", 7): (2,), ("E", 8): (), ("F", 4): (),
            ("G", 2): ()}[(series, rank)]


def group_text(divisors) -> str:
    return " x ".join(f"Z/{d}" for d in divisors) or "0"


def dual_coxeter(series: str, rank: int) -> int:
    return {
        "A": lambda n: n + 1,
        "B": lambda n: 2 * n - 1,
        "C": lambda n: n + 1,
        "D": lambda n: 2 * n - 2,
        "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
        "F": lambda n: 9,
        "G": lambda n: 4,
    }[series](rank)


def long_subsystem(series: str, rank: int) -> tuple[str, int]:
    """Type spanned by the long simple roots (a path, hence type A)."""
    if simply_laced(series):
        return series, rank
    return {"B": ("A", rank - 1), "C": ("A", 1), "F": ("A", 2),
            "G": ("A", 1)}[series]


def count_divisible(divisors, ell: int) -> int:
    return sum(1 for t in divisors if t % ell == 0)


def unfolding(series: str, rank: int) -> tuple[str, int, str]:
    """Simply-laced unfolding and the symmetry group that folds it."""
    if simply_laced(series):
        return series, rank, "trivial"
    if series == "B":
        return "A", 2 * rank - 1, "C2"
    if series == "C":
        return ("A", 3, "C2") if rank == 2 else ("D", rank + 1, "C2")
    if series == "F":
        return "E", 6, "C2"
    return "D", 4, "S3"


def irreducibles(kind: str, ell: int) -> tuple[str, ...]:
    """Irreducible F_ell-representations: 1, sign eps, 2-dimensional psi."""
    if kind == "trivial":
        return ("1",)
    if kind == "C2":
        # over F_2 the sign character is trivial
        return ("1",) if ell == 2 else ("1", "eps")
    if ell == 2:
        return ("1", "psi")  # psi stays simple; sign = trivial
    if ell == 3:
        return ("1", "eps")  # psi has composition factors 1 and eps
    return ("1", "eps", "psi")


def sign_characters(kind: str, ell: int, dim: int, sign: int) -> dict[str, int]:
    """dim copies of the character where s acts by sign and t trivially."""
    out = dict.fromkeys(irreducibles(kind, ell), 0)
    out["eps" if sign == -1 and ell != 2 and kind != "trivial" else "1"] = dim
    return out


def subregular_characters(series: str, rank: int, ell: int) -> tuple[int, dict]:
    """(plain number, per-character multiplicities) of the folded cone.

    The folding symmetry inverts every element of a cyclic P/Q (it swaps
    the minuscule weights, which are mutual inverses); for G2 the group
    S3 permutes the three nonzero elements of (Z/2)^2, which mod 2 is
    the simple module psi.
    """
    hs, hn, kind = unfolding(series, rank)
    plain = count_divisible(fundamental_group(hs, hn), ell)
    if kind == "S3" and ell == 2:
        return plain, {"1": 0, "psi": plain // 2}
    return plain, sign_characters(kind, ell, plain, -1)


def minimal_answer(series: str, rank: int) -> dict:
    """Everything the minimal nilpotent cone of a type determines."""
    ls, lr = long_subsystem(series, rank)
    divisors = fundamental_group(ls, lr)
    return {
        "label": f"minimal {series.lower()}_{rank}",
        "long": f"{ls}{lr}",
        "group": group_text(divisors),
        "divisors": divisors,
        "open_dim": 2 * dual_coxeter(series, rank) - 2,
        "numbers": {ell: count_divisible(divisors, ell) for ell in PRIMES},
    }


# ------------------------------------------------------------ link bands

OFFSETS = {"!": -2, "!*": -1, "*": 0}
FLAVORS = tuple((p, k) for k in ("!", "!*", "*") for p in ("p", "p+"))


@dataclass
class Band:
    """Link cohomology of a cone: raw degree -> (rank or None, invariant factors).

    window None means every unlisted degree vanishes; (lo, hi) means
    only lo..hi are known.  action says how a symmetry acts on the
    torsion in degree open_dim: ("sign", kind, sign) for a character
    where s acts by sign and t trivially, ("folding", series, rank) for
    the folding symmetry of that type's subregular cone.
    """

    open_dim: int
    entries: dict[int, tuple[int | None, tuple[int, ...]]]
    window: tuple[int, int] | None = None
    action: tuple | None = None

    def entry(self, deg: int):
        if self.window is None:
            return self.entries.get(deg, (0, ()))
        lo, hi = self.window
        return self.entries[deg] if lo <= deg <= hi else None

    def known(self) -> list[int]:
        if self.window is None:
            return sorted(self.entries)
        return list(range(self.window[0], self.window[1] + 1))

    def symmetry(self) -> str:
        """The group that acts ("trivial" when nothing does)."""
        if self.action is None:
            return "trivial"
        if self.action[0] == "folding":
            return unfolding(*self.action[1:])[2]
        return self.action[1]


def subregular_band(series: str, rank: int) -> Band:
    """Surface cone of the unfolding: H^0 = O, H^2 = its P/Q, H^3 = O."""
    hs, hn, _ = unfolding(series, rank)
    divisors = fundamental_group(hs, hn)
    return Band(2, {0: (1, ()), 2: (0, divisors), 3: (1, ())},
                action=("folding", series, rank))


def extension_stalk(band: Band, perversity: str, kind: str):
    """Shifted degree -> (rank, invariant factors, descending), or REFUSED."""
    d = band.open_dim
    threshold = d + OFFSETS[kind]
    if band.window is not None and threshold + 1 > band.window[1]:
        return REFUSED
    out = {}
    for deg in band.known():
        if deg > threshold:
            continue
        rank, torsion = band.entries.get(deg, (0, ()))
        if rank is None:
            return REFUSED
        if rank or torsion:
            out[deg - d] = (rank, tuple(sorted(torsion, reverse=True)))
    if perversity == "p+":
        edge = band.entry(threshold + 1)
        if edge is None:
            return REFUSED
        if edge[1]:
            out[threshold + 1 - d] = (0, tuple(sorted(edge[1], reverse=True)))
    return dict(sorted(out.items()))


def valuation(n: int, ell: int) -> int:
    e = 0
    while n % ell == 0:
        n //= ell
        e += 1
    return e


def localize(stalk: dict, ell: int) -> dict:
    """Integral torsion -> pi-exponents of the factors divisible by ell."""
    out = {}
    for deg, (rank, torsion) in stalk.items():
        exps = tuple(sorted((valuation(t, ell) for t in torsion if t % ell == 0),
                            reverse=True))
        if rank or exps:
            out[deg] = (rank, exps)
    return out


def reduce_mod_pi(graded: dict) -> dict:
    """F-dimensions of a complex with cohomology `graded`: rank + t_i + t_{i+1}."""
    if not graded:
        return {}
    out = {}
    for deg in range(min(graded) - 1, max(graded) + 1):
        rank, exps = graded.get(deg, (0, ()))
        above = graded.get(deg + 1, (0, ()))[1]
        dim = rank + len(exps) + len(above)
        if dim:
            out[deg] = dim
    return out


def f_stalk(band: Band, kind: str, ell: int):
    """F_ell-stalk (perversity p): reduce the localized link, then truncate."""
    d = band.open_dim
    threshold = OFFSETS[kind]
    if band.window is not None and d + threshold + 1 > band.window[1]:
        return REFUSED
    link = {}
    for deg in band.known():
        rank, torsion = band.entries.get(deg, (0, ()))
        if rank is None:
            continue
        link[deg - d] = (rank, torsion)
    dims = reduce_mod_pi(localize(link, ell))
    lo = -float("inf") if band.window is None else band.window[0] - d
    return {deg: v for deg, v in dims.items() if lo <= deg <= threshold}


def decomposition(band: Band, ell: int):
    """Count of middle invariant factors divisible by ell, or REFUSED."""
    d = band.open_dim
    below, middle, above = band.entry(d - 1), band.entry(d), band.entry(d + 1)
    if below is None or middle is None or above is None:
        return REFUSED
    if below != (0, ()) or above[1] or middle[0] is None:
        return REFUSED
    # the p,!* stalk must be computable: every known rank up to d-1
    if any(band.entries.get(deg, (0, ()))[0] is None
           for deg in band.known() if deg <= d - 1):
        return REFUSED
    return count_divisible(middle[1], ell)


def equivariant(band: Band, ell: int):
    """(plain, per-character multiplicities) under the band's action, or REFUSED."""
    if band.action is None:
        return REFUSED
    plain = decomposition(band, ell)
    if plain == REFUSED:
        return REFUSED
    if band.action[0] == "folding":
        return subregular_characters(*band.action[1:], ell)
    _, kind, sign = band.action
    return plain, sign_characters(kind, ell, plain, sign)
