"""Finitely generated modules over a complete DVR, by invariants only.

The coefficient ring O (valuation ring with uniformizer pi, fraction
field K, residue field F) never appears concretely: a module is a free
rank plus a multiset of torsion exponents, O^rank + sum_i O/pi^e_i.
That is exactly the data the rest of the package consumes, and it keeps
every computation exact.

Graded variants carry a degree -> module mapping.  Graded support is
checked against a window, [-32, 32] by default, overridable through the
DECNUM_DEGREE_WINDOW environment variable ("48" for symmetric bounds or
"-4:64" for explicit ones).  Out-of-window degrees almost always mean a
dropped or doubled shift upstream, so they fail loudly instead of
propagating.  A graded constructor validates its input in one loop:
it reads the window once, at the first nonzero entry, and tests each
entry's type, zero-ness and degree inline, with no call per entry.  It
sorts only input that arrives out of degree order; every producer here
emits ascending degrees.
"""

from __future__ import annotations

import math
import os
from collections.abc import ItemsView, Iterable, Mapping

from .intmat import FrozenRecord

DEFAULT_WINDOW = (-32, 32)
_WINDOW_ENV = "DECNUM_DEGREE_WINDOW"


class DegreeWindowError(ValueError):
    """A graded degree fell outside the configured support window."""


def degree_window() -> tuple[int, int]:
    """Current support window, honoring DECNUM_DEGREE_WINDOW.

    >>> degree_window()
    (-32, 32)
    """
    raw = os.environ.get(_WINDOW_ENV)
    if raw is None:
        return DEFAULT_WINDOW
    text = raw.strip()
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            half = int(text)
            lo, hi = -half, half
    except ValueError:
        raise ValueError(
            f"cannot parse {_WINDOW_ENV}={raw!r}: expected 'N' or 'LO:HI'"
        ) from None
    if lo > hi:
        raise ValueError(f"{_WINDOW_ENV} bounds are reversed: {raw!r}")
    return lo, hi


def _outside(deg: int, lo: int, hi: int) -> DegreeWindowError:
    return DegreeWindowError(f"degree {deg} outside support window [{lo}, {hi}]")


class OModule(FrozenRecord):
    """O^rank plus one torsion summand O/pi^e per listed exponent.

    Exponents are kept individually (not merged) and canonicalized in
    descending order.

    >>> OModule(2, (1, 3))
    OModule(rank=2, torsion=(3, 1))
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()) -> None:
        if type(rank) is not int or rank < 0:
            raise ValueError(f"invalid rank {rank!r}")
        if type(torsion) is not tuple or len(torsion) > 1:
            torsion = tuple(sorted(torsion, reverse=True))
        for e in torsion:
            if type(e) is not int or e < 1:
                raise ValueError(f"invalid torsion exponent {e!r}")
        _set_rank(self, rank)
        _set_torsion(self, torsion)

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("O")
        elif self.rank > 1:
            parts.append(f"O^{self.rank}")
        parts.extend("O/pi" if e == 1 else f"O/pi^{e}" for e in self.torsion)
        return " + ".join(parts) if parts else "0"


_set_rank = OModule.rank.__set__
_set_torsion = OModule.torsion.__set__
ZERO = OModule(0, ())


class GradedOModule:
    """Degree-indexed O-modules with window-checked finite support.

    Zero modules are dropped, so equal objects have equal support.
    """

    __slots__ = ("_by_degree",)

    def __init__(self, modules: Mapping[int, OModule] | Iterable[tuple[int, OModule]]):
        items = modules.items() if isinstance(modules, (dict, Mapping)) else modules
        store: dict[int, OModule] = {}
        lo = None
        ascending = True
        for deg, mod in items:
            if type(deg) is not int:
                raise ValueError(f"non-integer degree {deg!r}")
            if not isinstance(mod, OModule):
                raise ValueError(f"degree {deg}: expected OModule, got {mod!r}")
            if deg in store:
                raise ValueError(f"degree {deg} listed twice")
            if not mod.rank and not mod.torsion:
                continue
            if lo is None:
                lo, hi = degree_window()
            elif deg < top:
                ascending = False
            if not lo <= deg <= hi:
                raise _outside(deg, lo, hi)
            store[deg] = mod
            top = deg
        self._by_degree = store if ascending else dict(sorted(store.items()))

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._by_degree)

    def module_at(self, deg: int) -> OModule:
        return self._by_degree.get(deg, ZERO)

    def items(self) -> tuple[tuple[int, OModule], ...]:
        return tuple(self._by_degree.items())

    def is_zero(self) -> bool:
        return not self._by_degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedOModule):
            return NotImplemented
        return self._by_degree == other._by_degree

    def __hash__(self):
        return hash(tuple(self._by_degree.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}: {m}" for d, m in self._by_degree.items())
        return f"GradedOModule({{{inner}}})"


class FGraded:
    """Graded vector space over a field, recorded as degree -> dimension.

    Zero dimensions are dropped, so equal objects have equal support.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int]):
        store: dict[int, int] = {}
        lo = None
        ascending = True
        for deg, dim in dims.items():
            if type(deg) is not int or type(dim) is not int:
                raise ValueError(f"bad graded dimension entry {deg!r}: {dim!r}")
            if dim < 0:
                raise ValueError(f"negative dimension at degree {deg}")
            if dim:
                if lo is None:
                    lo, hi = degree_window()
                elif deg < top:
                    ascending = False
                if not lo <= deg <= hi:
                    raise _outside(deg, lo, hi)
                store[deg] = dim
                top = deg
        self._dims = store if ascending else dict(sorted(store.items()))

    def dims(self) -> dict[int, int]:
        return dict(self._dims)

    def items(self) -> ItemsView[int, int]:
        """Read-only (degree, dimension) view, in ascending degree."""
        return self._dims.items()

    def dim_at(self, deg: int) -> int:
        return self._dims.get(deg, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._dims)

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def euler_characteristic(self) -> int:
        """Alternating sum of dimensions.

        >>> FGraded({-2: 1, -1: 1}).euler_characteristic()
        0
        """
        return sum(dim if deg % 2 == 0 else -dim for deg, dim in self._dims.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FGraded):
            return NotImplemented
        return self._dims == other._dims

    def __hash__(self):
        return hash(tuple(self._dims.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}: {v}" for d, v in self._dims.items())
        return f"FGraded({{{inner}}})"


def reduce_graded(g: GradedOModule) -> FGraded:
    """Derived reduction mod pi: dim_i = rank_i + t_i + t_{i+1}.

    Torsion in degree i contributes once in place and once one degree
    down (the Tor term), which is the universal-coefficient bookkeeping
    for a complex whose cohomology is g.

    >>> g = GradedOModule({0: OModule(1), 2: OModule(0, (1,)), 3: OModule(1)})
    >>> reduce_graded(g).dims()
    {0: 1, 1: 1, 2: 1, 3: 1}
    """
    dims: dict[int, int] = {}
    top = None
    for deg, m in g._by_degree.items():  # ascending, so dims is too
        t = len(m.torsion)
        if t:
            below = deg - 1
            dims[below] = dims[below] + t if below == top else t
        dims[deg] = m.rank + t
        top = deg
    return FGraded(dims)


def truncate_F(f: FGraded, n: int, floor: float = -math.inf) -> FGraded:
    """Naive truncation: keep the degrees from floor up to n.

    >>> truncate_F(FGraded({-3: 1, -2: 1, 0: 2}), -1, floor=-2).dims()
    {-2: 1}
    """
    return FGraded({d: v for d, v in f.items() if floor <= d <= n})


def poincare_dual(hc: GradedOModule, real_dim: int) -> GradedOModule:
    """Cohomology from compactly supported cohomology on an oriented
    real_dim-manifold: rank from the complementary degree, torsion from
    one above the complementary degree.

    >>> hc = GradedOModule({1: OModule(1), 3: OModule(0, (2,)), 4: OModule(1)})
    >>> poincare_dual(hc, 4).items()
    ((0, OModule(rank=1, torsion=())), (2, OModule(rank=0, torsion=(2,))), (3, OModule(rank=1, torsion=())))
    """
    if hc.is_zero():
        return GradedOModule({})
    degs = [real_dim - d for d in hc.degrees()] + [real_dim - d + 1 for d in hc.degrees()]
    out = {}
    for k in range(min(degs), max(degs) + 1):
        rank = hc.module_at(real_dim - k).rank
        out[k] = OModule(rank, hc.module_at(real_dim - k + 1).torsion)
    return GradedOModule(out)
