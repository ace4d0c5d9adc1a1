"""Dynkin diagrams, Cartan matrices, root generation, foldings.

Conventions, fixed once for the whole package:

* Cartan matrix entries are C[i][j] = 2 (a_i, a_j) / (a_j, a_j), so the
  row index varies over the roots being paired and the column index
  carries the normalization.  Under this convention the coordinates of
  the simple coroot a_j^vee in the coweight basis form column j of C,
  and the coordinates of the simple root a_j in the weight basis form
  column j of C^T.
* Nodes are numbered in the Bourbaki order.  Series B/C/F/G are paths
  with the arrow conventions below; D forks at node rank-2 (1-based);
  E puts node 2 on the short branch attached to node 4.
* B_n has a single short simple root (the last node), C_n a single long
  one (the last node), F_4 is long-long-short-short, and in G_2 the
  first node is short.  Equivalently: C[B_n][n-1][n] = -2,
  C[C_n][n][n-1] = -2, C[F_4][2][3] = -2, C[G_2] = [[2,-1],[-3,2]]
  (1-based indices).

`fundamental_group` literally returns the cokernel of the Cartan matrix
(of its transpose when dual=True).  With the convention above, coker(C)
presents the quotient of the coweight lattice by the coroot lattice and
coker(C^T) the quotient of the weight lattice by the root lattice; the
invariant factors agree either way.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm
from operator import mul, neg

from . import intmat
from .intmat import FinAbGroup, FrozenRecord, Matrix, Rows, _built
from .modrep import EquivariantAbGroup, check_relations, group_elements

SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
EXCEPTIONAL = {("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)}


class DynkinDiagram(FrozenRecord):
    """An irreducible finite-type Dynkin diagram, e.g. DynkinDiagram("B", 3).

    >>> str(DynkinDiagram("D", 5))
    'D5'
    >>> DynkinDiagram("D", 3)
    Traceback (most recent call last):
        ...
    ValueError: inadmissible type D3
    """

    __slots__ = ("series", "rank")

    def __init__(self, series: str, rank: int) -> None:
        if type(rank) is not int or not isinstance(series, str):
            ok = False  # a bool or a float rank compares like an int
        elif series in SERIES_MIN_RANK:
            ok = rank >= SERIES_MIN_RANK[series]
        else:
            ok = (series, rank) in EXCEPTIONAL
        if not ok:
            raise ValueError(f"inadmissible type {series}{rank}")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "rank", rank)

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"

    @property
    def simply_laced(self) -> bool:
        return self.series in ("A", "D", "E")


def _edges(d: DynkinDiagram) -> list[tuple[int, int]]:
    n = d.rank
    if d.series in ("A", "B", "C", "F", "G"):
        return [(i, i + 1) for i in range(n - 1)]
    if d.series == "D":
        return [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    # E: chain 1-3-4-5-6(-7-8) with node 2 hanging off node 4
    chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
    return [(a, b) for a, b in zip(chain, chain[1:])] + [(1, 3)]


def _length_squares(d: DynkinDiagram) -> list[int]:
    # relative squared lengths of the simple roots, up to common scale
    n = d.rank
    if d.series == "B":
        return [2] * (n - 1) + [1]
    if d.series == "C":
        return [1] * (n - 1) + [2]
    if d.series == "F":
        return [2, 2, 1, 1]
    if d.series == "G":
        return [1, 3]
    return [1] * n


def cartan_matrix(d: DynkinDiagram) -> Matrix:
    """Cartan matrix in the convention documented at module top.

    >>> cartan_matrix(DynkinDiagram("G", 2))
    ((2, -1), (-3, 2))
    """
    n = d.rank
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
    for (i, j), x in _off_diagonal(d).items():
        c[i][j] = x
    # a Matrix built from ints, so freeze passes it through; each row
    # list is released as soon as its tuple exists
    for i, row in enumerate(c):
        c[i] = tuple(row)
    return _built(c)


def _off_diagonal(d: DynkinDiagram) -> dict[tuple[int, int], int]:
    """The nonzero off-diagonal Cartan entries, keyed by (row, column)."""
    ls = _length_squares(d)
    entries = {}
    for i, j in _edges(d):
        # C[i][j] = -(a_i, a_i)/(a_j, a_j) when a_i is the longer one, else -1
        entries[i, j] = -(ls[i] // ls[j]) if ls[i] > ls[j] else -1
        entries[j, i] = -(ls[j] // ls[i]) if ls[j] > ls[i] else -1
    return entries


class RootSystemData(FrozenRecord):
    """Roots in simple-root coordinates plus derived numerology.

    roots are sorted lexicographically;  lengths[i] is "long" or "short"
    for roots[i] (every root of a simply-laced system counts as long).
    generate_roots sets the other fields in the call and leaves roots
    and lengths unset; their first read closes the roots from cartan,
    checks that highest_root is the top root, and sets both.
    """

    __slots__ = ("cartan", "roots", "lengths", "highest_root", "dual_coxeter")

    def __init__(
        self,
        cartan: Matrix,
        roots: tuple[tuple[int, ...], ...],
        lengths: tuple[str, ...],
        highest_root: tuple[int, ...],
        dual_coxeter: int,
    ) -> None:
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "highest_root", highest_root)
        object.__setattr__(self, "dual_coxeter", dual_coxeter)

    def __getattr__(self, name):
        # only for an unset slot
        if name not in ("roots", "lengths"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        roots, lengths = _close_roots(self.cartan, self.highest_root)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "lengths", lengths)
        return roots if name == "roots" else lengths


def _close_roots(cartan: Matrix, highest: tuple[int, ...]):
    """roots and lengths of a finite-type Cartan matrix, closed under the
    raising simple reflections, after checking that highest is their top
    root.

    Coordinates are with respect to the simple roots, so reflection i
    sends v to v with v[i] replaced by v[i] - p[i], where p[i] = sum_j
    v[j] C[j][i] pairs v with the simple coroot i.  s_i permutes the
    positive roots other than a_i (Humphreys, Introduction to Lie
    Algebras, 10.2 Lemma B), and a positive root of height > 1 pairs
    positively with some simple coroot, so every positive root is
    reached from a simple root by reflections with p[i] < 0, each of
    which adds -p[i] a_i.  Only those are applied.  Each frontier root
    carries its nonzero pairings, so a reflection reads p[i] directly
    and the child's pairings are the parent's minus p[i] times Cartan
    row i.  origin maps each positive root to the simple root whose
    reflection orbit it lies in, so the root has its squared length.
    Only for a finite type, which generate_roots has decided: no finite
    root system has a coefficient above 6 (the largest is E8's highest
    root).  The negative roots are the negated positive ones.
    """
    row_support = _cartan_rows(cartan)
    ls = _finite_components(cartan, row_support)[0]
    n = len(cartan)
    origin = {}
    frontier = []
    for i in range(n):
        v = (0,) * i + (1,) + (0,) * (n - 1 - i)
        origin[v] = i
        frontier.append((v, dict(row_support[i])))
    while frontier:
        nxt = []
        for v, pairing in frontier:
            for i, p in pairing.items():
                if p >= 0:
                    continue
                k = v[i] - p
                if k > 6:
                    raise AssertionError("root coefficient above 6 in a finite type")
                w = v[:i] + (k,) + v[i + 1:]
                if w in origin:
                    continue
                origin[w] = origin[v]
                q = dict(pairing)
                for j, x in row_support[i]:
                    y = q.get(j, 0) - p * x
                    if y:
                        q[j] = y
                    else:
                        del q[j]
                nxt.append((w, q))
        frontier = nxt
    positive = sorted(origin)
    if positive[-1] != highest:
        raise AssertionError("highest root fails to dominate")
    # (v, v) up to the common factor 1/2 is sum_ij v_i v_j C[i][j] L[j],
    # which is 2 L[i] on the simple root a_i
    longest = max(ls)
    upper = tuple("long" if ls[origin[v]] == longest else "short" for v in positive)
    negative = tuple([tuple(map(neg, v)) for v in reversed(positive)])
    return negative + tuple(positive), upper[::-1] + upper


def _cartan_rows(c: Matrix) -> list[list[tuple[int, int]]]:
    """The nonzero entries (j, C[i][j]) of each row i of c, which is
    checked on them alone to be a generalized Cartan matrix.  The first
    fault in row-major order is refused: a row's diagonal before its
    entries, and at one entry a positive value before an asymmetric
    zero pattern."""
    n = len(c)
    if len(c[0]) != n:
        raise ValueError("Cartan matrix must be square")
    cols = range(n)
    rows = [[(j, row[j]) for j in compress(cols, row)] for row in c]
    # (row, column or -1 for the diagonal, the message's index below); an
    # entry whose mirror is 0 faults at both, first at the upper one
    faults = []
    for i, row in enumerate(rows):
        if c[i][i] != 2:
            faults.append((i, -1, 0))
        for j, x in row:
            if (x > 0 or not c[j][i]) and j != i:
                if x > 0:
                    faults.append((i, j, 1))
                if not c[j][i]:
                    faults.append((min(i, j), max(i, j), 2))
    if faults:
        raise ValueError(("Cartan diagonal must be 2", "positive off-diagonal Cartan entry",
                          "asymmetric Cartan zero pattern")[min(faults)[2]])
    return rows


def _finite_components(c: Matrix, row_support):
    """(ls, theta, tops), or None when some connected component of the
    diagram is not of finite type.  ls[i] > 0 with C[i][j] L[j] ==
    C[j][i] L[i], scaled per component; theta[i] is the coefficient of
    a_i in the highest root of i's component; tops holds (size, long
    simple root, height of the highest root) per component.

    The only finite-type test is the walk from a longest simple root
    that raises by each simple reflection pairing negatively with it;
    it fails once a coefficient passes 6.  In a finite type the walk
    stops at the highest root, the dominant root in the Weyl orbit of a
    long simple root (Humphreys, Introduction to Lie Algebras, 10.4
    Lemma A), and no coefficient there passes 6 (E8's highest root has
    the largest).  Outside finite type it never stops.  Apply Kac,
    Infinite dimensional Lie algebras, Thm 4.3 to C^T, a generalized
    Cartan matrix that _cartan_rows has validated: in an indefinite type
    no nonzero v >= 0 pairs nonnegatively with every simple coroot, and
    in an affine type such a v lies on the line of delta, which holds
    no real root.  Each raise adds at least 1 to the height, so within
    6n raises some coefficient passes 6.  L is scaled breadth-first over
    the component, which fixes it on a finite type's tree.  Components
    are disjoint, so every per-node quantity lives in one list indexed
    by node.
    """
    n = len(c)
    ls = [0] * n  # 0 until the node's component is scaled
    num, den, theta, pairing = [0] * n, [0] * n, [0] * n, [0] * n
    tops = []
    for first in range(n):
        if ls[first]:
            continue
        # breadth-first over the component, L as fractions in lowest terms
        order = [first]
        num[first] = den[first] = 1
        for i in order:
            for j, x in row_support[i]:
                if not den[j]:
                    # C[i][j] L[j] == C[j][i] L[i]; both entries are negative
                    p, q = -num[i] * c[j][i], -den[i] * x
                    g = gcd(p, q)
                    num[j], den[j] = p // g, q // g
                    order.append(j)
        scale = lcm(*[den[i] for i in order])
        for i in order:
            ls[i] = num[i] * (scale // den[i])
        start = max(order, key=ls.__getitem__)
        theta[start] = height = 1
        for j, x in row_support[start]:
            pairing[j] = x
        stack = [j for j, x in row_support[start] if x < 0]
        while stack:
            i = stack.pop()
            p = pairing[i]
            if p >= 0:
                continue
            k = theta[i] - p
            if k > 6:  # above E8's highest root: no finite type
                return None
            theta[i] = k
            height -= p
            for j, x in row_support[i]:
                y = pairing[j] - p * x
                pairing[j] = y
                if y < 0:
                    stack.append(j)
        tops.append((len(order), start, height))
    return ls, theta, tops


def generate_roots(cartan) -> RootSystemData:
    """Root data of a finite-type Cartan matrix.

    In the call: the matrix is frozen and validated, each connected
    component is walked from a longest simple root to its highest root
    theta (_finite_components), and h^vee = 1 + sum_i theta_i L_i / L_theta.
    The walk is the finite-type test: it stops within coefficient 6
    exactly on a finite type (Kac, Thm 4.3), so an affine or indefinite
    matrix, where it never stops, is refused with the reflection
    closure's message, as is a direct sum of finite types with more
    roots than max(240, 2 n^2), the most any finite type of rank n has
    (it has n (ht theta + 1)).  Any other direct sum is not connected.

    roots and lengths are left unset.  Their first read closes the roots
    from the record's cartan (_close_roots), checks that highest_root is
    the top root, and sets both fields.

    >>> rs = generate_roots(cartan_matrix(DynkinDiagram("A", 2)))
    >>> (len(rs.roots), rs.dual_coxeter, rs.highest_root)
    (6, 3, (1, 1))
    >>> rs.roots
    ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1))
    """
    c = intmat.freeze(cartan)
    n = len(c)
    # nonzero entries of each Cartan row: reflection i changes only these pairings
    row_support = _cartan_rows(c)
    split = _finite_components(c, row_support)
    bound = max(240, 2 * n * n)
    if split is None or sum([size * (1 + height) for size, _, height in split[2]]) > bound:
        raise ValueError(f"reflection closure exceeded the safety bound of {bound} "
                         f"roots for rank {n}; not a finite type")
    ls, theta, tops = split
    if len(tops) > 1:
        raise ValueError("Cartan matrix is not connected")
    start = tops[0][1]
    highest = tuple(theta)
    # h^vee = 1 + sum_i highest[i] (a_i, a_i) / (theta, theta)
    weight, rest = divmod(sum(map(mul, theta, ls)), ls[start])
    if rest:
        raise AssertionError("dual Coxeter number came out non-integral")
    rs = RootSystemData.__new__(RootSystemData)
    for name, value in (("cartan", c), ("highest_root", highest),
                        ("dual_coxeter", 1 + weight)):
        object.__setattr__(rs, name, value)
    return rs


def root_system(d: DynkinDiagram) -> RootSystemData:
    return generate_roots(cartan_matrix(d))


def fundamental_group(d: DynkinDiagram, dual: bool = False) -> tuple[FinAbGroup, Rows]:
    """Weight lattice mod root lattice (coweights mod coroots when dual).

    Returned as (group, projection) straight from intmat.cokernel.

    >>> fundamental_group(DynkinDiagram("A", 5))[0].divisors
    (6,)
    """
    c = cartan_matrix(d)
    # a simply-laced Cartan matrix is symmetric: its transpose is itself
    return intmat.cokernel(intmat.transpose(c) if dual and not d.simply_laced else c)


def simple_reflection(cartan, i: int) -> Matrix:
    """Simple reflection as an ambient matrix compatible with cokernel(cartan).

    Column i is e_i minus column i of the Cartan matrix; all other
    columns are standard.  This is the reflection on the (co)weight
    lattice in the basis for which cartan's columns span the (co)root
    sublattice, so it always preserves that sublattice.
    """
    c = intmat.freeze(cartan)
    n = len(c)
    s = [[1 if r == k else 0 for k in range(n)] for r in range(n)]
    for r in range(n):
        s[r][i] -= c[r][i]
    return intmat.freeze(s)


def long_root_subsystem(d: DynkinDiagram) -> DynkinDiagram:
    """Sub-root-system spanned by the long simple roots.

    Simply-laced types are their own answer; in B, C, F and G the long
    nodes always form a path, so the answer is A_k for k long nodes.

    >>> str(long_root_subsystem(DynkinDiagram("B", 7)))
    'A6'
    >>> str(long_root_subsystem(DynkinDiagram("F", 4)))
    'A2'
    """
    if d.simply_laced:
        return d
    ls = _length_squares(d)
    return DynkinDiagram("A", ls.count(max(ls)))


def _perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # p after q, as their permutation matrices multiply: composite[i] = p[q[i]]
    return tuple([p[i] for i in q])


class _ReadOnlyDict(dict):
    """A dict that refuses every change after construction, so it hashes."""
    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("folding generators are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return self.__class__, (dict(self),)


class FoldingDatum(FrozenRecord):
    """A diagram, its simply-laced unfolding, and the folding symmetry.

    generators, a read-only copy of the argument (so a folding hashes),
    maps generator labels to node permutations of gamma_hat (perm[i] is
    the image of node i, 0-based).  The labels are those of the symmetry
    group in modrep, checked there with its relations: "s" for the
    order-2 generator and additionally "t" (order 3) when the group is
    S3.  quotient_groups names the finite subgroup pair (H in H-hat)
    whose quotient surface realizes the singularity (the McKay
    correspondence); it is purely documentary.
    """

    __slots__ = ("gamma", "gamma_hat", "symmetry", "generators", "quotient_groups")

    def __init__(
        self,
        gamma: DynkinDiagram,
        gamma_hat: DynkinDiagram,
        symmetry: str,  # "trivial" | "C2" | "S3"
        generators: dict[str, tuple[int, ...]] | None = None,
        quotient_groups: tuple[str, str] = ("", ""),
    ) -> None:
        if not gamma_hat.simply_laced:
            raise ValueError(f"unfolding {gamma_hat} is not simply laced")
        generators = {} if generators is None else generators
        # a permutation that maps each nonzero off-diagonal Cartan entry to
        # an equal one also maps the zeros to zeros
        entries = _off_diagonal(gamma_hat)
        n = gamma_hat.rank
        for label, perm in generators.items():
            if sorted(perm) != list(range(n)):
                raise ValueError(f"generator {label} is not a permutation")
            for (i, j), x in entries.items():
                if entries.get((perm[i], perm[j])) != x:
                    raise ValueError(
                        f"generator {label} is not a diagram automorphism"
                    )
        ident = tuple(range(n))
        for label, order in (("s", 2), ("t", 3)):
            if generators.get(label) == ident:
                raise ValueError(f"generator {label} must have order exactly {order}")
        check_relations(symmetry, generators, ident, _perm_compose)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_hat", gamma_hat)
        object.__setattr__(self, "symmetry", symmetry)
        object.__setattr__(self, "generators", _ReadOnlyDict(generators))
        object.__setattr__(self, "quotient_groups", quotient_groups)

    def symmetry_order(self) -> int:
        return len(self.elements())

    def elements(self) -> dict[str, tuple[int, ...]]:
        """All group elements as node permutations, keyed by reduced word.

        A word composes its letters as their permutation matrices
        multiply, so it acts right to left: "st" applies t, then s.
        """
        return group_elements(self.symmetry, self.generators,
                              tuple(range(self.gamma_hat.rank)), _perm_compose)


def _binary_dihedral(order: int) -> str:
    return f"binary dihedral of order {order}"


def _homogeneous_quotient(d: DynkinDiagram) -> str:
    if d.series == "A":
        return f"cyclic of order {d.rank + 1}"
    if d.series == "D":
        return _binary_dihedral(4 * (d.rank - 2))
    return {6: "binary tetrahedral", 7: "binary octahedral", 8: "binary icosahedral"}[
        d.rank
    ]


def folding(d: DynkinDiagram) -> FoldingDatum:
    """Unfold a diagram to its simply-laced cover with folding symmetry.

    Simply-laced input folds trivially to itself.

    >>> f = folding(DynkinDiagram("B", 3))
    >>> (str(f.gamma_hat), f.symmetry, f.generators["s"])
    ('A5', 'C2', (4, 3, 2, 1, 0))
    """
    n = d.rank
    if d.simply_laced:
        h = _homogeneous_quotient(d)
        return FoldingDatum(d, d, "trivial", {}, (h, h))
    if d.series == "B":
        hat = DynkinDiagram("A", 2 * n - 1)
        flip = tuple(2 * n - 2 - i for i in range(2 * n - 1))
        return FoldingDatum(
            d, hat, "C2", {"s": flip},
            (f"cyclic of order {2 * n}", _binary_dihedral(4 * n)),
        )
    if d.series == "C":
        quotients = (_binary_dihedral(4 * (n - 1)), _binary_dihedral(8 * (n - 1)))
        if n == 2:
            # the general target D_3 is the inadmissible spelling of A_3
            return FoldingDatum(d, DynkinDiagram("A", 3), "C2", {"s": (2, 1, 0)}, quotients)
        hat = DynkinDiagram("D", n + 1)
        swap = tuple(range(n + 1))
        swap = swap[: n - 1] + (n, n - 1)
        return FoldingDatum(d, hat, "C2", {"s": swap}, quotients)
    if d.series == "F":
        hat = DynkinDiagram("E", 6)
        # 1<->6, 3<->5 in Bourbaki labels
        flip = (5, 1, 4, 3, 2, 0)
        return FoldingDatum(
            d, hat, "C2", {"s": flip}, ("binary tetrahedral", "binary octahedral")
        )
    # G2 -> D4 with the full triality group
    hat = DynkinDiagram("D", 4)
    s = (0, 1, 3, 2)      # swap the two fork tails
    t = (2, 1, 3, 0)      # rotate the three outer nodes
    return FoldingDatum(
        d, hat, "S3", {"s": s, "t": t}, (_binary_dihedral(8), "binary octahedral")
    )


def _permutation_matrix(perm: tuple[int, ...]) -> Matrix:
    # entry (i, j) is 1 where perm[j] == i
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm):
        rows[i][j] = 1
    return _built(tuple(map(tuple, rows)))


def symmetry_action_on_fundamental_group(f: FoldingDatum) -> EquivariantAbGroup:
    """Induced action of the folding symmetry on the unfolding's P/Q.

    The fundamental group of gamma_hat with one induced torsion matrix
    per generator, transported through intmat.induced_endomorphism.
    """
    c = cartan_matrix(f.gamma_hat)
    group, _ = intmat.cokernel(c)
    action = {
        label: intmat.induced_endomorphism(c, _permutation_matrix(perm))
        for label, perm in f.generators.items()
    }
    return EquivariantAbGroup(group=group, action=action)
