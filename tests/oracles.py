"""Independent oracles used by the test suite.

Everything here recomputes or checks expectations from first
principles, by routes deliberately different from the package's own
algorithms:

* Fraction-based linear algebra for lattice membership and coset
  enumeration (no Smith reduction);
* a certificate for each cokernel and induced endomorphism: the
  projection kills the columns and is onto, and the orders agree with a
  determinant or the determinantal divisor (no Smith reduction; it
  checks the answer, whatever reduction produced it);
* a dense Smith reduction that carries its transforms (no operation
  log), which pins u, d, v and every projection;
* closed-form root system numerology, and a dense reflection closure
  (no carried pairings);
* a submodule-lattice walk for composition factors (no character
  theory), and central idempotents for S3 factors (no eigenspaces);
* the McKay abelianisation for the middle link torsion (no Cartan
  matrix), and the McKay types of the folding quotient groups (no
  diagram);
* a dict-based stalk calculus (no graded module objects).

Values frozen in the tests were produced by these functions.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import compress, product
from math import lcm, prod

from decnum import intmat
from decnum.rootsys import EXCEPTIONAL, SERIES_MIN_RANK, DynkinDiagram


# ---------------------------------------------------------------- lattices

def solve_exact(m, y):
    """Unique rational solution of m a = y for square nonsingular m.

    Returns a tuple of Fractions, or None if m is singular.
    """
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(y[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y2 for x, y2 in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def in_column_lattice(m, x) -> bool:
    """Membership of x in the column lattice of square nonsingular m."""
    sol = solve_exact(m, x)
    if sol is None:
        raise ValueError("lattice oracle needs a nonsingular matrix")
    return all(f.denominator == 1 for f in sol)


def coset_representatives(m) -> list[tuple[int, ...]]:
    """Representatives of Z^n / (columns of m), m square nonsingular.

    Breadth-first walk from the origin along standard basis directions,
    deduplicating with the membership oracle.  Order is deterministic.
    """
    n = len(m)

    def same(x, y):
        return in_column_lattice(m, tuple(a - b for a, b in zip(x, y)))

    reps = [tuple(0 for _ in range(n))]
    frontier = list(reps)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                for delta in (1, -1):
                    w = tuple(v[j] + (delta if j == i else 0) for j in range(n))
                    if not any(same(w, r) for r in reps):
                        reps.append(w)
                        nxt.append(w)
        frontier = nxt
    return reps


def coset_action(m, g, reps) -> list[int]:
    """Permutation induced by g on coset representatives: index list."""

    def locate(x):
        for k, r in enumerate(reps):
            if in_column_lattice(m, tuple(a - b for a, b in zip(x, r))):
                return k
        raise AssertionError("coset not found")

    n = len(m)
    out = []
    for r in reps:
        gx = tuple(sum(g[i][j] * r[j] for j in range(n)) for i in range(n))
        out.append(locate(gx))
    return out


# --------------------------------------------------- dense Smith reduction

class _DenseReduction:
    """Smith reduction state on dense rows: u m v == a and uinv == u^-1.

    The same pivot rule as intmat: row-major order, least magnitude,
    stopping at the first unit.  Every elementary operation is applied
    to a and to the transforms at once.
    """

    def __init__(self, m):
        self.a = [list(row) for row in m]
        self.rows, self.cols = len(m), len(m[0])
        self.u = [[int(i == j) for j in range(self.rows)] for i in range(self.rows)]
        self.uinv = [list(row) for row in self.u]
        self.v = [[int(i == j) for j in range(self.cols)] for i in range(self.cols)]

    def row_swap(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for r in self.uinv:
            r[i], r[j] = r[j], r[i]

    def row_negate(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]
        for r in self.uinv:
            r[i] = -r[i]

    def row_addmul(self, i, j, q):
        """row i += q * row j."""
        self.a[i] = [x + q * y for x, y in zip(self.a[i], self.a[j])]
        self.u[i] = [x + q * y for x, y in zip(self.u[i], self.u[j])]
        for r in self.uinv:
            r[j] -= q * r[i]

    def col_swap(self, i, j):
        for r in self.a + self.v:
            r[i], r[j] = r[j], r[i]

    def col_addmul(self, j, k, q):
        """col j += q * col k."""
        for r in self.a + self.v:
            r[j] += q * r[k]


def _dense_smallest(a, s):
    best, best_abs = None, 0
    for i in range(s, len(a)):
        for j in range(s, len(a[0])):
            e = a[i][j]
            if e and (best is None or abs(e) < best_abs):
                best, best_abs = (i, j), abs(e)
                if best_abs == 1:
                    return best
    return best


def dense_reduction(m) -> _DenseReduction:
    """Smith reduction of m with u, u^-1 and v carried in full."""
    st = _DenseReduction(m)
    a, rows, cols = st.a, st.rows, st.cols
    for s in range(min(rows, cols)):
        pos = _dense_smallest(a, s)
        if pos is None:
            break
        st.row_swap(s, pos[0])
        st.col_swap(s, pos[1])
        while True:
            if a[s][s] < 0:
                st.row_negate(s)
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s] and a[i][s] // a[s][s]:
                    st.row_addmul(i, s, -(a[i][s] // a[s][s]))
                dirty = dirty or a[i][s] != 0
            for j in range(s + 1, cols):
                if a[s][j] and a[s][j] // a[s][s]:
                    st.col_addmul(j, s, -(a[s][j] // a[s][s]))
                dirty = dirty or a[s][j] != 0
            if dirty:
                pos = _dense_smallest(a, s)
                st.row_swap(s, pos[0])
                st.col_swap(s, pos[1])
                continue
            if a[s][s] == 1:
                break
            witness = next((i for i in range(s + 1, rows)
                            if any(x % a[s][s] for x in a[i][s + 1:])), None)
            if witness is None:
                break
            st.row_addmul(s, witness, 1)
    return st


def _effective_diagonal(st):
    return [st.a[i][i] if i < min(st.rows, st.cols) else 0 for i in range(st.rows)]


def dense_cokernel(st):
    """(divisors, free rank, projection) of a dense_reduction, as
    intmat.cokernel reports them."""
    eff = _effective_diagonal(st)
    tor = [i for i, d in enumerate(eff) if d >= 2]
    free = [i for i, d in enumerate(eff) if d == 0]
    proj = tuple(tuple(st.u[i][k] % eff[i] for i in tor) + tuple(st.u[i][k] for i in free)
                 for k in range(st.rows))
    return tuple(eff[i] for i in tor), len(free), proj


def dense_induced(st, g):
    """intmat.induced_endomorphism from the rows of h = u g u^-1 of a
    dense_reduction, or the LatticeError message for the first
    coordinate it checks that fails."""
    eff = _effective_diagonal(st)
    n = st.rows
    # rows with eff[i] == 1 pass the lattice check whatever they hold
    read = [i for i in range(n) if eff[i] != 1]

    def times(row, mat):
        return [sum(x * mat[k][j] for k, x in enumerate(row) if x) for j in range(n)]

    h = {i: times(times(st.u[i], g), st.uinv) for i in read}
    for j in range(n):
        for i in read:
            val = eff[j] * h[i][j]
            if eff[j] and ((val != 0) if eff[i] == 0 else (val % eff[i] != 0)):
                return ("endomorphism does not preserve image lattice "
                        f"(coordinate ({i}, {j}))")
    tor = [i for i, d in enumerate(eff) if d >= 2]
    return tuple(tuple(h[i][j] % eff[i] for j in tor) for i in tor)


# ------------------------------------------------------ Smith certificates
#
# A certificate checks an answer, not the algorithm that produced it
# (McConnell, Mehlhorn, Naeher and Schweitzer, Certifying algorithms,
# Comput. Sci. Rev. 5, 2011).  A projection P from Z^rows to
# G = Z/d_1 x ... x Z/d_t x Z^f that kills the columns of M induces a
# map coker M -> G, onto when P is.  If moreover f = rows - rank M and
# d_1 ... d_t is the order of the torsion of coker M, the map is an
# isomorphism: its kernel has rank 0, so it lies in that torsion, and
# the orders leave it only 0.  None of this runs a Smith reduction.

def _nonzero_rows(m):
    columns = range(len(m[0]))
    return [list(zip(compress(columns, row), compress(row, row))) for row in m]


def _tree_determinant(m, rows):
    """det m by eliminating leaves, O(n) once the nonzero entries are
    known, for an m whose off-diagonal nonzero pattern is a forest; None
    for another pattern or a zero pivot.

    Each pivot is an exact rational num[v] / den[v].  Eliminating a leaf
    v of pivot a/b changes only its neighbour u's pivot, by the Schur
    complement -m[u][v] m[v][u] b / a; then den[u] is the product of
    the eliminated neighbours' num, so the product of all pivots is the
    product of num over the last vertex of each component.
    """
    n = len(m)
    num, den = [m[i][i] for i in range(n)], [1] * n
    adj = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j, _ in row:
            if j != i:
                adj[i].add(j)
                adj[j].add(i)
    det, left = 1, n
    leaves = [i for i in range(n) if len(adj[i]) <= 1]
    while leaves:
        v = leaves.pop()
        left -= 1
        if not adj[v]:
            det *= num[v]
            continue
        if not num[v]:
            return None
        (u,) = adj[v]
        num[u] = num[u] * num[v] - m[u][v] * m[v][u] * den[v] * den[u]
        den[u] *= num[v]
        adj[u].remove(v)
        if len(adj[u]) == 1:
            leaves.append(u)
    return det if left == 0 else None


def _echelon(rows, width):
    """(pivots, rest) of the rows: Euclid's steps between them clear each
    column c < width in all rows but one, which is set aside as column c's
    pivot, and the rest are the rows left zero there.  The steps are
    unimodular, so the pivots and the rest span what the rows span."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(width):
        live = [r for r in rows if r[c]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not p:
                    q = r[c] // p[c]
                    r[:] = [x - q * y for x, y in zip(r, p)]
            live = [r for r in live if r[c]]
        if live:
            pivots.append(live[0])
            rows = [r for r in rows if r is not live[0]]
    return pivots, rows


def _determinantal(m):
    """(rank m, D_r), D_r the gcd of the r x r minors of m for r = rank m,
    which is the torsion order of coker m.  Unimodular row and then
    column operations keep every determinantal divisor, and bring m to
    an r x r triangular block, so D_r is the product of its diagonal."""
    rows, _ = _echelon(m, len(m[0]))
    cols, _ = _echelon(zip(*rows), len(rows)) if rows else ([], [])
    return len(rows), prod(abs(p[c]) for c, p in enumerate(cols))


def _onto(divisors, free_rank, proj) -> bool:
    """Whether the rows of proj and d_j e_j for the torsion coordinates
    span Z^k: the Hermite form of the k columns, a gcd for a cyclic
    group, has a unit pivot in each."""
    k = len(divisors) + free_rank
    relations = [[d if c == j else 0 for c in range(k)] for j, d in enumerate(divisors)]
    pivots, _ = _echelon(relations + list(proj), k)
    return len(pivots) == k and all(abs(p[c]) == 1 for c, p in enumerate(pivots))


def _images(rows, width, proj, divisors):
    """Column j of the matrix with these nonzero rows, mapped by proj,
    for each j < width: torsion coordinates reduced, free ones exact."""
    k = len(proj[0]) if proj else 0
    out = [[0] * k for _ in range(width)]
    for row, p in zip(rows, proj):
        for j, x in row:
            image = out[j]
            for c in range(k):
                image[c] += x * p[c]
    for image in out:
        for c, d in enumerate(divisors):
            image[c] %= d
    return out


def cokernel_fault(m, divisors, free_rank, proj):
    """The first condition of the cokernel certificate that the answer
    (divisors, free_rank, proj) for m fails, or None when it is
    certified: the shape, P killing the columns, P onto, and the orders.

    The torsion order of coker m is |det m| for square nonsingular m
    with a forest pattern, by leaf elimination at any size.  Otherwise
    the free rank is rows - rank m and the torsion order is the gcd of
    the (rank m)-minors, read off a triangular form.
    """
    rows, t = len(m), len(divisors)
    k = t + free_rank
    if any(type(d) is not int or d < 2 for d in divisors) or any(
            b % a for a, b in zip(divisors, divisors[1:])):
        return f"divisors {divisors} are not an invariant factor chain"
    if len(proj) != rows or any(len(row) != k for row in proj) or any(
            not 0 <= row[c] < d for row in proj for c, d in enumerate(divisors)):
        return "projection of the wrong shape or unreduced"
    nonzero = _nonzero_rows(m)
    for j, image in enumerate(_images(nonzero, len(m[0]), proj, divisors)):
        if any(image):
            return f"column {j} maps to {image}, not 0"
    if not _onto(divisors, free_rank, proj):
        return "projection is not onto"
    det = _tree_determinant(m, nonzero) if rows == len(m[0]) else None
    r, torsion = (rows, abs(det)) if det else _determinantal(m)
    if free_rank != rows - r:
        return f"free rank {free_rank}; rows - rank is {rows - r}"
    if prod(divisors) != torsion:
        return f"torsion order {prod(divisors)}; the {r}x{r} minors have gcd {torsion}"
    return None


def _relations(vectors):
    """A basis of the integer x with sum x_i v_i = 0: the rest of the
    echelon of the rows [v_i | e_i], read on their e part."""
    width = len(vectors[0])
    _, rest = _echelon([list(v) + [int(i == j) for j in range(len(vectors))]
                        for i, v in enumerate(vectors)], width)
    return [r[width:] for r in rest]


def induced_fault(m, g, divisors, free_rank, proj, h):
    """The first condition of the induced certificate that fails, or
    None: h is induced_endomorphism(m, g), or None for a LatticeError,
    and proj a projection for m that cokernel_fault certified.

    Then x lies in the column lattice of m exactly when proj maps it to
    0, so g preserves the lattice iff each column of g m maps to 0.  h
    is g on the torsion T of the cokernel: h P(x) = P(g x) on the torsion
    coordinates for every x of a basis of the x with P(x) in T, the
    basis vectors e_i when the cokernel is finite.
    """
    t = len(divisors)
    pg = _images(_nonzero_rows(g), len(g), proj, ())  # P(g e_i), unreduced
    moved = next((j for j, image in enumerate(
        _images(_nonzero_rows(m), len(m[0]), pg, divisors)) if any(image)), None)
    if h is None:
        return None if moved is not None else "LatticeError, yet g preserves the lattice"
    if moved is not None:
        return f"g moves column {moved} out of the lattice, yet no LatticeError"
    if len(h) != t or any(len(row) != t for row in h) or any(
            not 0 <= x < d for row, d in zip(h, divisors) for x in row):
        return "induced matrix of the wrong shape or unreduced"
    pairs = zip(proj, pg)
    if free_rank:
        basis = _relations([row[t:] for row in proj])
        pairs = [([sum(c * p[k] for c, p in zip(x, proj)) for k in range(t)],
                  [sum(c * p[k] for c, p in zip(x, pg)) for k in range(t)]) for x in basis]
    for p, image in pairs:
        for a, d in enumerate(divisors):
            if (sum(x * y for x, y in zip(h[a], p)) - image[a]) % d:
                return f"h P(x) and P(g x) differ in coordinate {a} at x = {p}"
    return None


def certify(m, endomorphisms=()):
    """(group, projection, induced, faults): intmat.cokernel(m), and for
    each g intmat.induced_endomorphism(m, g) or the LatticeError it
    raised, with the faults their certificates find (none when every
    answer is certified)."""
    group, proj = intmat.cokernel(m)
    faults = [cokernel_fault(m, group.divisors, group.free_rank, proj)]
    induced = []
    for g in endomorphisms:
        try:
            h = intmat.induced_endomorphism(m, g)
        except intmat.LatticeError as e:
            h = e
        induced.append(h)
        faults.append(induced_fault(m, g, group.divisors, group.free_rank, proj,
                                    None if isinstance(h, intmat.LatticeError) else h))
    return group, proj, induced, [fault for fault in faults if fault is not None]


# -------------------------------------------------------------- root counts

# every finite type of rank at most 8: A1-A8, B2-B8, C2-C8, D4-D8, E6-E8,
# F4 and G2
ALL_DIAGRAMS_RANK_LE_8 = tuple(
    DynkinDiagram(s, n)
    for s in ("A", "B", "C", "D", "E", "F", "G")
    for n in range(1, 9)
    if (s in SERIES_MIN_RANK and n >= SERIES_MIN_RANK[s]) or (s, n) in EXCEPTIONAL
)

ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}

DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}


# highest roots of the classical series in simple-root coordinates
# (Bourbaki, Lie VI, plates I-IV)
HIGHEST_ROOT = {
    "A": lambda n: (1,) * n,
    "B": lambda n: (1,) + (2,) * (n - 1),
    "C": lambda n: (2,) * (n - 1) + (1,),
    "D": lambda n: (1,) + (2,) * (n - 3) + (1, 1),
}


def reference_root_system(cartan):
    """Dense reflection closure: (roots, lengths, highest_root, dual_coxeter).

    Each reflection recomputes its coroot pairing in full and each
    root's squared length comes from the full quadratic form, so the
    cost is O(n) per reflection and O(n^2) per root.  Roots are sorted,
    lengths are "long"/"short" as in rootsys.RootSystemData.  Only for
    finite types with at most 1000 roots.
    """
    c = tuple(tuple(row) for row in cartan)
    n = len(c)

    def reflect(v, i):
        w = list(v)
        w[i] -= sum(c[j][i] * v[j] for j in range(n))
        return tuple(w)

    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = reflect(v, i)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if len(seen) > 1000:
            raise ValueError("reference closure exceeded 1000 roots")
        frontier = nxt

    roots = tuple(sorted(seen))
    # symmetrizer L with C[i][j] L[j] == C[j][i] L[i], walked along edges
    vals = {0: Fraction(1)}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if j not in vals and c[i][j]:
                vals[j] = vals[i] * Fraction(c[j][i], c[i][j])
                queue.append(j)
    scale = lcm(*(v.denominator for v in vals.values()))
    ls = [int(vals[j] * scale) for j in range(n)]

    # (v, v) up to the common factor 1/2: sum_ij v_i v_j C[i][j] L[j]
    def norm(v):
        return sum(v[i] * v[j] * c[i][j] * ls[j] for i in range(n) for j in range(n))

    norms = [norm(v) for v in roots]
    top = max(norms)
    lengths = tuple("long" if nm == top else "short" for nm in norms)

    positive = [v for v in roots if all(x >= 0 for x in v)]
    highest = max(positive, key=sum)
    for v in roots:
        assert all(h >= x for h, x in zip(highest, v)), "highest root fails to dominate"
    theta_norm = norm(highest)
    acc = 1 + sum(Fraction(highest[i] * 2 * ls[i], theta_norm) for i in range(n))
    assert acc.denominator == 1, "dual Coxeter number came out non-integral"
    return roots, lengths, highest, int(acc)


# ------------------------------------------------- modular composition factors

def _matvec(m, v, p):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) % p for i in range(len(m)))


def _echelon_insert(basis, v, p):
    """Insert v into a row-echelon basis (list of pivot-normalized rows).

    Returns True if v enlarged the span.
    """
    v = list(v)
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x)
        if v[pivot]:
            f = v[pivot]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    if not any(v):
        return False
    pivot = next(i for i, x in enumerate(v) if x)
    inv = pow(v[pivot], p - 2, p)
    basis.append([x * inv % p for x in v])
    basis.sort(key=lambda row: next(i for i, x in enumerate(row) if x))
    return True


def _closure(gens, mats, p, stop=None):
    """Echelon basis of the submodule the gens generate.

    With stop, the walk gives up once the basis has stop vectors, and
    returns that partial basis: the caller only asks whether the
    submodule is smaller than that.
    """
    basis: list[list[int]] = []
    for g in gens:
        _echelon_insert(basis, g, p)
    changed = True
    while changed:
        changed = False
        for row in list(basis):
            for m in mats:
                if _echelon_insert(basis, _matvec(m, row, p), p):
                    if stop is not None and len(basis) >= stop:
                        return basis
                    changed = True
    return basis


def _inverse_mod(m, p):
    n = len(m)
    a = [[m[i][j] % p for j in range(n)] + [1 if i == j else 0 for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], p - 2, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _projective_points(dim: int, p: int):
    """One vector per line of F_p^dim: the one whose first nonzero entry is 1.

    A vector and its nonzero multiples generate the same submodule.  The
    points come in lexicographic order, which is the order in which a walk
    over all of product(range(p), repeat=dim) first meets each line.
    """
    for lead in reversed(range(dim)):
        head = (0,) * lead + (1,)
        for tail in product(range(p), repeat=dim - 1 - lead):
            yield head + tail


def brute_composition_factors(action: dict, dim: int, p: int) -> Counter:
    """Composition factor labels by walking minimal submodules.

    action maps generator labels ("s" and/or "t") to dim x dim matrices
    mod p.  Only correct for the groups in scope (orders 1, 2, 6), whose
    simple modules have dimension at most 2.  Exponential in dim; keep
    p ** dim modest.
    """
    mats = [tuple(tuple(e % p for e in row) for row in m) for m in action.values()]
    if dim == 0:
        return Counter()

    best = None
    for v in _projective_points(dim, p):
        basis = _closure([v], mats, p, best and len(best))
        if best is None or len(basis) < len(best):
            best = basis
        if len(best) == 1:
            break
    sub = best
    k = len(sub)

    if k == 1:
        w = sub[0]
        scalars = []
        for m in mats:
            img = _matvec(m, w, p)
            pivot = next(i for i, x in enumerate(w) if x)
            scalar = img[pivot] * pow(w[pivot], p - 2, p) % p
            assert _matvec(m, w, p) == tuple(x * scalar % p for x in w)
            scalars.append(scalar)
        label = "eps" if any(s == p - 1 and p != 2 for s in scalars) else "1"
        if all(s == 1 for s in scalars):
            label = "1"
    else:
        assert k == 2, "minimal submodule of unexpected dimension"
        label = "psi"

    # extend the submodule basis to a full basis by standard vectors;
    # keep the submodule vectors first and unmodified so the change of
    # basis is block lower-triangular on the submodule
    full = [list(row) for row in sub]
    echelon = [row[:] for row in sub]
    for i in range(dim):
        if len(full) == dim:
            break
        e = [1 if j == i else 0 for j in range(dim)]
        if _echelon_insert(echelon, e, p):
            full.append(e)
    # columns of b are the basis vectors (submodule first)
    b = [[full[c][r] for c in range(dim)] for r in range(dim)]
    binv = _inverse_mod(b, p)
    quotient = {}
    for label2, m in action.items():
        prod_bm = [[sum(binv[i][x] * m[x][j] for x in range(dim)) % p
                    for j in range(dim)] for i in range(dim)]
        q = [[sum(prod_bm[i][x] * b[x][j] for x in range(dim)) % p
              for j in range(dim)] for i in range(dim)]
        quotient[label2] = tuple(
            tuple(q[i][j] for j in range(k, dim)) for i in range(k, dim)
        )
    result = Counter([label])
    result.update(brute_composition_factors(quotient, dim - k, p))
    return result


def idempotent_s3_multiplicities(s, t, dim: int, p: int) -> dict[str, int]:
    """Multiplicities of "1", "eps" and "psi" in an S3 representation
    over F_p, p >= 5, by its central idempotents.

    Such a representation is semisimple (p does not divide 6).  The sum
    of the six group elements is 6 times the projection onto the
    trivial part, and the sum with the odd words (those with an s)
    negated is 6 times the projection onto the sign part, so their ranks
    count "1" and "eps"; "psi" takes the rest, two dimensions each.
    """
    def mul(a, b):
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]

    def rank(m):
        basis: list[list[int]] = []
        return sum(_echelon_insert(basis, row, p) for row in m)

    e = [[int(i == j) for j in range(dim)] for i in range(dim)]
    tt = mul(t, t)
    even, odd = (e, t, tt), (s, mul(s, t), mul(s, tt))
    total = [[sum(m[i][j] for m in even + odd) % p for j in range(dim)]
             for i in range(dim)]
    signed = [[(sum(m[i][j] for m in even) - sum(m[i][j] for m in odd)) % p
               for j in range(dim)] for i in range(dim)]
    one, eps = rank(total), rank(signed)
    rest = dim - one - eps
    assert rest >= 0 and rest % 2 == 0, "S3 idempotent accounting failed"
    return {"1": one, "eps": eps, "psi": rest // 2}


# ------------------------------------------------------------- McKay route

def mckay_abelianisation(series: str, rank: int) -> tuple[int, ...]:
    """Invariant factors of Gamma^ab, Gamma the binary polyhedral group
    of the simply-laced type series + rank, without a Cartan matrix.

    The link of C^2/Gamma is S^3/Gamma, so Gamma^ab is its H^2.  Gamma
    is cyclic of order n + 1 for A_n.  Otherwise it is
    <a, b, c | a^p = b^q = c^r = abc> with (p, q, r) = (2, 2, n - 2) for
    D_n and (2, 3, k - 3) for E_k, and Gamma^ab is the cokernel of the
    relation matrix below, reduced by dense_reduction.
    """
    if series == "A":
        return (rank + 1,)
    p, q, r = (2, 2, rank - 2) if series == "D" else (2, 3, rank - 3)
    relations = [[p - 1, -1, -1], [-1, q - 1, -1], [-1, -1, r - 1]]
    divisors, free, _ = dense_cokernel(dense_reduction(relations))
    assert not free, "binary polyhedral groups are finite"
    return divisors


_POLYHEDRAL = {
    "binary tetrahedral": ("E6", 24),
    "binary octahedral": ("E7", 48),
    "binary icosahedral": ("E8", 120),
}


def mckay_type(group: str) -> tuple[str, int]:
    """(simply-laced type, order) of a finite subgroup of SL_2(C), by name.

    The McKay correspondence: cyclic of order n is A_{n-1}; binary
    dihedral of order 4m is D_{m+2}, spelled A3 when m = 1 (that group is
    cyclic of order 4); binary tetrahedral, octahedral and icosahedral
    are E6, E7 and E8.
    """
    if group in _POLYHEDRAL:
        return _POLYHEDRAL[group]
    family, _, order = group.partition(" of order ")
    n = int(order)
    if family == "cyclic":
        return f"A{n - 1}", n
    assert family == "binary dihedral" and n % 4 == 0, group
    return ("A3" if n == 4 else f"D{n // 4 + 2}"), n


# ------------------------------------------------------------ stalk calculus
#
# A band is (open_dim d, raw degree -> (rank or None, invariant factors),
# known window (lo, hi) or None for a full table).  Answers are plain
# dicts keyed by shifted degree (raw - d); a request the band cannot
# answer is STALK_REFUSED, and one whose graded objects would have a
# nonzero degree outside the support window is OUT_OF_WINDOW.

STALK_OFFSETS = {"!": -2, "!*": -1, "*": 0}
STALK_REFUSED = "refused"
OUT_OF_WINDOW = "out of window"


def _band_entry(entries, window, deg):
    if window is None:
        return entries.get(deg, (0, ()))
    return entries[deg] if window[0] <= deg <= window[1] else None


def _band_degrees(entries, window):
    return sorted(entries) if window is None else range(window[0], window[1] + 1)


def _valuations(torsion, ell):
    exps = []
    for t in torsion:
        e = 0
        while t % ell == 0:
            t, e = t // ell, e + 1
        if e:
            exps.append(e)
    return tuple(sorted(exps, reverse=True))


def _fits(degrees, support):
    return all(support[0] <= deg <= support[1] for deg in degrees)


def _mod_pi_dims(graded):
    """F-dimensions of a complex with cohomology graded: each torsion
    summand counts in its own degree and once more one degree down."""
    dims = Counter()
    for deg, (rank, exps) in graded.items():
        dims[deg] += rank + len(exps)
        dims[deg - 1] += len(exps)
    return {deg: v for deg, v in sorted(dims.items()) if v}


def reference_stalk(band, perversity, kind, support):
    """Integral flavor stalk: the link truncated at d + offset, plus for
    p+ the torsion one degree higher."""
    d, entries, window = band
    top = d + STALK_OFFSETS[kind]
    if window is not None and top + 1 > window[1]:
        return STALK_REFUSED
    out = {}
    for deg in _band_degrees(entries, window):
        if deg <= top:
            rank, torsion = entries.get(deg, (0, ()))
            if rank is None:
                return STALK_REFUSED
            if rank or torsion:
                out[deg - d] = (rank, tuple(sorted(torsion, reverse=True)))
    if perversity == "p+":
        edge = _band_entry(entries, window, top + 1)
        if edge is None:
            return STALK_REFUSED
        if edge[1]:
            out[top + 1 - d] = (0, tuple(sorted(edge[1], reverse=True)))
    return out if _fits(out, support) else OUT_OF_WINDOW


def reference_localize(stalk, ell):
    out = {}
    for deg, (rank, torsion) in stalk.items():
        exps = _valuations(torsion, ell)
        if rank or exps:
            out[deg] = (rank, exps)
    return out


def reference_f_stalk(band, kind, ell, support):
    """F_ell stalk for perversity p: the whole localized band (entries of
    unknown rank left out) reduced mod pi, then cut to the known degrees
    at or below the offset."""
    d, entries, window = band
    top = STALK_OFFSETS[kind]
    if window is not None and d + top + 1 > window[1]:
        return STALK_REFUSED
    localized = {}
    for deg in _band_degrees(entries, window):
        rank, torsion = entries.get(deg, (0, ()))
        if rank is not None:
            localized[deg - d] = (rank, _valuations(torsion, ell))
    dims = _mod_pi_dims(localized)
    if not _fits(dims, support):
        return OUT_OF_WINDOW
    floor = float("-inf") if window is None else window[0] - d
    return {deg: v for deg, v in dims.items() if floor <= deg <= top}


def reference_decomposition(band, ell, support):
    """Count of middle invariant factors divisible by ell, once the
    Euler hypotheses hold and both p,!* stalks can be formed."""
    d, entries, window = band
    below, middle, above = (_band_entry(entries, window, d + k) for k in (-1, 0, 1))
    if None in (below, middle, above):
        return STALK_REFUSED
    if below != (0, ()) or above[1] or middle[0] is None:
        return STALK_REFUSED
    stalk = reference_stalk(band, "p", "!*", support)
    if stalk in (STALK_REFUSED, OUT_OF_WINDOW):
        return stalk
    if not _fits(_mod_pi_dims(reference_localize(stalk, ell)), support):
        return OUT_OF_WINDOW
    if reference_f_stalk(band, "!*", ell, support) == OUT_OF_WINDOW:
        return OUT_OF_WINDOW
    return sum(1 for t in middle[1] if t % ell == 0)
