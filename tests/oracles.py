"""Independent oracles used by the test suite.

Everything here recomputes expectations from first principles, by
routes deliberately different from the package's own algorithms:
Fraction-based linear algebra for lattice membership and coset
enumeration (no Smith reduction), closed-form root system numerology,
a dense reflection closure for root systems (no carried pairings), a
dense Smith reduction that carries its transforms (no operation log),
the logged sparse reduction with one helper call per elementary step
(no inlined loop), a submodule-lattice walk for composition factors
(no character theory), central idempotents for S3 factors (no eigenspaces), the McKay
abelianisation for the middle link torsion (no Cartan matrix), the
McKay types of the folding quotient groups (no diagram), the
dense generalized-Cartan check (no sparse rows), and the module
constructors and stalk refusals with one helper call per check (no
inlined checks).  Values frozen in the tests were produced by these
functions.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import compress, product
from math import inf, lcm

from decnum import intmat, omodule, perverse
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



def reference_sparse_reduction(m):
    """intmat's logged sparse Smith reduction as it stood before its
    elimination loop was inlined: (rows, row log, column log).

    Each elementary step goes through a small helper, and every entry
    scanned for the pivot becomes an (abs, column) tuple, so the pivot
    rule reads off directly: row-major order, least magnitude, least
    column within a row, stopping at the first row holding a unit.
    Each row of a is a dict {column: nonzero entry}, and cols[j] is the
    set of rows with a nonzero entry in column j.
    """
    columns = range(len(m[0]))
    a = [dict(zip(compress(columns, row), compress(row, row))) for row in m]
    cols = [set() for _ in m[0]]
    for i, row in enumerate(a):
        for j in row:
            cols[j].add(i)
    rowlog, collog = [], []

    def row_swap(i, j):
        if i != j:
            for k in a[i].keys() ^ a[j].keys():
                cols[k] ^= {i, j}
            a[i], a[j] = a[j], a[i]
            rowlog.append((i, j, 0))

    def col_swap(i, j):
        if i != j:
            for r in cols[i] | cols[j]:
                row = a[r]
                x, y = row.pop(i, 0), row.pop(j, 0)
                if x:
                    row[j] = x
                if y:
                    row[i] = y
            cols[i], cols[j] = cols[j], cols[i]
            collog.append((i, j, 0))

    def add(row, r, k, x):
        # row r gains x in column k
        x += row.get(k, 0)
        if x:
            if k not in row:
                cols[k].add(r)
            row[k] = x
        else:
            del row[k]
            cols[k].discard(r)

    def pivot_to(s):
        # the nonzero entry of least magnitude, row-major, in rows s on
        # (their entries left of column s are already cleared)
        best = None
        for i in range(s, len(a)):
            if a[i]:
                e, j = min((abs(x), j) for j, x in a[i].items())
                if best is None or e < best[0]:
                    best = (e, i, j)
                    if e == 1:
                        break
        if best is not None:
            row_swap(s, best[1])
            col_swap(s, best[2])
        return best

    for s in range(min(len(a), len(cols))):
        if pivot_to(s) is None:
            break
        while True:
            p = a[s][s]
            if p < 0:
                a[s] = {k: -x for k, x in a[s].items()}
                rowlog.append((s, s, -1))
                p = -p
            # clear column s below and row s to the right; floor quotients
            # leave remainders in [0, pivot), so magnitudes shrink each pass
            dirty = False
            for i in sorted(cols[s] - {s}):
                q = -(a[i][s] // p)
                if q:
                    for k, y in a[s].items():
                        add(a[i], i, k, q * y)
                    rowlog.append((i, s, q))
                dirty = dirty or s in a[i]
            for j in sorted(a[s].keys() - {s}):
                q = -(a[s][j] // p)
                if q:
                    for r in list(cols[s]):
                        add(a[r], r, j, q * a[r][s])
                    collog.append((s, j, q))
                dirty = dirty or j in a[s]
            if dirty:
                pivot_to(s)
                continue
            # cross is clear; enforce pivot | rest of block (a unit divides all)
            if p == 1:
                break
            witness = next((i for i in range(s + 1, len(a))
                            if any(x % p for x in a[i].values())), None)
            if witness is None:
                break
            for k, y in a[witness].items():
                add(a[s], s, k, y)
            rowlog.append((s, witness, 1))
    return a, rowlog, collog


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


def reference_validate_cartan(c) -> None:
    """The dense generalized-Cartan check: the first failing (i, j) in
    row-major order names the ValueError, the diagonal of a row before
    its entries and, at one entry, a positive value before an
    asymmetric zero pattern.  O(n^2) for any sparsity."""
    n = len(c)
    if len(c[0]) != n:
        raise ValueError("Cartan matrix must be square")
    for i in range(n):
        if c[i][i] != 2:
            raise ValueError("Cartan diagonal must be 2")
        for j in range(n):
            if i != j:
                if c[i][j] > 0:
                    raise ValueError("positive off-diagonal Cartan entry")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise ValueError("asymmetric Cartan zero pattern")


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


# ---------------------------------------------------------- graded modules
#
# The graded constructors and functors as they were when every
# constructor collected its entries and then sorted them, and
# reduce_graded probed module_at on every degree of the span.  Values
# come back as ascending (degree, value) tuples; the window is read
# through omodule.degree_window, so a counting patch sees both routes.

def _reference_check_degree(deg, window):
    lo, hi = window
    if not lo <= deg <= hi:
        raise omodule.DegreeWindowError(
            f"degree {deg} outside support window [{lo}, {hi}]"
        )


def reference_graded_items(modules):
    """GradedOModule(modules).items(), by collect-then-sort."""
    items = modules.items() if isinstance(modules, Mapping) else modules
    store = {}
    window = None
    for deg, mod in items:
        if type(deg) is not int:
            raise ValueError(f"non-integer degree {deg!r}")
        if not isinstance(mod, omodule.OModule):
            raise ValueError(f"degree {deg}: expected OModule, got {mod!r}")
        if deg in store:
            raise ValueError(f"degree {deg} listed twice")
        if mod.is_zero():
            continue
        window = window or omodule.degree_window()
        _reference_check_degree(deg, window)
        store[deg] = mod
    return tuple(sorted(store.items()))


def reference_f_items(dims):
    """FGraded(dims) as its ascending (degree, dimension) pairs."""
    store = {}
    window = None
    for deg, dim in dims.items():
        if type(deg) is not int or type(dim) is not int:
            raise ValueError(f"bad graded dimension entry {deg!r}: {dim!r}")
        if dim < 0:
            raise ValueError(f"negative dimension at degree {deg}")
        if dim:
            window = window or omodule.degree_window()
            _reference_check_degree(deg, window)
            store[deg] = dim
    return tuple(sorted(store.items()))


def reference_reduce_graded(items):
    """reduce_graded on graded items: every degree from one below the
    lowest to the highest, each read in place and one above."""
    if not items:
        return reference_f_items({})
    by_degree = dict(items)
    dims = {}
    for deg in range(min(by_degree) - 1, max(by_degree) + 1):
        here = by_degree.get(deg, omodule.ZERO)
        above = by_degree.get(deg + 1, omodule.ZERO)
        dims[deg] = here.rank + len(here.torsion) + len(above.torsion)
    return reference_f_items(dims)


def reference_truncate_F(items, n, floor):
    """truncate_F on (degree, dimension) items."""
    return reference_f_items({d: v for d, v in dict(items).items() if floor <= d <= n})


# ------------------------------------------------ per-check constructors
#
# OModule as it was when it sorted every torsion tuple and checked each
# exponent in its own loop pass, returning (rank, torsion).  The graded
# constructors' per-entry checks, in the same order and with the same
# messages, are reference_graded_items and reference_f_items above.

def per_check_omodule(rank, torsion=()):
    if type(rank) is not int or rank < 0:
        raise ValueError(f"invalid rank {rank!r}")
    tors = tuple(sorted(torsion, reverse=True))
    for e in tors:
        if type(e) is not int or e < 1:
            raise ValueError(f"invalid torsion exponent {e!r}")
    return rank, tors


# ------------------------------------------------------ per-check stalks
#
# perverse.extension_stalk, f_extension_stalk and decomposition_number
# as they were when every check read the cone's bounds again through
# its own helper (coverage, floor, entry_or_none per degree) and the
# band looked each known degree up through known_degrees().  They build
# their answers with the public graded functors and raise ConeError
# with the same messages, so a test can compare the messages one by one.

def _per_check_band(c, cap=inf, ell=None, skip_unknown=False):
    d = c.open_dim
    link = c.link_cohomology
    out = {}
    for deg in c.known_degrees():
        if deg > cap:
            break
        entry = link.get(deg, perverse.ZERO_ENTRY)
        rank, torsion = entry.rank, entry.torsion
        if rank is None:
            if skip_unknown:
                continue
            raise perverse.ConeError(f"insufficient link data: rank unknown at degree {deg}")
        if torsion and ell is not None:
            torsion = _valuations(torsion, ell)
        if rank or torsion:
            out[deg - d] = omodule.OModule(rank, torsion)
    return out


def _per_check_require(entry, what):
    if entry is None:
        raise perverse.ConeError(f"insufficient link data: {what}")
    return entry


def _per_check_covered(c, f):
    if c.open_dim + f.shifted_threshold + 1 > c._bounds()[1]:
        raise perverse.ConeError(
            "insufficient link data: window does not cover the "
            f"truncation threshold for {f.label()}"
        )


def per_check_extension_stalk(c, f):
    _per_check_covered(c, f)
    threshold = c.open_dim + f.shifted_threshold
    stalk = _per_check_band(c, cap=threshold)
    if f.plus:
        edge = _per_check_require(
            c.entry_or_none(threshold + 1), "no entry above the threshold"
        )
        if edge.torsion:
            stalk[f.shifted_threshold + 1] = omodule.OModule(0, edge.torsion)
    return omodule.GradedOModule(stalk)


def per_check_f_extension_stalk(c, f, ell):
    if f.perversity != "p":
        raise perverse.ConeError("field-coefficient stalks are defined for perversity p only")
    intmat.check_prime(ell)
    _per_check_covered(c, f)
    band = omodule.GradedOModule(_per_check_band(c, ell=ell, skip_unknown=True))
    reduced = omodule.reduce_graded(band)
    return omodule.truncate_F(reduced, f.shifted_threshold, c._bounds()[0] - c.open_dim)


def per_check_decomposition_number(c, ell):
    intmat.check_prime(ell)
    d = c.open_dim
    below = _per_check_require(c.entry_or_none(d - 1), f"degree {d - 1} outside window")
    middle = _per_check_require(c.entry_or_none(d), f"degree {d} outside window")
    above = _per_check_require(c.entry_or_none(d + 1), f"degree {d + 1} outside window")
    if below.rank is None or not below.is_zero():
        raise perverse.ConeError(f"hypotheses not met: H^{d - 1} of the link must vanish")
    if above.torsion:
        raise perverse.ConeError(
            f"hypotheses not met: H^{d + 1} of the link must be torsion-free"
        )
    if middle.rank is None:
        raise perverse.ConeError(f"insufficient link data: rank unknown at degree {d}")
    flavor = perverse.FLAVOR_CHAIN[2]  # p,!*
    o_side = omodule.reduce_graded(
        perverse.localize_stalk(per_check_extension_stalk(c, flavor), ell)
    )
    f_side = per_check_f_extension_stalk(c, flavor, ell)
    floor = c._bounds()[0] - d
    return sum(
        dim if deg % 2 == 0 else -dim for deg, dim in o_side.items() if deg >= floor
    ) - f_side.euler_characteristic()
