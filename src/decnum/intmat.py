"""Exact integer matrix arithmetic: Smith normal form, cokernels, induced maps.

Everything is pure and deterministic.  Matrices are tuples of tuples of
Python ints (arbitrary precision, so coefficient growth during reduction
can never overflow or wrap).  Inputs are accepted as any nested sequence
of ints and frozen on entry; no function mutates its arguments.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod
from operator import attrgetter

Matrix = tuple[tuple[int, ...], ...]


class LatticeError(ValueError):
    """An endomorphism does not preserve the relevant lattice."""


def freeze(m: Sequence[Sequence[int]]) -> Matrix:
    """Copy a nested sequence into a validated tuple-of-tuples matrix.

    >>> freeze([[1, 2], [3, 4]])
    ((1, 2), (3, 4))
    """
    rows = tuple(map(tuple, m))
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix")
        if set(map(type, row)) != {int}:
            # name the first entry that is not an int (bool is refused)
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError(f"non-integer entry {e!r}")
    return rows


def identity(n: int) -> Matrix:
    return tuple(map(tuple, _identity_rows(n)))


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def transpose(m: Sequence[Sequence[int]]) -> Matrix:
    m = freeze(m)
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def multiply(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    a, b = freeze(a), freeze(b)
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} * {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    m = freeze(m)
    n = len(m)
    if len(m[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: division is exact at every step
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: Sequence[Sequence[int]]) -> bool:
    return abs(determinant(m)) == 1


# Deterministic Miller-Rabin with these bases is exact below 2**64
# (Sorenson and Webster, Math. Comp. 86 (2017)); larger n are refused
PRIME_BOUND = 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Primality of an integer below PRIME_BOUND; larger n raise ValueError.

    >>> [n for n in range(-1, 40) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    >>> is_prime(2**61 - 1), is_prime(3215031751)
    (True, False)
    """
    if n <= 7:
        return n in (2, 3, 5, 7)
    if n >= PRIME_BOUND:
        raise ValueError(f"{n.bit_length()}-bit input; primality is decided below 2**64")
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(ell) -> None:
    """Refuse anything but a prime int below PRIME_BOUND with ValueError."""
    if isinstance(ell, int) and ell >= PRIME_BOUND:
        raise ValueError(
            f"ell must be a prime below 2**64, got a {ell.bit_length()}-bit integer"
        )
    if not isinstance(ell, int) or not is_prime(ell):
        raise ValueError(f"ell must be a prime, got {ell!r}")


class Record:
    """Base of the package's value classes.

    A subclass names its fields in __slots__, in constructor order, and
    defines __init__.  Records compare field by field with records of
    the same class only, repr as ClassName(field=value, ...), and pickle
    and copy by calling the constructor again on their field values.  A
    Record is mutable and unhashable; a FrozenRecord is neither.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # every field in one call: a tuple, or a lone field's value
            cls._key = staticmethod(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])


class FrozenRecord(Record):
    """A Record whose fields are set once, by object.__setattr__ in __init__."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SnfResult(FrozenRecord):
    """Smith decomposition u * input * v == d.

    u and v are unimodular; d is diagonal with nonnegative entries and
    each diagonal entry divides the next.
    """

    __slots__ = ("u", "d", "v")

    def __init__(self, u: Matrix, d: Matrix, v: Matrix) -> None:
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "v", v)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]))))


class FinAbGroup(FrozenRecord):
    """Finitely generated abelian group in invariant-factor form.

    divisors are the torsion invariant factors, each >= 2 and each
    dividing the next; free_rank counts Z summands.

    >>> FinAbGroup((2, 4), 1).order()
    Traceback (most recent call last):
        ...
    ValueError: infinite group has no order
    >>> str(FinAbGroup((2, 4)))
    'Z/2 x Z/4'
    """

    __slots__ = ("divisors", "free_rank")

    def __init__(self, divisors: tuple[int, ...] = (), free_rank: int = 0) -> None:
        divisors = tuple(divisors)
        for d in divisors:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invalid invariant factor {d!r}")
        for a, b in zip(divisors, divisors[1:]):
            if b % a != 0:
                raise ValueError(f"divisor chain broken: {a} does not divide {b}")
        if not isinstance(free_rank, int) or free_rank < 0:
            raise ValueError(f"invalid free rank {free_rank!r}")
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "free_rank", free_rank)

    def is_trivial(self) -> bool:
        return not self.divisors and self.free_rank == 0

    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return prod(self.divisors)

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.divisors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " x ".join(parts) if parts else "0"


class _Reduction:
    """Mutable state for Smith reduction with transform tracking.

    Maintains u * original * v == a and uinv == u^-1 throughout, using
    only elementary (determinant +-1) operations.  u is always tracked;
    uinv and v only when asked for.  An untracked transform is an empty
    list, so the loops that update it run over nothing.
    """

    def __init__(self, m: Matrix, uinv: bool = False, v: bool = False):
        self.a = [list(row) for row in m]
        self.rows = len(m)
        self.cols = len(m[0])
        self.u = _identity_rows(self.rows)
        self.uinv = _identity_rows(self.rows) if uinv else []
        self.v = _identity_rows(self.cols) if v else []

    # row ops act on a and u on the left; uinv picks up the inverse op
    # on the right (as column operations) so uinv stays the exact inverse.

    def row_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for r in self.uinv:
            r[i], r[j] = r[j], r[i]

    def row_negate(self, i: int) -> None:
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]
        for r in self.uinv:
            r[i] = -r[i]

    def row_addmul(self, i: int, j: int, q: int) -> None:
        """row i += q * row j (i != j)."""
        if q == 0:
            return
        self.a[i] = [x + q * y for x, y in zip(self.a[i], self.a[j])]
        self.u[i] = [x + q * y for x, y in zip(self.u[i], self.u[j])]
        for r in self.uinv:
            r[j] -= q * r[i]

    def col_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        for r in self.a:
            r[i], r[j] = r[j], r[i]
        for r in self.v:
            r[i], r[j] = r[j], r[i]

    def col_addmul(self, j: int, k: int, q: int) -> None:
        """col j += q * col k (j != k)."""
        if q == 0:
            return
        for r in self.a:
            r[j] += q * r[k]
        for r in self.v:
            r[j] += q * r[k]


def _smallest_entry(a: list[list[int]], s: int, rows: int, cols: int):
    """Position of the nonzero entry of least magnitude in the block [s:, s:].

    Scan order is row-major and only a strictly smaller magnitude displaces
    the current choice, so the result is deterministic.  Nothing displaces
    a unit, so the scan stops at the first one.
    """
    best = None
    best_abs = 0
    for i in range(s, rows):
        row = a[i]
        for j in range(s, cols):
            e = row[j]
            if e != 0 and (best is None or abs(e) < best_abs):
                best = (i, j)
                best_abs = abs(e)
                if best_abs == 1:
                    return best
    return best


def _snf_state(m: Matrix, uinv: bool = False, v: bool = False) -> _Reduction:
    st = _Reduction(m, uinv, v)
    a, rows, cols = st.a, st.rows, st.cols
    for s in range(min(rows, cols)):
        pos = _smallest_entry(a, s, rows, cols)
        if pos is None:
            break
        st.row_swap(s, pos[0])
        st.col_swap(s, pos[1])
        while True:
            if a[s][s] < 0:
                st.row_negate(s)
            # clear column s below and row s to the right; floor quotients
            # leave remainders in [0, pivot), so magnitudes shrink each pass
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s] != 0:
                    st.row_addmul(i, s, -(a[i][s] // a[s][s]))
                    if a[i][s] != 0:
                        dirty = True
            for j in range(s + 1, cols):
                if a[s][j] != 0:
                    st.col_addmul(j, s, -(a[s][j] // a[s][s]))
                    if a[s][j] != 0:
                        dirty = True
            if dirty:
                pos = _smallest_entry(a, s, rows, cols)
                st.row_swap(s, pos[0])
                st.col_swap(s, pos[1])
                continue
            # cross is clear; enforce pivot | rest of block (a unit divides all)
            if a[s][s] == 1:
                break
            witness = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if a[i][j] % a[s][s] != 0:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            st.row_addmul(s, witness, 1)
    return st


def smith_normal_form(m: Sequence[Sequence[int]]) -> SnfResult:
    """Smith normal form with unimodular transforms.

    >>> r = smith_normal_form([[2, -1], [-1, 2]])
    >>> r.diagonal()
    (1, 3)
    """
    st = _snf_state(freeze(m), v=True)
    return SnfResult(
        u=tuple(tuple(r) for r in st.u),
        d=tuple(tuple(r) for r in st.a),
        v=tuple(tuple(r) for r in st.v),
    )


def _effective_diagonal(st: _Reduction) -> list[int]:
    # one entry per row: the SNF diagonal entry, or 0 for rows past it
    k = min(st.rows, st.cols)
    return [st.a[i][i] if i < k else 0 for i in range(st.rows)]


def cokernel(m: Sequence[Sequence[int]]) -> tuple[FinAbGroup, Matrix]:
    """Cokernel Z^rows / (column lattice of m), with projection.

    Returns (group, projection) where projection row i gives the image of
    the i-th standard basis vector: torsion coordinates first (one per
    invariant factor, in divisor order, reduced mod that divisor), then
    free coordinates.

    >>> g, p = cokernel([[2, -1], [-1, 2]])
    >>> (g.divisors, g.free_rank)
    ((3,), 0)
    """
    st = _snf_state(freeze(m))
    eff = _effective_diagonal(st)
    torsion_idx = [i for i, d in enumerate(eff) if d >= 2]
    free_idx = [i for i, d in enumerate(eff) if d == 0]
    group = FinAbGroup(tuple(eff[i] for i in torsion_idx), len(free_idx))
    proj = tuple(
        tuple(st.u[i][k] % eff[i] for i in torsion_idx)
        + tuple(st.u[i][k] for i in free_idx)
        for k in range(st.rows)
    )
    return group, proj


def induced_endomorphism(
    m: Sequence[Sequence[int]], g: Sequence[Sequence[int]]
) -> Matrix:
    """Matrix of the endomorphism g induces on the torsion of cokernel(m).

    g must be a square endomorphism of the ambient Z^rows carrying the
    column lattice of m into itself; otherwise LatticeError is raised.
    The result acts on torsion coordinates, entries reduced mod the
    matching divisor.
    """
    m = freeze(m)
    g = freeze(g)
    rows = len(m)
    if len(g) != rows or len(g[0]) != rows:
        raise ValueError(f"endomorphism must be {rows}x{rows}")
    st = _snf_state(m, uinv=True)
    eff = _effective_diagonal(st)
    # in u-coordinates the image lattice is the span of eff[j] * e_j over
    # eff[j] > 0; g preserves it iff eff[i] | eff[j] * h[i][j] throughout,
    # for h = u g u^-1.  Rows with eff[i] == 1 pass trivially, so only the
    # rows with eff[i] != 1 of h are formed, each as (u[i] g) u^-1.
    h = {i: _row_times(_row_times(st.u[i], g), st.uinv)
         for i, d in enumerate(eff) if d != 1}
    for j in range(rows):
        if eff[j] == 0:
            continue
        for i, row in h.items():
            val = eff[j] * row[j]
            ok = (val == 0) if eff[i] == 0 else (val % eff[i] == 0)
            if not ok:
                raise LatticeError(
                    "endomorphism does not preserve image lattice "
                    f"(coordinate ({i}, {j}))"
                )
    torsion_idx = [i for i, d in enumerate(eff) if d >= 2]
    return tuple(
        tuple(h[i][j] % eff[i] for j in torsion_idx) for i in torsion_idx
    )


def _row_times(row: Sequence[int], m: Sequence[Sequence[int]]) -> list[int]:
    # the row vector row * m, summing only the rows of m that row weights
    out = [0] * len(m[0])
    for x, mrow in zip(row, m):
        if x:
            out = [o + x * y for o, y in zip(out, mrow)]
    return out
