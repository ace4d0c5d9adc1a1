"""Exact integer matrix arithmetic: Smith normal form, cokernels, induced maps.

Everything is pure and deterministic.  Matrices are tuples of tuples of
Python ints (arbitrary precision, so coefficient growth during reduction
can never overflow or wrap).  Inputs are accepted as any nested sequence
of ints and checked by freeze; no function mutates its arguments.  A
checked matrix is a Matrix, a tuple subclass that compares, hashes and
prints as its plain tuple of tuples, and freeze passes a Matrix through
unchanged, so a matrix decnum built is checked once.  transpose,
multiply, rootsys.cartan_matrix and rootsys._permutation_matrix build
their never-empty results as a Matrix directly: ints in give ints out.
Here and throughout the package an integer is an object of type int: a
matrix entry, rank, degree, exponent, divisor or prime that is a bool
or another int subclass is refused like a float.

Smith reduction works on sparse rows in one loop that makes no call
per elementary operation: a row or column addition updates the entries
it touches, and their column sets, in place, so it costs those nonzero
entries, and the pivot scan takes each row's least (magnitude, column)
pair in one min() call.  The loop logs each operation instead of
carrying the transforms u and v.  A caller replays the log only for
the rows it reads, at O(1) per operation and row: cokernel the rows of
u with invariant factor other than 1 (at most two for a Cartan matrix),
induced_endomorphism those rows times g times u^-1.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from math import inf, prod
from operator import attrgetter

# a tuple of tuples of ints that may be empty, so not a Matrix
Rows = tuple[tuple[int, ...], ...]


class Matrix(tuple):
    """A checked matrix: a nonempty tuple of equal-length nonempty tuples
    of ints.

    Matrix(m) copies any nested sequence and checks it.  A Matrix
    equals, hashes and prints as its plain tuple of tuples, and pickles
    and copies through this check again.

    >>> Matrix([[1, 2], [3, 4]])
    ((1, 2), (3, 4))
    """

    __slots__ = ()

    def __new__(cls, m: Sequence[Sequence[int]]) -> Matrix:
        rows = tuple([tuple(row) for row in m])
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            if set(map(type, row)) != {int}:
                e = next(e for e in row if type(e) is not int)
                raise ValueError(f"non-integer entry {e!r}")
        return tuple.__new__(cls, rows)

    def __reduce__(self):
        return Matrix, (tuple(self),)


def _built(rows: Rows) -> Matrix:
    # unchecked: only for rows decnum built from ints, nonempty and
    # rectangular by construction
    return tuple.__new__(Matrix, rows)


class LatticeError(ValueError):
    """An endomorphism does not preserve the relevant lattice."""


def freeze(m: Sequence[Sequence[int]]) -> Matrix:
    """m as a Matrix: checked once, or returned unchanged if it is one.

    >>> freeze([[1, 2], [3, 4]])
    ((1, 2), (3, 4))
    """
    return m if type(m) is Matrix else Matrix(m)


def identity(n: int) -> Rows:
    return tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)])


def transpose(m: Sequence[Sequence[int]]) -> Matrix:
    return _built([*zip(*freeze(m))])


def multiply(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    a, b = freeze(a), freeze(b)
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} * {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    return _built([
        tuple([sum([x * y for x, y in zip(row, col)]) for col in bt]) for row in a
    ])


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
    # n - 1 = d 2^s with d odd: (n - 1) & (1 - n) is its lowest set bit
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
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
    if type(ell) is int and ell >= PRIME_BOUND:
        raise ValueError(
            f"ell must be a prime below 2**64, got a {ell.bit_length()}-bit integer"
        )
    if type(ell) is not int or not is_prime(ell):
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
    """A Record whose fields are set once in __init__, by object.__setattr__
    or by the slot descriptor's __set__."""

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

    def __init__(self, u: Rows, d: Rows, v: Rows) -> None:
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
            if type(d) is not int or d < 2:
                raise ValueError(f"invalid invariant factor {d!r}")
        for a, b in zip(divisors, divisors[1:]):
            if b % a != 0:
                raise ValueError(f"divisor chain broken: {a} does not divide {b}")
        if type(free_rank) is not int or free_rank < 0:
            raise ValueError(f"invalid free rank {free_rank!r}")
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "free_rank", free_rank)

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


def _reduce(m: Matrix) -> tuple[list[dict[int, int]], list, list]:
    """Smith reduction of m on sparse rows: (rows, row log, column log).

    Each row of a is a dict {column: nonzero entry}, and cols[j] is the
    set of rows with a nonzero entry in column j.  The pivot rule is
    row-major order, least magnitude, least column within a row,
    stopping at the first row with a unit, so the operations are those
    of a dense reduction.  Swaps, additions and the witness step are
    written out in the loop, with no helper call per operation; they are
    logged, not applied to transforms: see _replay.
    """
    columns = range(len(m[0]))
    a = [{j: row[j] for j in compress(columns, row)} for row in m]
    cols = [set() for _ in columns]
    for i, row in enumerate(a):
        for j in row:
            cols[j].add(i)
    rowlog, collog = [], []
    n = len(a)
    for s in range(min(n, len(cols))):
        repivot = True
        last = inf
        while True:
            if repivot:
                # move the pivot to (s, s); rows s on hold the whole block
                e = 0
                for i in range(s, n):
                    if a[i]:
                        x, k = min(zip(map(abs, a[i].values()), a[i]))
                        if not e or x < e:
                            e, r, j = x, i, k
                            if x == 1:
                                break
                if not e:
                    return a, rowlog, collog
                if e >= last:  # each pass lowers |p| (see below), so the step ends
                    raise AssertionError(f"repivot at step {s} did not lower |p| = {last}")
                last = e
                if r != s:
                    for k in a[s].keys() ^ a[r].keys():
                        cols[k] ^= {s, r}
                    a[s], a[r] = a[r], a[s]
                    rowlog.append((s, r, 0))
                if j != s:
                    for i in cols[s] | cols[j]:
                        row = a[i]
                        if s not in row:
                            row[s] = row.pop(j)
                        elif j not in row:
                            row[j] = row.pop(s)
                        else:
                            row[s], row[j] = row[j], row[s]
                    cols[s], cols[j] = cols[j], cols[s]
                    collog.append((s, j, 0))
            pivot, column = a[s], cols[s]
            p = pivot[s]
            if p < 0:
                for k in pivot:
                    pivot[k] = -pivot[k]
                rowlog.append((s, s, -1))
                p = -p
            # clear column s below and row s to the right; rows and columns
            # left of s are clear, so s sorts first.  Floor quotients leave
            # remainders in [0, p), so magnitudes shrink each pass.  p is least
            # in column s, so no row q is 0; row s may hold less after a witness
            for i in sorted(column)[1:]:
                row = a[i]
                q = -(row[s] // p)
                for k, y in pivot.items():
                    if k in row:
                        x = row[k] + q * y
                        if x:
                            row[k] = x
                        else:
                            del row[k]
                            cols[k].remove(i)
                    else:
                        row[k] = q * y
                        cols[k].add(i)
                rowlog.append((i, s, q))
            for j in sorted(pivot)[1:]:
                q = -(pivot[j] // p)
                if q:
                    for i in column:
                        row = a[i]
                        if j in row:
                            x = row[j] + q * row[s]
                            if x:
                                row[j] = x
                            else:
                                del row[j]
                                cols[j].remove(i)
                        else:
                            row[j] = q * row[s]
                            cols[j].add(i)
                    collog.append((s, j, q))
            repivot = len(column) > 1 or len(pivot) > 1
            if repivot:
                continue
            # cross is clear; enforce pivot | rest of block (a unit divides all)
            if p == 1:
                break
            for witness in range(s + 1, n):
                if any(map(p.__rmod__, a[witness].values())):
                    break
            else:
                break
            # row s is p e_s and the witness row is 0 in column s, so their
            # sum adds the witness row's entries as new ones
            pivot.update(a[witness])
            for k in a[witness]:
                cols[k].add(s)
            rowlog.append((s, witness, 1))
    return a, rowlog, collog


def _replay(ops, x: list[int], sign: int = 1) -> list[int]:
    """The row vector x times the logged elementary matrices, in order.

    A log entry (i, j, q) is the swap of i and j when q == 0, the
    negation of i when i == j, and else I + q e_i e_j^T: as a row
    operation it adds q times row j to row i, as a column operation q
    times column i to column j.  On a row vector each costs O(1): x
    times I + q e_i e_j^T is x with x[j] += q x[i].  So row r of
    u = E_k...E_1 replays the row log backwards on e_r, x u^-1 replays
    it forwards with sign -1, and row r of v = F_1...F_m replays the
    column log forwards on e_r.
    """
    for i, j, q in ops:
        if i == j:
            x[i] = -x[i]
        elif q:
            x[j] += sign * q * x[i]
        else:
            x[i], x[j] = x[j], x[i]
    return x


def _unit(n: int, i: int) -> list[int]:
    x = [0] * n
    x[i] = 1
    return x


def smith_normal_form(m: Sequence[Sequence[int]]) -> SnfResult:
    """Smith normal form with unimodular transforms.

    >>> r = smith_normal_form([[2, -1], [-1, 2]])
    >>> r.diagonal()
    (1, 3)
    """
    m = freeze(m)
    a, rowlog, collog = _reduce(m)
    rows, cols = len(m), len(m[0])
    rowlog.reverse()
    return SnfResult(
        u=tuple([tuple(_replay(rowlog, _unit(rows, i))) for i in range(rows)]),
        d=tuple([tuple([row.get(j, 0) for j in range(cols)]) for row in a]),
        v=tuple([tuple(_replay(collog, _unit(cols, i))) for i in range(cols)]),
    )


def _effective_diagonal(a: list[dict[int, int]]) -> list[int]:
    # one entry per row: the SNF diagonal entry, or 0 for rows past it
    return [row.get(i, 0) for i, row in enumerate(a)]


def cokernel(m: Sequence[Sequence[int]]) -> tuple[FinAbGroup, Rows]:
    """Cokernel Z^rows / (column lattice of m), with projection.

    Returns (group, projection) where projection row i gives the image of
    the i-th standard basis vector: torsion coordinates first (one per
    invariant factor, in divisor order, reduced mod that divisor), then
    free coordinates.

    >>> g, p = cokernel([[2, -1], [-1, 2]])
    >>> (g.divisors, g.free_rank)
    ((3,), 0)
    """
    a, rowlog, _ = _reduce(freeze(m))
    rows = len(a)
    eff = _effective_diagonal(a)
    divisors = [d for d in eff if d >= 2]
    group = FinAbGroup(tuple(divisors), eff.count(0))
    # only the rows of u with eff != 1 are read, torsion before free as in
    # eff: they are the projection's columns.  Tuples come from zip and
    # lists: tuple(iterator) resizes a guess, which fills CPython's tuple
    # free lists
    rowlog.reverse()
    u = [_replay(rowlog, _unit(rows, i)) for i, d in enumerate(eff) if d != 1]
    u[:len(divisors)] = [list(map(d.__rmod__, x)) for d, x in zip(divisors, u)]
    return group, tuple(list(zip(*u)) or [()] * rows)


def induced_endomorphism(
    m: Sequence[Sequence[int]], g: Sequence[Sequence[int]]
) -> Rows:
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
    a, rowlog, _ = _reduce(m)
    eff = _effective_diagonal(a)
    # in u-coordinates the image lattice is the span of eff[j] * e_j over
    # eff[j] > 0; g preserves it iff eff[i] | eff[j] * h[i][j] throughout,
    # for h = u g u^-1.  Rows with eff[i] == 1 pass trivially, so only the
    # rows with eff[i] != 1 of h are formed, each as (u[i] g) u^-1.
    backwards = rowlog[::-1]
    h = {i: _replay(rowlog, _row_times(_replay(backwards, _unit(rows, i)), g), -1)
         for i, d in enumerate(eff) if d != 1}
    for j in range(rows):
        for i, row in h.items():
            val = eff[j] * row[j]
            ok = (val == 0) if eff[i] == 0 else (val % eff[i] == 0)
            if not ok:
                raise LatticeError(
                    "endomorphism does not preserve image lattice "
                    f"(coordinate ({i}, {j}))"
                )
    torsion_idx = [i for i, d in enumerate(eff) if d >= 2]
    return tuple([
        tuple([h[i][j] % eff[i] for j in torsion_idx]) for i in torsion_idx
    ])


def _row_times(row: Sequence[int], m: Matrix) -> list[int]:
    # the row vector row * m, over the nonzero entries of the rows it
    # weights, each row read in one pass as _reduce reads it
    out = [0] * len(m[0])
    cols = range(len(out))
    for x, mrow in zip(row, m):
        if x:
            for j in compress(cols, mrow):
                out[j] += x * mrow[j]
    return out
