"""Smith reduction, cokernels and induced endomorphisms."""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
import re

import pytest

from decnum import intmat, rootsys
from decnum.intmat import (
    PRIME_BOUND,
    FinAbGroup,
    LatticeError,
    Matrix,
    check_prime,
    cokernel,
    determinant,
    freeze,
    identity,
    induced_endomorphism,
    is_prime,
    is_unimodular,
    multiply,
    smith_normal_form,
    transpose,
)

import oracles

A2 = ((2, -1), (-1, 2))


def random_matrix(rng, rows, cols, bound=20):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def check_snf_contract(m):
    r = smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    assert multiply(multiply(r.u, m), r.v) == r.d
    assert is_unimodular(r.u) and is_unimodular(r.v)
    diag = r.diagonal()
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert list(diag[: len(nonzero)]) == nonzero, "zeros must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert r.d[i][j] == 0
    return r


def test_snf_cartan_a2():
    assert smith_normal_form(A2).diagonal() == (1, 3)


def test_snf_identity_and_zero():
    assert smith_normal_form(identity(3)).d == identity(3)
    assert smith_normal_form([[0]]).d == ((0,),)


def test_snf_is_deterministic():
    m = [[6, 4, 2], [4, 4, 4], [2, 4, 6]]
    assert smith_normal_form(m) == smith_normal_form(m)


def test_snf_random_contract():
    rng = random.Random(20240817)
    for _ in range(250):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 9)
        check_snf_contract(m)


def test_snf_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(99)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, 12)
        ours = [abs(x) for x in smith_normal_form(m).diagonal()]
        theirs = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        k = min(rows, cols)
        their_diag = sorted(abs(int(theirs[i, i])) for i in range(k))
        assert sorted(ours) == their_diag, (m, ours, their_diag)


def test_freeze_rejects_garbage():
    class Count(int):
        pass

    empty = "matrix must have at least one row and one column"
    # freeze and the Matrix constructor run the same check
    for check in (freeze, Matrix):
        for m in ([], [[]], ()):
            with pytest.raises(ValueError, match=f"^{empty}$"):
                check(m)
        with pytest.raises(ValueError, match="^ragged matrix$"):
            check([[1, 2], [3]])
        with pytest.raises(ValueError, match="^ragged matrix$"):
            check([[1, 2], [3, 4.5, 6]])
        # the first entry that is not an int is named; a bool or another
        # int subclass is not an int here
        for m, shown in (
            ([[1.5]], "1.5"),
            ([[True]], "True"),
            ([[1, True]], "True"),
            ([[1, 2], [False, 1.5]], "False"),
            ([[1.0, 2]], "1.0"),
            ([[1, 2], [3, "x"]], "'x'"),
            ([[1, None]], "None"),
            ([[Count(3), 2**100], (-1, 0)], "3"),
        ):
            with pytest.raises(ValueError, match=f"^non-integer entry {shown}$"):
                check(m)
        assert check([[3, 2**100], (-1, 0)]) == ((3, 2**100), (-1, 0))
    with pytest.raises(ValueError, match=r"^shape mismatch 1x2 \* 1x2$"):
        multiply([[1, 2]], [[3, 4]])


def test_freeze_checks_once():
    # a Matrix passes through; anything else comes back a checked Matrix
    m = Matrix([[1, 2], [3, 4]])
    assert freeze(m) is m
    for plain in (((1, 2), (3, 4)), [[1, 2], [3, 4]]):
        frozen = freeze(plain)
        assert type(frozen) is Matrix and frozen == m
    d = rootsys.DynkinDiagram("B", 3)
    c = rootsys.cartan_matrix(d)
    built = [
        c,
        transpose(c),
        multiply(c, c),
        rootsys._permutation_matrix((2, 0, 1)),
        rootsys.simple_reflection(c, 1),
    ]
    for got in built:
        assert type(got) is Matrix
        assert got == freeze([list(row) for row in got])
    assert rootsys._permutation_matrix((2, 0, 1)) == ((0, 1, 0), (0, 0, 1), (1, 0, 0))


def test_matrix_is_its_tuple_of_tuples():
    plain = ((3, -2**70), (0, 1))
    m = Matrix(plain)
    assert m == plain and plain == m and hash(m) == hash(plain)
    assert repr(m) == repr(plain) and str(m) == str(plain)
    assert json.dumps(m) == json.dumps(plain)
    assert all(type(row) is tuple for row in m)
    for back in [pickle.loads(pickle.dumps(m, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert type(back) is Matrix and back == m
    for back in (copy.deepcopy(m), copy.copy(m)):
        assert type(back) is Matrix and back == m
    # unpickling checks again, in every protocol: a Matrix forged past the
    # check is refused
    forged = tuple.__new__(Matrix, ((1, True),))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match="^non-integer entry True$"):
            pickle.loads(pickle.dumps(forged, protocol))


def _eff_from_smith(r, rows, cols):
    return [r.d[i][i] if i < min(rows, cols) else 0 for i in range(rows)]


def test_cokernel_projection_matches_smith_transform():
    """cokernel reads its projection off the same u as smith_normal_form."""
    rng = random.Random(4404)
    for k in range(600):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, rng.choice((1, 3, 12)))
        if k % 4 == 0 and rows > 1:
            m[-1] = [3 * x for x in m[0]]  # singular
        r = smith_normal_form(m)
        eff = _eff_from_smith(r, rows, cols)
        tor = [i for i, d in enumerate(eff) if d >= 2]
        free = [i for i, d in enumerate(eff) if d == 0]
        want = tuple(
            tuple(r.u[i][c] % eff[i] for i in tor) + tuple(r.u[i][c] for i in free)
            for c in range(rows)
        )
        group, proj = cokernel(m)
        assert (group.divisors, group.free_rank) == (tuple(eff[i] for i in tor), len(free))
        assert proj == want, m


def _dense_induced(m, g):
    """u g u^-1 in full from smith_normal_form, checked on every row."""
    rows = len(m)
    r = smith_normal_form(m)
    cols_of_inverse = [oracles.solve_exact(r.u, [int(i == j) for i in range(rows)])
                       for j in range(rows)]
    uinv = [[int(cols_of_inverse[j][i]) for j in range(rows)] for i in range(rows)]
    h = multiply(multiply(r.u, g), uinv)
    eff = _eff_from_smith(r, rows, len(m[0]))
    for j in range(rows):
        for i in range(rows):
            val = eff[j] * h[i][j]
            if eff[j] and ((val != 0) if eff[i] == 0 else (val % eff[i] != 0)):
                return f"coordinate ({i}, {j})"
    tor = [i for i, d in enumerate(eff) if d >= 2]
    return tuple(tuple(h[i][j] % eff[i] for j in tor) for i in tor)


def test_induced_matches_dense_conjugate():
    """Forming only the rows of u g u^-1 with eff != 1 changes nothing."""
    rng = random.Random(4405)
    for k in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, rng.choice((2, 6)))
        if k % 2:
            for row in m:
                row[0] *= 3  # more torsion in the cokernel
        if k % 3 == 0:
            # identity plus a lattice-valued rank-one term preserves the lattice
            coeffs = [rng.randint(-2, 2) for _ in range(cols)]
            lat = [sum(x * c for x, c in zip(row, coeffs)) for row in m]
            g = [[int(i == j) + lat[i] * rng.randint(-2, 2) for j in range(rows)]
                 for i in range(rows)]
        else:
            g = random_matrix(rng, rows, rows, 3)
        want = _dense_induced(m, g)
        if isinstance(want, str):
            with pytest.raises(LatticeError, match=re.escape(want)):
                induced_endomorphism(m, g)
        else:
            assert induced_endomorphism(m, g) == want, (m, g)


def _matches_dense_reference(m, endomorphisms):
    st = oracles.dense_reduction(m)
    r = smith_normal_form(m)
    assert (r.u, r.d, r.v) == tuple(tuple(map(tuple, x)) for x in (st.u, st.a, st.v)), m
    group, proj = cokernel(m)
    assert (group.divisors, group.free_rank, proj) == oracles.dense_cokernel(st), m
    refused = 0
    for g in endomorphisms:
        want = oracles.dense_induced(st, g)
        if isinstance(want, str):
            with pytest.raises(LatticeError) as e:
                induced_endomorphism(m, g)
            assert str(e.value) == want, (m, g)
            refused += 1
        else:
            assert induced_endomorphism(m, g) == want, (m, g)
    return refused


def test_sparse_reduction_matches_dense_reference():
    """The logged sparse reduction gives the dense one's transforms,
    projections, induced matrices and LatticeError coordinates, and on
    the random matrices the reference reduction's rows and logs."""
    rng = random.Random(4406)
    refused = 0
    for k in range(600):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, rng.choice((1, 3, 12)))
        if k % 4 == 0 and rows > 1:
            m[-1] = [3 * x for x in m[0]]  # singular
        coeffs = [rng.randint(-2, 2) for _ in range(cols)]
        lat = [sum(x * c for x, c in zip(row, coeffs)) for row in m]
        endomorphisms = [
            random_matrix(rng, rows, rows, 3),
            identity(rows),
            [[int(i == j) + lat[i] * rng.randint(-2, 2) for j in range(rows)]
             for i in range(rows)],
        ]
        frozen = freeze(m)
        assert intmat._reduce(frozen) == oracles.reference_sparse_reduction(frozen), m
        refused += _matches_dense_reference(m, endomorphisms)
    assert refused > 300
    diagrams = [rootsys.DynkinDiagram(s, n) for s in "ABCD"
                for n in range(rootsys.SERIES_MIN_RANK[s], 41)]
    diagrams += [rootsys.DynkinDiagram(s, n) for s, n in sorted(rootsys.EXCEPTIONAL)]
    for d in diagrams:
        c = rootsys.cartan_matrix(d)
        _matches_dense_reference(c, [identity(d.rank), rootsys.simple_reflection(c, 0)])
    foldings = [rootsys.DynkinDiagram(s, n) for s in "BC" for n in range(2, 30)]
    foldings += [rootsys.DynkinDiagram("F", 4), rootsys.DynkinDiagram("G", 2)]
    for d in foldings:
        f = rootsys.folding(d)
        _matches_dense_reference(
            rootsys.cartan_matrix(f.gamma_hat),
            [rootsys._permutation_matrix(p) for p in f.elements().values()],
        )


def _logged_branches(rowlog, collog):
    """(dirty re-pivots, witness adds) in the logs of a reduction.  An
    entry (i, j, q) belongs to step min(i, j), and swaps happen only in
    a pivot search, so a swap logged after another operation of its
    step is a re-pivot; a witness add is (s, w, 1) with w > s."""
    repivots = 0
    for log in (rowlog, collog):
        begun = set()
        for i, j, q in log:
            if q:
                begun.add(min(i, j))
            elif min(i, j) in begun:
                repivots += 1
    return repivots, sum(1 for i, j, q in rowlog if q == 1 and i < j)


def test_reduction_log_matches_the_reference_reduction():
    """The inlined elimination loop leaves the rows, row log and column
    log of the reference reduction, which calls a helper per step: on
    sparse matrices up to 12x12 that take both the re-pivot and the
    witness branch, and on every Cartan and unfolding matrix up to rank
    120 (test_sparse_reduction_matches_dense_reference covers the dense
    random set)."""
    def same(m):
        m = freeze(m)
        got = intmat._reduce(m)
        assert got == oracles.reference_sparse_reduction(m), m
        return got

    rng = random.Random(1313)
    repivots = witnesses = 0
    for _ in range(1500):
        rows, cols, density = rng.randint(1, 12), rng.randint(1, 12), rng.random()
        bound = rng.choice((2, 12, 60))
        m = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        r, w = _logged_branches(*same(m)[1:])
        repivots += r
        witnesses += w
    assert repivots > 100 and witnesses > 100, (repivots, witnesses)
    diagrams = [rootsys.DynkinDiagram(s, n) for s in "ABCD"
                for n in range(rootsys.SERIES_MIN_RANK[s], 121)]
    diagrams += [rootsys.DynkinDiagram(s, n) for s, n in sorted(rootsys.EXCEPTIONAL)]
    matrices = {rootsys.cartan_matrix(d) for d in diagrams}
    matrices |= {transpose(c) for c in matrices}
    unfoldings = {rootsys.folding(d).gamma_hat for d in diagrams}
    matrices |= {rootsys.cartan_matrix(d) for d in unfoldings if d.rank <= 120}
    for c in sorted(matrices):
        same(c)


def test_determinant_bareiss():
    rng = random.Random(5)
    # compare against cofactor expansion on small matrices
    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, 9)
        assert determinant(m) == cofactor_det(m)
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        determinant([[1, 2]])


def test_fin_ab_group_validation():
    g = FinAbGroup((2, 4), 1)
    assert str(g) == "Z/2 x Z/4 x Z"
    assert str(FinAbGroup()) == "0"
    assert str(FinAbGroup((2,), 2)) == "Z/2 x Z^2"
    assert FinAbGroup((3, 6)).order() == 18
    with pytest.raises(ValueError):
        FinAbGroup((4, 2))
    with pytest.raises(ValueError):
        FinAbGroup((1,))
    with pytest.raises(ValueError):
        FinAbGroup((2, 3))
    with pytest.raises(ValueError):
        FinAbGroup((), -1)
    with pytest.raises(ValueError):
        FinAbGroup((2,), 1).order()


def test_cokernel_cartan_values():
    for matrix, want_div, want_rank in [
        (A2, (3,), 0),
        (identity(3), (), 0),
        ([[0]], (), 1),
    ]:
        g, proj = cokernel(matrix)
        assert g.divisors == want_div and g.free_rank == want_rank
        assert len(proj) == len(matrix)


def test_cokernel_order_equals_abs_det():
    rng = random.Random(11)
    seen_nontrivial = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, 7)
        det = determinant(m)
        if det == 0:
            continue
        g, _ = cokernel(m)
        assert g.free_rank == 0
        assert g.order() == abs(det)
        if g.order() > 1:
            seen_nontrivial += 1
    assert seen_nontrivial > 50


def test_cokernel_projection_kills_columns():
    """Columns of m must map to zero in the quotient, by construction."""
    rng = random.Random(13)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, 9)
        g, proj = cokernel(m)
        width = len(g.divisors) + g.free_rank
        for j in range(cols):
            image = [
                sum(m[i][j] * proj[i][k] for i in range(rows)) for k in range(width)
            ]
            for k, coord in enumerate(image):
                if k < len(g.divisors):
                    assert coord % g.divisors[k] == 0
                else:
                    assert coord == 0


def test_cokernel_projection_surjective():
    # the projection must hit every invariant-factor generator: its rows
    # span the quotient, checked by reducing the projection matrix itself
    rng = random.Random(17)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, 8)
        g, proj = cokernel(m)
        if not g.divisors and not g.free_rank:
            continue
        # stack generators of the relations in projected coordinates:
        # divisor * e_k for torsion coords; nothing for free coords
        width = len(g.divisors) + g.free_rank
        rels = [
            [g.divisors[k] if i == k else 0 for i in range(width)]
            for k in range(len(g.divisors))
        ]
        stacked = [list(row) for row in proj] + rels
        sub = smith_normal_form(stacked)
        diag = [d for d in sub.diagonal() if d != 0]
        # surjectivity of proj modulo relations: the stacked lattice is all
        # of Z^width, i.e. every invariant factor is 1
        assert len(diag) == width and all(d == 1 for d in diag), (m, g, proj)


def test_induced_a2_examples():
    assert induced_endomorphism(A2, [[0, 1], [1, 0]]) == ((2,),)
    assert induced_endomorphism(A2, identity(2)) == ((1,),)
    # weight-basis simple reflection: identity on the quotient
    assert induced_endomorphism(A2, [[-1, 0], [1, 1]]) == ((1,),)


def test_induced_matches_coset_oracle():
    """The reported matrix must implement the true coset permutation."""
    m = A2
    g, proj = cokernel(m)
    reps = oracles.coset_representatives(m)
    flip = ((0, 1), (1, 0))
    perm = oracles.coset_action(m, flip, reps)
    ind = induced_endomorphism(m, flip)
    for rep, image_idx in zip(reps, perm):
        lhs = [
            sum(proj[i][k] * reps[image_idx][i] for i in range(2)) % g.divisors[k]
            for k in range(1)
        ]
        # transported coordinates of g . rep
        coords = [
            sum(proj[i][k] * rep[i] for i in range(2)) for k in range(1)
        ]
        rhs = [
            sum(ind[k][l] * coords[l] for l in range(1)) % g.divisors[k]
            for k in range(1)
        ]
        assert lhs == rhs


def test_induced_rejects_non_preserving():
    with pytest.raises(LatticeError, match="does not preserve image lattice"):
        induced_endomorphism([[2, 0], [0, 4]], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="^endomorphism must be 2x2$"):
        induced_endomorphism(A2, identity(3))
    # oracle agrees that the swap moves the lattice
    assert not oracles.in_column_lattice(
        ((2, 0), (0, 4)), (0, 2)
    )  # g(first column) leaves the lattice


def test_induced_commuting_square_random():
    """proj(g x) == induced(g) proj(x) mod divisors, for random inputs."""
    rng = random.Random(31)
    done = 0
    while done < 80:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, 6)
        g, proj = cokernel(m)
        if not g.divisors:
            continue
        # build a lattice-preserving endomorphism: identity plus rank-one
        # perturbations by lattice vectors
        endo = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            lat = [
                sum(m[i][j] * coeffs[j] for j in range(n)) for i in range(n)
            ]
            row = [rng.randint(-2, 2) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    endo[i][j] += lat[i] * row[j]
        ind = induced_endomorphism(m, endo)
        tor = len(g.divisors)
        for _ in range(5):
            x = [rng.randint(-4, 4) for _ in range(n)]
            gx = [sum(endo[i][j] * x[j] for j in range(n)) for i in range(n)]
            lhs = [
                sum(proj[i][k] * gx[i] for i in range(n)) % g.divisors[k]
                for k in range(tor)
            ]
            px = [sum(proj[i][k] * x[i] for i in range(n)) for k in range(tor)]
            rhs = [
                sum(ind[k][l] * px[l] for l in range(tor)) % g.divisors[k]
                for k in range(tor)
            ]
            assert lhs == rhs, (m, endo)
        done += 1


def test_induced_composition():
    rng = random.Random(37)
    done = 0
    while done < 50:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, 5)
        g, _ = cokernel(m)
        if not g.divisors:
            continue

        def lattice_endo():
            endo = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            lat = [sum(m[i][j] * coeffs[j] for j in range(n)) for i in range(n)]
            row = [rng.randint(-2, 2) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    endo[i][j] += lat[i] * row[j]
            return endo

        e1, e2 = lattice_endo(), lattice_endo()
        composite = multiply(e1, e2)
        lhs = induced_endomorphism(m, composite)
        a = induced_endomorphism(m, e1)
        b = induced_endomorphism(m, e2)
        tor = len(g.divisors)
        prod = [
            [
                sum(a[i][k] * b[k][j] for k in range(tor)) % g.divisors[i]
                for j in range(tor)
            ]
            for i in range(tor)
        ]
        assert [list(r) for r in lhs] == prod
        done += 1


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 20000) if is_prime(n)] == [
        n for n in range(-3, 20000) if trial(n)
    ]
    rng = random.Random(1313)
    for _ in range(300):
        n = rng.randrange(10**6, 10**9)
        assert is_prime(n) == trial(n), n


def test_is_prime_near_the_bound():
    # strong pseudoprimes to the smallest bases, a Mersenne prime, and
    # the largest prime below 2**64
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 + 3)
    assert is_prime(PRIME_BOUND - 59)
    assert not is_prime(PRIME_BOUND - 1)
    with pytest.raises(ValueError, match=r"below 2\*\*64"):
        is_prime(PRIME_BOUND)


def test_check_prime():
    check_prime(2)
    check_prime(10**18 + 3)
    for bad in (1, 0, -7, 9, 2.0, "3", True):
        with pytest.raises(ValueError, match="ell must be a prime, got"):
            check_prime(bad)
    with pytest.raises(ValueError, match=r"ell must be a prime below 2\*\*64"):
        check_prime(10**400)
