"""Diagrams, Cartan data, root counts, foldings and their symmetries."""

from __future__ import annotations

import copy
import pickle
import random
import re
from fractions import Fraction
from math import lcm

import pytest

from decnum import intmat, rootsys, tables
from decnum.cli import MINIMAL_MAX_RANK
from decnum.perverse import link_cohomology_minimal
from decnum.rootsys import (
    EXCEPTIONAL,
    SERIES_MIN_RANK,
    DynkinDiagram,
    FoldingDatum,
    RootSystemData,
    cartan_matrix,
    folding,
    fundamental_group,
    generate_roots,
    long_root_subsystem,
    root_system,
    simple_reflection,
    symmetry_action_on_fundamental_group,
)

import oracles
from oracles import ALL_DIAGRAMS_RANK_LE_8


def test_diagram_validation():
    assert str(DynkinDiagram("D", 4)) == "D4"
    assert DynkinDiagram("A", 1).simply_laced
    assert not DynkinDiagram("G", 2).simply_laced
    for series, rank in [("D", 3), ("A", 0), ("B", 1), ("C", 1), ("E", 9),
                         ("E", 5), ("F", 5), ("G", 3), ("H", 4),
                         ("A", True), ("D", 4.0), ("E", 6.0), ("G", 2.0),
                         (["A"], 3), ({"A"}, 3)]:
        with pytest.raises(ValueError, match=f"^{re.escape(f'inadmissible type {series}{rank}')}$"):
            DynkinDiagram(series, rank)
    # the fixture of every type up to rank 8, spelled out
    assert [str(d) for d in ALL_DIAGRAMS_RANK_LE_8] == (
        [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
        + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )


def test_cartan_matrices_frozen():
    assert cartan_matrix(DynkinDiagram("A", 1)) == ((2,),)
    assert cartan_matrix(DynkinDiagram("A", 2)) == ((2, -1), (-1, 2))
    assert cartan_matrix(DynkinDiagram("G", 2)) == ((2, -1), (-3, 2))
    assert cartan_matrix(DynkinDiagram("B", 3)) == (
        (2, -1, 0),
        (-1, 2, -2),
        (0, -1, 2),
    )
    assert cartan_matrix(DynkinDiagram("C", 3)) == (
        (2, -1, 0),
        (-1, 2, -1),
        (0, -2, 2),
    )
    assert cartan_matrix(DynkinDiagram("F", 4)) == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


def test_cartan_determinants():
    # classical connection indices
    for d in ALL_DIAGRAMS_RANK_LE_8:
        det = intmat.determinant(cartan_matrix(d))
        want = {
            "A": d.rank + 1,
            "B": 2,
            "C": 2,
            "D": 4,
            "E": 9 - d.rank,
            "F": 1,
            "G": 1,
        }[d.series]
        assert det == want, d


def test_d_fork_shape():
    c = cartan_matrix(DynkinDiagram("D", 5))
    assert c[2][3] == c[2][4] == c[3][2] == c[4][2] == -1
    assert c[3][4] == c[4][3] == 0


def test_e_series_shape():
    c = cartan_matrix(DynkinDiagram("E", 6))
    # node 1 (0-based) hangs off node 3; the rest is the chain 0-2-3-4-5
    assert c[1][3] == c[3][1] == -1
    assert c[0][1] == 0 and c[1][2] == 0
    assert c[0][2] == c[2][3] == c[3][4] == c[4][5] == -1


# root systems of more than 1000 roots
LARGE_DIAGRAMS = tuple(
    DynkinDiagram(name[0], int(name[1:])) for name in ("A32", "A40", "B23", "C29", "D29")
)


def test_root_counts_and_dual_coxeter_closed_forms():
    for d in ALL_DIAGRAMS_RANK_LE_8 + LARGE_DIAGRAMS:
        rs = root_system(d)
        assert len(rs.roots) == oracles.ROOT_COUNTS[d.series](d.rank), d
        assert rs.dual_coxeter == oracles.DUAL_COXETER[d.series](d.rank), d
        assert rs.highest_root in rs.roots
        assert rs.lengths[rs.roots.index(rs.highest_root)] == "long"


def test_generate_roots_matches_dense_reference_closure():
    diagrams = [
        DynkinDiagram(s, n)
        for s in "ABCD"
        for n in range(SERIES_MIN_RANK[s], 13)
    ] + [DynkinDiagram(s, n) for s, n in sorted(EXCEPTIONAL)]
    # B20 and C20 have 800 roots, near the dense closure's limit of 1000;
    # A30, B22, C22 and D22 are the largest of each series it takes
    diagrams += [DynkinDiagram(s, 20) for s in "ABCD"]
    diagrams += [DynkinDiagram(s, n) for s, n in (("A", 30), ("B", 22), ("C", 22), ("D", 22))]
    matrices = [cartan_matrix(d) for d in diagrams]
    # the transposes of B and C are each other's, A, D and E are symmetric
    matrices += [intmat.transpose(cartan_matrix(DynkinDiagram(s, n))) for s, n in (("F", 4), ("G", 2))]
    for c in matrices:
        rs = generate_roots(c)
        roots, lengths, highest, dual_coxeter = oracles.reference_root_system(c)
        # the walk's theta and h^vee, read before anything closes the roots
        assert (rs.highest_root, rs.dual_coxeter) == (highest, dual_coxeter), c
        assert (rs.roots, rs.lengths) == (roots, lengths), c


def test_roots_are_sorted_negated_positives():
    diagrams = [DynkinDiagram(s, n) for s, n in sorted(EXCEPTIONAL)] + [
        DynkinDiagram("A", 40), DynkinDiagram("B", 29), DynkinDiagram("C", 29),
        DynkinDiagram("D", 29),
    ]
    for d in diagrams:
        for c in (cartan_matrix(d), intmat.transpose(cartan_matrix(d))):
            rs = generate_roots(c)
            assert list(rs.roots) == sorted(set(rs.roots)), d
            positive = {v for v in rs.roots if min(v) >= 0}
            negative = {tuple(-x for x in v) for v in positive}
            assert set(rs.roots) == positive | negative and len(rs.roots) == 2 * len(positive)
            # a root and its negative have the same length
            assert rs.lengths == rs.lengths[::-1], d


def test_root_negation_symmetry():
    for d in [DynkinDiagram("B", 3), DynkinDiagram("G", 2), DynkinDiagram("D", 4)]:
        rs = root_system(d)
        roots = set(rs.roots)
        assert all(tuple(-x for x in v) in roots for v in roots)


def test_length_split_counts():
    # B_n: 2n short; C_n: 2n long; G2 and F4 split evenly
    for n in range(2, 7):
        rs = root_system(DynkinDiagram("B", n))
        assert rs.lengths.count("short") == 2 * n
        rs = root_system(DynkinDiagram("C", n))
        assert rs.lengths.count("long") == 2 * n
    rs = root_system(DynkinDiagram("G", 2))
    assert rs.lengths.count("long") == 6 and rs.lengths.count("short") == 6
    rs = root_system(DynkinDiagram("F", 4))
    assert rs.lengths.count("long") == 24 and rs.lengths.count("short") == 24
    # simply laced: everything counts as long
    assert set(root_system(DynkinDiagram("A", 4)).lengths) == {"long"}


def test_highest_roots_frozen():
    assert root_system(DynkinDiagram("A", 5)).highest_root == (1, 1, 1, 1, 1)
    assert root_system(DynkinDiagram("D", 4)).highest_root == (1, 2, 1, 1)
    assert root_system(DynkinDiagram("G", 2)).highest_root == (3, 2)
    assert root_system(DynkinDiagram("C", 3)).highest_root == (2, 2, 1)


def _rational_symmetrizer(c):
    # the same walk in Fraction arithmetic
    n = len(c)
    vals = [None] * n
    vals[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and c[i][j]:
                want = vals[i] * Fraction(c[j][i], c[i][j])
                if vals[j] is None:
                    vals[j] = want
                    queue.append(j)
                elif vals[j] != want:
                    return "not symmetrizable"
    if None in vals:
        return "not connected"
    scale = lcm(*(v.denominator for v in vals))
    return tuple(int(v * scale) for v in vals)


def _block_sum(a, b, perm=None):
    # the direct sum of two square matrices, nodes relabelled by perm
    n, m = len(a), len(b)
    c = [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]
    perm = range(n + m) if perm is None else perm
    return [[c[i][j] for j in perm] for i in perm]


def test_symmetrizer_matches_rational_arithmetic():
    # the walk scales L on each component as the rational walk from the
    # component's first node does, and finds none off finite type
    def finite_components(c):
        return rootsys._finite_components(c, [[(j, x) for j, x in enumerate(row) if x]
                                              for row in c])

    matrices = [cartan_matrix(d) for d in ALL_DIAGRAMS_RANK_LE_8]
    matrices += [cartan_matrix(DynkinDiagram(s, 40)) for s in "ABCD"]
    matrices += [intmat.transpose(c) for c in matrices]
    for c in matrices:
        assert finite_components(c)[0] == list(_rational_symmetrizer(c)), c
    g2, b3 = cartan_matrix(DynkinDiagram("G", 2)), cartan_matrix(DynkinDiagram("B", 3))
    for a, b in ((g2, b3), (b3, intmat.transpose(g2)), (((2,),), g2)):
        want = list(_rational_symmetrizer(a)) + list(_rational_symmetrizer(b))
        assert finite_components(_block_sum(a, b))[0] == want
    assert finite_components(((2, 0, 0), (0, 2, -1), (0, -1, 2)))[0] == [1, 1, 1]
    for c in (
        ((2, -3), (-2, 2)),                         # ratio 3/2
        ((2, -1, 0), (-4, 2, -3), (0, -2, 2)),      # ratios 4, then 2/3
        ((2, -1, -1), (-2, 2, -1), (-1, -1, 2)),    # a cycle that disagrees
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),    # a cycle that agrees: A2~
    ):
        assert finite_components(c) is None, c
    # the walk alone decides finite type: it fails exactly when some
    # component fails Kac's criterion, on dense cycles, independent
    # off-diagonal pairs and block sums, nodes shuffled
    rng = random.Random(1515)
    outcomes = set()
    for _ in range(2000):
        mode = rng.choice((_dense_gcm, _random_connected_gcm, None))
        if mode is None:
            a, b = (_random_connected_gcm(rng, rng.randint(1, k)) for k in (4, 3))
            perm = list(range(len(a) + len(b)))
            rng.shuffle(perm)
            c = _block_sum(a, b, perm)
        else:
            c = mode(rng, rng.randint(1, 7))
        infinite = not all(map(_finite_type, _components(c)))
        assert (finite_components(c) is None) == infinite, c
        outcomes.add(infinite)
    assert outcomes == {False, True}


def _dense_gcm(rng, n):
    # every pair of nodes joined with probability 0.7, so cycles abound
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.7:
                c[i][j], c[j][i] = -rng.randint(1, 3), -rng.randint(1, 3)
    return c


def _components(c):
    # the principal submatrix of each connected component
    n, seen, out = len(c), set(), []
    for first in range(n):
        if first in seen:
            continue
        order = [first]
        seen.add(first)
        for i in order:
            for j in range(n):
                if c[i][j] and j not in seen:
                    seen.add(j)
                    order.append(j)
        out.append([[c[i][j] for j in order] for i in order])
    return out


def test_generate_roots_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        generate_roots([[2, -1, 0], [-1, 2, -1]])
    with pytest.raises(ValueError, match="diagonal"):
        generate_roots([[1, -1], [-1, 2]])
    with pytest.raises(ValueError, match="positive off-diagonal"):
        generate_roots([[2, 1], [1, 2]])
    with pytest.raises(ValueError, match="zero pattern"):
        generate_roots([[2, -1], [0, 2]])
    with pytest.raises(ValueError, match="not connected"):
        generate_roots([[2, 0], [0, 2]])
    # affine, hyperbolic and indefinite matrices: reflections never close
    # up, and each is refused with the closure's bound message, even where
    # the walk stops at the first coefficient above 6
    a11_affine = [[2 if i == j else -1 if abs(i - j) == 1 or {i, j} == {0, 11} else 0
                   for j in range(12)] for i in range(12)]
    for c in (
        [[2, -3], [-3, 2]],                     # hyperbolic
        [[2, -2], [-2, 2]],                     # A1~
        [[2, -4], [-1, 2]],                     # A2~ twisted
        [[2, -1, 0], [-3, 2, -1], [0, -1, 2]],  # G2~
        [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],  # indefinite
        [[2, -300], [-1, 2]],                   # the first raise overflows a byte
        a11_affine,
    ):
        with pytest.raises(ValueError) as e:
            generate_roots(c)
        assert str(e.value) == _bound_message(len(c)), c


def test_cartan_check_names_the_first_fault_in_row_major_order():
    """Rows in order; within a row the diagonal, then each entry by
    column, a positive value before an asymmetric zero pattern; a zero
    facing a nonzero faults at the upper of the two entries."""
    for c, want in (
        ([[2, -1, 0], [-1, 2]], "Cartan matrix must be square"),
        ([[2, 1], [-1, 3]], "positive off-diagonal Cartan entry"),
        ([[3, 1], [-1, 2]], "Cartan diagonal must be 2"),
        ([[2, 1], [0, 2]], "positive off-diagonal Cartan entry"),
        ([[2, -1], [1, 2]], "positive off-diagonal Cartan entry"),
        ([[2, 0], [-1, 5]], "asymmetric Cartan zero pattern"),
        ([[2, -1, 0], [-1, 2, -1], [-1, -1, 2]], "asymmetric Cartan zero pattern"),
        ([[2, 0, 1], [-1, 2, 0], [-1, 0, 2]], "asymmetric Cartan zero pattern"),
        ([[2, 1, -1], [-1, 2, 0], [0, 0, 2]], "positive off-diagonal Cartan entry"),
        ([[2, -1, 0], [-1, 2, 1], [0, 0, 1]], "positive off-diagonal Cartan entry"),
        ([[2, -1, 0], [-1, 1, 0], [0, 1, 2]], "Cartan diagonal must be 2"),
    ):
        with pytest.raises(ValueError) as e:
            rootsys._cartan_rows(c)
        assert str(e.value) == want, c
    c = [[2, -1, 0], [-3, 2, -1], [0, -1, 2]]
    assert rootsys._cartan_rows(c) == [[(j, x) for j, x in enumerate(row) if x] for row in c]


def _bound_message(n):
    bound = max(240, 2 * n * n)
    return (f"reflection closure exceeded the safety bound of {bound} roots "
            f"for rank {n}; not a finite type")


def _random_connected_gcm(rng, n):
    # a random spanning tree keeps the diagram connected; extra edges may
    # close cycles, which only an infinite type has
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = [(rng.randrange(j), j) for j in range(1, n)]
    edges += [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
    for i, j in edges:
        c[i][j] = -rng.choice((1, 1, 1, 2, 3, 4))
        c[j][i] = -rng.choice((1, 1, 1, 2, 3))
    return c


def _finite_type(c):
    # a connected generalized Cartan matrix is of finite type iff it is
    # symmetrizable and its symmetrization is positive definite (Kac,
    # Infinite dimensional Lie algebras, chapter 4): Gaussian elimination
    # without pivoting then meets only positive pivots
    ls = _rational_symmetrizer(c)
    if isinstance(ls, str):
        return False
    n = len(c)
    b = [[Fraction(c[i][j] * ls[j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        if b[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = b[i][k] / b[k][k]
            b[i] = [x - f * y for x, y in zip(b[i], b[k])]
    return True


def test_generate_roots_matches_reference_on_random_matrices():
    """Finite types agree with the dense closure; every other generalized
    Cartan matrix is refused with the closure's bound message, although
    the walk stops at the first coefficient above 6."""
    rng = random.Random(7070)
    answered = 0
    for _ in range(400):
        c = _random_connected_gcm(rng, rng.randint(2, 5))
        if _finite_type(c):
            rs = generate_roots(c)
            want = oracles.reference_root_system(c)
            assert (rs.roots, rs.lengths, rs.highest_root, rs.dual_coxeter) == want, c
            answered += 1
        else:
            with pytest.raises(ValueError) as e:
                generate_roots(c)
            assert str(e.value) == _bound_message(len(c)), c
    assert 50 < answered < 350
    # block sums of two, nodes shuffled: the closure of a sum is the union
    # of the closures, so it fails as soon as either summand is infinite
    # or the roots together pass the bound; otherwise it is not connected
    disconnected = 0
    for _ in range(300):
        a, b = (_random_connected_gcm(rng, rng.randint(1, 5)) for _ in range(2))
        perm = list(range(len(a) + len(b)))
        rng.shuffle(perm)
        c = _block_sum(a, b, perm)
        message = _bound_message(len(c))
        if _finite_type(a) and _finite_type(b):
            size = sum(len(oracles.reference_root_system(m)[0]) for m in (a, b))
            if size <= max(240, 2 * len(c) ** 2):
                message = "Cartan matrix is not connected"
                disconnected += 1
        with pytest.raises(ValueError) as e:
            generate_roots(c)
        assert str(e.value) == message, c
    assert 20 < disconnected < 280


def test_disconnected_matrices_keep_their_outcomes():
    # the outcome of the closure over the direct sum: past the bound of
    # max(240, 2 n^2) roots, or with an infinite summand, the bound
    # message; otherwise "not connected"
    def m(name):
        return cartan_matrix(DynkinDiagram(name[0], int(name[1:])))

    cycle = ((2, -1, -1), (-2, 2, -1), (-1, -1, 2))  # not symmetrizable
    cases = [
        (_block_sum(m("E8"), m("A1")), _bound_message(9)),        # 242 > 240 roots
        (_block_sum(((2, -2), (-2, 2)), m("A1")), _bound_message(3)),
        (_block_sum(m("A1"), cycle), _bound_message(4)),
        (_block_sum(m("A2"), m("A1")), "Cartan matrix is not connected"),
        (_block_sum(m("E8"), m("E8")), "Cartan matrix is not connected"),  # 480 <= 512
        (_block_sum(m("A1"), m("B3")), "Cartan matrix is not connected"),
        (_block_sum(m("A1"), m("B3"), (3, 0, 2, 1)), "Cartan matrix is not connected"),
    ]
    for c, message in cases:
        with pytest.raises(ValueError) as e:
            generate_roots(c)
        assert str(e.value) == message, c


def _decoded(rs):
    # reads the roots slot itself, so an unset one is not decoded here
    try:
        RootSystemData.roots.__get__(rs)
    except AttributeError:
        return False
    return True


FIELDS = ("cartan", "roots", "lengths", "highest_root", "dual_coxeter")
RECORD_OPS = (
    [("repr", repr), ("hash", hash), ("copy", copy.copy), ("deepcopy", copy.deepcopy)]
    + [(f"pickle {p}", lambda rs, p=p: pickle.loads(pickle.dumps(rs, p)))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)]
)


def test_deferred_record_behaves_like_a_constructed_one():
    diagrams = list(ALL_DIAGRAMS_RANK_LE_8) + [DynkinDiagram("B", 23), DynkinDiagram("A", 32)]
    for d in diagrams:
        for c in (cartan_matrix(d), intmat.transpose(cartan_matrix(d))):
            done = generate_roots(c)
            built = RootSystemData(*(getattr(done, f) for f in FIELDS))
            for name, op in RECORD_OPS:
                fresh = generate_roots(c)
                assert not _decoded(fresh)
                for _ in range(2):  # before the first read of roots, then after
                    got, want = op(fresh), op(built)
                    if name == "repr" or name == "hash":
                        assert got == want, (d, name)
                    else:
                        assert type(got) is RootSystemData and got is not fresh
                        assert repr(got) == repr(built) and got == built, (d, name)
                    assert _decoded(fresh)
            fresh = generate_roots(c)
            assert fresh == built and built == generate_roots(c) and not fresh != built
            fresh = generate_roots(c)
            for _ in range(2):
                for field in FIELDS:
                    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
                        setattr(fresh, field, None)
                    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
                        delattr(fresh, field)
                for name in ("extra", "_packed"):
                    with pytest.raises(AttributeError):
                        setattr(fresh, name, 1)
                assert not hasattr(fresh, "extra")
                assert fresh.roots == built.roots and fresh.lengths == built.lengths
                assert _decoded(fresh) and repr(fresh) == repr(built)


def test_generate_roots_refuses_in_the_call():
    # the record defers only the closure: every check still runs in the call
    bound = _bound_message(2)
    cases = [
        ([[2, -1, 0], [-1, 2, -1]], "Cartan matrix must be square"),
        ([[2, -1], [-1]], "ragged matrix"),
        ([[]], "matrix must have at least one row and one column"),
        ([[2, -1.0], [-1, 2]], "non-integer entry -1.0"),
        ([[2, True], [-1, 2]], "non-integer entry True"),
        ([[1, -1], [-1, 2]], "Cartan diagonal must be 2"),
        ([[2, 1], [1, 2]], "positive off-diagonal Cartan entry"),
        ([[2, -1], [0, 2]], "asymmetric Cartan zero pattern"),
        ([[2, 0], [0, 2]], "Cartan matrix is not connected"),
        ([[2, -1, 0], [-1, 2, 0], [0, 0, 2]], "Cartan matrix is not connected"),
        # a non-symmetrizable cycle has an infinite Weyl group, so the
        # closure refuses it before the symmetrizer is reached
        ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], _bound_message(3)),
        ([[2, -7], [-1, 2]], bound),     # a coefficient past 6 at once
        ([[2, -1], [-7, 2]], bound),
        ([[2, -2], [-2, 2]], bound),     # A1~: the bound before any such coefficient
    ]
    for c, message in cases:
        with pytest.raises(ValueError) as e:
            generate_roots(c)
        assert str(e.value) == message, c


def test_minimal_cones_never_decode_roots(monkeypatch):
    def refuse(*args):
        raise AssertionError("roots closed")

    monkeypatch.setattr(rootsys, "_close_roots", refuse)
    with pytest.raises(AssertionError, match="roots closed"):
        root_system(DynkinDiagram("A", 2)).roots
    # every type of the minimal-sweep benchmark's range, and beyond it
    diagrams = [DynkinDiagram(s, n) for s, n in sorted(EXCEPTIONAL)] + [
        DynkinDiagram(s, n) for s, top in (("A", 40), ("B", 29), ("C", 29), ("D", 29))
        for n in range(SERIES_MIN_RANK[s], top + 1)
    ]
    for d in diagrams:
        cone = link_cohomology_minimal(d)
        assert cone.open_dim == 2 * oracles.DUAL_COXETER[d.series](d.rank) - 2, d
        assert tables.minimal_answer(d, (2, 3))[0] == cone
    assert len(tables.paper_tables()["minimal"]) == len(tables.minimal_grid())


def test_generate_roots_never_closes_in_the_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("roots closed")

    monkeypatch.setattr(rootsys, "_close_roots", refuse)
    # every finite type up to rank 40 and each transpose; transposing
    # swaps long and short, so B_n^T is C_n's matrix and C_n^T is B_n's
    for series, rank in sorted(EXCEPTIONAL):
        c = cartan_matrix(DynkinDiagram(series, rank))
        for m in (c, intmat.transpose(c)):
            assert generate_roots(m).dual_coxeter == oracles.DUAL_COXETER[series](rank)
    for s in "ABCD":
        for n in range(SERIES_MIN_RANK[s], 41):
            c = cartan_matrix(DynkinDiagram(s, n))
            for m, t in ((c, s), (intmat.transpose(c), {"B": "C", "C": "B"}.get(s, s))):
                rs = generate_roots(m)
                want = (oracles.HIGHEST_ROOT[t](n), oracles.DUAL_COXETER[t](n))
                assert (rs.highest_root, rs.dual_coxeter) == want, (s, n, t)
    # the first read of the roots is what closes
    with pytest.raises(AssertionError, match="roots closed"):
        generate_roots(cartan_matrix(DynkinDiagram("A", 2))).lengths


def test_first_read_checks_the_walk_against_the_closure():
    c = cartan_matrix(DynkinDiagram("B", 3))
    rs = generate_roots(c)
    assert rootsys._close_roots(c, (1, 2, 2)) == (rs.roots, rs.lengths)
    # a dominated root, or a tuple no root equals, is not the top root
    for wrong in ((1, 1, 1), (1, 2, 1), (2, 2, 2)):
        with pytest.raises(AssertionError, match="^highest root fails to dominate$"):
            rootsys._close_roots(c, wrong)


def test_dual_fundamental_group_is_the_cokernel_of_the_transpose():
    # simply-laced types reduce their symmetric Cartan matrix itself
    for d in ALL_DIAGRAMS_RANK_LE_8 + LARGE_DIAGRAMS:
        want = intmat.cokernel(intmat.transpose(cartan_matrix(d)))
        assert fundamental_group(d, dual=True) == want, d


FUNDAMENTAL = {
    "A1": (2,), "A2": (3,), "A3": (4,), "A4": (5,), "A5": (6,),
    "A6": (7,), "A7": (8,), "A8": (9,),
    "B2": (2,), "B5": (2,), "C3": (2,), "C8": (2,),
    "D4": (2, 2), "D5": (4,), "D6": (2, 2), "D7": (4,), "D8": (2, 2),
    "E6": (3,), "E7": (2,), "E8": (),
    "F4": (), "G2": (),
}


def test_fundamental_groups_frozen():
    for name, divisors in FUNDAMENTAL.items():
        d = DynkinDiagram(name[0], int(name[1:]))
        group, proj = fundamental_group(d)
        assert group.divisors == divisors, name
        assert group.free_rank == 0
        dual_group, _ = fundamental_group(d, dual=True)
        assert dual_group.divisors == divisors, name
        assert len(proj) == d.rank


def test_fundamental_group_order_is_cartan_determinant():
    for d in ALL_DIAGRAMS_RANK_LE_8:
        group, _ = fundamental_group(d)
        assert group.order() == intmat.determinant(cartan_matrix(d))


def test_simple_reflections_preserve_root_lattice_and_act_trivially():
    for d in ALL_DIAGRAMS_RANK_LE_8:
        for c in (cartan_matrix(d), intmat.transpose(cartan_matrix(d))):
            group, _ = intmat.cokernel(c)
            tor = len(group.divisors)
            for i in range(d.rank):
                s = simple_reflection(c, i)
                assert intmat.multiply(s, s) == intmat.identity(d.rank)
                induced = intmat.induced_endomorphism(c, s)
                assert induced == intmat.identity(tor), (d, i)


def test_long_root_subsystem():
    cases = [
        ("B", 2, "A1"), ("B", 3, "A2"), ("B", 7, "A6"),
        ("C", 2, "A1"), ("C", 5, "A1"),
        ("F", 4, "A2"), ("G", 2, "A1"),
    ]
    cases += [("B", n, f"A{n - 1}") for n in range(2, MINIMAL_MAX_RANK + 1)]
    cases += [("C", n, "A1") for n in range(2, MINIMAL_MAX_RANK + 1)]
    for series, rank, want in cases:
        assert str(long_root_subsystem(DynkinDiagram(series, rank))) == want
    for name in ("A5", "D6", "E7"):
        d = DynkinDiagram(name[0], int(name[1:]))
        assert long_root_subsystem(d) is d


def test_folding_targets_frozen():
    f = folding(DynkinDiagram("B", 2))
    assert (str(f.gamma_hat), f.symmetry, f.generators["s"]) == ("A3", "C2", (2, 1, 0))
    f = folding(DynkinDiagram("B", 4))
    assert str(f.gamma_hat) == "A7"
    assert f.generators["s"] == (6, 5, 4, 3, 2, 1, 0)
    assert f.quotient_groups == ("cyclic of order 8", "binary dihedral of order 16")
    f = folding(DynkinDiagram("C", 2))
    # would be D3, which is the inadmissible spelling of A3
    assert (str(f.gamma_hat), f.generators["s"]) == ("A3", (2, 1, 0))
    assert f.quotient_groups == (
        "binary dihedral of order 4",
        "binary dihedral of order 8",
    )
    f = folding(DynkinDiagram("C", 4))
    assert (str(f.gamma_hat), f.generators["s"]) == ("D5", (0, 1, 2, 4, 3))
    f = folding(DynkinDiagram("F", 4))
    assert (str(f.gamma_hat), f.generators["s"]) == ("E6", (5, 1, 4, 3, 2, 0))
    assert f.quotient_groups == ("binary tetrahedral", "binary octahedral")
    f = folding(DynkinDiagram("G", 2))
    assert (str(f.gamma_hat), f.symmetry) == ("D4", "S3")
    assert f.generators == {"s": (0, 1, 3, 2), "t": (2, 1, 3, 0)}
    assert f.quotient_groups == ("binary dihedral of order 8", "binary octahedral")
    assert len(f.elements()) == 6


def test_folding_homogeneous_cases():
    for name, quotient in [
        ("A4", "cyclic of order 5"),
        ("D6", "binary dihedral of order 16"),
        ("E6", "binary tetrahedral"),
        ("E7", "binary octahedral"),
        ("E8", "binary icosahedral"),
    ]:
        d = DynkinDiagram(name[0], int(name[1:]))
        f = folding(d)
        assert f.gamma_hat is d and f.symmetry == "trivial"
        assert f.generators == {}
        assert f.quotient_groups == (quotient, quotient)
        assert f.symmetry_order() == 1
        assert f.elements() == {"e": tuple(range(d.rank))}


def test_folding_quotient_groups_follow_mckay():
    # H in H-hat: C^2/H is the simple singularity of type gamma_hat, and
    # H-hat/H is the folding symmetry
    classical = {DynkinDiagram(s, n) for s in "ABCD" for n in range(SERIES_MIN_RANK[s], 61)}
    for d in classical | set(ALL_DIAGRAMS_RANK_LE_8):
        f = folding(d)
        (h_type, h_order), (_, hat_order) = map(oracles.mckay_type, f.quotient_groups)
        assert h_type == str(f.gamma_hat), d
        assert hat_order == h_order * f.symmetry_order(), d

def test_folding_datum_validation():
    a3 = DynkinDiagram("A", 3)
    with pytest.raises(ValueError, match="diagram automorphism"):
        FoldingDatum(a3, a3, "C2", {"s": (1, 0, 2)})
    with pytest.raises(ValueError, match="order exactly 2"):
        FoldingDatum(a3, a3, "C2", {"s": (0, 1, 2)})
    with pytest.raises(ValueError, match="not a permutation"):
        FoldingDatum(a3, a3, "C2", {"s": (0, 0, 2)})
    with pytest.raises(ValueError, match="generator labels"):
        FoldingDatum(a3, a3, "C2", {})
    b3 = DynkinDiagram("B", 3)
    with pytest.raises(ValueError, match="^unfolding B3 is not simply laced$"):
        FoldingDatum(b3, b3, "trivial")
    with pytest.raises(ValueError, match="^unknown group 'C3'$"):
        FoldingDatum(a3, a3, "C3", {"s": (2, 1, 0)})
    with pytest.raises(ValueError, match=r"^unknown group \['C2'\]$"):
        FoldingDatum(a3, a3, ["C2"], {"s": (2, 1, 0)})
    d4 = DynkinDiagram("D", 4)
    with pytest.raises(ValueError, match="^generator t must cube to the identity$"):
        FoldingDatum(
            d4, d4, "S3", {"s": (0, 1, 3, 2), "t": (0, 1, 3, 2)}
        )


def test_folding_generators_are_read_only():
    f = folding(DynkinDiagram("G", 2))
    gens = f.generators
    changes = [
        lambda g: g.__setitem__("s", (0, 1, 2, 3)),
        lambda g: g.__delitem__("s"),
        lambda g: g.update(s=(0, 1, 2, 3)),
        lambda g: g.pop("s"),
        lambda g: g.popitem(),
        lambda g: g.clear(),
        lambda g: g.setdefault("u", ()),
        lambda g: g.__ior__({"u": ()}),
    ]
    for change in changes:
        with pytest.raises(TypeError, match="read-only"):
            change(gens)
    assert gens == {"s": (0, 1, 3, 2), "t": (2, 1, 3, 0)}
    # the caller's dict is copied, so changing it later changes nothing
    c2 = folding(DynkinDiagram("C", 2))
    s = {"s": (2, 1, 0)}
    g = FoldingDatum(c2.gamma, c2.gamma_hat, "C2", s, c2.quotient_groups)
    s["s"] = (0, 1, 2)
    assert g.generators == {"s": (2, 1, 0)} and repr(g.generators) == "{'s': (2, 1, 0)}"
    assert g == c2 and hash(g) == hash(c2)
    assert len({folding(d) for d in ALL_DIAGRAMS_RANK_LE_8}) == len(ALL_DIAGRAMS_RANK_LE_8)
    for p in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(gens, p))
        assert back == gens and hash(back) == hash(gens)
        with pytest.raises(TypeError, match="read-only"):
            back["s"] = ()


def test_folding_elements_multiplication_table():
    f = folding(DynkinDiagram("G", 2))
    elems = f.elements()
    assert sorted(elems) == sorted(("e", "s", "t", "tt", "st", "stt"))
    assert len(set(elems.values())) == 6
    s, t = elems["s"], elems["t"]
    # "st" means apply t first, then s
    assert elems["st"] == tuple(s[t[i]] for i in range(4))


def test_folding_elements_act_as_their_words_do_on_the_fundamental_group():
    # elements() and ModularRep.elements() share one word evaluator; a
    # word's permutation, pushed to P/Q, must be the product of the
    # generators' induced matrices in the word's order
    diagrams = [DynkinDiagram(s, n) for s in "BC" for n in range(2, 30)]
    diagrams += [DynkinDiagram("F", 4), DynkinDiagram("G", 2)]
    for d in diagrams:
        f = folding(d)
        c = cartan_matrix(f.gamma_hat)
        action = symmetry_action_on_fundamental_group(f)
        divisors = action.group.divisors

        def reduced(m):
            return tuple(tuple(e % divisors[i] for e in row) for i, row in enumerate(m))

        elements = f.elements()
        assert len(elements) == f.symmetry_order()
        for word, perm in elements.items():
            want = intmat.identity(len(divisors))
            for label in "" if word == "e" else word:
                want = reduced(intmat.multiply(want, action.action[label]))
            got = reduced(intmat.induced_endomorphism(c, rootsys._permutation_matrix(perm)))
            assert got == want, (d, word)


SYMMETRY_EXPECT = {
    # gamma: (divisors of the unfolded fundamental group, action summary)
    "B2": ((4,), "negation"),
    "B3": ((6,), "negation"),
    "B5": ((10,), "negation"),
    "C4": ((4,), "negation"),      # unfolds to D5
    "F4": ((3,), "negation"),
}


def test_symmetry_action_negation_cases():
    for name, (divisors, _) in SYMMETRY_EXPECT.items():
        d = DynkinDiagram(name[0], int(name[1:]))
        e = symmetry_action_on_fundamental_group(folding(d))
        assert e.group.divisors == divisors, name
        n = len(divisors)
        want = tuple(
            tuple((-1 if i == j else 0) % divisors[i] for j in range(n))
            for i in range(n)
        )
        assert e.action["s"] == want, name
        assert e.kind == "C2"


def _orbit_permutation(matrix, divisors):
    """The action of an integer matrix on the nonzero group elements."""
    n = len(divisors)
    elements = []

    def build(prefix):
        if len(prefix) == n:
            elements.append(tuple(prefix))
            return
        for v in range(divisors[len(prefix)]):
            build(prefix + [v])

    build([])
    nonzero = [e for e in elements if any(e)]
    perm = {}
    for e in nonzero:
        image = tuple(
            sum(matrix[i][j] * e[j] for j in range(n)) % divisors[i]
            for i in range(n)
        )
        perm[e] = image
    return perm


def test_symmetry_action_c_odd_swaps_spin_classes():
    # C_n with n odd unfolds to D_{n+1} with n+1 even: the fundamental
    # group is (Z/2)^2 and the swap must exchange two of the three
    # nonzero elements while fixing the third
    for n in (3, 5, 7):
        e = symmetry_action_on_fundamental_group(folding(DynkinDiagram("C", n)))
        assert e.group.divisors == (2, 2)
        perm = _orbit_permutation(e.action["s"], (2, 2))
        fixed = [v for v, w in perm.items() if v == w]
        moved = [v for v, w in perm.items() if v != w]
        assert len(fixed) == 1 and len(moved) == 2
        assert perm[moved[0]] == moved[1] and perm[moved[1]] == moved[0]


def test_symmetry_action_g2_is_full_s3():
    e = symmetry_action_on_fundamental_group(folding(DynkinDiagram("G", 2)))
    assert e.group.divisors == (2, 2) and e.kind == "S3"
    s, t = e.action["s"], e.action["t"]

    def mat_mod(m):
        return tuple(tuple(x % 2 for x in row) for row in m)

    def mul(a, b):
        return mat_mod(intmat.multiply(a, b))

    # close up under multiplication: must give six distinct matrices
    group = {mat_mod(intmat.identity(2))}
    frontier = [mat_mod(s), mat_mod(t)]
    while frontier:
        m = frontier.pop()
        if m in group:
            continue
        group.add(m)
        frontier.extend(mul(m, g) for g in (mat_mod(s), mat_mod(t)))
    assert len(group) == 6
    # and the six act as the six permutations of the nonzero vectors
    perms = {tuple(sorted(_orbit_permutation(m, (2, 2)).items())) for m in group}
    assert len(perms) == 6


def test_symmetry_action_trivial_for_simply_laced():
    e = symmetry_action_on_fundamental_group(folding(DynkinDiagram("A", 4)))
    assert e.kind == "trivial" and e.group.divisors == (5,)
    e = symmetry_action_on_fundamental_group(folding(DynkinDiagram("E", 8)))
    assert e.kind == "trivial" and e.group.divisors == ()


@pytest.mark.parametrize(
    "name", ["B2", "B3", "C3", "F4", "G2"]
)
def test_symmetry_action_matches_coset_oracle(name):
    """Every induced generator must implement the true coset permutation."""
    d = DynkinDiagram(name[0], int(name[1:]))
    f = folding(d)
    c = cartan_matrix(f.gamma_hat)
    group, proj = intmat.cokernel(c)
    divisors = group.divisors
    tor = len(divisors)
    reps = oracles.coset_representatives(c)
    assert len(reps) == group.order()
    e = symmetry_action_on_fundamental_group(f)
    n = f.gamma_hat.rank
    for label, perm in f.generators.items():
        pmat = [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)]
        oracle_perm = oracles.coset_action(c, pmat, reps)
        m = e.action[label]
        for k, rep in enumerate(reps):
            coords = [sum(proj[i][q] * rep[i] for i in range(n)) for q in range(tor)]
            lhs = [
                sum(proj[i][q] * reps[oracle_perm[k]][i] for i in range(n))
                % divisors[q]
                for q in range(tor)
            ]
            rhs = [
                sum(m[q][l] * coords[l] for l in range(tor)) % divisors[q]
                for q in range(tor)
            ]
            assert lhs == rhs, (name, label)
