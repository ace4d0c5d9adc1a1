"""Tiny-group actions, mod-l reduction, composition multiplicities."""

from __future__ import annotations

import random
from itertools import product

import pytest

from decnum import modrep
from decnum.intmat import FinAbGroup, Matrix, determinant, identity, multiply, transpose
from decnum.modrep import (
    CHARACTER_DIMS,
    EquivariantAbGroup,
    ModularRep,
    composition_multiplicities,
    irreducible_labels,
    modp_rank,
    reduce_mod_l,
)
from decnum.perverse import subregular_cone
from decnum.rootsys import DynkinDiagram

import oracles

# integer matrices for the 2-dimensional irreducible of S3; they satisfy
# the relations over Z, hence over every prime field
PSI_S = ((0, 1), (1, 0))
PSI_T = ((0, -1), (1, -1))


def s3_blocks(ell, counts):
    """Direct sum of (trivial, sign, two-dimensional) blocks, as a rep."""
    n1, neps, npsi = counts
    dim = n1 + neps + 2 * npsi
    s = [[0] * dim for _ in range(dim)]
    t = [[0] * dim for _ in range(dim)]
    pos = 0
    for _ in range(n1):
        s[pos][pos] = t[pos][pos] = 1
        pos += 1
    for _ in range(neps):
        s[pos][pos] = -1
        t[pos][pos] = 1
        pos += 1
    for _ in range(npsi):
        for i in range(2):
            for j in range(2):
                s[pos + i][pos + j] = PSI_S[i][j]
                t[pos + i][pos + j] = PSI_T[i][j]
        pos += 2
    return ModularRep(ell, dim, {"s": s, "t": t})


def s3_regular(ell):
    """Left regular representation on the six group elements."""
    elems = [
        (0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)
    ]
    index = {e: i for i, e in enumerate(elems)}

    def compose(a, b):  # a after b
        return tuple(a[b[i]] for i in range(3))

    def left_mult(g):
        m = [[0] * 6 for _ in range(6)]
        for j, h in enumerate(elems):
            m[index[compose(g, h)]][j] = 1
        return m

    return ModularRep(ell, 6, {"s": left_mult((1, 0, 2)), "t": left_mult((1, 2, 0))})


def random_invertible(rng, dim, p):
    while True:
        m = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if modp_rank(m, p) == dim:
            return m


def conjugate(rep, g):
    """g rho g^{-1}, with the inverse computed by augmented elimination."""
    p, dim = rep.ell, rep.dim
    aug = [list(row) + [1 if i == j else 0 for j in range(dim)]
           for i, row in enumerate(g)]
    row = 0
    for col in range(dim):
        pivot = next(r for r in range(row, len(aug)) if aug[r][col] % p)
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = pow(aug[row][col], p - 2, p)
        aug[row] = [(x * inv) % p for x in aug[row]]
        for r in range(dim):
            if r != row and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[row])]
        row += 1
    ginv = [r[dim:] for r in aug]

    def mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(dim)) % p for j in range(dim)]
            for i in range(dim)
        ]

    action = {lb: mul(mul(g, m), ginv) for lb, m in rep.action.items()}
    return ModularRep(p, dim, action)


def test_equivariant_group_validation():
    e = EquivariantAbGroup(FinAbGroup((6,)), {"s": ((-1,),)})
    assert e.action["s"] == ((5,),)
    assert e.kind == "C2"
    assert EquivariantAbGroup(FinAbGroup(())).kind == "trivial"
    with pytest.raises(ValueError, match="finite group"):
        EquivariantAbGroup(FinAbGroup((), 1))
    with pytest.raises(ValueError, match="unsupported generator set"):
        EquivariantAbGroup(FinAbGroup((2,)), {"x": ((1,),)})
    with pytest.raises(ValueError, match="square to the identity"):
        EquivariantAbGroup(FinAbGroup((5,)), {"s": ((2,),)})
    with pytest.raises(ValueError, match="must be 1x1"):
        EquivariantAbGroup(FinAbGroup((2,)), {"s": ((1, 0), (0, 1))})
    # relations are only required mod the divisors
    EquivariantAbGroup(FinAbGroup((2, 2)), {"s": ((3, 2), (4, 1))})


def test_equivariant_s3_relations():
    g = FinAbGroup((2, 2))
    s = ((0, 1), (1, 0))
    t = ((0, 1), (1, 1))
    e = EquivariantAbGroup(g, {"s": s, "t": t})
    assert e.kind == "S3"
    with pytest.raises(ValueError, match="cube to the identity"):
        EquivariantAbGroup(g, {"s": s, "t": s})
    # order-3 matrix paired with a reflection that conjugates it wrongly
    with pytest.raises(ValueError, match="s t s = t"):
        EquivariantAbGroup(FinAbGroup((7, 7)), {
            "s": ((6, 0), (0, 1)),
            "t": ((2, 0), (0, 4)),
        })


def test_modular_rep_validation():
    r = ModularRep(3, 1, {"s": ((-1,),)})
    assert r.action["s"] == ((2,),)
    assert r.kind == "C2"
    assert ModularRep(5, 0, {}).kind == "trivial"
    with pytest.raises(ValueError, match="^generator s must square to the identity$"):
        ModularRep(2, 2, {"s": ((1, 1), (1, 1))})
    with pytest.raises(ValueError, match="square to the identity"):
        ModularRep(5, 1, {"s": ((2,),)})
    with pytest.raises(ValueError, match="cube to the identity"):
        ModularRep(5, 2, {"s": PSI_S, "t": ((1, 0), (0, 4))})
    with pytest.raises(ValueError, match="ell must be a prime"):
        ModularRep(1, 1, {})
    with pytest.raises(ValueError, match="ell must be a prime, got 4"):
        ModularRep(4, 1, {"s": ((3,),)})
    with pytest.raises(ValueError, match="negative dimension"):
        ModularRep(2, -1, {})
    for dim in (1.5, "1", True):
        with pytest.raises(ValueError, match=f"^dim must be an int, got {dim!r}$"):
            ModularRep(2, dim)


def test_check_relations_refuses_wrong_labels():
    # EquivariantAbGroup and ModularRep find the kind from the labels, so
    # only a caller naming the kind, as FoldingDatum does, reaches this
    for kind, gens in (("C2", {"t": PSI_S}), ("C2", {"s": PSI_S, "t": PSI_T}),
                       ("S3", {"s": PSI_S}), ("trivial", {"s": PSI_S})):
        with pytest.raises(ValueError, match="^generator labels do not match symmetry group$"):
            modrep.check_relations(kind, gens, identity(2), multiply)
    modrep.check_relations("S3", {"s": PSI_S, "t": PSI_T}, identity(2), multiply)


def test_modular_rep_elements():
    r = s3_blocks(5, (0, 0, 1))
    elems = r.elements()
    assert sorted(elems) == ["e", "s", "st", "stt", "t", "tt"]
    assert len(set(elems.values())) == 6
    assert elems["e"] == identity(2)
    r2 = ModularRep(3, 1, {"s": ((2,),)})
    assert set(r2.elements()) == {"e", "s"}


def test_modp_rank_basic():
    assert modp_rank(identity(4), 7) == 4
    assert modp_rank(((2, 4), (1, 2)), 3) == 1
    assert modp_rank(((2, 4), (1, 3)), 5) == 2
    assert modp_rank(((0,),), 2) == 0
    assert modp_rank((), 2) == 0


def test_modp_rank_random_properties():
    rng = random.Random(404)
    for _ in range(150):
        p = rng.choice((2, 3, 5, 7))
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        r = modp_rank(m, p)
        assert r == modp_rank(transpose(tuple(map(tuple, m))), p)
        assert r <= min(rows, cols)
        if rows == cols:
            assert (determinant(m) % p != 0) == (r == rows)


def test_reduce_mod_l():
    e = EquivariantAbGroup(FinAbGroup((6,)), {"s": ((5,),)})
    assert reduce_mod_l(e, 2).action["s"] == ((1,),)
    assert reduce_mod_l(e, 3).action["s"] == ((2,),)
    assert reduce_mod_l(e, 5).dim == 0
    e2 = EquivariantAbGroup(
        FinAbGroup((2, 4, 12)), {"s": ((1, 0, 0), (0, 3, 0), (0, 6, 11))}
    )
    r = reduce_mod_l(e2, 2)
    assert r.dim == 3
    r3 = reduce_mod_l(e2, 3)
    assert r3.dim == 1 and r3.action["s"] == ((2,),)


def test_reduction_checks_each_generator_once(monkeypatch):
    """Only the generators reduce_mod_l restricts are checked matrices;
    their reductions, the relation unit and the relation products are
    built unchecked."""
    eq = subregular_cone(DynkinDiagram("G", 2)).equivariant_degrees[2]
    checked = []
    real = Matrix.__new__
    monkeypatch.setattr(Matrix, "__new__", lambda cls, m: checked.append(m) or real(cls, m))
    assert composition_multiplicities(reduce_mod_l(eq, 2)) == {"1": 0, "psi": 1}
    assert len(checked) == 2  # s and t


def test_irreducible_labels():
    assert irreducible_labels("trivial", 2) == ("1",)
    assert irreducible_labels("C2", 2) == ("1",)
    assert irreducible_labels("C2", 3) == ("1", "eps")
    assert irreducible_labels("S3", 2) == ("1", "psi")
    assert irreducible_labels("S3", 3) == ("1", "eps")
    assert irreducible_labels("S3", 5) == ("1", "eps", "psi")
    assert irreducible_labels("S3", 7) == ("1", "eps", "psi")
    with pytest.raises(ValueError, match="unknown group"):
        irreducible_labels("C3", 2)
    with pytest.raises(ValueError, match="^ell must be a prime, got 4$"):
        irreducible_labels("S3", 4)
    with pytest.raises(ValueError, match="^ell must be a prime, got 1$"):
        irreducible_labels("C2", 1)


def test_character_dims():
    assert CHARACTER_DIMS == {"1": 1, "eps": 1, "psi": 2}


def test_multiplicities_frozen_cases():
    assert composition_multiplicities(ModularRep(7, 3, {})) == {"1": 3}
    assert composition_multiplicities(ModularRep(2, 2, {"s": ((0, 1), (1, 0))})) == {
        "1": 2
    }
    assert composition_multiplicities(
        ModularRep(5, 2, {"s": ((1, 0), (0, 4))})
    ) == {"1": 1, "eps": 1}
    # non-semisimple order-2 action: a Jordan block mod 2
    assert composition_multiplicities(ModularRep(2, 2, {"s": ((1, 1), (0, 1))})) == {
        "1": 2
    }
    assert composition_multiplicities(s3_blocks(2, (0, 0, 1))) == {"1": 0, "psi": 1}
    assert composition_multiplicities(s3_blocks(3, (1, 1, 0))) == {"1": 1, "eps": 1}
    assert composition_multiplicities(s3_regular(2)) == {"1": 2, "psi": 2}
    assert composition_multiplicities(s3_regular(3)) == {"1": 3, "eps": 3}
    assert composition_multiplicities(s3_regular(5)) == {"1": 1, "eps": 1, "psi": 2}
    assert composition_multiplicities(s3_regular(7)) == {"1": 1, "eps": 1, "psi": 2}
    # mod 3 the two-dimensional block contributes one of each linear factor
    assert composition_multiplicities(s3_blocks(3, (0, 0, 2))) == {"1": 2, "eps": 2}


def test_zero_dimensional_reps():
    for kind, action in [("trivial", {}), ("C2", {"s": ()}), ("S3", {"s": (), "t": ()})]:
        r = ModularRep(3, 0, action)
        out = composition_multiplicities(r)
        assert set(out) == set(irreducible_labels(kind, 3))
        assert all(v == 0 for v in out.values())


def brute(rep):
    return dict(oracles.brute_composition_factors(rep.action, rep.dim, rep.ell))


def assert_matches_brute(rep):
    got = {k: v for k, v in composition_multiplicities(rep).items() if v}
    assert got == brute(rep), (rep.ell, rep.dim, rep.action)


def test_multiplicities_match_brute_force_fixed():
    for ell in (2, 3, 5, 7):
        assert_matches_brute(s3_regular(ell))
        assert_matches_brute(s3_blocks(ell, (2, 1, 1)))
        assert_matches_brute(s3_blocks(ell, (0, 3, 2)))
    assert_matches_brute(ModularRep(2, 2, {"s": ((1, 1), (0, 1))}))


def test_multiplicities_match_brute_force_random_conjugates():
    """Conjugation hides the block structure; factors must be unchanged."""
    rng = random.Random(505)
    for _ in range(60):
        ell = rng.choice((2, 3, 5, 7))
        counts = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        if sum(counts) == 0:
            continue
        plain = s3_blocks(ell, counts)
        g = random_invertible(rng, plain.dim, ell)
        twisted = conjugate(plain, g)
        got = composition_multiplicities(twisted)
        assert got == composition_multiplicities(plain)
        if ell ** plain.dim <= 5000:  # keep the brute-force search cheap
            assert {k: v for k, v in got.items() if v} == brute(twisted)
        if ell not in (2, 3):
            n1, neps, npsi = counts
            assert got == {"1": n1, "eps": neps, "psi": npsi}


def test_s3_eigenspace_counts_match_the_idempotent_route():
    """a 1 + b eps + c psi, hidden by a random change of basis: for
    ell >= 5 the eigenspace counts give (a, b, c), as the central
    idempotents of the reference do."""
    rng = random.Random(1414)
    checked = 0
    for ell in (5, 7, 11, 13):
        for counts in product(range(4), repeat=3):
            plain = s3_blocks(ell, counts)
            for _ in range(4):
                rep = conjugate(plain, random_invertible(rng, plain.dim, ell))
                got = composition_multiplicities(rep)
                assert got == dict(zip(("1", "eps", "psi"), counts)), (ell, rep.action)
                assert got == oracles.idempotent_s3_multiplicities(
                    rep.action["s"], rep.action["t"], rep.dim, ell)
                checked += 1
    assert checked == 4 * 64 * 4


@pytest.mark.parametrize("plus, minus, fixed", [(2, 1, 2), (1, 3, 0)])
def test_s3_eigenspace_counts_refuse_odd_or_negative(monkeypatch, plus, minus, fixed):
    # no S3 representation has these eigenspaces: the first sum is odd,
    # the second gives [1] = -1
    dims = {("s", 1): plus, ("s", 4): minus, ("t", 1): fixed}
    rep = s3_blocks(5, (1, 1, 1))
    labels = {id(m): label for label, m in rep.action.items()}
    monkeypatch.setattr(modrep, "_eigenspace_dim",
                        lambda m, scalar, p, dim: dims[labels[id(m)], scalar])
    with pytest.raises(AssertionError, match="S3 multiplicity accounting failed"):
        composition_multiplicities(rep)


def test_multiplicities_random_c2():
    rng = random.Random(606)
    for _ in range(60):
        ell = rng.choice((2, 3, 5, 7))
        dim = rng.randint(1, 4)
        # random involutions: conjugated diagonal sign matrices
        signs = [rng.choice((1, ell - 1)) for _ in range(dim)]
        base = ModularRep(
            ell, dim, {"s": [[signs[i] if i == j else 0 for j in range(dim)]
                             for i in range(dim)]}
        )
        twisted = conjugate(base, random_invertible(rng, dim, ell))
        got = composition_multiplicities(twisted)
        assert {k: v for k, v in got.items() if v} == brute(twisted)
        assert sum(CHARACTER_DIMS[k] * v for k, v in got.items()) == dim
