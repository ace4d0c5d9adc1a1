"""Invariant-level DVR modules, graded variants, reductions, duality."""

from __future__ import annotations

import random

import pytest

from decnum import omodule
from decnum.omodule import (
    DEFAULT_WINDOW,
    ZERO,
    DegreeWindowError,
    FGraded,
    GradedOModule,
    OModule,
    degree_window,
    poincare_dual,
    reduce_graded,
    truncate_F,
)


def test_omodule_canonical_form():
    m = OModule(2, (1, 3, 2))
    assert m.torsion == (3, 2, 1)
    assert OModule(0, [2]).torsion == (2,)  # a list becomes a tuple, even of one
    assert OModule(0, ()) == ZERO and ZERO.is_zero()
    assert not OModule(1).is_zero()
    assert str(OModule(1)) == "O"
    assert str(OModule(2, (3, 1))) == "O^2 + O/pi^3 + O/pi"
    assert str(ZERO) == "0"


def test_omodule_validation():
    with pytest.raises(ValueError):
        OModule(-1)
    with pytest.raises(ValueError):
        OModule(0, (0,))
    with pytest.raises(ValueError):
        OModule(0, (2, -1))
    with pytest.raises(ValueError):
        OModule("1")


def test_graded_drops_zero_and_sorts():
    g = GradedOModule({3: OModule(1), -1: OModule(0, (2,)), 0: ZERO})
    assert g.degrees() == (-1, 3)
    assert g.module_at(0) == ZERO
    assert g.module_at(-1) == OModule(0, (2,))
    assert not g.is_zero()
    assert GradedOModule({}).is_zero()
    assert g == GradedOModule([(3, OModule(1)), (-1, OModule(0, (2,)))])
    assert hash(g) == hash(GradedOModule(dict(g.items())))
    assert GradedOModule({}) != {}


def test_graded_validation():
    with pytest.raises(ValueError, match="listed twice"):
        GradedOModule([(0, OModule(1)), (0, OModule(1))])
    with pytest.raises(ValueError, match="non-integer degree"):
        GradedOModule({0.5: OModule(1)})
    with pytest.raises(ValueError, match="expected OModule"):
        GradedOModule({0: 3})


def test_constructors_name_the_first_fault_in_entry_order():
    """OModule checks its rank, then its exponents in descending order;
    GradedOModule and FGraded check each entry in input order, its
    types, then its value, then its degree against the window, and pass
    over zero entries before the window and the repeat checks."""
    one = OModule(1)
    for make, want in (
        (lambda: OModule(-1, (0,)), "invalid rank -1"),
        (lambda: OModule(1, (-1, 0)), "invalid torsion exponent 0"),
        (lambda: OModule(1, [0]), "invalid torsion exponent 0"),
        (lambda: OModule(1, (2, True)), "invalid torsion exponent True"),
        (lambda: OModule(1, (0, 2.0)), "invalid torsion exponent 2.0"),
        (lambda: GradedOModule([(0.5, one), (1, 3)]), "non-integer degree 0.5"),
        (lambda: GradedOModule([(1, 3), (0.5, one)]), "degree 1: expected OModule, got 3"),
        (lambda: GradedOModule([(40, one), (40, one)]),
         "degree 40 outside support window [-32, 32]"),
        (lambda: GradedOModule([(0, one), (0, one), (40, one)]), "degree 0 listed twice"),
        (lambda: GradedOModule([(1, one), (40, one), (0.5, one)]),
         "degree 40 outside support window [-32, 32]"),
        (lambda: FGraded({0.5: 1, 0: -1}), "bad graded dimension entry 0.5: 1"),
        (lambda: FGraded({0: -1, 0.5: 1}), "negative dimension at degree 0"),
        (lambda: FGraded({40: 0, 1: 2.0}), "bad graded dimension entry 1: 2.0"),
        (lambda: FGraded({40: 1, 0: -1}), "degree 40 outside support window [-32, 32]"),
    ):
        with pytest.raises(ValueError) as e:
            make()
        assert str(e.value) == want
    with pytest.raises(TypeError, match="not supported between"):
        OModule(1, (1, "x"))
    assert GradedOModule([(40, ZERO), (0, ZERO), (0, one)]).items() == ((0, one),)
    assert FGraded({40: 0, 3: 1, -2: 2}).dims() == {-2: 2, 3: 1}


def test_degree_window_default_and_enforcement():
    assert degree_window() == DEFAULT_WINDOW == (-32, 32)
    GradedOModule({32: OModule(1), -32: OModule(1)})
    with pytest.raises(DegreeWindowError, match=r"degree 33 outside support window"):
        GradedOModule({33: OModule(1)})
    with pytest.raises(DegreeWindowError):
        FGraded({-33: 1})
    # zero entries never trip the check
    GradedOModule({100: ZERO})
    FGraded({100: 0})


def test_degree_window_env_symmetric(monkeypatch):
    monkeypatch.setenv("DECNUM_DEGREE_WINDOW", "48")
    assert degree_window() == (-48, 48)
    GradedOModule({40: OModule(1)})
    with pytest.raises(DegreeWindowError):
        GradedOModule({49: OModule(1)})


def test_degree_window_env_explicit(monkeypatch):
    monkeypatch.setenv("DECNUM_DEGREE_WINDOW", "-4:64")
    assert degree_window() == (-4, 64)
    GradedOModule({60: OModule(1)})
    with pytest.raises(DegreeWindowError):
        GradedOModule({-5: OModule(1)})


def test_degree_window_env_malformed(monkeypatch):
    monkeypatch.setenv("DECNUM_DEGREE_WINDOW", "wide")
    with pytest.raises(ValueError, match="cannot parse"):
        degree_window()
    monkeypatch.setenv("DECNUM_DEGREE_WINDOW", "8:2")
    with pytest.raises(ValueError, match="reversed"):
        degree_window()


def test_fgraded_basics():
    f = FGraded({2: 1, 0: 3, 5: 0})
    assert f.dims() == {0: 3, 2: 1}
    assert f.degrees() == (0, 2)
    assert f.dim_at(5) == 0
    assert f.total_dim() == 4
    assert FGraded({-2: 1, -1: 1}).euler_characteristic() == 0
    assert FGraded({0: 2, 1: 3, 2: 4}).euler_characteristic() == 3
    with pytest.raises(ValueError, match="negative dimension"):
        FGraded({0: -1})
    assert FGraded({}) != {}


def test_reduce_graded_frozen():
    g = GradedOModule({0: OModule(1), 2: OModule(0, (1,)), 3: OModule(1)})
    assert reduce_graded(g).dims() == {0: 1, 1: 1, 2: 1, 3: 1}
    assert reduce_graded(GradedOModule({})).dims() == {}
    # a lone torsion module spreads over two degrees
    assert reduce_graded(GradedOModule({0: OModule(0, (2, 1))})).dims() == {
        -1: 2,
        0: 2,
    }


def test_degree_window_read_once_per_object(monkeypatch):
    calls = []
    real = omodule.degree_window
    monkeypatch.setattr(omodule, "degree_window", lambda: calls.append(1) or real())
    GradedOModule({d: OModule(1) for d in range(-3, 4)})
    FGraded({d: 2 for d in range(5)})
    assert len(calls) == 2
    GradedOModule({0: ZERO})
    FGraded({0: 0})
    assert len(calls) == 2


def test_truncate_F():
    f = FGraded({-2: 1, -1: 1, 0: 2})
    assert truncate_F(f, -1).dims() == {-2: 1, -1: 1}
    assert truncate_F(f, -3).dims() == {}
    assert truncate_F(f, 0) == f
    assert truncate_F(f, 0, floor=-1).dims() == {-1: 1, 0: 2}
    assert truncate_F(f, -1, floor=-1) == FGraded({-1: 1})


def test_poincare_dual_frozen():
    hc = GradedOModule({1: OModule(1), 3: OModule(0, (2,)), 4: OModule(1)})
    dual = poincare_dual(hc, 4)
    assert dual.items() == (
        (0, OModule(1)),
        (2, OModule(0, (2,))),
        (3, OModule(1)),
    )
    assert poincare_dual(GradedOModule({}), 7).is_zero()


def random_graded(rng, max_deg=6):
    mods = {}
    for deg in range(-max_deg, max_deg + 1):
        if rng.random() < 0.4:
            rank = rng.randint(0, 3)
            torsion = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
            if rank or torsion:
                mods[deg] = OModule(rank, torsion)
    return GradedOModule(mods)


def test_poincare_dual_is_an_involution():
    rng = random.Random(101)
    for _ in range(200):
        g = random_graded(rng)
        dim = rng.randint(-3, 9)
        assert poincare_dual(poincare_dual(g, dim), dim) == g


def test_euler_characteristic_only_sees_ranks():
    """Reduction mod pi cancels torsion in the alternating sum."""
    rng = random.Random(202)
    for _ in range(300):
        g = random_graded(rng)
        chi = reduce_graded(g).euler_characteristic()
        want = sum(
            m.rank if deg % 2 == 0 else -m.rank for deg, m in g.items()
        )
        assert chi == want


def test_reduce_graded_dimension_count():
    # total dimension = ranks + twice the torsion count
    rng = random.Random(303)
    for _ in range(100):
        g = random_graded(rng)
        total = reduce_graded(g).total_dim()
        want = sum(m.rank + 2 * len(m.torsion) for _, m in g.items())
        assert total == want
