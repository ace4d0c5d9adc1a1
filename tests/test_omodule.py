"""Invariant-level DVR modules, graded variants, reductions, duality."""

from __future__ import annotations

import math
import random

import pytest

import oracles
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


def _outcome(call):
    """("ok", value) or (exception class name, message)."""
    try:
        return "ok", call()
    except ValueError as e:
        return type(e).__name__, str(e)


def _random_modules(rng, lo, hi):
    """Graded input near and past the window edges, in any order, with
    zero modules, repeated degrees and now and then a malformed entry."""
    edges = (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1)
    pairs = []
    for _ in range(rng.randint(0, 7)):
        deg = rng.choice(edges) if rng.random() < 0.4 else rng.randint(lo, hi)
        exps = tuple(rng.choice((1, 2, 3)) for _ in range(rng.choice((0, 0, 1, 2))))
        pairs.append((deg, OModule(rng.choice((0, 0, 1, 2)), exps)))
    bad = rng.random()
    if bad < 0.05:
        pairs.insert(rng.randint(0, len(pairs)), (0.5, OModule(1)))
    elif bad < 0.1:
        pairs.insert(rng.randint(0, len(pairs)), (rng.randint(lo, hi), 3))
    if rng.random() < 0.4:
        pairs.sort(key=lambda p: p[0])
    return pairs if rng.random() < 0.5 else dict(pairs)


def _random_dims(rng, lo, hi):
    edges = (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1)
    dims = {}
    for _ in range(rng.randint(0, 7)):
        deg = rng.choice(edges) if rng.random() < 0.4 else rng.randint(lo, hi)
        dims[deg] = rng.choice((0, 0, 1, 2, 3, 5))
    bad = rng.random()
    if bad < 0.05:
        dims[rng.randint(lo, hi)] = -1
    elif bad < 0.1:
        dims[rng.randint(lo, hi)] = 2.0
    if rng.random() < 0.4:
        dims = dict(sorted(dims.items()))
    return dims


@pytest.mark.parametrize("override", [None, "40", "-3:5", "wide"])
def test_graded_objects_match_the_sort_always_reference(monkeypatch, override):
    if override is None:
        monkeypatch.delenv("DECNUM_DEGREE_WINDOW", raising=False)
    else:
        monkeypatch.setenv("DECNUM_DEGREE_WINDOW", override)
    lo, hi = DEFAULT_WINDOW if override in (None, "wide") else degree_window()
    calls = []
    real = omodule.degree_window
    monkeypatch.setattr(omodule, "degree_window", lambda: calls.append(1) or real())

    def run(call):
        # the outcome, and how often it read the window
        calls.clear()
        return _outcome(call), len(calls)

    def f_items(f):
        return tuple(f.dims().items())

    rng = random.Random(f"graded reference {override}")
    for _ in range(300):
        modules = _random_modules(rng, lo, hi)
        got = run(lambda: GradedOModule(modules).items())
        assert got == run(lambda: oracles.reference_graded_items(modules)), modules
        if got[0][0] == "ok":
            g = GradedOModule(modules)
            assert run(lambda: f_items(reduce_graded(g))) == run(
                lambda: oracles.reference_reduce_graded(g.items())), g

        dims = _random_dims(rng, lo, hi)
        got = run(lambda: tuple(FGraded(dims).dims().items()))
        assert got == run(lambda: oracles.reference_f_items(dims)), dims
        if got[0][0] == "ok":
            f = FGraded(dims)
            n = rng.randint(lo - 1, hi + 1)
            floor = rng.choice((-math.inf, rng.randint(lo - 1, hi + 1)))
            assert run(lambda: f_items(truncate_F(f, n, floor))) == run(
                lambda: oracles.reference_truncate_F(f.dims().items(), n, floor)), (f, n, floor)


def _raised_or(call):
    """("ok", repr of the value) or (exception class name, message)."""
    try:
        return "ok", repr(call())
    except Exception as e:  # the exception itself is what is compared
        return type(e).__name__, str(e)


# exponents and ranks, well-formed and not: a bool is not an int, so True
# and False are refused like 2.0; a str among ints fails the sort
EXPONENTS = (1, 1, 2, 3, 5, 0, -1, 2.0, True, False, "x")
RANKS = (0, 0, 1, 2, 3, -1, 1.5, True, None)


def _random_torsion(rng):
    exps = [rng.choice(EXPONENTS[:5] if rng.random() < 0.6 else EXPONENTS)
            for _ in range(rng.choice((0, 0, 1, 1, 2, 3)))]
    return exps if rng.random() < 0.2 else tuple(exps)


def _random_entries(rng, lo, hi, good, bad):
    """(degree, value) pairs around the window edges, in any order, with
    repeated degrees and zero values; each pair is malformed (a degree
    that is no int, or a bad value) with probability 0.15, so some
    inputs carry several faults.  Also returns the malformed count."""
    degrees = (lo - 1, lo, lo + 1, (lo + hi) // 2, hi - 1, hi, hi + 1)
    pairs, faults = [], 0
    for _ in range(rng.randint(0, 8)):
        deg, value = rng.choice(degrees), rng.choice(good)
        if rng.random() < 0.15:
            faults += 1
            if rng.random() < 0.5:
                deg = rng.choice((0.5, "1", None))
            else:
                value = rng.choice(bad)
        pairs.append((deg, value))
    if rng.random() < 0.4:
        pairs.sort(key=lambda p: p[0] if isinstance(p[0], int) else 0)
    return pairs, faults


@pytest.mark.parametrize("override", [None, "-3:0"])
def test_constructors_match_the_per_check_reference(monkeypatch, override):
    """OModule, GradedOModule and FGraded give the value, or the exception
    type and message, of the constructors that made one helper call per
    check, and read the window as often, on inputs dense with faults."""
    if override is None:
        monkeypatch.delenv("DECNUM_DEGREE_WINDOW", raising=False)
    else:
        monkeypatch.setenv("DECNUM_DEGREE_WINDOW", override)
    lo, hi = degree_window()
    calls = []
    real = omodule.degree_window
    monkeypatch.setattr(omodule, "degree_window", lambda: calls.append(1) or real())

    def run(call):
        calls.clear()
        return _raised_or(call), len(calls)

    modules = (ZERO, OModule(1), OModule(0, (2,)), OModule(2, (3, 1)))
    messages, unsorted_ok, multi_fault = [], 0, 0
    rng = random.Random(f"per-check constructors {override}")
    for _ in range(600):
        rank, torsion = rng.choice(RANKS), _random_torsion(rng)
        got = run(lambda: (lambda m: (m.rank, m.torsion))(OModule(rank, torsion)))
        assert got == run(lambda: oracles.per_check_omodule(rank, torsion)), (rank, torsion)
        messages.append(got[0][1])

        pairs, faults = _random_entries(rng, lo, hi, modules, (3, None, (1, ())))
        given = pairs if rng.random() < 0.5 else dict(pairs)
        got = run(lambda: GradedOModule(given).items())
        assert got == run(lambda: oracles.reference_graded_items(given)), given
        messages.append(got[0][1])
        degrees = [deg for deg, _ in pairs]
        unsorted_ok += got[0][0] == "ok" and degrees != sorted(degrees)
        multi_fault += faults >= 2

        pairs, faults = _random_entries(rng, lo, hi, (0, 1, 2, 3), (-1, 2.0, None))
        dims = dict(pairs)
        got = run(lambda: tuple(FGraded(dims).items()))
        assert got == run(lambda: oracles.reference_f_items(dims)), dims
        messages.append(got[0][1])
        multi_fault += faults >= 2
    for fragment in ("invalid rank", "invalid torsion exponent 0", "invalid torsion exponent -1",
                     "invalid torsion exponent 2.0", "invalid torsion exponent False",
                     "not supported between", "non-integer degree", "expected OModule",
                     "listed twice", "outside support window", "bad graded dimension entry",
                     "negative dimension at degree"):
        assert any(fragment in m for m in messages), fragment
    assert unsorted_ok >= 10 and multi_fault >= 20, (unsorted_ok, multi_fault)
