"""Value semantics of the package's record classes, the import weight of
a cold command-line request, and the library's standard-library-only
imports."""

from __future__ import annotations

import ast
import copy
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from decnum import (
    ConeData,
    DecompositionReport,
    DynkinDiagram,
    EquivariantAbGroup,
    ExtensionFlavor,
    FGraded,
    FinAbGroup,
    FoldingDatum,
    GradedOModule,
    LinkEntry,
    ModularRep,
    OModule,
    RootSystemData,
    SnfResult,
    equivariant_decomposition,
    folding,
    link_cohomology_simple,
    root_system,
    smith_normal_form,
    subregular_cone,
)
from decnum.intmat import check_prime, freeze
from decnum.perverse import ZERO_ENTRY

SRC = Path(__file__).resolve().parents[1] / "src"


def samples():
    """One value of each record class with its repr; two calls give equal,
    distinct objects."""
    return [
        (smith_normal_form([[2, -1], [-1, 2]]),
         "SnfResult(u=((-1, 0), (2, 1)), d=((1, 0), (0, 3)), v=((0, 1), (1, 2)))"),
        (FinAbGroup((2, 4), 1), "FinAbGroup(divisors=(2, 4), free_rank=1)"),
        (OModule(2, (1, 3)), "OModule(rank=2, torsion=(3, 1))"),
        (DynkinDiagram("D", 5), "DynkinDiagram(series='D', rank=5)"),
        (root_system(DynkinDiagram("A", 1)),
         "RootSystemData(cartan=((2,),), roots=((-1,), (1,)), "
         "lengths=('long', 'long'), highest_root=(1,), dual_coxeter=2)"),
        (folding(DynkinDiagram("B", 2)),
         "FoldingDatum(gamma=DynkinDiagram(series='B', rank=2), "
         "gamma_hat=DynkinDiagram(series='A', rank=3), symmetry='C2', "
         "generators={'s': (2, 1, 0)}, "
         "quotient_groups=('cyclic of order 4', 'binary dihedral of order 8'))"),
        (EquivariantAbGroup(FinAbGroup((6,)), {"s": ((5,),)}),
         "EquivariantAbGroup(group=FinAbGroup(divisors=(6,), free_rank=0), "
         "action={'s': ((5,),)})"),
        (ModularRep(3, 1, {"s": ((2,),)}), "ModularRep(ell=3, dim=1, action={'s': ((2,),)})"),
        (LinkEntry(None), "LinkEntry(rank=None, torsion=())"),
        (ExtensionFlavor("p", "!*"), "ExtensionFlavor(perversity='p', kind='!*')"),
        (link_cohomology_simple(DynkinDiagram("A", 1)),
         "ConeData(label='simple A1', open_dim=2, link_cohomology={"
         "0: LinkEntry(rank=1, torsion=()), 2: LinkEntry(rank=0, torsion=(2,)), "
         "3: LinkEntry(rank=1, torsion=())}, completeness='full', "
         "equivariant_degrees={})"),
        (equivariant_decomposition(subregular_cone(DynkinDiagram("B", 2)), "C2", 2),
         "DecompositionReport(singularity='subregular B2', ell=2, group='C2', "
         "plain=1, per_character={'1': 1})"),
    ]


FROZEN = (SnfResult, FinAbGroup, OModule, DynkinDiagram, RootSystemData,
          FoldingDatum, LinkEntry, ExtensionFlavor)
MUTABLE = (EquivariantAbGroup, ModularRep, ConeData, DecompositionReport)


def test_every_record_class_is_sampled():
    assert [type(value) for value, _ in samples()] == [
        SnfResult, FinAbGroup, OModule, DynkinDiagram, RootSystemData, FoldingDatum,
        EquivariantAbGroup, ModularRep, LinkEntry, ExtensionFlavor, ConeData,
        DecompositionReport,
    ]
    assert set(FROZEN) | set(MUTABLE) == {type(value) for value, _ in samples()}


def test_reprs():
    for value, text in samples():
        assert repr(value) == text


def test_equality_is_fieldwise_within_a_class():
    for (a, _), (b, _) in zip(samples(), samples()):
        assert a == b and not a != b and a is not b
    values = [value for value, _ in samples()]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) == (i == j)
    # same field values, different classes, or a plain tuple: never equal
    assert LinkEntry(0, ()) != OModule(0, ())
    assert OModule(0, ()) != (0, ())
    assert FinAbGroup((2,), 0) != LinkEntry(0, (2,))
    assert OModule(1, (2,)) != OModule(1, (2, 1))


def test_hashing():
    for (a, _), (b, _) in zip(samples(), samples()):
        if isinstance(a, MUTABLE):
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
    assert len({OModule(1, (1, 2)), OModule(1, (2, 1)), OModule(1)}) == 2


def test_frozen_records_refuse_assignment_and_deletion():
    for value, _ in samples():
        # the constructor's parameters are the fields, in order
        for field in inspect.signature(type(value)).parameters:
            before = getattr(value, field)
            if isinstance(value, FROZEN):
                with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                    setattr(value, field, before)
                with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                    delattr(value, field)
            else:
                setattr(value, field, before)
            assert getattr(value, field) is before
        if isinstance(value, FROZEN):
            with pytest.raises(AttributeError):
                value.extra = 1


def test_default_dicts_are_not_shared():
    d = DynkinDiagram("A", 2)
    pairs = [
        (EquivariantAbGroup(FinAbGroup()), EquivariantAbGroup(FinAbGroup()), "action"),
        (ModularRep(2, 0), ModularRep(2, 0), "action"),
        (ConeData("c", 2, {0: LinkEntry(1)}), ConeData("c", 2, {0: LinkEntry(1)}),
         "equivariant_degrees"),
        (FoldingDatum(d, d, "trivial"), FoldingDatum(d, d, "trivial"), "generators"),
    ]
    for a, b, field in pairs:
        assert getattr(a, field) == {} and getattr(a, field) is not getattr(b, field)
    a, b = pairs[2][:2]
    a.equivariant_degrees[5] = None
    assert b.equivariant_degrees == {}


def test_pickle_and_deepcopy_round_trip():
    for value, text in samples():
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value and repr(back) == text
        clone = copy.deepcopy(value)
        assert type(clone) is type(value) and clone == value and clone is not value
        assert copy.copy(value) == value


def test_validation_messages_keep_their_order():
    with pytest.raises(ValueError, match="invalid invariant factor 1"):
        FinAbGroup((1,), -1)
    with pytest.raises(ValueError, match="invalid rank -1"):
        OModule(-1, (0,))
    with pytest.raises(ValueError, match="unknown-rank entries must be torsion-free"):
        LinkEntry(None, (1,))
    with pytest.raises(ValueError, match="unknown perversity 'q'"):
        ExtensionFlavor("q", "?")
    with pytest.raises(ValueError, match="equivariant structure requires a finite group"):
        EquivariantAbGroup(FinAbGroup((), 1), {"x": ()})
    with pytest.raises(ValueError, match="ell must be a prime"):
        ModularRep(4, -1)
    with pytest.raises(ValueError, match="open part must have positive dimension"):
        ConeData("c", 0, {1: None})


class Count(int):
    """An int subclass: not an int to the package, like a bool."""


# every integer field: a call that puts x there, and the message that
# refuses an x whose type is not int
INTEGER_FIELDS = {
    "matrix entry": (lambda x: freeze([[x]]), "non-integer entry {!r}"),
    "prime": (check_prime, "ell must be a prime, got {!r}"),
    "invariant factor": (lambda x: FinAbGroup((x,)), "invalid invariant factor {!r}"),
    "free rank": (lambda x: FinAbGroup((), x), "invalid free rank {!r}"),
    "module rank": (OModule, "invalid rank {!r}"),
    "torsion exponent": (lambda x: OModule(1, (x,)), "invalid torsion exponent {!r}"),
    "graded degree": (lambda x: GradedOModule({x: OModule(1)}), "non-integer degree {!r}"),
    "F degree": (lambda x: FGraded({x: 1}), "bad graded dimension entry {!r}: 1"),
    "F dimension": (lambda x: FGraded({0: x}), "bad graded dimension entry 0: {!r}"),
    "link rank": (LinkEntry, "invalid rank {!r}"),
    "Dynkin rank": (lambda x: DynkinDiagram("A", x), "inadmissible type A{}"),
    "representation dim": (lambda x: ModularRep(2, x), "dim must be an int, got {!r}"),
    "open_dim": (lambda x: ConeData("x", x, {0: LinkEntry(1)}),
                 "open_dim must be an int, got {!r}"),
    "link degree": (lambda x: ConeData("x", 2, {x: LinkEntry(1)}), "bad link entry at {!r}"),
    "window bound": (lambda x: ConeData("x", 2, {5: ZERO_ENTRY, 6: ZERO_ENTRY},
                                        completeness=(x, 6)),
                     "completeness must be 'full' or (lo, hi), got ({!r}, 6)"),
    "equivariant degree": (
        lambda x: ConeData("x", 2, {0: LinkEntry(1), 2: LinkEntry(0, (2,))},
                           equivariant_degrees={x: EquivariantAbGroup(FinAbGroup((2,)))}),
        "bad equivariant entry at {!r}"),
}


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_fields_refuse_bools_int_subclasses_and_floats(field):
    build, message = INTEGER_FIELDS[field]
    for x in (True, False, Count(3), 1.0):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(x))}$"):
            build(x)


LAYERS = ("intmat", "omodule", "rootsys", "modrep", "perverse", "tables", "cli")
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "json", "typing")


def test_cold_cli_import_stays_light():
    # a cold request pays for every module it imports, and without
    # bytecode it recompiles each one; the command line needs none of these
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, decnum.cli; "
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules)); "
        f"print(sorted(m for m in {LAYERS!r} if 'decnum.' + m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    heavy, layers = done.stdout.splitlines()
    assert heavy == "[]"
    assert layers == repr(sorted(LAYERS))


def test_library_imports_only_the_standard_library():
    # decnum has no dependencies: every import is relative or names a
    # standard-library module
    paths = sorted((SRC / "decnum").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
