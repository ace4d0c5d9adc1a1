"""The workloads: their operations, inputs and answer checks.

A workload is a sequence of passes; pass i is a list of operations made
from random.Random(f"{name}:{seed}:{i}") alone, so a seed fixes every
input and decnum never sees the seed.  An operation calls decnum, and
its check compares the result with the oracle: a wrong answer raises
WrongAnswer and aborts the run; an exception or a refusal where the
oracle expects an answer is a failure; an expected refusal is correct.
Every decnum function is looked up on its module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import io
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import cligrid
import oracle
from oracle import PRIMES, REFUSED

from decnum import cli, intmat, modrep, perverse, rootsys

LAYERS = ("cli", "tables", "perverse", "omodule", "modrep", "rootsys", "intmat")
CLI_TIMEOUT_S = 60


class WrongAnswer(Exception):
    """decnum returned an answer that disagrees with the oracle."""


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    # (call returned?, result or exception) -> (canonical answer, failed?)
    check: Callable[[bool, object], tuple[object, bool]]
    argv: tuple[str, ...] = ()  # the command line, for grid-cli requests


def _raised(e: Exception) -> tuple[str, str, str]:
    return ("raised", type(e).__name__, str(e))


def _verdict(key: str, want, ok: bool, got, canon) -> tuple[object, bool]:
    if not ok:
        expected_refusal = want == REFUSED and isinstance(got, perverse.ConeError)
        return _raised(got), not expected_refusal
    answer = canon(got)
    if answer != want:
        raise WrongAnswer(f"{key}: got {answer!r}, oracle says {want!r}")
    return answer, False


class Workload:
    name = ""
    tail_q = 0.5          # percentile reported as op_tail_ms
    trace_passes = 1      # passes in one cycle of the traced run
    exercised: tuple[str, ...] = ()  # functions the traced run must see called

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def make_pass(self, index: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------- grid-cli

def in_process(argv) -> tuple[int, bytes, bytes]:
    """Run `decnum argv` through cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue().encode(), err.getvalue().encode()


class GridCli(Workload):
    name = "grid-cli"
    tail_q = 0.90
    exercised = (
        "cli.main", "tables.paper_tables", "tables.render_text", "tables.render_markdown",
        "perverse.link_cohomology_simple", "perverse.subregular_cone",
        "perverse.link_cohomology_minimal", "perverse.decomposition_number",
        "perverse.equivariant_decomposition", "perverse.extension_stalk",
        "perverse.f_extension_stalk", "perverse.localize_stalk",
        "rootsys.fundamental_group", "rootsys.generate_roots", "rootsys.folding",
        "rootsys.cartan_matrix", "rootsys.symmetry_action_on_fundamental_group",
        "intmat.cokernel", "intmat.induced_endomorphism", "omodule.degree_window",
        "omodule.reduce_graded", "omodule.poincare_dual", "modrep.reduce_mod_l",
        "modrep.composition_multiplicities",
    )

    def cold(self, argv) -> tuple[int, bytes, bytes]:
        """Run `python -m decnum.cli argv` in a fresh interpreter.

        It inherits this process's PYTHONPATH, which run.py points at src/.
        """
        done = subprocess.run(
            [sys.executable, "-m", "decnum.cli", *argv], cwd=self.root,
            capture_output=True, timeout=CLI_TIMEOUT_S, check=False,
        )
        return done.returncode, done.stdout, done.stderr

    def make_pass(self, index: int) -> list[Op]:
        return [self.op(argv) for argv in cligrid.make_pass(self.rng(index))]

    def op(self, argv) -> Op:
        key = "decnum " + " ".join(argv)
        return Op(key, lambda: self.cold(argv), lambda ok, got: check_cli(key, argv, ok, got),
                  argv)


def check_cli(key: str, argv, ok: bool, got) -> tuple[object, bool]:
    """Exit code and stdout of one request against the oracle."""
    if not ok:
        return _raised(got), True
    code, stdout, stderr = got
    answer = (code, stdout)
    want_code, want = cligrid.expect(argv)
    if b"Traceback" in stderr or code != want_code:
        return answer, True
    if code == 2:
        if stdout or not stderr:
            raise WrongAnswer(f"{key}: usage error wrote stdout or no message")
        return answer, False
    try:
        parsed = cligrid.parse(argv, stdout.decode())
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        raise WrongAnswer(f"{key}: unreadable output ({e})") from e
    if parsed != want:
        raise WrongAnswer(f"{key}: got {parsed!r}, oracle says {want!r}")
    return answer, False


# ----------------------------------------------------------- minimal-sweep

def cone_items(cone) -> tuple:
    return tuple(sorted((deg, (e.rank, e.torsion)) for deg, e in cone.link_cohomology.items()))


# per series: the table grid, a ladder of larger ranks up to the closure
# bound of the parent commit, and ranks past it (A >= 32, B/C/D >= 23)
MINIMAL_RANKS = {
    "A": (range(1, 11), range(12, 32, 2), (32, 36, 40)),
    "B": (range(2, 9), range(10, 23, 2), (23, 26, 29)),
    "C": (range(2, 9), range(10, 23, 2), (23, 26, 29)),
    "D": (range(4, 11), range(12, 23, 2), (23, 26, 29)),
}


class MinimalSweep(Workload):
    name = "minimal-sweep"
    tail_q = 0.95
    exercised = (
        "perverse.link_cohomology_minimal", "perverse.decomposition_number",
        "perverse.extension_stalk", "perverse.localize_stalk", "perverse.f_extension_stalk",
        "rootsys.generate_roots", "rootsys.root_system", "rootsys.cartan_matrix",
        "rootsys.fundamental_group", "rootsys.long_root_subsystem", "intmat.cokernel",
        "omodule.reduce_graded", "omodule.degree_window",
    )

    def make_pass(self, index: int) -> list[Op]:
        types = list(oracle.EXCEPTIONAL)
        for series, ranges in MINIMAL_RANKS.items():
            types += [(series, n) for ranks in ranges for n in ranks]
        ops = [self.op(series, rank) for series, rank in types]
        self.rng(index).shuffle(ops)
        return ops

    @staticmethod
    def op(series: str, rank: int) -> Op:
        key = f"minimal {series}{rank}"
        m = oracle.minimal_answer(series, rank)
        d = m["open_dim"]
        want = (m["label"], d, ((d - 1, (0, ())), (d, (0, m["divisors"])), (d + 1, (None, ()))),
                (d - 1, d + 1), tuple(m["numbers"][ell] for ell in PRIMES))

        def call():
            cone = perverse.link_cohomology_minimal(rootsys.DynkinDiagram(series, rank))
            return cone, [perverse.decomposition_number(cone, ell) for ell in PRIMES]

        def canon(got):
            cone, numbers = got
            return (cone.label, cone.open_dim, cone_items(cone), cone.completeness,
                    tuple(numbers))

        return Op(key, call, lambda ok, got: _verdict(key, want, ok, got, canon))


# ------------------------------------------------------------ stalk-random

RANDOM_CONES = 48
FACTORS = (2, 3, 4, 5, 6, 7, 9, 10, 12, 14)


def random_band(rng: random.Random) -> oracle.Band:
    """A link band; about a quarter break the Euler hypotheses on purpose."""

    def chain() -> tuple[int, ...]:
        out, t = [], 1
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            t *= rng.choice(FACTORS)
            out.append(t)
        return tuple(out)

    def entry():
        return rng.choice((0, 0, 0, 1, 1, 2)), chain()

    window = None
    if rng.random() < 0.4:
        d = rng.randint(1, 10)
        window = (max(0, d - rng.randint(1, 3)), d + rng.randint(0, 2))
        entries = {deg: entry() for deg in range(window[0], window[1] + 1)}
        if rng.random() < 0.3:
            entries[rng.randint(*window)] = (None, ())
    else:
        d = rng.randint(2, 10)
        entries = {deg: entry() for deg in range(1, 2 * d) if rng.random() < 0.6}
        entries[0] = (1, ())
    if rng.random() < 0.75:
        if d - 1 in entries or window is None:
            entries[d - 1] = (0, ())
        if d + 1 in entries:
            entries[d + 1] = (entries[d + 1][0], ())
    band = oracle.Band(d, dict(sorted(entries.items())), window)
    middle = band.entry(d)
    if middle is not None and rng.random() < 0.8:
        band.action = ("sign", rng.choice(("trivial", "C2", "S3")), rng.choice((1, -1)))
    return band


def cone_from_band(band: oracle.Band, label: str):
    """The band as public decnum objects."""
    link = {deg: perverse.LinkEntry(rank, torsion)
            for deg, (rank, torsion) in band.entries.items()}
    equivariant = {}
    if band.action is not None:
        _, kind, sign = band.action
        divisors = band.entries.get(band.open_dim, (0, ()))[1]
        n = len(divisors)
        s = tuple(tuple(sign if i == j else 0 for j in range(n)) for i in range(n))
        t = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        action = {"trivial": {}, "C2": {"s": s}, "S3": {"s": s, "t": t}}[kind]
        equivariant[band.open_dim] = modrep.EquivariantAbGroup(
            intmat.FinAbGroup(divisors), action)
    return perverse.ConeData(
        label=label, open_dim=band.open_dim, link_cohomology=link,
        completeness="full" if band.window is None else band.window,
        equivariant_degrees=equivariant,
    )


def _graded(g) -> dict:
    return {deg: (m.rank, m.torsion) for deg, m in g.items()}


class StalkRandom(Workload):
    name = "stalk-random"
    tail_q = 0.99
    trace_passes = 8
    exercised = (
        "perverse.extension_stalk", "perverse.localize_stalk", "perverse.f_extension_stalk",
        "perverse.decomposition_number", "perverse.equivariant_decomposition",
        "omodule.reduce_graded", "omodule.degree_window", "modrep.reduce_mod_l",
        "modrep.composition_multiplicities",
    )

    def __init__(self, seed: int, root: str) -> None:
        super().__init__(seed, root)
        self.grid = []
        for series, rank in oracle.SUBREGULAR_GRID:
            cone = perverse.subregular_cone(rootsys.DynkinDiagram(series, rank))
            self.grid.append((cone, oracle.subregular_band(series, rank)))

    def make_pass(self, index: int) -> list[Op]:
        rng = self.rng(index)
        cones = list(self.grid)
        for k in range(RANDOM_CONES):
            band = random_band(rng)
            cones.append((cone_from_band(band, f"random {index}.{k}"), band))
        ops = []
        for cone, band in cones:
            ops += self.queries(rng, cone, band)
        rng.shuffle(ops)
        return ops

    @staticmethod
    def queries(rng, cone, band) -> list[Op]:
        ops = []
        kind = band.symmetry()
        for perversity, k in oracle.FLAVORS:
            flavor = perverse.ExtensionFlavor(perversity, k)
            ops.append(_op(f"{cone.label} stalk {flavor.label()}",
                           lambda f=flavor: perverse.extension_stalk(cone, f),
                           oracle.extension_stalk(band, perversity, k), _graded))
        for ell in PRIMES:
            perversity, k = rng.choice(oracle.FLAVORS)
            flavor = perverse.ExtensionFlavor(perversity, k)
            stalk = oracle.extension_stalk(band, perversity, k)
            ops.append(_op(
                f"{cone.label} localize {flavor.label()} {ell}",
                lambda f=flavor, ell=ell: perverse.localize_stalk(
                    perverse.extension_stalk(cone, f), ell),
                REFUSED if stalk == REFUSED else oracle.localize(stalk, ell), _graded))
            k = rng.choice(tuple(oracle.OFFSETS))
            flavor = perverse.ExtensionFlavor("p", k)
            ops.append(_op(f"{cone.label} F-stalk {flavor.label()} {ell}",
                           lambda f=flavor, ell=ell: perverse.f_extension_stalk(cone, f, ell),
                           oracle.f_stalk(band, k, ell), lambda g: g.dims()))
            ops.append(_op(f"{cone.label} decomposition {ell}",
                           lambda ell=ell: perverse.decomposition_number(cone, ell),
                           oracle.decomposition(band, ell), lambda n: n))
            ops.append(_op(f"{cone.label} equivariant {kind} {ell}",
                           lambda ell=ell: perverse.equivariant_decomposition(cone, kind, ell),
                           oracle.equivariant(band, ell),
                           lambda r: (r.plain, r.per_character)))
        return ops


def _op(key: str, call, want, canon) -> Op:
    return Op(key, call, lambda ok, got: _verdict(key, want, ok, got, canon))


WORKLOADS = {w.name: w for w in (GridCli, MinimalSweep, StalkRandom)}
