"""The oracle's closed forms against the paper's grid values."""

import random

import pytest
from decnum import tables

import cligrid
import oracle
import workloads

# rows of the paper's three tables: (type) -> values at ell = 2, 3, 5, 7
SIMPLE_ROWS = {
    ("A", 1): ("Z/2", [1, 0, 0, 0]), ("A", 5): ("Z/6", [1, 1, 0, 0]),
    ("A", 9): ("Z/10", [1, 0, 1, 0]), ("A", 10): ("Z/11", [0, 0, 0, 0]),
    ("D", 4): ("Z/2 x Z/2", [2, 0, 0, 0]), ("D", 7): ("Z/4", [1, 0, 0, 0]),
    ("E", 6): ("Z/3", [0, 1, 0, 0]), ("E", 7): ("Z/2", [1, 0, 0, 0]),
    ("E", 8): ("0", [0, 0, 0, 0]),
}
SUBREGULAR_ROWS = {
    ("B", 5, 5): (1, {"1": 0, "eps": 1}), ("B", 5, 2): (1, {"1": 1}),
    ("C", 3, 2): (2, {"1": 2}), ("C", 4, 2): (1, {"1": 1}),
    ("F", 4, 3): (1, {"1": 0, "eps": 1}), ("F", 4, 2): (0, {"1": 0}),
    ("G", 2, 2): (2, {"1": 0, "psi": 1}), ("G", 2, 5): (0, {"1": 0, "eps": 0, "psi": 0}),
}
MINIMAL_ROWS = {
    ("A", 4): ("A4", "Z/5", 8, [0, 0, 1, 0]), ("B", 5): ("A4", "Z/5", 16, [0, 0, 1, 0]),
    ("C", 3): ("A1", "Z/2", 6, [1, 0, 0, 0]), ("D", 5): ("D5", "Z/4", 14, [1, 0, 0, 0]),
    ("E", 6): ("E6", "Z/3", 22, [0, 1, 0, 0]), ("E", 7): ("E7", "Z/2", 34, [1, 0, 0, 0]),
    ("E", 8): ("E8", "0", 58, [0, 0, 0, 0]), ("F", 4): ("A2", "Z/3", 16, [0, 1, 0, 0]),
    ("G", 2): ("A1", "Z/2", 6, [1, 0, 0, 0]),
}


@pytest.mark.parametrize("key", sorted(SIMPLE_ROWS))
def test_simple_rule(key):
    group, values = SIMPLE_ROWS[key]
    divisors = oracle.fundamental_group(*key)
    assert oracle.group_text(divisors) == group
    assert [oracle.count_divisible(divisors, ell) for ell in oracle.PRIMES] == values


@pytest.mark.parametrize("key", sorted(SUBREGULAR_ROWS))
def test_subregular_rule(key):
    assert oracle.subregular_characters(*key) == SUBREGULAR_ROWS[key]


@pytest.mark.parametrize("key", sorted(MINIMAL_ROWS))
def test_minimal_rule_and_open_dim(key):
    long, group, open_dim, values = MINIMAL_ROWS[key]
    m = oracle.minimal_answer(*key)
    assert (m["long"], m["group"], m["open_dim"]) == (long, group, open_dim)
    assert [m["numbers"][ell] for ell in oracle.PRIMES] == values


def test_oracle_reproduces_every_paper_table_cell():
    # the paper tables, as decnum computes them, read back through the
    # same parser the grid-cli workload uses for `tables --format json`
    computed = cligrid._tables_json(tables.paper_tables())
    assert computed == cligrid._tables_expect()


def test_rules_extend_past_the_grid():
    assert oracle.minimal_answer("A", 40)["open_dim"] == 80
    assert oracle.minimal_answer("B", 30)["numbers"][5] == 1
    assert oracle.fundamental_group("D", 201) == (4,)
    assert oracle.subregular_characters("B", 100, 5) == (1, {"1": 0, "eps": 1})


def test_stalk_calculus_on_a_surface_cone():
    band = oracle.subregular_band("D", 4)
    assert oracle.extension_stalk(band, "p", "!*") == {-2: (1, ())}
    assert oracle.extension_stalk(band, "p+", "!*") == {-2: (1, ()), 0: (0, (2, 2))}
    assert oracle.f_stalk(band, "*", 2) == {-2: 1, -1: 2, 0: 2}
    assert oracle.decomposition(band, 2) == 2
    windowed = oracle.Band(4, {3: (0, ()), 4: (0, (6,))}, window=(3, 4))
    assert oracle.decomposition(windowed, 2) == oracle.REFUSED


def test_random_cones_agree_with_decnum_and_satisfy_the_identities():
    # Euler comparison = ell-divisible torsion count, and the weighted
    # characters sum to the plain number, on every answered query
    wl = workloads.StalkRandom(seed=7, root=".")
    for index in range(3):
        for op in wl.make_pass(index):
            try:
                ok, got = True, op.call()
            except Exception as e:  # noqa: BLE001 - failures are counted below
                ok, got = False, e
            answer, failed = op.check(ok, got)
            assert not failed, (op.key, answer)
    dims = {"1": 1, "eps": 1, "psi": 2}
    rng = random.Random(3)
    for _ in range(200):
        band = workloads.random_band(rng)
        for ell in oracle.PRIMES:
            got = oracle.equivariant(band, ell)
            if got != oracle.REFUSED:
                plain, chars = got
                assert plain == oracle.count_divisible(band.entry(band.open_dim)[1], ell)
                assert sum(dims[k] * v for k, v in chars.items()) == plain
