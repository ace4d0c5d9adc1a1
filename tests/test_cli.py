"""End-to-end CLI behavior: output shapes, exit codes, determinism."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from decnum import intmat, perverse, rootsys, tables
from decnum.cli import MINIMAL_MAX_RANK, RANK_CEILINGS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_text(capsys):
    code, out, err = run_cli(capsys, "lattice", "--type", "A", "--rank", "5")
    assert code == 0 and err == ""
    assert "A5: weights mod roots = Z/6" in out
    assert "invariant factors: [6]" in out


def test_lattice_dual(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--type", "D", "--rank", "6", "--dual")
    assert code == 0
    assert "D6: coweights mod coroots = Z/2 x Z/2" in out


def test_lattice_json(capsys):
    code, out, _ = run_cli(
        capsys, "lattice", "--type", "E", "--rank", "7", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["command"] == "lattice"
    assert record["inputs"] == {
        "dual": False, "format": "json", "rank": 7, "type": "E",
    }
    assert record["results"]["group"] == "Z/2"
    assert record["results"]["divisors"] == [2]
    assert record["results"]["order"] == 2
    assert len(record["results"]["projection"]) == 7


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["lattice", "--type", "Z", "--rank", "3"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["lattice", "--type", "D", "--rank", "3"])
    assert e.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["simple", "--type", "A", "--rank", "2", "--ell", "6"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "6 is not prime" in err
    with pytest.raises(SystemExit) as e:
        main(["simple", "--type", "A", "--rank", "2", "--ell", "x"])
    assert e.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_ell_past_the_primality_bound_is_usage_error(capsys):
    for ell in ("1" + "0" * 309, str(2**64)):
        with pytest.raises(SystemExit) as e:
            main(["simple", "--type", "A", "--rank", "2", "--ell", ell])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "must be a prime below 2**64" in err and "Traceback" not in err


def test_large_prime_ell_is_answered(capsys):
    code, out, _ = run_cli(capsys, "simple", "--type", "A", "--rank", "3",
                           "--ell", "1000000000000000003")
    assert code == 0
    assert "ell=1000000000000000003: 0" in out


def test_simple_rejects_folded_types(capsys):
    with pytest.raises(SystemExit) as e:
        main(["simple", "--type", "B", "--rank", "3"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "simply-laced" in err and "subregular" in err


def test_simple_text_all_primes(capsys):
    code, out, _ = run_cli(capsys, "simple", "--type", "A", "--rank", "3")
    assert code == 0
    assert "simple A3: fundamental group Z/4" in out
    assert "ell=2: 1" in out and "ell=3: 0" in out
    assert "ell=5: 0" in out and "ell=7: 0" in out


def test_simple_json_single_prime(capsys):
    code, out, _ = run_cli(
        capsys, "simple", "--type", "D", "--rank", "4", "--ell", "2",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    results = record["results"]
    assert results["decomposition_numbers"] == {"2": 2}
    assert results["fundamental_group"] == "Z/2 x Z/2"
    assert {"degree": 2, "rank": 0, "torsion": [2, 2]} in results["link"]


def test_subregular_text(capsys):
    code, out, _ = run_cli(
        capsys, "subregular", "--type", "G", "--rank", "2", "--ell", "2"
    )
    assert code == 0
    assert "subregular G2: unfolds to D4 with symmetry S3" in out
    assert "fundamental group Z/2 x Z/2" in out
    assert "ell=2: total 2  (1 -> 0, psi -> 1)" in out


def test_subregular_simply_laced_passthrough(capsys):
    code, out, _ = run_cli(
        capsys, "subregular", "--type", "A", "--rank", "5", "--ell", "2"
    )
    assert code == 0
    assert "subregular A5: unfolds to A5 with symmetry trivial" in out
    assert "ell=2: total 1  (1 -> 1)" in out


def test_minimal_json(capsys):
    code, out, _ = run_cli(
        capsys, "minimal", "--type", "B", "--rank", "6", "--ell", "3",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    results = record["results"]
    assert results["singularity"] == "minimal b_6"
    assert results["long_subsystem"] == "A5"
    assert results["dual_fundamental_group"] == "Z/6"
    assert results["open_dim"] == 20
    assert results["decomposition_numbers"] == {"3": 1}


def test_minimal_past_the_old_closure_bound(capsys):
    code, out, err = run_cli(capsys, "minimal", "--type", "A", "--rank", "32")
    assert code == 0 and err == ""
    assert out.startswith(
        "minimal a_32: long subsystem A32, dual fundamental group Z/33, "
        "open dimension 64\n"
    )
    assert "ell=3: 1" in out and "ell=2: 0" in out


@pytest.mark.parametrize("argv", [
    ("simple", "--type", "D", "--rank", "6"),
    ("simple", "--type", "E", "--rank", "7", "--format", "json"),
    ("minimal", "--type", "B", "--rank", "5"),
    ("minimal", "--type", "G", "--rank", "2", "--format", "json"),
])
def test_one_smith_form_per_request(capsys, monkeypatch, argv):
    # the printed group is the cone's middle link torsion, not a second
    # reduction of the same Cartan matrix
    calls = []
    reduce = intmat.cokernel

    def counted(m):
        calls.append(len(m))
        return reduce(m)

    monkeypatch.setattr(intmat, "cokernel", counted)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("subregular", "--type", "B", "--rank", "5"),
    ("subregular", "--type", "C", "--rank", "3", "--ell", "3"),
    ("subregular", "--type", "G", "--rank", "2", "--format", "json"),
    ("subregular", "--type", "E", "--rank", "6", "--format", "markdown"),
])
def test_one_folding_and_smith_form_per_subregular_request(capsys, monkeypatch, argv):
    # the folding is built once and its symmetry action's group is the
    # link torsion, so the unfolding's Cartan matrix is reduced once; the
    # folding checks its automorphisms without building that matrix
    reductions, foldings, cartans = [], [], []
    reduce, fold, cartan = intmat.cokernel, rootsys.folding, rootsys.cartan_matrix

    def counted_reduce(m):
        reductions.append(len(m))
        return reduce(m)

    def counted_fold(d):
        foldings.append(d)
        return fold(d)

    def counted_cartan(d):
        cartans.append(d)
        return cartan(d)

    monkeypatch.setattr(intmat, "cokernel", counted_reduce)
    for module in (rootsys, perverse, tables):
        monkeypatch.setattr(module, "folding", counted_fold)
    for module in (rootsys, perverse):
        monkeypatch.setattr(module, "cartan_matrix", counted_cartan)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert len(reductions) == 1
    assert len(foldings) == 1
    assert len(cartans) == 1


@pytest.mark.parametrize("argv, line", [
    (("simple", "--type", "A", "--rank", "100", "--ell", "101"), "ell=101: 1"),
    (("simple", "--type", "D", "--rank", "12", "--ell", "3"), "ell=3: 0"),
    (("minimal", "--type", "B", "--rank", "30", "--ell", "5"), "ell=5: 1"),
    (("minimal", "--type", "B", "--rank", "30", "--ell", "7"), "ell=7: 0"),
    (("subregular", "--type", "B", "--rank", "30", "--ell", "5"), "ell=5: total 1"),
    (("subregular", "--type", "C", "--rank", "12", "--ell", "3"), "ell=3: total 0"),
])
def test_off_grid_answers_follow_the_rule(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert line in out.splitlines()[-1]


@pytest.mark.parametrize("rule, argv", [
    ("_simple_rule", ("simple", "--type", "A", "--rank", "100", "--ell", "101")),
    ("_minimal_rule", ("minimal", "--type", "B", "--rank", "30", "--ell", "5")),
    ("_simple_rule", ("subregular", "--type", "B", "--rank", "30", "--ell", "5")),
])
def test_cli_answers_are_checked_against_the_rule(monkeypatch, rule, argv):
    # a rule that says 0 everywhere must make the computed 1 fail loudly
    monkeypatch.setattr(tables, rule, lambda d: (1, 1))
    with pytest.raises(AssertionError, match=r"rule \[0\] broken at ell="):
        main(list(argv))


def test_minimal_rank_ceiling(capsys):
    with pytest.raises(SystemExit) as e:
        main(["minimal", "--type", "B", "--rank", str(MINIMAL_MAX_RANK + 1)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"minimal accepts rank at most {MINIMAL_MAX_RANK}, not {MINIMAL_MAX_RANK + 1}" in err


@pytest.mark.parametrize("command", sorted(RANK_CEILINGS))
def test_rank_ceilings(capsys, command):
    ceiling = RANK_CEILINGS[command]
    for rank in (ceiling + 1, 10**15):
        with pytest.raises(SystemExit) as e:
            main([command, "--type", "D", "--rank", str(rank)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"{command} accepts rank at most {ceiling}, not {rank}\n")


def test_over_long_integer_arguments_are_named_by_length(capsys):
    huge = "1" + "0" * 5000
    out_of_range = f"rank out of range (at most {RANK_CEILINGS['simple']})"
    cases = [
        (["--rank", "2", "--ell", huge],
         "argument --ell: must be a prime below 2**64, got a 5001-digit integer"),
        (["--rank", "2", "--ell", "x" * 5000],
         "argument --ell: a 5000-character argument is not an integer"),
        (["--rank", huge],
         f"argument --rank: {out_of_range}, got a 5001-digit integer"),
        (["--rank", "-" + huge],
         f"argument --rank: {out_of_range}, got a 5001-digit integer"),
        (["--rank", "9" * 21],
         f"argument --rank: {out_of_range}, got a 21-digit integer"),
        (["--rank", "y" * 21], "argument --rank: invalid int value: a 21-character argument"),
        (["--rank", "y"], "argument --rank: invalid int value: 'y'"),
    ]
    for flags, message in cases:
        with pytest.raises(SystemExit) as e:
            main(["simple", "--type", "A", *flags])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"decnum simple: error: {message}\n"), err[-300:]
        assert len(err) < 400


def test_stalks_integral_default(capsys):
    code, out, _ = run_cli(capsys, "stalks", "--type", "A", "--rank", "1")
    assert code == 0
    # default flavor p, kind ic: only the O in shifted degree -2
    assert "flavor p,!*" in out
    assert "H^-2 = O" in out
    assert "H^0" not in out


def test_stalks_pplus_ic(capsys):
    code, out, _ = run_cli(
        capsys, "stalks", "--type", "A", "--rank", "1", "--flavor", "pplus"
    )
    assert code == 0
    assert "flavor p+,!*" in out
    assert "H^-2 = O" in out
    assert "H^0 = Z/2" in out


def test_stalks_folds_non_ade(capsys):
    code, out, _ = run_cli(
        capsys, "stalks", "--type", "G", "--rank", "2", "--flavor", "pplus"
    )
    assert code == 0
    assert "subregular G2" in out
    assert "H^0 = Z/2 + Z/2" in out


def test_stalks_K_coefficients(capsys):
    code, out, _ = run_cli(
        capsys, "stalks", "--type", "A", "--rank", "2", "--kind", "star",
        "--coeff", "K",
    )
    assert code == 0
    assert "H^-2 = K" in out
    assert "Z/3" not in out


def test_stalks_field_coefficients(capsys):
    code, out, _ = run_cli(
        capsys, "stalks", "--type", "A", "--rank", "1", "--coeff", "F",
        "--ell", "2",
    )
    assert code == 0
    assert "coefficients F_2" in out
    assert "H^-2 = F_2^1" in out and "H^-1 = F_2^1" in out


def test_stalks_field_requires_ell_and_p(capsys):
    with pytest.raises(SystemExit) as e:
        main(["stalks", "--type", "A", "--rank", "1", "--coeff", "F"])
    assert e.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["stalks", "--type", "A", "--rank", "1", "--coeff", "F",
              "--ell", "2", "--flavor", "pplus"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--flavor p" in err


def test_stalks_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "stalks", "--type", "A", "--rank", "1", "--flavor", "pplus",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["stalk"] == [
        {"degree": -2, "rank": 1, "torsion": []},
        {"degree": 0, "rank": 0, "torsion": [2]},
    ]
    assert record["inputs"]["kind"] == "ic"
    assert record["inputs"]["coeff"] == "O"


def test_tables_markdown(capsys):
    code, out, _ = run_cli(capsys, "tables", "--format", "markdown")
    assert code == 0
    assert "## Minimal nilpotent cones" in out
    assert "| g_2 | A_1 | ℤ/2 | 1 if ℓ=2 | 1 | 0 | 0 | 0 |" in out


def test_tables_text_and_paper_flag(capsys):
    code, out, _ = run_cli(capsys, "tables", "--paper")
    assert code == 0
    assert "simple singularities" in out
    assert "minimal nilpotent cones" in out


def test_markdown_format_non_tables(capsys):
    code, out, _ = run_cli(
        capsys, "lattice", "--type", "A", "--rank", "2", "--format", "markdown"
    )
    assert code == 0
    assert out.startswith("### decnum lattice")
    assert "    A2: weights mod roots = Z/3" in out


def test_json_outputs_are_stable(capsys):
    args = ["subregular", "--type", "F", "--rank", "4", "--format", "json"]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    record = json.loads(first)
    assert json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False) + "\n" == first


def test_narrow_window_refuses(capsys, monkeypatch):
    monkeypatch.setenv("DECNUM_DEGREE_WINDOW", "1")
    code, out, err = run_cli(capsys, "simple", "--type", "A", "--rank", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("decnum: refused:")


def test_malformed_window_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DECNUM_DEGREE_WINDOW", "wide")
    code, out, err = run_cli(capsys, "simple", "--type", "A", "--rank", "1")
    assert code == 2
    assert err.startswith("decnum: error: cannot parse")


def test_wide_window_allows_deep_minimal(capsys, monkeypatch):
    # E8's band sits far from zero in raw degrees but shifted degrees are
    # tiny, so the default window already suffices; make sure an explicit
    # window does not break anything either
    monkeypatch.setenv("DECNUM_DEGREE_WINDOW", "-8:8")
    code, out, _ = run_cli(
        capsys, "minimal", "--type", "E", "--rank", "8", "--ell", "7"
    )
    assert code == 0
    assert "ell=7: 0" in out


@pytest.mark.parametrize("argv", [
    ("tables", "--format", "markdown"),
    ("simple", "--type", "A", "--rank", "3"),
])
def test_closed_pipe_ends_silently(capsys, argv):
    # a reader that stops early (`decnum tables | head`) closes the pipe;
    # the answer was already computed, so no traceback and exit 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONIOENCODING="utf-8")
    command = [sys.executable, "-m", "decnum.cli", *argv]
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")
    # with a reader, `python -m decnum.cli` writes what main writes
    shown = subprocess.run(command, capture_output=True, env=env, timeout=60)
    assert shown.stdout == run_cli(capsys, *argv)[1].encode("utf-8")


def readme_examples():
    """(argv, lines to keep or None, shown output) per `$ decnum` example."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = []
    for block in re.findall(r"```text\n(.*?)```", readme.read_text(encoding="utf-8"), re.S):
        for command in re.split(r"^(?=\$ )", block, flags=re.M)[1:]:
            first, _, shown = command.partition("\n")
            line, _, head = first[2:].partition(" | head -")
            examples.append((shlex.split(line)[1:], int(head) if head else None,
                             shown.rstrip("\n")))
    return examples


def test_readme_examples_match_the_cli(capsys):
    examples = readme_examples()
    assert len(examples) == 7
    for argv, head, shown in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert "\n".join(out.splitlines()[:head]) == shown, argv
