"""Certify intmat's answers at each typed subcommand's rank ceiling.

For every series at its RANK_CEILINGS rank, cokernel(C) of the Cartan
matrix C must pass oracles.cokernel_fault, and each folding element's
induced_endomorphism must pass oracles.induced_fault:

* lattice: A, B, C and D at the lattice ceiling, and the transposes
  (`--dual`) of B and C;
* simple: A and D at the simple ceiling;
* the exceptional types E6, E7, E8, F4 and G2, and their transposes;
* subregular: the folding actions of B and C at the subregular ceiling
  (unfolding to A_{2n-1} and D_{n+1}).

The Cartan matrices are trees, so each determinant comes from leaf
elimination in O(n) once the nonzero entries are read.  Prints one
line per check with its time, and exits 1 if any check fails.

    PYTHONPATH=src python tests/certify_ceilings.py

Pytest does not collect this file, and it is not part of tier-1.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from decnum import intmat, rootsys  # noqa: E402
from decnum.cli import RANK_CEILINGS  # noqa: E402


def _cases():
    """(name, matrix, endomorphisms) for each check."""
    def cartan(series, rank):
        return rootsys.cartan_matrix(rootsys.DynkinDiagram(series, rank))

    n = RANK_CEILINGS["lattice"]
    for series in "ABCD":
        yield f"lattice {series}{n}", cartan(series, n), ()
    for series in "BC":
        yield f"lattice {series}{n} --dual", intmat.transpose(cartan(series, n)), ()
    n = RANK_CEILINGS["simple"]
    for series in "AD":
        yield f"simple {series}{n}", cartan(series, n), ()
    for series, rank in sorted(rootsys.EXCEPTIONAL):
        yield f"{series}{rank}", cartan(series, rank), ()
        yield f"{series}{rank} transposed", intmat.transpose(cartan(series, rank)), ()
    n = RANK_CEILINGS["subregular"]
    for series in "BC":
        f = rootsys.folding(rootsys.DynkinDiagram(series, n))
        moves = [rootsys._permutation_matrix(p) for p in f.elements().values()]
        yield (f"subregular {series}{n} (folds {f.gamma_hat})",
               rootsys.cartan_matrix(f.gamma_hat), moves)


def main() -> int:
    failed = 0
    start = time.perf_counter()
    for name, m, moves in _cases():
        t = time.perf_counter()
        group, _, _, faults = oracles.certify(m, moves)
        failed += bool(faults)
        print(f"{name}: {group}, {len(moves)} induced; "
              f"{'; '.join(faults) or 'certified'} ({time.perf_counter() - t:.2f} s)")
    print(f"{failed} failed, {time.perf_counter() - start:.1f} s in all")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
