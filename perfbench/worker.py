"""One workload process: set up, print READY, then run timed or traced.

Started by run.py, not by hand:

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE [setup-only]

Set-up is `import decnum` plus the first pass of inputs.  The last line
on stdout is a JSON object with the raw figures run.py reports.  A wrong
answer exits 1 with the reason on stderr.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import stats
import tracing
import workloads
from workloads import LAYERS, GridCli, WrongAnswer


class IncompleteTrace(Exception):
    """A function the workload exercises recorded no call in the traced run."""


# per-layer metrics of the traced run, with units
PER_LAYER = {
    "intmat.cokernel.calls": "count",
    "intmat.cokernel.self_ms": "ms",
    "intmat.cokernel.max_rows": "count",
    "intmat.induced_endomorphism.calls": "count",
    "intmat.induced_endomorphism.self_ms": "ms",
    "rootsys.cartan_matrix.self_ms": "ms",
    "rootsys.fundamental_group.self_ms": "ms",
    "rootsys.folding.self_ms": "ms",
    "rootsys.symmetry_action_on_fundamental_group.self_ms": "ms",
    "rootsys.generate_roots.calls": "count",
    "rootsys.generate_roots.self_ms": "ms",
    "rootsys.generate_roots.refused": "count",
    "rootsys.roots_generated": "count",
    "omodule.degree_window.calls": "count",
    "omodule.reduce_graded.self_ms": "ms",
    "omodule.poincare_dual.self_ms": "ms",
    "perverse.extension_stalk.self_ms": "ms",
    "perverse.f_extension_stalk.self_ms": "ms",
    "perverse.localize_stalk.self_ms": "ms",
    "perverse.decomposition_number.self_ms": "ms",
    "perverse.equivariant_decomposition.self_ms": "ms",
    "perverse.refusals": "count",
    "perverse.link_cohomology_simple.self_ms": "ms",
    "perverse.link_cohomology_minimal.self_ms": "ms",
    "perverse.subregular_cone.self_ms": "ms",
    "modrep.reduce_mod_l.self_ms": "ms",
    "modrep.composition_multiplicities.calls": "count",
    "modrep.composition_multiplicities.self_ms": "ms",
    "tables.paper_tables.self_ms": "ms",
    "tables.render_text.self_ms": "ms",
    "tables.render_markdown.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.startup_ms": "ms",
    "python.bare_start_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def call_op(op):
    return op.call()


def cli_in_process(op):
    return workloads.in_process(op.argv)


def run_ops(ops, run=call_op, times=None) -> tuple[list[str], int, int]:
    """Run and check each op once: (answers, failures, wall ns)."""
    answers = []
    failed = 0
    start = time.perf_counter_ns()
    for op in ops:
        t0 = time.perf_counter_ns()
        try:
            ok, got = True, run(op)
        except Exception as e:  # an error inside decnum is a failure, not a crash
            ok, got = False, e
        if times is not None:
            times.append(time.perf_counter_ns() - t0)
        answer, fail = op.check(ok, got)
        failed += fail
        answers.append(repr((op.key, answer)))
    return answers, failed, time.perf_counter_ns() - start


def digest(answers) -> str:
    h = hashlib.sha256()
    for a in answers:
        h.update(a.encode())
    return h.hexdigest()


def timed(wl, first, seconds: float) -> dict:
    """Closed loop, one client: whole passes until `seconds` have gone and
    the tail percentile has ten samples beyond it.

    Stopping only between passes keeps the mix of operations the same in
    every run, so the percentiles do not move with where a run stopped.
    All figures pool every operation of the run: on a host whose speed
    changes every few seconds a pooled figure moves in proportion to the
    time spent at each speed, where a median over passes would jump.
    """
    lat = stats.Latencies()
    need = stats.min_samples(wl.tail_q)
    failed = 0
    deadline = time.perf_counter() + seconds
    ops, index = first, 0
    while True:
        times: list[int] = []
        answers, fails, _ = run_ops(ops, times=times)
        for ns in times:
            lat.add(ns)
        failed += fails
        if index == 0:
            first_answers = answers
        index += 1
        if lat.n >= need and time.perf_counter() >= deadline:
            break
        ops = wl.make_pass(index)
    who = resource.RUSAGE_CHILDREN if isinstance(wl, GridCli) else resource.RUSAGE_SELF
    return {
        "attempted": lat.n,
        "failed": failed,
        "pass_ops": len(first),
        "passes": index,
        "tail_percentile": wl.tail_q * 100,
        "digest": digest(first_answers),
        "ops_per_s": lat.n / (lat.total_ns / 1e9),
        "p50_ns": lat.quantile(0.5),
        "tail_ns": lat.quantile(wl.tail_q),
        "tail_beyond": stats.samples_beyond(wl.tail_q, lat.n),
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }


def _hooks():
    def roots(counters, args, result):
        counters["rootsys.roots_generated"] = (
            counters.get("rootsys.roots_generated", 0) + len(result.roots))

    def rows(counters, args, result):
        counters["intmat.cokernel.max_rows"] = max(
            counters.get("intmat.cokernel.max_rows", 0), len(args[0]))

    return {"rootsys.generate_roots": roots, "intmat.cokernel": rows}


def bare_start_ms(wl, runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=wl.root, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return stats.median(times)


def traced(wl, first, seconds: float) -> dict:
    """Cycles of the trace passes, untraced then traced, until `seconds` pass.

    Per-layer figures are per cycle.  Traced answers must equal untraced
    ones; for grid-cli the requests run through cli.main in process, and
    those answers must equal the cold subprocess answers byte for byte.
    """
    grid = isinstance(wl, GridCli)
    run = cli_in_process if grid else call_op
    ops = first + [op for i in range(1, wl.trace_passes) for op in wl.make_pass(i)]
    tracer = tracing.Tracer(_hooks())
    totals: dict[str, dict] = {}
    refusals = cycles = plain_ns = traced_ns = failed = 0
    startup = []
    deadline = time.perf_counter() + seconds
    while True:
        plain_times: list[int] = []
        plain, fails, ns = run_ops(ops, run, plain_times)
        plain_ns += ns
        failed += fails
        if grid:
            cold_times: list[int] = []
            cold, _, _ = run_ops(ops, call_op, cold_times)
            if cold != plain:
                raise WrongAnswer("in-process output differs from the cold subprocess")
            startup += [(c - p) / 1e6 for c, p in zip(cold_times, plain_times)]
        tracer.spans.clear()
        with tracing.installed(tracer, "decnum", LAYERS, extra=[workloads]):
            seen, _, ns = run_ops(ops, run)
        traced_ns += ns
        if seen != plain:
            raise WrongAnswer("traced answers differ from untraced answers")
        for name, row in tracing.summarize(tracer.spans).items():
            acc = totals.setdefault(name, {"calls": 0, "self_ns": 0, "raised": 0})
            for k in acc:
                acc[k] += row[k]
        refusals += tracing.escaping_errors(tracer.spans, "perverse", "ConeError")
        cycles += 1
        if time.perf_counter() >= deadline:
            break
    missing = [name for name in wl.exercised if not totals.get(name, {}).get("calls")]
    if missing:
        raise IncompleteTrace(f"traced run recorded no call to {missing}")
    extra = {
        "perverse.refusals": refusals / cycles,
        "rootsys.roots_generated": tracer.counters.get("rootsys.roots_generated", 0) / cycles,
        "intmat.cokernel.max_rows": tracer.counters.get("intmat.cokernel.max_rows", 0),
        "cli.startup_ms": stats.median(startup) if startup else 0,
        "python.bare_start_ms": bare_start_ms(wl),
        "trace.overhead_ratio": traced_ns / plain_ns,
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in extra:
            value = extra[name]
        else:
            function, field = name.rsplit(".", 1)
            row = totals.get(function, {"calls": 0, "self_ns": 0, "raised": 0})
            value = {"calls": row["calls"], "self_ms": row["self_ns"] / 1e6,
                     "refused": row["raised"]}[field] / cycles
        metrics[name] = {"value": value, "unit": unit}
    return {
        "attempted": len(ops) * cycles,
        "failed": failed,
        "pass_ops": len(first),
        "tail_percentile": wl.tail_q * 100,
        "digest": digest(plain[:len(first)]),
        "cycles": cycles,
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    root, name, seed, seconds, trace = argv[:5]
    src = os.path.join(root, "src", "")
    if not workloads.perverse.__file__.startswith(src):
        print(f"perfbench: decnum imported from {workloads.perverse.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name](int(seed), root)
    first = wl.make_pass(0)
    print("READY", flush=True)
    if argv[5:] == ["setup-only"]:
        return 0
    try:
        result = (traced if trace == "1" else timed)(wl, first, float(seconds))
    except WrongAnswer as e:
        print(f"perfbench: wrong answer: {e}", file=sys.stderr)
        return 1
    except IncompleteTrace as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
