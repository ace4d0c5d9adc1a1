"""decnum benchmark: run one workload for one seed, timed or traced.

    python3 perfbench/run.py --workload grid-cli --seed 1 --seconds 20 --trace 0

Run it from the repository root; it measures the decnum sources under
src/.  With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of a traced in-process run.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the
line before it records the run's context and the output digest.  Each
answer is checked against the harness's own oracle; a wrong answer
exits 1 without a result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("grid-cli", "minimal-sweep", "stalk-random")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 9          # fresh interpreters whose set-up time is measured
RUN_TIMEOUT_S = 170     # the whole run, set-up included, ends within this


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def context(root: Path, args, raw: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(root),
        "ops": raw["attempted"],
        "ops_per_pass": raw["pass_ops"],
        "passes": raw.get("passes"),
        "fail_ratio": raw["failed"] / raw["attempted"],
        "tail_percentile": raw["tail_percentile"],
        "tail_samples_beyond": raw.get("tail_beyond"),
        "digest": raw["digest"],
    }


class WorkerError(Exception):
    pass


def spawn(root: Path, args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds until it reported READY."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "worker.py"), str(root), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + (["setup-only"] if setup_only else []), cwd=root,
                            env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise WorkerError("worker did not finish set-up")
    return proc, ready


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the time limit")
    if proc.returncode:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "decnum" / "__init__.py").is_file():
        print(f"perfbench: no decnum sources under {root / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                proc, ready = spawn(root, args, setup_only=True)
                finish(proc, deadline)
                setups.append(ready)
        proc, ready = spawn(root, args, setup_only=False)
        setups.append(ready)
        raw = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = raw["metrics"]
    else:
        values = {
            "setup_s": stats.median(setups),
            "ops_per_s": raw["ops_per_s"],
            "op_p50_ms": raw["p50_ns"] / 1e6,
            "op_tail_ms": raw["tail_ns"] / 1e6,
            "success_ratio": (raw["attempted"] - raw["failed"]) / raw["attempted"],
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    ctx = context(root, args, raw)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {raw['attempted']} ops, {raw['failed']} failed, "
          f"digest {raw['digest'][:16]}")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"context": ctx}))
    print(json.dumps({"correct": True, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
