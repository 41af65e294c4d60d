"""Benchmark entry point for triple-lab.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each pass of a workload runs in its own process (``worker.py``) under an
address-space limit, so an allocation blow-up becomes a counted failed
operation instead of an out-of-memory kill of the machine.

Untraced runs (``--trace 0``) start passes until ``--seconds`` is used up
(at least two) and report the median ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  A traced run (``--trace 1``) makes one untraced and one
traced pass and reports the per-layer metrics of the traced one; the
difference of the two passes is ``tracing.overhead_s``.

Every pass is gated on its verdicts against ``reference.json``; the
operation counts and verdict mismatches are printed with the metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
any verdict mismatches or any operation fails, and 2 when the benchmark
cannot run at all (for example, when ``src/triple_lab`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("repro_suite", "factor_ladder", "pointwise_checks")
DEFAULT_SEED = 0xA11CE
MIN_PASSES = 2
SETUP_SAMPLES = 3
# a run must end within 180 s; no pass is started after this point
RUN_BUDGET_S = 150.0
# the slowest seed workload peaks near 0.7 GB RSS; 3 GiB of address space
# leaves room for BLAS buffers while staying well under the machine's memory
ADDRESS_SPACE_CAP = 3 * 1024**3


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def address_space_limit() -> int:
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return min(ADDRESS_SPACE_CAP, physical // 2)


def run_worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    limit = address_space_limit()

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, preexec_fn=limit_memory,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"crashed": f"{mode} pass timed out after {timeout:.0f} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"{mode} pass exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def source_digest() -> str:
    """SHA-256 over the library's source files, to identify the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    # a checkout without .git must not report the commit of an enclosing repository
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Run:
    """The passes of one workload run and the gate over all of them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.passes = []
        self.setups = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def launch(self, mode: str) -> dict | None:
        result = run_worker(self.workload, self.seed, mode, RUN_BUDGET_S + 20 - self.elapsed())
        if "crashed" in result:
            # the pass's operations are lost: count the pass as one failed op
            self.attempted += 1
            self.failed += 1
            self.problems.append(result["crashed"])
            return None
        self.setups.append(result["setup_s"])
        if mode != "setup":
            self.passes.append(result)
            self.attempted += result["ops"]
            self.failed += result["ops_failed"]
            self.problems += result["errors"] + result["mismatches"]
        return result

    def mismatches(self) -> int:
        count = sum(len(p["mismatches"]) for p in self.passes)
        if len({p["digest"] for p in self.passes}) > 1:
            self.problems.append("report bytes differ between passes of one run")
            count += 1
        return count


def run_untraced(workload: str, seed: int, seconds: float) -> tuple:
    run = Run(workload, seed)
    last = 0.0
    while len(run.passes) < MIN_PASSES or run.elapsed() + last <= seconds:
        if run.elapsed() > RUN_BUDGET_S:
            break
        before = run.elapsed()
        if run.launch("pass") is None:
            break
        last = run.elapsed() - before
    while len(run.setups) < SETUP_SAMPLES and run.elapsed() < RUN_BUDGET_S and run.passes:
        run.launch("setup")
    if not run.passes:
        raise BenchmarkError(f"{workload}: no pass completed: {run.problems}")
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in run.passes), "s"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in run.passes), "MB"),
    }
    return run, metrics


def run_traced(workload: str, seed: int) -> tuple:
    run = Run(workload, seed)
    plain = run.launch("pass")
    traced = run.launch("trace")
    if plain is None or traced is None:
        raise BenchmarkError(f"{workload}: traced run failed: {run.problems}")
    layers = traced["layers"]
    figures = {
        "process.cpu_s": traced["cpu_s"],
        "process.blas_threads": traced["env"]["blas_threads"] or 0,
        "tracing.overhead_s": traced["wall_s"] - plain["wall_s"],
        "tracing.self_s_total": layers["self_total"],
        "tracing.self_share": layers["self_total"] / traced["wall_s"],
    }
    values = tracing.per_layer_metrics(layers, figures)
    metrics = {name: (value, tracing.unit(name)) for name, value in values.items()}
    return run, metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its table and return its result object."""
    run, metrics = run_traced(workload, seed) if trace else run_untraced(workload, seed, seconds)
    mismatches = run.mismatches()
    env = dict(run.passes[-1]["env"], nproc=os.cpu_count(), git_commit=git_commit(),
               src_sha256=source_digest())
    print(f"workload {workload}  seed {seed}  passes {len(run.passes)}  "
          f"setups {len(run.setups)}  trace {int(trace)}")
    print("  pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in run.passes))
    if trace:
        print(f"  spans written to {run.passes[-1]['spans_path']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for name, value in (("verdict_mismatches", mismatches), ("ops", run.attempted),
                        ("ops_failed", run.failed)):
        print(f"  {name:<48} {value:>14d} count")
    for problem in run.problems:
        print(f"  FAIL {problem}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    return {
        "correct": mismatches == 0 and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="triple-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=lambda text: int(text, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "triple_lab", "__init__.py")):
        print(f"benchmark: no triple_lab sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    result = results[args.workload] if args.workload != "all" else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
