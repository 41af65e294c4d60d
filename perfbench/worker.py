"""One benchmark process: set up a workload, run one timed pass, gate its verdicts.

``run.py`` starts this script once per pass, under an address-space limit,
so every pass pays the import and set-up a command-line user pays, and no
cache survives from one pass to the next.  The last line of standard output
is one JSON object with the pass's figures.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|trace
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _import_library():
    """Import triple_lab from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import triple_lab

    if not os.path.abspath(triple_lab.__file__).startswith(src + os.sep):
        raise SystemExit(f"triple_lab imported from {triple_lab.__file__}, not from {src}")


def _openblas() -> tuple:
    """(thread count, configuration) of the OpenBLAS bundled with numpy, or Nones."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            return (int(lib.scipy_openblas_get_num_threads64_()),
                    lib.scipy_openblas_get_config64_().decode())
    return None, None


def environment() -> dict:
    import numpy
    import scipy

    threads, config = _openblas()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "address_space_limit": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        fixtures = setup(args.seed, workdir)
        setup_s = time.perf_counter() - START
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            result.update(_timed_pass(args, run, fixtures, workloads))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _timed_pass(args, run, fixtures, workloads) -> dict:
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.Ops()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    verdicts, digest = run(fixtures, ops)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()
    reference = workloads.load_reference()[args.workload]
    out = {
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": ops.attempted,
        "ops_failed": len(ops.errors),
        "errors": ops.errors,
        "mismatches": workloads.compare(verdicts, reference),
        "digest": digest,
        "env": environment(),
    }
    if tracer is not None:
        out["layers"] = {"stats": tracer.stats(), "counters": dict(tracer.counters)}
        out["layers"]["self_total"] = tracer.self_total()
        out["cpu_s"] = cpu_s
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.json")
        tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed, "wall_s": wall_s})
        out["spans_path"] = os.path.relpath(spans_path, ROOT)
    return out


if __name__ == "__main__":
    sys.exit(main())
