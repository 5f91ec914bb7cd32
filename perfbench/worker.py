"""One benchmark process: imports `support_limits` from the checkout's
`src/`, runs a workload and prints one JSON line of raw samples.

    python3 perfbench/worker.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload figures --setup

`--setup` runs the workload's tiny operations once in this fresh
interpreter and prints the `time.monotonic()` reading at which they were
done, then a probe time; `run.py` subtracts its own reading from just
before it started the process.  Without it the worker runs the tiny
operations once, then timed passes over the full operations until
`--seconds` have gone (at least MIN_PASSES).  Each operation is timed
between two probes (see `probe`).  With `--trace 1` the first half of the
time is untraced and the second half traced, which gives both the
per-layer metrics and the tracing overhead.  `run.py` turns the samples
into metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3

# The probe: a fixed Python loop over small numpy operations, the kind of
# work the package does.  Its time says how fast the machine runs right now;
# on a shared machine that changes by half for stretches of seconds.
_PROBE_X = (np.arange(40 * 16).reshape(40, 16) % 7) == 0


def probe() -> float:
    t0 = time.perf_counter()
    for i in range(300):
        hits = _PROBE_X[:, [i % 16, (i * 3) % 16]].any(axis=1)
        (hits == _PROBE_X[:, 0]).sum()
    return time.perf_counter() - t0


def import_package():
    """Import support_limits from this checkout's src/, never from elsewhere."""
    if not (SRC / "support_limits" / "__init__.py").is_file():
        raise SystemExit(f"no support_limits package under {SRC}")
    sys.path.insert(0, str(SRC))
    import support_limits

    if Path(support_limits.__file__).resolve().parent != (SRC / "support_limits").resolve():
        raise SystemExit(f"support_limits was imported from {support_limits.__file__}")
    return support_limits


class Checker:
    """Runs operations and compares each output with its reference."""

    def __init__(self, references: dict[str, str]):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def run(self, ops, probing: bool = True) -> dict:
        """Run `ops` once: wall and CPU seconds of each operation, the mean
        of the probes just before and after it, and the number that failed."""
        walls, cpus, probes, failed = [], [], [probe() if probing else 0.0], 0
        for op in ops:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = workloads.execute(op)
            except Exception as exc:  # counted as a failed operation
                out, why = None, f"{type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
            probes.append(probe() if probing else 0.0)
            if out is not None:
                why = None if out == self.references.get(op.key) else "output differs from its reference"
            if why is not None:
                failed += 1
                if op.key not in self._reported:
                    self._reported.add(op.key)
                    print(f"operation failed: {op.key}: {why}", file=sys.stderr)
        self.attempted += len(ops)
        self.failed += failed
        return {
            "op_wall_s": walls,
            "op_cpu_s": cpus,
            "op_probe_s": [(a + b) / 2 for a, b in zip(probes, probes[1:])],
            "attempted": len(ops),
            "failed": failed,
        }


def timed_passes(checker: Checker, ops, seconds: float, trace: tracer.Tracer | None = None):
    """Passes over `ops` until `seconds` have gone and MIN_PASSES are done."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if trace is not None:
            trace.reset()
        sample = checker.run(ops)
        if trace is not None:
            sample["layers"] = trace.metrics()
        passes.append(sample)
    return passes


def _openblas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "SUPPORT_LIMITS_THREADS": os.environ.get("SUPPORT_LIMITS_THREADS"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    checker = Checker(workloads.load_references())
    checker.run(workloads.operations(workload, seed, tiny=True))
    ops = workloads.operations(workload, seed, tiny=tiny)
    out = {"items": sum(op.items for op in ops)}
    if not trace:
        out["passes"] = timed_passes(checker, ops, seconds)
    else:
        out["passes"] = timed_passes(checker, ops, seconds / 2)
        tr = tracer.Tracer()
        tr.install()
        try:
            out["traced_passes"] = timed_passes(checker, ops, seconds / 2, tr)
        finally:
            tr.uninstall()
    out["attempted"], out["failed"] = checker.attempted, checker.failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="time the tiny operations (self-test)")
    ap.add_argument("--setup", action="store_true", help="run the tiny operations once")
    args = ap.parse_args()
    import_package()
    if args.setup:
        checker = Checker(workloads.load_references())
        checker.run(workloads.operations(args.workload, args.seed, tiny=True), probing=False)
        ready = time.monotonic()
        out = {
            "ready": ready,
            "probe_s": statistics.median(probe() for _ in range(5)),
            "attempted": checker.attempted,
            "failed": checker.failed,
        }
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
