"""Benchmark of support-limits: figure tables, generic thresholds and
seeded decoder sweeps.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads: figures, thresholds, decode-gt, decode-real (see README.md).
With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer ones.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the environment and a readable table.  Exits 2 without a result when the
checkout has no `src/support_limits`.

The workload runs in a fresh `worker.py` process with SUPPORT_LIMITS_THREADS
unset, so the CLI's thread pool has one worker; OpenBLAS keeps its default
thread count, which is recorded.  `setup_s` is the median over SETUP_RUNS
further fresh processes.

Times are reported at a reference machine speed: each measured time is
multiplied by PROBE_REF_S / (probe time measured next to it).  On a shared
machine the raw times of one operation vary by half from one stretch of
seconds to the next; the scaled ones vary far less (README.md has the
measurements).  The raw medians are printed in the table as well.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS, top_self_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_METRICS = LAYER_METRICS + (
    ("trace.overhead_share", "share"),
    ("ops_failed_share", "share"),
)

SETUP_RUNS = 5
DEADLINE_S = 170.0
# worker.probe() takes about this long when the 2-CPU development VM is
# quiet (Python 3.11, numpy 2.4).
PROBE_REF_S = 0.002


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise SystemExit("benchmark ran out of time")
        return left


def scaled_pass(passes: list[dict], key: str) -> float:
    """Median over passes of the pass's time, each operation's time scaled
    to the reference machine speed by the probes around it."""
    return statistics.median(
        sum(t * PROBE_REF_S / pr for t, pr in zip(p[key], p["op_probe_s"])) for p in passes
    )


def worker(args: list[str], env: dict, deadline: Deadline) -> dict:
    """Run worker.py to completion and return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env,
            stdout=subprocess.PIPE,
            timeout=deadline.left(),
            check=False,
            text=True,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"worker {' '.join(args)} ran out of time") from None
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="time the tiny operations (self-test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "support_limits" / "__init__.py").is_file():
        print(f"no src/support_limits under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2

    deadline = Deadline(DEADLINE_S)
    env = dict(os.environ)
    env.pop("SUPPORT_LIMITS_THREADS", None)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    attempted = failed = 0
    setup, setup_raw = [], []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            t0 = time.monotonic()
            s = worker([*common, "--setup"], env, deadline)
            setup_raw.append(s["ready"] - t0)
            setup.append(setup_raw[-1] * PROBE_REF_S / s["probe_s"])
            attempted += s["attempted"]
            failed += s["failed"]

    run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    res = worker(run_args + (["--tiny"] if args.tiny else []), env, deadline)
    attempted += res["attempted"]
    failed += res["failed"]
    print("env " + json.dumps(res["env"], sort_keys=True))

    passes = res["passes"]
    wall = scaled_pass(passes, "op_wall_s")
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": scaled_pass(passes, "op_cpu_s"),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = E2E_METRICS
    else:
        traced = res["traced_passes"]
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name, _ in LAYER_METRICS
        }
        values["trace.overhead_share"] = scaled_pass(traced, "op_wall_s") / wall - 1.0
        values["ops_failed_share"] = sum(p["failed"] for p in traced) / sum(
            p["attempted"] for p in traced
        )
        units = PER_LAYER_METRICS
        top, top_s = top_self_time(values)
        print(f"largest self time: {top} {top_s:.4f} s per pass (raw)")

    probe_med = statistics.median(pr for p in passes for pr in p["op_probe_s"])
    print(
        f"workload {args.workload}: {len(passes)} passes of {res['items']} items, "
        f"{res['items'] / wall:.1f} items/s; raw median pass "
        f"{statistics.median(sum(p['op_wall_s']) for p in passes):.4f} s"
        + (f", raw median setup {statistics.median(setup_raw):.4f} s" if setup_raw else "")
        + f"; median probe {probe_med * 1e3:.3f} ms (reference {PROBE_REF_S * 1e3:g} ms)"
    )
    for name, unit in units:
        print(f"  {name:<52} {values[name]:>14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
