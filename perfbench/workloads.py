"""The operations each benchmark workload runs, and how one is executed.

An operation is either one `support-limits` CLI invocation, run in-process
through `support_limits.cli.main` with stdout captured, or one call of a
generic threshold function.  Its output is a string: the CSV text of the
command, or the `repr` of the threshold call's floats and binding.  Every
output has a reference in `references.json`, recorded from the seed commit;
an operation fails when it raises, exits non-zero or differs from it.

Each workload has a full operation list, which the timed passes run, and a
tiny one, which touches the same code paths once and makes up `setup_s`.
"""
from __future__ import annotations

import contextlib
import io
import json
import numbers
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("figures", "thresholds", "decode-gt", "decode-real")

# The decode workloads pass `simulate --seed` = 1 + (benchmark seed mod
# SIM_SEEDS); references.json holds the outputs of all SIM_SEEDS values.
SIM_SEEDS = 8

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Op:
    """One operation: `argv` for a CLI call, or (direction, channel, k, p,
    rho) for a threshold call.  `items` is the work it does in the unit of
    its workload (figure points, threshold evaluations or decoded trials)."""

    kind: str  # "cli" | "threshold"
    args: tuple
    items: int

    @property
    def key(self) -> str:
        if self.kind == "cli":
            return " ".join(self.args)
        direction, channel, k, p, rho = self.args
        return f"{direction} {channel} k={k} p={p} rho={rho:g}"


def _cli(argv: str, items: int) -> Op:
    return Op("cli", tuple(argv.split()), items)


def _figures(tiny: bool) -> list[Op]:
    if tiny:
        return [
            _cli("threshold --figure partial-recovery --snr-db=0:0:1 --grid-points 21", 1),
            _cli("threshold --figure gt-noiseless --theta 0.3:0.3:0.1", 1),
            _cli("threshold --figure gt-noisy --theta 0.2:0.2:0.1 --rho 0.11", 1),
        ]
    # The partial-recovery figure at -20:50:2 dB (36 points) is run as six
    # invocations of six points: one 3.6 s operation is rarely timed inside a
    # quiet stretch of a shared machine, six shorter ones are (README.md).
    partial = [
        _cli(f"threshold --figure partial-recovery --snr-db={lo}:{lo + 10}:2", 6)
        for lo in range(-20, 51, 12)
    ]
    return partial + [
        _cli("threshold --figure gt-noiseless", 19),
        _cli("threshold --figure gt-noisy --theta 0.05:0.5:0.05 --rho 0.05,0.11,0.25", 30),
    ]


def _thresholds(tiny: bool) -> list[Op]:
    ks, ps = ((3,), (10**4,)) if tiny else ((3, 5, 8), (10**4, 10**6, 10**9))
    gt_ks, gt_ps = ((10,), (10**4,)) if tiny else ((10, 50, 100), (10**4, 10**6))
    cases = [(ch, k, p, 0.0) for ch in ("linear", "one-bit") for k in ks for p in ps]
    cases += [("gt", k, p, rho) for rho in (0.0, 0.11) for k in gt_ks for p in gt_ps]
    return [
        Op("threshold", (direction, *case), 1)
        for case in cases
        for direction in ("achievability", "converse")
    ]


def _decode_gt(tiny: bool, sim_seed: int) -> list[Op]:
    gt = f"simulate --model gt --seed {sim_seed}"
    if tiny:
        return [
            _cli(f"{gt} --decoder ml --p 8 --k 2 --n-grid 0:8:4 --trials 5", 15),
            _cli(f"{gt} --decoder comp --p 8 --k 2 --n-grid 0:8:4 --trials 5", 15),
            _cli(f"{gt} --decoder threshold --p 8 --k 2 --n-grid 20:20:1 --trials 3", 3),
        ]
    return [
        _cli(f"{gt} --decoder ml --p 16 --k 2 --n-grid 0:40:4 --trials 150", 1650),
        _cli(f"{gt} --decoder comp --p 16 --k 2 --n-grid 0:40:4 --trials 500", 5500),
        _cli(f"{gt} --decoder threshold --p 12 --k 2 --n-grid 52:52:1 --trials 100", 100),
    ]


def _decode_real(tiny: bool, sim_seed: int) -> list[Op]:
    s = f"simulate --seed {sim_seed}"
    if tiny:
        # n=200 keeps the Gaussian ML call big enough to start OpenBLAS's
        # threads, which every first call of that path pays.
        return [
            _cli(f"{s} --model linear --decoder threshold --prior permuted --b 1,1,2 --k 3 --p 6 --n-grid 10:10:1 --trials 1", 1),
            _cli(f"{s} --model one-bit --decoder threshold --b 1,2 --k 2 --p 5 --n-grid 10:10:1 --trials 1", 1),
            _cli(f"{s} --model one-bit --decoder ml --b 1,0.5,2 --k 3 --p 5 --n-grid 10:10:1 --trials 1", 1),
            _cli(f"{s} --model linear --decoder ml --prior gaussian --k 2 --p 4 --n-grid 200:200:1 --trials 1", 1),
        ]
    return [
        _cli(f"{s} --model linear --decoder threshold --prior permuted --b 1,1,2 --k 3 --p 10 --n-grid 40:40:1 --trials 15", 15),
        _cli(f"{s} --model one-bit --decoder threshold --b 1,2 --k 2 --p 10 --n-grid 60:60:1 --trials 40", 40),
        _cli(f"{s} --model one-bit --decoder ml --b 1,0.5,2 --k 3 --p 12 --n-grid 100:100:1 --trials 30", 30),
        _cli(f"{s} --model linear --decoder ml --prior gaussian --k 2 --p 10 --n-grid 200:200:1 --trials 20", 20),
    ]


def sim_seed(seed: int) -> int:
    return 1 + seed % SIM_SEEDS


def operations(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's operations for benchmark seed `seed`, in a seeded
    order.  Tiny lists use simulate seed 1 whatever the benchmark seed."""
    if workload == "figures":
        ops = _figures(tiny)
    elif workload == "thresholds":
        ops = _thresholds(tiny)
    elif workload == "decode-gt":
        ops = _decode_gt(tiny, 1 if tiny else sim_seed(seed))
    elif workload == "decode-real":
        ops = _decode_real(tiny, 1 if tiny else sim_seed(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def all_reference_ops() -> list[Op]:
    """Every operation any seed can run, tiny ones included."""
    ops = []
    for w in WORKLOADS:
        ops += operations(w, 0, tiny=True)
        ops += operations(w, 0) if w in ("figures", "thresholds") else [
            op for s in range(SIM_SEEDS) for op in operations(w, s)
        ]
    return sorted(set(ops), key=lambda op: op.key)


def _bvec(k: int) -> list[float]:
    """Fixed non-zero entries 0.5, -1, 1.5, -2, 0.5, ... for the continuous
    channels."""
    return [(0.5 + (i % 4) * 0.5) * (-1) ** i for i in range(k)]


def execute(op: Op) -> str:
    """Run one operation and return its output; raises on a non-zero exit."""
    from support_limits import bounds, cli
    from support_limits.model import ModelSpec, ProblemDims

    if op.kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.args))
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return buf.getvalue()
    direction, channel, k, p, rho = op.args
    if channel == "gt":
        model, b = ModelSpec.group_testing(rho=rho), None
    elif channel == "linear":
        model, b = ModelSpec.linear(1.0), _bvec(k)
    else:
        model, b = ModelSpec.one_bit(1.0), _bvec(k)
    dims = ProblemDims(p=p, k=k, n=0)
    fn = (
        bounds.achievability_threshold_generic
        if direction == "achievability"
        else bounds.converse_threshold_generic
    )
    res = fn(model, b, dims)
    return repr(_plain((res.n_ach, res.n_conv, res.binding, res.remainder_n, res.breakdown)))


def _plain(v):
    """Python ints and floats in place of numpy scalars, so the repr
    compares values rather than types."""
    if isinstance(v, (tuple, list)):
        return tuple(_plain(x) for x in v)
    if v is None or isinstance(v, (str, int)):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    return float(v)


def load_references() -> dict[str, str]:
    with open(REFERENCES) as fh:
        return json.load(fh)["outputs"]
