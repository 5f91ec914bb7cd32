"""Self-test of the benchmark at tiny sizes (about 15 s).

    python3 -m pytest perfbench/test_bench.py

It is not part of the package's test suite (`tests/`), whose run time it
would add to.
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: _result(_run(w, 1)) for w in workloads.WORKLOADS}


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_are_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_declared(traced):
    res = _result(_run("thresholds", 0))
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _declared("end_to_end")
    for res in traced.values():
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == _declared("per_layer")


def test_layers_map_to_workloads(traced):
    v = lambda w, m: traced[w]["metrics"][m]["value"]
    # figures: quadrature through psi_function_1bit; no tail bounds, no sampling
    assert v("figures", "numerics.mean_entropy_q_scaled.calls") > 0
    assert v("figures", "bounds.psi_function_1bit.calls_per_point") > 0
    assert v("figures", "bounds.cor_gt_noisy.self_s") > 0
    assert v("figures", "conc.remainder_sum.calls") == 0
    assert v("figures", "model.sample_realization.calls") == 0
    # thresholds: the tail-bound solver, reached by no CLI command
    assert v("thresholds", "conc.remainder_sum.calls") > 0
    assert v("thresholds", "conc.remainder_n_required.evals_per_solve") > 0
    assert v("thresholds", "info.gt_mi_closed_form.distinct_share") > 0
    assert v("thresholds", "cli.main.self_s") == 0
    assert v("thresholds", "sim.run_cell.calls") == 0
    # decode-gt: decoders and sampling; the quadrature layer stays idle
    assert v("decode-gt", "numerics.mean_entropy_q_scaled.calls") == 0
    for m in ("sim.decode_ml.candidates", "sim.decode_comp.calls",
              "sim.decode_threshold.density_evals_per_candidate",
              "model.sample_realization.x_bytes"):
        assert v("decode-gt", m) > 0, m
    assert v("decode-gt", "info.log_marginal_likelihood.calls") == 0
    # decode-real: likelihood loops and the Gaussian marginal likelihood
    assert v("decode-real", "info.log_marginal_likelihood.calls") > 0
    assert v("decode-real", "info.density_rows.rows") > 0
    assert v("decode-real", "sim.decode_comp.calls") == 0
    assert v("decode-real", "conc.remainder_sum.calls") == 0
    for w in ("decode-gt", "decode-real"):
        shares = sum(v(w, f"sim.decode_threshold.{s}_share") for s in ("unique", "none", "multiple"))
        assert shares == pytest.approx(1.0)


def test_tracer_replaces_every_lookup_site():
    package = worker.import_package()
    tr = tracer.Tracer()
    originals = {}
    for name in tracer.TRACED:
        mod, _, attr = name.partition(".")
        obj = importlib.import_module(f"{package.__name__}.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        originals[name] = obj
    modules = [m for n, m in sys.modules.items() if n.startswith(package.__name__)]
    tr.install()
    try:
        for name, fn in originals.items():
            for module in modules:
                assert all(v is not fn for v in vars(module).values()), (name, module)
    finally:
        tr.uninstall()
    from support_limits import bounds, conc, numerics

    assert bounds.mean_entropy_q_scaled is originals["numerics.mean_entropy_q_scaled"]
    assert numerics.mean_entropy_q_scaled is originals["numerics.mean_entropy_q_scaled"]
    assert conc.TailBoundSpec.psi is originals["conc.TailBoundSpec.psi"]


def test_perturbed_entropies_fail_the_check():
    worker.import_package()
    from support_limits import numerics

    ops = workloads.operations("figures", 0, tiny=True)
    checker = worker.Checker(workloads.load_references())
    numerics.set_entropy_perturbation(1e-3)
    try:
        failed = checker.run(ops)["failed"]
    finally:
        numerics.set_entropy_perturbation(0.0)
    assert failed / checker.attempted > 0
    assert checker.run(ops)["failed"] == 0


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("figures", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
