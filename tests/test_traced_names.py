"""Every function the benchmark's tracer (perfbench/tracer.py) patches by name
still exists in the package, so a rename cannot silently drop a layer from
the benchmark's per-layer metrics; and every workload's tiny operations
(perfbench/workloads.py) still give their reference outputs under the tracer,
whose hooks read the traced functions' arguments and results, and reach the
layers they are meant to."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load(TRACER, "perfbench_tracer")
workloads = _load(WORKLOADS, "perfbench_workloads")


@pytest.mark.parametrize("name", tracer.TRACED)
def test_traced_name_resolves(name):
    module, _, attr = name.partition(".")
    owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    if "." in attr:
        # the tracer patches a method in its class's own __dict__
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


# metrics each workload's tiny operations must move off zero
REACHED = {
    "figures": ["numerics.binary_entropy.calls", "numerics.mean_entropy_q_scaled.calls",
                "bounds.psi_function_1bit.calls_per_point"],
    "thresholds": ["numerics.binary_entropy.calls", "numerics.mean_entropy_q_scaled.calls",
                   "info.mutual_information.calls", "conc.remainder_n_required.calls"],
    "decode-gt": ["model.sample_realization.x_bytes", "sim.decode_ml.candidates",
                  "sim.decode_threshold.calls", "sim.decode_comp.calls"],
    "decode-real": ["model.sample_realization.x_bytes", "sim.decode_ml.candidates",
                    "sim.decode_threshold.calls"],
}


def _tiny_metrics(workload):
    """Per-layer metrics of the workload's tiny operations, each checked
    against its reference output."""
    references = workloads.load_references()
    tr = tracer.Tracer()
    tr.install()
    try:
        for op in workloads.operations(workload, 0, tiny=True):
            assert workloads.execute(op) == references[op.key], op.key
        metrics = tr.metrics()
    finally:
        tr.uninstall()
    assert {m for m, _ in tracer.LAYER_METRICS} == set(metrics)
    for metric in REACHED[workload]:
        assert metrics[metric] > 0, metric


@pytest.mark.parametrize("workload", ["decode-gt", "decode-real"])
def test_tiny_decode_operations_under_the_tracer(workload):
    _tiny_metrics(workload)


@pytest.mark.parametrize("workload", ["figures", "thresholds"])
def test_tiny_threshold_operations_under_the_tracer(workload):
    _tiny_metrics(workload)
