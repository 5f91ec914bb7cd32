"""Every function the benchmark's tracer (perfbench/tracer.py) patches by name
still exists in the package, so a rename cannot silently drop a layer from
the benchmark's per-layer metrics; and the tiny decode operations
(perfbench/workloads.py) still give their reference outputs under the tracer,
whose hooks read the decoders' arguments and results."""
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


@pytest.mark.parametrize("workload", ["decode-gt", "decode-real"])
def test_tiny_decode_operations_under_the_tracer(workload):
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
    reached = ["model.sample_realization.x_bytes", "sim.decode_ml.candidates",
               "sim.decode_threshold.calls"]
    if workload == "decode-gt":
        reached.append("sim.decode_comp.calls")
    for metric in reached:
        assert metrics[metric] > 0, metric
