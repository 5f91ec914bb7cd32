"""Every function the benchmark's tracer (perfbench/tracer.py) patches by name
still exists in the package, so a rename cannot silently drop a layer from
the benchmark's per-layer metrics."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


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
