"""The benchmark's tracer rebinds tritorus functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module, attr, _, _ in tracer.LAYERS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)  # AttributeError names the missing hook
        assert callable(owner), (module, attr)
