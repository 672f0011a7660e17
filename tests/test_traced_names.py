"""The benchmark's traced run wraps fedcond functions by module and attribute
path (`perfbench/layers.py`). Each must keep resolving, or the traced run
fails before it measures anything."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"fedcond.{module}")
    for attr in path.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return callable(owner)


def test_every_traced_name_resolves_in_fedcond():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert len(layers.TRACED) > 0
    missing = [f"fedcond.{module}.{path}" for _, module, path, _ in layers.TRACED
               if not resolves(module, path)]
    assert missing == []
