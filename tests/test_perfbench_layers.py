"""The benchmark traces functions by name; every name must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, names in spans.LAYERS.items():
        mod = importlib.import_module(f"splitbench.{mod_name}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{mod_name}.{name}"
