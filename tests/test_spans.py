"""The benchmark's traced names must exist, or its traced run crashes."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    # spans.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.TRACED.items():
        home = importlib.import_module(f"dcjsort.{module}")
        for qualname in names:
            target = home
            for attr in qualname.split("."):
                assert hasattr(target, attr), f"dcjsort.{module}.{qualname}"
                target = getattr(target, attr)
            assert callable(target), f"dcjsort.{module}.{qualname}"
