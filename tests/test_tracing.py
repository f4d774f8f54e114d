"""The benchmark's trace spans name functions that casinv still has.

bench/tracing.py is loaded from its file, read-only, so a renamed or deleted
function fails here instead of in a traced benchmark run minutes later.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
    return obj


def test_every_span_resolves_to_a_casinv_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    broken = [
        name
        for name, (module, path) in tracing.SPANS.items()
        if module.split(".")[0] != "casinv" or not callable(_resolve(module, path))
    ]
    assert broken == []
