"""Guards on the names the benchmark's span tracer reads from the package.

`bench/spans.py` groups spans by qualified names such as
``modules.FdLeftModule.action_matrix``.  A name that no longer resolves is
never wrapped, so its per-layer metric reads zero without any error; these
tests make such a rename fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

from mrb.core import scaled_projection
from mrb.modules import regular_left_module, regular_right_module
from mrb.tensor import tensor_product

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(qualified: str) -> bool:
    layer, *attrs = qualified.split(".")
    obj = importlib.import_module(f"mrb.{layer}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_span_groups_and_observers_resolve_in_the_package():
    spans = _load_spans()
    names = [n for group in spans.GROUPS.values() for n in group] + list(spans.OBSERVERS)
    assert names
    missing = [n for n in names if not _resolves(n)]
    assert missing == []


def test_tensor_observer_reads_a_real_tensor_product():
    # the observer reads TensorSpace attributes; reshaping them must fail here
    spans = _load_spans()
    inst = scaled_projection((1, 2))
    t = tensor_product(regular_right_module(inst), regular_left_module(inst))
    raw = {}
    spans.OBSERVERS["tensor.tensor_product"](raw, (), {}, t)
    assert raw["tensor.ambient_max"] == 4
    assert raw["tensor.relation_rank"] == 2
    assert raw["tensor.relation_rows"] == 16
