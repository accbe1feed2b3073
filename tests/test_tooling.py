"""Guards on the names the benchmark's span tracer reads from the package.

`bench/spans.py` groups spans by qualified names such as
``modules.FdLeftModule.action_matrix``.  A name that no longer resolves is
never wrapped, so its per-layer metric reads zero without any error; these
tests make such a rename fail here instead.  The last tests pin how
`tools/bench_pairs.py` counts a pair as won in each metric direction and
how it judges a metric against its bound, which lines `tools/loc.py`
counts as code and which lines `tools/unreached.py` lists as never run.  The value-class guards keep `import mrb` from compiling
source: every class made by `linalg._frozen` has a docstring of its own and
the decorator's __init__, no ``dataclass`` method is generated, and neither
``dataclasses`` nor the modules it imports are loaded; and a command-line
call loads no ``argparse``.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import mrb
from mrb.core import scaled_projection
from mrb.modules import regular_left_module, regular_right_module
from mrb.tensor import tensor_product
from test_value_classes import value_classes

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


# names the tracer still lists though the package dropped them; they leave
# `bench/spans.py` with the next change to the benchmark
KNOWN_STALE = {
    "operated.OperatedWord", "operated.OperatedElement", "linalg.zero_vector",
    "linalg.is_zero_vector", "linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale",
}


def test_every_other_name_the_tracer_reads_resolves_in_the_package():
    # a value class or excluded helper renamed away is wrapped again under
    # its new name and floods the trace; a stale extra method is never wrapped
    spans = _load_spans()
    names = spans.VALUE_CLASSES | spans.EXCLUDE | spans.EXTRA_METHODS
    assert {n for n in names if not _resolves(n)} == KNOWN_STALE


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


def _load_tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_counts_wins_in_each_metric_direction():
    tool = _load_tool("bench_pairs")
    assert tool.parse_seeds("7,8,1301-1303") == [7, 8, 1301, 1302, 1303]
    metrics = [{"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
               {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]

    def runs(rates):
        return [{"metrics": {"jobs_per_s": {"value": r}, "job_p50_ms": {"value": 1000 / r}}}
                for r in rates]

    out = tool.summarise(metrics, {"parent": runs([10, 20, 30]), "change": runs([30, 10, 60])})
    assert out["jobs_per_s"]["change_wins"] == out["job_p50_ms"]["change_wins"] == "2/3"
    assert (out["jobs_per_s"]["parent_median"], out["jobs_per_s"]["change_median"]) == (20, 30)
    assert out["jobs_per_s"]["ratio"] == 1.5
    assert out["jobs_per_s"]["parent_quartiles"] == [15, 25]


def test_bench_pairs_verdicts_against_the_bound():
    tool = _load_tool("bench_pairs")
    higher = {"better": "higher", "bound": 0.25}
    lower = {"better": "lower", "bound": 0.25}
    steady = [10, 10.5, 11]  # spread (10.75 - 10.25) / 10.5, under the bound
    # every change run beats every parent run, in either direction
    assert tool.verdict(higher, steady, [12, 13, 14]) == "better"
    assert tool.verdict(lower, steady, [7, 8, 9]) == "better"
    # a parent spread of (25 - 15) / 20 = 0.5 hides any move short of "better"
    assert tool.verdict(higher, [10, 20, 30], [5, 6, 7]) == "unresolved"
    # the median fell by 4.5, more than 0.25 * 10.5; with "lower" it rose
    assert tool.verdict(higher, steady, [5, 6, 20]) == "worse"
    assert tool.verdict(lower, steady, [10, 15, 16]) == "worse"
    # the median moved the wrong way by 0.5, within the bound
    assert tool.verdict(higher, steady, [9.5, 10, 12]) == "within bound"
    assert tool.verdict(lower, steady, [9, 11, 12]) == "within bound"


def test_loc_counts_code_lines_only(tmp_path):
    # docstrings, comment-only lines and blank lines are left out; code lines
    # and a multi-line string that is not a docstring are counted
    sample = tmp_path / "sample.py"
    sample.write_text('''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment


class C:
    """Class docstring."""

    def f(self):
        """Method docstring,
        over two lines."""
        text = """a string
that is not a docstring"""
        return text, os
''')
    assert _load_tool("loc").count(sample) == (16, 6)


def test_every_value_class_has_its_own_docstring_and_the_decorator_init():
    # without a docstring, dataclass() builds one from inspect.signature
    classes = value_classes()
    assert len(classes) == 29
    assert [c.__name__ for c in classes
            if not vars(c).get("__doc__") or vars(c)["__doc__"].startswith(f"{c.__name__}(")] == []
    assert [c.__name__ for c in classes
            if vars(c)["__init__"].__qualname__ != "_frozen.<locals>.__init__"] == []


def test_importing_the_package_generates_no_dataclass_method():
    # dataclass() compiles each generated method from a text that defines
    # __create_fn__; an audit hook sees every text compiled during the import
    probe = """
import sys
texts = []
sys.addaudithook(lambda event, args: event == "compile" and texts.append(args[0]))
import mrb.cli
print(sum(b"__create_fn__" in (t.encode() if isinstance(t, str) else t) for t in texts))
"""
    assert _fresh(probe) == "0"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, which imports ast, dis and tokenize; the
    # value classes register their fields only when they are first read
    probe = """
import sys
before = set(sys.modules)
import mrb.cli
print(sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & (set(sys.modules) - before)))
"""
    assert _fresh(probe) == "[]"


def test_a_cli_call_loads_neither_argparse_nor_gettext_nor_locale():
    # cli._parse reads the command line off VERBS; argparse would import
    # gettext, which imports locale
    golden = Path(__file__).resolve().parent / "golden" / "inputs"
    probe = f"""
import io, sys
from mrb import cli
out = io.StringIO()
code = cli.main(["mc", {str(golden / "regular_left_sp12.json")!r}, "--pretty"], stdout=out)
print(code, sorted({{"argparse", "gettext", "locale"}} & set(sys.modules)), out.getvalue()[:1])
"""
    assert _fresh(probe) == "0 [] {"


def _fresh(probe: str) -> str:
    """What probe prints in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(mrb.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_unreached_lists_the_function_lines_a_traced_call_never_ran(tmp_path):
    # module and class bodies are not listed, a function's def line counts
    # as run once it is called, and the census is by line: g's return ran,
    # so the lambda on its line is not listed though it was never called
    sample = tmp_path / "sample.py"
    sample.write_text('''import os


def f(x):
    if x:
        return os.sep
    y = [i for i in range(x)]
    return y


def g():
    return lambda v: v


class C:
    def h(self):
        return 1
''')
    tool = _load_tool("unreached")
    spec = importlib.util.spec_from_file_location("unreached_sample", sample)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ran = {}
    previous = sys.gettrace()
    sys.settrace(tool.tracer(tmp_path, ran))
    try:
        module.f(1)
        module.g()
    finally:
        sys.settrace(previous)
    assert tool.function_lines(sample) == {4, 5, 6, 7, 8, 11, 12, 16, 17}
    assert tool.unreached(sample, ran[str(sample)]) == [
        (7, "y = [i for i in range(x)]"), (8, "return y"), (16, "def h(self):"),
        (17, "return 1")]
