"""Span tracer for the traced benchmark run.

`install()` wraps the public functions of every mrb layer from outside: each
module-level function under every name it is bound to in the mrb package
(so ``modules.reweight`` and ``core.reweight`` are one traced function), and
each public method of the layer's classes on the class itself.  A span holds
its name, start, end, parent span and job identifier; spans live in flat
arrays in memory and are written out once, when the run ends.

Per-layer metrics are computed from the spans (calls and inclusive time per
metric group, self time per layer) plus a few counts taken at the same
boundaries from arguments and results (matrix shapes, rows that enlarged a
span, relation ranks).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

LAYERS = ("linalg", "core", "modules", "tensor", "operated", "opring", "parser", "cli")

# Value types and scalar helpers, called once per entry, term or word.  A
# wrapper on each would cost more than the call itself and flood the trace;
# their time stays in the self time of the span that called them.
VALUE_CLASSES = {
    "opring.OpWord", "opring.OpElement", "opring.FreeModuleElement",
    "opring.RewriteReport", "opring.Discrepancy", "opring.ConfluenceReport", "opring.OracleResult",
    "operated.GeneratorSet", "operated.OperatedWord", "operated.OperatedElement",
    "parser.Token", "parser.WordAst", "parser.ExpressionAst", "parser.ExpressionError",
    "core.Violation", "core.CheckReport", "core.ReweightSpec",
    "core.OperatorFamily", "core.WeightFamily",
    "tensor.ProbeResult", "tensor.FlatnessReport", "tensor.AdjunctionReport",
    "tensor.TensorUnitReport", "tensor.DirectSumTensorReport",
    "modules.DirectSum",
}
EXCLUDE = {
    "linalg.frac", "linalg.format_rational", "linalg.vector", "linalg.zero_vector",
    "linalg.unit_vector", "linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale",
    "linalg.is_zero_vector", "linalg.Matrix.row", "linalg.Matrix.col",
    "core.AlgebraPresentation.basis_vector", "core.AlgebraPresentation.label_index",
    "core.MrbAlgebraInstance.p_matrix", "core.MrbAlgebraInstance.weight",
    "modules.FdLeftModule.operator", "modules.FdRightModule.operator",
}
# Dunder methods that are layer operations in their own right.
EXTRA_METHODS = {"linalg.Matrix.__matmul__", "opring.OperatorRing.__init__"}

# Metric groups: calls and inclusive time count outermost spans only, so a
# checker that calls another checker is one check.
GROUPS = {
    "linalg.rref": ("linalg.Matrix.rref",),
    "linalg.apply": ("linalg.Matrix.apply",),
    "linalg.matmul": ("linalg.Matrix.__matmul__",),
    "linalg.sparse": ("linalg.SparseRowSpace.reduce", "linalg.SparseRowSpace.add",
                      "linalg.SparseRowSpace.contains", "linalg.SparseRowSpace.reduced_rows"),
    "core.identity": ("core.check_mrb_identity",),
    "core.presentation": ("core.check_presentation",),
    "core.multiply": ("core.AlgebraPresentation.multiply",),
    "modules.check": ("modules.check_action_laws", "modules.check_left_module",
                      "modules.check_right_module", "modules.check_bimodule"),
    "modules.action_matrix": ("modules.FdLeftModule.action_matrix",
                              "modules.FdRightModule.action_matrix",
                              "modules.FdBimodule.left_action_matrix",
                              "modules.FdBimodule.right_action_matrix"),
    "modules.hom_space": ("modules.hom_space",),
    "tensor.product": ("tensor.tensor_product",),
    "opring.ring": ("opring.OperatorRing.__init__",),
    "opring.completion": ("opring.OperatorRing.linear_rules",),
    "opring.rewrite": ("opring.OperatorRing.rewrite_at",),
    "opring.normalize": ("opring.OperatorRing.normal_form", "opring.OperatorRing.normalize",
                         "opring.OperatorRing.free_module_normal_form"),
    "opring.multiply": ("opring.OperatorRing.multiply",),
    "opring.oracle": ("opring.OperatorRing.truncated_quotient_oracle",
                      "opring.OperatorRing.ideal_contains"),
    "opring.confluence": ("opring.OperatorRing.confluence_probe",),
    "operated.generators": ("operated.FreeOperatedModule.ideal_generators",),
    "parser.parse": ("parser.tokenize", "parser.parse_expression",
                     "parser.bind_op_expression", "parser.bind_operated_expression"),
    "parser.print": ("parser.print_op_word", "parser.print_op_element",
                     "parser.print_free_module_element", "parser.print_operated_word",
                     "parser.print_operated_element"),
    "cli.main": ("cli.main",),
}


# -- counts taken at the boundaries -----------------------------------------

def _rref_cells(raw, args, kwargs, result):
    m = args[0]
    raw["linalg.rref_max_cells"] = max(raw.get("linalg.rref_max_cells", 0), m.rows * m.cols)


def _sparse_add(raw, args, kwargs, result):
    raw["linalg.sparse_adds"] = raw.get("linalg.sparse_adds", 0) + 1
    raw["linalg.sparse_adds_useful"] = raw.get("linalg.sparse_adds_useful", 0) + bool(result)


def _hom_unknowns(raw, args, kwargs, result):
    src, dst = args[0], args[1]
    raw["modules.hom_unknowns_max"] = max(raw.get("modules.hom_unknowns_max", 0), src.dim * dst.dim)


def _tensor_relations(raw, args, kwargs, result):
    raw["tensor.ambient_max"] = max(raw.get("tensor.ambient_max", 0), result.ambient_dim)
    raw["tensor.relation_rank"] = raw.get("tensor.relation_rank", 0) + result.ambient_dim - result.dim
    raw["tensor.relation_rows"] = raw.get("tensor.relation_rows", 0) + len(result.relations)


def _words_in(raw, args, kwargs, result):
    raw["opring.words_normalized"] = raw.get("opring.words_normalized", 0) + len(args[1].terms)


def _generators(raw, args, kwargs, result):
    raw["operated.generators"] = raw.get("operated.generators", 0) + len(result)


# Observers run only for outermost spans of their group.
OBSERVERS = {
    "linalg.Matrix.rref": _rref_cells,
    "linalg.SparseRowSpace.add": _sparse_add,
    "modules.hom_space": _hom_unknowns,
    "tensor.tensor_product": _tensor_relations,
    "opring.OperatorRing.normal_form": _words_in,
    "opring.OperatorRing.normalize": _words_in,
    "opring.OperatorRing.free_module_normal_form": _words_in,
    "operated.FreeOperatedModule.ideal_generators": _generators,
}

MAX_KEYS = ("linalg.rref_max_cells", "modules.hom_unknowns_max", "tensor.ambient_max")


class Tracer:
    """Records spans while `enabled`; `job` tags every span opened."""

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.names: list[str] = []
        self.name_group: list[int] = []
        self.groups: list[str] = list(GROUPS)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name_id = array("i")
        self.job_id = array("i")
        self.outermost = array("b")
        self.raw: dict[str, float] = {}
        self._stack: list[int] = []
        self._active = [0] * len(self.groups)
        self._group_of = {n: g for g, names in enumerate(GROUPS.values()) for n in names}

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        gid = self._group_of.get(name, -1)
        self.name_group.append(gid)
        observe = OBSERVERS.get(name)
        tracer = self
        stack, active, raw = self._stack, self._active, self.raw
        start, end, parent, name_id, job_id, outermost = (
            self.start, self.end, self.parent, self.name_id, self.job_id, self.outermost)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            job_id.append(tracer.job)
            outer = gid < 0 or active[gid] == 0
            outermost.append(outer)
            end.append(0.0)
            if gid >= 0:
                active[gid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if gid >= 0:
                    active[gid] -= 1
            if observe is not None and outer:
                observe(raw, args, kwargs, result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Raw sums over the recorded spans; `merge` adds them across
        processes and `per_layer` turns them into the reported metrics."""
        out = dict(self.raw)
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        for i in range(n):
            nid = self.name_id[i]
            layer = self.names[nid].split(".", 1)[0]
            key = f"{layer}.self_s"
            out[key] = out.get(key, 0.0) + dur[i] - child[i]
            gid = self.name_group[nid]
            if gid >= 0 and self.outermost[i]:
                g = self.groups[gid]
                out[g + ".calls"] = out.get(g + ".calls", 0) + 1
                out[g + ".s"] = out.get(g + ".s", 0.0) + dur[i]
        out["spans"] = n
        return out

    def write(self, path) -> None:
        """Header line of JSON, then the span arrays in field order."""
        header = {
            "names": self.names,
            "fields": ["start", "end", "parent", "name_id", "job_id", "outermost"],
            "types": ["d", "d", "i", "i", "i", "b"],
            "count": len(self.start),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.parent, self.name_id, self.job_id, self.outermost):
                arr.tofile(fh)


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for k, v in part.items():
            out[k] = max(out.get(k, 0), v) if k in MAX_KEYS else out.get(k, 0) + v
    return out


def per_layer(raw: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from merged raw sums."""
    g = raw.get
    adds = g("linalg.sparse_adds", 0)
    rows = g("tensor.relation_rows", 0)
    words = g("opring.words_normalized", 0)
    steps = g("opring.rewrite.calls", 0)
    return {
        "linalg.rref_calls": g("linalg.rref.calls", 0),
        "linalg.rref_s": g("linalg.rref.s", 0.0),
        "linalg.rref_max_cells": g("linalg.rref_max_cells", 0),
        "linalg.apply_calls": g("linalg.apply.calls", 0),
        "linalg.apply_s": g("linalg.apply.s", 0.0),
        "linalg.matmul_calls": g("linalg.matmul.calls", 0),
        "linalg.matmul_s": g("linalg.matmul.s", 0.0),
        "linalg.sparse_adds": adds,
        "linalg.sparse_useful": g("linalg.sparse_adds_useful", 0) / adds if adds else 0.0,
        "linalg.sparse_s": g("linalg.sparse.s", 0.0),
        "linalg.self_s": g("linalg.self_s", 0.0),
        "core.identity_checks": g("core.identity.calls", 0),
        "core.identity_s": g("core.identity.s", 0.0),
        "core.presentation_checks": g("core.presentation.calls", 0),
        "core.multiply_calls": g("core.multiply.calls", 0),
        "core.multiply_s": g("core.multiply.s", 0.0),
        "core.self_s": g("core.self_s", 0.0),
        "modules.checks": g("modules.check.calls", 0),
        "modules.check_s": g("modules.check.s", 0.0),
        "modules.action_matrix_calls": g("modules.action_matrix.calls", 0),
        "modules.hom_space_s": g("modules.hom_space.s", 0.0),
        "modules.hom_unknowns_max": g("modules.hom_unknowns_max", 0),
        "modules.self_s": g("modules.self_s", 0.0),
        "tensor.products": g("tensor.product.calls", 0),
        "tensor.product_s": g("tensor.product.s", 0.0),
        "tensor.ambient_max": g("tensor.ambient_max", 0),
        "tensor.relation_useful": g("tensor.relation_rank", 0) / rows if rows else 0.0,
        "tensor.self_s": g("tensor.self_s", 0.0),
        "opring.rings": g("opring.ring.calls", 0),
        "opring.completion_s": g("opring.completion.s", 0.0),
        "opring.rewrite_steps": steps,
        "opring.words_normalized": words,
        "opring.steps_per_word": steps / words if words else 0.0,
        "opring.multiply_calls": g("opring.multiply.calls", 0),
        "opring.oracle_s": g("opring.oracle.s", 0.0),
        "opring.confluence_s": g("opring.confluence.s", 0.0),
        "opring.self_s": g("opring.self_s", 0.0),
        "operated.generators": g("operated.generators", 0),
        "operated.self_s": g("operated.self_s", 0.0),
        "parser.parse_s": g("parser.parse.s", 0.0),
        "parser.print_s": g("parser.print.s", 0.0),
        "parser.self_s": g("parser.self_s", 0.0),
        "cli.import_s": g("cli.import_s", 0.0),
        "cli.main_s": g("cli.main.s", 0.0),
        "cli.self_s": g("cli.self_s", 0.0),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_useful", "_per_word")):
        return "ratio"
    return "count"


UNITS = {name: _unit(name) for name in per_layer({})}


def install(tracer: Tracer) -> None:
    """Wrap every public function of the mrb layers in `tracer` spans."""
    import importlib

    mods = {layer: importlib.import_module(f"mrb.{layer}") for layer in LAYERS}
    wrapped: dict[int, object] = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                qual = f"{layer}.{attr}"
                if not attr.startswith("_") and qual not in EXCLUDE:
                    wrapped[id(obj)] = tracer.wrap(qual, obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                cname = f"{layer}.{attr}"
                if attr.startswith("_") or cname in VALUE_CLASSES:
                    continue
                for mname, fn in list(vars(obj).items()):
                    qual = f"{cname}.{mname}"
                    public = not mname.startswith("_") or qual in EXTRA_METHODS
                    if inspect.isfunction(fn) and public and qual not in EXCLUDE:
                        setattr(obj, mname, tracer.wrap(qual, fn))
    # rebind every name a wrapped function is bound to, across the package
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            new = wrapped.get(id(obj))
            if new is not None:
                setattr(mod, attr, new)
