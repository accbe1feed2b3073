"""The package's frozen value classes against stdlib ``dataclass(frozen=True)``.

Every value class is made by ``linalg._frozen``, which reads the fields off
the class statement and attaches its own methods in place of the generated
ones; the fields are registered with ``dataclass`` on their first read, not
at import.  For each class a twin is built with
``dataclasses.make_dataclass(..., frozen=True)`` from the same fields, and
on sample instances the two must agree on construction, ``==``, ``hash``,
``repr``, the refusal of assignment and deletion, ``dataclasses.fields``,
``replace`` and ``asdict``.  Since registration happens once per process,
each way of making the first read runs in a fresh interpreter, and must
give every class the fields that ``dataclass`` registers when it runs on
the class statement at once.
"""

import __future__
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mrb import core, linalg, modules, operated, opring, parser, tensor
from mrb.core import CheckReport, MrbAlgebraInstance, Violation, catalog_instance
from mrb.opring import Discrepancy, FreeModuleElement, OpElement, OperatorRing, OpWord

LAYERS = (core, linalg, modules, operated, opring, parser, tensor)


def value_classes():
    """The classes the decorator made, in each layer of the package."""
    return [cls for layer in LAYERS for cls in vars(layer).values()
            if inspect.isclass(cls) and cls.__module__ == layer.__name__
            and "__dataclass_fields__" in vars(cls)]


def _samples():
    """At least one instance of each value class and of each subclass of one,
    most of them built by the package itself, two of a class where the
    package builds unequal ones."""
    inst = catalog_instance("scaled_projection(1,2)")
    fresh = MrbAlgebraInstance(inst.algebra, inst.operators, inst.weights)
    other = catalog_instance("upper_triangular(1,2)")
    left, right = modules.regular_left_module(inst), modules.regular_right_module(inst)
    left.maps  # a cached property outside the fields
    ds = modules.direct_sum([left, left])
    ring = OperatorRing(inst)
    word = OpWord((0, 1), ("1",))
    elem = OpElement.from_dict({word: Fraction(1, 2), OpWord((1,), ()): Fraction(-3)})
    free = operated.FreeOperatedModule(inst, ["x", "y"])
    ast = parser.parse_expression("2 * e1 Q[1] e2 - e2 : x + 1/2 * e1 . 1 . e2 : x + e1")
    bad = Violation("associativity", (0, 1, 2), (Fraction(1), Fraction(0, 1)))
    probes = tensor.flatness_probe(right, list(ds.inclusions), names=["a", "b"])
    out = [
        inst, fresh, other, inst.algebra, other.algebra, inst.operators, inst.weights,
        bad, Violation("unit-action", ()), CheckReport("presentation", (bad,)),
        core.check_mrb_identity(inst), core.ReweightSpec.identity(inst.omega),
        linalg.Subspace.spanned_by(2, [(Fraction(1), Fraction(2))]),
        linalg.quotient_space(2, [(Fraction(1), Fraction(1))]),
        left, right, modules.regular_left_module(other), modules.regular_bimodule(inst),
        *ds.inclusions, ds,
        free.gens, free.lift({"x": (1, 0), "y": (0, 1)}, left),
        elem, OpElement.zero(), FreeModuleElement.from_dict({(word, "x"): Fraction(2)}),
        ring.normalize(elem), Discrepancy(word, (elem, OpElement.zero()), (elem,)),
        ring.confluence_probe(2), ring.truncated_quotient_oracle(2),
        *parser.tokenize("e1 Q[1]\n e2"), *(w for _, w in ast.terms), ast,
        tensor.tensor_product(right, left),
        tensor.adjunction_check(right, modules.regular_bimodule(inst), right),
        *probes.probes, probes, tensor.tensor_unit_check(right),
        tensor.direct_sum_tensor_check(right, [left, left]),
    ]
    assert inst.verified and not fresh.verified
    return out


SAMPLES = _samples()


def _twin(cls, twins={}):
    """The stdlib frozen dataclass with cls's fields, or for a subclass of a
    value class the same subclass of its base's twin."""
    if cls not in twins:
        if "__dataclass_fields__" in vars(cls):
            specs = [(f.name, f.type, dataclasses.field(
                default=f.default, init=f.init, repr=f.repr, hash=f.hash, compare=f.compare))
                for f in dataclasses.fields(cls)]
            twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
        else:
            twin = type(cls.__name__, (_twin(cls.__base__),), {})
        twin.__qualname__ = cls.__qualname__
        twins[cls] = twin
    return twins[cls]


def _state(x):
    """x's fields, as set on the instance, by name."""
    names = {f.name for f in dataclasses.fields(x)}
    return {k: v for k, v in vars(x).items() if k in names}


def _twin_of(x):
    """An instance of the twin of x's class with x's field values."""
    tx = object.__new__(_twin(type(x)))
    for name, value in _state(x).items():
        object.__setattr__(tx, name, value)
    return tx


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raised", type(exc), str(exc)


def _init_args(x):
    return [getattr(x, f.name) for f in dataclasses.fields(x) if f.init]


def test_every_value_class_has_samples_and_agrees_on_its_fields():
    classes = value_classes()
    assert len(classes) == 29
    sampled = {type(x) for x in SAMPLES}
    assert set(classes) <= sampled
    assert {modules.FdRightModule, FreeModuleElement} <= sampled
    for cls in sampled:
        spec = [(f.name, f.type, f.default, f.init, f.repr, f.compare, f.hash)
                for f in dataclasses.fields(cls)]
        assert spec == [(f.name, f.type, f.default, f.init, f.repr, f.compare, f.hash)
                        for f in dataclasses.fields(_twin(cls))], cls


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_construction_repr_hash_and_fields_match_the_generated_methods(x):
    cls, twin, args = type(x), _twin(type(x)), _init_args(x)
    names = [f.name for f in dataclasses.fields(x) if f.init]
    for made, twin_made in ((cls(*args), twin(*args)),
                            (cls(**dict(zip(names, args))), twin(**dict(zip(names, args)))),
                            (dataclasses.replace(x), dataclasses.replace(_twin_of(x)))):
        assert type(made) is cls and made == x and not made != x
        assert _state(made) == _state(twin_made)
    # the fields with a default left out
    short = args[:sum(f.init and f.default is dataclasses.MISSING for f in dataclasses.fields(x))]
    assert _state(cls(*short)) == _state(twin(*short))
    tx = _twin_of(x)
    assert repr(x) == repr(tx)
    assert _outcome(hash, x) == _outcome(hash, tx)
    assert _outcome(dataclasses.asdict, x) == _outcome(dataclasses.asdict, tx)
    assert _outcome(dataclasses.astuple, x) == _outcome(dataclasses.astuple, tx)
    assert x.__eq__(object()) is NotImplemented and tx.__eq__(object()) is NotImplemented


def test_equality_matches_the_generated_method_on_every_pair():
    twins = [_twin_of(x) for x in SAMPLES]
    for x, tx in zip(SAMPLES, twins):
        for y, ty in zip(SAMPLES, twins):
            assert (x == y) == (tx == ty), (x, y)
            assert (x != y) == (tx != ty), (x, y)


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_assignment_and_deletion_are_refused_as_generated(x):
    for name in [f.name for f in dataclasses.fields(x)] + ["not_a_field"]:
        mine = type(x)(*_init_args(x))
        theirs = _twin_of(mine)
        assert _outcome(setattr, mine, name, 1) == _outcome(setattr, theirs, name, 1), name
        assert _state(mine) == _state(theirs)
        assert _outcome(delattr, mine, name) == _outcome(delattr, theirs, name), name
        assert _state(mine) == _state(theirs)


def test_a_subclass_instance_takes_attributes_outside_the_fields():
    right = modules.regular_right_module(catalog_instance("scaled_projection(1,2)"))
    right.note = "kept"
    assert right.note == "kept"
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'dim'"):
        right.dim = 3


def test_the_verified_latch_is_left_out_of_equality_and_replace():
    inst = catalog_instance("scaled_projection(1,2)")
    fresh = MrbAlgebraInstance(inst.algebra, inst.operators, inst.weights)
    assert inst.verified and not fresh.verified
    assert inst == fresh and hash(inst) == hash(fresh)
    # the latch is shown, as the generated repr shows every field
    assert repr(inst) == repr(_twin_of(inst)) and repr(inst).endswith("verified=True)")
    assert repr(fresh) == repr(_twin_of(fresh)) and repr(fresh).endswith("verified=False)")
    assert "verified" not in vars(fresh)
    copy = dataclasses.replace(inst)
    assert copy == inst and not copy.verified
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(inst, verified=True)
    with pytest.raises(TypeError):
        MrbAlgebraInstance(inst.algebra, inst.operators, inst.weights, verified=True)


def test_constructor_errors_name_the_argument():
    word = OpWord((0,), ())
    with pytest.raises(TypeError, match="missing required argument 'where'"):
        Violation("unit-action")
    with pytest.raises(TypeError, match="takes 3 arguments but 4 were given"):
        Violation("unit-action", (), None, 1)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'kind'"):
        Violation("unit-action", (), kind="other")
    with pytest.raises(TypeError, match="missing required argument 'terms'"):
        OpElement()
    with pytest.raises(TypeError, match="unexpected or repeated argument 'terms'"):
        OpElement(((word, Fraction(1)),), terms=())
    assert Violation(kind="k", where=()) == Violation("k", ()) == Violation("k", (), None)
    assert OpElement(terms=()) == OpElement(())


def test_post_init_validates_every_way_of_construction():
    gens = operated.GeneratorSet(("x", "y"))
    for build in (lambda: operated.GeneratorSet(("x", "x")),
                  lambda: operated.GeneratorSet(names=("x", "x")),
                  lambda: dataclasses.replace(gens, names=("x", "x"))):
        with pytest.raises(ValueError, match="distinct"):
            build()


def _spec(cls):
    """(name, type, default, init, compare, repr) of each of cls's fields, the
    default as its repr or "MISSING"."""
    return [[f.name, f.type, "MISSING" if f.default is dataclasses.MISSING else repr(f.default),
             f.init, f.compare, f.repr] for f in dataclasses.fields(cls)]


def _eager_spec(cls):
    """`_spec` of cls, or of the value class it subclasses, when its class
    statement runs with ``dataclass`` registering the fields at once."""
    while "__dataclass_fields__" not in vars(cls):
        cls = cls.__base__
    module = sys.modules[cls.__module__]
    namespace = dict(
        vars(module),
        _frozen=lambda c: dataclasses.dataclass(c, init=False, repr=False, eq=False),
        _Latch=lambda default: dataclasses.field(default=default, init=False, compare=False))
    code = compile(inspect.getsource(cls), module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return _spec(namespace[cls.__name__])


# the first read, as `result = ...`, of a fresh interpreter that has
# registered no fields yet, its result, and the classes it registers: never
# a subclass of a value class, which reads its base's fields
FIRST_READS = {
    "fields of a subclass instance": (
        "result = [f.name for f in dataclasses.fields(\n"
        "    FreeModuleElement.from_dict({(OpWord((0,), ()), 'x'): 2}))]",
        ["terms"], ["OpElement"]),
    "fields of a subclass": (
        "result = [f.name for f in dataclasses.fields(FdRightModule)]",
        ["inst", "dim", "action", "operators"], ["FdLeftModule"]),
    "replace of a verified instance": (
        "inst = catalog_instance('scaled_projection(1,2)')\n"
        "copy = dataclasses.replace(inst)\n"
        "try:\n"
        "    dataclasses.replace(inst, verified=True)\n"
        "    refused = None\n"
        "except ValueError as exc:\n"
        "    refused = str(exc)\n"
        "result = [inst.verified, copy.verified, copy == inst, refused]",
        [True, False, True,
         "field verified is declared with init=False, it cannot be specified with replace()"],
        ["MrbAlgebraInstance"]),
    "asdict": (
        "result = dataclasses.asdict(CheckReport('identity', (Violation('k', (0, 1)),)))",
        {"subject": "identity", "violations": [{"kind": "k", "where": [0, 1], "residual": None}]},
        ["CheckReport", "Violation"]),
    "is_dataclass": (
        "result = [dataclasses.is_dataclass(Token), dataclasses.is_dataclass(Matrix)]",
        [True, False], ["Token"]),
}

PROBE = """
import dataclasses, json, sys
from mrb import cli, core, linalg, modules, operated, opring, parser, tensor
from mrb.core import CheckReport, Violation, catalog_instance
from mrb.linalg import Matrix
from mrb.modules import FdRightModule
from mrb.opring import FreeModuleElement, OpWord
from mrb.parser import Token

classes = [c for layer in (core, linalg, modules, operated, opring, parser, tensor)
           for c in vars(layer).values() if isinstance(c, type)
           and c.__module__ == layer.__name__ and "__dataclass_fields__" in vars(c)]
docs = [c.__doc__ for c in classes]
assert not [c for c in classes if "__dataclass_params__" in vars(c)]
{first_read}
subclasses = [FdRightModule, FreeModuleElement]
registered = sorted(c.__name__ for c in classes + subclasses if "__dataclass_params__" in vars(c))
{spec}
specs = {{c.__name__: _spec(c) for c in classes + subclasses}}
print(json.dumps({{"result": result, "registered": registered, "specs": specs,
                  "docs kept": [c.__doc__ for c in classes] == docs}}))
"""


@pytest.mark.parametrize("case", FIRST_READS)
def test_the_first_read_of_the_fields_registers_them_as_dataclass_would(case):
    first_read, result, registered = FIRST_READS[case]
    probe = PROBE.format(first_read=first_read, spec=inspect.getsource(_spec))
    env = dict(os.environ, PYTHONPATH=str(Path(linalg.__file__).resolve().parent.parent))
    out = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                    text=True, check=True).stdout)
    assert (out["result"], out["registered"]) == (result, registered)
    assert out["docs kept"]
    classes = [*value_classes(), modules.FdRightModule, FreeModuleElement]
    assert out["specs"] == {cls.__name__: _eager_spec(cls) for cls in classes}
