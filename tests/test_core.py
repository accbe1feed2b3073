import gc
import json
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from mrb import core
from mrb.core import (
    _CATALOG_NAMES,
    AlgebraPresentation,
    MalformedPresentationError,
    MrbAlgebraInstance,
    OperatorFamily,
    PreconditionError,
    ReweightSpec,
    WeightFamily,
    catalog_instance,
    check_mrb_identity,
    check_presentation,
    componentwise_algebra,
    instance_from_json,
    instance_to_json,
    reweight,
    scaled_projection,
    trivial_instance,
    upper_triangular_algebra,
    upper_triangular_instance,
)
from mrb.linalg import Matrix


def one_dim_algebra():
    return AlgebraPresentation(1, ("e1",), (((Fraction(1),),),), (Fraction(1),))


def test_one_dim_presentation_valid():
    assert check_presentation(one_dim_algebra()).ok


def test_componentwise_presentation_valid():
    assert check_presentation(componentwise_algebra(2)).ok


def test_wrong_unit_reported():
    alg = componentwise_algebra(2)
    broken = AlgebraPresentation(2, alg.basis_labels, alg.structure_constants,
                                 (Fraction(1), Fraction(0)))
    report = check_presentation(broken)
    assert not report.ok
    # (1,0) . e2 = 0 != e2
    kinds = {(v.kind, v.where) for v in report.violations}
    assert ("unit-left", (1,)) in kinds


def test_malformed_shapes_rejected():
    with pytest.raises(MalformedPresentationError):
        AlgebraPresentation(2, ("a", "b"), (((Fraction(1),),),), (Fraction(1), Fraction(0)))


def test_non_associative_reported():
    # a*a = b, b*a = a gives (a*a)*a = a but a*(a*a) = 0
    sc = (
        ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
    )
    alg = AlgebraPresentation(2, ("a", "b"), sc, (Fraction(0), Fraction(0)))
    report = check_presentation(alg)
    assert any(v.kind == "associativity" and v.where == (0, 0, 0)
               for v in report.violations)


def test_trivial_instance_passes():
    inst = trivial_instance(2, 2)
    assert check_mrb_identity(inst).ok
    assert inst.verified


def test_scaled_projection_values():
    inst = scaled_projection((1, 2))
    assert [str(w) for w in inst.weights.values] == ["-1/2", "-1"]
    alg = inst.algebra
    e1 = alg.basis_vector(0)
    # spot value: P1(e1) P2(e1) = 2 e1 and the identity's right side agrees
    lhs = alg.multiply(inst.apply_operator("1", e1), inst.apply_operator("2", e1))
    assert lhs == (Fraction(2), Fraction(0))
    rhs = inst.apply_operator("1", alg.multiply(e1, inst.apply_operator("2", e1)))
    rhs = tuple(a + b for a, b in zip(rhs, inst.apply_operator("2", alg.multiply(inst.apply_operator("1", e1), e1))))
    rhs = tuple(a + inst.weight("2") * p1 + inst.weight("1") * p2
                for a, p1, p2 in zip(rhs, inst.apply_operator("1", e1), inst.apply_operator("2", e1)))
    assert lhs == rhs


def test_scaled_projection_rejects_zero():
    with pytest.raises(ValueError):
        scaled_projection((0,))
    with pytest.raises(ValueError):
        scaled_projection(())


def test_mis_weighted_variant_fails_at_reported_pair():
    inst = scaled_projection((1,))
    bad = MrbAlgebraInstance(
        inst.algebra, inst.operators, WeightFamily(("1",), (Fraction(-1),))
    )
    report = check_mrb_identity(bad)
    assert not report.ok
    v = report.violations[0]
    assert v.where == (0, 0, "1", "1")
    # LHS P(e1)P(e1) = e1; RHS collapses to 0 under the wrong weight
    assert v.residual == (Fraction(1), Fraction(0))


def test_check_mrb_requires_valid_presentation():
    alg = AlgebraPresentation(
        1, ("e1",), (((Fraction(1),),),), (Fraction(0),)  # unit fails
    )
    inst = MrbAlgebraInstance(
        alg, OperatorFamily(("1",), (Matrix.zero(1, 1),)), WeightFamily(("1",), (Fraction(0),))
    )
    with pytest.raises(PreconditionError):
        check_mrb_identity(inst)


def test_identity_check_builds_each_side_tables_once(monkeypatch):
    # a fresh algebra object, its labels renamed, so that neither its latch
    # nor a live verified instance equal to fresh decides the check
    inst = upper_triangular_instance((1, 2))
    alg = inst.algebra
    algebra = AlgebraPresentation(alg.dim, ("u11", "u12", "u22"), alg.structure_constants, alg.unit)
    fresh = MrbAlgebraInstance(algebra, inst.operators, inst.weights)
    sides = []
    build = core._regular_tables

    def counted(sc, left):
        sides.append("left" if left else "right")
        return build(sc, left)

    monkeypatch.setattr(core, "_regular_tables", counted)
    assert check_mrb_identity(fresh).ok
    assert sides == ["left", "right"]


def test_exhaustive_check_counts(instances):
    # bilinearity makes basis checking equivalent to the whole identity:
    # random non-basis pairs must have zero residual on verified instances
    rng = random.Random(7)
    inst = instances["scaled_projection(2,3,5)"]
    alg = inst.algebra
    for _ in range(25):
        x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(alg.dim))
        y = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(alg.dim))
        for a in inst.omega:
            for b in inst.omega:
                lhs = alg.multiply(inst.apply_operator(a, x), inst.apply_operator(b, y))
                rhs = inst.apply_operator(a, alg.multiply(x, inst.apply_operator(b, y)))
                rhs = tuple(s + t for s, t in zip(
                    rhs, inst.apply_operator(b, alg.multiply(inst.apply_operator(a, x), y))))
                prod = alg.multiply(x, y)
                rhs = tuple(s + inst.weight(b) * pa + inst.weight(a) * pb
                            for s, pa, pb in zip(rhs, inst.apply_operator(a, prod),
                                                 inst.apply_operator(b, prod)))
                assert lhs == rhs


def test_upper_triangular_instance_verified():
    inst = upper_triangular_instance((1, 2))
    assert inst.verified
    # genuinely noncommutative: t11 * t12 = t12 but t12 * t11 = 0
    alg = inst.algebra
    assert alg.multiply(alg.basis_vector(0), alg.basis_vector(1)) != \
        alg.multiply(alg.basis_vector(1), alg.basis_vector(0))
    assert check_presentation(upper_triangular_algebra()).ok


def test_reweight_identity_spec_is_noop():
    inst = scaled_projection((1, 2))
    spec = ReweightSpec.identity(inst.omega)
    out = reweight(inst, spec)
    assert out.operators == inst.operators
    assert out.weights == inst.weights


def test_reweight_combines_to_scaled_instance():
    inst = scaled_projection((1, 2))
    spec = ReweightSpec.from_dict({"1": {"1": 1, "2": 1}})
    out = reweight(inst, spec)
    expected = scaled_projection((3,))
    assert out.operators.matrices == expected.operators.matrices
    assert out.weights.values == expected.weights.values


def test_reweight_trivial_any_spec(instances):
    inst = instances["trivial(2,2)"]
    out = reweight(inst, ReweightSpec.from_dict({"a": {"1": 2, "2": -1}, "b": {"2": 3}}))
    assert out.omega == ("a", "b")
    assert all(m.is_zero() for m in out.operators.matrices)
    assert all(w == 0 for w in out.weights.values)


def test_reweight_rejects_empty_and_unverified():
    inst = scaled_projection((1,))
    with pytest.raises(ValueError):
        reweight(inst, ReweightSpec(()))
    fresh = MrbAlgebraInstance(inst.algebra, inst.operators, inst.weights)
    with pytest.raises(PreconditionError):
        reweight(fresh, ReweightSpec.identity(inst.omega))


def test_only_a_passing_check_sets_verified():
    inst = scaled_projection((1,))
    with pytest.raises(TypeError):
        MrbAlgebraInstance(inst.algebra, inst.operators, inst.weights, verified=True)
    fresh = MrbAlgebraInstance(inst.algebra, inst.operators, inst.weights)
    assert not fresh.verified
    assert check_mrb_identity(fresh).ok and fresh.verified


# -- the latches: a verdict decided once per value ---------------------------------

def _one_entry_perturbations(inst):
    """(operators, weights) of inst with one operator entry or one weight
    raised by 1, for every entry and every weight."""
    mats, values = inst.operators.matrices, inst.weights.values
    for a, m in enumerate(mats):
        for i in range(m.rows):
            for j in range(m.cols):
                rows = [list(row) for row in m.entries]
                rows[i][j] += 1
                changed = (*mats[:a], Matrix(rows), *mats[a + 1:])
                yield OperatorFamily(inst.omega, changed), inst.weights
    for a in range(len(values)):
        changed = (*values[:a], values[a] + 1, *values[a + 1:])
        yield inst.operators, WeightFamily(inst.omega, changed)


def _seeded_spec(inst, rng, rows=2):
    return ReweightSpec.from_dict({
        f"i{k}": {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in inst.omega}
        for k in range(rows)
    })


@pytest.mark.parametrize("name", _CATALOG_NAMES)
def test_a_perturbed_value_gets_the_verdict_of_a_check_on_fresh_objects(name, instances,
                                                                        monkeypatch):
    # beside its verified source, a perturbation shares the source's latched
    # algebra object; the reference check runs on a new algebra object with
    # no verified instance recorded
    inst = instances[name]
    for source in (inst, reweight(inst, _seeded_spec(inst, random.Random(name)))):
        alg = source.algebra
        assert source.verified and alg.verified and source in core._VERIFIED.values()
        for operators, weights in _one_entry_perturbations(source):
            latched = check_mrb_identity(MrbAlgebraInstance(alg, operators, weights))
            with monkeypatch.context() as patch:
                patch.setattr(core, "_VERIFIED", weakref.WeakValueDictionary())
                algebra = AlgebraPresentation(alg.dim, alg.basis_labels,
                                              alg.structure_constants, alg.unit)
                fresh = check_mrb_identity(MrbAlgebraInstance(algebra, operators, weights))
            assert latched == fresh


def test_the_axioms_weight_shift_is_rejected_beside_its_verified_source(instances):
    # the negative control of the reweighting benchmark: one weight of a
    # nonzero combined operator raised by 1, on the reweighted instance's
    # own algebra object, while that instance is alive and verified
    rng = random.Random(601)
    shifted = 0
    for inst in instances.values():
        out = reweight(inst, _seeded_spec(inst, rng, rows=3))
        for k, m in enumerate(out.operators.matrices):
            if m == Matrix.zero(m.rows, m.cols):
                continue
            values = out.weights.values
            weights = WeightFamily(out.omega, (*values[:k], values[k] + 1, *values[k + 1:]))
            control = MrbAlgebraInstance(out.algebra, out.operators, weights)
            report = check_mrb_identity(control)
            assert not report.ok and not control.verified
            assert any(any(v.residual) for v in report.violations)
            shifted += 1
    assert shifted > 0


def test_a_failing_presentation_is_never_latched():
    alg = componentwise_algebra(2)
    broken = AlgebraPresentation(2, alg.basis_labels, alg.structure_constants,
                                 (Fraction(1), Fraction(0)))
    inst = MrbAlgebraInstance(broken, OperatorFamily(("1",), (Matrix.zero(2, 2),)),
                              WeightFamily(("1",), (Fraction(0),)))
    for _ in range(3):
        assert not check_presentation(broken).ok
        with pytest.raises(PreconditionError):
            check_mrb_identity(inst)
        assert not broken.verified and not inst.verified


def test_an_instance_equal_to_a_collected_one_is_checked_in_full(monkeypatch):
    calls = []
    violations = core._axiom_violations

    def counted(*args):
        calls.append(args[0])
        return violations(*args)

    def build():
        # basis labels that no other instance uses, so nothing else is equal
        alg = AlgebraPresentation(1, ("collected",), (((Fraction(1),),),), (Fraction(1),))
        return MrbAlgebraInstance(alg, OperatorFamily(("1",), (Matrix([[-1]]),)),
                                  WeightFamily(("1",), (Fraction(1, 2),)))

    monkeypatch.setattr(core, "_axiom_violations", counted)
    first = build()
    assert check_mrb_identity(first).ok and len(calls) == 1
    twin = build()
    assert not twin.verified and twin in core._VERIFIED.values()
    assert check_mrb_identity(twin).ok and twin.verified and len(calls) == 1
    del first, twin
    gc.collect()
    again = build()
    assert again not in core._VERIFIED.values()
    assert check_mrb_identity(again).ok and again.verified and len(calls) == 2


def test_a_check_hashes_the_instance_once_and_a_shared_hash_decides_nothing(monkeypatch):
    # every instance gets one hash, so a verified instance and a failing one
    # collide in the record; only equality lets a recorded verdict through
    hashes = []

    def one_hash(inst):
        hashes.append(inst)
        return 0

    source = scaled_projection((1,))
    monkeypatch.setattr(MrbAlgebraInstance, "__hash__", one_hash)
    monkeypatch.setattr(core, "_VERIFIED", weakref.WeakValueDictionary())
    passing = MrbAlgebraInstance(source.algebra, source.operators, source.weights)
    assert check_mrb_identity(passing).ok and hashes == [passing]
    twin = MrbAlgebraInstance(source.algebra, source.operators, source.weights)
    assert check_mrb_identity(twin).ok and hashes == [passing, twin]
    shifted = WeightFamily(source.omega, (source.weights.values[0] + 1,))
    failing = MrbAlgebraInstance(source.algebra, source.operators, shifted)
    assert not check_mrb_identity(failing).ok and not failing.verified
    assert hashes == [passing, twin, failing]
    assert check_mrb_identity(passing).ok and len(hashes) == 3


def test_reweight_closure_random_specs(instances):
    rng = random.Random(11)
    for name in ("scaled_projection(1,2)", "upper_triangular(1,2)", "trivial(3,2)"):
        inst = instances[name]
        for _ in range(10):
            spec = ReweightSpec.from_dict({
                f"i{k}": {
                    w: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for w in inst.omega
                }
                for k in range(rng.randint(1, 3))
            })
            out = reweight(inst, spec)  # raises if the checker fails
            assert out.verified


def test_json_round_trip():
    inst = upper_triangular_instance((1, 2))
    doc = instance_to_json(inst)
    text = json.dumps(doc)
    back = instance_from_json(json.loads(text))
    assert back.algebra == inst.algebra
    assert back.operators == inst.operators
    assert back.weights == inst.weights
    # wire grammar for rationals
    assert doc["weights"]["1"] == "-1/2"


def test_catalog_instance_parser():
    inst = catalog_instance("scaled_projection(1,2)")
    assert inst.omega == ("1", "2")
    assert catalog_instance("trivial(2,3)").dim == 2
    with pytest.raises(KeyError):
        catalog_instance("nonsense(1)")


@pytest.mark.parametrize("name,count", [
    ("trivial(2000,1)", 2000 ** 3), ("trivial(1,1000000)", 10 ** 12),
    ("trivial(41,1)", 41 ** 3), ("trivial(1,253)", 253 ** 2), ("trivial(0,64001)", 64001)])
def test_a_trivial_instance_past_the_budget_is_refused_before_it_is_built(name, count):
    tracemalloc.start()
    with pytest.raises(ValueError) as err:
        catalog_instance(name)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert str(err.value) == (f"{name} asks for {count} structure constants, identity "
                              f"equations or labels; the budget is 64000")
    assert peak < 64 * 1024


def test_trivial_instances_at_the_budget_are_built_and_verified():
    # 40^3 structure constants, and 252^2 identity equations and 252 labels
    assert core._INSTANCE_BUDGET == 40 ** 3
    for name in ("trivial(40,1)", "trivial(1,252)"):
        assert catalog_instance(name).verified


def test_basis_vector_rejects_indices_outside_the_basis():
    alg = upper_triangular_algebra()
    assert alg.basis_vector(2) == (Fraction(0), Fraction(0), Fraction(1))
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"basis index {i} out of range"):
            alg.basis_vector(i)


# The catalog builders before the matrix-unit builder, kept as the reference
# the catalog's documents are pinned against: hand-written structure-constant
# loops and hand-written projection matrices.

def reference_componentwise_algebra(d):
    sc = tuple(tuple(tuple(Fraction(1 if i == j == k else 0) for k in range(d))
                     for j in range(d)) for i in range(d))
    return AlgebraPresentation(d, tuple(f"e{i + 1}" for i in range(d)), sc, (Fraction(1),) * d)


def reference_upper_triangular_algebra():
    labels = ("t11", "t12", "t22")
    table = {("t11", "t11"): "t11", ("t11", "t12"): "t12",
             ("t12", "t22"): "t12", ("t22", "t22"): "t22"}
    sc = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (a, b), c in table.items():
        sc[labels.index(a)][labels.index(b)][labels.index(c)] = Fraction(1)
    return AlgebraPresentation(3, labels, tuple(tuple(tuple(v) for v in row) for row in sc),
                               (Fraction(1), Fraction(0), Fraction(1)))


def reference_instance(name):
    kind, args = name.rstrip(")").split("(")
    args = [Fraction(a) for a in args.split(",")]
    if kind == "trivial":
        d, s = map(int, args)
        labels = tuple(str(i + 1) for i in range(s))
        return MrbAlgebraInstance(reference_componentwise_algebra(d),
                                  OperatorFamily(labels, (Matrix.zero(d, d),) * s),
                                  WeightFamily(labels, (Fraction(0),) * s))
    if kind == "scaled_projection":
        alg, proj = reference_componentwise_algebra(2), Matrix([[1, 0], [0, 0]])
    else:
        alg, proj = reference_upper_triangular_algebra(), Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    labels = tuple(str(i + 1) for i in range(len(args)))
    return MrbAlgebraInstance(alg, OperatorFamily(labels, tuple(proj.scale(c) for c in args)),
                              WeightFamily(labels, tuple(-c / 2 for c in args)))


@pytest.mark.parametrize("name", [*core._CATALOG_NAMES, "trivial(40,1)"])
def test_catalog_documents_match_the_hand_written_builders(name):
    inst = catalog_instance(name)
    assert inst.verified
    assert instance_to_json(inst) == instance_to_json(reference_instance(name))
    assert inst == reference_instance(name)


def test_the_matrix_unit_algebras_match_the_hand_written_ones():
    for d in (0, 1, 2, 3, 7):
        assert componentwise_algebra(d) == reference_componentwise_algebra(d)
    assert upper_triangular_algebra() == reference_upper_triangular_algebra()


def test_a_trivial_instance_of_negative_dimension_is_refused():
    for name in ("trivial(-5,3)", "trivial(-1,0)"):
        with pytest.raises(ValueError) as err:
            catalog_instance(name)
        assert str(err.value) == f"{name} asks for a negative dimension"


def test_a_trivial_instance_with_a_negative_number_of_labels_is_refused(monkeypatch):
    # refused before anything is built: trivial_instance is never called
    monkeypatch.setattr(core, "trivial_instance", None)
    for name in ("trivial(1,-2)", "trivial(0,-1)"):
        with pytest.raises(ValueError) as err:
            catalog_instance(name)
        assert str(err.value) == f"{name} asks for a negative number of labels"
