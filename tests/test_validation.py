"""Constructor and precondition error paths across the package."""

from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest

from mrb.core import (
    AlgebraPresentation,
    MalformedPresentationError,
    MrbAlgebraInstance,
    OperatorFamily,
    PreconditionError,
    ReweightSpec,
    WeightFamily,
    componentwise_algebra,
    instance_from_json,
    scaled_projection,
    trivial_instance,
)
from mrb.linalg import Matrix, Subspace, _frozen, quotient_space
from mrb.modules import (
    ArgumentError,
    FdBimodule,
    FdLeftModule,
    ModuleHom,
    direct_sum,
    hom_module,
    hom_space,
    module_hom,
    quotient_module,
    regular_bimodule,
    regular_left_module,
    regular_right_module,
    restricted_lift,
    restricted_free,
)
from mrb.operated import FreeOperatedModule
from mrb.opring import OperatorRing
from mrb.tensor import adjunction_check, tensor_left_structure, tensor_product, tensor_right_structure


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_matrix_shape_mismatches():
    with pytest.raises(ValueError):
        Matrix.identity(2) + Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix.identity(2).apply((1, 2, 3))
    with pytest.raises(ValueError):
        Matrix.identity(2).solve((1, 2, 3))


def test_subspace_vector_length_checks():
    with pytest.raises(ValueError):
        Subspace(2, ((Fraction(1),),))
    sub = Subspace.spanned_by(2, [(Fraction(1), Fraction(0))])
    with pytest.raises(ValueError):
        sub.contains((1, 2, 3))


def test_quotient_space_relation_lengths():
    with pytest.raises(ValueError):
        quotient_space(2, [(Fraction(1),)])


def test_operator_family_validation():
    with pytest.raises(ValueError):
        OperatorFamily(("1", "1"), (Matrix.zero(1, 1), Matrix.zero(1, 1)))
    with pytest.raises(ValueError):
        OperatorFamily(("1", "2"), (Matrix.zero(1, 1),))
    with pytest.raises(ValueError):
        WeightFamily(("1",), ())


def test_instance_label_and_shape_validation():
    alg = componentwise_algebra(2)
    ops = OperatorFamily(("1",), (Matrix.zero(2, 2),))
    weights = WeightFamily(("2",), (Fraction(0),))
    with pytest.raises(ValueError):
        MrbAlgebraInstance(alg, ops, weights)
    bad_ops = OperatorFamily(("1",), (Matrix.zero(3, 3),))
    with pytest.raises(MalformedPresentationError):
        MrbAlgebraInstance(alg, bad_ops, WeightFamily(("1",), (Fraction(0),)))


def test_instance_from_json_missing_keys():
    with pytest.raises(MalformedPresentationError):
        instance_from_json({"dim": 1})


def test_reweight_spec_duplicate_labels():
    inst = scaled_projection((1,))
    from mrb.core import reweight
    spec = ReweightSpec((("a", (("1", Fraction(1)),)), ("a", (("1", Fraction(2)),))))
    with pytest.raises(ValueError):
        reweight(inst, spec)


def test_module_shape_validation():
    inst = scaled_projection((1,))
    reg = regular_left_module(inst)
    with pytest.raises(MalformedPresentationError):
        FdLeftModule(inst, 2, reg.action, (Matrix.zero(3, 3),))
    with pytest.raises(MalformedPresentationError):
        FdLeftModule(inst, 3, reg.action, reg.operators)


def test_module_hom_validation():
    inst = scaled_projection((1,))
    other = trivial_instance(2, 1)
    from mrb.core import check_mrb_identity
    check_mrb_identity(other)
    reg = regular_left_module(inst)
    reg_r = regular_right_module(inst)
    with pytest.raises(ValueError):
        ModuleHom(reg, reg_r, Matrix.identity(2))
    with pytest.raises(ValueError):
        ModuleHom(reg, regular_left_module(other), Matrix.identity(2))
    with pytest.raises(ValueError):
        ModuleHom(reg, reg, Matrix.zero(3, 2))
    with pytest.raises(ValueError):
        module_hom(reg, reg, Matrix([[0, 1], [1, 0]]))  # not an intertwiner


def test_bimodule_requires_shared_labels_and_weights():
    a = scaled_projection((1,))
    b = scaled_projection((2,))
    reg = regular_left_module(a)
    with pytest.raises(MalformedPresentationError):
        FdBimodule(reg, replace(regular_right_module(a), inst=b,
                                operators=b.operators.matrices))


def test_bimodule_parts_must_share_one_dimension():
    inst = scaled_projection((1, 2))
    reg_r = regular_right_module(inst)
    with pytest.raises(MalformedPresentationError):
        FdBimodule(regular_left_module(inst), direct_sum([reg_r, reg_r]).module)


def test_quotient_wrong_ambient():
    inst = scaled_projection((1,))
    reg = regular_left_module(inst)
    with pytest.raises(ValueError):
        quotient_module(reg, Subspace.spanned_by(3, [(Fraction(1), Fraction(0), Fraction(0))]))


def test_restricted_helpers_validation():
    inst = scaled_projection((1,))
    with pytest.raises(ValueError):
        restricted_free(inst, ["x", "x"])
    free = restricted_free(inst, ["x"])
    reg = regular_left_module(inst)
    with pytest.raises(ValueError):
        restricted_lift(free, [[1, 0], [0, 1]], reg)  # too many images


def test_hom_space_side_and_instance_checks():
    inst = scaled_projection((1,))
    with pytest.raises(ValueError):
        hom_space(regular_left_module(inst), regular_right_module(inst))


def test_tensor_side_checks():
    inst = scaled_projection((1,))
    reg = regular_left_module(inst)
    with pytest.raises(ValueError):
        tensor_product(reg, reg)


def test_opring_word_validation():
    ring = OperatorRing(scaled_projection((1,)))
    with pytest.raises(ValueError):
        ring.word((9,), ())
    with pytest.raises(KeyError):
        ring.word((0, 0), ("zzz",))
    with pytest.raises(ValueError):
        ring.word_element([(1, 0)], ["1"])
    with pytest.raises(ValueError):
        ring.word_element([(1, 0, 0)], [])
    with pytest.raises(ValueError):
        ring.rewrite_at(ring.word((0, 0), ("1",)), 1)
    with pytest.raises(ValueError):
        ring.truncated_quotient_oracle(-1)
    with pytest.raises(ValueError):
        ring.ideal_contains(ring.element((0, 0, 0), ("1", "1")), 1)


def test_algebra_unit_length_check():
    with pytest.raises(MalformedPresentationError):
        AlgebraPresentation(2, ("a", "b"),
                            componentwise_algebra(2).structure_constants,
                            (Fraction(1),))


# -- one case per input check that no other test reaches -----------------------

@cache
def sp(*c):
    return scaled_projection(c)


def reg(*c):
    return regular_left_module(sp(*c))


def reg_r(*c):
    return regular_right_module(sp(*c))


def _bad_field_order():
    @_frozen
    class Bad:
        """A field without a default after one with a default."""

        a: int = 0
        b: int


def _line_module():
    # dim 1 over scaled_projection(1): not of restricted free shape, as d = 2
    return FdLeftModule(sp(1), 1, (((Fraction(0),),), ((Fraction(1),),)), (Matrix.zero(1, 1),))


def _unit_sc():
    return componentwise_algebra(2).structure_constants


INPUT_CHECKS = {
    "core-basis-labels": (lambda: AlgebraPresentation(2, ("a", "a"), _unit_sc(), (1, 1)),
                          MalformedPresentationError,
                          "basis labels must be distinct and match dim"),
    "core-structure-row-shape": (
        lambda: AlgebraPresentation(2, ("a", "b"), (_unit_sc()[0], _unit_sc()[1][:1]), (1, 1)),
        MalformedPresentationError, "structure constant array has wrong shape"),
    "core-operator-label": (lambda: sp(1, 2).p_matrix("9"), KeyError,
                            "unknown operator label '9'"),
    "core-weight-label": (lambda: sp(1, 2).weight("9"), KeyError, "unknown weight label '9'"),
    "linalg-frozen-field-order": (_bad_field_order, TypeError,
                                  "_bad_field_order.<locals>.Bad: a field without a default "
                                  "follows one with a default"),
    "linalg-spanned-by-length": (lambda: Subspace.spanned_by(2, [(1, 2, 3)]), ValueError,
                                 "basis vector has wrong length"),
    "linalg-relation-column": (lambda: quotient_space(2, [{2: Fraction(1)}]), ValueError,
                               "relation row has a column out of range"),
    "modules-action-first-dimension": (
        lambda: FdLeftModule(sp(1), 2, reg(1).action[:1], reg(1).operators),
        MalformedPresentationError, "action tensor has wrong first dimension"),
    "modules-operator-count": (lambda: FdLeftModule(sp(1, 2), 2, reg(1, 2).action, ()),
                               MalformedPresentationError,
                               "one operator matrix per label required"),
    "modules-bimodule-labels": (lambda: FdBimodule(reg(1), reg_r(1, 2)),
                                MalformedPresentationError,
                                "bimodule instances must share operator labels"),
    "modules-empty-direct-sum": (lambda: direct_sum([]), ArgumentError,
                                 "an instance is required for the empty direct sum"),
    "modules-restricted-lift-instance": (
        lambda: restricted_lift(restricted_free(sp(1), ["x"]), [(1, 0)], reg(1, 2)), ValueError,
        "target lives over a different instance"),
    "modules-restricted-lift-shape": (lambda: restricted_lift(_line_module(), [(1,)], reg(1)),
                                      ValueError, "module is not of restricted free shape"),
    "modules-hom-space-instances": (lambda: hom_space(reg(1), reg(1, 2)), ArgumentError,
                                    "hom space requires modules over the same instance"),
    "modules-hom-module-variant": (lambda: hom_module(reg(1), regular_bimodule(sp(1)), "e"),
                                   ValueError, "variant must be one of a, b, c, d"),
    "operated-lift-instance": (
        lambda: FreeOperatedModule(sp(1), ["x"]).lift({"x": (1, 0)}, reg(1, 2)), ValueError,
        "target lives over a different instance"),
    "operated-lift-image-dimension": (
        lambda: FreeOperatedModule(sp(1), ["x"]).lift({"x": (1, 0, 0)}, reg(1)), ValueError,
        "generator image has wrong dimension"),
    "tensor-left-structure-factor": (
        lambda: tensor_left_structure(regular_bimodule(sp(1)), tensor_product(
            direct_sum([reg_r(1), reg_r(1)]).module, reg(1))),
        PreconditionError, "bimodule right part must be the tensor's M factor"),
    "tensor-right-structure-factor": (
        lambda: tensor_right_structure(tensor_product(
            reg_r(1), direct_sum([reg(1), reg(1)]).module), regular_bimodule(sp(1))),
        PreconditionError, "bimodule left part must be the tensor's N factor"),
    "tensor-adjunction-t": (lambda: adjunction_check(reg_r(1), regular_bimodule(sp(1)), reg(1)),
                            ArgumentError,
                            "T must be a right module over the bimodule's right instance"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_each_input_check_raises_its_error(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert err.value.args == (message,)
