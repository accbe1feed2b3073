"""Constructor and precondition error paths across the package."""

from dataclasses import replace
from fractions import Fraction

import pytest

from mrb.core import (
    AlgebraPresentation,
    MalformedPresentationError,
    MrbAlgebraInstance,
    OperatorFamily,
    ReweightSpec,
    WeightFamily,
    componentwise_algebra,
    instance_from_json,
    scaled_projection,
    trivial_instance,
)
from mrb.linalg import Matrix, Subspace, quotient_space
from mrb.modules import (
    FdBimodule,
    FdLeftModule,
    ModuleHom,
    direct_sum,
    hom_space,
    module_hom,
    quotient_module,
    regular_left_module,
    regular_right_module,
    restricted_lift,
    restricted_free,
)
from mrb.opring import OperatorRing
from mrb.tensor import tensor_product


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
