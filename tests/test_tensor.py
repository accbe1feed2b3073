import random
from fractions import Fraction

import pytest

from mrb import modules, tensor
from mrb.core import check_mrb_identity, scaled_projection, trivial_instance
from mrb.linalg import Matrix, QuotientSpace, Subspace
from mrb.modules import (
    FdLeftModule,
    FdRightModule,
    check_bimodule,
    check_left_module,
    check_right_module,
    direct_sum,
    hom_space,
    module_hom,
    module_to_json,
    quotient_module,
    regular_bimodule,
    regular_left_module,
    regular_right_module,
    restricted_free,
    zero_module,
)
from mrb.tensor import (
    TensorSpace,
    adjunction_check,
    bilinearity_report,
    direct_sum_tensor_check,
    flatness_probe,
    induced_map,
    tensor_left_structure,
    tensor_preserves_injection,
    tensor_product,
    tensor_right_structure,
    tensor_unit_check,
)


@pytest.fixture(scope="module")
def sp12():
    return scaled_projection((1, 2))


@pytest.fixture(scope="module")
def reg(sp12):
    return regular_left_module(sp12)


@pytest.fixture(scope="module")
def reg_r(sp12):
    return regular_right_module(sp12)


@pytest.fixture(scope="module")
def triv22():
    inst = trivial_instance(2, 2)
    check_mrb_identity(inst)
    return inst


def sub_left_module(inst, reg_mod):
    """span{e2} as a left module with the induced structure."""
    action = tuple(
        tuple(
            (reg_mod.action_matrix(inst.algebra.basis_vector(i)).apply((0, 1))[1],)
            for _ in range(1)
        )
        for i in range(inst.dim)
    )
    ops = tuple(Matrix([[m.entries[1][1]]]) for m in reg_mod.operators)
    return FdLeftModule(inst, 1, action, ops)


# -- tensor product ---------------------------------------------------------------

def test_tensor_with_zero_module(sp12, reg_r):
    z = zero_module(sp12, "left")
    t = tensor_product(reg_r, z)
    assert t.dim == 0


def test_tensor_regular_pair_dimension_two(reg_r, reg):
    t = tensor_product(reg_r, reg)
    assert t.ambient_dim == 4
    assert t.dim == 2
    assert bilinearity_report(t).ok


def test_bilinearity_names_every_relation_a_projection_fails_to_kill(reg_r, reg):
    # the identity as project, every column free: each nonzero relation of
    # the regular pair is a balancing violation whose residual is the
    # relation itself; the additive families hold, as zeta is linear
    t = tensor_product(reg_r, reg)
    unquotiented = TensorSpace(reg_r, reg, QuotientSpace(4, 4, Matrix.identity(4), (0, 1, 2, 3)),
                               t.relations)
    rep = bilinearity_report(unquotiented)
    assert not rep.ok
    assert [(v.kind, v.where) for v in rep.violations] == [
        ("balancing", (i,)) for i in (1, 2, 5, 6, 9, 10, 13, 14)]
    assert [v.residual for v in rep.violations] == [
        (0, 1, 0, 0), (0, 0, -1, 0), (0, -1, 0, 0), (0, 0, 1, 0),
        (0, 1, 0, 0), (0, 0, -1, 0), (0, 2, 0, 0), (0, 0, -2, 0)]


def test_tensor_trivial_instance_regular_pair(triv22):
    m = regular_right_module(triv22)
    n = regular_left_module(triv22)
    t = tensor_product(m, n)
    # operator relations are zero on both sides; only action balancing cuts
    assert bilinearity_report(t).ok
    assert t.dim == 2


def _kron_relations(m, n):
    """Reference relation list: the columns of A (x) I - I (x) B over the
    pairs (A, B), first the basis actions in basis order, then the operators."""
    alg = m.inst.algebra
    pairs = [(m.action_matrix(alg.basis_vector(i)), n.action_matrix(alg.basis_vector(i)))
             for i in range(alg.dim)]
    pairs += list(zip(m.operators, n.operators))
    idm, idn = Matrix.identity(m.dim), Matrix.identity(n.dim)
    out = []
    for a, b in pairs:
        diff = a.kron(idn) - idm.kron(b)
        out += [diff.col(j) for j in range(diff.cols)]
    return tuple(out)


def _dense_relations(t):
    """The sparse relation rows of t as dense vectors, after checking that
    they hold no explicit zero."""
    assert all(all(rel.values()) for rel in t.relations)
    return tuple(tuple(rel.get(c, Fraction(0)) for c in range(t.ambient_dim))
                 for rel in t.relations)


@pytest.mark.parametrize(
    "name", ["scaled_projection(1,2)", "scaled_projection(2,3,5)", "upper_triangular(1,2)"]
)
def test_relations_are_kronecker_columns(instances, name):
    inst = instances[name]
    m, n = regular_right_module(inst), regular_left_module(inst)
    assert _dense_relations(tensor_product(m, n)) == _kron_relations(m, n)


def test_relations_are_kronecker_columns_in_a_permuted_basis(instances, permuted):
    inst = instances["upper_triangular(1,2)"]
    two = direct_sum([regular_right_module(inst)] * 2).module
    perm = list(range(two.dim))
    random.Random(6).shuffle(perm)
    m, n = permuted(two, perm), regular_left_module(inst)
    assert _dense_relations(tensor_product(m, n)) == _kron_relations(m, n)


def test_tensor_requires_matching_instance(reg_r, triv22):
    other = regular_left_module(triv22)
    with pytest.raises(ValueError):
        tensor_product(reg_r, other)


def test_zeta_balances_action_and_operators(reg_r, reg, sp12):
    t = tensor_product(reg_r, reg)
    rng = random.Random(4)
    for _ in range(20):
        m = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        n = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        r = tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
        mr = reg_r.action_matrix(r).apply(m)
        rn = reg.action_matrix(r).apply(n)
        assert t.zeta(mr, n) == t.zeta(m, rn)
        for w in sp12.omega:
            assert t.zeta(reg_r.operator(w).apply(m), n) == t.zeta(m, reg.operator(w).apply(n))


# -- induced maps ------------------------------------------------------------------

def test_induced_identity_and_zero(reg_r, reg):
    t = tensor_product(reg_r, reg)
    ident = module_hom(reg, reg, Matrix.identity(2))
    assert induced_map(t, t, ident) == Matrix.identity(t.dim)
    zero = module_hom(reg, reg, Matrix.zero(2, 2))
    assert induced_map(t, t, zero).is_zero()


def test_induced_additive_and_functorial(reg_r, reg):
    t = tensor_product(reg_r, reg)
    basis = hom_space(reg, reg)
    rng = random.Random(9)
    for _ in range(10):
        def rand_hom():
            m = Matrix.zero(2, 2)
            for b in basis:
                m = m + b.scale(Fraction(rng.randint(-2, 2)))
            return module_hom(reg, reg, m)
        f, g = rand_hom(), rand_hom()
        s = module_hom(reg, reg, f.matrix + g.matrix)
        comp = module_hom(reg, reg, f.matrix @ g.matrix)
        assert induced_map(t, t, s) == induced_map(t, t, f) + induced_map(t, t, g)
        assert induced_map(t, t, comp) == induced_map(t, t, f) @ induced_map(t, t, g)


def test_induced_map_reads_the_factor_off_the_hom(sp12, reg_r, reg):
    # a hom of right modules induces theta (x) id, one of left modules id (x) theta
    t = tensor_product(reg_r, reg)
    units = [(1, 0), (0, 1)]
    for f in hom_space(reg_r, reg_r):
        right = induced_map(t, t, module_hom(reg_r, reg_r, f))
        left = induced_map(t, t, module_hom(reg, reg, f))
        for m in units:
            for n in units:
                assert right.apply(t.zeta(m, n)) == t.zeta(f.apply(m), n)
                assert left.apply(t.zeta(m, n)) == t.zeta(m, f.apply(n))
    other = tensor_product(reg_r, direct_sum([reg, reg]).module)
    with pytest.raises(ValueError, match="theta must map the left-module factors"):
        induced_map(t, other, module_hom(reg, reg, Matrix.identity(2)))
    with pytest.raises(ValueError, match="the fixed factor must agree"):
        induced_map(t, other, module_hom(reg_r, reg_r, Matrix.identity(2)))


# -- module structures on tensors -----------------------------------------------------

def test_tensor_left_structure_regular(sp12, reg, sp12_regular_doc):
    bm = regular_bimodule(sp12)
    t = tensor_product(bm.right, reg)
    out = tensor_left_structure(bm, t)
    assert out.dim == 2
    assert check_left_module(out).ok
    assert module_to_json(out) == sp12_regular_doc("left")


def test_tensor_right_structure_regular(sp12, reg_r, sp12_regular_doc):
    bm = regular_bimodule(sp12)
    t = tensor_product(reg_r, bm.left)
    out = tensor_right_structure(t, bm)
    assert out.dim == 2
    assert check_right_module(out).ok
    assert module_to_json(out) == sp12_regular_doc("right")


def test_tensor_structure_zero_space(sp12, reg_r):
    bm = regular_bimodule(sp12)
    z = zero_module(sp12, "left")
    t = tensor_product(bm.right, z)
    out = tensor_left_structure(bm, t)
    assert out.dim == 0
    assert check_left_module(out).ok


# -- adjunction --------------------------------------------------------------------------

def test_adjunction_regular_triple(sp12, reg_r):
    bm = regular_bimodule(sp12)
    rep = adjunction_check(reg_r, bm, reg_r)
    assert rep.ok
    assert rep.dim_hom_tensor == rep.dim_hom_hom == 2


def test_adjunction_checks_the_bimodule_once(sp12, reg_r, monkeypatch):
    calls = []

    def counted(bm):
        calls.append(bm)
        return check_bimodule(bm)

    monkeypatch.setattr(modules, "check_bimodule", counted)
    # also catches a future direct import of the checker into tensor
    monkeypatch.setattr(tensor, "check_bimodule", counted, raising=False)
    assert adjunction_check(reg_r, regular_bimodule(sp12), reg_r).ok
    assert len(calls) == 1


def test_adjunction_eliminates_once_per_batch(rref_calls):
    # the tensor quotient 1, hom module "d" 1 + 1 for its induced maps, the
    # three hom spaces 3, theta 2 and theta' 1
    inst = scaled_projection((2, 3, 5))
    m = direct_sum([regular_right_module(inst)] * 3).module
    assert adjunction_check(m, regular_bimodule(inst), regular_right_module(inst)).ok
    assert len(rref_calls) == 9


def test_adjunction_zero_target(sp12, reg_r):
    bm = regular_bimodule(sp12)
    z = zero_module(sp12, "right")
    rep = adjunction_check(reg_r, bm, z)
    assert rep.ok
    assert rep.dim_hom_tensor == 0


def test_adjunction_zero_source(sp12, reg_r):
    bm = regular_bimodule(sp12)
    z = zero_module(sp12, "right")
    rep = adjunction_check(z, bm, reg_r)
    assert rep.ok
    assert rep.dim_hom_tensor == 0


# -- tensor unit -------------------------------------------------------------------------

def test_tensor_unit_zero_module(sp12):
    z = zero_module(sp12, "right")
    rep = tensor_unit_check(z)
    assert rep.isomorphism


def test_tensor_unit_regular_scaled(reg_r):
    rep = tensor_unit_check(reg_r)
    assert rep.tensor_dim == 2
    assert rep.isomorphism


def test_tensor_unit_non_iso_recorded(sp12, reg_r):
    # a right module with zero operators over a nonzero-weight instance:
    # the operator relations collapse m (x) r = 0 whenever P_w(r) enters,
    # and the evaluation map can fail to factor; the report records it
    mod = FdRightModule(sp12, 2, reg_r.action, (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    assert check_right_module(mod).ok  # zero family always satisfies Eq (b)
    rep = tensor_unit_check(mod)
    assert not rep.isomorphism


# -- flatness ----------------------------------------------------------------------------

def test_flatness_zero_module_preserves_everything(sp12, reg):
    z = zero_module(sp12, "right")
    sub = sub_left_module(sp12, reg)
    inc = module_hom(sub, reg, Matrix([[0], [1]]))
    rep = flatness_probe(z, [inc])
    assert rep.all_preserved


def test_flatness_regular_right_module(sp12, reg, reg_r):
    sub = sub_left_module(sp12, reg)
    inc = module_hom(sub, reg, Matrix([[0], [1]]))
    rep = flatness_probe(reg_r, [inc], names=["sub-e2"])
    assert rep.probes[0].verdict == "preserved"
    assert rep.probes[0].name == "sub-e2"


def test_flatness_direct_sum_conjunction(sp12, reg, reg_r):
    sub = sub_left_module(sp12, reg)
    inc = module_hom(sub, reg, Matrix([[0], [1]]))
    probes = [inc]
    ds = direct_sum([reg_r, reg_r])
    rep_sum = flatness_probe(ds.module, probes)
    rep_parts = [flatness_probe(reg_r, probes), flatness_probe(reg_r, probes)]
    for k in range(len(probes)):
        assert (rep_sum.probes[k].verdict == "preserved") == all(
            r.probes[k].verdict == "preserved" for r in rep_parts
        )


def test_restricted_free_preserves_injections(sp12, reg_r):
    # left-module flatness surrogate: tensoring right-module injections with
    # a restricted free module keeps them injective
    f = restricted_free(sp12, ["x", "y"])
    sub_r = FdRightModule(
        sp12, 1,
        tuple(((reg_r.action_matrix(sp12.algebra.basis_vector(i)).apply((0, 1))[1],),)
              for i in range(2)),
        tuple(Matrix([[m.entries[1][1]]]) for m in reg_r.operators),
    )
    assert check_right_module(sub_r).ok
    inc = module_hom(sub_r, reg_r, Matrix([[0], [1]]))
    probe = tensor_preserves_injection(f, inc, "right-sub-e2")
    assert probe.verdict == "preserved"


def test_flatness_broken_with_witness():
    # over the triangular instance the zero-operator quotient R/span{t12}
    # is not flat: tensoring with the inclusion span{t12} -> R kills the
    # one-dimensional source, the classical nilpotent collapse
    from mrb.core import upper_triangular_instance
    from mrb.modules import quotient_module

    inst = upper_triangular_instance((1, 2))
    reg_l = regular_left_module(inst)
    m0 = FdRightModule(inst, 3, regular_right_module(inst).action,
                       (Matrix.zero(3, 3), Matrix.zero(3, 3)))
    qr = quotient_module(m0, Subspace.spanned_by(3, [(Fraction(0), Fraction(1), Fraction(0))]))
    sub_action = tuple(
        ((reg_l.action_matrix(inst.algebra.basis_vector(i)).apply((0, 1, 0))[1],),)
        for i in range(3)
    )
    sub = FdLeftModule(inst, 1, sub_action, (Matrix.zero(1, 1), Matrix.zero(1, 1)))
    inc = module_hom(sub, reg_l, Matrix([[0], [1], [0]]))
    probe = tensor_preserves_injection(qr, inc, "sub-t12")
    assert probe.verdict == "broken"
    assert probe.witness is not None
    doc = probe.to_json()
    assert doc["verdict"] == "broken"
    assert doc["witness"] == [str(x) for x in probe.witness]
    assert doc == {"probe": "sub-t12", "dims": probe.dims, "verdict": "broken",
                   "witness": ["1"]}
    # the parent module with the same structure but no quotient stays exact
    assert tensor_preserves_injection(m0, inc).verdict == "preserved"


def test_injection_precondition(sp12, reg, reg_r):
    collapse = module_hom(reg, reg, Matrix([[1, 0], [0, 0]]))
    from mrb.core import PreconditionError
    with pytest.raises(PreconditionError):
        tensor_preserves_injection(reg_r, collapse)


# -- direct sum against tensor --------------------------------------------------------------

def test_direct_sum_tensor_single_part(reg_r, reg):
    rep = direct_sum_tensor_check(reg_r, [reg])
    assert rep.ok


def test_direct_sum_tensor_two_parts(reg_r, reg):
    rep = direct_sum_tensor_check(reg_r, [reg, reg])
    assert rep.ok
    assert rep.sum_dim == sum(rep.part_dims) == 4


def test_direct_sum_tensor_empty(reg_r):
    rep = direct_sum_tensor_check(reg_r, [])
    assert rep.ok
    assert rep.sum_dim == 0


def test_direct_sum_tensor_mixed_parts(sp12, reg_r, reg):
    q = quotient_module(reg, Subspace.spanned_by(2, [(Fraction(0), Fraction(1))]))
    rep = direct_sum_tensor_check(reg_r, [reg, q])
    assert rep.ok
    assert rep.sum_dim == sum(rep.part_dims)
