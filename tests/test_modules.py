import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from mrb.core import (
    _CATALOG_NAMES,
    PreconditionError,
    ReweightSpec,
    _sum_of,
    catalog_instance,
    check_mrb_identity,
    reweight,
    scaled_projection,
    trivial_instance,
    upper_triangular_instance,
)
from mrb.linalg import Matrix, Subspace, unit_vector
from mrb.modules import (
    ArgumentError,
    ClosureViolationError,
    FdBimodule,
    FdLeftModule,
    FdRightModule,
    check_action_laws,
    check_bimodule,
    check_left_module,
    check_right_module,
    direct_sum,
    hom_module,
    hom_space,
    hom_subspace,
    lift_through_epi,
    module_constants,
    module_from_json,
    module_hom,
    module_to_json,
    quotient_module,
    regular_bimodule,
    regular_left_module,
    regular_right_module,
    restricted_free,
    restricted_lift,
    reweight_module,
    submodule_closure_check,
    zero_module,
)
from mrb.modules import _coords_in, _from_maps
from mrb.tensor import tensor_left_structure, tensor_product
from test_kernel import _replace, _set


@pytest.fixture(scope="module")
def sp12():
    return scaled_projection((1, 2))


@pytest.fixture(scope="module")
def reg(sp12):
    return regular_left_module(sp12)


@pytest.fixture(scope="module")
def reg_r(sp12):
    return regular_right_module(sp12)


def perturb_operator(mod, label, i=0, j=0, amount=1):
    ops = list(mod.operators)
    k = mod.inst.omega.index(label)
    bumped = [list(r) for r in ops[k].entries]
    bumped[i][j] += amount
    ops[k] = Matrix(bumped)
    return type(mod)(mod.inst, mod.dim, mod.action, tuple(ops))


# -- checkers -------------------------------------------------------------------

def test_regular_left_module_passes(instances):
    for name, inst in instances.items():
        assert check_left_module(regular_left_module(inst)).ok, name


def test_regular_right_module_over_trivial_and_scaled(instances):
    # Eq (b) with m_w = P_w is not the algebra identity; it holds over the
    # trivial and scaled catalog entries but genuinely fails on the
    # noncommutative triangular instance (recorded finding)
    for name, inst in instances.items():
        report = check_right_module(regular_right_module(inst))
        if name.startswith("upper_triangular"):
            assert not report.ok, name
        else:
            assert report.ok, name
    # the full report on the triangular instance, where left and right differ
    report = check_right_module(regular_right_module(upper_triangular_instance((1, 2))))
    assert report.to_json() == {
        "ok": False,
        "subject": "right-module",
        "violations": [
            {"kind": "right-module", "residual": ["0", r, "0"], "where": [1, 0, a, b]}
            for r, a, b in (("1", "1", "1"), ("2", "1", "2"), ("2", "2", "1"), ("4", "2", "2"))
        ],
    }


def test_zero_operator_module_over_trivial_instance():
    inst = trivial_instance(2, 2)
    check_mrb_identity(inst)
    mod = FdLeftModule(inst, 2, regular_left_module(inst).action,
                       (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    assert check_left_module(mod).ok


def test_perturbed_operator_fails(reg):
    bad = perturb_operator(reg, "1")
    report = check_left_module(bad)
    assert not report.ok
    assert all(v.kind == "left-module" for v in report.violations)


def test_perturbed_right_module_fails(reg_r):
    bad = perturb_operator(reg_r, "2")
    report = check_right_module(bad)
    assert not report.ok
    assert report.to_json()["violations"] == [
        {"kind": "right-module", "residual": ["-1/2", "0"], "where": [0, 0, "1", "2"]},
        {"kind": "right-module", "residual": ["-1/2", "0"], "where": [0, 0, "2", "1"]},
        {"kind": "right-module", "residual": ["-3", "0"], "where": [0, 0, "2", "2"]},
    ]


def test_action_law_precondition(sp12):
    # break the unit action
    action = tuple(
        tuple((Fraction(0), Fraction(0)) for _ in range(2)) for _ in range(2)
    )
    broken = FdLeftModule(sp12, 2, action, sp12.operators.matrices)
    assert not check_action_laws(broken).ok
    with pytest.raises(PreconditionError):
        check_left_module(broken)


def test_regular_bimodule_over_commutative_instance(sp12):
    assert check_bimodule(regular_bimodule(sp12)).ok


def test_regular_bimodule_over_noncommutative_instance_reports():
    inst = upper_triangular_instance((1, 2))
    report = check_bimodule(regular_bimodule(inst))
    # left and right multiplications always commute (associativity), but the
    # projection family is not a map of right modules on the triangular
    # algebra, and the right axiom itself fails there
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "actions-commute" not in kinds
    assert "left-family-vs-right-action" in kinds
    assert "right-module" in kinds


def test_bimodule_noncommuting_operator_pair(sp12):
    bm = regular_bimodule(sp12)
    swapped = Matrix([[0, 1], [1, 0]])
    bad = FdBimodule(bm.left, replace(bm.right, operators=(swapped, bm.right.operators[1])))
    report = check_bimodule(bad)
    assert any(v.kind == "families-commute" for v in report.violations)


def test_bimodule_breaking_every_commutation_family():
    # over Q^2 with zero operators: the left action by the diagonal
    # idempotents and the right action by the idempotents P, 1 - P with
    # P = [[1, 1], [0, 0]] do not commute; each square-zero operator family
    # passes its own side's axiom but clashes with the other side
    inst = trivial_instance(2, 2)
    p, n, m = Matrix([[1, 1], [0, 0]]), Matrix([[0, 1], [0, 0]]), Matrix([[1, 1], [-1, -1]])
    left = _from_maps("left", inst, 2, [Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [0, 1]]),
                                        n, Matrix.zero(2, 2)])
    right = _from_maps("right", inst, 2, [p, Matrix.identity(2) - p, m, m])
    report = check_bimodule(FdBimodule(left, right))
    assert report.subject == "bimodule"
    assert [(v.kind, v.where) for v in report.violations] == [
        ("actions-commute", (0, 0)), ("actions-commute", (0, 1)),
        ("actions-commute", (1, 0)), ("actions-commute", (1, 1)),
        ("right-family-vs-left-action", ("1", 0)), ("right-family-vs-left-action", ("1", 1)),
        ("left-family-vs-right-action", ("1", 0)), ("left-family-vs-right-action", ("1", 1)),
        ("right-family-vs-left-action", ("2", 0)), ("right-family-vs-left-action", ("2", 1)),
        ("families-commute", ("1", "1")), ("families-commute", ("2", "1")),
    ]


def test_bimodule_zero_operators_pass(sp12):
    bm = regular_bimodule(sp12)
    z = Matrix.zero(2, 2)
    # replacing both families with zero keeps one-sided axioms failing or not?
    # zero operators satisfy both axioms only over zero-weight pairs, so use
    # the trivial instance here
    inst = trivial_instance(2, 2)
    check_mrb_identity(inst)
    bz = regular_bimodule(inst)
    assert check_bimodule(bz).ok
    assert z.is_zero()


# -- quotients -------------------------------------------------------------------

def test_quotient_by_zero_is_identity(reg):
    q = quotient_module(reg, Subspace.spanned_by(2, []))
    assert q.dim == reg.dim
    assert check_left_module(q).ok


def test_quotient_by_everything_is_zero(reg):
    full = Subspace.spanned_by(2, [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])
    q = quotient_module(reg, full)
    assert q.dim == 0


def test_quotient_spec_example(reg):
    # N = span{e2}: P(e2) = 0 and e_i e2 lie in N, quotient is 1-dimensional
    n = Subspace.spanned_by(2, [(Fraction(0), Fraction(1))])
    q, proj = quotient_module(reg, n, with_projection=True)
    assert q.dim == 1
    assert check_left_module(q).ok
    assert proj.is_surjective()


def test_quotient_closure_violation_names_generator(reg):
    # span{e1 + e2} is not closed: e1 . (e1+e2) = e1 outside the line
    n = Subspace.spanned_by(2, [(Fraction(1), Fraction(1))])
    with pytest.raises(ClosureViolationError) as err:
        quotient_module(reg, n)
    assert "e1" in str(err.value)


def test_quotient_closure_violation_names_operator(instances):
    # the unit acts as 1 and span{e2} is closed under it, but the operator
    # sends e2 to e1
    inst = instances["trivial(1,1)"]
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    mod = FdLeftModule(inst, 2, (identity,), (Matrix([[0, 1], [0, 0]]),))
    n = Subspace.spanned_by(2, [(Fraction(0), Fraction(1))])
    with pytest.raises(ClosureViolationError) as err:
        quotient_module(mod, n)
    assert str(err.value) == "subspace is not closed under operator 1"


def test_closure_check_makes_no_rref_call(instances, rref_calls):
    # the first of three summands is closed, so all 3 x (3 + 2) images of
    # its basis are tested
    inst = instances["upper_triangular(1,2)"]
    mod = direct_sum([regular_left_module(inst)] * 3).module
    sub = Subspace.spanned_by(9, [unit_vector(9, i) for i in range(3)])
    rref_calls.clear()
    assert submodule_closure_check(mod, sub) is None
    assert rref_calls == []


# -- direct sums ------------------------------------------------------------------

def test_direct_sum_singleton(reg):
    ds = direct_sum([reg])
    assert ds.module.dim == reg.dim
    assert ds.inclusions[0].matrix == Matrix.identity(2)


def test_direct_sum_two_copies(reg):
    ds = direct_sum([reg, reg])
    assert ds.module.dim == 4
    assert check_left_module(ds.module).ok
    for inc, prj in zip(ds.inclusions, ds.projections):
        assert prj.matrix @ inc.matrix == Matrix.identity(reg.dim)
        assert inc.is_intertwiner() and prj.is_intertwiner()


@pytest.mark.parametrize("name", _CATALOG_NAMES)
def test_direct_sum_inclusions_and_projections_intertwine(name, instances, permuted):
    # direct_sum builds them unchecked; on unequal summands a misplaced
    # block would not intertwine
    inst = instances[name]
    for regular in (regular_left_module, regular_right_module):
        reg = regular(inst)
        free = (restricted_free(inst, ["x", "y"]) if reg.side == "left"
                else direct_sum([reg, reg]).module)
        mods = [reg, permuted(reg, list(reversed(range(inst.dim)))), free,
                zero_module(inst, reg.side)]
        ds = direct_sum(mods)
        for m, inc, prj in zip(mods, ds.inclusions, ds.projections, strict=True):
            assert inc.source == prj.target == m and inc.target == prj.source == ds.module
            assert inc.is_intertwiner() and prj.is_intertwiner()


def test_direct_sum_empty(sp12):
    ds = direct_sum([], inst=sp12)
    assert ds.module.dim == 0


def test_a_direct_sum_past_the_budget_is_refused_before_it_is_built():
    # 38 copies of the regular module of upper_triangular(1,2): 3 + 2
    # structure maps of shape 114 x 114, 64,980 entries
    reg = regular_left_module(catalog_instance("upper_triangular(1,2)"))
    for copies, total in ((38, 114), (200, 600)):
        tracemalloc.start()
        with pytest.raises(ArgumentError) as err:
            direct_sum([reg] * copies)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert str(err.value) == (f"a direct sum of dimension {total} asks for {5 * total ** 2} "
                                  f"structure-map entries; the budget is 64000")
        assert peak < 64 * 1024


def test_the_largest_direct_sum_under_the_budget_is_built():
    # 37 copies: 5 maps of shape 111 x 111, 61,605 entries
    reg = regular_left_module(catalog_instance("upper_triangular(1,2)"))
    ds = direct_sum([reg] * 37)
    assert ds.module.dim == 111 and len(ds.inclusions) == len(ds.projections) == 37
    assert ds.projections[36].matrix @ ds.inclusions[36].matrix == Matrix.identity(3)


def test_direct_sum_kernel_additivity(reg, sp12):
    # ker(psi1 (+) psi2) = ker(psi1) (+) ker(psi2), by dimension count
    rng = random.Random(23)
    hs = hom_space(reg, reg)
    for _ in range(20):
        mats = []
        for _ in range(2):
            m = Matrix.zero(2, 2)
            for b in hs:
                m = m + b.scale(Fraction(rng.randint(-2, 2)))
            mats.append(m)
        homs = [module_hom(reg, reg, m) for m in mats]
        ds_src = direct_sum([reg, reg])
        block = Matrix.block_diag([h.matrix for h in homs])
        combined = module_hom(ds_src.module, ds_src.module, block)
        lhs = block.nullspace_basis().dim
        rhs = sum(h.matrix.nullspace_basis().dim for h in homs)
        assert lhs == rhs
        assert combined.is_injective() == all(h.is_injective() for h in homs)


# -- module constants --------------------------------------------------------------

def test_mc_trivial_instance_is_everything():
    inst = trivial_instance(2, 2)
    check_mrb_identity(inst)
    mod = FdLeftModule(inst, 2, regular_left_module(inst).action,
                       (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    assert module_constants(mod).dim == 2


def test_mc_regular_scaled_projection_full(reg):
    assert module_constants(reg).dim == 2


def test_mc_perturbed_strictly_smaller(reg):
    bad = perturb_operator(reg, "1", 0, 1)
    assert module_constants(bad).dim < 2


# D = 2: operators 3P and P, weights -3/2 and -1/2; D = 4: operators P/2 and
# -2P, weights -1/4 and 1
REWEIGHTINGS = {"D=2": {"a": {"1": 1, "2": 1}, "b": {"2": "1/2"}},
                "D=4": {"a": {"1": "1/2"}, "b": {"2": -1}}}
MC_NAMES = [*_CATALOG_NAMES, *(f"{name} {tag}" for name in
                               ("scaled_projection(1,2)", "upper_triangular(1,2)")
                               for tag in REWEIGHTINGS)]


def mc_instance(name):
    base, _, tag = name.partition(" ")
    inst = catalog_instance(base)
    return reweight(inst, ReweightSpec.from_dict(REWEIGHTINGS[tag])) if tag else inst


def dense_module_constants(mod):
    """The v with m_w(b_i v) = P_w(b_i) v, solved as one dense system: the
    block m_w A_i - sum_k (P_w)_{k,i} A_k for each label w and basis b_i."""
    acts, n = mod.tables, mod.dim
    blocks = [row for mw, pw in zip(mod.operators, mod.inst.operators.matrices)
              for i, act in enumerate(acts)
              for row in (mw @ act - _sum_of(zip(pw.col(i), acts), n, n)).entries]
    return Subspace.spanned_by(n, Matrix.from_rows(blocks, cols=n).nullspace_basis().basis)


def mc_modules(inst):
    """On each side: R, R + R, and R with one operator entry raised by 1, 2
    or 1/2 at three places."""
    first, last, d = inst.omega[0], inst.omega[-1], inst.dim
    for regular in (regular_left_module, regular_right_module):
        r = regular(inst)
        yield from (r, direct_sum([r, r]).module, perturb_operator(r, first),
                    perturb_operator(r, last, d - 1, 0, 2),
                    perturb_operator(r, first, 0, d - 1, Fraction(1, 2)))


@pytest.mark.parametrize("name", MC_NAMES)
def test_module_constants_are_the_solutions_of_the_dense_block_system(name):
    # 17 instances, 10 modules each: 170 modules, 85 per side
    mods = list(mc_modules(mc_instance(name)))
    assert [m.side for m in mods] == ["left"] * 5 + ["right"] * 5
    for mod in mods:
        assert check_action_laws(mod).ok
        assert module_constants(mod) == dense_module_constants(mod), (mod.side, mod.dim)


@pytest.mark.parametrize("name", MC_NAMES)
def test_module_constants_refuse_a_module_whose_action_laws_fail(name):
    # b_1 acts on v_1 with one more: the unit acts as 1 no longer, and homs
    # out of R are not read off at the unit
    inst = mc_instance(name)
    laws = "^plain module laws fail; fix the action tensor first$"
    for regular in (regular_left_module, regular_right_module):
        r = regular(inst)
        bumped = r.action[0][0][0] + 1
        bad = type(r)(inst, r.dim, _set(r.action, 0, _replace(r.action[0], 0, 0, bumped)),
                      r.operators)
        assert not check_action_laws(bad).ok
        with pytest.raises(PreconditionError, match=laws):
            module_constants(bad)
        if bad.side == "left":
            with pytest.raises(PreconditionError, match=laws):
                restricted_lift(restricted_free(inst, ["x"]), [(0,) * inst.dim], bad)


# -- restricted free and its lift ---------------------------------------------------

def test_restricted_free_singleton_is_regular(sp12, reg):
    f = restricted_free(sp12, ["x"])
    assert f.action == reg.action
    assert f.operators == reg.operators


def test_restricted_free_two_generators(sp12):
    f = restricted_free(sp12, ["x", "y"])
    assert f.dim == 4
    assert check_left_module(f).ok


def test_restricted_free_trivial_instance():
    inst = trivial_instance(2, 1)
    check_mrb_identity(inst)
    f = restricted_free(inst, ["x", "y"])
    assert all(m.is_zero() for m in f.operators)


def test_restricted_lift_zero(sp12, reg):
    f = restricted_free(sp12, ["x"])
    h = restricted_lift(f, [[0, 0]], reg)
    assert h.matrix.is_zero()


def test_restricted_lift_reproduces_images(sp12, reg):
    f = restricted_free(sp12, ["x"])
    h = restricted_lift(f, [[1, 0]], reg)
    assert h.is_intertwiner()
    # r x -> r e1
    assert h((0, 1)) == (Fraction(0), Fraction(0))  # e2 . e1 = 0
    assert h((1, 0)) == (Fraction(1), Fraction(0))


def test_restricted_lift_rejects_non_constant(sp12, reg):
    bad_target = perturb_operator(reg, "1", 0, 1)
    mc = module_constants(bad_target)
    f = restricted_free(sp12, ["x"])
    outside = (Fraction(1), Fraction(1))
    assert not mc.contains(outside)
    with pytest.raises(PreconditionError):
        restricted_lift(f, [outside], bad_target)


def test_restricted_lift_tests_images_without_elimination(sp12, rref_calls):
    # module_constants eliminates twice (its nullspace, then the canonical
    # basis); each image is then reduced against that basis, not solved for
    target = direct_sum([regular_left_module(sp12)] * 3).module
    free = restricted_free(sp12, ["x", "y", "z"])
    images = [(1, 0, 0, 2, 0, 0), (0, 1, 0, 0, 0, 3), (0, 0, 0, 0, 1, 1)]
    h = restricted_lift(free, images, target)
    assert len(rref_calls) == 2
    unit, zero = tuple(sp12.algebra.unit), (0, 0)
    for k, img in enumerate(images):
        assert h(zero * k + unit + zero * (2 - k)) == img


def test_restricted_lift_names_the_first_bad_image(sp12, reg):
    target = direct_sum([perturb_operator(reg, "1", 0, 1)] * 2).module
    free = restricted_free(sp12, ["x", "y"])
    with pytest.raises(PreconditionError, match="^image of generator 1 is not a module constant"):
        restricted_lift(free, [(0, 0, 0, 0), (1, 1, 0, 0)], target)
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        restricted_lift(free, [(0, 0, 0), (1, 1, 0, 0)], target)


def test_restricted_lift_uniqueness(sp12, reg):
    # solver dimension: homs out of the free module agreeing on generators
    # are unique, i.e. evaluation at generators is injective on hom_space
    f = restricted_free(sp12, ["x"])
    basis = hom_space(f, reg)
    unit_cols = [b.apply(sp12.algebra.unit) for b in basis]
    eval_matrix = Matrix.from_cols(unit_cols, rows=reg.dim)
    assert eval_matrix.nullspace_basis().dim == 0


# -- hom spaces ----------------------------------------------------------------------

def test_hom_space_contains_identity(reg):
    hs = hom_subspace(reg, reg)
    flat_id = tuple(x for row in Matrix.identity(2).entries for x in row)
    assert hs.contains(flat_id)


def test_hom_space_regular_dimension_two(reg):
    assert len(hom_space(reg, reg)) == 2


def test_hom_space_to_zero(reg, sp12):
    z = zero_module(sp12, "left")
    assert len(hom_space(reg, z)) == 0


def test_hom_space_closed_under_subtraction(reg):
    basis = hom_space(reg, reg)
    sub = hom_subspace(reg, reg)
    a, b = basis[0], basis[1]
    diff = a - b
    assert sub.contains(tuple(x for row in diff.entries for x in row))


def _hand_indexed_hom_space(src, dst):
    """Reference Hom basis: the equations (f A - B f)[i][j] = 0 written out
    entry by entry, with f flattened row by row, then the kernel reshaped."""
    ns, nt = src.dim, dst.dim
    alg = src.inst.algebra
    src_mats = [src.action_matrix(alg.basis_vector(i)) for i in range(alg.dim)]
    dst_mats = [dst.action_matrix(alg.basis_vector(i)) for i in range(alg.dim)]
    rows = []
    for a_mat, b_mat in zip(src_mats + list(src.operators), dst_mats + list(dst.operators)):
        for i in range(nt):
            for j in range(ns):
                row = [Fraction(0)] * (nt * ns)
                for k in range(ns):
                    row[i * ns + k] += a_mat.entries[k][j]
                for k in range(nt):
                    row[k * ns + j] -= b_mat.entries[i][k]
                rows.append(tuple(row))
    basis = Matrix.from_rows(rows, cols=nt * ns).nullspace_basis().basis
    return tuple(Matrix([[v[i * ns + j] for j in range(ns)] for i in range(nt)]) for v in basis)


@pytest.mark.parametrize(
    "name", ["scaled_projection(1,2)", "scaled_projection(2,3,5)", "upper_triangular(1,2)"]
)
def test_hom_space_matches_the_hand_indexed_equations(instances, permuted, name):
    inst = instances[name]
    rng = random.Random(10)
    for regular in (regular_left_module, regular_right_module):
        sums = []
        for k in (1, 2, 3):
            mod = direct_sum([regular(inst)] * k).module
            perm = list(range(mod.dim))
            rng.shuffle(perm)
            sums.append(permuted(mod, perm))
        for src in sums:
            for dst in sums:
                assert hom_space(src, dst) == _hand_indexed_hom_space(src, dst)


def test_coords_in_reads_a_batch_off_one_elimination(reg, rref_calls):
    basis = hom_space(reg, reg)
    inside = [Matrix.identity(2), basis[0].scale(3) - basis[1]]
    rref_calls.clear()
    coords = _coords_in(basis, inside)
    assert len(rref_calls) == 1
    for c, m in zip(coords, inside):
        assert sum((b.scale(x) for x, b in zip(c, basis)), Matrix.zero(2, 2)) == m
    assert _coords_in(basis, [*inside, Matrix([[0, 1], [0, 0]])]) is None
    # a repeated basis matrix still gives coordinates that rebuild each matrix
    for c, m in zip(_coords_in([*basis, basis[0]], inside), inside):
        assert sum((b.scale(x) for x, b in zip(c, [*basis, basis[0]])), Matrix.zero(2, 2)) == m


def test_coords_in_an_empty_basis():
    assert _coords_in((), [Matrix.zero(2, 3)]) == ((),)
    assert _coords_in((), [Matrix([[0, 0, 1], [0, 0, 0]])]) is None


# -- the four hom module structures ---------------------------------------------------

def test_hom_module_variant_a(sp12, reg_r):
    bm = regular_bimodule(sp12)
    out = hom_module(reg_r, bm, "a")
    assert out.side == "left"
    assert out.dim == 2
    assert check_left_module(out).ok


def test_hom_module_variant_b(sp12, reg, sp12_regular_doc):
    bm = regular_bimodule(sp12)
    out = hom_module(reg, bm, "b")
    assert out.side == "right"
    assert check_right_module(out).ok
    assert module_to_json(out) == sp12_regular_doc("right")


def test_hom_module_variant_c(sp12, reg, sp12_regular_doc):
    bm = regular_bimodule(sp12)
    out = hom_module(bm, reg, "c")
    assert out.side == "left"
    assert check_left_module(out).ok
    assert module_to_json(out) == sp12_regular_doc("left")


def test_hom_module_variant_d(sp12, reg_r, sp12_regular_doc):
    bm = regular_bimodule(sp12)
    out = hom_module(bm, reg_r, "d")
    assert out.side == "right"
    assert check_right_module(out).ok
    assert module_to_json(out) == sp12_regular_doc("right")


def test_hom_module_eliminates_once_per_induced_matrix(sp12, reg_r, rref_calls):
    # one elimination for the hom space, then one for the induced maps of
    # every action and operator of the acting part together
    assert hom_module(reg_r, regular_bimodule(sp12), "a").dim == 2
    assert len(rref_calls) == 2


def test_hom_module_zero_space(sp12, reg_r):
    bm = regular_bimodule(sp12)
    z = zero_module(sp12, "right")
    out = hom_module(z, bm, "a")
    assert out.dim == 0


def test_hom_module_hypothesis_failure_named():
    inst = upper_triangular_instance((1, 2))
    bm = regular_bimodule(inst)  # fails the compatibility checks
    m = regular_right_module(inst)
    with pytest.raises(PreconditionError) as err:
        hom_module(m, bm, "a")
    assert "hypothesis" in str(err.value)


# -- reweighting ------------------------------------------------------------------------

def test_reweight_module_identity_spec(reg, sp12):
    out = reweight_module(reg, ReweightSpec.identity(sp12.omega))
    assert out.operators == reg.operators
    assert check_left_module(out).ok


def test_reweight_module_combination(reg, sp12):
    out = reweight_module(reg, ReweightSpec.from_dict({"1": {"1": 1, "2": 1}}))
    expected = scaled_projection((3,))
    assert out.inst.weights.values == expected.weights.values
    assert out.operators[0] == reg.operators[0] + reg.operators[1]
    assert check_left_module(out).ok


def test_reweight_module_random_specs(instances):
    rng = random.Random(31)
    for name in ("scaled_projection(2,3,5)", "upper_triangular(1,2)"):
        inst = instances[name]
        reg_m = regular_left_module(inst)
        for _ in range(8):
            spec = ReweightSpec.from_dict({
                f"i{k}": {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in inst.omega}
                for k in range(rng.randint(1, 2))
            })
            out = reweight_module(reg_m, spec)
            assert check_left_module(out).ok


def test_reweight_module_empty_spec_rejected(reg):
    with pytest.raises(ValueError):
        reweight_module(reg, ReweightSpec(()))


# -- lifting through epimorphisms ----------------------------------------------------------

def test_lift_through_identity(reg):
    ident = module_hom(reg, reg, Matrix.identity(2))
    out = lift_through_epi(ident, ident)
    assert out is not None
    assert out.matrix == Matrix.identity(2)


def test_lift_through_projection_of_sum(reg):
    ds = direct_sum([reg, reg])
    theta = ds.projections[0]
    phi = module_hom(reg, reg, Matrix.identity(2))
    out = lift_through_epi(theta, phi)
    assert out is not None
    assert theta.matrix @ out.matrix == phi.matrix


def test_lift_from_the_zero_module_is_the_zero_hom(reg, sp12):
    # Hom(S, M) has an empty basis when S is the zero module; the lift is
    # still found, as the zero hom of shape dim M x 0
    z = zero_module(sp12, "left")
    ds = direct_sum([reg, reg])
    assert hom_space(z, ds.module) == ()
    out = lift_through_epi(ds.projections[0], module_hom(z, reg, Matrix.zero(2, 0)))
    assert out is not None
    assert (out.source, out.target, out.matrix) == (z, ds.module, Matrix.zero(4, 0))


def test_lift_requires_surjection(reg, sp12):
    z = zero_module(sp12, "left")
    theta = module_hom(z, reg, Matrix.zero(2, 0))
    phi = module_hom(reg, reg, Matrix.identity(2))
    with pytest.raises(PreconditionError):
        lift_through_epi(theta, phi)


def test_lift_not_surjective_rejected(sp12):
    q = quotient_module(regular_left_module(sp12),
                        Subspace.spanned_by(2, [(Fraction(0), Fraction(1))]))
    src_zero = zero_module(sp12, "left")
    theta = module_hom(src_zero, q, Matrix.zero(1, 0))
    phi = module_hom(q, q, Matrix.identity(1))
    with pytest.raises(PreconditionError):
        lift_through_epi(theta, phi)


def test_lift_exists_when_quotient_splits(sp12):
    # over the componentwise instance R = e1 R (+) e2 R as modules, so the
    # projection onto R/span{e2} splits and the identity lifts
    reg_m = regular_left_module(sp12)
    n = Subspace.spanned_by(2, [(Fraction(0), Fraction(1))])
    q, proj = quotient_module(reg_m, n, with_projection=True)
    out = lift_through_epi(proj, module_hom(q, q, Matrix.identity(1)))
    assert out is not None and proj.matrix @ out.matrix == Matrix.identity(1)


def test_lift_absent_on_non_split_quotient():
    # over the triangular instance span{t12} admits no complementary
    # submodule: any candidate absorbs t12 back, so the identity of the
    # quotient cannot lift through the projection
    inst = upper_triangular_instance((1, 2))
    reg_m = regular_left_module(inst)
    sub = Subspace.spanned_by(3, [(Fraction(0), Fraction(1), Fraction(0))])
    q, proj = quotient_module(reg_m, sub, with_projection=True)
    assert check_left_module(q).ok
    out = lift_through_epi(proj, module_hom(q, q, Matrix.identity(2)))
    assert out is None


def test_quotient_by_random_closed_subspaces(instances):
    # closing random seed vectors under the action and the operators always
    # yields a subspace whose quotient passes the checker
    rng = random.Random(41)
    for name in ("scaled_projection(1,2)", "upper_triangular(1,2)", "trivial(3,2)"):
        inst = instances[name]
        mod = regular_left_module(inst)
        for _ in range(10):
            seed = tuple(Fraction(rng.randint(-2, 2)) for _ in range(mod.dim))
            span = [seed]
            changed = True
            while changed:
                changed = False
                current = Subspace.spanned_by(mod.dim, span)
                images = []
                for v in current.basis:
                    for i in range(inst.dim):
                        images.append(mod.action_matrix(inst.algebra.basis_vector(i)).apply(v))
                    for w in inst.omega:
                        images.append(mod.operator(w).apply(v))
                for img in images:
                    if not current.contains(img):
                        span.append(img)
                        changed = True
            closed = Subspace.spanned_by(mod.dim, span)
            q = quotient_module(mod, closed)
            assert check_left_module(q).ok, (name, seed)


# -- wire format -----------------------------------------------------------------------------

def test_module_json_round_trip(reg, reg_r):
    for mod in (reg, reg_r):
        doc = module_to_json(mod)
        back = module_from_json(json.loads(json.dumps(doc)))
        assert back == mod
    # scaled_projection(1,2) is commutative: the two regular modules share
    # their data and differ only in side
    assert (reg_r.action, reg_r.operators) == (reg.action, reg.operators)
    assert reg_r != reg


def test_bimodule_json_round_trip(sp12):
    bm = regular_bimodule(sp12)
    doc = module_to_json(bm)
    back = module_from_json(json.loads(json.dumps(doc)))
    assert back == bm
    assert doc["side"] == "bimodule"
    # the golden document reads back to itself: the left part's fields plus
    # the right part's under a right_ prefix, with one shared dim
    path = Path(__file__).parent / "golden" / "inputs" / "regular_bimodule_sp12.json"
    golden = json.loads(path.read_text())
    assert module_to_json(module_from_json(golden)) == golden
    assert golden == {**module_to_json(bm.left), "side": "bimodule",
                      **{"right_" + k: v for k, v in module_to_json(bm.right).items()
                         if k not in ("side", "dim")}}



# -- structure maps ---------------------------------------------------------------------------

def test_each_module_builds_its_structure_maps_once(map_builds, sp12_regular_doc):
    # modules read from documents build their maps on first use; the
    # constructions then reuse them, and their results come with theirs
    left = module_from_json(sp12_regular_doc("left"))
    right = module_from_json(sp12_regular_doc("right"))
    assert check_left_module(left).ok
    assert len(hom_space(left, left)) == 2
    assert tensor_product(right, left).dim == 2
    q = quotient_module(left, Subspace.spanned_by(2, [(0, 1)]))
    assert check_left_module(q).ok and len(hom_space(q, q)) == 1
    assert Counter(map(id, map_builds)) == {id(left): 1, id(right): 1}


def test_a_repeated_hom_space_clears_the_maps_once(instances, monkeypatch):
    # the Hom system is built from the integer maps each module clears once,
    # whatever the number of its rows, and the engine clears no row of it
    from mrb import core, linalg
    mod = direct_sum([regular_left_module(instances["upper_triangular(1,2)"])] * 4).module
    cleared = []
    for where in (core, linalg):
        monkeypatch.setattr(where, "_cleared", lambda pairs, f=where._cleared:
                            cleared.append(len(pairs)) or f(pairs))
    bases = [hom_space(mod, mod) for _ in range(3)]
    assert len(bases[0]) == 32 and bases[0] == bases[1] == bases[2]
    # one clearing of the 5 structure maps, 12 x 12 each, for 3 x 720 rows
    assert cleared == [5 * 12 * 12]


def test_from_maps_inverts_maps(instances, sp12, reg, reg_r):
    ut = instances["upper_triangular(1,2)"]
    bm = regular_bimodule(sp12)
    mods = [m for inst in instances.values()
            for m in (regular_left_module(inst), regular_right_module(inst))]
    mods += [direct_sum([regular_left_module(ut)] * 2).module,
             direct_sum([regular_right_module(ut), zero_module(ut, "right")]).module,
             quotient_module(reg, Subspace.spanned_by(2, [(0, 1)])),
             hom_module(reg, bm, "b"),
             tensor_left_structure(bm, tensor_product(reg_r, reg))]
    for m in mods:
        assert _from_maps(m.side, m.inst, m.dim, m.maps) == m
        # the maps a construction hands over are those the action tensor gives
        assert type(m)(m.inst, m.dim, m.action, m.operators).maps == m.maps
