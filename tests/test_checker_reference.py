"""Differential tests of the integer law checkers against their Fraction bodies.

`check_presentation`, `check_mrb_identity`, the module checkers and
`check_bimodule` clear their inputs' denominators once and decide every law
on integer matrices.  The reference below is the rational arithmetic they
replaced: `Matrix` tables of `Fraction`s, combined with `scale`, `+`, `-`
and `@`, and the residual read off each nonzero column of the `Matrix`
difference.  Both must give the same reports, kind, location, residual
values and order, or raise the same precondition error, on catalog
instances, on two reweighted instances with denominators 2 and 4, and on
their regular left, right and bimodules, each with one entry of the
structure constants, the unit, an operator matrix, a module table or the
weights changed to a rational with a denominator up to 4.
"""

import operator
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mrb.core import (
    AlgebraPresentation,
    CheckReport,
    MrbAlgebraInstance,
    OperatorFamily,
    PreconditionError,
    Violation,
    WeightFamily,
    check_mrb_identity,
    check_presentation,
)
from mrb.linalg import Matrix
from mrb.modules import (
    FdBimodule,
    check_action_laws,
    check_bimodule,
    check_left_module,
    regular_bimodule,
    regular_left_module,
    regular_right_module,
)
from test_kernel import _replace, _set
from test_opring_reference import INSTANCES, NAMES

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


# -- reference: the Fraction matrix bodies -------------------------------------

def _tables(alg, left):
    sc, d = alg.structure_constants, alg.dim
    return tuple(Matrix.from_cols([sc[i][j] if left else sc[j][i] for j in range(d)], rows=d)
                 for i in range(d))


def is_zero_vector(v):
    return all(a == 0 for a in v)


def _sum_of(terms, rows, cols):
    return sum((m.scale(c) for c, m in terms if c), Matrix.zero(rows, cols))


def _column_violations(kind, diff, where):
    return [Violation(kind, where(p), col) for p, col in enumerate(diff.transpose().entries)
            if not is_zero_vector(col)]


def reference_presentation(alg, left=None):
    d = alg.dim
    left = _tables(alg, True) if left is None else left
    right = _tables(alg, False)
    one = Matrix.identity(d)
    units = [(kind, (_sum_of(zip(alg.unit, table), d, d) - one).transpose().entries)
             for kind, table in (("unit-left", left), ("unit-right", right))]
    violations = [Violation(kind, (i,), cols[i])
                  for i in range(d) for kind, cols in units if not is_zero_vector(cols[i])]
    for i, li in enumerate(left):
        for j, lj in enumerate(left):
            diff = _sum_of(zip(alg.structure_constants[i][j], left), d, d) - li @ lj
            violations += _column_violations("associativity", diff, lambda k: (i, j, k))
    return CheckReport("presentation", tuple(violations))


def reference_axiom(kind, inst, acts, ops, mul):
    d = inst.dim
    n = ops[0].rows if ops else 0
    labels, weights = inst.omega, inst.weights.values
    acted = [[_sum_of(zip(pa.col(i), acts), n, n) for i in range(d)]
             for pa in inst.operators.matrices]
    after = [[mul(m, act) for act in acts] for m in ops]
    violations = []
    for a, la in enumerate(weights):
        for b, lb in enumerate(weights):
            mb = ops[b]
            for i in range(d):
                diff = (mul(acted[a][i] - after[a][i], mb) - mul(mb, acted[a][i])
                        - after[a][i].scale(lb) - after[b][i].scale(la))
                if not diff.is_zero():
                    violations += _column_violations(
                        kind, diff, lambda p: (i, p, labels[a], labels[b]))
    return violations


def reference_identity(inst):
    acts = _tables(inst.algebra, True)
    if not reference_presentation(inst.algebra, acts).ok:
        raise PreconditionError("presentation must pass check_presentation first")
    return CheckReport("mrb-identity", tuple(reference_axiom(
        "mrb-identity", inst, acts, inst.operators.matrices, operator.matmul)))


def _order(mod):
    return operator.matmul if mod.side == "left" else (lambda x, y: y @ x)


def reference_action_laws(mod):
    alg, acts, mul, n = mod.inst.algebra, mod.tables, _order(mod), mod.dim
    violations = []
    if _sum_of(zip(alg.unit, acts), n, n) != Matrix.identity(n):
        violations.append(Violation("unit-action", ()))
    for i, ai in enumerate(acts):
        for j, aj in enumerate(acts):
            if _sum_of(zip(alg.structure_constants[i][j], acts), n, n) != mul(ai, aj):
                violations.append(Violation("action-associativity", (i, j)))
    return CheckReport("action-laws", tuple(violations))


def reference_module(mod):
    if not reference_action_laws(mod).ok:
        raise PreconditionError("plain module laws fail; fix the action tensor first")
    kind = f"{mod.side}-module"
    return CheckReport(kind, tuple(reference_axiom(
        kind, mod.inst, mod.tables, mod.operators, _order(mod))))


def reference_bimodule(bm):
    omega = bm.left.inst.omega
    lefts, rights = list(enumerate(bm.left.tables)), list(enumerate(bm.right.tables))
    m_ops, n_ops = list(zip(omega, bm.right.operators)), list(zip(omega, bm.left.operators))
    families = [("actions-commute", lefts, rights)]
    for m, n in zip(m_ops, n_ops):
        families += [("right-family-vs-left-action", [m], lefts),
                     ("left-family-vs-right-action", [n], rights)]
    families.append(("families-commute", m_ops, n_ops))
    violations = [*reference_module(bm.left).violations, *reference_module(bm.right).violations]
    violations += [Violation(kind, (x, y)) for kind, xs, ys in families
                   for x, a in xs for y, b in ys if a @ b != b @ a]
    return CheckReport("bimodule", tuple(violations))


# -- one-entry perturbations ---------------------------------------------------

INSTANCE_PARTS = ("structure", "unit", "operator", "weight")


def _perturbed_instance(draw, inst, part):
    """inst, unverified, with one entry of part changed."""
    alg, ops, weights = inst.algebra, inst.operators, inst.weights
    d, s = inst.dim, len(inst.omega)
    value = draw(rationals)
    w = draw(st.integers(0, s - 1))
    i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
    if part == "operator":
        ops = OperatorFamily(ops.labels, _set(
            ops.matrices, w, Matrix(_replace(ops.matrices[w].entries, i, j, value))))
    elif part == "weight":
        weights = WeightFamily(weights.labels, _set(weights.values, w, value))
    else:
        sc, unit = alg.structure_constants, alg.unit
        if part == "unit":
            unit = _set(unit, i, value)
        else:
            sc = _set(sc, i, _set(sc[i], j, _set(sc[i][j], k, value)))
        alg = AlgebraPresentation(d, alg.basis_labels, sc, unit)
    return MrbAlgebraInstance(alg, ops, weights)


def _perturbed_part(draw, mod, inst):
    """The one-sided module mod over inst, with one entry of an action table
    or a module operator changed, or with none."""
    n, d, s = mod.dim, inst.dim, len(inst.omega)
    action, operators = mod.action, mod.operators
    i, w = draw(st.integers(0, d - 1)), draw(st.integers(0, s - 1))
    p, q = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    part = draw(st.sampled_from(("action", "operator", "none")))
    if part == "action":
        action = _set(action, i, _replace(action[i], p, q, draw(rationals)))
    elif part == "operator":
        operators = _set(operators, w, Matrix(_replace(operators[w].entries, p, q,
                                                       draw(rationals))))
    return type(mod)(inst, n, action, operators)


@st.composite
def perturbed_instances(draw):
    inst = INSTANCES[draw(st.sampled_from(NAMES))]
    return _perturbed_instance(draw, inst, draw(st.sampled_from(INSTANCE_PARTS)))


@st.composite
def perturbed_modules(draw):
    """A regular left, right or bimodule, with one entry of its instance or
    of one of its parts changed."""
    inst = INSTANCES[draw(st.sampled_from(NAMES))]
    kind = draw(st.sampled_from(("left", "right", "bimodule")))
    if draw(st.booleans()):
        inst = _perturbed_instance(draw, inst, draw(st.sampled_from(INSTANCE_PARTS)))
    if kind == "bimodule":
        bm = regular_bimodule(inst)
        if draw(st.booleans()):
            return FdBimodule(_perturbed_part(draw, bm.left, inst), bm.right)
        return FdBimodule(bm.left, _perturbed_part(draw, bm.right, inst))
    regular = regular_left_module if kind == "left" else regular_right_module
    return _perturbed_part(draw, regular(inst), inst)


def outcome(check, *args):
    """The report of check, or the precondition error it raises."""
    try:
        return check(*args)
    except PreconditionError as exc:
        return str(exc)


def same(ours, ref):
    assert ours == ref
    if isinstance(ref, CheckReport):
        assert all(type(x) is Fraction for v in ours.violations for x in v.residual or ())
        assert ours.to_json() == ref.to_json()


# -- the integer checkers match the reference ----------------------------------

@settings(max_examples=150, deadline=None)
@given(perturbed_instances())
def test_presentation_and_identity_match_the_fraction_bodies(inst):
    same(check_presentation(inst.algebra), reference_presentation(inst.algebra))
    ref = outcome(reference_identity, inst)
    same(outcome(check_mrb_identity, inst), ref)
    assert inst.verified == (isinstance(ref, CheckReport) and ref.ok)


@settings(max_examples=150, deadline=None)
@given(perturbed_modules())
def test_module_checks_match_the_fraction_bodies(mod):
    if isinstance(mod, FdBimodule):
        same(outcome(check_bimodule, mod), outcome(reference_bimodule, mod))
        return
    same(check_action_laws(mod), reference_action_laws(mod))
    same(outcome(check_left_module, mod), outcome(reference_module, mod))


def test_the_perturbations_reach_every_verdict():
    # the strategies above are only a check if they make the checkers both
    # pass and fail; these fixed perturbations of the D = 4 instance pin each
    inst = INSTANCES["reweighted scaled_projection(2,3,5)"]
    alg, quarter = inst.algebra, Fraction(1, 4)
    broken_unit = AlgebraPresentation(alg.dim, alg.basis_labels, alg.structure_constants,
                                      (Fraction(1), quarter))
    assert not check_presentation(broken_unit).ok
    reweighted = MrbAlgebraInstance(alg, inst.operators, WeightFamily(
        inst.omega, _set(inst.weights.values, 0, quarter)))
    report = check_mrb_identity(reweighted)
    assert not report.ok and report == reference_identity(reweighted)
    mod = regular_right_module(reweighted)
    assert not check_left_module(mod).ok and check_left_module(mod) == reference_module(mod)
    assert check_bimodule(regular_bimodule(inst)) == reference_bimodule(regular_bimodule(inst))
