"""Differential tests of the axiom kernel against a per-basis-pair reference.

The checkers evaluate each axiom as one matrix equation per label pair and
basis element, on action tables built once per check.  The reference below
evaluates the same axioms the long way, one basis pair at a time with
`multiply` and `apply`, and must give the same violation list: kinds,
locations, residuals and order.  Inputs are catalog instances and their
regular modules with one entry changed, so both clean and failing reports
are compared.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrb.core import (
    AlgebraPresentation,
    MrbAlgebraInstance,
    OperatorFamily,
    PreconditionError,
    Violation,
    WeightFamily,
    catalog,
    check_mrb_identity,
    check_presentation,
    scaled_projection,
    upper_triangular_instance,
)
from mrb.linalg import Matrix
from mrb.modules import (
    FdLeftModule,
    check_action_laws,
    check_bimodule,
    check_left_module,
    check_right_module,
    direct_sum,
    module_from_json,
    module_to_json,
    regular_bimodule,
    regular_left_module,
    regular_right_module,
)

CATALOG = catalog()
NAMES = sorted(CATALOG)

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


# -- reference evaluator: one basis pair at a time ---------------------------

def _sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def _add(*vectors):
    return tuple(sum(xs, Fraction(0)) for xs in zip(*vectors))


def _scale(c, v):
    return tuple(c * x for x in v)


def reference_presentation(alg):
    violations = []
    for i in range(alg.dim):
        b = alg.basis_vector(i)
        left = alg.multiply(alg.unit, b)
        if left != b:
            violations.append(Violation("unit-left", (i,), _sub(left, b)))
        right = alg.multiply(b, alg.unit)
        if right != b:
            violations.append(Violation("unit-right", (i,), _sub(right, b)))
    for i in range(alg.dim):
        bi = alg.basis_vector(i)
        for j in range(alg.dim):
            bj = alg.basis_vector(j)
            for k in range(alg.dim):
                bk = alg.basis_vector(k)
                lhs = alg.multiply(alg.multiply(bi, bj), bk)
                rhs = alg.multiply(bi, alg.multiply(bj, bk))
                if lhs != rhs:
                    violations.append(Violation("associativity", (i, j, k), _sub(lhs, rhs)))
    return tuple(violations)


def reference_identity(inst):
    alg = inst.algebra
    violations = []
    for a in inst.omega:
        pa, la = inst.p_matrix(a), inst.weight(a)
        for b in inst.omega:
            pb, lb = inst.p_matrix(b), inst.weight(b)
            for i in range(alg.dim):
                x = alg.basis_vector(i)
                px = pa.apply(x)
                for j in range(alg.dim):
                    y = alg.basis_vector(j)
                    py = pb.apply(y)
                    xy = alg.multiply(x, y)
                    lhs = alg.multiply(px, py)
                    rhs = _add(pa.apply(alg.multiply(x, py)), pb.apply(alg.multiply(px, y)),
                               _scale(lb, pa.apply(xy)), _scale(la, pb.apply(xy)))
                    if lhs != rhs:
                        violations.append(Violation("mrb-identity", (i, j, a, b), _sub(lhs, rhs)))
    return tuple(violations)


def _act(mod, r, v):
    """r . v on a left module, v . r on a right one, from the action tensor."""
    out = [Fraction(0)] * mod.dim
    for i, ri in enumerate(r):
        for p, vp in enumerate(v):
            if ri and vp:
                for q, c in enumerate(mod.action[i][p]):
                    out[q] += ri * vp * c
    return tuple(out)


def reference_action_laws(mod):
    alg = mod.inst.algebra
    basis = [tuple(Fraction(int(p == q)) for q in range(mod.dim)) for p in range(mod.dim)]
    violations = []
    if any(_act(mod, alg.unit, v) != v for v in basis):
        violations.append(Violation("unit-action", ()))
    for i in range(alg.dim):
        bi = alg.basis_vector(i)
        for j in range(alg.dim):
            bj = alg.basis_vector(j)
            # (b_i b_j) v = b_i (b_j v), or v (b_i b_j) = (v b_i) b_j
            inner, outer = (bj, bi) if mod.side == "left" else (bi, bj)
            if any(_act(mod, alg.multiply(bi, bj), v) != _act(mod, outer, _act(mod, inner, v))
                   for v in basis):
                violations.append(Violation("action-associativity", (i, j)))
    return tuple(violations)


def reference_module(mod):
    inst = mod.inst
    alg = inst.algebra
    kind = f"{mod.side}-module"
    violations = []
    for a in inst.omega:
        ma, la = mod.operator(a), inst.weight(a)
        for b in inst.omega:
            mb, lb = mod.operator(b), inst.weight(b)
            for i in range(alg.dim):
                x = alg.basis_vector(i)
                px = inst.apply_operator(a, x)
                for p in range(mod.dim):
                    v = tuple(Fraction(int(p == q)) for q in range(mod.dim))
                    if mod.side == "left":
                        # P_a(x) m_b(v) = m_a(x m_b(v)) + m_b(P_a(x) v)
                        #                 + l_b m_a(x v) + l_a m_b(x v)
                        lhs = _act(mod, px, mb.apply(v))
                        rhs = _add(ma.apply(_act(mod, x, mb.apply(v))), mb.apply(_act(mod, px, v)),
                                   _scale(lb, ma.apply(_act(mod, x, v))),
                                   _scale(la, mb.apply(_act(mod, x, v))))
                    else:
                        # m_b(v P_a(x)) = m_b(m_a(v) x) + m_b(v) P_a(x)
                        #                 + l_b m_a(v) x + l_a m_b(v) x
                        lhs = mb.apply(_act(mod, px, v))
                        rhs = _add(mb.apply(_act(mod, x, ma.apply(v))), _act(mod, px, mb.apply(v)),
                                   _scale(lb, _act(mod, x, ma.apply(v))),
                                   _scale(la, _act(mod, x, mb.apply(v))))
                    if lhs != rhs:
                        violations.append(Violation(kind, (i, p, a, b), _sub(lhs, rhs)))
    return tuple(violations)


# -- one-entry perturbations ---------------------------------------------------

def _set(seq, k, value):
    return tuple(value if n == k else x for n, x in enumerate(seq))


def _replace(rows, i, j, value):
    return _set(rows, i, _set(rows[i], j, value))


@st.composite
def perturbed_instances(draw):
    """A catalog instance, unverified, with one operator entry, weight or
    structure constant changed."""
    inst = CATALOG[draw(st.sampled_from(NAMES))]
    alg, ops, weights = inst.algebra, inst.operators, inst.weights
    d, s = inst.dim, len(inst.omega)
    value = draw(rationals)
    w = draw(st.integers(0, s - 1))
    i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
    part = draw(st.sampled_from(("operator", "weight", "structure")))
    if part == "operator":
        matrices = _set(ops.matrices, w, Matrix(_replace(ops.matrices[w].entries, i, j, value)))
        ops = OperatorFamily(ops.labels, matrices)
    elif part == "weight":
        weights = WeightFamily(weights.labels, _set(weights.values, w, value))
    else:
        sc = alg.structure_constants
        sc = _set(sc, i, _set(sc[i], j, _set(sc[i][j], k, value)))
        alg = AlgebraPresentation(d, alg.basis_labels, sc, alg.unit)
    return MrbAlgebraInstance(alg, ops, weights)


@st.composite
def perturbed_modules(draw):
    """A regular left or right module of a catalog instance, or a direct sum
    of two, with one action entry, module operator entry or weight changed."""
    inst = CATALOG[draw(st.sampled_from(NAMES))]
    regular = draw(st.sampled_from((regular_left_module, regular_right_module)))
    mod = regular(inst)
    if draw(st.booleans()):
        mod = direct_sum([mod, mod]).module
    n, d, s = mod.dim, inst.dim, len(inst.omega)
    value = draw(rationals)
    i, w = draw(st.integers(0, d - 1)), draw(st.integers(0, s - 1))
    p, q = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    action, operators = mod.action, mod.operators
    part = draw(st.sampled_from(("action", "operator", "weight")))
    if part == "action":
        action = _set(action, i, _replace(action[i], p, q, value))
    elif part == "operator":
        operators = _set(operators, w, Matrix(_replace(operators[w].entries, p, q, value)))
    else:
        weights = WeightFamily(inst.omega, _set(inst.weights.values, w, value))
        inst = MrbAlgebraInstance(inst.algebra, inst.operators, weights)
    return type(mod)(inst, n, action, operators)


# -- the kernel matches the reference ------------------------------------------

@settings(max_examples=80, deadline=None)
@given(perturbed_instances())
def test_presentation_and_identity_match_the_reference(inst):
    pres = check_presentation(inst.algebra)
    assert pres.violations == reference_presentation(inst.algebra)
    if not pres.ok:
        with pytest.raises(PreconditionError):
            check_mrb_identity(inst)
        return
    expected = reference_identity(inst)
    report = check_mrb_identity(inst)
    assert report.violations == expected
    assert report.to_json()["violations"] == [v.to_json() for v in expected]
    assert inst.verified == (not expected)


@settings(max_examples=80, deadline=None)
@given(perturbed_modules())
def test_module_checks_match_the_reference(mod):
    checker = check_left_module if mod.side == "left" else check_right_module
    laws = check_action_laws(mod)
    assert laws.violations == reference_action_laws(mod)
    if not laws.ok:
        with pytest.raises(PreconditionError):
            checker(mod)
        return
    expected = reference_module(mod)
    report = checker(mod)
    assert report.violations == expected
    assert report.to_json()["violations"] == [v.to_json() for v in expected]


@pytest.mark.parametrize("name", NAMES)
def test_catalog_reports_match_the_reference(name):
    inst = CATALOG[name]
    fresh = MrbAlgebraInstance(inst.algebra, inst.operators, inst.weights)
    assert check_mrb_identity(fresh).violations == reference_identity(inst) == ()
    for mod in (regular_left_module(inst), regular_right_module(inst)):
        checker = check_left_module if mod.side == "left" else check_right_module
        assert checker(mod).violations == reference_module(mod)


# -- the tables are built once per check --------------------------------------

def test_module_check_builds_its_action_tables_once(monkeypatch):
    inst = scaled_projection((2, 3, 5))
    mod = regular_left_module(inst)
    calls = []
    action_matrix = FdLeftModule.action_matrix

    def counted(self, r):
        calls.append(r)
        return action_matrix(self, r)

    monkeypatch.setattr(FdLeftModule, "action_matrix", counted)
    assert check_left_module(mod).ok
    # at most one table per basis element and one more; the per-pair
    # evaluation took 1 + 3 d^2 + 2 s^2 d
    assert len(calls) <= inst.dim + 1


def test_bimodule_check_builds_each_side_tables_once(map_builds):
    doc = module_to_json(regular_bimodule(scaled_projection((2, 3, 5))))
    assert check_bimodule(module_from_json(doc)).ok
    assert len(map_builds) == 2


def test_identity_check_makes_no_apply_call(monkeypatch):
    inst = upper_triangular_instance((1, 2))
    clean = MrbAlgebraInstance(inst.algebra, inst.operators, inst.weights)
    broken = MrbAlgebraInstance(inst.algebra, inst.operators,
                                WeightFamily(inst.omega, (Fraction(1), Fraction(-1))))
    calls = []
    apply = Matrix.apply

    def counted(self, v):
        calls.append(v)
        return apply(self, v)

    monkeypatch.setattr(Matrix, "apply", counted)
    assert check_mrb_identity(clean).ok
    assert not check_mrb_identity(broken).ok
    assert calls == []
