"""Finite-dimensional modules over multiple Rota-Baxter algebras.

A module presentation is an action tensor plus one operator matrix per
label.  The left axiom, checked exhaustively on basis pairs, is

    P_a(x) m_b(v) = m_a(x m_b(v)) + m_b(P_a(x) v)
                    + lambda_b m_a(x v) + lambda_a m_b(x v),

and the right axiom mirrors it with the action on the other side.  All
verdicts (closure, surjectivity, membership) are decided by exact rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    CheckReport,
    MalformedPresentationError,
    MrbAlgebraInstance,
    PreconditionError,
    ReweightSpec,
    Violation,
    check_mrb_identity,
    instance_from_json,
    instance_to_json,
    load_instance,
    reweight,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    frac,
    format_rational,
    is_zero_vector,
    quotient_space,
    unit_vector,
    vector,
    zero_vector,
)


class ClosureViolationError(ValueError):
    """A claimed submodule is not closed under the action or the operators."""


def _validate_action(dim_r: int, dim_m: int, action) -> None:
    if len(action) != dim_r:
        raise MalformedPresentationError("action tensor has wrong first dimension")
    for block in action:
        if len(block) != dim_m or any(len(v) != dim_m for v in block):
            raise MalformedPresentationError("action tensor has wrong shape")


def _action_matrix(action, r: Vector, dim: int) -> Matrix:
    cols = []
    for p in range(dim):
        col = [Fraction(0)] * dim
        for i, ri in enumerate(r):
            if ri == 0:
                continue
            for q, a in enumerate(action[i][p]):
                if a != 0:
                    col[q] += ri * a
        cols.append(tuple(col))
    return Matrix.from_cols(cols, rows=dim)


@dataclass(frozen=True)
class FdLeftModule:
    """Left module: action[i][p] holds the coordinates of b_i . v_p."""

    inst: MrbAlgebraInstance
    dim: int
    action: tuple[tuple[Vector, ...], ...]
    operators: tuple[Matrix, ...]

    def __post_init__(self):
        _validate_action(self.inst.dim, self.dim, self.action)
        if len(self.operators) != len(self.inst.omega):
            raise MalformedPresentationError("one operator matrix per label required")
        for m in self.operators:
            if m.rows != self.dim or m.cols != self.dim:
                raise MalformedPresentationError("operator matrix has wrong shape")

    @property
    def side(self) -> str:
        return "left"

    def action_matrix(self, r: Sequence) -> Matrix:
        return _action_matrix(self.action, vector(r), self.dim)

    def operator(self, label: str) -> Matrix:
        return self.operators[self.inst.omega.index(label)]


@dataclass(frozen=True)
class FdRightModule:
    """Right module: action[i][p] holds the coordinates of v_p . b_i."""

    inst: MrbAlgebraInstance
    dim: int
    action: tuple[tuple[Vector, ...], ...]
    operators: tuple[Matrix, ...]

    __post_init__ = FdLeftModule.__post_init__

    @property
    def side(self) -> str:
        return "right"

    def action_matrix(self, r: Sequence) -> Matrix:
        return _action_matrix(self.action, vector(r), self.dim)

    def operator(self, label: str) -> Matrix:
        return self.operators[self.inst.omega.index(label)]


@dataclass(frozen=True)
class FdBimodule:
    """Bimodule presentation with both actions and both operator families.

    ``left_operators`` is the family making the space a left module over
    ``left_inst``; ``right_operators`` the family for the right module over
    ``right_inst``.  The two instances must share labels and weights, as the
    coupled axioms draw both weight slots from one family.
    """

    left_inst: MrbAlgebraInstance
    right_inst: MrbAlgebraInstance
    dim: int
    left_action: tuple[tuple[Vector, ...], ...]
    right_action: tuple[tuple[Vector, ...], ...]
    left_operators: tuple[Matrix, ...]
    right_operators: tuple[Matrix, ...]

    def __post_init__(self):
        if self.left_inst.omega != self.right_inst.omega:
            raise MalformedPresentationError("bimodule instances must share operator labels")
        if self.left_inst.weights.values != self.right_inst.weights.values:
            raise MalformedPresentationError("bimodule instances must share weights")
        _validate_action(self.left_inst.dim, self.dim, self.left_action)
        _validate_action(self.right_inst.dim, self.dim, self.right_action)

    @property
    def side(self) -> str:
        return "bimodule"

    @property
    def omega(self) -> tuple[str, ...]:
        return self.left_inst.omega

    def left_part(self) -> FdLeftModule:
        return FdLeftModule(self.left_inst, self.dim, self.left_action, self.left_operators)

    def right_part(self) -> FdRightModule:
        return FdRightModule(self.right_inst, self.dim, self.right_action, self.right_operators)

    def left_action_matrix(self, r: Sequence) -> Matrix:
        return _action_matrix(self.left_action, vector(r), self.dim)

    def right_action_matrix(self, r: Sequence) -> Matrix:
        return _action_matrix(self.right_action, vector(r), self.dim)


@dataclass(frozen=True)
class ModuleHom:
    """Structure-preserving map between same-side modules over one instance."""

    source: FdLeftModule | FdRightModule
    target: FdLeftModule | FdRightModule
    matrix: Matrix

    def __post_init__(self):
        if self.source.side != self.target.side:
            raise ValueError("source and target must be modules of the same side")
        if self.source.inst != self.target.inst:
            raise ValueError("source and target must live over the same instance")
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("hom matrix has wrong shape")

    def __call__(self, v: Sequence) -> Vector:
        return self.matrix.apply(v)

    def is_intertwiner(self) -> bool:
        inst = self.source.inst
        for i in range(inst.dim):
            b = inst.algebra.basis_vector(i)
            if self.matrix @ self.source.action_matrix(b) != self.target.action_matrix(b) @ self.matrix:
                return False
        for w in inst.omega:
            if self.matrix @ self.source.operator(w) != self.target.operator(w) @ self.matrix:
                return False
        return True

    def is_injective(self) -> bool:
        return self.matrix.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.matrix.rank() == self.target.dim


def module_hom(source, target, matrix, check: bool = True) -> ModuleHom:
    h = ModuleHom(source, target, matrix if isinstance(matrix, Matrix) else Matrix(matrix))
    if check and not h.is_intertwiner():
        raise ValueError("matrix does not intertwine the actions and operator families")
    return h


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_action_laws(mod: FdLeftModule | FdRightModule) -> CheckReport:
    """R-module laws of the plain action: associativity and unit."""
    inst = mod.inst
    alg = inst.algebra
    left = mod.side == "left"
    violations = []
    unit_m = mod.action_matrix(alg.unit)
    if unit_m != Matrix.identity(mod.dim):
        violations.append(Violation("unit-action", ()))
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
            if left:
                # (b_i b_j) v = b_i (b_j v)
                lhs = mod.action_matrix(prod)
                rhs = mod.action_matrix(alg.basis_vector(i)) @ mod.action_matrix(alg.basis_vector(j))
            else:
                # v (b_i b_j) = (v b_i) b_j
                lhs = mod.action_matrix(prod)
                rhs = mod.action_matrix(alg.basis_vector(j)) @ mod.action_matrix(alg.basis_vector(i))
            if lhs != rhs:
                violations.append(Violation("action-associativity", (i, j)))
    return CheckReport("action-laws", tuple(violations))


def check_left_module(mod: FdLeftModule) -> CheckReport:
    """Exhaustive verification of the left axiom on basis pairs."""
    laws = check_action_laws(mod)
    if not laws.ok:
        raise PreconditionError("plain module laws fail; fix the action tensor first")
    inst = mod.inst
    alg = inst.algebra
    violations = []
    for a in inst.omega:
        la = inst.weight(a)
        for b in inst.omega:
            lb = inst.weight(b)
            ma, mb = mod.operator(a), mod.operator(b)
            for i in range(alg.dim):
                x = alg.basis_vector(i)
                ax = mod.action_matrix(x)
                apx = mod.action_matrix(inst.apply_operator(a, x))
                lhs = apx @ mb
                rhs = ma @ ax @ mb + mb @ apx + (ma @ ax).scale(lb) + (mb @ ax).scale(la)
                if lhs != rhs:
                    diff = lhs - rhs
                    for p in range(mod.dim):
                        col = diff.col(p)
                        if not is_zero_vector(col):
                            violations.append(Violation("left-module", (i, p, a, b), col))
    return CheckReport("left-module", tuple(violations))


def check_right_module(mod: FdRightModule) -> CheckReport:
    """Exhaustive verification of the right axiom on basis pairs."""
    laws = check_action_laws(mod)
    if not laws.ok:
        raise PreconditionError("plain module laws fail; fix the action tensor first")
    inst = mod.inst
    alg = inst.algebra
    violations = []
    for a in inst.omega:
        la = inst.weight(a)
        for b in inst.omega:
            lb = inst.weight(b)
            ma, mb = mod.operator(a), mod.operator(b)
            for i in range(alg.dim):
                x = alg.basis_vector(i)
                bx = mod.action_matrix(x)
                bpx = mod.action_matrix(inst.apply_operator(a, x))
                # m_b(v P_a(x)) = m_b(m_a(v) x) + m_b(v) P_a(x) + l_b m_a(v) x + l_a m_b(v) x
                lhs = mb @ bpx
                rhs = mb @ bx @ ma + bpx @ mb + (bx @ ma).scale(lb) + (bx @ mb).scale(la)
                if lhs != rhs:
                    diff = lhs - rhs
                    for p in range(mod.dim):
                        col = diff.col(p)
                        if not is_zero_vector(col):
                            violations.append(Violation("right-module", (i, p, a, b), col))
    return CheckReport("right-module", tuple(violations))


def check_bimodule(bm: FdBimodule) -> CheckReport:
    """The two one-sided axioms plus the three compatibility families."""
    left_report = check_left_module(bm.left_part())
    right_report = check_right_module(bm.right_part())
    violations = list(left_report.violations) + list(right_report.violations)
    la = bm.left_inst.algebra
    ra = bm.right_inst.algebra
    for i in range(la.dim):
        ai = bm.left_action_matrix(la.basis_vector(i))
        for j in range(ra.dim):
            bj = bm.right_action_matrix(ra.basis_vector(j))
            if ai @ bj != bj @ ai:
                violations.append(Violation("actions-commute", (i, j)))
    for k, w in enumerate(bm.omega):
        mw = bm.right_operators[k]
        for i in range(la.dim):
            ai = bm.left_action_matrix(la.basis_vector(i))
            if mw @ ai != ai @ mw:
                violations.append(Violation("right-family-vs-left-action", (w, i)))
        nw = bm.left_operators[k]
        for j in range(ra.dim):
            bj = bm.right_action_matrix(ra.basis_vector(j))
            if nw @ bj != bj @ nw:
                violations.append(Violation("left-family-vs-right-action", (w, j)))
    for k, w in enumerate(bm.omega):
        for k2, w2 in enumerate(bm.omega):
            if bm.right_operators[k] @ bm.left_operators[k2] != bm.left_operators[k2] @ bm.right_operators[k]:
                violations.append(Violation("families-commute", (w, w2)))
    return CheckReport("bimodule", tuple(violations))


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------

def _regular_action(inst: MrbAlgebraInstance, left: bool):
    alg = inst.algebra
    out = []
    for i in range(alg.dim):
        bi = alg.basis_vector(i)
        rows = []
        for p in range(alg.dim):
            bp = alg.basis_vector(p)
            rows.append(alg.multiply(bi, bp) if left else alg.multiply(bp, bi))
        out.append(tuple(rows))
    return tuple(out)


def regular_left_module(inst: MrbAlgebraInstance) -> FdLeftModule:
    """R acting on itself on the left, operators P_w."""
    return FdLeftModule(inst, inst.dim, _regular_action(inst, True), inst.operators.matrices)


def regular_right_module(inst: MrbAlgebraInstance) -> FdRightModule:
    return FdRightModule(inst, inst.dim, _regular_action(inst, False), inst.operators.matrices)


def regular_bimodule(inst: MrbAlgebraInstance) -> FdBimodule:
    """R as a bimodule over itself with both families equal to P.

    Whether this satisfies the bimodule compatibilities depends on the
    instance; run check_bimodule on the result.
    """
    return FdBimodule(
        inst,
        inst,
        inst.dim,
        _regular_action(inst, True),
        _regular_action(inst, False),
        inst.operators.matrices,
        inst.operators.matrices,
    )


def zero_module(inst: MrbAlgebraInstance, side: str = "left") -> FdLeftModule | FdRightModule:
    cls = FdLeftModule if side == "left" else FdRightModule
    action = tuple(() for _ in range(inst.dim))
    return cls(inst, 0, action, tuple(Matrix.zero(0, 0) for _ in inst.omega))


@dataclass(frozen=True)
class DirectSum:
    module: FdLeftModule | FdRightModule
    inclusions: tuple[ModuleHom, ...]
    projections: tuple[ModuleHom, ...]


def direct_sum(mods: Sequence[FdLeftModule | FdRightModule],
               inst: MrbAlgebraInstance | None = None) -> DirectSum:
    """Block-diagonal direct sum with inclusion and projection homs."""
    if mods:
        inst = mods[0].inst
        side = mods[0].side
        if any(m.inst != inst or m.side != side for m in mods):
            raise ValueError("all summands must share the instance and side")
    else:
        if inst is None:
            raise ValueError("an instance is required for the empty direct sum")
        side = "left"
    cls = FdLeftModule if side == "left" else FdRightModule
    total = sum(m.dim for m in mods)
    offsets = list(itertools.accumulate([0] + [m.dim for m in mods]))
    action = []
    for i in range(inst.dim):
        rows = []
        for k, m in enumerate(mods):
            for p in range(m.dim):
                row = [Fraction(0)] * total
                for q, a in enumerate(m.action[i][p]):
                    row[offsets[k] + q] = a
                rows.append(tuple(row))
        action.append(tuple(rows))
    operators = tuple(
        Matrix.block_diag([m.operators[w] for m in mods]) if mods else Matrix.zero(0, 0)
        for w in range(len(inst.omega))
    )
    out = cls(inst, total, tuple(action), operators)
    inclusions = []
    projections = []
    for k, m in enumerate(mods):
        inc = Matrix([[1 if (i == offsets[k] + j) else 0 for j in range(m.dim)] for i in range(total)])
        prj = Matrix([[1 if (j == offsets[k] + i) else 0 for j in range(total)] for i in range(m.dim)])
        inclusions.append(module_hom(m, out, inc))
        projections.append(module_hom(out, m, prj))
    return DirectSum(out, tuple(inclusions), tuple(projections))


def submodule_closure_check(mod: FdLeftModule | FdRightModule, sub: Subspace) -> str | None:
    """Return a description of the first closure violation, or None."""
    inst = mod.inst
    for v in sub.basis:
        for i in range(inst.dim):
            img = mod.action_matrix(inst.algebra.basis_vector(i)).apply(v)
            if not sub.contains(img):
                return f"action of basis element {inst.algebra.basis_labels[i]}"
        for w in inst.omega:
            img = mod.operator(w).apply(v)
            if not sub.contains(img):
                return f"operator {w}"
    return None


def quotient_module(mod: FdLeftModule, sub: Subspace,
                    with_projection: bool = False):
    """Quotient by an action- and operator-closed subspace.

    The induced module lives on the canonical quotient coordinates; the
    optional projection hom is the canonical epimorphism.
    """
    if sub.ambient_dim != mod.dim:
        raise ValueError("subspace lives in the wrong ambient space")
    offender = submodule_closure_check(mod, sub)
    if offender is not None:
        raise ClosureViolationError(f"subspace is not closed under {offender}")
    qs = quotient_space(mod.dim, sub.basis)
    sec = qs.section_matrix()
    inst = mod.inst
    action = []
    for i in range(inst.dim):
        ai = qs.project @ mod.action_matrix(inst.algebra.basis_vector(i)) @ sec
        action.append(tuple(ai.col(p) for p in range(qs.dim)))
    operators = tuple(qs.project @ m @ sec for m in mod.operators)
    out = type(mod)(inst, qs.dim, tuple(action), operators)
    if with_projection:
        return out, module_hom(mod, out, qs.project)
    return out


def module_constants(mod: FdLeftModule) -> Subspace:
    """Solution space of m_w(r v) = P_w(r) v over all basis r and labels w."""
    inst = mod.inst
    blocks = []
    for w in inst.omega:
        mw = mod.operator(w)
        for i in range(inst.dim):
            b = inst.algebra.basis_vector(i)
            lhs = mw @ mod.action_matrix(b)
            rhs = mod.action_matrix(inst.apply_operator(w, b))
            blocks.extend((lhs - rhs).entries)
    if not blocks:
        return Subspace.spanned_by(mod.dim, [unit_vector(mod.dim, i) for i in range(mod.dim)])
    stacked = Matrix.from_rows(blocks, cols=mod.dim)
    null = stacked.nullspace_basis()
    return Subspace.spanned_by(mod.dim, null.basis)


def restricted_free(inst: MrbAlgebraInstance, generators: Sequence[str]) -> FdLeftModule:
    """R^X with coordinatewise action and P_w applied per coordinate.

    Coordinates are grouped generator-major: (x1 slots..., x2 slots...).
    For a single generator this is the regular module on the nose.
    """
    gens = tuple(generators)
    if len(set(gens)) != len(gens):
        raise ValueError("generator names must be distinct")
    n = len(gens)
    reg = regular_left_module(inst)
    parts = [reg] * n
    if n == 0:
        return zero_module(inst, "left")
    return direct_sum(parts).module


def restricted_lift(free: FdLeftModule, images: Mapping[str, Sequence] | Sequence[Sequence],
                    target: FdLeftModule, generators: Sequence[str] | None = None) -> ModuleHom:
    """The unique hom out of a restricted free module determined by generator
    images, which must all be module constants of the target."""
    inst = free.inst
    if target.inst != inst:
        raise ValueError("target lives over a different instance")
    d = inst.dim
    if free.dim % d != 0:
        raise ValueError("module is not of restricted free shape")
    n = free.dim // d
    if isinstance(images, Mapping):
        if generators is None:
            generators = sorted(images)
        image_list = [vector(images[g]) for g in generators]
    else:
        image_list = [vector(v) for v in images]
    if len(image_list) != n:
        raise ValueError("one image per generator required")
    mc = module_constants(target)
    for k, img in enumerate(image_list):
        if not mc.contains(img):
            raise PreconditionError(
                f"image of generator {k} is not a module constant of the target"
            )
    unit = inst.algebra.unit
    cols: list[Vector] = []
    for k in range(n):
        for i in range(d):
            b = inst.algebra.basis_vector(i)
            cols.append(target.action_matrix(b).apply(image_list[k]))
    mat = Matrix.from_cols(cols, rows=target.dim)
    hom = module_hom(free, target, mat, check=False)
    if not hom.is_intertwiner():
        raise AssertionError("restricted lift failed to intertwine; target axioms suspect")
    for k, img in enumerate(image_list):
        coords = zero_vector(free.dim)
        coords = list(coords)
        for i in range(d):
            coords[k * d + i] = unit[i]
        if hom(tuple(coords)) != img:
            raise AssertionError("lift does not reproduce the generator image")
    return hom


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------

def _intertwiner_space(ns: int, nt: int, src_pairs, dst_pairs) -> tuple[Matrix, ...]:
    """Basis of {f : f A = B f for each paired (A, B)}, f of shape nt x ns."""
    rows = []
    for a_mat, b_mat in zip(src_pairs, dst_pairs):
        for i in range(nt):
            for j in range(ns):
                row = [Fraction(0)] * (nt * ns)
                for k in range(ns):
                    row[i * ns + k] += a_mat.entries[k][j]
                for k in range(nt):
                    row[k * ns + j] -= b_mat.entries[i][k]
                rows.append(tuple(row))
    if not rows:
        basis = [unit_vector(nt * ns, i) for i in range(nt * ns)]
    else:
        basis = Matrix.from_rows(rows, cols=nt * ns).nullspace_basis().basis
    out = []
    for v in basis:
        out.append(Matrix([[v[i * ns + j] for j in range(ns)] for i in range(nt)]))
    return tuple(out)


def hom_space(src: FdLeftModule | FdRightModule, dst: FdLeftModule | FdRightModule) -> tuple[Matrix, ...]:
    """Basis of the space of module homs as matrices (canonical order)."""
    if src.side != dst.side:
        raise ValueError("hom space requires modules of the same side")
    if src.inst != dst.inst:
        raise ValueError("hom space requires modules over the same instance")
    inst = src.inst
    src_ms = [src.action_matrix(inst.algebra.basis_vector(i)) for i in range(inst.dim)]
    dst_ms = [dst.action_matrix(inst.algebra.basis_vector(i)) for i in range(inst.dim)]
    src_ms += [src.operator(w) for w in inst.omega]
    dst_ms += [dst.operator(w) for w in inst.omega]
    return _intertwiner_space(src.dim, dst.dim, src_ms, dst_ms)


def hom_subspace(src, dst) -> Subspace:
    """The hom space flattened to vectors, for membership tests."""
    basis = hom_space(src, dst)
    flat = [tuple(x for row in m.entries for x in row) for m in basis]
    return Subspace.spanned_by(src.dim * dst.dim, flat)


def _coords_in(basis: Sequence[Matrix], m: Matrix) -> Vector | None:
    if not basis:
        return () if m.is_zero() else None
    cols = [tuple(x for row in b.entries for x in row) for b in basis]
    flat = tuple(x for row in m.entries for x in row)
    return Matrix.from_cols(cols).solve(flat)


def hom_module(m: FdRightModule | FdLeftModule | FdBimodule,
               n: FdBimodule | FdLeftModule | FdRightModule,
               variant: str) -> FdLeftModule | FdRightModule:
    """Equip a Hom space with one of the four induced structures.

    variant "a": m right module, n bimodule over (R'', R); left R''-module,
        q_w(f) = n_w'' o f.
    variant "b": m left module, n bimodule over (R, R''); right R''-module,
        q_w(f) = n_w'' o f.
    variant "c": m bimodule over (R, R'), n left module; left R'-module,
        q_w(f) = f o m_w'.
    variant "d": m bimodule over (R', R), n right module; right R'-module,
        q_w(f) = f o m_w'.

    The auxiliary bimodule hypotheses are verified before construction and
    the output is expressed on the hom-space basis.
    """
    if variant not in ("a", "b", "c", "d"):
        raise ValueError("variant must be one of a, b, c, d")
    if variant in ("a", "b"):
        if not isinstance(n, FdBimodule):
            raise PreconditionError("variants a and b need a bimodule target")
        bireport = check_bimodule(n)
        if not bireport.ok:
            raise PreconditionError(
                f"bimodule hypothesis fails: {bireport.violations[0].kind}"
            )
        if variant == "a":
            base_src, base_dst = m, n.right_part()
            result_inst = n.left_inst
            act = n.left_action_matrix
            qops = n.left_operators
            result_side = "left"
        else:
            base_src, base_dst = m, n.left_part()
            result_inst = n.right_inst
            act = n.right_action_matrix
            qops = n.right_operators
            result_side = "right"
        if base_src.side != base_dst.side:
            raise PreconditionError("module side does not match the bimodule hypothesis")
        basis = hom_space(base_src, base_dst)
        maps_action = [
            (lambda f, a=act(result_inst.algebra.basis_vector(i)): a @ f)
            for i in range(result_inst.dim)
        ]
        maps_ops = [(lambda f, q=q: q @ f) for q in qops]
    else:
        if not isinstance(m, FdBimodule):
            raise PreconditionError("variants c and d need a bimodule source")
        bireport = check_bimodule(m)
        if not bireport.ok:
            raise PreconditionError(
                f"bimodule hypothesis fails: {bireport.violations[0].kind}"
            )
        if variant == "c":
            base_src, base_dst = m.left_part(), n
            result_inst = m.right_inst
            act = m.right_action_matrix
            qops = m.right_operators
            result_side = "left"
        else:
            base_src, base_dst = m.right_part(), n
            result_inst = m.left_inst
            act = m.left_action_matrix
            qops = m.left_operators
            result_side = "right"
        if base_src.side != base_dst.side:
            raise PreconditionError("module side does not match the bimodule hypothesis")
        basis = hom_space(base_src, base_dst)
        maps_action = [
            (lambda f, a=act(result_inst.algebra.basis_vector(i)): f @ a)
            for i in range(result_inst.dim)
        ]
        maps_ops = [(lambda f, q=q: f @ q) for q in qops]

    h = len(basis)
    action = []
    for i in range(result_inst.dim):
        rows = []
        for p in range(h):
            img = maps_action[i](basis[p])
            coords = _coords_in(basis, img)
            if coords is None:
                raise AssertionError("induced action left the hom space")
            rows.append(coords)
        action.append(tuple(rows))
    operators = []
    for mp in maps_ops:
        cols = []
        for p in range(h):
            coords = _coords_in(basis, mp(basis[p]))
            if coords is None:
                raise AssertionError("induced operator left the hom space")
            cols.append(coords)
        operators.append(Matrix.from_cols(cols, rows=h))
    cls = FdLeftModule if result_side == "left" else FdRightModule
    return cls(result_inst, h, tuple(action), tuple(operators))


def reweight_module(mod: FdLeftModule, spec: ReweightSpec) -> FdLeftModule:
    """Module over the reweighted instance with combined operator family."""
    new_inst = reweight(mod.inst, spec)
    d = mod.dim
    operators = []
    for _, coeffs in spec.rows:
        m = Matrix.zero(d, d)
        for old, a in coeffs:
            m = m + mod.operator(old).scale(a)
        operators.append(m)
    return FdLeftModule(new_inst, d, mod.action, tuple(operators))


def lift_through_epi(theta: ModuleHom, phi: ModuleHom) -> ModuleHom | None:
    """Find psi with theta o psi = phi inside the hom space, if solvable.

    theta: M -> N must be surjective; phi: S -> N.  The search runs over
    hom-space coordinates so any solution is automatically a module hom.
    """
    if theta.target.dim != phi.target.dim or theta.target != phi.target:
        raise ValueError("theta and phi must share a target")
    if not theta.is_surjective():
        raise PreconditionError("theta is not surjective")
    basis = hom_space(phi.source, theta.source)
    if not basis:
        return None if not phi.matrix.is_zero() else module_hom(
            phi.source, theta.source, Matrix.zero(theta.source.dim, phi.source.dim), check=False
        )
    cols = []
    for b in basis:
        comp = theta.matrix @ b
        cols.append(tuple(x for row in comp.entries for x in row))
    rhs = tuple(x for row in phi.matrix.entries for x in row)
    sol = Matrix.from_cols(cols).solve(rhs)
    if sol is None:
        return None
    out = Matrix.zero(theta.source.dim, phi.source.dim)
    for c, b in zip(sol, basis):
        out = out + b.scale(c)
    return module_hom(phi.source, theta.source, out, check=False)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _action_to_json(action):
    return [[[format_rational(x) for x in v] for v in block] for block in action]


def _action_from_json(data):
    return tuple(tuple(vector(v) for v in block) for block in data)


def _ops_to_json(inst, operators):
    return {
        w: [[format_rational(x) for x in row] for row in m.entries]
        for w, m in zip(inst.omega, operators)
    }


def _ops_from_json(inst, data):
    return tuple(Matrix([[frac(x) for x in row] for row in data[w]]) for w in inst.omega)


def module_to_json(mod: FdLeftModule | FdRightModule | FdBimodule) -> dict:
    if isinstance(mod, FdBimodule):
        return {
            "side": "bimodule",
            "dim": mod.dim,
            "instance": instance_to_json(mod.left_inst),
            "right_instance": instance_to_json(mod.right_inst),
            "action": _action_to_json(mod.left_action),
            "right_action": _action_to_json(mod.right_action),
            "operators": _ops_to_json(mod.left_inst, mod.left_operators),
            "right_operators": _ops_to_json(mod.right_inst, mod.right_operators),
        }
    return {
        "side": mod.side,
        "dim": mod.dim,
        "instance": instance_to_json(mod.inst),
        "action": _action_to_json(mod.action),
        "operators": _ops_to_json(mod.inst, mod.operators),
    }


def module_from_json(doc: Mapping) -> FdLeftModule | FdRightModule | FdBimodule:
    if not isinstance(doc, Mapping):
        raise ValueError("a module document must be a JSON object")
    side = doc.get("side", "left")
    inst = load_instance(doc["instance"])
    check_mrb_identity(inst)
    if side == "bimodule":
        right_inst = load_instance(doc["right_instance"])
        check_mrb_identity(right_inst)
        return FdBimodule(
            inst,
            right_inst,
            int(doc["dim"]),
            _action_from_json(doc["action"]),
            _action_from_json(doc["right_action"]),
            _ops_from_json(inst, doc["operators"]),
            _ops_from_json(right_inst, doc["right_operators"]),
        )
    cls = FdLeftModule if side == "left" else FdRightModule
    return cls(
        inst,
        int(doc["dim"]),
        _action_from_json(doc["action"]),
        _ops_from_json(inst, doc["operators"]),
    )
