"""Finite-dimensional modules over multiple Rota-Baxter algebras.

A one-sided module is its structure maps, ``maps``: the action table A_i
of each basis element b_i, then one operator matrix per label, built once
per module.  Every construction applies one transformation to each map and
turns the results back into a module with ``_from_maps``.  FdRightModule
differs from FdLeftModule only in its ``side``, which picks the order in
which the maps compose.  A bimodule is the pair of a left and a right
module on one space.  The left axiom, checked on basis pairs, is

    P_a(x) m_b(v) = m_a(x m_b(v)) + m_b(P_a(x) v)
                    + lambda_b m_a(x v) + lambda_a m_b(x v),

and one body checks it and, with every product reversed, its mirror on
right modules, by the axiom kernel of :mod:`mrb.core` on the action tables.
All verdicts (closure, surjectivity, membership) are decided by exact rank.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .core import (
    CheckReport,
    MalformedPresentationError,
    MrbAlgebraInstance,
    PreconditionError,
    ReweightSpec,
    Violation,
    _INSTANCE_BUDGET,
    _axiom_violations,
    _combination,
    _combine,
    _integer_blocks,
    _matrix_from_json,
    _matrix_to_json,
    _require_verified,
    _scalar,
    _sum_of,
    instance_to_json,
    load_instance,
    reweight,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _frozen,
    _int_product,
    _kernel,
    format_rational,
    kron_difference_rows,
    quotient_space,
    vector,
)


class ClosureViolationError(ValueError):
    """A claimed submodule is not closed under the action or the operators."""


class ArgumentError(ValueError):
    """Arguments that do not fit together, such as modules of two sides."""


def _validate_action(dim_r: int, dim_m: int, action) -> None:
    if len(action) != dim_r:
        raise MalformedPresentationError("action tensor has wrong first dimension")
    for block in action:
        if len(block) != dim_m or any(len(v) != dim_m for v in block):
            raise MalformedPresentationError("action tensor has wrong shape")


@_frozen
class FdLeftModule:
    """One-sided module: action[i][p] holds the coordinates of b_i . v_p.

    This is the one presentation of both sides; ``side`` says on which side
    the basis element b_i acts, and FdRightModule only changes it.
    """

    inst: MrbAlgebraInstance
    dim: int
    action: tuple[tuple[Vector, ...], ...]
    operators: tuple[Matrix, ...]

    side = "left"

    def __post_init__(self):
        _validate_action(self.inst.dim, self.dim, self.action)
        if len(self.operators) != len(self.inst.omega):
            raise MalformedPresentationError("one operator matrix per label required")
        for m in self.operators:
            if m.rows != self.dim or m.cols != self.dim:
                raise MalformedPresentationError("operator matrix has wrong shape")

    @cached_property
    def maps(self) -> tuple[Matrix, ...]:
        """The action table A_i of each b_i, column p being action[i][p], then
        the operators; built on first use and kept out of equality and hash."""
        return (*(Matrix.from_cols(block, rows=self.dim) for block in self.action),
                *self.operators)

    @property
    def tables(self) -> tuple[Matrix, ...]:
        """The action tables A_i, the first inst.dim structure maps."""
        return self.maps[:self.inst.dim]

    def action_matrix(self, r: Sequence) -> Matrix:
        """sum_i r_i A_i, the action of the algebra element r."""
        return _sum_of(zip(vector(r), self.tables), self.dim, self.dim)

    def operator(self, label: str) -> Matrix:
        return self.operators[self.inst.omega.index(label)]


class FdRightModule(FdLeftModule):
    """Right module: action[i][p] holds the coordinates of v_p . b_i."""

    side = "right"


def _module_class(side) -> type[FdLeftModule]:
    """The one-sided presentation class for a side name."""
    for cls in (FdLeftModule, FdRightModule):
        if cls.side == side:
            return cls
    raise ValueError(f"unknown module side {side!r}")


def _from_maps(side: str, inst: MrbAlgebraInstance, dim: int,
               maps: Sequence[Matrix]) -> FdLeftModule:
    """The module of the given side whose ``maps`` are maps, taken as they
    are; the transposes of the first inst.dim are its action tensor."""
    maps, d = tuple(maps), inst.dim
    mod = _module_class(side)(inst, dim, tuple(a.transpose().entries for a in maps[:d]), maps[d:])
    mod.__dict__["maps"] = maps
    return mod


@_frozen
class FdBimodule:
    """A left module and a right module on one space.

    ``left`` makes the space a left module over its instance, ``right`` a
    right module over its own; each part validates its own presentation.
    The pair checks what binds the parts together: one dimension, and
    instances that share labels and weights, as the coupled axioms draw
    both weight slots from one family.
    """

    left: FdLeftModule
    right: FdRightModule

    side = "bimodule"

    def __post_init__(self):
        if self.left.inst.omega != self.right.inst.omega:
            raise MalformedPresentationError("bimodule instances must share operator labels")
        if self.left.inst.weights.values != self.right.inst.weights.values:
            raise MalformedPresentationError("bimodule instances must share weights")
        if self.left.dim != self.right.dim:
            raise MalformedPresentationError("bimodule parts must share one dimension")

    @property
    def dim(self) -> int:
        return self.left.dim

    def left_action_matrix(self, r: Sequence) -> Matrix:
        return self.left.action_matrix(r)

    def right_action_matrix(self, r: Sequence) -> Matrix:
        return self.right.action_matrix(r)


@_frozen
class ModuleHom:
    """Structure-preserving map between same-side modules over one instance."""

    source: FdLeftModule | FdRightModule
    target: FdLeftModule | FdRightModule
    matrix: Matrix

    def __post_init__(self):
        if self.source.side != self.target.side:
            raise ValueError("source and target must be modules of the same side")
        if self.source.side == "bimodule":
            raise ValueError("source and target must be one-sided modules")
        if self.source.inst != self.target.inst:
            raise ValueError("source and target must live over the same instance")
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("hom matrix has wrong shape")

    def __call__(self, v: Sequence) -> Vector:
        return self.matrix.apply(v)

    def is_intertwiner(self) -> bool:
        src, dst, f = self.source, self.target, self.matrix
        return all(f @ a == b @ f for a, b in zip(src.maps, dst.maps))

    def is_injective(self) -> bool:
        return self.matrix.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.matrix.rank() == self.target.dim


def module_hom(source, target, matrix) -> ModuleHom:
    h = ModuleHom(source, target, matrix if isinstance(matrix, Matrix) else Matrix(matrix))
    if not h.is_intertwiner():
        raise ValueError("matrix does not intertwine the actions and operator families")
    return h


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _product_order(mod: FdLeftModule):
    """Composition of integer action and operator matrices in the order of
    mod's side: mul(x, y) is x y on a left module and y x on a right one, so
    one formula states both the left axiom and its mirror."""
    if mod.side == "left":
        return _int_product
    return lambda x, y: _int_product(y, x)


def _action_law_violations(mod: FdLeftModule, den: int, unit: Sequence[int],
                           sc, acts) -> list[Violation]:
    """The unit law A_u = 1 and associativity A_{b_i b_j} = mul(A_i, A_j),
    that is (b_i b_j) v = b_i (b_j v), or v (b_i b_j) = (v b_i) b_j, on the
    unit, the structure constants and the tables A_i cleared to integers
    over one denominator D: both sides of each law are D^2 times their
    values."""
    n = mod.dim
    mul = _product_order(mod)
    violations = []
    if _combination(unit, acts, n) != _scalar(n, den * den):
        violations.append(Violation("unit-action", ()))
    for i, ai in enumerate(acts):
        for j, aj in enumerate(acts):
            if _combination(sc[i][j], acts, n) != mul(ai, aj):
                violations.append(Violation("action-associativity", (i, j)))
    return violations


def check_action_laws(mod: FdLeftModule) -> CheckReport:
    """R-module laws of the plain action: associativity and unit."""
    alg, d = mod.inst.algebra, mod.inst.dim
    den, ((unit,), *blocks) = _integer_blocks(
        [[alg.unit], *alg.structure_constants, *(m.entries for m in mod.tables)])
    violations = _action_law_violations(mod, den, unit, blocks[:d], blocks[d:])
    return CheckReport("action-laws", tuple(violations))


def check_left_module(mod: FdLeftModule) -> CheckReport:
    """The axiom of mod's side on every basis element, label pair and column,
    after the plain action laws; check_right_module is this same function.

    Written for the left side; on a right module every product is reversed:
    m_b(v P_a(x)) = m_b(m_a(v) x) + m_b(v) P_a(x) + l_b m_a(v) x + l_a m_b(v) x.
    The unit, the structure constants, the weights, the instance's operators
    and the module's structure maps are cleared to integers over one
    denominator, once per check, and the action laws and the axiom kernel
    decide every law on those integer matrices.
    """
    inst, kind = mod.inst, f"{mod.side}-module"
    s, d = len(inst.omega), inst.dim
    den, ((unit, weights), *blocks) = _integer_blocks(
        [[inst.algebra.unit, inst.weights.values], *inst.algebra.structure_constants,
         *(m.entries for m in (*inst.operators.matrices, *mod.maps))])
    sc, ops, acts, mops = blocks[:d], blocks[d:d + s], blocks[d + s:2 * d + s], blocks[2 * d + s:]
    if _action_law_violations(mod, den, unit, sc, acts):
        raise PreconditionError("plain module laws fail; fix the action tensor first")
    return CheckReport(kind, tuple(_axiom_violations(
        kind, inst.omega, den, weights, ops, acts, mops, _product_order(mod))))


check_right_module = check_left_module


def check_bimodule(bm: FdBimodule) -> CheckReport:
    """The two one-sided axioms, then the commutation families: the two
    actions, each operator family with the other side's action, label by
    label, and the two families; a family pairs matrices named by basis
    index or label.  The families are compared on the maps of both parts
    cleared to integers over one denominator."""
    omega, left, right = bm.left.inst.omega, bm.left, bm.right
    _, maps = _integer_blocks([m.entries for m in (*left.maps, *right.maps)])
    maps_l, maps_r = maps[:len(left.maps)], maps[len(left.maps):]
    d_l, d_r = left.inst.dim, right.inst.dim
    lefts, rights = list(enumerate(maps_l[:d_l])), list(enumerate(maps_r[:d_r]))
    m_ops, n_ops = list(zip(omega, maps_r[d_r:])), list(zip(omega, maps_l[d_l:]))
    families = [("actions-commute", lefts, rights)]
    for m, n in zip(m_ops, n_ops):
        families += [("right-family-vs-left-action", [m], lefts),
                     ("left-family-vs-right-action", [n], rights)]
    families.append(("families-commute", m_ops, n_ops))
    violations = [*check_left_module(bm.left).violations,
                  *check_left_module(bm.right).violations]
    violations += [Violation(kind, (x, y)) for kind, xs, ys in families
                   for x, a in xs for y, b in ys if _int_product(a, b) != _int_product(b, a)]
    return CheckReport("bimodule", tuple(violations))


def _require_bimodule(bm: FdBimodule) -> None:
    """Raise PreconditionError unless the bimodule passes check_bimodule."""
    report = check_bimodule(bm)
    if not report.ok:
        raise PreconditionError(f"bimodule hypothesis fails: {report.violations[0].kind}")


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------

def regular_left_module(inst: MrbAlgebraInstance) -> FdLeftModule:
    """R acting on itself on the left, operators P_w: b_i . b_p is b_i b_p."""
    return FdLeftModule(inst, inst.dim, inst.algebra.structure_constants, inst.operators.matrices)


def regular_right_module(inst: MrbAlgebraInstance) -> FdRightModule:
    """R acting on itself on the right: b_p . b_i is b_p b_i."""
    return FdRightModule(inst, inst.dim, tuple(zip(*inst.algebra.structure_constants)),
                         inst.operators.matrices)


def regular_bimodule(inst: MrbAlgebraInstance) -> FdBimodule:
    """R as a bimodule over itself with both families equal to P.

    Whether this satisfies the bimodule compatibilities depends on the
    instance; run check_bimodule on the result.
    """
    return FdBimodule(regular_left_module(inst), regular_right_module(inst))


def zero_module(inst: MrbAlgebraInstance, side: str = "left") -> FdLeftModule:
    return _from_maps(side, inst, 0, [Matrix.zero(0, 0)] * (inst.dim + len(inst.omega)))


@_frozen
class DirectSum:
    """A direct sum module with its inclusion and projection homs, one per summand."""

    module: FdLeftModule | FdRightModule
    inclusions: tuple[ModuleHom, ...]
    projections: tuple[ModuleHom, ...]


def direct_sum(mods: Sequence[FdLeftModule | FdRightModule],
               inst: MrbAlgebraInstance | None = None) -> DirectSum:
    """Block-diagonal direct sum with inclusion and projection homs.  A sum
    whose d + s structure maps, total x total each, hold more entries than
    `_INSTANCE_BUDGET` is refused before any is built."""
    inst, side = (mods[0].inst, mods[0].side) if mods else (inst, "left")
    if inst is None:
        raise ArgumentError("an instance is required for the empty direct sum")
    if any(m.inst != inst or m.side != side for m in mods):
        raise ArgumentError("all summands must share the instance and side")
    offsets = list(itertools.accumulate([0] + [m.dim for m in mods]))
    total = offsets[-1]
    count = (inst.dim + len(inst.omega)) * total * total
    if count > _INSTANCE_BUDGET:
        raise ArgumentError(f"a direct sum of dimension {total} asks for {count} structure-map "
                            f"entries; the budget is {_INSTANCE_BUDGET}")
    out = _from_maps(side, inst, total, [Matrix.block_diag([m.maps[k] for m in mods])
                                         for k in range(inst.dim + len(inst.omega))])
    eye = Matrix.identity(total).entries
    inclusions = []
    projections = []
    for k, m in enumerate(mods):
        prj = Matrix._shaped(eye[offsets[k]:offsets[k + 1]], m.dim, total)
        inclusions.append(module_hom(m, out, prj.transpose()))
        projections.append(module_hom(out, m, prj))
    return DirectSum(out, tuple(inclusions), tuple(projections))


def submodule_closure_check(mod: FdLeftModule | FdRightModule, sub: Subspace) -> str | None:
    """Return a description of the first closure violation, or None."""
    names = (*(f"action of basis element {b}" for b in mod.inst.algebra.basis_labels),
             *(f"operator {w}" for w in mod.inst.omega))
    for v in sub.basis:
        for name, x in zip(names, mod.maps):
            if not sub.contains(x.apply(v)):
                return name
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
    out = _from_maps(mod.side, mod.inst, qs.dim,
                     [qs.project @ x.columns(qs.free) for x in mod.maps])
    if with_projection:
        return out, module_hom(mod, out, qs.project)
    return out


def module_constants(mod: FdLeftModule) -> Subspace:
    """The v with m_w(r v) = P_w(r) v for every r and label w (m_w(v r) =
    v P_w(r) on a right module), in canonical basis: the values f(1) of the
    homs f from the regular module of mod's side, as f(r) = r f(1).  That
    reading needs the plain action laws, which are checked first."""
    if not check_action_laws(mod).ok:
        raise PreconditionError("plain module laws fail; fix the action tensor first")
    regular = regular_left_module if mod.side == "left" else regular_right_module
    homs = hom_space(regular(mod.inst), mod)
    return Subspace.spanned_by(mod.dim, [f.apply(mod.inst.algebra.unit) for f in homs])


def restricted_free(inst: MrbAlgebraInstance, generators: Sequence[str]) -> FdLeftModule:
    """R^X with coordinatewise action and P_w applied per coordinate.

    Coordinates are grouped generator-major: (x1 slots..., x2 slots...).
    For a single generator this is the regular module on the nose.
    """
    gens = tuple(generators)
    if len(set(gens)) != len(gens):
        raise ArgumentError("generator names must be distinct")
    return direct_sum([regular_left_module(inst)] * len(gens), inst).module


def restricted_lift(free: FdLeftModule, images: Sequence[Sequence],
                    target: FdLeftModule) -> ModuleHom:
    """The unique hom out of a restricted free module determined by generator
    images, one per generator in order, which must all be module constants
    of the target: for each image_k a hom f: R -> target with f(1) = image_k
    exists, and the lift is those homs side by side."""
    inst = free.inst
    if target.inst != inst:
        raise ValueError("target lives over a different instance")
    d = inst.dim
    if free.dim % d != 0:
        raise ValueError("module is not of restricted free shape")
    n = free.dim // d
    image_list = [vector(v) for v in images]
    if len(image_list) != n:
        raise ValueError("one image per generator required")
    mc = module_constants(target)
    for k, img in enumerate(image_list):
        if not mc.contains(img):
            raise PreconditionError(
                f"image of generator {k} is not a module constant of the target"
            )
    # the slot of b_i in generator k's copy of R goes to b_i . image_k
    mat = Matrix.from_cols([act.apply(img) for img in image_list for act in target.tables],
                           rows=target.dim)
    hom = module_hom(free, target, mat)
    zero = (Fraction(0),) * d
    for k, img in enumerate(image_list):
        if hom(zero * k + tuple(inst.algebra.unit) + zero * (n - k - 1)) != img:
            raise AssertionError("lift does not reproduce the generator image")
    return hom


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------

def _intertwiner_space(ns: int, nt: int, src_pairs, dst_pairs) -> tuple[Matrix, ...]:
    """Basis of {f : f A = B f for each paired (A, B)}, f of shape nt x ns.

    With f flattened row by row, B f - f A is (B (x) I - I (x) A^T) f, so
    the equations are the sparse rows of these Kronecker differences, pair
    by pair, and the basis is the kernel read off their one elimination.
    """
    rows = [row for a, b in zip(src_pairs, dst_pairs)
            for row in kron_difference_rows(b, a.transpose())]
    return tuple(Matrix._shaped([v[i * ns:(i + 1) * ns] for i in range(nt)], nt, ns)
                 for v in _kernel(rows, nt * ns)[1])


def hom_space(src: FdLeftModule | FdRightModule, dst: FdLeftModule | FdRightModule) -> tuple[Matrix, ...]:
    """Basis of the space of module homs as matrices (canonical order)."""
    if src.side != dst.side:
        raise ArgumentError("hom space requires modules of the same side")
    if src.inst != dst.inst:
        raise ArgumentError("hom space requires modules over the same instance")
    return _intertwiner_space(src.dim, dst.dim, src.maps, dst.maps)


def hom_subspace(src, dst) -> Subspace:
    """The hom space flattened to vectors, for membership tests."""
    basis = hom_space(src, dst)
    flat = [tuple(x for row in m.entries for x in row) for m in basis]
    return Subspace.spanned_by(src.dim * dst.dim, flat)


def _coords_in(basis: Sequence[Matrix], ms: Sequence[Matrix]) -> tuple[Vector, ...] | None:
    """Coordinates of each of ms over the matrices of basis, read off one
    elimination of [basis | ms]; None if one lies outside their span."""
    flat = [tuple(x for row in b.entries for x in row) for b in (*basis, *ms)]
    n = len(basis)
    return Matrix.from_cols(flat[:n], rows=len(flat[0]) if flat else 0)._solve_many(flat[n:])


# variant: (the argument that is the bimodule, the part of it in the Hom
# base, the part of it that acts on the Hom space, the side of the result).
# The acting part composes after f when the bimodule is the target and
# before f when it is the source.
_HOM_VARIANTS = {
    "a": ("target", "right", "left", "left"),
    "b": ("target", "left", "right", "right"),
    "c": ("source", "left", "right", "left"),
    "d": ("source", "right", "left", "right"),
}


def hom_module(m: FdLeftModule | FdBimodule, n: FdLeftModule | FdBimodule,
               variant: str) -> FdLeftModule:
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
    if variant not in _HOM_VARIANTS:
        raise ValueError("variant must be one of a, b, c, d")
    role, base_side, acting_side, result_side = _HOM_VARIANTS[variant]
    bm = n if role == "target" else m
    if not isinstance(bm, FdBimodule):
        same_role = " and ".join(v for v, row in _HOM_VARIANTS.items() if row[0] == role)
        raise ArgumentError(f"variants {same_role} need a bimodule {role}")
    _require_bimodule(bm)
    base, acting = getattr(bm, base_side), getattr(bm, acting_side)
    post = role == "target"
    base_src, base_dst = (m, base) if post else (base, n)
    if base_src.side != base_dst.side:
        raise ArgumentError("module side does not match the bimodule hypothesis")
    basis = hom_space(base_src, base_dst)
    # column j of the k-th map: the coordinates of x_k o f_j (post) or
    # f_j o x_k (pre), for every acting map x_k off one elimination
    coords = _coords_in(basis, [x @ f if post else f @ x for x in acting.maps for f in basis])
    if coords is None:
        raise AssertionError("induced map left the hom space")
    dim = len(basis)
    return _from_maps(result_side, acting.inst, dim,
                      [Matrix._shaped(zip(*coords[k * dim:(k + 1) * dim]), dim, dim)
                       for k in range(len(acting.maps))])


def reweight_module(mod: FdLeftModule, spec: ReweightSpec) -> FdLeftModule:
    """Module over the reweighted instance with combined operator family."""
    new_inst = reweight(mod.inst, spec)
    return _from_maps(mod.side, new_inst, mod.dim,
                      (*mod.tables, *_combine(spec, mod.operator, mod.dim)))


def lift_through_epi(theta: ModuleHom, phi: ModuleHom) -> ModuleHom | None:
    """Find psi with theta o psi = phi inside the hom space, if solvable.

    theta: M -> N must be surjective; phi: S -> N.  The search runs over
    hom-space coordinates so any solution is automatically a module hom.
    """
    if theta.target != phi.target:
        raise ArgumentError("theta and phi must share a target")
    if not theta.is_surjective():
        raise PreconditionError("theta is not surjective")
    basis = hom_space(phi.source, theta.source)
    coords = _coords_in([theta.matrix @ b for b in basis], [phi.matrix])
    if coords is None:
        return None
    out = _sum_of(zip(coords[0], basis), theta.source.dim, phi.source.dim)
    return ModuleHom(phi.source, theta.source, out)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _part_to_json(mod: FdLeftModule, prefix: str = "") -> dict:
    """The fields of a one-sided module but its side and dim, under prefix."""
    return {
        prefix + "instance": instance_to_json(mod.inst),
        prefix + "action": [[[format_rational(x) for x in v] for v in block]
                            for block in mod.action],
        prefix + "operators": {w: _matrix_to_json(m) for w, m in zip(mod.inst.omega, mod.operators)},
    }


def module_to_json(mod: FdLeftModule | FdRightModule | FdBimodule) -> dict:
    """A one-sided module's fields; a bimodule's are its left part's plus
    its right part's under a ``right_`` prefix, with one shared ``dim``."""
    if isinstance(mod, FdBimodule):
        parts = {**_part_to_json(mod.left), **_part_to_json(mod.right, "right_")}
    else:
        parts = _part_to_json(mod)
    return {"side": mod.side, "dim": mod.dim, **parts}


def _part_from_json(doc: Mapping, side: str, prefix: str = "") -> FdLeftModule:
    """The module of the given side in doc's fields under prefix."""
    inst = _require_verified(load_instance(doc[prefix + "instance"]), prefix + "instance")
    return _module_class(side)(
        inst, int(doc["dim"]),
        tuple(tuple(vector(v) for v in block) for block in doc[prefix + "action"]),
        tuple(_matrix_from_json(doc[prefix + "operators"][w]) for w in inst.omega))


def module_from_json(doc: Mapping) -> FdLeftModule | FdRightModule | FdBimodule:
    if not isinstance(doc, Mapping):
        raise ValueError("a module document must be a JSON object")
    side = doc.get("side", "left")
    if side == "bimodule":
        return FdBimodule(_part_from_json(doc, "left"), _part_from_json(doc, "right", "right_"))
    return _part_from_json(doc, side)
