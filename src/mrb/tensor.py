"""Tensor products of modules as explicit quotient spaces, and flatness probes.

The tensor of a right module M and a left module N is the quotient of the
plain coordinate tensor space by the balancing relations

    (v . r) (x) w - v (x) (r . w)          for basis r,
    m_w(v) (x) w - v (x) n_w(w)            for each label w,

enumerated on basis pairs (the additive relation families are absorbed by
working linearly over Q).  Induced maps, bimodule structures, the Hom and
tensor adjunction, and injectivity-preservation probes are all computed on
the resulting quotient coordinates with exact rank decisions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import CheckReport, PreconditionError, Violation
from .linalg import Matrix, QuotientSpace, Vector, quotient_space, vector
from .modules import (
    _coords_in,
    FdBimodule,
    FdLeftModule,
    FdRightModule,
    ModuleHom,
    check_bimodule,
    direct_sum,
    hom_space,
)


@dataclass(frozen=True)
class TensorSpace:
    """Quotient presentation of M (x) N for right M and left N.

    Ambient coordinates are pairs (p, q) flattened as p * dim(N) + q; zeta
    sends a vector pair to the projected coordinates of its pure tensor.
    """

    m_factor: FdRightModule
    n_factor: FdLeftModule
    quotient: QuotientSpace
    relations: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def ambient_dim(self) -> int:
        return self.quotient.ambient_dim

    def pure_tensor_ambient(self, mvec: Sequence, nvec: Sequence) -> Vector:
        mvec, nvec = vector(mvec), vector(nvec)
        dn = self.n_factor.dim
        out = [Fraction(0)] * (self.m_factor.dim * dn)
        for p, a in enumerate(mvec):
            if a == 0:
                continue
            for q, b in enumerate(nvec):
                if b != 0:
                    out[p * dn + q] = a * b
        return tuple(out)

    def zeta(self, mvec: Sequence, nvec: Sequence) -> Vector:
        return self.quotient.project.apply(self.pure_tensor_ambient(mvec, nvec))


def tensor_product(m: FdRightModule, n: FdLeftModule) -> TensorSpace:
    """Quotient of the coordinate tensor space by the balancing relations."""
    if m.inst != n.inst:
        raise ValueError("tensor factors must live over the same instance")
    if m.side != "right" or n.side != "left":
        raise ValueError("tensor_product takes a right module and a left module")
    inst = m.inst
    dm, dn = m.dim, n.dim
    ambient = dm * dn
    relations: list[Vector] = []

    def pure(p_vec: Vector, q_vec: Vector) -> list[Fraction]:
        out = [Fraction(0)] * ambient
        for p, a in enumerate(p_vec):
            if a == 0:
                continue
            for q, b in enumerate(q_vec):
                if b != 0:
                    out[p * dn + q] += a * b
        return out

    for i in range(inst.dim):
        r = inst.algebra.basis_vector(i)
        am = m.action_matrix(r)
        an = n.action_matrix(r)
        for p in range(dm):
            vp = tuple(Fraction(1 if t == p else 0) for t in range(dm))
            for q in range(dn):
                wq = tuple(Fraction(1 if t == q else 0) for t in range(dn))
                row = pure(am.col(p), wq)
                sub = pure(vp, an.col(q))
                relations.append(tuple(a - b for a, b in zip(row, sub)))
    for w in inst.omega:
        mw = m.operator(w)
        nw = n.operator(w)
        for p in range(dm):
            vp = tuple(Fraction(1 if t == p else 0) for t in range(dm))
            for q in range(dn):
                wq = tuple(Fraction(1 if t == q else 0) for t in range(dn))
                row = pure(mw.col(p), wq)
                sub = pure(vp, nw.col(q))
                relations.append(tuple(a - b for a, b in zip(row, sub)))
    qs = quotient_space(ambient, relations)
    return TensorSpace(m, n, qs, tuple(relations))


def bilinearity_report(t: TensorSpace) -> CheckReport:
    """Verify all four relation families vanish under the projection.

    The additive families hold identically in the linearized ambient space;
    they are still instantiated on basis pairs alongside the balancing
    families.
    """
    violations = []
    proj = t.quotient.project
    m, n = t.m_factor, t.n_factor
    inst = m.inst
    for p in range(m.dim):
        vp = tuple(Fraction(1 if i == p else 0) for i in range(m.dim))
        vp2 = tuple(Fraction(2 if i == p else 0) for i in range(m.dim))
        for q in range(n.dim):
            wq = tuple(Fraction(1 if i == q else 0) for i in range(n.dim))
            lhs = t.zeta(tuple(a + b for a, b in zip(vp, vp2)), wq)
            rhs = tuple(a + b for a, b in zip(t.zeta(vp, wq), t.zeta(vp2, wq)))
            if lhs != rhs:
                violations.append(Violation("additivity-left", (p, q)))
            lhs = t.zeta(vp, tuple(2 * a for a in wq))
            rhs = tuple(2 * a for a in t.zeta(vp, wq))
            if lhs != rhs:
                violations.append(Violation("additivity-right", (p, q)))
    for idx, rel in enumerate(t.relations):
        img = proj.apply(rel)
        if any(a != 0 for a in img):
            violations.append(Violation("balancing", (idx,), img))
    return CheckReport("bilinearity", tuple(violations))


def induced_map(src: TensorSpace, dst: TensorSpace, theta: ModuleHom,
                side: str = "n") -> Matrix:
    """Matrix of id (x) theta (side "n") or theta (x) id (side "m") between
    tensor quotients, after checking well-definedness on cosets."""
    if side == "n":
        if theta.source != src.n_factor or theta.target != dst.n_factor:
            raise ValueError("theta must map the left-module factors")
        if src.m_factor != dst.m_factor:
            raise ValueError("the fixed factor must agree")
        ambient = Matrix.identity(src.m_factor.dim).kron(theta.matrix)
    elif side == "m":
        if theta.source != src.m_factor or theta.target != dst.m_factor:
            raise ValueError("theta must map the right-module factors")
        if src.n_factor != dst.n_factor:
            raise ValueError("the fixed factor must agree")
        ambient = theta.matrix.kron(Matrix.identity(src.n_factor.dim))
    else:
        raise ValueError("side must be 'n' or 'm'")
    return _descend(src, dst, ambient, "induced map")


def _descend(src: TensorSpace, dst: TensorSpace, ambient: Matrix, what: str) -> Matrix:
    """The map of quotients induced by an ambient matrix, after checking
    that it sends every relation of src into the relations of dst."""
    proj_ambient = dst.quotient.project @ ambient
    for rel in src.relations:
        if any(a != 0 for a in proj_ambient.apply(rel)):
            raise AssertionError(f"{what} is not well-defined on cosets")
    return proj_ambient @ src.quotient.section_matrix()


def tensor_left_structure(bimod: FdBimodule, t: TensorSpace) -> FdLeftModule:
    """Left module structure r' . (m (x) s) = (r' m) (x) s on the quotient.

    The bimodule's right part must be the tensor's right-module factor; the
    left instance supplies the action and the q operators come from the
    bimodule's left family.
    """
    if bimod.right_part() != t.m_factor:
        raise PreconditionError("bimodule right part must be the tensor's M factor")
    report = check_bimodule(bimod)
    if not report.ok:
        raise PreconditionError(f"bimodule hypothesis fails: {report.violations[0].kind}")
    inst = bimod.left_inst
    idn = Matrix.identity(t.n_factor.dim)
    action = []
    for i in range(inst.dim):
        amb = bimod.left_action_matrix(inst.algebra.basis_vector(i)).kron(idn)
        qa = _descend(t, t, amb, "structure operator")
        action.append(tuple(qa.col(p) for p in range(t.dim)))
    operators = tuple(
        _descend(t, t, mw.kron(idn), "structure operator") for mw in bimod.left_operators
    )
    return FdLeftModule(inst, t.dim, tuple(action), operators)


def tensor_right_structure(t: TensorSpace, bimod: FdBimodule) -> FdRightModule:
    """Right module structure (m (x) s) . r' = m (x) (s r') on the quotient.

    The bimodule's left part must be the tensor's left-module factor; the
    right instance and the bimodule's right family supply the structure.
    """
    if bimod.left_part() != t.n_factor:
        raise PreconditionError("bimodule left part must be the tensor's N factor")
    report = check_bimodule(bimod)
    if not report.ok:
        raise PreconditionError(f"bimodule hypothesis fails: {report.violations[0].kind}")
    inst = bimod.right_inst
    idm = Matrix.identity(t.m_factor.dim)
    action = []
    for i in range(inst.dim):
        amb = idm.kron(bimod.right_action_matrix(inst.algebra.basis_vector(i)))
        qa = _descend(t, t, amb, "structure operator")
        action.append(tuple(qa.col(p) for p in range(t.dim)))
    operators = tuple(
        _descend(t, t, idm.kron(mw), "structure operator") for mw in bimod.right_operators
    )
    return FdRightModule(inst, t.dim, tuple(action), operators)


# ---------------------------------------------------------------------------
# Hom-tensor adjunction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdjunctionReport:
    dim_hom_tensor: int
    dim_hom_hom: int
    mutually_inverse: bool

    @property
    def ok(self) -> bool:
        return self.mutually_inverse and self.dim_hom_tensor == self.dim_hom_hom


def adjunction_check(m: FdRightModule, s_bimod: FdBimodule, t_mod: FdRightModule) -> AdjunctionReport:
    """Compare Hom(M (x) S, T) with Hom(M, Hom(S, T)) through the unit maps
    th(f)(m)(s) = f(m (x) s) and th'(g)(m (x) s) = g(m)(s).

    M is a right module over S's left instance, T a right module over S's
    right instance.  Both Hom spaces are computed as subspaces, the two maps
    as matrices between them, and mutual inverseness as exact identities.
    """
    from .modules import hom_module

    if m.inst != s_bimod.left_inst:
        raise ValueError("M must be a right module over the bimodule's left instance")
    if t_mod.inst != s_bimod.right_inst:
        raise ValueError("T must be a right module over the bimodule's right instance")

    tensor = tensor_product(m, s_bimod.left_part())
    tensor_as_right = tensor_right_structure(tensor, s_bimod)
    h1_basis = hom_space(tensor_as_right, t_mod)

    hom_st = hom_module(s_bimod, t_mod, "d")
    inner_basis = hom_space(s_bimod.right_part(), t_mod)
    if hom_st.dim != len(inner_basis):
        raise AssertionError("hom module dimension mismatch")
    h2_basis = hom_space(m, hom_st)

    def theta_of(f: Matrix) -> Matrix | None:
        # columns over M's basis; each entry expressed in inner_basis coords
        cols = []
        for p in range(m.dim):
            mvec = tuple(Fraction(1 if i == p else 0) for i in range(m.dim))
            entry_cols = []
            for q in range(s_bimod.dim):
                svec = tuple(Fraction(1 if i == q else 0) for i in range(s_bimod.dim))
                entry_cols.append(f.apply(tensor.zeta(mvec, svec)))
            entry = Matrix.from_cols(entry_cols, rows=t_mod.dim)
            coords = _coords_in(inner_basis, entry)
            if coords is None:
                return None
            cols.append(coords)
        return Matrix.from_cols(cols, rows=len(inner_basis))

    def theta_prime_of(g: Matrix) -> Matrix | None:
        # ambient evaluation (p, q) -> g(m_p)(s_q), then factor through zeta
        dn = s_bimod.dim
        cols = []
        for p in range(m.dim):
            gm = Matrix.zero(t_mod.dim, dn)
            for h_idx, c in enumerate(g.col(p)):
                if c != 0:
                    gm = gm + inner_basis[h_idx].scale(c)
            for q in range(dn):
                cols.append(gm.col(q))
        ambient = Matrix.from_cols(cols, rows=t_mod.dim)
        for rel in tensor.relations:
            if any(a != 0 for a in ambient.apply(rel)):
                return None
        return ambient @ tensor.quotient.section_matrix()

    theta_cols = []
    for f in h1_basis:
        img = theta_of(f)
        if img is None:
            raise AssertionError("theta image left the hom space")
        coords = _coords_in(h2_basis, img)
        if coords is None:
            raise AssertionError("theta image is not a module hom")
        theta_cols.append(coords)
    theta = Matrix.from_cols(theta_cols, rows=len(h2_basis))

    theta_prime_cols = []
    for g in h2_basis:
        img = theta_prime_of(g)
        if img is None:
            raise AssertionError("theta' image is not well-defined on cosets")
        coords = _coords_in(h1_basis, img)
        if coords is None:
            raise AssertionError("theta' image is not a module hom")
        theta_prime_cols.append(coords)
    theta_prime = Matrix.from_cols(theta_prime_cols, rows=len(h1_basis))

    inverse = (
        theta @ theta_prime == Matrix.identity(len(h2_basis))
        and theta_prime @ theta == Matrix.identity(len(h1_basis))
    )
    return AdjunctionReport(len(h1_basis), len(h2_basis), inverse)


# ---------------------------------------------------------------------------
# Flatness probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    name: str
    dims: dict
    verdict: str
    witness: Vector | None

    def to_json(self) -> dict:
        out = {"probe": self.name, "dims": self.dims, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        return out


@dataclass(frozen=True)
class FlatnessReport:
    module_side: str
    probes: tuple[ProbeResult, ...]

    @property
    def all_preserved(self) -> bool:
        return all(p.verdict == "preserved" for p in self.probes)

    def to_json(self) -> dict:
        return {
            "module_side": self.module_side,
            "all_preserved": self.all_preserved,
            "probes": [p.to_json() for p in self.probes],
        }


def tensor_preserves_injection(fixed, injection: ModuleHom, name: str = "") -> ProbeResult:
    """Tensor an injective hom with a fixed module and test injectivity.

    For a fixed right module the injection runs between left modules and
    vice versa.
    """
    if not injection.is_injective():
        raise PreconditionError("probe hom is not injective")
    if fixed.side == "right":
        src = tensor_product(fixed, injection.source)
        dst = tensor_product(fixed, injection.target)
        induced = induced_map(src, dst, injection, side="n")
    else:
        src = tensor_product(injection.source, fixed)
        dst = tensor_product(injection.target, fixed)
        induced = induced_map(src, dst, injection, side="m")
    kernel = induced.nullspace_basis()
    preserved = kernel.dim == 0
    witness = None if preserved else kernel.basis[0]
    return ProbeResult(
        name or "probe",
        {"source_tensor": src.dim, "target_tensor": dst.dim, "rank": induced.rank()},
        "preserved" if preserved else "broken",
        witness,
    )


def flatness_probe(module: FdRightModule | FdLeftModule,
                   injections: Sequence[ModuleHom],
                   names: Sequence[str] | None = None) -> FlatnessReport:
    """Exactness probe: does tensoring with the module keep each listed
    injection injective on the quotient spaces?"""
    results = []
    for k, inj in enumerate(injections):
        label = names[k] if names else f"probe{k}"
        results.append(tensor_preserves_injection(module, inj, label))
    return FlatnessReport(module.side, tuple(results))


# ---------------------------------------------------------------------------
# Structural comparison reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorUnitReport:
    tensor_dim: int
    module_dim: int
    well_defined: bool
    injective: bool
    surjective: bool

    @property
    def isomorphism(self) -> bool:
        return self.well_defined and self.injective and self.surjective

    def to_json(self) -> dict:
        return {
            "tensor_dim": self.tensor_dim,
            "module_dim": self.module_dim,
            "well_defined": self.well_defined,
            "injective": self.injective,
            "surjective": self.surjective,
            "isomorphism": self.isomorphism,
        }


def tensor_unit_check(m: FdRightModule) -> TensorUnitReport:
    """Measure the evaluation map M (x) R -> M, m (x) r -> m.r.

    The map is reported, not asserted: it factors through the quotient only
    when the operator balancing relations evaluate to zero, which depends on
    the instance.
    """
    from .modules import regular_left_module

    r_mod = regular_left_module(m.inst)
    t = tensor_product(m, r_mod)
    dn = r_mod.dim
    cols = []
    for p in range(m.dim):
        for j in range(dn):
            cols.append(m.action_matrix(m.inst.algebra.basis_vector(j)).apply(
                tuple(Fraction(1 if i == p else 0) for i in range(m.dim))
            ))
    ambient_eval = Matrix.from_cols(cols, rows=m.dim)
    well_defined = all(
        all(a == 0 for a in ambient_eval.apply(rel)) for rel in t.relations
    )
    if not well_defined:
        return TensorUnitReport(t.dim, m.dim, False, False, False)
    on_quotient = ambient_eval @ t.quotient.section_matrix()
    rk = on_quotient.rank()
    return TensorUnitReport(t.dim, m.dim, True, rk == t.dim, rk == m.dim)


@dataclass(frozen=True)
class DirectSumTensorReport:
    sum_dim: int
    part_dims: tuple[int, ...]
    mutually_inverse: bool

    @property
    def ok(self) -> bool:
        return self.mutually_inverse and self.sum_dim == sum(self.part_dims)

    def to_json(self) -> dict:
        return {
            "sum_dim": self.sum_dim,
            "part_dims": list(self.part_dims),
            "dims_add": self.sum_dim == sum(self.part_dims),
            "mutually_inverse": self.mutually_inverse,
        }


def direct_sum_tensor_check(s: FdRightModule, parts: Sequence[FdLeftModule]) -> DirectSumTensorReport:
    """Compare S (x) (+) M_i with (+) (S (x) M_i) via the canonical maps.

    f1 splits a tensor with a tuple into the tuple of tensors; the inverse
    embeds each summand tensor through the inclusion (the printed product
    formula in the source text does not typecheck; the componentwise inverse
    is used and mutual inverseness is verified computationally).
    """
    if parts:
        ds = direct_sum(list(parts))
    else:
        ds = direct_sum([], inst=s.inst)
    big = tensor_product(s, ds.module)
    small = [tensor_product(s, p) for p in parts]
    offsets = list(itertools.accumulate([0] + [p.dim for p in parts]))
    total_small = sum(t.dim for t in small)

    # f1 on ambient: (p, (k, q)) -> block k, (p, q)
    f1_cols = []
    for p in range(s.dim):
        for j in range(ds.module.dim):
            k = next(i for i in range(len(parts)) if offsets[i] <= j < offsets[i + 1])
            q = j - offsets[k]
            amb = [Fraction(0)] * (s.dim * parts[k].dim)
            amb[p * parts[k].dim + q] = Fraction(1)
            block = small[k].quotient.project.apply(tuple(amb))
            col = [Fraction(0)] * total_small
            pos = sum(t.dim for t in small[:k])
            for t_i, a in enumerate(block):
                col[pos + t_i] = a
            f1_cols.append(tuple(col))
    f1_ambient = Matrix.from_cols(f1_cols, rows=total_small)
    for rel in big.relations:
        if any(a != 0 for a in f1_ambient.apply(rel)):
            raise AssertionError("f1 is not well-defined on cosets")
    f1 = f1_ambient @ big.quotient.section_matrix()

    # f2 blockwise: S (x) M_k -> S (x) (+) M_i through the inclusion
    f2_blocks = []
    for k, part in enumerate(parts):
        inc = ds.inclusions[k]
        f2_blocks.append(induced_map(small[k], big, inc, side="n"))
    if f2_blocks:
        cols = []
        for k, blk in enumerate(f2_blocks):
            for j in range(blk.cols):
                cols.append(blk.col(j))
        f2 = Matrix.from_cols(cols, rows=big.dim)
    else:
        f2 = Matrix.zero(big.dim, 0)

    inverse = (
        f1 @ f2 == Matrix.identity(total_small)
        and f2 @ f1 == Matrix.identity(big.dim)
    )
    return DirectSumTensorReport(big.dim, tuple(t.dim for t in small), inverse)
