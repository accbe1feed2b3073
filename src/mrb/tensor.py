"""Tensor products of modules as explicit quotient spaces, and flatness probes.

The tensor of a right module M and a left module N is the quotient of the
plain coordinate tensor space by the balancing relations

    (v . r) (x) w - v (x) (r . w)          for basis r,
    m_w(v) (x) w - v (x) n_w(w)            for each label w,

on basis pairs (v, w): for the action tables and operators A of M and B of
N, the rows of the Kronecker differences A^T (x) I - I (x) B^T, the same
Sylvester operator whose kernel is a Hom space (the additive relation
families are absorbed by working linearly over Q).  The relations are kept
as sparse ``{column: Fraction}`` rows built from the tables' nonzeros, and
the quotient is read off their one elimination.  The module structures and
the Hom and tensor adjunction read their matrices off the same tables and
Kronecker products.  Induced maps, bimodule structures, the Hom and tensor
adjunction and the comparison maps all pass one coset test, that an
ambient map kills every relation, walking each relation's nonzeros, before
they act on quotient coordinates; only `bilinearity_report` walks the
relations itself, to name each failing one.  Induced maps and flatness
probes serve both sides on one path, reading the side off the module they
are given: a hom of right modules induces theta (x) id, a hom of left
modules id (x) theta.  Every verdict is an exact rank decision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .core import CheckReport, PreconditionError, Violation
from .linalg import (
    _ZERO,
    Matrix,
    QuotientSpace,
    Vector,
    _frozen,
    kron_difference_rows,
    quotient_space,
    unit_vector,
    vector,
)
from .modules import (
    _coords_in,
    _from_maps,
    _require_bimodule,
    ArgumentError,
    FdBimodule,
    FdLeftModule,
    FdRightModule,
    ModuleHom,
    direct_sum,
    hom_module,
    hom_space,
    regular_left_module,
)


@_frozen
class TensorSpace:
    """Quotient presentation of M (x) N for right M and left N.

    Ambient coordinates are pairs (p, q) flattened as p * dim(N) + q; zeta
    sends a vector pair to the projected coordinates of its pure tensor.
    Each relation is a sparse row, a dict from ambient coordinate to its
    nonzero coefficient.
    """

    m_factor: FdRightModule
    n_factor: FdLeftModule
    quotient: QuotientSpace
    relations: tuple[dict[int, Fraction], ...]

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def ambient_dim(self) -> int:
        return self.quotient.ambient_dim

    def pure_tensor_ambient(self, mvec: Sequence, nvec: Sequence) -> Vector:
        nvec = vector(nvec)
        return tuple(a * b if a and b else _ZERO for a in vector(mvec) for b in nvec)

    def zeta(self, mvec: Sequence, nvec: Sequence) -> Vector:
        return self.quotient.project.apply(self.pure_tensor_ambient(mvec, nvec))


def tensor_product(m: FdRightModule, n: FdLeftModule) -> TensorSpace:
    """Quotient of the coordinate tensor space by the balancing relations.

    For each pair (A, B) -- the actions of the basis elements in basis order,
    then the operators label by label -- and each basis pair (p, q), the
    relation is (A e_p) (x) e_q - e_p (x) (B e_q): row (p, q) of the
    Kronecker difference A^T (x) I - I (x) B^T, built sparse from the
    nonzeros of A and B and eliminated once.
    """
    if m.inst != n.inst:
        raise ArgumentError("tensor factors must live over the same instance")
    if m.side != "right" or n.side != "left":
        raise ArgumentError("tensor_product takes a right module and a left module")
    relations = tuple(row for a, b in zip(m.maps, n.maps)
                      for row in kron_difference_rows(a.transpose(), b.transpose()))
    return TensorSpace(m, n, quotient_space(m.dim * n.dim, relations), relations)


def bilinearity_report(t: TensorSpace) -> CheckReport:
    """Verify all four relation families vanish under the projection.

    The additive families hold identically in the linearized ambient space;
    they are still instantiated on basis pairs alongside the balancing
    families.
    """
    violations = []
    proj = t.quotient.project
    m, n = t.m_factor, t.n_factor
    for p in range(m.dim):
        vp = unit_vector(m.dim, p)
        vp2 = tuple(2 * a for a in vp)
        for q in range(n.dim):
            wq = unit_vector(n.dim, q)
            lhs = t.zeta(tuple(a + b for a, b in zip(vp, vp2)), wq)
            rhs = tuple(a + b for a, b in zip(t.zeta(vp, wq), t.zeta(vp2, wq)))
            if lhs != rhs:
                violations.append(Violation("additivity-left", (p, q)))
            lhs = t.zeta(vp, tuple(2 * a for a in wq))
            rhs = tuple(2 * a for a in t.zeta(vp, wq))
            if lhs != rhs:
                violations.append(Violation("additivity-right", (p, q)))
    for idx, img in enumerate(_images(proj, t.relations)):
        if img:
            violations.append(Violation("balancing", (idx,),
                                        tuple(img.get(r, _ZERO) for r in range(proj.rows))))
    return CheckReport("bilinearity", tuple(violations))


def induced_map(src: TensorSpace, dst: TensorSpace, theta: ModuleHom) -> Matrix:
    """Matrix of id (x) theta, for theta between left modules, or of
    theta (x) id, for theta between right modules, between tensor quotients
    whose other factor agrees, after checking well-definedness on cosets."""
    if theta.source.side == "right":
        side, moved, fixed = "right", (src.m_factor, dst.m_factor), (src.n_factor, dst.n_factor)
    else:
        side, moved, fixed = "left", (src.n_factor, dst.n_factor), (src.m_factor, dst.m_factor)
    if (theta.source, theta.target) != moved:
        raise ValueError(f"theta must map the {side}-module factors")
    if fixed[0] != fixed[1]:
        raise ValueError("the fixed factor must agree")
    idn = Matrix.identity(fixed[0].dim)
    ambient = theta.matrix.kron(idn) if side == "right" else idn.kron(theta.matrix)
    return _descend(src, dst, ambient, "induced map")


def _images(ambient: Matrix, relations) -> Iterator[dict[int, Fraction]]:
    """The image of each sparse relation under an ambient matrix, as the
    dict of its nonzero coordinates, over the nonzeros of both."""
    cols = [[(r, a) for r, a in enumerate(col) if a] for col in ambient.transpose().entries]
    for rel in relations:
        img: dict[int, Fraction] = {}
        for c, v in rel.items():
            for r, a in cols[c]:
                img[r] = img.get(r, _ZERO) + a * v
        yield {r: x for r, x in img.items() if x}


def _factor(t: TensorSpace, ambient: Matrix) -> Matrix | None:
    """The map on t's quotient coordinates that an ambient matrix induces,
    or None when the matrix does not kill every relation of t."""
    if any(_images(ambient, t.relations)):
        return None
    return ambient.columns(t.quotient.free)


def _descend(src: TensorSpace, dst: TensorSpace, ambient: Matrix, what: str) -> Matrix:
    """The map of quotients induced by an ambient matrix, after checking
    that it sends every relation of src into the relations of dst."""
    out = _factor(src, dst.quotient.project @ ambient)
    if out is None:
        raise AssertionError(f"{what} is not well-defined on cosets")
    return out


def tensor_left_structure(bimod: FdBimodule, t: TensorSpace) -> FdLeftModule:
    """Left module structure r' . (m (x) s) = (r' m) (x) s on the quotient.

    The bimodule's right part must be the tensor's right-module factor; the
    left instance supplies the action and the q operators come from the
    bimodule's left family.
    """
    if bimod.right != t.m_factor:
        raise PreconditionError("bimodule right part must be the tensor's M factor")
    _require_bimodule(bimod)
    idn = Matrix.identity(t.n_factor.dim)
    return _tensor_structure(t, bimod.left, lambda a: a.kron(idn))


def tensor_right_structure(t: TensorSpace, bimod: FdBimodule) -> FdRightModule:
    """Right module structure (m (x) s) . r' = m (x) (s r') on the quotient.

    The bimodule's left part must be the tensor's left-module factor; the
    right instance and the bimodule's right family supply the structure.
    """
    if bimod.left != t.n_factor:
        raise PreconditionError("bimodule left part must be the tensor's N factor")
    _require_bimodule(bimod)
    return _tensor_structure(t, bimod.right, Matrix.identity(t.m_factor.dim).kron)


def _tensor_structure(t: TensorSpace, acting: FdLeftModule, on_ambient) -> FdLeftModule:
    """The structure the bimodule part `acting` induces on t, of its side.

    `on_ambient` lifts a matrix of the acting part to the ambient tensor
    space, with the identity of the other factor on the other side of the
    Kronecker product.  The caller has checked the bimodule.
    """
    return _from_maps(acting.side, acting.inst, t.dim,
                      [_descend(t, t, on_ambient(x), "structure operator") for x in acting.maps])


# ---------------------------------------------------------------------------
# Hom-tensor adjunction
# ---------------------------------------------------------------------------

@_frozen
class AdjunctionReport:
    """Hom(M (x) S, T) and Hom(M, Hom(S, T)): their dimensions and the unit maps."""

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
    if m.inst != s_bimod.left.inst:
        raise ArgumentError("M must be a right module over the bimodule's left instance")
    if t_mod.inst != s_bimod.right.inst or t_mod.side != "right":
        raise ArgumentError("T must be a right module over the bimodule's right instance")

    tensor = tensor_product(m, s_bimod.left)
    hom_st = hom_module(s_bimod, t_mod, "d")  # checks the bimodule
    tensor_as_right = _tensor_structure(tensor, s_bimod.right, Matrix.identity(m.dim).kron)
    h1_basis = hom_space(tensor_as_right, t_mod)
    inner_basis = hom_space(s_bimod.right, t_mod)
    if hom_st.dim != len(inner_basis):
        raise AssertionError("hom module dimension mismatch")
    h2_basis = hom_space(m, hom_st)

    # block p of f o project is s -> f(m_p (x) s); its coordinates over
    # inner_basis are column p of th(f)
    dm, dn, proj = m.dim, s_bimod.dim, tensor.quotient.project
    images = [(f @ proj).entries for f in h1_basis]
    blocks = [Matrix._shaped([row[p * dn:(p + 1) * dn] for row in fp], t_mod.dim, dn)
              for fp in images for p in range(dm)]
    entries = _coords_in(inner_basis, blocks)
    if entries is None:
        raise AssertionError("theta image left the hom space")
    theta_cols = _coords_in(h2_basis, [Matrix.from_cols(entries[k * dm:(k + 1) * dm],
                                                        rows=len(inner_basis))
                                       for k in range(len(h1_basis))])
    if theta_cols is None:
        raise AssertionError("theta image is not a module hom")
    theta = Matrix.from_cols(theta_cols, rows=len(h2_basis))

    # th'(g) sends pair (p, q) to g(m_p)(s_q) = sum_h g[h][p] inner_h s_q: the
    # ambient matrix sum_h (row h of g) (x) inner_h, factored through zeta
    zero = Matrix.zero(t_mod.dim, dm * dn)
    primes = [_factor(tensor, sum((Matrix._shaped([g.row(h)], 1, dm).kron(b)
                                   for h, b in enumerate(inner_basis)), zero))
              for g in h2_basis]
    if any(img is None for img in primes):
        raise AssertionError("theta' image is not well-defined on cosets")
    theta_prime_cols = _coords_in(h1_basis, primes)
    if theta_prime_cols is None:
        raise AssertionError("theta' image is not a module hom")
    theta_prime = Matrix.from_cols(theta_prime_cols, rows=len(h1_basis))

    inverse = (
        theta @ theta_prime == Matrix.identity(len(h2_basis))
        and theta_prime @ theta == Matrix.identity(len(h1_basis))
    )
    return AdjunctionReport(len(h1_basis), len(h2_basis), inverse)


# ---------------------------------------------------------------------------
# Flatness probes
# ---------------------------------------------------------------------------

@_frozen
class ProbeResult:
    """One flatness probe: the dimensions it measured, its verdict and a witness."""

    name: str
    dims: dict
    verdict: str
    witness: Vector | None

    def to_json(self) -> dict:
        out = {"probe": self.name, "dims": self.dims, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = [str(x) for x in self.witness]
        return out


@_frozen
class FlatnessReport:
    """The probes run on one module and their verdicts."""

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
    src, dst = (tensor_product(*((fixed, mod) if fixed.side == "right" else (mod, fixed)))
                for mod in (injection.source, injection.target))
    induced = induced_map(src, dst, injection)
    kernel = induced.nullspace_basis()
    preserved = kernel.dim == 0
    witness = None if preserved else kernel.basis[0]
    return ProbeResult(
        name or "probe",
        # rank-nullity: the kernel already computed gives the rank
        {"source_tensor": src.dim, "target_tensor": dst.dim, "rank": src.dim - kernel.dim},
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

@_frozen
class TensorUnitReport:
    """The evaluation map M (x) R -> M: the two dimensions and what the map is."""

    tensor_dim: int
    module_dim: int
    well_defined: bool
    injective: bool
    surjective: bool

    @property
    def isomorphism(self) -> bool:
        return self.well_defined and self.injective and self.surjective


def tensor_unit_check(m: FdRightModule) -> TensorUnitReport:
    """Measure the evaluation map M (x) R -> M, m (x) r -> m.r.

    The map is reported, not asserted: it factors through the quotient only
    when the operator balancing relations evaluate to zero, which depends on
    the instance.
    """
    r_mod = regular_left_module(m.inst)
    t = tensor_product(m, r_mod)
    # pair (p, j) goes to v_p . b_j, column p of the action table A_j
    cols = [a.col(p) for p in range(m.dim) for a in m.tables]
    on_quotient = _factor(t, Matrix.from_cols(cols, rows=m.dim))
    if on_quotient is None:
        return TensorUnitReport(t.dim, m.dim, False, False, False)
    rk = on_quotient.rank()
    return TensorUnitReport(t.dim, m.dim, True, rk == t.dim, rk == m.dim)


@_frozen
class DirectSumTensorReport:
    """S (x) (+) M_i against (+) (S (x) M_i): dimensions and the canonical maps."""

    sum_dim: int
    part_dims: tuple[int, ...]
    mutually_inverse: bool

    @property
    def ok(self) -> bool:
        return self.mutually_inverse and self.sum_dim == sum(self.part_dims)


def direct_sum_tensor_check(s: FdRightModule, parts: Sequence[FdLeftModule]) -> DirectSumTensorReport:
    """Compare S (x) (+) M_i with (+) (S (x) M_i) via the canonical maps.

    f1 splits a tensor with a tuple into the tuple of tensors; the inverse
    embeds each summand tensor through the inclusion (the printed product
    formula in the source text does not typecheck; the componentwise inverse
    is used and mutual inverseness is verified computationally).
    """
    ds = direct_sum(list(parts), inst=s.inst)
    big = tensor_product(s, ds.module)
    small = [tensor_product(s, p) for p in parts]
    total_small = sum(t.dim for t in small)

    # f1 stacks id (x) projection_k, f2 lines up id (x) inclusion_k
    f1_blocks = [induced_map(big, t, prj) for t, prj in zip(small, ds.projections)]
    f1 = Matrix.from_rows([row for blk in f1_blocks for row in blk.entries], cols=big.dim)
    f2_blocks = [induced_map(t, big, inc) for t, inc in zip(small, ds.inclusions)]
    f2 = Matrix.from_cols([blk.col(j) for blk in f2_blocks for j in range(blk.cols)],
                          rows=big.dim)

    inverse = (
        f1 @ f2 == Matrix.identity(total_small)
        and f2 @ f1 == Matrix.identity(big.dim)
    )
    return DirectSumTensorReport(big.dim, tuple(t.dim for t in small), inverse)
