"""Finite-dimensional multiple Rota-Baxter algebras.

An instance bundles an associative unital algebra presentation (structure
constants over Q), an indexed family of linear operators P_w, and a family
of weights lambda_w.  The defining identity, checked exhaustively on basis
pairs for every operator pair (alpha, beta), is

    P_a(x) P_b(y) = P_a(x P_b(y)) + P_b(P_a(x) y)
                    + lambda_b P_a(x y) + lambda_a P_b(x y).

Both weight slots draw from the single weight family (the diagonal pair
weight convention); the identity is bilinear in (x, y), so basis pairs
decide it on the whole algebra.

One kernel, :func:`_axiom_violations`, checks it and the module axioms as
one matrix equation per label pair and basis element, on action tables
built once per check.  The checkers decide in integers: each clears its
inputs to one denominator D once, and every law is homogeneous in them, of
degree 2 (unit, associativity, the action laws) or 3 (the coupled axiom),
so its integer residual is exactly D^2 or D^3 times the rational one.  The
zero test is exact, and a `Fraction` residual is built only for a column
that fails.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import (
    Matrix,
    Vector,
    _Latch,
    _cleared,
    _frozen,
    _int_product,
    frac,
    format_rational,
    unit_vector,
    vector,
)


class MalformedPresentationError(ValueError):
    """Shapes of a presentation do not match its declared dimension."""


class PreconditionError(ValueError):
    """An operation was invoked outside its contract."""


@_frozen
class AlgebraPresentation:
    """Associative unital algebra given by structure constants.

    ``structure_constants[i][j]`` is the coordinate vector of b_i * b_j.
    Associativity and the unit laws are not enforced here; they are what
    :func:`check_presentation` verifies.
    """

    dim: int
    basis_labels: tuple[str, ...]
    structure_constants: tuple[tuple[Vector, ...], ...]
    unit: Vector

    def __post_init__(self):
        d = self.dim
        if len(self.basis_labels) != d or len(set(self.basis_labels)) != d:
            raise MalformedPresentationError("basis labels must be distinct and match dim")
        if len(self.structure_constants) != d:
            raise MalformedPresentationError("structure constant array has wrong shape")
        for row in self.structure_constants:
            if len(row) != d or any(len(v) != d for v in row):
                raise MalformedPresentationError("structure constant array has wrong shape")
        if len(self.unit) != d:
            raise MalformedPresentationError("unit vector has wrong length")

    def label_index(self, name: str) -> int:
        try:
            return self.basis_labels.index(name)
        except ValueError:
            raise KeyError(f"unknown basis label {name!r}") from None

    def basis_vector(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range")
        return unit_vector(self.dim, i)

    def multiply(self, u: Sequence, v: Sequence) -> Vector:
        u, v = vector(u), vector(v)
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b == 0:
                    continue
                ab = a * b
                for k, c in enumerate(self.structure_constants[i][j]):
                    if c != 0:
                        out[k] += ab * c
        return tuple(out)


@_frozen
class OperatorFamily:
    """Linear operators on the algebra, one per label in Omega."""

    labels: tuple[str, ...]
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("operator labels must be distinct")
        if len(self.matrices) != len(self.labels):
            raise ValueError("one matrix per label required")

    def matrix(self, label: str) -> Matrix:
        return self.matrices[self.index(label)]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown operator label {label!r}") from None


@_frozen
class WeightFamily:
    """The weights lambda_w, one per label in Omega."""

    labels: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.values):
            raise ValueError("one weight per label required")

    def weight(self, label: str) -> Fraction:
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"unknown weight label {label!r}") from None


@_frozen
class MrbAlgebraInstance:
    """Algebra presentation plus operator and weight families.

    ``verified`` is a latch set only by a passing :func:`check_mrb_identity`;
    it is not a constructor argument and is excluded from equality.
    """

    algebra: AlgebraPresentation
    operators: OperatorFamily
    weights: WeightFamily
    verified: bool = _Latch(False)

    def __post_init__(self):
        if self.operators.labels != self.weights.labels:
            raise ValueError("operator and weight families must share the same labels")
        d = self.algebra.dim
        for m in self.operators.matrices:
            if m.rows != d or m.cols != d:
                raise MalformedPresentationError("operator matrix has wrong shape")

    @property
    def omega(self) -> tuple[str, ...]:
        return self.operators.labels

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def p_matrix(self, label: str) -> Matrix:
        return self.operators.matrix(label)

    def weight(self, label: str) -> Fraction:
        return self.weights.weight(label)

    def apply_operator(self, label: str, v: Sequence) -> Vector:
        return self.operators.matrix(label).apply(v)

    def _mark_verified(self):
        object.__setattr__(self, "verified", True)


@_frozen
class Violation:
    """One failed law: its kind, where it fails and, for a matrix law, the residual column."""

    kind: str
    where: tuple
    residual: Vector | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "where": list(self.where)}
        if self.residual is not None:
            out["residual"] = [format_rational(x) for x in self.residual]
        return out


@_frozen
class CheckReport:
    """The violations a checker found on its subject; clean when there are none."""

    subject: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }


def _sum_of(terms, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix sum of c * m over the (c, m) terms."""
    return sum((m.scale(c) for c, m in terms if c), Matrix.zero(rows, cols))


def _integer_blocks(blocks: Sequence[Sequence[Sequence]]) -> tuple[int, list[list[list[int]]]]:
    """One check's inputs over one denominator: D, the lcm of the
    denominators in the blocks, and each block, a sequence of rows of
    rationals such as a matrix's entries, times D as a list of int rows."""
    den, pairs = _cleared([(None, v) for block in blocks for row in block for v in row])
    ints = (n for _, n in pairs)
    return den, [[list(itertools.islice(ints, len(row))) for row in block] for block in blocks]


def _regular_tables(sc: Sequence[Sequence[Sequence[int]]], left: bool) -> list[list[list[int]]]:
    """The multiplication tables of the algebra on itself, as int rows, from
    its structure constants sc[i][j], the coordinates of b_i b_j: L_i, column
    j being b_i b_j, or with left false R_i, column j being b_j b_i."""
    d = len(sc)
    return [list(map(list, zip(*(sc[i][j] if left else sc[j][i] for j in range(d)))))
            for i in range(d)]


def _combination(coeffs: Sequence[int], mats, n: int) -> list[list[int]]:
    """The n x n integer matrix sum of c * m over the nonzero c of coeffs,
    paired with mats."""
    out = [[0] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        if c:
            out = [[s + c * v for s, v in zip(orow, mrow)] for orow, mrow in zip(out, m)]
    return out


def _scalar(n: int, c: int) -> list[list[int]]:
    """c times the n x n identity."""
    return [[c if p == q else 0 for q in range(n)] for p in range(n)]


def _column_violations(kind: str, diff: list[list[int]], den: int, where) -> list[Violation]:
    """A violation at where(p), residual column p of diff over den, per
    nonzero column p of the integer matrix diff."""
    if not any(map(any, diff)):
        return []
    return [Violation(kind, where(p), tuple(Fraction(n, den) for n in col))
            for p, col in enumerate(zip(*diff)) if any(col)]


def check_presentation(alg: AlgebraPresentation) -> CheckReport:
    """List every unit and associativity failure of a presentation.

    L_i and R_i multiply by b_i on the left and on the right.  The unit
    laws are L_u = 1 and R_u = 1, column i of each difference being the
    residual at i; associativity is L_{b_i b_j} = L_i L_j, column k of the
    difference being the residual at (i, j, k).  The structure constants
    and the unit are cleared to integers over one denominator D, and every
    law, of degree 2 in them, is decided on integer matrices D^2 times the
    rational ones; a residual is divided by D^2 only where it is nonzero.
    """
    den, ((unit,), *sc) = _integer_blocks([[alg.unit], *alg.structure_constants])
    return _presentation_report(den, unit, sc, _regular_tables(sc, True))


def _presentation_report(den: int, unit: Sequence[int], sc, left) -> CheckReport:
    """`check_presentation` on the unit, the structure constants and the left
    tables L_i already cleared, all times den."""
    d, square = len(sc), den * den
    units = [_column_violations(kind, _combination((*unit, -1), (*tables, _scalar(d, square)), d),
                                square, lambda i: (i,))
             for kind, tables in (("unit-left", left), ("unit-right", _regular_tables(sc, False)))]
    # stable: at each i the left unit law comes first
    violations = sorted(units[0] + units[1], key=lambda v: v.where)
    for i, li in enumerate(left):
        for j, lj in enumerate(left):
            diff = _combination((*sc[i][j], -1), (*left, _int_product(li, lj)), d)
            violations += _column_violations("associativity", diff, square, lambda k: (i, j, k))
    return CheckReport("presentation", tuple(violations))


def _axiom_violations(kind: str, labels: Sequence[str], den: int, weights: Sequence[int],
                      pmats, acts, ops, mul) -> list[Violation]:
    """Every failure of the coupled axiom on the action matrices acts[i] = A_i
    of b_i, with operators ops[a] = M_a and products mul in the side's order:

        A_{P_a b_i} M_b = M_a A_i M_b + M_b A_{P_a b_i} + l_b M_a A_i + l_a M_b A_i

    for each label pair (a, b) and b_i, column p of the difference being the
    residual at (i, p, a, b).  The weights l_a, the instance's operators
    pmats[a] = P_a, acts and ops come cleared, as ints times den, so
    A_{P_a b_i} = sum_k (P_a)_{k,i} A_k and M_a A_i, built once per (a, i),
    are den^2 times their values and every term of the difference is den^3
    times its value; a residual is divided by den^3 only where it is nonzero.
    """
    d, n = len(acts), len(ops[0]) if ops else 0
    cube = den ** 3
    acted = [[_combination(col, acts, n) for col in zip(*pa)] for pa in pmats]
    after = [[mul(m, act) for act in acts] for m in ops]
    # the left side less M_a A_i M_b is (A_{P_a b_i} - M_a A_i) M_b
    lhs = [[_combination((1, -1), xy, n) for xy in zip(xs, ys)] for xs, ys in zip(acted, after)]
    violations = []
    for a, la in enumerate(weights):
        for b, lb in enumerate(weights):
            mb = ops[b]
            for i in range(d):
                diff = [[p - q - lb * y - la * z for p, q, y, z in zip(*rows)]
                        for rows in zip(mul(lhs[a][i], mb), mul(mb, acted[a][i]),
                                        after[a][i], after[b][i])]
                violations += _column_violations(kind, diff, cube,
                                                 lambda p: (i, p, labels[a], labels[b]))
    return violations


def check_mrb_identity(inst: MrbAlgebraInstance) -> CheckReport:
    """Exhaustively evaluate the coupled operator identity.

    It is the axiom kernel on the left-multiplication matrices L_i, the
    regular left module: one matrix equation per label pair and b_i covers
    every b_j, column j being the residual at (i, j, a, b).  The
    presentation is checked first, on the same L_i; both run on the
    structure constants, the unit, the operators and the weights cleared to
    integers over one denominator.  An empty report marks the instance
    verified; a verified instance is frozen, so its clean report is
    returned at once.
    """
    if inst.verified:
        return CheckReport("mrb-identity", ())
    alg, d = inst.algebra, inst.dim
    den, ((unit, weights), *blocks) = _integer_blocks(
        [[alg.unit, inst.weights.values], *alg.structure_constants,
         *(m.entries for m in inst.operators.matrices)])
    sc, ops = blocks[:d], blocks[d:]
    acts = _regular_tables(sc, True)
    if not _presentation_report(den, unit, sc, acts).ok:
        raise PreconditionError("presentation must pass check_presentation first")
    report = CheckReport("mrb-identity", tuple(_axiom_violations(
        "mrb-identity", inst.omega, den, weights, ops, acts, ops, _int_product)))
    if report.ok:
        inst._mark_verified()
    return report


def _require_verified(inst: MrbAlgebraInstance, what: str,
                      error: type[Exception] = ValueError) -> MrbAlgebraInstance:
    """inst, once it passes the identity checker; else `error` naming `what`."""
    if not check_mrb_identity(inst).ok:
        raise error(f"{what} fails the identity checker; run check-algebra")
    return inst


# ---------------------------------------------------------------------------
# Instance catalog
# ---------------------------------------------------------------------------

def _unit_algebra(units: Mapping[str, tuple[int, int]]) -> AlgebraPresentation:
    """The span of the matrix units E_ij named by units, with basis labels
    in their order: E_ij E_jl = E_il, every other product is zero, and the
    unit is the sum of the diagonal units.  The span must be closed under
    that product."""
    labels, pairs = tuple(units), tuple(units.values())
    d = len(labels)
    index, zero = {ij: n for n, ij in enumerate(pairs)}, (Fraction(0),) * d
    sc = tuple(tuple(unit_vector(d, index[i, l]) if j == k else zero for k, l in pairs)
               for i, j in pairs)
    return AlgebraPresentation(d, labels, sc, tuple(Fraction(i == j) for i, j in pairs))


def componentwise_algebra(d: int) -> AlgebraPresentation:
    """Q^d with entrywise product; basis e1..ed, unit (1, ..., 1)."""
    return _unit_algebra({f"e{i + 1}": (i, i) for i in range(d)})


def upper_triangular_algebra() -> AlgebraPresentation:
    """Upper triangular 2x2 matrices; basis t11, t12, t22."""
    return _unit_algebra({"t11": (0, 0), "t12": (0, 1), "t22": (1, 1)})


def trivial_instance(d: int, s: int) -> MrbAlgebraInstance:
    """Zero operators and zero weights on Q^d, with s labels."""
    alg = componentwise_algebra(d)
    labels = tuple(str(i + 1) for i in range(s))
    ops = OperatorFamily(labels, tuple(Matrix.zero(d, d) for _ in labels))
    weights = WeightFamily(labels, tuple(Fraction(0) for _ in labels))
    return MrbAlgebraInstance(alg, ops, weights)


def _scaled_family(alg: AlgebraPresentation, kept: str, c: Sequence) -> MrbAlgebraInstance:
    """The operators c_w P with weights -c_w/2, P the projection onto the
    basis element `kept` along the others, checked by the identity checker."""
    coeffs = tuple(frac(x) for x in c)
    if not coeffs:
        raise ValueError("coefficient list must be nonempty")
    if any(x == 0 for x in coeffs):
        raise ValueError("zero coefficients are rejected; they degenerate to the trivial family")
    k, d = alg.label_index(kept), alg.dim
    proj = Matrix([[int(i == j == k) for j in range(d)] for i in range(d)])
    labels = tuple(str(i + 1) for i in range(len(coeffs)))
    ops = OperatorFamily(labels, tuple(proj.scale(x) for x in coeffs))
    weights = WeightFamily(labels, tuple(-x / 2 for x in coeffs))
    inst = MrbAlgebraInstance(alg, ops, weights)
    check_mrb_identity(inst)
    return inst


def scaled_projection(c: Sequence) -> MrbAlgebraInstance:
    """Family c_w * P on Q^2 where P(a, b) = (a, 0), with weights -c_w/2.

    P is a Rota-Baxter operator of weight -1 on the componentwise algebra,
    so every scaled family passes the identity checker.
    """
    return _scaled_family(componentwise_algebra(2), "e1", c)


def upper_triangular_instance(c: Sequence = (1, 2)) -> MrbAlgebraInstance:
    """Noncommutative catalog entry: scaled projections onto the t11 line.

    Correctness is established by running the checker, not asserted.
    """
    return _scaled_family(upper_triangular_algebra(), "t11", c)


_CATALOG_NAMES = (
    *(f"trivial({d},{s})" for d in (1, 2, 3) for s in (1, 2, 3)),
    "scaled_projection(1)", "scaled_projection(1,2)", "scaled_projection(2,3,5)",
    "upper_triangular(1,2)",
)


def catalog() -> dict[str, MrbAlgebraInstance]:
    """Named verified instances used throughout the test suite."""
    return {name: catalog_instance(name) for name in _CATALOG_NAMES}


# structure constants d^3, identity equations s^2 d and labels s of one
# trivial(d,s); at the budget trivial(40,1) takes 0.4 s and 28 MB on 2 vCPUs,
# and trivial(40,40), the costliest instance it admits, 16 s and 93 MB.  It
# also bounds the (d+s) n^2 structure-map entries of a direct sum of dim n:
# 252 copies of trivial(1,0)'s regular module, the costliest, take 1.4 s
_INSTANCE_BUDGET = 64000

_CATALOG_NAME_RE = re.compile(r"(trivial|scaled_projection|upper_triangular)\(([^)]*)\)$")


def catalog_instance(name: str) -> MrbAlgebraInstance:
    """Resolve a catalog name like ``scaled_projection(1,2)``; a trivial(d,s)
    past `_INSTANCE_BUDGET` is refused before anything is built."""
    m = _CATALOG_NAME_RE.match(name.strip())
    if not m:
        raise KeyError(f"unknown catalog instance {name!r}")
    kind, argtext = m.groups()
    args = [a.strip() for a in argtext.split(",") if a.strip()]
    if kind == "trivial":
        if len(args) != 2:
            raise ValueError(f"trivial expects 2 arguments, as in trivial(d,s); got {len(args)}")
        d, s = (int(a) for a in args)
        if d < 0:
            raise ValueError(f"trivial({d},{s}) asks for a negative dimension")
        if s < 0:
            raise ValueError(f"trivial({d},{s}) asks for a negative number of labels")
        count = max(d ** 3, s * s * d, s)
        if count > _INSTANCE_BUDGET:
            raise ValueError(f"trivial({d},{s}) asks for {count} structure constants, identity "
                             f"equations or labels; the budget is {_INSTANCE_BUDGET}")
        inst = trivial_instance(d, s)
        check_mrb_identity(inst)
        return inst
    if kind == "scaled_projection":
        return scaled_projection([frac(a) for a in args])
    return upper_triangular_instance([frac(a) for a in args])


# ---------------------------------------------------------------------------
# Reweighting
# ---------------------------------------------------------------------------

@_frozen
class ReweightSpec:
    """Coefficient maps defining new operators as combinations of old ones.

    Each row (i, {w: a_iw}) yields P_i = sum a_iw P_w and
    lambda_i = sum a_iw lambda_w.
    """

    rows: tuple[tuple[str, tuple[tuple[str, Fraction], ...]], ...]

    @classmethod
    def from_dict(cls, maps: Mapping[str, Mapping[str, object]]) -> "ReweightSpec":
        if not isinstance(maps, Mapping) or not all(isinstance(c, Mapping) for c in maps.values()):
            raise ValueError("a reweight spec must map each new label to an object of coefficients")
        if not maps:
            raise ValueError("reweight spec must be nonempty")
        rows = tuple(
            (str(new), tuple((str(old), frac(a)) for old, a in coeffs.items()))
            for new, coeffs in maps.items()
        )
        return cls(rows)

    @classmethod
    def identity(cls, omega: Sequence[str]) -> "ReweightSpec":
        return cls(tuple((w, ((w, Fraction(1)),)) for w in omega))

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.rows)


def _combine(spec: ReweightSpec, matrix_of, d: int) -> tuple[Matrix, ...]:
    """The d x d matrices sum_w a_iw matrix_of(w), one per row of the spec."""
    return tuple(_sum_of([(a, matrix_of(old)) for old, a in coeffs], d, d)
                 for _, coeffs in spec.rows)


def reweight(inst: MrbAlgebraInstance, spec: ReweightSpec) -> MrbAlgebraInstance:
    """Instance with operators and weights replaced by the spec's combinations.

    The result is re-verified by the identity checker before being returned,
    so :func:`check_mrb_identity` gives its clean report back at once.
    """
    if not inst.verified:
        raise PreconditionError("instance must be verified before reweighting")
    if not spec.rows:
        raise ValueError("reweight spec must be nonempty")
    labels = spec.labels()
    if len(set(labels)) != len(labels):
        raise ValueError("reweight spec labels must be distinct")
    matrices = _combine(spec, inst.p_matrix, inst.dim)
    values = tuple(sum((a * inst.weight(old) for old, a in coeffs), Fraction(0))
                   for _, coeffs in spec.rows)
    out = MrbAlgebraInstance(
        inst.algebra,
        OperatorFamily(labels, matrices),
        WeightFamily(labels, values),
    )
    if not check_mrb_identity(out).ok:
        raise AssertionError("reweighted instance failed the identity checker")
    return out


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.entries]


def _matrix_from_json(rows: Sequence[Sequence[str]]) -> Matrix:
    return Matrix([[frac(x) for x in row] for row in rows])


def instance_to_json(inst: MrbAlgebraInstance) -> dict:
    alg = inst.algebra
    return {
        "dim": alg.dim,
        "basis": list(alg.basis_labels),
        "structure_constants": [
            [[format_rational(x) for x in v] for v in row] for row in alg.structure_constants
        ],
        "unit": [format_rational(x) for x in alg.unit],
        "omega": list(inst.omega),
        "operators": {w: _matrix_to_json(inst.p_matrix(w)) for w in inst.omega},
        "weights": {w: format_rational(inst.weight(w)) for w in inst.omega},
    }


def instance_from_json(doc: Mapping) -> MrbAlgebraInstance:
    try:
        alg = AlgebraPresentation(
            dim=int(doc["dim"]),
            basis_labels=tuple(str(x) for x in doc["basis"]),
            structure_constants=tuple(
                tuple(vector(v) for v in row) for row in doc["structure_constants"]
            ),
            unit=vector(doc["unit"]),
        )
        omega = tuple(str(w) for w in doc["omega"])
        ops = OperatorFamily(omega, tuple(_matrix_from_json(doc["operators"][w]) for w in omega))
        weights = WeightFamily(omega, tuple(frac(doc["weights"][w]) for w in omega))
    except (KeyError, TypeError) as exc:
        raise MalformedPresentationError(f"malformed instance document: {exc}") from exc
    return MrbAlgebraInstance(alg, ops, weights)


def load_instance(name_or_doc) -> MrbAlgebraInstance:
    """Accept a catalog name, or else a document."""
    if isinstance(name_or_doc, str):
        return catalog_instance(name_or_doc)
    return instance_from_json(name_or_doc)
