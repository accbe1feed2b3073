"""Exact rational linear algebra.

Everything in this package reduces to linear algebra over the rationals:
axiom checking, Hom spaces, quotients, tensor products.  This module is the
single substrate for those computations.  All arithmetic uses
:class:`fractions.Fraction`, so results are exact and every predicate
(rank, membership, equality) is decided without tolerances.

Vectors are plain tuples of Fractions.  Matrices act on column vectors:
``m.apply(v)[i] == sum(m[i][j] * v[j])``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$")


def frac(x) -> Fraction:
    """Coerce ints, strings like ``-3/2``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL_RE.match(x):
            raise ValueError(f"not a rational literal: {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_rational(x: Fraction) -> str:
    """Render a Fraction in the canonical wire form ``-?p(/q)?``."""
    return str(x)


def vector(entries: Iterable) -> Vector:
    return tuple(frac(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


def _bitsize(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(frac(e) for e in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        m = object.__new__(cls)
        object.__setattr__(m, "entries", ((Fraction(0),) * cols,) * rows)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, vectors: Sequence[Vector], cols: int | None = None) -> "Matrix":
        if not vectors:
            return cls.zero(0, cols or 0)
        return cls(vectors)

    @classmethod
    def from_cols(cls, vectors: Sequence[Vector], rows: int | None = None) -> "Matrix":
        if not vectors:
            return cls.zero(rows or 0, 0)
        return cls.from_rows(vectors).transpose()

    @classmethod
    def block_diag(cls, blocks: Sequence["Matrix"]) -> "Matrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[Fraction(0)] * cols for _ in range(rows)]
        r = c = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r + i][c + j] = b.entries[i][j]
            r += b.rows
            c += b.cols
        return cls(out)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries \
            and self.rows == other.rows and self.cols == other.cols

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.entries]})"

    @classmethod
    def _shaped(cls, entries, rows: int, cols: int) -> "Matrix":
        if rows == 0 or cols == 0:
            return cls.zero(rows, cols)
        return cls(entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._shaped([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.entries, other.entries)],
                              self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._shaped([[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.entries, other.entries)],
                              self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix._shaped([[-a for a in r] for r in self.entries],
                              self.rows, self.cols)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix._shaped([[c * a for a in r] for r in self.entries],
                              self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose().entries
        return Matrix._shaped([[sum(a * b for a, b in zip(row, col)) for col in ot]
                               for row in self.entries], self.rows, other.cols)

    def apply(self, v: Sequence) -> Vector:
        v = vector(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix([self.col(j) for j in range(self.cols)]) if self.cols else Matrix.zero(0, self.rows)

    def kron(self, other: "Matrix") -> "Matrix":
        out = [[Fraction(0)] * (self.cols * other.cols) for _ in range(self.rows * other.rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i][j]
                if a == 0:
                    continue
                for p in range(other.rows):
                    for q in range(other.cols):
                        out[i * other.rows + p][j * other.cols + q] = a * other.entries[p][q]
        return Matrix._shaped(out, self.rows * other.rows, self.cols * other.cols)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        Among candidate pivot rows the entry of smallest bit-size is chosen,
        which keeps intermediate numerators small at desk scale.
        """
        work = [list(r) for r in self.entries]
        pivots: list[int] = []
        rank = 0
        for col in range(self.cols):
            best = None
            for i in range(rank, self.rows):
                if work[i][col] != 0:
                    size = _bitsize(work[i][col])
                    if best is None or size < best[0]:
                        best = (size, i)
            if best is None:
                continue
            i = best[1]
            work[rank], work[i] = work[i], work[rank]
            inv = 1 / work[rank][col]
            work[rank] = [a * inv for a in work[rank]]
            for i in range(self.rows):
                if i != rank and work[i][col] != 0:
                    f = work[i][col]
                    work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
            pivots.append(col)
            rank += 1
            if rank == self.rows:
                break
        return Matrix(work), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace_basis(self) -> "Subspace":
        """Basis of the right kernel {v : self @ v = 0}."""
        reduced, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in pivots]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -reduced.entries[i][f]
            basis.append(tuple(v))
        return Subspace(self.cols, tuple(basis))

    def solve(self, b: Sequence) -> Vector | None:
        """One exact solution of self @ x = b, or None if inconsistent."""
        b = vector(b)
        if len(b) != self.rows:
            raise ValueError("rhs length mismatch")
        aug = Matrix([list(r) + [x] for r, x in zip(self.entries, b)]) if self.rows \
            else Matrix.zero(0, self.cols + 1)
        reduced, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for i, p in enumerate(pivots):
            x[p] = reduced.entries[i][self.cols]
        return tuple(x)


def rank(m: Matrix) -> int:
    return m.rank()


def nullspace_basis(m: Matrix) -> "Subspace":
    return m.nullspace_basis()


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n given by a linearly independent basis.

    Bases produced by this module are in reduced row echelon form, so two
    equal subspaces compare equal.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")
        if self.basis:
            if Matrix.from_rows(self.basis).rank() != len(self.basis):
                raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def spanned_by(cls, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        """Canonical (RREF) basis of the span of the given vectors."""
        if not vectors:
            return cls(ambient_dim, ())
        reduced, pivots = Matrix.from_rows(vectors, cols=ambient_dim).rref()
        return cls(ambient_dim, tuple(reduced.entries[i] for i in range(len(pivots))))

    def contains(self, v: Sequence) -> bool:
        v = vector(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        if not self.basis:
            return is_zero_vector(v)
        return Matrix.from_cols(self.basis).solve(v) is not None

    def coordinates(self, v: Sequence) -> Vector | None:
        """Coordinates of v in this basis, or None if v lies outside."""
        v = vector(v)
        if not self.basis:
            return () if is_zero_vector(v) else None
        return Matrix.from_cols(self.basis).solve(v)


@dataclass(frozen=True)
class QuotientSpace:
    """Explicit presentation of Q^n / span(relations).

    ``project`` maps ambient vectors to quotient coordinates and kills every
    relation; ``section`` lists one ambient representative per quotient
    coordinate, with project o section = identity.  Representatives are the
    lexicographically first standard basis vectors complementing the
    relation row space.
    """

    ambient_dim: int
    dim: int
    project: Matrix
    section: tuple[Vector, ...]

    def section_matrix(self) -> Matrix:
        return Matrix.from_cols(self.section, rows=self.ambient_dim)


def quotient_space(ambient_dim: int, relations: Sequence[Vector]) -> QuotientSpace:
    """Quotient of Q^ambient_dim by the span of the relation vectors."""
    for r in relations:
        if len(r) != ambient_dim:
            raise ValueError("relation vector has wrong length")
    reduced, pivots = Matrix.from_rows(tuple(relations), cols=ambient_dim).rref()
    free = [j for j in range(ambient_dim) if j not in pivots]
    dim = len(free)
    proj = [[Fraction(0)] * ambient_dim for _ in range(dim)]
    for k, f in enumerate(free):
        proj[k][f] = Fraction(1)
        for i, p in enumerate(pivots):
            proj[k][p] = -reduced.entries[i][f]
    section = tuple(unit_vector(ambient_dim, f) for f in free)
    project = Matrix(proj) if dim else Matrix.zero(0, ambient_dim)
    return QuotientSpace(ambient_dim, dim, project, section)


def _subtract(row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction]) -> None:
    """row -= f * other in place, dropping entries that cancel."""
    for c, v in other.items():
        nv = row.get(c, Fraction(0)) - f * v
        if nv == 0:
            row.pop(c, None)
        else:
            row[c] = nv


class SparseRowSpace:
    """Incremental echelon form over sparse rational rows.

    Rows are dicts mapping column index to a nonzero Fraction.  The pivot of
    a row is its largest column index, so when columns are ordered by word
    degree the elimination mirrors degree-lowering rewriting and fill-in
    stays small.  Used for the large truncated ideal-span computations.
    """

    def __init__(self):
        self._pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_columns(self) -> set[int]:
        return set(self._pivots)

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        row = {c: v for c, v in row.items() if v != 0}
        while row:
            lead = max(row)
            pivot = self._pivots.get(lead)
            if pivot is None:
                return row
            _subtract(row, row[lead], pivot)
        return row

    def add(self, row: dict[int, Fraction]) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        lead = max(row)
        inv = 1 / row[lead]
        self._pivots[lead] = {c: v * inv for c, v in row.items()}
        return True

    def contains(self, row: dict[int, Fraction]) -> bool:
        return not self.reduce(row)

    def reduced_rows(self) -> dict[int, dict[int, Fraction]]:
        """The unique fully interreduced basis of the span, by pivot column:
        each row is monic and holds no other row's pivot column."""
        out: dict[int, dict[int, Fraction]] = {}
        for lead in sorted(self._pivots):
            row = dict(self._pivots[lead])
            # lower rows are already reduced, so clearing one pivot column
            # never brings in another
            for c in [c for c in row if c != lead and c in out]:
                _subtract(row, row[c], out[c])
            out[lead] = row
        return out
