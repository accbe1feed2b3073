"""Exact rational linear algebra.

Everything in this package reduces to linear algebra over the rationals:
axiom checking, Hom spaces, quotients, tensor products.  This module is the
single substrate for those computations, with one elimination engine,
:class:`SparseRowSpace`, under :meth:`Matrix.rref` and all that uses it.
All arithmetic is exact: values are :class:`fractions.Fraction`, and the
engine eliminates in integers and divides only for its reduced rows, so
every predicate (rank, membership, equality) is decided without tolerances.

Vectors are plain tuples of Fractions.  Matrices act on column vectors:
``m.apply(v)[i] == sum(m[i][j] * v[j])``.  Products and applications skip
zero entries, and only the public constructor coerces entries: results the
package computes itself are taken as they are.

Linear systems that are sparse by construction never pass through a dense
row.  :func:`kron_difference_rows` builds the rows of a Kronecker difference
x (x) I - I (x) y as ``{column: entry}`` dicts from the nonzeros of x and y;
the Hom and tensor systems build them in integers from integer tables, with
the columns numbered from the right, and the engine takes them as they are,
clearing no row.  :func:`_kernel` reads the free columns and the kernel
basis straight off the engine's reduced rows, for those systems,
:meth:`Matrix.nullspace_basis` and :func:`quotient_space` alike.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter
from reprlib import recursive_repr
from typing import Collection, Iterable, Iterator, Sequence

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$")
_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like ``-3/2``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL_RE.match(x):
            raise ValueError(f"not a rational literal: {x!r}")
        return rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational(text: str) -> Fraction:
    """The Fraction of a literal ``p`` or ``p/q`` of decimal digits, with an
    optional sign; a part with more digits than Python converts to an int
    (``sys.get_int_max_str_digits()``, 0 for no limit) is a ValueError that
    names its digits and the limit."""
    limit = sys.get_int_max_str_digits()
    digits = max(map(len, text.lstrip("-").split("/")))
    if limit and digits > limit:
        raise ValueError(f"rational literal too long: {digits} digits, limit {limit}")
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    """Render a Fraction in the canonical wire form ``-?p(/q)?``."""
    return str(x)


def vector(entries: Iterable) -> Vector:
    return tuple(frac(e) for e in entries)


def unit_vector(n: int, i: int) -> Vector:
    v = [_ZERO] * n
    v[i] = _ONE
    return tuple(v)


# ---------------------------------------------------------------------------
# Frozen value classes
# ---------------------------------------------------------------------------

def _arguments(cls: type, params: tuple[str, ...], defaults: dict,
               args: tuple, kwargs: dict) -> tuple:
    """The arguments of cls(*args, **kwargs) in parameter order, each given
    by position, by name or by its default."""
    if len(args) > len(params):
        raise TypeError(f"{cls.__qualname__}() takes {len(params)} arguments "
                        f"but {len(args)} were given")
    bound = list(args)
    for p in params[len(args):]:
        if p in kwargs:
            bound.append(kwargs.pop(p))
        elif p in defaults:
            bound.append(defaults[p])
        else:
            raise TypeError(f"{cls.__qualname__}() missing required argument {p!r}")
    if kwargs:
        raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated argument "
                        f"{next(iter(kwargs))!r}")
    return tuple(bound)


_set = object.__setattr__
_UNSET = object()


class _Latch:
    """The class-body default of a field outside __init__ and equality, such
    as ``verified: bool = _Latch(False)``: an instance reads the default
    until it sets the field itself."""

    def __init__(self, default):
        self.default = default


class _Fields:
    """A class's ``__dataclass_fields__`` until it is first read, from an
    instance, the class or a subclass: the read registers the fields with
    ``dataclass``, which replaces this descriptor by the field dict, and
    returns that dict."""

    def __init__(self, cls: type, latches: dict):
        self.cls, self.latches = cls, latches

    def __get__(self, obj, owner=None):
        from dataclasses import dataclass, field
        for name, default in self.latches.items():
            setattr(self.cls, name, field(default=default, init=False, compare=False))
        dataclass(self.cls, init=False, repr=False, eq=False)
        return vars(self.cls)["__dataclass_fields__"]


def _refused(verb: str, name: str) -> AttributeError:
    """The error for an assignment or deletion that a value class refuses,
    imported only when one is refused."""
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(f"cannot {verb} field {name!r}")


def _frozen(cls: type) -> type:
    """The package's decorator for immutable value classes: it gives cls the
    methods of ``dataclass(frozen=True)`` without compiling source or
    importing ``dataclasses``.

    The fields are cls's own annotations in order, a default is the plain
    class attribute, and a `_Latch` marks a field outside __init__ and
    equality.  The first read of ``__dataclass_fields__`` (by
    ``dataclasses.fields``, ``replace``, ``asdict``, ``is_dataclass`` or a
    subclass) runs ``dataclass(cls, init=False, repr=False, eq=False)``,
    which only registers the fields; ``__dataclass_params__`` records that
    call, not ``frozen=True``.  The six generated methods are closures
    compiled once with this module: __init__ takes the init fields by
    position or name, fills in defaults and calls __post_init__, while a
    latch reads its default until it is set; instances of one class are
    equal when their init fields are, and hash and repr give the generated
    methods' values; assigning or deleting a field, or any attribute of an
    instance of cls itself, raises FrozenInstanceError.  cls defines none of
    the six itself, and has a docstring of its own: without one,
    ``dataclass`` builds one from ``inspect.signature``.
    """
    own = vars(cls)
    names = tuple(own.get("__annotations__", ()))
    latches = {n: own[n].default for n in names if isinstance(own.get(n), _Latch)}
    for name, default in latches.items():
        setattr(cls, name, default)
    params = tuple(n for n in names if n not in latches)
    defaults = {n: own[n] for n in params if n in own}
    count, span, post_init = len(params), range(len(params)), hasattr(cls, "__post_init__")
    required = count - len(defaults)
    tail = tuple(defaults.values())
    if tuple(defaults) != params[required:]:
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    # attrgetter of one name returns the value, not a tuple of it
    get, one = attrgetter(*params), count == 1

    if count == 1:
        # the one-field constructor, such as OpElement's, is hot: a
        # positional-only parameter costs less than *args and a loop
        first, = params

        def __init__(self, value=_UNSET, /, **kwargs):
            if kwargs or value is _UNSET:
                given = () if value is _UNSET else (value,)
                value, = _arguments(cls, params, defaults, given, kwargs)
            _set(self, first, value)
            if post_init:
                self.__post_init__()
    else:
        def __init__(self, *args, **kwargs):
            if kwargs or not required <= len(args) <= count:
                args = _arguments(cls, params, defaults, args, kwargs)
            elif len(args) < count:
                args += tail[len(args) - required:]
            for i in span:
                _set(self, params[i], args[i])
            if post_init:
                self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (get(self),) == (get(other),) if one else get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash((get(self),) if one else get(self))

    @recursive_repr()
    def __repr__(self):
        fields_text = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields_text})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise _refused("assign to", name)
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise _refused("delete", name)
        super(cls, self).__delattr__(name)

    cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__
    cls.__repr__, cls.__setattr__, cls.__delattr__ = __repr__, __setattr__, __delattr__
    cls.__match_args__, cls.__dataclass_fields__ = params, _Fields(cls, latches)
    return cls


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
        return cls._shaped(((_ZERO,) * cols,) * rows, rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._shaped([unit_vector(n, i) for i in range(n)], n, n)

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
        out = [[_ZERO] * cols for _ in range(rows)]
        r = c = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r + i][c + j] = b.entries[i][j]
            r += b.rows
            c += b.cols
        return cls._shaped(out, rows, cols)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def columns(self, js: Sequence[int]) -> "Matrix":
        """The matrix of the columns js of self, in that order."""
        return Matrix._shaped([[row[j] for j in js] for row in self.entries], self.rows, len(js))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries \
            and self.rows == other.rows and self.cols == other.cols

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.entries]})"

    @classmethod
    def _shaped(cls, entries, rows: int, cols: int) -> "Matrix":
        """A rows x cols matrix of Fractions the package computed itself,
        taken as they are: no coercion and no ragged-row check."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", tuple(map(tuple, entries)) if cols else ((),) * rows)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        return m

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._shaped([[a + b if b else a for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.entries, other.entries)],
                              self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._shaped([[a - b if b else a for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.entries, other.entries)],
                              self.rows, self.cols)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix._shaped([[c * a if a else a for a in r] for r in self.entries],
                              self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        # row i of the product is the sum of a * (row j of other) over the
        # nonzero entries a = self[i][j]
        for row in self.entries:
            acc = [_ZERO] * other.cols
            for a, orow in zip(row, other.entries):
                if a:
                    acc = [s + a * b if b else s for s, b in zip(acc, orow)]
            out.append(acc)
        return Matrix._shaped(out, self.rows, other.cols)

    def apply(self, v: Sequence) -> Vector:
        v = vector(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        support = [(j, x) for j, x in enumerate(v) if x]
        return tuple(sum((row[j] * x for j, x in support if row[j]), _ZERO)
                     for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix._shaped(zip(*self.entries), self.cols, self.rows)

    def kron(self, other: "Matrix") -> "Matrix":
        """The Kronecker product: entry (i * p + k, j * q + l) is
        self[i][j] * other[k][l] for other of shape p x q; products with a
        zero factor are skipped."""
        return Matrix._shaped([[a * b if a and b else _ZERO for a in row for b in orow]
                               for row in self.entries for orow in other.entries],
                              self.rows * other.rows, self.cols * other.cols)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices, read off
        the engine's reduced rows of :func:`_from_right`: one row per pivot,
        leftmost first."""
        last = self.cols - 1
        reduced = _reduced(_from_right(self._sparse_rows(), self.cols))
        leads = sorted(reduced, reverse=True)
        rows = [[_ZERO] * self.cols for _ in range(self.rows)]
        for out, lead in zip(rows, leads):
            for c, a in reduced[lead].items():
                out[last - c] = a
        return Matrix._shaped(rows, self.rows, self.cols), tuple(last - lead for lead in leads)

    def rank(self) -> int:
        return len(self.rref()[1])

    def _sparse_rows(self) -> list[dict[int, Fraction]]:
        return [{c: a for c, a in enumerate(row) if a} for row in self.entries]

    def nullspace_basis(self) -> "Subspace":
        """Basis of the right kernel {v : self @ v = 0}."""
        return Subspace._independent(self.cols, _kernel(self._sparse_rows(), self.cols)[1])

    def solve(self, b: Sequence) -> Vector | None:
        """One exact solution of self @ x = b, or None if inconsistent."""
        sols = self._solve_many((b,))
        return None if sols is None else sols[0]

    def _solve_many(self, bs: Sequence[Sequence]) -> tuple[Vector, ...] | None:
        """One exact solution of self @ x = b for each b of bs, read off one
        elimination of [self | bs]; None if any b is inconsistent."""
        bs = [vector(b) for b in bs]
        if any(len(b) != self.rows for b in bs):
            raise ValueError("rhs length mismatch")
        aug = Matrix._shaped([r + tuple(b[i] for b in bs) for i, r in enumerate(self.entries)],
                             self.rows, self.cols + len(bs))
        reduced, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        sols = []
        for k in range(self.cols, self.cols + len(bs)):
            x = [_ZERO] * self.cols
            for i, p in enumerate(pivots):
                x[p] = reduced.entries[i][k]
            sols.append(tuple(x))
        return tuple(sols)


@_frozen
class Subspace:
    """A subspace of Q^n given by a linearly independent basis.

    Bases from :meth:`spanned_by` are in reduced row echelon form, hence
    canonical; others, such as :meth:`Matrix.nullspace_basis`'s kernel
    basis, are not, so re-span them before comparing subspaces.
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

    @classmethod
    def _independent(cls, ambient_dim: int, basis: tuple[Vector, ...]) -> "Subspace":
        """A basis read off an echelon form: independent, so not re-ranked."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient_dim", ambient_dim)
        object.__setattr__(sub, "basis", basis)
        return sub

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def spanned_by(cls, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        """Canonical (RREF) basis of the span of the given vectors."""
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("basis vector has wrong length")
        reduced, pivots = Matrix.from_rows(vectors, cols=ambient_dim).rref()
        return cls._independent(ambient_dim, reduced.entries[:len(pivots)])

    @cached_property
    def _rows(self) -> SparseRowSpace:
        space = SparseRowSpace()
        for v in self.basis:
            space.add(dict(enumerate(v)))
        return space

    def contains(self, v: Sequence) -> bool:
        """Whether v lies in the span; the basis is eliminated once per
        subspace and each vector is reduced against it."""
        v = vector(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return self._rows.contains(dict(enumerate(v)))


@_frozen
class QuotientSpace:
    """Explicit presentation of Q^n / span(relations).

    ``project`` maps ambient vectors to quotient coordinates and kills every
    relation; ``free`` lists the free columns of the relations' RREF,
    leftmost first, and ``project`` is the identity on them, so the standard
    basis vectors at ``free`` are one ambient representative per quotient
    coordinate: the lexicographically first complement of the relation row
    space.
    """

    ambient_dim: int
    dim: int
    project: Matrix
    free: tuple[int, ...]


def quotient_space(ambient_dim: int,
                   relations: Sequence[Vector | dict[int, Fraction]]) -> QuotientSpace:
    """Quotient of Q^ambient_dim by the span of the relations, each a dense
    vector or a sparse ``{column: Fraction}`` row; the projection rows are
    the kernel basis of the relation system, read off by :func:`_kernel`."""
    rows = []
    for r in relations:
        if isinstance(r, dict):
            if r and (min(r) < 0 or max(r) >= ambient_dim):
                raise ValueError("relation row has a column out of range")
            rows.append(r)
        elif len(r) != ambient_dim:
            raise ValueError("relation vector has wrong length")
        else:
            rows.append(dict(enumerate(vector(r))))
    return _quotient_from_right(_from_right(rows, ambient_dim), ambient_dim)


def _quotient_from_right(rows: Iterable[dict[int, int]], ambient_dim: int) -> QuotientSpace:
    """:func:`quotient_space` of integer rows numbered from the right."""
    free, kernel = _kernel_from_right(rows, ambient_dim)
    return QuotientSpace(ambient_dim, len(free), Matrix._shaped(kernel, len(kernel), ambient_dim),
                         tuple(free))


def kron_difference_rows(x, y) -> list[dict]:
    """The rows of x (x) I_q - I_p (x) y for x p x p and y q x q, each a
    Matrix or a table of int rows, as {column: entry} dicts built from the
    nonzeros of x and y, whatever their type.  Row i * q + k holds x[i][j]
    at column j * q + k and -y[k][l] at column i * q + l; the two meet only
    on the diagonal."""
    x, y = (m.entries if isinstance(m, Matrix) else m for m in (x, y))
    q = len(y)
    xs = [[(j * q, a) for j, a in enumerate(row) if a] for row in x]
    ys = [[(l, -b) for l, b in enumerate(row) if b] for row in y]
    ydiag = [row[k] for k, row in enumerate(y)]
    rows = []
    for i, xi in enumerate(xs):
        base, xii = i * q, x[i][i]
        for k, yk in enumerate(ys):
            row = {jq + k: a for jq, a in xi}
            row.update((base + l, b) for l, b in yk)
            if xii and ydiag[k]:
                # -y[k][k] overwrote x[i][i]; when either is zero, the
                # entry left there is already the difference
                diag = xii - ydiag[k]
                if diag:
                    row[base + k] = diag
                else:
                    del row[base + k]
            rows.append(row)
    return rows


def _kron_rows_from_right(pairs: Iterable[tuple[Sequence, Sequence]], sx: int,
                          sy: int) -> list[dict[int, int]]:
    """The rows of (sx x) (x) I - I (x) (sy y) over the pairs (x, y) of
    square integer tables, in order, with column c numbered p q - 1 - c:
    turning both factors, J x J and J y J for the reversal J, reverses the
    columns and the row order of :func:`kron_difference_rows`."""
    rows = []
    for pair in pairs:
        x, y = ([row[::-1] if s == 1 else [s * v for v in reversed(row)] for row in reversed(t)]
                for t, s in zip(pair, (sx, sy)))
        rows += reversed(kron_difference_rows(x, y))
    return rows


def _from_right(rows: Iterable[dict], cols: int) -> Iterator[dict[int, int]]:
    """Each row as an integer row with column c numbered cols - 1 - c: the
    engine's largest-column pivot is then the leftmost one, and its
    interreduced basis is the RREF."""
    last = cols - 1
    return (_integer_row({last - c: a for c, a in row.items()}) for row in rows)


def _reduced(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, Fraction]]:
    """The reduced rows of the span of integer rows with no zero entry,
    which the engine consumes."""
    space = SparseRowSpace()
    for row in rows:
        space._add(row)
    return space.reduced_rows()


def _kernel(rows: Iterable[dict], cols: int) -> tuple[list[int], tuple[Vector, ...]]:
    """The free columns of the RREF of the sparse rows and, for each, the
    kernel vector that is 1 there, 0 at the other free columns, and minus
    that column of the RREF at the pivots."""
    return _kernel_from_right(_from_right(rows, cols), cols)


def _kernel_from_right(rows: Iterable[dict[int, int]], cols: int) -> tuple[list[int], tuple[Vector, ...]]:
    """:func:`_kernel` of integer rows numbered from the right, read off the
    engine's reduced rows."""
    last = cols - 1
    reduced = _reduced(rows)
    free = [j for j in range(cols) if last - j not in reduced]
    kernel = {f: list(unit_vector(cols, f)) for f in free}
    for lead, row in reduced.items():
        # interreduced: every column of a row but its pivot is free
        for c, a in row.items():
            if c != lead:
                kernel[last - c][last - lead] = -a
    return free, tuple(tuple(kernel[f]) for f in free)


def _cleared(pairs: Collection[tuple[object, Fraction]]) -> tuple[int, list[tuple[object, int]]]:
    """D, the lcm of the denominators of the rationals in the (key, value)
    pairs, and the pairs with their values times D, as ints; an int is a
    rational of denominator 1.  Every denominator the package clears is
    cleared here."""
    den = lcm(*{v.denominator for _, v in pairs})
    return den, [(k, v.numerator * (den // v.denominator)) for k, v in pairs]


def _int_product(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> list[list[int]]:
    """x y for integer matrices given as sequences of rows: row i sums
    a (row j of y) over the nonzero entries a = x[i][j] only."""
    width = len(y[0]) if y else 0
    out = []
    for row in x:
        acc = [0] * width
        for a, yrow in zip(row, y):
            if a:
                acc = [s + a * b for s, b in zip(acc, yrow)]
        out.append(acc)
    return out


def _eliminate(row: dict[int, int], col: int, pivot: dict[int, int]) -> dict[int, int]:
    """(p/g) row - (r/g) pivot, which is 0 at col, for r = row[col], p =
    pivot[col] > 0 and g their gcd; row is changed in place when p/g is 1,
    and entries that cancel are dropped."""
    r, p = row[col], pivot[col]
    g = gcd(r, p)
    r, p = r // g, p // g
    if p != 1:
        row = {c: p * v for c, v in row.items()}
    for c, v in pivot.items():
        nv = row.get(c, 0) - r * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    return row


def _integer_row(row: dict) -> dict[int, int]:
    """A new integer row of row's nonzeros: ints as they are, a row with a
    Fraction cleared once (:func:`_cleared`)."""
    if all(type(v) is int for v in row.values()):
        return {c: v for c, v in row.items() if v}
    return {c: n for c, n in _cleared(row.items())[1] if n}


class SparseRowSpace:
    """Incremental echelon form over sparse rational rows, eliminated in
    integers.

    Rows are dicts mapping column index to an int or a Fraction.  A row of
    ints is taken as it is, and a row with a Fraction is cleared to integers
    once, on entry; the caller's dict is never changed.  Each pivot row is
    kept as a primitive integer row (the gcd of its entries removed) with a
    positive leading entry, and a row is reduced against pivot p by
    row <- (p_lead/g) row - (row_lead/g) p, with no division (Bareiss, Math.
    Comp. 22, 1968).  The pivot of a row is its largest column index, so
    when columns are ordered by word degree the elimination mirrors
    degree-lowering rewriting and fill-in stays small.  Only
    :meth:`reduced_rows` divides.  It is the package's one elimination
    engine: the truncated ideal spans use it directly, :meth:`Matrix.rref`,
    the kernel read-off and the Hom and tensor systems with columns
    reversed, the last two with the integer Kronecker rows they are built as.
    """

    def __init__(self):
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_columns(self) -> set[int]:
        return set(self._pivots)

    def reduce(self, row: dict) -> dict[int, int]:
        """The remainder of row against the pivots, as an integer row: a
        nonzero multiple of the rational remainder, or empty when row lies
        in the span."""
        return self._reduce(_integer_row(row))

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """:meth:`reduce` of an integer row of nonzeros, which it consumes."""
        while row:
            lead = max(row)
            pivot = self._pivots.get(lead)
            if pivot is None:
                break
            row = _eliminate(row, lead, pivot)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        return self._add(_integer_row(row))

    def _add(self, row: dict[int, int]) -> bool:
        """:meth:`add` of an integer row of nonzeros, which it consumes."""
        row = self._reduce(row)
        if not row:
            return False
        lead = max(row)
        g = gcd(*row.values())
        g = g if row[lead] > 0 else -g
        self._pivots[lead] = {c: v // g for c, v in row.items()}
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def reduced_rows(self) -> dict[int, dict[int, Fraction]]:
        """The unique fully interreduced basis of the span, by pivot column:
        each row is monic and holds no other row's pivot column.  Rows are
        interreduced in integers and divided by their leading entries last."""
        out: dict[int, dict[int, int]] = {}
        for lead in sorted(self._pivots):
            row = dict(self._pivots[lead])
            # lower rows are already reduced, so clearing one pivot column
            # never brings in another
            for c in [c for c in row if c != lead and c in out]:
                row = _eliminate(row, c, out[c])
            out[lead] = row
        return {lead: {c: Fraction(v, row[lead]) for c, v in row.items()}
                for lead, row in out.items()}
