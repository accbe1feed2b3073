import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrb.linalg import (
    Matrix,
    SparseRowSpace,
    Subspace,
    _kernel,
    frac,
    kron_difference_rows,
    quotient_space,
)
from test_opring_reference import FractionRowSpace

rationals = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 4)
)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix)
        )
    )


def test_frac_accepts_wire_format():
    assert frac("3/2") == Fraction(3, 2)
    assert frac("-7") == Fraction(-7)
    with pytest.raises(ValueError):
        frac("3/0")  # zero denominator is outside the grammar
    with pytest.raises(ValueError):
        frac("1.5")


def test_rank_identity_and_zero():
    assert Matrix.identity(2).rank() == 2
    assert Matrix.zero(3, 3).rank() == 0


def test_rank_dependent_rows():
    # [[1,2],[2,4]]: second row is twice the first
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


def test_nullspace_identity_empty():
    assert Matrix.identity(3).nullspace_basis().dim == 0


def test_nullspace_zero_full():
    ns = Matrix.zero(2, 3).nullspace_basis()
    assert ns.dim == 3


def test_nullspace_direct_substitution():
    m = Matrix([[1, 1]])
    ns = m.nullspace_basis()
    assert ns.dim == 1
    v = ns.basis[0]
    assert m.apply(v) == (Fraction(0),)
    assert ns.contains((1, -1))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + m.nullspace_basis().dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_vectors_are_kernel(m):
    for v in m.nullspace_basis().basis:
        assert all(x == 0 for x in m.apply(v))


def test_quotient_no_relations_is_identity():
    qs = quotient_space(2, [])
    assert qs.dim == 2
    assert qs.project == Matrix.identity(2)


def test_quotient_kills_single_axis():
    qs = quotient_space(2, [(Fraction(1), Fraction(0))])
    assert qs.dim == 1
    assert qs.project.apply((1, 0)) == (Fraction(0),)


def test_quotient_two_relations_in_three_dims():
    qs = quotient_space(3, [(Fraction(1), Fraction(1), Fraction(0)),
                            (Fraction(0), Fraction(1), Fraction(1))])
    assert qs.dim == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.lists(st.lists(rationals, min_size=3, max_size=3), max_size=4))
def test_quotient_properties(extra, rel3):
    ambient = 3
    relations = [tuple(v) for v in rel3]
    qs = quotient_space(ambient, relations)
    # projection kills every relation
    for r in relations:
        assert all(x == 0 for x in qs.project.apply(r))
    # project is the identity on the free columns
    assert qs.project.columns(qs.free) == Matrix.identity(qs.dim)
    # dimension law
    stacked = Matrix.from_rows(relations, cols=ambient) if relations else Matrix.zero(0, ambient)
    assert qs.dim == ambient - stacked.rank()


def test_section_is_standard_basis_complement():
    qs = quotient_space(3, [(Fraction(1), Fraction(2), Fraction(0))])
    # pivot lands on the first column, so the free columns are the other two
    assert qs.free == (1, 2)


def test_solve_consistent_and_inconsistent():
    m = Matrix([[1, 2], [2, 4]])
    assert m.solve((1, 2)) is not None
    assert m.solve((1, 3)) is None


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(2, ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))))


def test_subspace_spanned_by_canonical():
    s1 = Subspace.spanned_by(2, [(Fraction(2), Fraction(0)), (Fraction(1), Fraction(1))])
    s2 = Subspace.spanned_by(2, [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))])
    assert s1 == s2
    assert s1.dim == 2


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rank_and_nullspace_against_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.entries])
    assert m.rank() == sm.rank()
    ours = m.nullspace_basis()
    theirs = sm.nullspace()
    assert ours.dim == len(theirs)
    for v in theirs:
        vec = tuple(Fraction(int(x.p), int(x.q)) for x in v)
        assert ours.contains(vec)


def _zeroed(args):
    entries, zero_rows, zero_cols = args
    return Matrix([[Fraction(0) if i in zero_rows or j in zero_cols else x
                    for j, x in enumerate(row)] for i, row in enumerate(entries)])


def shaped_matrices(max_dim=5):
    """Tall, wide and square matrices with some rows and columns zeroed."""
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.tuples(
                st.lists(st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r),
                st.sets(st.integers(0, r - 1)),
                st.sets(st.integers(0, c - 1)),
            )
        )
    ).map(_zeroed)


def _assert_rref_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                       for row in m.entries for x in row])
    theirs, their_pivots = sm.rref()
    ours, pivots = m.rref()
    assert (ours.rows, ours.cols) == theirs.shape
    assert pivots == tuple(their_pivots)
    assert [list(row) for row in ours.entries] == [
        [Fraction(int(x.p), int(x.q)) for x in row] for row in theirs.tolist()
    ]


@settings(max_examples=80, deadline=None)
@given(shaped_matrices())
def test_rref_matches_sympy_entry_by_entry(m):
    _assert_rref_matches_sympy(m)


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0)])
def test_rref_of_empty_shapes_matches_sympy(rows, cols):
    _assert_rref_matches_sympy(Matrix.zero(rows, cols))


def _sympy_matrix(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.entries for x in row])


def _from_sympy(rows):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in rows)


# most entries zero, as in action and operator tables
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


def _sparse_matrix(rows, cols):
    if rows == 0 or cols == 0:
        return st.just(Matrix.zero(rows, cols))
    row = st.lists(sparse_rationals, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(Matrix)


@st.composite
def sparse_products(draw):
    """(a, b, v): a is r x k, b is k x c and v has length k, every dimension
    in 0..4, so empty shapes such as 0 x n and n x 0 come up."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    vector = st.lists(sparse_rationals, min_size=k, max_size=k).map(tuple)
    return draw(_sparse_matrix(r, k)), draw(_sparse_matrix(k, c)), draw(vector)


@settings(max_examples=80, deadline=None)
@given(sparse_products())
def test_matmul_and_apply_match_sympy_and_stay_fractions(args):
    sympy = pytest.importorskip("sympy")
    a, b, v = args
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product.entries == _from_sympy((_sympy_matrix(a) * _sympy_matrix(b)).tolist())
    applied = a.apply(v)
    column = Matrix.from_cols([v], rows=len(v))
    assert applied == _from_sympy((_sympy_matrix(a) * _sympy_matrix(column)).T.tolist())[0]
    kron = a.kron(b)
    assert (kron.rows, kron.cols) == (a.rows * b.rows, a.cols * b.cols)
    if a.rows and a.cols:
        theirs = sympy.kronecker_product(_sympy_matrix(a), _sympy_matrix(b))
        assert kron.entries == _from_sympy(theirs.tolist())
    else:
        # sympy's kronecker_product fails on an empty first factor; the
        # product then has no rows or no columns
        assert kron.entries == ((),) * kron.rows
    entries = [x for m in (product, kron) for row in m.entries for x in row] + list(applied)
    assert all(type(x) is Fraction for x in entries)


def test_subspace_and_kernel_eliminate_once(rref_calls):
    vectors = [(Fraction(2), Fraction(0), Fraction(1)), (Fraction(1), Fraction(1), Fraction(0))]
    assert Subspace.spanned_by(3, vectors).dim == 2
    assert rref_calls == [2]
    rref_calls.clear()
    assert Matrix(vectors).nullspace_basis().dim == 1
    assert rref_calls == [2]
    rref_calls.clear()
    assert quotient_space(3, vectors).dim == 1
    assert rref_calls == [2]


def _kron_difference_pairs(p, q, rng):
    """Pairs of square tables x (p x p) and y (q x q): a drawn pair with most
    entries zero, each drawn table beside a zero one, two zero tables, and
    twice the identity on both sides, where every diagonal entry of the
    difference cancels."""
    def drawn(n):
        return Matrix([[rng.choice((0, 0, 0, 1, -1, 2, Fraction(1, 2))) for _ in range(n)]
                       for _ in range(n)])

    x, y = drawn(p), drawn(q)
    zx, zy = Matrix.zero(p, p), Matrix.zero(q, q)
    return [(x, y), (zx, y), (x, zy), (zx, zy),
            (Matrix.identity(p).scale(2), Matrix.identity(q).scale(2))]


@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("q", range(5))
def test_kron_difference_rows_match_the_dense_expression(p, q):
    rng = random.Random(10 * p + q)
    for x, y in [pair for _ in range(4) for pair in _kron_difference_pairs(p, q, rng)]:
        dense = (x.kron(Matrix.identity(q)) - Matrix.identity(p).kron(y)).entries
        rows = kron_difference_rows(x, y)
        assert len(rows) == len(dense)
        for row, expected in zip(rows, dense):
            assert all(row.values())
            assert tuple(row.get(c, Fraction(0)) for c in range(p * q)) == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(), shaped_matrices()))
def test_kernel_read_off_matches_sympy_nullspace(m):
    sm = _sympy_matrix(m)
    free, kernel = _kernel(m._sparse_rows(), m.cols)
    pivots = sm.rref()[1]
    assert free == [j for j in range(m.cols) if j not in pivots]
    assert kernel == _from_sympy([v.T.tolist()[0] for v in sm.nullspace()])
    assert m.nullspace_basis().basis == kernel


def test_sparse_row_space_rank_matches_dense():
    rows = [
        {0: Fraction(1), 2: Fraction(2)},
        {1: Fraction(1)},
        {0: Fraction(2), 1: Fraction(1), 2: Fraction(4)},
    ]
    rs = SparseRowSpace()
    for r in rows:
        rs.add(dict(r))
    dense = Matrix([[1, 0, 2], [0, 1, 0], [2, 1, 4]])
    assert rs.rank == dense.rank() == 2
    assert rs.contains({0: Fraction(3), 1: Fraction(1), 2: Fraction(6)})
    assert not rs.contains({2: Fraction(1)})


def test_sparse_row_space_reduced_rows_are_interreduced():
    rs = SparseRowSpace()
    for r in (
        {0: Fraction(1), 2: Fraction(1), 3: Fraction(1)},
        {1: Fraction(1), 2: Fraction(2)},
        {0: Fraction(2), 1: Fraction(1), 2: Fraction(4), 3: Fraction(2)},
    ):
        rs.add(r)
    # pivot 3 loses its column-2 entry to the monic row with pivot 2
    assert rs.reduced_rows() == {
        2: {1: Fraction(1, 2), 2: Fraction(1)},
        3: {0: Fraction(1), 1: Fraction(-1, 2), 3: Fraction(1)},
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), rationals, max_size=5), max_size=6),
       st.lists(st.integers(1, 6), min_size=6, max_size=6))
def test_sparse_row_space_takes_integer_rows_exactly(rows, scales):
    # integer rows: each rational row times its denominators' lcm and a
    # further integer factor, so some pivots are ints before normalizing
    def cleared(row, k):
        den = lcm(*(v.denominator for v in row.values()))
        return {c: int(v * den) * k for c, v in row.items()}

    rational, integral, multiples = SparseRowSpace(), SparseRowSpace(), SparseRowSpace()
    for row, k in zip(rows, scales):
        rational.add(dict(row))
        integral.add(cleared(row, k))
        multiples.add({c: v * k for c, v in row.items()})
    expected = rational.reduced_rows()
    for space in (integral, multiples):
        reduced = space.reduced_rows()
        assert all(type(v) is Fraction for r in reduced.values() for v in r.values())
        assert reduced == expected
        assert space.rank == rational.rank == len(expected)
        assert space.pivot_columns == rational.pivot_columns == set(expected)
        for row, k in zip(rows, scales):
            assert space.contains(row) and space.contains(cleared(row, k + 1))
        # a unit row off the pivot columns reduces to itself
        for c in set(range(6)) - set(expected):
            assert not space.contains({c: Fraction(1, 3)})


mixed = st.one_of(st.integers(-9, 9), rationals)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 6), mixed, max_size=5), max_size=8),
       st.dictionaries(st.integers(0, 6), mixed, max_size=5))
def test_sparse_row_space_matches_the_fraction_reference(rows, probe):
    # the reference eliminates in Fractions and keeps its pivots monic
    ours, ref = SparseRowSpace(), FractionRowSpace()
    for row in rows:
        assert ours.add(dict(row)) == ref.add(dict(row))
    reduced = ours.reduced_rows()
    assert all(type(v) is Fraction for r in reduced.values() for v in r.values())
    assert reduced == ref.reduced_rows()
    assert (ours.rank, ours.pivot_columns) == (ref.rank, ref.pivot_columns)
    # the remainder is an integer row, a nonzero multiple of the reference's
    mine, theirs = ours.reduce(dict(probe)), ref.reduce(dict(probe))
    assert all(type(v) is int for v in mine.values())
    assert set(mine) == set(theirs)
    if theirs:
        lead = max(theirs)
        ratio = Fraction(mine[lead]) / theirs[lead]
        assert all(mine[c] == ratio * theirs[c] for c in theirs)
    assert ours.contains(probe) == ref.contains(probe) == (not theirs)


def test_reduce_clears_no_integer_row(monkeypatch):
    import mrb.linalg as linalg
    cleared = []
    monkeypatch.setattr(linalg, "_cleared", lambda pairs, f=linalg._cleared:
                        cleared.append(dict(pairs)) or f(pairs))
    rs = SparseRowSpace()
    ints = [{0: 2, 3: -4}, {1: 3, 3: 0}, {0: 1, 1: 1, 2: 5}]
    kept = [dict(row) for row in ints]
    assert [rs.add(row) for row in ints] == [True, True, True]
    assert rs.reduce({0: 6, 3: -12}) == {} and rs.contains({1: 6})
    assert not rs.contains({4: 1}) and rs.reduce({0: 0, 4: 7}) == {4: 7}
    # integer rows are taken as they are, and the caller's dicts kept
    assert cleared == [] and ints == kept
    # a row with a Fraction is cleared once, on entry
    assert rs.contains({0: Fraction(1, 2), 3: -1})
    assert cleared == [{0: Fraction(1, 2), 3: -1}]


def test_integer_pivot_is_inverted_exactly():
    rs = SparseRowSpace()
    rs.add({0: 1, 1: 3})
    assert rs.reduced_rows() == {1: {0: Fraction(1, 3), 1: Fraction(1)}}
    assert type(rs.reduced_rows()[1][0]) is Fraction
