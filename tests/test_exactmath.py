from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from domdimlab.exactmath import F2, F3, QQ, FieldSpec, Matrix

FIELDS = [F2, F3, FieldSpec.prime(5), QQ]


def field_strategy():
    return st.sampled_from(FIELDS)


@st.composite
def matrices(draw, min_rows=0, max_rows=5, min_cols=0, max_cols=5, field=None):
    fld = field if field is not None else draw(field_strategy())
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    data = draw(st.lists(
        st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    # a matrix without rows keeps its column count
    return Matrix.from_rows(fld, data) if rows else Matrix.zeros(fld, 0, cols)


def test_fieldspec_rejects_nonprime():
    with pytest.raises(ValueError):
        FieldSpec.prime(6)
    with pytest.raises(ValueError):
        FieldSpec("weird")


def test_scalar_canonical_forms():
    assert F3.of_int(-1) == 2
    assert QQ.parse("4/6") == Fraction(2, 3)
    assert F2.parse("7") == 1
    assert F3.inv(2) == 2
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)


@pytest.mark.parametrize("fld, scalar", [
    (F2, 1), (QQ, 1), (QQ, "1/0"), (F3, "1/2"),
    (QQ, "0.5"), (QQ, "1e3"), (F3, "1_0"), (QQ, "1_0/3"), (QQ, "1/-2"), (F2, " 1"), (F3, "+"),
    (QQ, "\u0661"),  # an Arabic-Indic digit one
])
def test_parse_rejects_what_is_not_a_scalar_string(fld, scalar):
    with pytest.raises(ValueError):
        fld.parse(scalar)


def test_rref_identity_f2():
    res = Matrix.identity(F2, 3).rref()
    assert res.rank == 3
    assert res.pivots == (0, 1, 2)
    assert res.matrix == Matrix.identity(F2, 3)


def test_rref_zero_matrix_q():
    res = Matrix.zeros(QQ, 2, 4).rref()
    assert res.rank == 0
    assert res.pivots == ()


def test_rref_proportional_rows_q():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.rref().rank == 1


def test_kernel_of_identity_is_empty():
    k = Matrix.identity(QQ, 4).kernel_basis()
    assert k.cols == 0 and k.rows == 4


def test_kernel_of_zero_map():
    k = Matrix.zeros(F3, 2, 3).kernel_basis()
    assert k.cols == 3
    assert k.rank() == 3


def test_shapes_of_matrices_without_rows_or_columns():
    z03 = Matrix.zeros(QQ, 0, 3)
    assert (z03.rows, z03.cols) == (0, 3)
    assert Matrix.zeros(QQ, 2, 0) @ z03 == Matrix.zeros(QQ, 2, 3)
    assert (Matrix.zeros(QQ, 2, 0) @ z03).cols == 3
    assert z03.kernel_basis() == Matrix.identity(QQ, 3)
    t = Matrix.zeros(QQ, 3, 0).transpose()
    assert (t.rows, t.cols) == (0, 3)
    assert z03.rref().matrix.cols == (z03 + z03).cols == z03.scale(2).cols == 3
    assert z03 != Matrix.zeros(QQ, 0, 2)


def test_kernel_forced_by_rank_nullity_f2():
    k = Matrix.from_rows(F2, [[1, 1]]).kernel_basis()
    assert k.cols == 1
    assert [k.entry(0, 0), k.entry(1, 0)] == [1, 1]


def test_solve_identity():
    b = Matrix.from_rows(QQ, [[3], [5]])
    x = Matrix.identity(QQ, 2).solve(b)
    assert x == b


def test_solve_inconsistent_returns_none():
    m = Matrix.zeros(F2, 2, 2)
    b = Matrix.from_rows(F2, [[1], [0]])
    assert m.solve(b) is None


def test_solve_scalar_division():
    m = Matrix.from_rows(QQ, [[2]])
    x = m.solve(Matrix.from_rows(QQ, [[1]]))
    assert x.entry(0, 0) == Fraction(1, 2)


def test_solve_shape_check():
    with pytest.raises(Exception):
        Matrix.identity(QQ, 2).solve(Matrix.from_rows(QQ, [[1], [1], [1]]))


def test_matrix_is_immutable():
    m = Matrix.identity(F2, 2)
    with pytest.raises(AttributeError):
        m.rows = 5


@given(matrices())
def test_rref_idempotent(m):
    first = m.rref()
    again = first.matrix.rref()
    assert again.matrix == first.matrix
    assert again.rank == first.rank
    assert again.pivots == first.pivots


@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + m.kernel_basis().cols == m.cols


@given(matrices())
def test_kernel_columns_annihilated(m):
    k = m.kernel_basis()
    if k.cols:
        assert (m @ k).is_zero()


@given(matrices(min_rows=1, min_cols=1), st.data())
def test_solve_soundness(m, data):
    # build a guaranteed-consistent rhs, then check m @ x == b exactly
    xs = data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=2, max_size=2),
        min_size=m.cols, max_size=m.cols))
    x_true = Matrix.from_rows(m.field, xs)
    b = m @ x_true
    x = m.solve(b)
    assert x is not None
    assert m @ x == b


@given(matrices())
def test_rref_pivot_count_matches_rank(m):
    res = m.rref()
    assert len(res.pivots) == res.rank
    data = res.matrix
    for r, c in enumerate(res.pivots):
        assert data.entry(r, c) == m.field.one()
        for rr in range(data.rows):
            if rr != r:
                assert not data.entry(rr, c)


@given(st.sampled_from([F2, F3, QQ]).flatmap(lambda fld: matrices(field=fld, max_rows=16, max_cols=80)))
def test_rref_rows_matches_the_span_builder_basis(m):
    # up to 16 x 80 cells: the same rank, pivots and RREF rows as the
    # sparse echelon span, and zero rows below the rank
    from domdimlab.exactmath import SpanBuilder, rref_rows, sparse_row

    work = m.row_lists()
    rank, pivots = rref_rows(m.field, work)
    span = SpanBuilder(m.field)
    for r in m.row_lists():
        span.add(sparse_row(r))
    assert span.finish() == ([sparse_row(r) for r in work[:rank]], pivots)
    assert not any(any(r) for r in work[rank:])


def test_matrix_holds_canonical_scalars():
    # entries are reduced on construction, as rref_rows requires
    m = Matrix(F3, [[3, 4], [1, 5]])
    assert m.data == ((0, 1), (1, 2))
    assert m.rref().matrix == Matrix.identity(F3, 2)
    assert all(type(x) is Fraction for x in Matrix(QQ, [[1, 2]]).data[0])


@given(matrices(min_rows=1, min_cols=1), st.data())
def test_coords_against_sparse_basis(m, data):
    # a vector in the row space gets its coordinates back; one outside gets None
    from domdimlab.exactmath import coords_against, matmul_rows, sparse_row

    fld = m.field
    res = m.rref()
    basis = res.matrix.row_lists()[:res.rank]
    support = [sparse_row(r) for r in basis]
    coeffs = [fld.of_int(x) for x in data.draw(st.lists(
        st.integers(-4, 4), min_size=res.rank, max_size=res.rank))]
    vec = matmul_rows(fld, [coeffs], basis)[0] if basis else [fld.zero()] * m.cols
    assert coords_against(fld, support, list(res.pivots), sparse_row(vec)) == sparse_row(coeffs)
    free = [c for c in range(m.cols) if c not in res.pivots]
    if free:
        vec[free[0]] = fld.add(vec[free[0]], fld.one())
        assert coords_against(fld, support, list(res.pivots), sparse_row(vec)) is None


def dense(fld, pairs, n):
    out = [fld.zero()] * n
    for j, x in pairs:
        out[j] = x
    return out


@given(matrices(min_rows=1, min_cols=1), st.data())
def test_coords_against_kernel_basis(m, data):
    # a basis from left_kernel_rows has each pivot at its row's last entry,
    # with every other row 0 there; coordinates are still read at the pivots
    from domdimlab.exactmath import coords_against, left_kernel_rows, matmul_rows, sparse_row

    fld = m.field
    _, support = left_kernel_rows(fld, [sparse_row(r) for r in m.row_lists()], m.cols)
    basis = [dense(fld, r, m.rows) for r in support]
    pivots = [r[-1][0] for r in support]
    assert all(r[-1][1] == 1 for r in support)
    assert all(b[c] == 0 for k, c in enumerate(pivots) for j, b in enumerate(basis) if j != k)
    coeffs = [fld.of_int(x) for x in data.draw(st.lists(
        st.integers(-4, 4), min_size=len(basis), max_size=len(basis)))]
    vec = matmul_rows(fld, [coeffs], basis)[0] if basis else [fld.zero()] * m.rows
    assert coords_against(fld, support, pivots, sparse_row(vec)) == sparse_row(coeffs)
    # a vector that is 0 at every pivot lies in the span only if it is 0
    outside = [c for c in range(m.rows) if c not in pivots]
    if outside:
        vec[outside[0]] = fld.add(vec[outside[0]], fld.one())
        assert coords_against(fld, support, pivots, sparse_row(vec)) is None


@st.composite
def rows_with_a_left_kernel(draw, fld, max_rows, max_cols):
    """Dense rows: drawn rows, then combinations of them and zero rows, in a
    drawn order, so that the left kernel is rarely zero."""
    ncols = draw(st.integers(0, max_cols))
    entry = st.integers(-3, 3).map(fld.of_int)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=max_rows))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        rows.append(combination(fld, coeffs, rows, ncols))
    rows += [[fld.zero()] * ncols for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows)), ncols


def check_left_kernel(fld, rows, ncols):
    # against rank_rows, and against kernel_rows of the dense transpose:
    # the reduced basis is unique, so the rows agree exactly
    from domdimlab.exactmath import kernel_rows, left_kernel_rows, rank_rows, sparse_row

    rank, kernel = left_kernel_rows(fld, [sparse_row(r) for r in rows], ncols)
    transpose = [[r[j] for r in rows] for j in range(ncols)]
    assert rank == rank_rows(fld, rows)
    assert kernel == [sparse_row(r) for r in kernel_rows(fld, transpose, len(rows))]
    assert len(kernel) == len(rows) - rank


@given(st.sampled_from([F2, F3, QQ]).flatmap(lambda fld: st.tuples(
    st.just(fld), rows_with_a_left_kernel(fld, max_rows=6, max_cols=6))))
def test_left_kernel_rows_matches_the_dense_transpose(case):
    fld, (rows, ncols) = case
    check_left_kernel(fld, rows, ncols)


@given(rows_with_a_left_kernel(F2, max_rows=30, max_cols=60))
def test_left_kernel_rows_f2_packed_matches_the_dense_transpose(case):
    # up to 36 x 60 cells, over several 64-bit words of packed rows
    from domdimlab.exactmath import left_kernel_rows, row_format, sparse_row

    check_left_kernel(F2, *case)
    # int rows, bit k for column k, give the same rank as pairs, and the
    # same kernel as int rows
    rows, ncols = case
    packed = [sum(1 << k for k, x in enumerate(r) if x) for r in rows]
    rank, kernel = left_kernel_rows(F2, packed, ncols)
    assert all(isinstance(k, int) for k in kernel)
    unpack = row_format(F2).unpack
    assert (rank, [unpack(k) for k in kernel]) == left_kernel_rows(F2, [sparse_row(r) for r in rows], ncols)


@given(rows_with_a_left_kernel(F2, max_rows=12, max_cols=40), st.data())
def test_packed_f2_helpers_match_pair_arithmetic(case, data):
    # pack and unpack, v times a matrix, and the rank of a packed span,
    # against sparse rows, matmul_rows and rank_rows
    from domdimlab.exactmath import matmul_rows, rank_rows, row_format, sparse_row

    fmt = row_format(F2)
    rows, ncols = case
    pairs = [sparse_row(r) for r in rows]
    packed = [fmt.pack(r) for r in pairs]
    assert [fmt.unpack(v) for v in packed] == pairs
    x = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    if rows and ncols:
        assert fmt.unpack(fmt.times(fmt.pack(sparse_row(x)), packed)) == sparse_row(
            matmul_rows(F2, [x], rows)[0])
    span = fmt.span()
    added = [span.add(v) for v in packed]
    assert span.rank == sum(added) == (rank_rows(F2, rows) if ncols else 0)


TRUNCATED_POLY = {F2: "truncated-poly(3,F2)", F3: "truncated-poly(3,F3)", QQ: "truncated-poly(3,Q)"}


@given(st.sampled_from([F2, F3, QQ]).flatmap(lambda fld: st.tuples(
    st.just(fld), rows_with_a_left_kernel(fld, max_rows=6, max_cols=6))), st.data())
def test_row_formats_match_pair_arithmetic(case, data):
    # each operation of row_format, on random pair rows packed into the
    # field's format and read back with unpack, against combine_pairs,
    # Representation.apply_element, coords_against and left_kernel_rows
    from domdimlab import homology as hml
    from domdimlab import quivalg as qa
    from domdimlab.exactmath import (SpanBuilder, combine_pairs, coords_against, left_kernel_rows,
                                     row_format, sparse_row)

    (fld, (rows, n)), fmt = case, row_format(case[0])
    entry = st.integers(-3, 3).map(fld.of_int)
    vector = lambda size: data.draw(st.lists(entry, min_size=size, max_size=size).map(sparse_row))
    pairs = [sparse_row(r) for r in rows]
    packed = [fmt.pack(r) for r in pairs]
    assert [fmt.unpack(v) for v in packed] == pairs
    x = vector(len(rows))
    assert fmt.unpack(fmt.times(fmt.pack(x), packed)) == combine_pairs(fld, ((c, pairs[i]) for i, c in x))
    # apply: vec @ act(a) on a module of dimension n whose d actions are drawn rows
    table = qa.preset(TRUNCATED_POLY[fld])
    acts = [[vector(n) for _ in range(n)] for _ in range(table.dim)]
    M = hml.Representation(table, n, acts)
    vec, a = vector(n), vector(table.dim)
    got = fmt.apply(fmt.pack(vec), fmt.pack(a), [[fmt.pack(r) for r in m] for m in acts])
    assert fmt.unpack(got) == M.apply_element(vec, a)
    off, width = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
    for r, v in zip(pairs, packed):
        assert fmt.unpack(fmt.shift(v, off)) == tuple((k + off, c) for k, c in r)
        assert fmt.unpack(fmt.window(v, off, width)) == tuple((k - off, c) for k, c in r if off <= k < off + width)
    # coordinates in an RREF basis, of a vector in its span and of one that
    # may leave it; over F_2 a coordinate is a bit at a pivot, that of basis
    # row k at pivots[k]
    span = SpanBuilder(fld)
    for r in pairs:
        span.add(r)
    basis, pivots = span.finish()
    coordinates = fmt.coordinates([fmt.pack(b) for b in basis], pivots, n)
    for y in (combine_pairs(fld, ((c, basis[k]) for k, c in vector(len(basis)))), vector(n)):
        want = coords_against(fld, basis, pivots, y)
        if want is not None and fld == F2:
            want = tuple((pivots[k], c) for k, c in want)
        got = coordinates(fmt.pack(y))
        assert (got if got is None else fmt.unpack(got)) == want
    # pivots: a left kernel is reduced at its last entries, a sum of two of its rows is not
    _, kernel = left_kernel_rows(fld, pairs, n)
    assert fmt.pivots([fmt.pack(k) for k in kernel]) == [k[-1][0] for k in kernel]
    if len(kernel) >= 2:
        summed = combine_pairs(fld, [(fld.one(), kernel[0]), (fld.one(), kernel[1])])
        assert fmt.pivots([fmt.pack(k) for k in [kernel[0], summed] + kernel[2:]]) is None
    one = fld.one()
    assert fmt.pivots([fmt.pack(((0, one), (1, one))), fmt.pack(((1, one),))]) is None


def test_left_kernel_rows_fixed_shapes():
    from domdimlab.exactmath import left_kernel_rows

    for fld in (F2, F3, QQ):
        one = fld.one()
        assert left_kernel_rows(fld, [], 3) == (0, [])
        # no columns: every row lies in the kernel
        assert left_kernel_rows(fld, [(), (), ()], 0) == (0, [((0, one),), ((1, one),), ((2, one),)])
        # rows 0 and 2 are equal, row 1 is zero
        rows = [((0, one), (1, one)), (), ((0, one), (1, one))]
        assert left_kernel_rows(fld, rows, 2) == (1, [((1, one),), ((0, fld.neg(one)), (2, one))])
    # over F_2, int rows give int kernel rows, bit k for entry k
    assert left_kernel_rows(F2, [0, 0, 0], 0) == (0, [1, 2, 4])
    assert left_kernel_rows(F2, [3, 0, 3], 2) == (1, [2, 5])
    check_left_kernel(F2, [[1] * 40 for _ in range(20)], 40)


@given(st.sampled_from([F2, F3, QQ]).flatmap(lambda fld: matrices(field=fld, max_rows=4, max_cols=4)),
       st.data())
def test_matmul_rows_q_skips_zeros_exactly(a, data):
    # over Q, and over F_2 and F_3, against field sums of all products
    from functools import reduce

    from domdimlab.exactmath import matmul_rows

    fld = a.field
    b = data.draw(matrices(field=fld, min_rows=a.cols, max_rows=a.cols, max_cols=4))
    want = [[reduce(fld.add, (fld.mul(a.entry(i, k), b.entry(k, j)) for k in range(a.cols)), fld.zero())
             for j in range(b.cols)] for i in range(a.rows)]
    assert (a @ b).row_lists() == want
    # as lists, a b without rows has no columns either (1 x 0 times 0 x 0 below)
    assert matmul_rows(fld, a.row_lists(), b.row_lists()) == (want if b.rows else [[]] * a.rows)


def test_matmul_rows_checks_the_inner_dimension():
    from domdimlab.exactmath import DimensionMismatch, matmul_rows

    with pytest.raises(DimensionMismatch):
        matmul_rows(F2, [[1, 1]], [])
    with pytest.raises(DimensionMismatch):
        matmul_rows(QQ, [[Fraction(1)]], [[Fraction(1)], [Fraction(1)]])
    assert matmul_rows(F2, [[]], []) == [[]]  # 1 x 0 times 0 x 0


def reduce_against_rref(fld, rref, pivots, vec):
    """Reference remainder of ``vec`` modulo an RREF basis: clear each
    pivot column in turn with its basis row."""
    v = list(vec)
    for row, c in zip(rref, pivots):
        f = v[c]
        if f:
            v = [fld.sub(x, fld.mul(f, y)) for x, y in zip(v, row)]
    return v


def combination(fld, coeffs, rows, ncols):
    out = [fld.zero()] * ncols
    for c, r in zip(coeffs, rows):
        out = [fld.add(x, fld.mul(c, y)) for x, y in zip(out, r)]
    return out


@st.composite
def spans_with_dependent_rows(draw):
    """(field, rows, vec, in_span): drawn rows mixed with zero rows and with
    combinations of the others, in a drawn order; a vector to reduce; and a
    combination of the rows."""
    fld = draw(st.sampled_from([F2, F3, QQ]))
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3).map(fld.of_int)
    vector = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vector, max_size=4))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        rows.append(combination(fld, coeffs, rows, ncols))
    rows += [[fld.zero()] * ncols for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return fld, rows, draw(vector), combination(fld, coeffs, rows, ncols)


@given(spans_with_dependent_rows())
def test_span_residue_matches_reduction_against_the_rref(case):
    # the remainder modulo a span with zeros at the pivot columns is unique,
    # so the forward-reduced rows give the same one as the RREF basis, which
    # is what rref_rows makes of the same rows
    from domdimlab.exactmath import SpanBuilder, rref_rows, sparse_row

    fld, rows, vec, in_span = case
    work = [list(r) for r in rows]
    rank, pivots = rref_rows(fld, work)
    rref = work[:rank]
    span = SpanBuilder(fld)
    for r in rows:
        before = span.rank
        assert span.add(sparse_row(r)) == (span.rank == before + 1)
    assert span.finish() == ([sparse_row(r) for r in rref], pivots)
    want = reduce_against_rref(fld, rref, pivots, vec)
    assert span.residue(sparse_row(vec)) == dict(sparse_row(want))
    assert (span.rank, sorted(span.pivots)) == (rank, pivots)
    assert not any(want[c] for c in pivots)
    assert not span.residue(sparse_row(in_span))
