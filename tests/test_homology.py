import dataclasses
import random
from fractions import Fraction

import pytest

from domdimlab import homology as hml
from domdimlab import nakayama as nak
from domdimlab import quivalg as qa
from domdimlab.bounded import BoundedValue
from domdimlab.exactmath import (F2, F3, QQ, SpanBuilder, combine_pairs, kernel_rows, matmul_rows,
                                 rank_rows, row_format, rref_rows, sparse_row)
from domdimlab.suites import cyclic_series


def basis_vec(table, i: int) -> list:
    """The basis element b_i as a dense coordinate vector."""
    return qa._dense(((i, table.field.one()),), table.dim, table.field.zero())


def dense_actions(M) -> list:
    """The action matrices of M as dense rows, one matrix per basis element."""
    zero = M.algebra.field.zero()
    return [[qa._dense(r, M.dim, zero) for r in m] for m in M.rows]


@pytest.fixture(scope="module")
def hopf():
    return qa.preset("hopf-a5-f2")


@pytest.fixture(scope="module")
def bridged33():
    return qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), F2)


# -- basic modules -------------------------------------------------------------

def test_simple_and_projective_local(hopf):
    S = hml.simple(hopf, 0)
    P = hml.projective(hopf, 0)
    assert S.dim == 1
    assert P.dim == 8
    S.verify()


def test_regular_dimension(hopf):
    R = hml.regular(hopf)
    assert R.dim == hopf.dim
    R.verify()


@pytest.mark.parametrize("make", [
    lambda: qa.preset("hopf-a5-f2"),
    lambda: qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4)), QQ),
], ids=["hopf-a5-f2", "bridged-3-4-Q"])
def test_regular_matches_the_dense_construction(make):
    table = make()
    d = table.dim
    dense = hml.Representation(table, d, [[sparse_row(table.mult_elements(basis_vec(table, i), basis_vec(table, u)))
                                           for i in range(d)] for u in range(d)])
    R = hml.regular(table)
    assert (R.dim, R.rows) == (d, dense.rows)
    # every call is a module of its own: renaming one renames no other
    R.name = "B"
    assert hml.regular(table).name == "regular"


def test_bridged_simples_and_projectives(bridged33):
    for v in range(2):
        assert hml.simple(bridged33, v).dim == 1
        assert hml.projective(bridged33, v).dim == 3


def test_projective_is_a_fresh_module_per_call(monkeypatch):
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), F2)
    P = hml.projective(table, 0)
    P.name = "P0"
    again = hml.projective(table, 0)
    assert again is not P and again.name == "P(v0)" and again.rows == P.rows
    # the radical filtration stays cached on the one module kept on the table
    assert hml.simple(table, 0).dim == 1

    def refuse(*args):
        raise AssertionError("a radical layer was computed again")

    monkeypatch.setattr(hml._radical_layer, "__wrapped__", refuse)
    assert hml.simple(table, 0).dim == 1


def test_memoised_builders_run_once_per_object_and_arguments(monkeypatch):
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4)), F3)
    dihedral = qa.preset("dihedral8-f2")  # no compiled arrows: its radical top is built
    builders = [qa._radical_top, hml._projective_data, hml._actions, hml._shifted_actions,
                hml._top_forms, hml._radical_layer, hml._weights, hml._resolution,
                hml._pair_cover, hml._op_table, hml.projective_injective_vertices, hml._regular_rows,
                hml._cover, hml._projective_sum, hml._differential_rank]
    calls = []
    for b in builders:
        monkeypatch.setattr(b, "__wrapped__",
                            lambda *args, b=b, build=b.__wrapped__: calls.append((b, *args)) or build(*args))
    M, N = hml.bridged_module(table, 0, 2), hml.bridged_module(table, 1, 3)
    for _ in range(2):
        hml.ext_dims(M, N, 3, include_hom=True)
        hml.hom_basis(M, N)
        hml.domdim(table, 6)
        hml.radical_power(dihedral, 2)
    assert len(calls) == len(set(calls))
    assert {c[0] for c in calls} == set(builders)
    # a call that raises stores nothing: the builder runs again, and raises again
    calls.clear()
    for _ in range(2):
        with pytest.raises(hml.PreconditionError, match="out of range"):
            hml.projective(table, table.n_vertices)
    assert calls == [(hml._projective_data, table, table.n_vertices)] * 2
    op = hml._op_table(table)
    assert hml._op_table(op) is table and qa._radical_top(op) is qa._radical_top(table)


def test_radical_of_regular_hopf(hopf):
    R = hml.regular(hopf)
    assert len(hml.radical_rows(R)) == 7
    assert hml.top(R).dim == 1


def test_radical_of_simple_is_zero(hopf):
    S = hml.simple(hopf, 0)
    assert hml.radical_rows(S) == []


def test_radical_power_hopf_j2(hopf):
    assert hml.radical_power(hopf, 2).dim == 5
    assert hml.radical_power(hopf, 5).dim == 0  # at the Loewy length


def test_top_of_projective_is_simple(bridged33):
    for v in range(2):
        T = hml.top(hml.projective(bridged33, v))
        assert T.dim == 1


# -- covers and syzygies --------------------------------------------------------

def test_projective_cover_of_radical_hopf(hopf):
    R = hml.regular(hopf)
    J, _ = hml.submodule(R, hml.radical_rows(R))
    cov = hml.projective_cover(J)
    assert cov.vertices == (0, 0)  # A^2: the top of J is two-dimensional
    assert cov.P.dim == 16


def test_projective_cover_of_simple(bridged33):
    S = hml.simple(bridged33, 1)
    cov = hml.projective_cover(S)
    assert cov.vertices == (1,)


def test_cover_of_projective_is_isomorphism(bridged33):
    P = hml.projective(bridged33, 0)
    assert hml.is_projective_rep(P)
    assert hml.syzygy(P).dim == 0


def test_syzygy_dims_hopf(hopf):
    S = hml.simple(hopf, 0)
    assert hml.syzygy_dims(S, 4) == [7, 9, 7, 9]


def test_syzygy_dims_dihedral_paper_value():
    table = qa.preset("dihedral8-f2")
    S = hml.simple(table, 0)
    dims = hml.syzygy_dims(S, 4)
    assert dims[3] == 17
    assert dims == [7, 9, 15, 17]


def test_syzygy_dims_quaternion_periodic():
    table = qa.preset("quaternion8-f2")
    S = hml.simple(table, 0)
    dims = hml.syzygy_dims(S, 4)
    assert dims == [7, 9, 7, 1]
    om = S
    for _ in range(4):
        om = hml.syzygy(om)
    assert hml.modules_isomorphic(om, S) is True


@pytest.mark.parametrize("name, ext", [
    ("dihedral8-f2", tuple(t + 1 for t in range(1, 13))),  # dim Ext^t_{kD8}(k, k) = t + 1
    ("quaternion8-f2", (2, 2, 1, 1) * 3),  # kQ8 is periodic
    ("hopf-a5-f2", (2, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 7)),
])
def test_deep_resolution_of_the_simple_module(name, ext):
    # a local algebra: P_t = A^{m_t} with m_t = dim Ext^t(k, k), and
    # dim P_t = dim Omega^t + dim Omega^{t+1}
    table = qa.preset(name)
    S = hml.simple(table, 0)
    assert hml.ext_dims(S, S, 12).degrees == ext
    omega = [S.dim] + hml.syzygy_dims(S, 13)
    levels = hml._resolution(S).extend_to(13).levels
    for t in range(1, 13):
        assert len(levels[t]) == ext[t - 1]
        assert table.dim * len(levels[t]) == omega[t] + omega[t + 1]


def cycle33(fld):
    return qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), fld)


def test_cover_rejects_a_kernel_with_a_top_component(hopf, monkeypatch):
    # a kernel row outside the radical of P: the minimality check fires,
    # on a packed F_2 cover (int kernel rows) and on a pair cover over Q;
    # the cover of the simple at vertex 0 is P_0 at offset 0
    real = hml.left_kernel_rows
    v = 0
    for table in (hopf, cycle33(QQ)):
        j = hml._top_forms(table, v)[0][-1][0]  # each top form is 1 at its own column, its last
        row = 1 << j if table.field == F2 else ((j, table.field.one()),)
        S = hml.simple(table, v)

        def forged(fld, rows, ncols):
            rank, kernel = real(fld, rows, ncols)
            assert all(isinstance(k, type(row)) for k in kernel)
            return rank, kernel + [row]

        monkeypatch.setattr(hml, "left_kernel_rows", forged)
        with pytest.raises(AssertionError, match="cover is not minimal"):
            hml.syzygy(S)
        monkeypatch.setattr(hml, "left_kernel_rows", real)


def test_cover_rejects_a_rank_short_of_the_module(hopf, monkeypatch):
    # the rank comes from hml.left_kernel_rows for int rows and pair rows alike
    real = hml.left_kernel_rows
    modules = [hml.simple(table, 0) for table in (hopf, cycle33(F3), cycle33(QQ))]

    def short(fld, rows, ncols):
        rank, kernel = real(fld, rows, ncols)
        return rank - 1, kernel

    monkeypatch.setattr(hml, "left_kernel_rows", short)
    for S in modules:
        with pytest.raises(AssertionError, match="failed to surject"):
            hml.projective_cover(S)


@pytest.mark.parametrize("fld", [F2, QQ], ids=["F2", "Q"])
def test_cover_rejects_top_generators_that_do_not_split(fld):
    # every basis element, so every idempotent, acts as 0 on a line: it is
    # no module, and no idempotent image of its basis reaches its top
    table = cycle33(fld)
    M = hml.Representation(table, 1, [[()] for _ in range(table.dim)])
    with pytest.raises(AssertionError, match="top generators do not split"):
        hml.projective_cover(M)


def _covers(M, steps):
    """(ambient, cover) for M and then each syzygy, covered inside the
    last projective term as a resolution does, ``steps`` covers in all."""
    rows = None
    for _ in range(steps):
        cov = hml.projective_cover(M, rows)
        yield M, cov
        if not cov.kernel:
            return
        M, rows = cov.P, cov.kernel


@pytest.mark.parametrize("name", ["hopf-a5-f2", "dihedral8-f2", "quaternion8-f2", "cycle (3, 3)"])
def test_packed_cover_matches_pair_arithmetic(name, bridged33):
    # over F_2 a cover step holds its vectors as ints, the kernel too; its
    # outputs, unpacked, are pair rows equal to what pair arithmetic
    # gives, for the simple module and its first six syzygies
    from domdimlab.exactmath import left_kernel_rows

    unpack = row_format(F2).unpack
    table = bridged33 if name.startswith("cycle") else qa.preset(name)
    steps = 0
    for M, cov in _covers(hml.simple(table, 0), 7):
        assert all(isinstance(r, int) for r in cov.rows)
        assert all(isinstance(m, int) for _, m in cov.gen_rows)
        matrix = [unpack(r) for r in cov.rows]
        want = [combine_pairs(F2, ((c, M.apply(unpack(m), u)) for u, c in r))
                for v, m in cov.gen_rows for r in hml._projective_data(table, v)[1]]
        assert matrix == want
        assert all(isinstance(k, int) for k in cov.kernel)
        kernel = [unpack(k) for k in cov.kernel]
        assert kernel == left_kernel_rows(F2, matrix, M.dim)[1]
        for k in kernel:
            assert combine_pairs(F2, ((x, matrix[i]) for i, x in k)) == ()
        steps += 1
    assert steps == 7


def test_kernel_dimension_bookkeeping(hopf):
    # dim Omega(M) = dim P(top M) - dim M at every resolution step
    S = hml.simple(hopf, 0)
    om1 = hml.syzygy(S)
    cov1 = hml.projective_cover(om1)
    om2 = hml.syzygy(om1)
    assert om2.dim == cov1.P.dim - om1.dim == 16 - 7


def test_syzygy_of_bridged_uniserial(bridged33):
    # kernel computation matches the combinatorial syzygy M(0,2) -> M(0,1)
    M = hml.bridged_module(bridged33, 0, 2)
    om = hml.syzygy(M)
    assert om.dim == 1
    target = hml.bridged_module(bridged33, 0, 1)
    assert hml.modules_isomorphic(om, target) is True


# -- Ext -----------------------------------------------------------------------

def test_ext1_self_extension_of_simple_hopf(hopf):
    S = hml.simple(hopf, 0)
    assert hml.ext_dims(S, S, 1).dim(1) > 0


def test_ext_table_refuses_degrees_outside_the_computed_range():
    # Ext^1..3 of the simple kD8-module are 2, 3, 4: degree -1 is no
    # alias of degree 2, and degree 4 was not computed
    S = hml.simple(qa.preset("dihedral8-f2"), 0)
    ext = hml.ext_dims(S, S, 3)
    assert [ext.dim(t) for t in (1, 2, 3)] == [2, 3, 4]
    for t in (-1, -3, 4):
        with pytest.raises(ValueError, match=rf"degree {t} outside the computed range 1\.\.3"):
            ext.dim(t)
    with_hom = hml.ext_dims(S, S, 3, include_hom=True)
    assert with_hom.dim(0) == 1
    with pytest.raises(ValueError, match=r"computed range 0\.\.3"):
        with_hom.dim(-1)
    with pytest.raises(ValueError, match="degree-0 entry was not requested"):
        ext.dim(0)


def test_ext_rejects_modules_over_separate_tables(hopf):
    twin = qa.preset("hopf-a5-f2")  # equal structure constants, another table
    assert twin is not hopf and twin.dim == hopf.dim
    with pytest.raises(ValueError, match="different algebras"):
        hml.ext_dims(hml.simple(hopf, 0), hml.simple(twin, 0), 1)


def test_hom_rejects_modules_over_different_tables(bridged33):
    other = qa.nakayama_to_table(nak.validate(nak.CYCLE, (2, 2)), F2)
    P0, Q0 = hml.projective(other, 0), hml.projective(bridged33, 0)
    for fn in (hml.hom_basis, hml.dim_hom, hml.modules_isomorphic):
        with pytest.raises(ValueError, match="different algebras"):
            fn(P0, Q0)


def test_ext_from_projective_vanishes(bridged33):
    P = hml.projective(bridged33, 0)
    N = hml.bridged_module(bridged33, 1, 2)
    assert hml.ext_dims(P, N, 3).degrees == (0, 0, 0)


def test_ext_pattern_simple_33(bridged33):
    S0 = hml.bridged_module(bridged33, 0, 1)
    table = hml.ext_dims(S0, S0, 3)
    assert table.degrees[:2] == (0, 0)
    assert table.degrees[2] > 0


def _hopf_simples():
    S = hml.simple(qa.preset("hopf-a5-f2"), 0)
    return S, S


def _bridged_pair_f3():
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4)), F3)
    return hml.bridged_module(table, 0, 2), hml.bridged_module(table, 1, 2)


@pytest.mark.parametrize("make", [_hopf_simples, _bridged_pair_f3],
                         ids=["hopf-a5-f2-simple", "bridged-3-4-F3"])
def test_ext_dims_reads_the_first_levels_of_a_deeper_resolution(make):
    fresh = hml.ext_dims(*make(), 2, include_hom=True)
    M, N = make()
    deep = hml.ext_dims(M, N, 6)
    assert len(hml._resolution(M).levels) == 8
    again = hml.ext_dims(M, N, 2, include_hom=True)
    assert again.degrees == deep.degrees[:2] == fresh.degrees
    assert again.hom == fresh.hom
    assert all(fresh.degrees) and fresh.hom


@pytest.mark.parametrize("name", ["hopf-a5-f2", "dihedral8-f2", "cycle (3, 3)"])
def test_packed_differential_rank_matches_dense_images(name, bridged33):
    # over F_2 the element matrices hold ints and an Ext differential is
    # ranked packed; against the images written as dense coordinate rows
    # from the maps read as pairs, ranked by rank_rows, for N = A, J
    # and A/J^2 and s <= 6
    from domdimlab.exactmath import coords_against

    fmt = row_format(F2)
    table = bridged33 if name.startswith("cycle") else qa.preset(name)
    res = hml._resolution(hml.simple(table, 0)).extend_to(7)
    maps = [None]
    for s in range(1, 7):
        assert all(isinstance(a, int) for row in res.differential(s) for a in row)
        maps.append([[fmt.unpack(a) for a in row] for row in res.differential(s)])
        assert tuple(tuple(fmt.pack(a) for a in row) for row in maps[s]) == res.differential(s)
    R = hml.regular(table)
    targets = [R, hml.radical_power(table, 1).rep, hml.quotient(R, hml._radical_layer(R, 2)[0])]
    for N in targets:
        ranks = []
        for s in range(1, 7):
            src, tgt = res.levels[s - 1], res.levels[s]
            images = []
            for c, v in enumerate(src):
                for r in hml._weights(N)[v][0]:
                    img = []
                    for c2, w in enumerate(tgt):
                        basis = hml._weights(N)[w][0]
                        pivots = [b[0][0] for b in basis]  # an RREF basis
                        coeffs = coords_against(F2, basis, pivots, N.apply_element(r, maps[s][c][c2]))
                        img += qa._dense(coeffs, len(basis), 0)
                    images.append(img)
            ranks.append(rank_rows(F2, images))
            assert hml._differential_rank(N, res.differential(s), src, tgt) == ranks[-1]
        assert any(ranks)


@pytest.mark.parametrize("fld", [F2, QQ], ids=["F2", "Q"])
def test_differential_image_outside_its_weight_space_is_an_internal_error(fld):
    # differential(1)[0][0] lies in e_0 A e_1; forged as e_0 once built, it
    # keeps a row of A e_0 in A e_0, outside A e_1: a packed entry over
    # F_2, pairs over Q
    table = cycle33(fld)
    S = hml.simple(table, 0)
    res = hml._resolution(S).extend_to(3)
    assert res.levels[:2] == [(0,), (1,)]
    e0 = table.idempotents[0][1]
    assert len(res.differential(1)) == len(res.differential(1)[0]) == 1
    res.maps[1] = ((row_format(fld).pack(e0),),)
    with pytest.raises(AssertionError, match="differential image left its weight space"):
        hml.ext_dims(S, hml.regular(table), 1)


HOM_CROSS_CASES = [(nak.CYCLE, (3, 3)), (nak.CYCLE, (2, 3)), (nak.CYCLE, (3, 4, 4)),
                   (nak.LINE, (3, 2, 1))]


def test_hom_dims_match_combinatorial():
    for fld in (F2, F3, QQ):
        for orientation, kup in HOM_CROSS_CASES:
            A = nak.validate(orientation, kup)
            table = qa.nakayama_to_table(A, fld)
            mods = nak.indecomposables(A)
            bridged = {M: hml.bridged_module(table, M.vertex, M.length) for M in mods}
            for M in mods:
                for N in mods:
                    rm, rn = bridged[M], bridged[N]
                    basis = [_dense_map(T, rn.dim, fld) for T in hml.hom_basis(rm, rn)]
                    assert len(basis) == nak.dim_hom(A, M, N), (fld, kup, M, N)
                    for g in qa._default_generators(table):
                        g = qa._dense(g, table.dim, fld.zero())
                        act_m, act_n = rm.element_action(g), rn.element_action(g)
                        for T in basis:
                            assert (matmul_rows(fld, act_m, T)
                                    == matmul_rows(fld, T, act_n)), (fld, kup, M, N)


@pytest.mark.parametrize("fld", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_hom_basis_maps_are_pair_rows(fld):
    # each map M -> N is dim M rows of (k, c) pairs over the dim N columns,
    # k ascending and every c a nonzero canonical scalar, as an action row
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4)), fld)
    mods = [hml.projective(table, 0), hml.bridged_module(table, 1, 2), hml.simple(table, 0)]
    for M in mods:
        for N in mods:
            for T in hml.hom_basis(M, N):
                assert len(T) == M.dim
                for row in T:
                    assert isinstance(row, tuple) and [k for k, _ in row] == sorted({k for k, _ in row})
                    assert all(0 <= k < N.dim and c and type(c) is type(fld.one())
                               and (fld.p is None or c < fld.p) for k, c in row)
    P0 = mods[0]
    assert any(hml.hom_basis(P0, P0))


def _dense_map(T, width, fld):
    """A linear map held as pair rows, as dense rows over ``width`` columns."""
    return [qa._dense(r, width, fld.zero()) for r in T]


def _intertwiner_oracle(M, N):
    """Basis of the dM x dN matrices T, flattened row by row, with
    act_M(g) @ T == T @ act_N(g) for every generator g of the table: the
    full system in dM * dN unknowns, solved by one kernel."""
    fld, dm, dn = M.algebra.field, M.dim, N.dim
    rows = []
    for g in qa._default_generators(M.algebra):
        g = qa._dense(g, M.algebra.dim, fld.zero())
        act_m, act_n = M.element_action(g), N.element_action(g)
        for i in range(dm):
            for k in range(dn):
                # entry (i, k) of act_m @ T - T @ act_n; T[j][l] is unknown j * dn + l
                row = [fld.zero()] * (dm * dn)
                for j in range(dm):
                    row[j * dn + k] = fld.add(row[j * dn + k], act_m[i][j])
                for l in range(dn):
                    row[i * dn + l] = fld.sub(row[i * dn + l], act_n[l][k])
                rows.append(row)
    return kernel_rows(fld, rows, dm * dn)


def _assert_hom_matches_oracle(M, N):
    fld = M.algebra.field
    basis = [_dense_map(T, N.dim, fld) for T in hml.hom_basis(M, N)]
    flat = [[x for row in T for x in row] for T in basis]
    oracle = _intertwiner_oracle(M, N)
    assert rank_rows(fld, flat) == len(basis), (M.name, N.name)  # a basis, not a spanning set
    assert _rref(fld, flat) == _rref(fld, oracle), (M.name, N.name)


def _rref(fld, rows):
    work = [list(r) for r in rows]
    rank, pivots = rref_rows(fld, work)
    return work[:rank], pivots


@pytest.mark.parametrize("fld", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_hom_without_diagonal_idempotents(fld):
    # X = P_0 in the basis m -> m @ S, S unitriangular with every entry 1
    # above the diagonal: no vertex idempotent acts diagonally on X, so no
    # weight space of X is spanned by basis vectors
    A = nak.validate(nak.CYCLE, (3, 4, 4))
    table = qa.nakayama_to_table(A, fld)
    P = hml.projective(table, 0)
    d, one, zero = P.dim, fld.one(), fld.zero()
    S = [[one if j >= i else zero for j in range(d)] for i in range(d)]
    S_inv = [[one if j == i else fld.neg(one) if j == i + 1 else zero for j in range(d)]
             for i in range(d)]
    X = hml.Representation(table, d, [list(map(sparse_row, matmul_rows(fld, matmul_rows(fld, S_inv, act), S)))
                                      for act in dense_actions(P)], name="X")
    X.verify()
    for _, e in table.idempotents:
        act = X.element_action(qa._dense(e, table.dim, fld.zero()))
        assert any(x for i, row in enumerate(act) for j, x in enumerate(row) if i != j)
    for M in nak.indecomposables(A):
        N = hml.bridged_module(table, M.vertex, M.length)
        assert hml.dim_hom(X, N) == hml.dim_hom(P, N) == nak.dim_hom(A, nak.projective(A, 0), M)
        assert hml.dim_hom(N, X) == hml.dim_hom(N, P)
        _assert_hom_matches_oracle(X, N)
        _assert_hom_matches_oracle(N, X)
    _assert_hom_matches_oracle(X, X)
    assert hml.modules_isomorphic(X, P) is True
    assert hml.modules_isomorphic(P, X) is True


@pytest.mark.parametrize("name", ["hopf-a5-f2", "dihedral8-f2", "quaternion8-f2"])
def test_hom_matches_the_intertwiner_oracle_on_radical_layers(name):
    # B, J^k and A/J^k over the local presets, every pair, against the full
    # generator-intertwiner system; B and J^2 are the summands of End(B + J^2)
    B = qa.preset(name)
    R = hml.regular(B)
    mods = [R]
    for k in range(1, 8):
        J = hml.radical_power(B, k)
        if J.dim == 0:
            break
        J.rep.name = f"J^{k}"
        mods += [J.rep, hml.quotient(R, J.rows, name=f"A/J^{k}")]
    for M in mods:
        for N in mods:
            _assert_hom_matches_oracle(M, N)


def test_line_algebra_oracle_agreement():
    # the engines also agree off the cyclic corpus
    for kup in [(2, 1), (3, 2, 1), (2, 2, 1)]:
        A = nak.validate(nak.LINE, kup)
        table = qa.nakayama_to_table(A, F2)
        mods = sorted(nak.indecomposables(A))
        bridged = {M: hml.bridged_module(table, M.vertex, M.length) for M in mods}
        for M in mods:
            for N in mods:
                ext = hml.ext_dims(bridged[M], bridged[N], 3, include_hom=True)
                assert ext.hom == nak.dim_hom(A, M, N)
                for t in (1, 2, 3):
                    assert ext.dim(t) == nak.dim_ext(A, t, M, N)


def test_duality_consistency():
    # Ext^t_A(M, N) = Ext^t_{A^op}(DN, DM)
    A = nak.validate(nak.CYCLE, (2, 3))
    table = qa.nakayama_to_table(A, F3)
    op = qa.opposite(table)
    mods = [(i, k) for i in range(2) for k in range(1, A.c(i) + 1)]
    for (i1, k1) in mods:
        for (i2, k2) in mods:
            M = hml.bridged_module(table, i1, k1)
            N = hml.bridged_module(table, i2, k2)
            DM = hml.dual_representation(M, op)
            DN = hml.dual_representation(N, op)
            lhs = hml.ext_dims(M, N, 3).degrees
            rhs = hml.ext_dims(DN, DM, 3).degrees
            assert lhs == rhs


# -- injectives and dominant dimension ------------------------------------------

def _injective(table, w):
    """I_w = D(A e_w), the dual of a projective over the opposite algebra:
    the reference for the socle test of ``projective_injective_vertices``."""
    return hml.dual_representation(hml.projective(hml._op_table(table), w), table)


def test_injective_dims_line21():
    table = qa.nakayama_to_table(nak.validate(nak.LINE, (2, 1)), QQ)
    assert sorted(_injective(table, a).dim for a in range(2)) == [1, 2]
    assert hml.projective_injective_vertices(table) == {1}


def _pi_reference_tables():
    """(label, table, expected PI set or None) off and on the bridges."""
    out = [(f"auslander({n}, {fld.describe()})", auslander_algebra(n, fld), None)
           for n in range(2, 5) for fld in (F2, F3, QQ)]
    cases = [((4, 4, 4), F2, [(0, 1)]), ((4, 4, 4), QQ, [(0, 1)]),
             ((5, 5, 5), F2, [(0, 1)]), ((5, 5, 5), QQ, [(0, 1)]),
             ((4, 4), F2, [(0, 1), (1, 2)])]
    for kup, fld, extra in cases:
        B = qa.nakayama_to_table(nak.validate(nak.CYCLE, kup), fld)
        summands = [hml.projective(B, v) for v in range(len(kup))]
        summands += [hml.bridged_module(B, v, length) for v, length in extra]
        out.append((f"End({kup} + {extra}, {fld.describe()})",
                    hml.endomorphism_algebra(summands), None))
    out += [(name, qa.preset(name), None) for name in
            ("hopf-a5-f2", "dihedral8-f2", "quaternion8-f2", "preproj-a2", "truncated-poly(4,Q)")]
    out.append(("line(3,2,1)", qa.nakayama_to_table(nak.validate(nak.LINE, (3, 2, 1)), QQ), {2}))
    two_points = qa.compile_quiver(qa.QuiverSpec(("u", "v"), (), (), 2, F3))
    out.append(("two points", two_points, {0, 1}))
    return out


def test_projective_injectives_from_the_socle_match_the_injectives(monkeypatch):
    cases = _pi_reference_tables()
    want = {}
    for label, table, expected in cases:
        want[label] = {w for w in range(table.n_vertices)
                       if hml.is_projective_rep(_injective(table, w))}
        if expected is not None:
            assert want[label] == expected, label

    def refuse(*args, **kwargs):
        raise AssertionError("an injective module was built")

    for name in ("dual_representation", "projective_cover", "opposite"):
        monkeypatch.setattr(hml, name, refuse)
    runs = []  # the socle route runs here, once per table, not on the reference route
    build = hml.projective_injective_vertices.__wrapped__
    monkeypatch.setattr(hml.projective_injective_vertices, "__wrapped__",
                        lambda table: runs.append(table) or build(table))
    for label, table, _ in cases:
        assert hml.projective_injective_vertices(table) == want[label], label
        assert hml.is_selfinjective(table) == (want[label] == set(range(table.n_vertices))), label
    assert runs == [table for _, table, _ in cases]


def test_domdim_bridged_family(bridged33):
    A5 = qa.nakayama_to_table(nak.validate(nak.CYCLE, (5, 6, 6, 6, 6)), F2)
    assert hml.domdim(A5, 20) == BoundedValue.finite(8)
    assert hml.domdim(bridged33, 20) == BoundedValue.at_least(20)


def test_domdim_selfinjective_preset_cutoff():
    table = qa.preset("preproj-a2")
    assert hml.domdim(table, 20) == BoundedValue.at_least(20)


def test_domdim_agrees_with_combinatorial_engine():
    for kup in [(2, 3), (3, 4, 4), (2, 2), (4, 4)]:
        A = nak.validate(nak.CYCLE, kup)
        table = qa.nakayama_to_table(A, F2)
        assert hml.domdim(table, 16) == nak.domdim(A, 16)


def test_resolution_terms_hopf(hopf):
    S = hml.simple(hopf, 0)
    assert hml.syzygy_dims(S, 3) == [7, 9, 7]
    # P_0 = A (dim 8) covers S, A^2 (dim 16) covers its syzygy
    assert hml._resolution(S).extend_to(3).levels[:2] == [(0,), (0, 0)]


def test_semisimple_rejected():
    S = hml.simple(qa.preset("hopf-a5-f2"), 0)
    end = hml.endomorphism_algebra([S])
    with pytest.raises(hml.SemisimpleInputError):
        hml.domdim(end, 5)


# -- phi / delta ----------------------------------------------------------------

def test_phi_of_syzygy_hopf(hopf):
    S = hml.simple(hopf, 0)
    om = hml.syzygy(S)
    assert hml.phi(om, 12) == BoundedValue.finite(1)


def test_phi_rejects_projective(bridged33):
    with pytest.raises(hml.PreconditionError):
        hml.phi(hml.projective(bridged33, 0), 5)


def test_phi_simple_33(bridged33):
    S0 = hml.bridged_module(bridged33, 0, 1)
    assert hml.phi(S0, 12) == BoundedValue.finite(3)


def test_delta_line21():
    table = qa.nakayama_to_table(nak.validate(nak.LINE, (2, 1)), F2)
    assert hml.delta(table, 12) == BoundedValue.finite(1)


def test_delta_ranks_each_differential_once(monkeypatch):
    # the first nonzero Ext^r(D(A), A) reads the differentials 1..r+1 of
    # Hom(res, A), and the search up to r ranks each of them once
    A = nak.validate(nak.CYCLE, (6,) + (7,) * 5)
    table = qa.nakayama_to_table(A, F2)
    real, calls = hml._differential_rank, []
    monkeypatch.setattr(hml, "_differential_rank", lambda *a: calls.append(a) or real(*a))
    assert hml.delta(table, 12) == nak.delta(A, 12) == BoundedValue.finite(9)
    assert len(calls) == 10


def test_delta_selfinjective_needs_witnesses(bridged33):
    mods = [hml.bridged_module(bridged33, i, k) for i in range(2) for k in (1, 2)]
    got = hml.delta(bridged33, 12, witnesses=mods, witnesses_complete=True)
    assert got == BoundedValue.finite(3)
    partial = hml.delta(bridged33, 12, witnesses=mods[:1])
    assert partial.kind == "at_least" and partial.value == 3
    # the dual-regular formula is only valid off the selfinjective case
    with pytest.raises(hml.PreconditionError):
        hml.delta(bridged33, 12)


# -- ideals ----------------------------------------------------------------------

def test_ideal_module_x_squared():
    table = qa.preset("truncated-poly(4,Q)")
    X = hml.ideal_module(table, [table.element_from_expr("a0*a0")])
    assert X.dim == 2


def test_ideal_module_rejects_zero():
    table = qa.preset("truncated-poly(4,Q)")
    with pytest.raises(ValueError):
        hml.ideal_module(table, [()])


def test_check_ideal_rigidity_truncated_poly():
    table = qa.preset("truncated-poly(4,Q)")
    X = hml.ideal_module(table, [table.element_from_expr("a0*a0")])
    rep = hml.check_ideal_rigidity(table, X)
    assert rep.holds and rep.hom_to_quotient > 0 and rep.ext1_self > 0


def test_check_ideal_rigidity_radical_of_33(bridged33):
    sym = qa.is_symmetric(bridged33)
    assert sym is True
    X = hml.radical_power(bridged33, 1)
    rep = hml.check_ideal_rigidity(bridged33, X)
    assert rep.ext1_self > 0


def test_check_ideal_rigidity_enveloping_f3():
    table = qa.preset("truncated-poly(3,F3)")
    env, bimod = hml.enveloping(table)
    assert hml.ext_dims(bimod, bimod, 1).dim(1) > 0


def test_check_ideal_rigidity_requires_proper_ideal():
    table = qa.preset("truncated-poly(4,Q)")
    full = hml.ideal_module(table, [table.unit])
    with pytest.raises(hml.PreconditionError):
        hml.check_ideal_rigidity(table, full)


def test_check_ideal_rigidity_requires_symmetric():
    table = qa.preset("preproj-a2")  # selfinjective, not symmetric
    X = hml.radical_power(table, 1)
    with pytest.raises(hml.PreconditionError):
        hml.check_ideal_rigidity(table, X)


def test_ideal_rigidity_group_algebra_radical_powers():
    # local symmetric algebras: every nontrivial proper two-sided ideal has
    # a nonzero first self-extension; probe all radical powers
    for name in ("dihedral8-f2", "quaternion8-f2"):
        table = qa.preset(name)
        for k in range(1, 5):
            X = hml.radical_power(table, k)
            if not 0 < X.dim < table.dim:
                continue
            rep = hml.check_ideal_rigidity(table, X)
            assert rep.holds and rep.ext1_self > 0


def test_local_hopf_phi_one_on_witness_family():
    # the first self-extension degree is 1 for every non-projective witness
    # we can reach: syzygies of the simple and the radical powers
    hopf = qa.preset("hopf-a5-f2")
    witnesses = [hml.simple(hopf, 0)]
    om = witnesses[0]
    for _ in range(4):
        om = hml.syzygy(om)
        witnesses.append(om)
    witnesses.append(hml.radical_power(hopf, 2).rep)
    witnesses.append(hml.radical_power(hopf, 3).rep)
    for M in witnesses:
        assert hml.phi(M, 8) == BoundedValue.finite(1), M.name
    # the witness family gives a certified lower bound through delta
    assert hml.delta(hopf, 8, witnesses=witnesses).value == 1


# -- endomorphism algebras --------------------------------------------------------

def test_end_of_regular_recovers_dimension():
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (2, 2)), F2)
    P0 = hml.projective(table, 0); P0.name = "P0"
    P1 = hml.projective(table, 1); P1.name = "P1"
    end = hml.endomorphism_algebra([P0, P1])
    assert end.dim == table.dim  # End of the regular module of a basic algebra


def test_end_mueller_instance(bridged33):
    P0 = hml.projective(bridged33, 0); P0.name = "P0"
    P1 = hml.projective(bridged33, 1); P1.name = "P1"
    S0 = hml.bridged_module(bridged33, 0, 1); S0.name = "S0"
    end = hml.endomorphism_algebra([P0, P1, S0])
    assert end.dim == 9
    assert hml.domdim(end, 20) == BoundedValue.finite(4)


def test_end_mueller_field_independence():
    # the dominant dimension of the endomorphism algebra is 4 over Q as well
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), QQ)
    P0 = hml.projective(table, 0); P0.name = "P0"
    P1 = hml.projective(table, 1); P1.name = "P1"
    S0 = hml.bridged_module(table, 0, 1); S0.name = "S0"
    end = hml.endomorphism_algebra([P0, P1, S0])
    assert end.dim == 9
    assert hml.domdim(end, 20) == BoundedValue.finite(4)


@pytest.mark.parametrize("name", ["hopf-a5-f2", "dihedral8-f2", "quaternion8-f2"])
def test_mueller_local_hopf_end_has_domdim_two(name):
    # Mueller: domdim End_B(B + M) = r + 1, r the least degree with
    # Ext^r(M, M) != 0; over a local Hopf algebra the paper's theorem gives
    # r = 1, so End(B + J^k) has dominant dimension exactly 2, and it is
    # gendo-symmetric because B is symmetric
    B = qa.preset(name)
    R = hml.regular(B); R.name = "B"
    for k, dim_end in ((2, 23), (3, 17)):
        M = hml.radical_power(B, k).rep
        end = hml.endomorphism_algebra([R, M])
        assert end.dim == dim_end
        assert hml.ext_dims(M, M, 1).dim(1) > 0  # r = 1
        assert hml.domdim(end, 8) == BoundedValue.finite(1 + 1)
        assert hml.is_gendo_symmetric(end, 8) is True


def test_end_composition_outside_its_hom_space_is_an_internal_error(bridged33, monkeypatch):
    # with End(P0) cut down to the identity, P0 -> P1 -> P0 has no
    # coordinates; the table must not be built from a truncated product
    full = hml.hom_basis
    monkeypatch.setattr(hml, "hom_basis", lambda M, N: (
        [hml._unit_rows(F2, M.dim)] if M is N else full(M, N)))
    P0 = hml.projective(bridged33, 0)
    P1 = hml.projective(bridged33, 1)
    with pytest.raises(AssertionError, match="outside Hom"):
        hml.endomorphism_algebra([P0, P1])


def test_nonisomorphism_certified_over_q():
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), QQ)
    P0 = hml.projective(table, 0)
    P1 = hml.projective(table, 1)
    assert hml.modules_isomorphic(P0, P1) is False  # decided, not undetermined


@pytest.mark.parametrize("fld", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_isomorphism_decided_by_end_locality(fld):
    # every uniserial M(i, k) over (3,3) has a split local End, so each
    # pair is decided: isomorphic exactly when the (vertex, length) agree
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), fld)
    mods = {(v, k): hml.bridged_module(table, v, k) for v in range(2) for k in (1, 2, 3)}
    for a, M in mods.items():
        assert hml._local_end(hml.hom_basis(M, M), fld, M.dim) is True
        for b, N in mods.items():
            assert hml.modules_isomorphic(M, N) is (a == b)
    # without the certificate, finding no invertible basis map proves
    # nothing, so the call refuses: P0 + P1 is not P0 + P0, but a
    # decomposable module could have an isomorphism that only a combination
    # of basis maps reaches
    R = hml.regular(table)
    P00, _ = hml._projective_sum(table, (0, 0))
    with pytest.raises(hml.PreconditionError, match=r"End\(regular\)"):
        hml.modules_isomorphic(R, P00)


def test_end_locality_certificate_needs_a_nilpotent_ideal():
    # each basis matrix is a scalar plus a nilpotent, and the nilpotent parts
    # span sl_2, of codimension one in M_2(F_3); but sl_2 is not nilpotent
    dense = [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [2, 2]]]
    ends = [[sparse_row(r) for r in T] for T in dense]
    assert hml._local_end(ends, F3, 2) is False
    assert hml._local_end(ends[:2], F3, 2) is True  # F_3[t]/(t^2)


def auslander_algebra(n, fld, bound=None):
    """The Auslander algebra of k[x]/(x^n): 1 <-> 2 <-> ... <-> n, with
    a_i: i -> i+1, b_i: i+1 -> i, a_1 b_1 = 0 and a_i b_i = b_{i-1} a_{i-1};
    its Loewy length is 2n - 1, the declared bound unless ``bound`` is given."""
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    arrows = tuple(qa.Arrow(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(1, n))
    arrows += tuple(qa.Arrow(f"b{i}", f"v{i + 1}", f"v{i}") for i in range(1, n))
    relations = ("a1*b1",) + tuple(f"a{i}*b{i} - b{i - 1}*a{i - 1}" for i in range(2, n))
    return qa.compile_quiver(qa.QuiverSpec(vertices, arrows, relations, bound or 2 * n - 1, fld))


def test_compiled_table_ignores_an_over_declared_loewy_bound():
    # relations that are not monomial: the bound 10 works in 2,667 paths
    # and must certify the same quotient as the Loewy length 9
    exact, over = auslander_algebra(5, QQ), auslander_algebra(5, QQ, bound=10)
    assert over.basis_names == exact.basis_names
    assert over.mult == exact.mult
    assert over.radical == exact.radical


def test_domdim_auslander_algebra_of_truncated_polynomial_over_q():
    # the compiler certifies the Loewy length 2n - 1 = 9
    table = auslander_algebra(5, QQ)
    assert table.dim == 55
    assert hml.domdim(table, 16) == BoundedValue.finite(2)


def test_projective_injectives_need_no_isomorphism_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("an isomorphism test ran")

    monkeypatch.setattr(hml, "modules_isomorphic", refuse)
    monkeypatch.setattr(hml, "_has_isomorphism", refuse)
    for name in ("hopf-a5-f2", "dihedral8-f2", "quaternion8-f2", "preproj-a2",
                 "truncated-poly(4,Q)"):
        table = qa.preset(name)
        assert hml.projective_injective_vertices(table) == set(range(table.n_vertices))
        assert hml.is_selfinjective(table)
        assert not hml.domdim(table, 16).is_finite
    for orient, kup, fld in ((nak.CYCLE, (2, 3), F2), (nak.CYCLE, (3, 4, 4), F3),
                             (nak.CYCLE, (3, 3), QQ), (nak.LINE, (3, 2, 1), QQ)):
        A = nak.validate(orient, kup)
        table = qa.nakayama_to_table(A, fld)
        want = {v for v in range(A.n) if nak.is_projective(A, nak.injective_of_socle(A, v))}
        assert hml.projective_injective_vertices(table) == want
        assert hml.is_selfinjective(table) == nak.is_selfinjective(A)
        assert hml.domdim(table, 16) == nak.domdim(A, 16)


def test_domdim_decided_when_budget_runs_out():
    # there is no search budget left to run out: projective-injectives come
    # from projective covers and isomorphisms from rank checks, so the
    # dominant dimension is always decided
    assert not hasattr(qa, "SEARCH_BUDGET")
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (2, 3)), F2)
    assert hml.domdim(table, 8) == BoundedValue.finite(2)
    assert hml.is_selfinjective(qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), QQ))


def test_end_rejects_duplicate_summands(bridged33):
    P0 = hml.projective(bridged33, 0)
    P0bis = hml.projective(bridged33, 0)
    with pytest.raises(hml.PreconditionError):
        hml.endomorphism_algebra([P0, P0bis])


def test_end_rejects_decomposable_summand(bridged33):
    R = hml.regular(bridged33)
    with pytest.raises(hml.PreconditionError):
        hml.endomorphism_algebra([R])


def test_single_simple_end_is_semisimple(hopf):
    S = hml.simple(hopf, 0)
    end = hml.endomorphism_algebra([S])
    assert end.dim == 1
    assert qa.is_semisimple(end)


def test_indecomposability_certificates(bridged33):
    for M in (hml.projective(bridged33, 0), hml.bridged_module(bridged33, 0, 2)):
        assert hml._local_end(hml.hom_basis(M, M), F2, M.dim) is True
    # the regular module P0 + P1 has no split local End, and the error names
    # the summand that lacks the certificate
    P0 = hml.projective(bridged33, 0); P0.name = "P0"
    R = hml.regular(bridged33); R.name = "R"
    with pytest.raises(hml.PreconditionError, match=r"End\(R\) is not split local"):
        hml.endomorphism_algebra([P0, R])
    # no third verdict is left: nothing raises "undetermined", and the
    # Fitting search that could leave one open is gone
    assert not hasattr(hml, "UndeterminedError")
    assert not hasattr(hml, "is_indecomposable")


# -- gendo-symmetric ----------------------------------------------------------------

def test_gendo_symmetric_family():
    # the family (n, n+1, ..., n+1), decided by the bimodule test itself
    for n in range(2, 8):
        A = nak.validate(nak.CYCLE, (n,) + (n + 1,) * (n - 1))
        assert hml.is_gendo_symmetric(qa.nakayama_to_table(A, F2), 64) is True, n


def test_gendo_symmetric_line_false():
    table = qa.nakayama_to_table(nak.validate(nak.LINE, (2, 1)), F2)
    assert hml.is_gendo_symmetric(table, 16) is False


def test_gendo_symmetric_of_symmetric_algebra(bridged33):
    assert hml.is_gendo_symmetric(bridged33, 16) is True


def test_gendo_symmetric_builds_no_tensor_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the gendo-symmetric test built a tensor algebra")

    monkeypatch.setattr(hml, "tensor_algebra", refuse)
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (4, 5, 5, 5)), F2)
    assert hml.is_gendo_symmetric(table, 16) is True


GENDO_TRUE_SMALL = {(2,), (3,), (4,), (2, 3), (3, 2), (3, 3),
                    (3, 4, 4), (4, 3, 4), (4, 4, 3), (4, 4, 4)}


@pytest.mark.parametrize("fld", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_gendo_symmetric_small_cycles_pinned(fld):
    verdicts = {}
    for c in cyclic_series(1, 3, 4):
        table = qa.nakayama_to_table(nak.validate(nak.CYCLE, c), fld)
        verdicts[c] = hml.is_gendo_symmetric(table, 16)
    assert {c for c, v in verdicts.items() if v is True} == GENDO_TRUE_SMALL
    assert all(v is False for c, v in verdicts.items() if c not in GENDO_TRUE_SMALL)


def test_gendo_symmetric_both_signs_off_the_nakayama_bridges():
    # End(B + M) has domdim >= 2 for every selfinjective B (Morita-Tachikawa),
    # so its verdict is that of B: False over the non-symmetric (2, 2) and
    # (3, 3, 3), for M a non-projective uniserial
    for kup, length in (((2, 2), 1), ((3, 3, 3), 1), ((3, 3, 3), 2)):
        B = qa.nakayama_to_table(nak.validate(nak.CYCLE, kup), F2)
        summands = [hml.projective(B, v) for v in range(len(kup))]
        end = hml.endomorphism_algebra(summands + [hml.bridged_module(B, 0, length)])
        assert hml.domdim(end, 16).value >= 2
        assert hml.is_gendo_symmetric(end, 16) is False, (kup, length)
    # the Auslander algebra of k[x]/(x^n) is End of a generator over the
    # symmetric k[x]/(x^n)
    for n in range(2, 5):
        for fld in (F2, F3):
            assert hml.is_gendo_symmetric(auslander_algebra(n, fld), 16) is True, (n, fld)


@pytest.mark.parametrize("name", ["dihedral8-f2", "quaternion8-f2"])
def test_gendo_symmetric_group_algebras(name):
    assert hml.is_gendo_symmetric(qa.preset(name), 16) is True


def test_gendo_symmetric_rejects_small_cutoff(bridged33):
    with pytest.raises(hml.PreconditionError):
        hml.is_gendo_symmetric(bridged33, 1)


# -- module checks -------------------------------------------------------------------

def test_representation_verify_catches_bad_action(bridged33):
    M = hml.bridged_module(bridged33, 0, 2)
    one = bridged33.field.one()

    def changed(u, i, row):
        rows = [list(m) for m in M.rows]
        rows[u][i] = row
        return hml.Representation(bridged33, M.dim, rows)

    M.verify()
    bad = changed(2, 0, combine_pairs(F2, ((1, M.rows[2][0]), (1, ((0, one),)))))
    with pytest.raises(ValueError, match="structure constants"):
        bad.verify()  # arrow action gains a fixed vector
    for row in (((M.dim, one),), ((1, one), (0, one)), ((0, 0),)):  # column dim, descending, zero
        with pytest.raises(ValueError, match="pairs"):
            changed(0, 0, row).verify()
    with pytest.raises(ValueError, match="rows each"):
        hml.Representation(bridged33, M.dim, [m[:-1] for m in M.rows]).verify()  # one row missing
    with pytest.raises(ValueError, match="rows each"):
        hml.Representation(bridged33, M.dim, M.rows[:-1]).verify()  # one action missing


# -- sparse action rows --------------------------------------------------------

FIELDS = pytest.mark.parametrize("fld", [F2, F3, QQ], ids=["F2", "F3", "Q"])


def sparse_builders(fld):
    """One module from every builder, over the bridged cyclic (3, 4)."""
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4)), fld)
    R = hml.regular(table)
    P0 = hml.projective(table, 0)
    return {
        "regular": R,
        "projective": P0,
        "simple": hml.simple(table, 1),
        "submodule": hml.submodule(R, hml.radical_rows(R))[0],
        "quotient": hml.quotient(R, hml.radical_rows(R)),
        "projective-sum": hml._projective_sum(table, (0, 1, 0))[0],
        "bridged": hml.bridged_module(table, 1, 2),
        "dual": hml.dual_representation(P0, hml._op_table(table)),
        "syzygy": hml.syzygy(hml.bridged_module(table, 0, 2)),
    }


@FIELDS
def test_every_module_builder_verifies(fld):
    for name, M in sparse_builders(fld).items():
        M.verify()
        # sparse rows hold exactly the nonzero entries of the dense view
        for mat, dense in zip(M.rows, dense_actions(M)):
            assert [[(j, x) for j, x in enumerate(r) if x] for r in dense] == [list(r) for r in mat]


def test_regular_bimodule_verifies():
    env, bimod = hml.enveloping(qa.preset("truncated-poly(3,F3)"))
    bimod.verify()
    assert bimod.algebra is env


def test_hopf_syzygies_verify(hopf):
    M = hml.simple(hopf, 0)
    dims = []
    for _ in range(8):
        M = hml.syzygy(M)
        M.verify()
        dims.append(M.dim)
    assert dims == hml.syzygy_dims(hml.simple(hopf, 0), 8)


def random_scalar(fld, rng):
    if rng.random() < 0.5:
        return fld.zero()  # sparse vectors, as in the resolutions
    if fld.kind == "prime":
        return rng.randrange(fld.p)
    return fld.mul(rng.randint(-3, 3), fld.inv(rng.randint(1, 3)))  # canonical: an int when integral


def assert_canonical_pairs(fld, pairs, dim):
    """(k, c) pairs with k strictly ascending in 0..dim-1 and every c
    nonzero and reduced: over Q an int when integral, else a Fraction."""
    assert isinstance(pairs, tuple)
    assert [k for k, _ in pairs] == sorted({k for k, _ in pairs})
    assert all(0 <= k < dim and c for k, c in pairs)
    if fld.kind == "prime":
        assert all(0 < c < fld.p for _, c in pairs)
    else:
        assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for _, c in pairs)


@FIELDS
def test_apply_matches_dense_product(fld):
    # apply and apply_element take and return canonical pairs, equal to the
    # dense products with the dense action matrices
    rng = random.Random(f"apply:{fld.describe()}")
    for name, M in sparse_builders(fld).items():
        A = M.algebra
        dense = dense_actions(M)
        for _ in range(10):
            vec = [random_scalar(fld, rng) for _ in range(M.dim)]
            a = [random_scalar(fld, rng) for _ in range(A.dim)]
            for u in range(A.dim):
                got = M.apply(sparse_row(vec), u)
                assert_canonical_pairs(fld, got, M.dim)
                assert got == sparse_row(matmul_rows(fld, [vec], dense[u])[0]), (name, u)
            act = [[fld.zero()] * M.dim for _ in range(M.dim)]
            for u, c in enumerate(a):
                for i in range(M.dim):
                    for j in range(M.dim):
                        act[i][j] = fld.add(act[i][j], fld.mul(c, dense[u][i][j]))
            assert M.element_action(a) == act, name
            got = M.apply_element(sparse_row(vec), sparse_row(a))
            assert_canonical_pairs(fld, got, M.dim)
            assert got == sparse_row(matmul_rows(fld, [vec], act)[0]), name


def test_top_forms_are_canonical_pairs():
    # the forms the minimality check reads, on the local presets and a
    # bridged cycle, are pairs in ascending column order like every row
    tables = [qa.preset(name) for name in ("hopf-a5-f2", "dihedral8-f2", "quaternion8-f2")]
    for table in tables + [cycle33(F3)]:
        for v in range(table.n_vertices):
            forms = hml._top_forms(table, v)
            assert forms
            for form in forms:
                assert_canonical_pairs(table.field, form, hml.projective(table, v).dim)


# -- resolutions kept inside their projective covers --------------------------

def dual_numbers_off_the_path_basis(fld):
    """k[x]/(x^2) in the basis 1, 1 + x: the radical x = b1 - b0 is no basis
    vector, so rad(P) is not spanned by unit rows."""
    one, zero = fld.one(), fld.zero()
    mult = [[((0, one),), ((1, one),)],
            [((1, one),), ((0, fld.neg(one)), (1, fld.of_int(2)))]]  # (1+x)^2 = -1 + 2(1+x)
    return qa.make_table(fld, ["1", "1+x"], mult, ((0, one),), [("v", ((0, one),))],
                         [((0, fld.neg(one)), (1, one))])


def resolution_cases():
    """(module, length) with an id: the local presets over F_2, bridged
    uniserial modules of cycle and line algebras over F_2, F_3 and Q, and
    the simple module of k[x]/(x^2) off the path basis over F_3 and Q."""
    for name in ("hopf-a5-f2", "dihedral8-f2", "quaternion8-f2"):
        table = qa.preset(name)
        yield pytest.param(hml.simple(table, 0), 6, id=f"{name}-simple")
        yield pytest.param(hml.radical_power(table, 2).rep, 4, id=f"{name}-J2")
    for fld in (F3, QQ):
        yield pytest.param(hml.simple(dual_numbers_off_the_path_basis(fld), 0), 4,
                           id=f"dual-numbers-{fld.describe()}")
    for fld in (F2, F3, QQ):
        for orientation, kup, v, length in ((nak.CYCLE, (3, 4, 4), 0, 2), (nak.CYCLE, (2, 3), 1, 1),
                                            (nak.LINE, (3, 3, 2, 1), 0, 1), (nak.LINE, (2, 2, 1), 1, 1)):
            table = qa.nakayama_to_table(nak.validate(orientation, kup), fld)
            yield pytest.param(hml.bridged_module(table, v, length), 6,
                               id=f"{orientation}{''.join(map(str, kup))}-M{v}{length}-{fld.describe()}")


@pytest.mark.parametrize("M, t", list(resolution_cases()))
def test_resolution_matches_iterated_syzygies_and_composes_to_zero(M, t):
    dims, om = [], M
    for _ in range(t):
        om = hml.syzygy(om) if om.dim else om
        dims.append(om.dim)
    assert hml.syzygy_dims(M, t) == dims
    res = hml._resolution(M).extend_to(t)
    table = M.algebra
    unpack = row_format(table.field).unpack  # the entries are ints over F_2
    for s in range(1, len(res.levels) - 1):
        d_s, d_next = res.differential(s), res.differential(s + 1)
        for c in range(len(res.levels[s - 1])):
            for c2 in range(len(res.levels[s + 1])):
                total = qa._dense((), table.dim, table.field.zero())
                for c1 in range(len(res.levels[s])):
                    prod = qa._dense(table._mul(unpack(d_s[c][c1]), unpack(d_next[c1][c2])), table.dim,
                                     table.field.zero())
                    total = [table.field.add(x, y) for x, y in zip(total, prod)]
                assert not any(total), (s, c, c2)


def test_cover_of_rows_that_are_not_action_stable_raises(hopf, bridged33):
    # span{1} in the regular module: 1 * J leaves it; over F_2 (packed
    # vectors) and over Q (pairs: the Auslander algebra of k[x]/(x^2))
    for table in (hopf, auslander_algebra(2, QQ)):
        R = hml.regular(table)
        with pytest.raises(ValueError, match="not action-stable"):
            hml.projective_cover(R, [row_format(table.field).pack(table.unit)])
        with pytest.raises(ValueError, match="not action-stable"):
            hml.submodule(R, [table.unit])
    # span{a0*a1 + a1*a0} over the cycle (3, 3): J kills it, e_0 does not keep it
    for table in (bridged33, cycle33(F3)):
        R = hml.regular(table)
        names = table.basis_names
        row = tuple((k, 1) for k, n in enumerate(names) if n in ("a0*a1", "a1*a0"))
        assert not any(R.apply_element(row, x) for x in qa._radical_top(table))
        with pytest.raises(ValueError, match="not action-stable"):
            hml.projective_cover(R, [row_format(table.field).pack(row)])


def test_rows_that_are_not_action_stable_raise_on_every_call_and_store_nothing(monkeypatch):
    # span{a0*a1 + a1*a0} over the cycle (3, 3) (see above): the cover
    # builder runs on each call and raises each time, and no cover is kept
    table = cycle33(QQ)
    R = hml.regular(table)
    row = tuple((k, 1) for k, n in enumerate(table.basis_names) if n in ("a0*a1", "a1*a0"))
    calls = []
    build = hml._cover.__wrapped__
    monkeypatch.setattr(hml._cover, "__wrapped__", lambda M, rows: calls.append(rows) or build(M, rows))
    for _ in range(2):
        with pytest.raises(ValueError, match="not action-stable"):
            hml.projective_cover(R, [row])
    assert calls == [(row,)] * 2
    assert not any(key[0] is hml._cover for key in R._cache)
    assert hml.projective_cover(R).P is hml.projective_cover(R, None).P  # the whole of R is kept


@pytest.mark.parametrize("fld", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_resolutions_that_meet_share_every_later_cover(fld, monkeypatch):
    # over the cycle (3, 3), Omega^2 M(0,1) = Omega M(1,2) = P_1 J^2 inside
    # P_1: the kernel basis is unique, so from there on both resolutions
    # reach the same covers, each built once, on the same projective terms
    table = cycle33(fld)
    calls = []
    build = hml._cover.__wrapped__
    monkeypatch.setattr(hml._cover, "__wrapped__", lambda M, rows: calls.append((M, rows)) or build(M, rows))
    M, N = hml.bridged_module(table, 0, 1), hml.bridged_module(table, 1, 2)
    long = [cov for _, cov in _covers(M, 9)]
    built = len(calls)
    short = [cov for _, cov in _covers(N, 8)]
    assert calls[built:] == [(N, None)]  # only the cover of N itself is new
    assert len(calls) == len(set(calls))
    assert all(a is b for a, b in zip(long[2:], short[1:]))
    assert all(a.P is b.P for a, b in zip(long[1:], short))
    # the periodic resolution of M comes back to the cover of Omega M
    assert built < len(long) and long[5] is long[1]
    long_res, short_res = hml._resolution(M).extend_to(9), hml._resolution(N).extend_to(8)
    assert len(long_res.levels) - 1 == len(short_res.levels)
    assert all(long_res.differential(s + 1) == short_res.differential(s) for s in range(2, len(short_res.levels)))


def semisimple_target_cases():
    """(table, modules to resolve) with an id: the local presets over F_2,
    the cycle (3, 3) over F_2, F_3 and Q, and the line (3, 2, 1)."""
    for name in ("hopf-a5-f2", "dihedral8-f2"):
        table = qa.preset(name)
        yield pytest.param(table, [hml.simple(table, 0), hml.radical_power(table, 2).rep,
                                   hml.radical_power(table, 5).rep], id=name)
    for fld in (F2, F3, QQ):
        table = cycle33(fld)
        yield pytest.param(table, [hml.bridged_module(table, v, k) for v in range(2) for k in (1, 2)],
                           id=f"cycle-3-3-{fld.describe()}")
    table = qa.nakayama_to_table(nak.validate(nak.LINE, (3, 2, 1)), F3)
    yield pytest.param(table, [hml.bridged_module(table, 0, 1), hml.bridged_module(table, 0, 2),
                               hml.bridged_module(table, 1, 1)], id="line-3-2-1")


@pytest.mark.parametrize("table, mods", list(semisimple_target_cases()))
def test_differentials_into_a_semisimple_target_have_rank_zero(table, mods):
    # the rank builder itself, past the N*J = 0 shortcut of _hom_complex:
    # every differential of Hom(res M, N) is zero for N a simple or
    # top(A), so Ext^s(M, N) = Hom(P_s, N); into A the ranks are not all 0
    R = hml.regular(table)
    targets = [hml.simple(table, v) for v in range(table.n_vertices)] + [hml.top(R)]
    rank = hml._differential_rank.__wrapped__
    nonzero = 0
    for M in mods:
        res = hml._resolution(M).extend_to(7)
        for s in range(1, len(res.levels)):
            key = (res.differential(s), res.levels[s - 1], res.levels[s])
            assert [rank(N, *key) for N in targets] == [0] * len(targets), (M.name, s)
            nonzero += rank(R, *key)
        for N in targets:
            dims = hml._hom_complex(M, N, 5, ranks := [0])
            assert ranks == [0] * 7
            assert list(hml.ext_dims(M, N, 5).degrees) == dims[1:6]
    assert nonzero


def test_syzygy_dims_builds_no_element_matrix(monkeypatch):
    # syzygy_dims reads kernel_dims only; the element matrices are built
    # when an Ext differential into a target with N*J != 0 is ranked
    table = qa.preset("dihedral8-f2")
    calls = []
    build = hml.MinimalResolution.differential
    monkeypatch.setattr(hml.MinimalResolution, "differential",
                        lambda res, s: calls.append(s) or build(res, s))
    S = hml.simple(table, 0)
    assert hml.syzygy_dims(S, 24) == [8 * ((t + 1) // 2) + (1 if t % 2 == 0 else -1) for t in range(1, 25)]
    hml.ext_dims(S, S, 23)
    assert calls == [] and hml._resolution(S).maps == {}
    hml.ext_dims(S, hml.regular(table), 3)
    assert calls == [1, 2, 3, 4] and sorted(hml._resolution(S).maps) == [1, 2, 3, 4]


def test_ext_over_all_pairs_ranks_each_differential_once_per_target(monkeypatch):
    # Hom and Ext^1..4 of every pair of a bridge: the rank builder runs
    # once per non-semisimple target and distinct (element matrix, source,
    # target levels); into a simple target it runs for none, and a
    # resolution read only against simple targets builds no element matrix
    A = nak.validate(nak.CYCLE, (2, 3, 3))
    table = qa.nakayama_to_table(A, F3)
    mods = [hml.bridged_module(table, M.vertex, M.length) for M in nak.indecomposables(A)]
    simples = [N for N in mods if N.dim == 1]
    assert (len(mods), len(simples)) == (8, 3)
    calls = []
    build = hml._differential_rank.__wrapped__
    monkeypatch.setattr(hml._differential_rank, "__wrapped__",
                        lambda N, *key: calls.append((N, *key)) or build(N, *key))
    for M in mods:
        for N in simples:
            hml.ext_dims(M, N, 4, include_hom=True)
    assert calls == [] and all(hml._resolution(M).maps == {} for M in mods)
    for M in mods:
        for N in mods:
            hml.ext_dims(M, N, 4, include_hom=True)
    keys = set()
    for M in mods:
        res = hml._resolution(M)
        keys |= {(res.differential(s), res.levels[s - 1], res.levels[s]) for s in range(1, min(6, len(res.levels)))}
    assert not any(N in simples for N, *_ in calls)
    assert len(calls) == len(set(calls)) == (len(mods) - len(simples)) * len(keys) == 5 * 5
    assert len(keys) < sum(min(5, len(hml._resolution(M).levels) - 1) for M in mods)


@pytest.mark.parametrize("fld", [F2, F3, QQ], ids=["F2", "F3", "Q"])
@pytest.mark.parametrize("orientation, kup", [(nak.CYCLE, (2, 3)), (nak.CYCLE, (3, 3, 4)), (nak.LINE, (3, 2, 1))])
def test_shared_covers_and_ranks_change_no_answer(fld, orientation, kup):
    # Hom and Ext^1..4 of every pair on one table, where the resolutions
    # share covers and ranks, equal those of the pair on a fresh table
    A = nak.validate(orientation, kup)
    mods = nak.indecomposables(A)
    table = qa.nakayama_to_table(A, fld)
    shared = {M: hml.bridged_module(table, M.vertex, M.length) for M in mods}
    for M in mods:
        for N in mods:
            got = hml.ext_dims(shared[M], shared[N], 4, include_hom=True)
            fresh = qa.nakayama_to_table(A, fld)
            want = hml.ext_dims(hml.bridged_module(fresh, M.vertex, M.length),
                                hml.bridged_module(fresh, N.vertex, N.length), 4, include_hom=True)
            assert (got.hom, got.degrees) == (want.hom, want.degrees), (M, N)


def test_cover_of_rows_agrees_with_cover_of_the_submodule(hopf):
    # the radical of the regular module, as rows and as a module of its own
    fmt = row_format(hopf.field)
    R = hml.regular(hopf)
    rows = hml.radical_rows(R)
    packed = [fmt.pack(r) for r in rows]
    inside = hml.projective_cover(R, packed)
    alone = hml.projective_cover(hml.submodule(R, rows)[0])
    assert inside.vertices == alone.vertices == (0, 0)
    assert inside.P.dim == alone.P.dim == 16
    # the cover map is written in the coordinates of R, onto the rows
    image, target = SpanBuilder(hopf.field), SpanBuilder(hopf.field)
    for r in inside.rows:
        image.add(fmt.unpack(r))
    for r in rows:
        target.add(r)
    assert image.finish() == target.finish()
    # int rows, reduced at their highest bits or not, span the same rows
    # and give the same cover
    for ints in (packed, packed[:1] + [packed[0] ^ r for r in packed[1:]]):
        cov = hml.projective_cover(R, ints)
        assert (cov.vertices, cov.rows, cov.kernel) == (inside.vertices, inside.rows, inside.kernel)


# -- modules cut from the regular module, against the dense constructions ------

def dense_projective(table, v):
    """e_vA built from dense products: the RREF basis of the span of the
    e_v * b_j, and each action row b * b_u in that basis, read at the
    pivots and checked by a dense recombination."""
    fld = table.field
    e = qa._dense(table.idempotents[v][1], table.dim, fld.zero())
    basis, pivots = _rref(fld, [table.mult_elements(e, basis_vec(table, j)) for j in range(table.dim)])

    def coords(vec):
        coeffs = [vec[c] for c in pivots]
        assert matmul_rows(fld, [coeffs], basis)[0] == vec
        return sparse_row(coeffs)

    rows = tuple(tuple(coords(table.mult_elements(b, basis_vec(table, u))) for b in basis)
                 for u in range(table.dim))
    return [sparse_row(b) for b in basis], rows


def iterated_quotient(table, v, length):
    """(dim, rows) of P_v / P_v J^length: the radical power spanned by
    repeated image spans from the identity rows, and each action row
    reduced against the RREF basis of that span."""
    P = hml.projective(table, v)
    fld = table.field
    rows = hml._unit_rows(fld, P.dim)
    for _ in range(length):
        rows = hml._image_span(P, rows, qa._radical_top(table)).rows
    basis, pivots = _rref(fld, [qa._dense(r, P.dim, fld.zero()) for r in rows])
    comp = [j for j in range(P.dim) if j not in pivots]

    def project(row):
        vec = [fld.zero()] * P.dim
        for j, x in row:
            vec[j] = x
        for b, c in zip(basis, pivots):
            if vec[c]:
                vec = [fld.sub(x, fld.mul(vec[c], y)) for x, y in zip(vec, b)]
        return tuple((k, vec[j]) for k, j in enumerate(comp) if vec[j])

    return len(comp), tuple(tuple(project(P.rows[u][j]) for j in comp) for u in range(table.dim))


CUT_TABLES = {
    "hopf-a5-f2": lambda: qa.preset("hopf-a5-f2"),
    "truncated-poly-4-Q": lambda: qa.preset("truncated-poly(4,Q)"),
    "bridged-3-4-F3": lambda: qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4)), F3),
    "bridged-3-4-Q": lambda: qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4)), QQ),
}


@pytest.mark.parametrize("make", CUT_TABLES.values(), ids=CUT_TABLES.keys())
def test_projective_matches_the_dense_construction(make):
    table = make()
    for v in range(table.n_vertices):
        basis, rows = dense_projective(table, v)
        P, cut_basis, _ = hml._projective_data(table, v)
        assert (P.dim, P.rows, cut_basis) == (len(basis), rows, basis)
        assert P.name == f"P({table.idempotents[v][0]})"


@pytest.mark.parametrize("make", CUT_TABLES.values(), ids=CUT_TABLES.keys())
def test_bridged_module_matches_the_iterated_quotient(make):
    table = make()
    for v in range(table.n_vertices):
        for length in range(qa.loewy_length(table) + 2):
            M = hml.bridged_module(table, v, length)
            assert (M.dim, M.rows) == iterated_quotient(table, v, length), (v, length)
            assert M.name == f"M({v},{length})"
        assert hml.bridged_module(table, v, 0).dim == 0


@pytest.mark.parametrize("make", CUT_TABLES.values(), ids=CUT_TABLES.keys())
def test_radical_power_matches_the_powers_of_the_declared_radical(make):
    table = make()
    powers = list(qa._radical_powers(table))
    for k in [*range(1, qa.loewy_length(table) + 2), 2000]:  # 2000: past Python's recursion limit
        X = hml.radical_power(table, k)
        if k <= len(powers):
            rep, basis = hml.submodule(hml.regular(table), powers[k - 1])
            assert (X.rep.dim, X.rep.rows, X.rows) == (rep.dim, rep.rows, basis), k
        else:
            assert (X.rep.dim, X.rows) == (0, [])
            assert X.rep.rows == ((),) * table.dim
        assert X.rep.name == f"J^{k}"


# -- the certified vertex grading, against the general bodies ------------------

def _ci_end_table(fld):
    """End_B(P0 + P1 + S0) for B the cycle (3, 3), as the CI saves it."""
    B = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3)), fld)
    return hml.endomorphism_algebra([hml.projective(B, 0), hml.projective(B, 1), hml.bridged_module(B, 0, 1)])


GRADED_TABLES = {
    **{name: (lambda name=name: qa.preset(name)) for name in (
        "hopf-a5-f2", "dihedral8-f2", "quaternion8-f2", "preproj-a2",
        "truncated-poly(3,F2)", "truncated-poly(4,F3)", "truncated-poly(4,Q)")},
    **{f"{orientation}{''.join(map(str, kup))}-{fld.describe()}":
       (lambda o=orientation, k=kup, f=fld: qa.nakayama_to_table(nak.validate(o, k), f))
       for fld in (F2, F3, QQ) for orientation, kup in ((nak.CYCLE, (3, 4, 4)), (nak.LINE, (3, 2, 2, 1)))},
    "end-33-F2": lambda: _ci_end_table(F2),
    "end-33-Q": lambda: _ci_end_table(QQ),
    "opposite-3334-F3": lambda: hml._op_table(qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3, 3, 4)), F3)),
    "corner-344-Q": lambda: qa.corner_algebra(qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4, 4)), QQ),
                                              ["v1", "v2"])[0],
}


@pytest.mark.parametrize("make", GRADED_TABLES.values(), ids=GRADED_TABLES.keys())
def test_certified_grading_matches_the_general_bodies(make):
    table = make()
    grading = qa._vertex_grading(table)
    assert grading is not None
    # the value the opposite table is given is the one its constants certify
    assert qa._vertex_grading.__wrapped__(table) == grading
    # the same table with no grading stored takes the general bodies
    twin = dataclasses.replace(table)
    qa._vertex_grading.put(twin, None)
    assert qa._vertex_grading(twin) is None
    for v in range(table.n_vertices):
        P, basis, rows = hml._projective_data(table, v)
        Q, general_basis, general_rows = hml._projective_data(twin, v)
        assert (P.dim, P.name, P.rows, basis, rows) == (Q.dim, Q.name, Q.rows, general_basis, general_rows)
    assert hml.projective_injective_vertices(table) == hml.projective_injective_vertices(twin)
    labels = table.vertex_labels()
    pi = [labels[v] for v in sorted(hml.projective_injective_vertices(table))]
    for chosen in [labels, *([label] for label in labels), *([pi] if pi else [])]:
        corner, rows = qa.corner_algebra(table, chosen)
        general, general_rows = qa.corner_algebra(twin, chosen)
        assert (corner.to_json(), rows) == (general.to_json(), general_rows), chosen


def test_vertex_grading_is_read_once_per_table(monkeypatch):
    calls = []
    build = qa._vertex_grading.__wrapped__
    monkeypatch.setattr(qa._vertex_grading, "__wrapped__", lambda table: calls.append(table) or build(table))
    table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 4, 4)), F2)
    hml.domdim(table, 8)
    assert hml.is_gendo_symmetric(table, 8) is True
    # the opposite table is given the mirrored grading; the corner reads its own
    assert calls[0] is table and [t.provenance["kind"] for t in calls[1:]] == ["corner"]
    op = hml._op_table(table)
    assert qa._vertex_grading(op) == qa._vertex_grading(table)[::-1]


@pytest.mark.parametrize("fld", [F3, QQ])
def test_a_local_table_off_the_path_basis_is_graded_trivially(fld):
    # one idempotent, the unit: every basis is adapted, though the radical
    # is no span of unit vectors
    table = dual_numbers_off_the_path_basis(fld)
    assert qa._vertex_grading(table) == ([0, 0], [0, 0])
    assert hml.syzygy_dims(hml.simple(table, 0), 4) == [1, 1, 1, 1]
