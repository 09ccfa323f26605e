import pytest
from hypothesis import assume, given, strategies as st

from domdimlab import nakayama as nak
from domdimlab.bounded import BoundedValue
from domdimlab.suites import cyclic_series

C = nak.CYCLE
L = nak.LINE


def cyclic_algebras(n_min=1, n_max=4, c_max=6):
    # drawn from the list of valid series, so no draw is filtered out
    series = list(cyclic_series(n_min, n_max, c_max))
    return st.sampled_from(series).map(lambda kup: nak.validate(C, kup))


@st.composite
def line_algebras(draw, n_max=6):
    # built from the sink backwards, so c_i <= n - i and c_i <= c_{i+1} + 1 hold
    n = draw(st.integers(2, n_max))
    kup = [1]
    for i in range(n - 2, -1, -1):
        kup.insert(0, draw(st.integers(1, min(n - i, kup[0] + 1))))
    assume(any(x > 1 for x in kup))
    return nak.validate(L, kup)


# -- validation --------------------------------------------------------------

def test_validate_family_instance():
    A = nak.validate(C, (5, 6, 6, 6, 6))
    assert A.n == 5 and A.is_cycle


def test_validate_rejects_big_drop():
    with pytest.raises(nak.KupischError, match="c_{i\\+1} >= c_i - 1"):
        nak.validate(C, (2, 4))


def test_validate_hereditary_line():
    A = nak.validate(L, (2, 1))
    assert A.n == 2


def test_validate_rejects_semisimple_line():
    with pytest.raises(nak.KupischError, match="semisimple"):
        nak.validate(L, (1, 1))


def test_validate_rejects_cycle_entry_one():
    with pytest.raises(nak.KupischError):
        nak.validate(C, (1, 2))


def test_validate_rejects_empty():
    with pytest.raises(nak.KupischError):
        nak.validate(C, ())


def test_validate_line_needs_terminal_one():
    with pytest.raises(nak.KupischError):
        nak.validate(L, (2, 2))


# -- indecomposables, syzygies, injectives -----------------------------------

def test_indecomposables_cycle_22():
    A = nak.validate(C, (2, 2))
    assert nak.indecomposables(A) == [
        nak.NakModule(0, 1), nak.NakModule(0, 2),
        nak.NakModule(1, 1), nak.NakModule(1, 2),
    ]


def test_indecomposable_counts():
    assert len(nak.indecomposables(nak.validate(C, (3, 3)))) == 6
    assert len(nak.indecomposables(nak.validate(L, (2, 1)))) == 3
    mods = nak.indecomposables(nak.validate(C, (3, 4, 4)))
    assert mods == sorted(mods)  # compat_graph and the suites rely on this order


def test_syzygy_33():
    A = nak.validate(C, (3, 3))
    assert nak.syzygy(A, nak.NakModule(0, 2)) == nak.NakModule(0, 1)


def test_syzygy_of_projective_is_none():
    A = nak.validate(C, (3, 4, 4))
    for i in range(3):
        assert nak.syzygy(A, nak.projective(A, i)) is None


def test_syzygy_reads_the_kupisch_series(monkeypatch):
    # Omega M(i,k) = M(i+k, c_i - k), as module() builds it, with its range
    # checks; syzygy_chain calls syzygy once per step and nothing else
    for A in (nak.validate(C, (3, 4, 4)), nak.validate(C, (2, 3)), nak.validate(L, (3, 2, 2, 1))):
        for M in nak.indecomposables(A):
            want = None if nak.is_projective(A, M) else nak.module(
                A, M.vertex + M.length, A.c(M.vertex) - M.length)
            assert nak.syzygy(A, M) == want
    with pytest.raises(nak.NakInputError, match="length -2 outside"):
        nak.syzygy(nak.validate(C, (3, 3)), nak.NakModule(0, 5))
    with pytest.raises(nak.NakInputError, match="outside the line quiver"):
        nak.syzygy(nak.validate(L, (3, 2, 1)), nak.NakModule(1, 3))
    real, calls = nak.syzygy, []
    for name in ("is_projective", "module"):
        monkeypatch.setattr(nak, name, None)
    monkeypatch.setattr(nak, "syzygy", lambda A, M: calls.append(M) or real(A, M))
    chain = nak.syzygy_chain(nak.validate(C, (3, 3)), nak.NakModule(0, 1), 6)  # periodic
    assert len(chain) == 7 and calls == chain[:-1]
    calls.clear()
    chain = nak.syzygy_chain(nak.validate(C, (3, 4, 4)), nak.NakModule(0, 1), 6)
    assert chain == [nak.NakModule(*m) for m in ((0, 1), (1, 2), (0, 2), (2, 1), (0, 3))]
    assert calls == chain  # the last call finds the projective P_0


def test_omega4_of_dual_regular_family_n5():
    # the summands used by the 2-rigid module: only the non-projective
    # injective survives four syzygy steps
    A = nak.validate(C, (5, 6, 6, 6, 6))
    duals = nak.dual_regular(A)
    assert duals == [nak.NakModule(1, 5), nak.NakModule(1, 6), nak.NakModule(2, 6),
                     nak.NakModule(3, 6), nak.NakModule(4, 6)]
    shifted = [nak.syzygy_power(A, I, 4) for I in duals]
    assert [m for m in shifted if m is not None] == [nak.NakModule(3, 5)]


def test_injectives_selfinjective_33():
    A = nak.validate(C, (3, 3))
    assert nak.injective_dim_at(A, 0) == 3
    for i in range(2):
        assert nak.is_injective(A, nak.projective(A, i))
    assert nak.dual_regular(A) == [nak.projective(A, 0), nak.projective(A, 1)]


def test_injectives_line21_via_opposite_oracle():
    # dual-projective computation over the opposite algebra
    A = nak.validate(L, (2, 1))
    op = nak.opposite(A)
    # dims of the injectives of A are the projective dims of A^op, reversed
    expected_dims = [op.kupisch[A.n - 1 - a] for a in range(A.n)]
    got = [nak.injective_dim_at(A, a) for a in range(A.n)]
    assert got == expected_dims
    assert nak.injective_of_socle(A, 0) == nak.NakModule(0, 1)
    assert not nak.is_injective(A, nak.NakModule(1, 1))
    assert nak.dual_regular(A) == [nak.NakModule(0, 1), nak.NakModule(0, 2)]


def test_cosyzygy_of_injective_is_none():
    A = nak.validate(C, (3, 3))
    assert nak.cosyzygy(A, nak.projective(A, 0)) is None


def test_cosyzygy_inverts_syzygy_selfinjective():
    # over a selfinjective algebra the two loop constructions are inverse
    A = nak.validate(C, (4, 4, 4))
    for M in nak.indecomposables(A):
        om = nak.syzygy(A, M)
        if om is not None:
            assert nak.cosyzygy(A, om) == M
        co = nak.cosyzygy(A, M)
        if co is not None:
            assert nak.syzygy(A, co) == M


# -- Hom and Ext -------------------------------------------------------------

def test_hom_simple_endomorphisms():
    for A in (nak.validate(C, (3, 3)), nak.validate(L, (3, 2, 1))):
        S = nak.simple(A, 0)
        assert nak.dim_hom(A, S, S) == 1


def test_hom_33_examples():
    A = nak.validate(C, (3, 3))
    assert nak.dim_hom(A, nak.NakModule(0, 1), nak.NakModule(0, 2)) == 0
    assert nak.dim_hom(A, nak.NakModule(0, 2), nak.NakModule(0, 2)) == 1
    assert nak.dim_hom(A, nak.projective(A, 0), nak.projective(A, 0)) == 2


def test_ext1_rigidity_criterion_33():
    # c_0 - n = 1 < k = 2, so the self-extension vanishes
    A = nak.validate(C, (3, 3))
    M = nak.NakModule(0, 2)
    assert nak.dim_ext(A, 1, M, M) == 0


def test_ext1_nonrigid_55_with_kernel_oracle():
    # independent oracle: Ext^1(M, M) for M = M(0,k) is the kernel of right
    # multiplication by the length (c_0 - k) path on the weight space M e_k
    A = nak.validate(C, (5, 5))
    M = nak.NakModule(0, 2)
    k, c0, n = 2, 5, 2
    basis = [t for t in range(k) if t % n == k % n]          # M e_k
    surviving = [t for t in basis if t + (c0 - k) < k]        # not killed
    oracle = len(basis) - len(surviving)
    assert oracle == 1
    assert nak.dim_ext(A, 1, M, M) == oracle


def test_ext_from_projective_vanishes():
    A = nak.validate(C, (4, 5, 5, 5))
    P = nak.projective(A, 2)
    for t in range(1, 5):
        for N in nak.indecomposables(A):
            assert nak.dim_ext(A, t, P, N) == 0


def test_ext_into_projective_injective_vanishes():
    # the projective-injectives of the family absorb no extensions
    A = nak.validate(C, (5, 6, 6, 6, 6))
    for t in (1, 2):
        for X in nak.indecomposables(A):
            assert nak.dim_ext(A, t, X, nak.projective(A, 1)) == 0


def test_hereditary_euler_form_oracle():
    # over the full path algebra of type A_n the difference
    # dim Hom - dim Ext^1 depends only on dimension vectors, and Ext^2 = 0
    for n in (2, 3, 4):
        A = nak.validate(L, tuple(range(n, 0, -1)))

        def dimvec(M):
            v = [0] * n
            for t in range(M.length):
                v[M.vertex + t] += 1
            return v

        for M in nak.indecomposables(A):
            for N in nak.indecomposables(A):
                dM, dN = dimvec(M), dimvec(N)
                euler = (sum(dM[i] * dN[i] for i in range(n))
                         - sum(dM[i] * dN[i + 1] for i in range(n - 1)))
                assert nak.dim_ext(A, 2, M, N) == 0
                assert nak.dim_hom(A, M, N) - nak.dim_ext(A, 1, M, N) == euler


def test_symmetric_33_syzygy_period_four():
    A = nak.validate(C, (3, 3))
    for M in nak.indecomposables(A):
        if nak.is_projective(A, M):
            continue
        assert nak.syzygy_power(A, M, 4) == M


def test_syzygy_power_reads_t_modulo_the_period(small_cycles):
    A = nak.validate(C, (3, 3))
    S0 = nak.simple(A, 0)
    assert nak.syzygy_orbit(A, S0, 10**12) == [nak.NakModule(*m) for m in
                                              ((0, 1), (1, 2), (1, 1), (0, 2), (0, 1))]
    assert nak.syzygy_power(A, S0, 10**12) == S0  # period 4
    lines = [nak.validate(L, kup) for kup in ((3, 2, 1), (2, 2, 2, 1), (3, 3, 2, 1))]
    for A in small_cycles + lines:
        N = sum(A.kupisch)
        for M in nak.indecomposables(A):
            walk = [M]  # Omega^s M step by step, None once it is 0
            for _ in range(2 * N):
                walk.append(None if walk[-1] is None else nak.syzygy(A, walk[-1]))
            for t, X in enumerate(walk):
                assert nak.syzygy_power(A, M, t) == X, (A, M, t)
            # Omega^N M is 0 or on the period of the orbit, at most N long
            X, T = walk[N], 10**12
            if X is None:
                assert nak.syzygy_power(A, M, T) is None
            else:
                p = next(p for p in range(1, N + 1) if walk[N + p] == X)
                assert nak.syzygy_power(A, M, T) == walk[N + (T - N) % p], (A, M)


# -- one-rigid criterion -----------------------------------------------------

def test_one_rigid_family_vertex1():
    A = nak.validate(C, (5, 6, 6, 6, 6))
    rigid = set(nak.one_rigid_indecomposables(A))
    for k in range(1, 5):
        assert nak.NakModule(1, k) in rigid


def test_one_rigid_66():
    A = nak.validate(C, (6, 6))
    rigid = {m for m in nak.one_rigid_indecomposables(A) if m.vertex == 0}
    assert {m.length for m in rigid} == {1, 5, 6}


def test_one_rigid_requires_cycle_n_at_least_2():
    with pytest.raises(nak.NakInputError):
        nak.one_rigid_indecomposables(nak.validate(C, (4,)))
    with pytest.raises(nak.NakInputError):
        nak.one_rigid_indecomposables(nak.validate(L, (2, 1)))


@given(cyclic_algebras(n_min=2, n_max=4, c_max=7))
def test_one_rigid_matches_bruteforce(A):
    crit = set(nak.one_rigid_indecomposables(A))
    brute = {M for M in nak.indecomposables(A) if nak.dim_ext(A, 1, M, M) == 0}
    assert crit == brute


# -- dominant dimension ------------------------------------------------------

def test_domdim_family_n5():
    A = nak.validate(C, (5, 6, 6, 6, 6))
    assert nak.domdim(A, 64) == BoundedValue.finite(8)


def test_domdim_selfinjective_hits_cutoff():
    A = nak.validate(C, (3, 3))
    assert nak.domdim(A, 50) == BoundedValue.at_least(50)


def test_domdim_line21():
    A = nak.validate(L, (2, 1))
    assert nak.domdim(A, 64) == BoundedValue.finite(1)


def test_domdim_module_projective_injective():
    A = nak.validate(C, (2, 3))
    assert nak.domdim_module(A, nak.projective(A, 1), 10) == BoundedValue.at_least(10)
    assert nak.domdim_module(A, nak.projective(A, 0), 10) == BoundedValue.finite(2)


@given(cyclic_algebras())
def test_domdim_opposite_invariance(A):
    assert nak.domdim(A, 24) == nak.domdim(nak.opposite(A), 24)


@given(cyclic_algebras())
def test_opposite_is_involution(A):
    assert nak.opposite(nak.opposite(A)) == A


# -- selfinjective / symmetric ----------------------------------------------

def test_selfinjective_symmetric_classification():
    assert nak.is_selfinjective(nak.validate(C, (3, 3)))
    assert nak.is_symmetric(nak.validate(C, (3, 3)))  # 3 = 1 mod 2
    assert nak.is_selfinjective(nak.validate(C, (4, 4)))
    assert not nak.is_symmetric(nak.validate(C, (4, 4)))
    assert not nak.is_selfinjective(nak.validate(C, (5, 6, 6, 6, 6)))
    assert not nak.is_selfinjective(nak.validate(L, (2, 1)))
    assert nak.is_symmetric(nak.validate(C, (4,)))  # local truncated polynomial


# -- phi and delta -----------------------------------------------------------

def test_phi_rejects_projectives():
    A = nak.validate(C, (3, 3))
    with pytest.raises(nak.NakInputError):
        nak.phi(A, [nak.projective(A, 0)], 10)


def test_phi_simple_33():
    A = nak.validate(C, (3, 3))
    assert nak.phi(A, [nak.simple(A, 0)], 12) == BoundedValue.finite(3)


def test_delta_local_truncated_polynomial():
    assert nak.delta(nak.validate(C, (3,)), 12) == BoundedValue.finite(1)


def test_delta_symmetric_33():
    A = nak.validate(C, (3, 3))
    assert nak.delta(A, 12) == BoundedValue.finite(3)
    # attained at a simple module
    assert nak.phi(A, [nak.simple(A, 0)], 12) == BoundedValue.finite(3)


def test_delta_line21():
    assert nak.delta(nak.validate(L, (2, 1)), 12) == BoundedValue.finite(1)


def first_nonzero_dim_ext(A, sources, targets, cutoff):
    """The search phi and delta make, with scalar dim_ext as the oracle."""
    for r in range(1, cutoff + 1):
        if any(nak.dim_ext(A, r, X, Y) for X in sources for Y in targets):
            return BoundedValue.finite(r)
    return BoundedValue.at_least(cutoff)


@given(st.one_of(cyclic_algebras(n_max=4, c_max=7), line_algebras()), st.sampled_from([1, 3, 12]))
def test_phi_and_delta_match_dim_ext(A, cutoff):
    mods = nak.indecomposables(A)
    projectives = [nak.projective(A, i) for i in range(A.n)]
    for X in mods:
        if not nak.is_projective(A, X):
            pair = sorted({X, mods[0]})
            sources = [Y for Y in pair if not nak.is_projective(A, Y)]
            assert nak.phi(A, pair, cutoff) == first_nonzero_dim_ext(A, sources, pair, cutoff)
    if not nak.is_selfinjective(A):
        injectives = [I for I in nak.dual_regular(A) if not nak.is_projective(A, I)]
        assert nak.delta(A, cutoff) == first_nonzero_dim_ext(A, injectives, projectives, cutoff)


# -- the Ext table ------------------------------------------------------------

@given(st.one_of(cyclic_algebras(n_max=4, c_max=8), line_algebras()))
def test_ext_table_matches_dim_ext(A):
    mods = nak.indecomposables(A)
    tab = nak.ext_table(A, 3)
    assert len(tab) == 3
    for t in (1, 2, 3):
        assert tab[t - 1] == [[nak.dim_ext(A, t, M, N) for N in mods] for M in mods]


def test_ext_table_rejects_degree_0():
    with pytest.raises(nak.NakInputError):
        nak.ext_table(nak.validate(C, (2, 2)), 0)


# -- structural invariants ---------------------------------------------------

@given(cyclic_algebras())
def test_dimension_bookkeeping(A):
    for M in nak.indecomposables(A):
        assert nak.dim(M) == M.length
        om = nak.syzygy(A, M)
        assert (om is None) == nak.is_projective(A, M)
        if om is not None:
            assert nak.dim(om) == A.c(M.vertex) - M.length


@given(cyclic_algebras(n_max=3, c_max=5))
def test_injective_count_matches_dimension(A):
    # the injective dimensions partition the total dimension, as the
    # projective ones do
    assert sum(nak.injective_dim_at(A, a) for a in range(A.n)) == sum(A.kupisch)


def test_family_domdim_small_n():
    for n in range(2, 7):
        A = nak.validate(C, (n,) + (n + 1,) * (n - 1))
        assert nak.domdim(A, 64) == BoundedValue.finite(2 * n - 2)


def test_parse_kupisch():
    assert nak.parse_kupisch("5,6,6,6,6") == (5, 6, 6, 6, 6)
    with pytest.raises(nak.KupischError):
        nak.parse_kupisch("5,x")
