import random

import pytest
from hypothesis import given, strategies as st

from domdimlab import homology as hml
from domdimlab import nakayama as nak
from domdimlab import quivalg as qa
from domdimlab import rigidity as rg
from domdimlab.exactmath import F2
from domdimlab.suites import SWEEP_C_MAX, SWEEP_N_MAX, cyclic_series


C = nak.CYCLE


def brute_force_o_k(A, k):
    """Independent oracle: exhaustive search over all subsets of indecomposables."""
    mods = nak.indecomposables(A)
    best = 0
    for bits in range(1, 2 ** len(mods)):
        sub = [m for i, m in enumerate(mods) if bits >> i & 1]
        if rg.is_k_rigid(A, sub, k):
            best = max(best, len(set(sub)))
    return best


# -- compatibility graph -------------------------------------------------------

def test_compat_graph_22():
    A = nak.validate(C, (2, 2))
    g = rg.compat_graph(A, 1)
    verts = list(g.vertices)
    assert set(verts) == set(nak.indecomposables(A))  # all four are 1-rigid
    s0, s1 = verts.index(nak.NakModule(0, 1)), verts.index(nak.NakModule(1, 1))
    assert not g.adjacency[s0] >> s1 & 1  # the two simples extend each other
    p0, p1 = verts.index(nak.NakModule(0, 2)), verts.index(nak.NakModule(1, 2))
    assert g.adjacency[p0] >> p1 & 1


def test_compat_graph_projectives_always_present():
    A = nak.validate(C, (3, 3))
    g = rg.compat_graph(A, 4)
    for i in range(A.n):
        assert nak.projective(A, i) in g.vertices


@given(st.sampled_from([(2, 2), (3, 3), (2, 3), (3, 4, 4), (4, 4)]))
def test_compat_vertices_match_one_rigid(kup):
    A = nak.validate(C, kup)
    g = rg.compat_graph(A, 1)
    assert set(g.vertices) == set(nak.one_rigid_indecomposables(A))


def pairwise_compat_graph(A, k):
    """The graph built pair by pair from scalar dim_ext."""
    def rigid(X, Y):
        return all(nak.dim_ext(A, t, X, Y) == 0 and nak.dim_ext(A, t, Y, X) == 0
                   for t in range(1, k + 1))

    verts = [M for M in sorted(nak.indecomposables(A)) if rigid(M, M)]
    adj = [0] * len(verts)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if rigid(verts[i], verts[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(verts), tuple(adj)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compat_graph_matches_pairwise_dim_ext(k):
    for kup in cyclic_series(1, 4, 6):
        A = nak.validate(C, kup)
        g = rg.compat_graph(A, k)
        assert (g.vertices, g.adjacency) == pairwise_compat_graph(A, k), kup


def test_compat_graph_at_a_huge_k_equals_the_pigeonhole_bound(small_cycles):
    # Omega^s M is 0 or repeats by s = sum(c), so no Ext^t with t > sum(c) + 1
    # adds an edge; k = 10^12 reads each orbit once
    for A in small_cycles:
        g = rg.compat_graph(A, 10**12)
        assert (g.vertices, g.adjacency) == pairwise_compat_graph(A, sum(A.kupisch) + 1), A


def test_compat_graph_refuses_a_series_over_the_size_limit(monkeypatch):
    # checked before the indecomposables are listed: sum(c) of 10^12 answers at once
    with pytest.raises(qa.SizeLimitError, match=f"{qa.SIZE_LIMIT + 1} indecomposables"):
        rg.compat_graph(nak.validate(C, (qa.SIZE_LIMIT + 1,)), 1)
    with pytest.raises(qa.SizeLimitError):
        rg.o_k(nak.validate(C, (10**12,)), 1)
    monkeypatch.setattr(qa, "SIZE_LIMIT", 6)  # read at call time: sum(c) = 6 is allowed
    assert rg.o_k(nak.validate(C, (3, 3)), 1).o_k == 3
    with pytest.raises(qa.SizeLimitError, match="7 indecomposables exceed the limit 6"):
        rg.o_k(nak.validate(C, (3, 4)), 1)


# -- clique search -------------------------------------------------------------

def set_based_degeneracy_order(adj, n):
    remaining = set(range(n))
    order = []
    while remaining:
        mask = sum(1 << v for v in remaining)
        v = min(remaining, key=lambda x: (bin(adj[x] & mask).count("1"), x))
        order.append(v)
        remaining.remove(v)
    return order


def test_degeneracy_order_matches_set_based_definition():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(0, 40)
        density = rng.random()
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        assert rg._degeneracy_order(adj, n) == set_based_degeneracy_order(adj, n)


def reference_max_clique(adj, n):
    """The first-fit search the bit-parallel one must reproduce: colour
    classes built one vertex at a time, then the (colour, vertex) pairs
    sorted and explored from the top."""
    if n == 0:
        return 0, 0
    order = set_based_degeneracy_order(adj, n)
    order.reverse()
    pos = {v: i for i, v in enumerate(order)}
    radj = [sum(1 << pos[u] for u in range(n) if adj[v] >> u & 1) for v in order]
    best_size = 0
    best_mask = 0

    def expand(cur_mask, cur_size, cand):
        nonlocal best_size, best_mask
        classes = []
        ordered = []
        for v in (v for v in range(n) if cand >> v & 1):
            for ci, cmask in enumerate(classes):
                if not radj[v] & cmask:
                    classes[ci] = cmask | (1 << v)
                    ordered.append((ci + 1, v))
                    break
            else:
                classes.append(1 << v)
                ordered.append((len(classes), v))
        ordered.sort()
        for col, v in reversed(ordered):
            if cur_size + col <= best_size:
                return
            new_mask = cur_mask | (1 << v)
            new_cand = cand & radj[v]
            if cur_size + 1 > best_size:
                best_size = cur_size + 1
                best_mask = new_mask
            if new_cand:
                expand(new_mask, cur_size + 1, new_cand)
            cand &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    return best_size, sum(1 << order[i] for i in range(n) if best_mask >> i & 1)


def random_graph(rng, n, density):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def brute_force_clique_number(adj, n):
    # clique[mask]: the vertices of mask are pairwise adjacent
    clique = [True] * (1 << n)
    best = 0
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        clique[mask] = clique[rest] and adj[v] & rest == rest
        if clique[mask]:
            best = max(best, mask.bit_count())
    return best


def test_max_clique_matches_the_first_fit_search_on_random_graphs():
    rng = random.Random(34)
    for trial in range(320):
        n = rng.randint(0, 45)
        adj = random_graph(rng, n, trial / 319)  # densities 0 to 1
        assert rg._max_clique(adj, n) == reference_max_clique(adj, n), (n, trial)


@pytest.mark.parametrize("k", [1, 2])
def test_max_clique_matches_the_first_fit_search_on_the_sweep_corpus(k):
    # every compat graph of the rigidity-sweep suite
    for kup in cyclic_series(2, SWEEP_N_MAX, SWEEP_C_MAX):
        g = rg.compat_graph(nak.validate(C, kup), k)
        n = len(g.vertices)
        assert rg._max_clique(g.adjacency, n) == reference_max_clique(g.adjacency, n), kup


def test_max_clique_size_matches_brute_force():
    rng = random.Random(12)
    for trial in range(150):
        n = rng.randint(0, 12)
        adj = random_graph(rng, n, rng.random())
        size, mask = rg._max_clique(adj, n)
        assert size == brute_force_clique_number(adj, n) == mask.bit_count(), (n, trial)
        assert all(mask & ~(adj[v] | 1 << v) == 0
                   for v in range(n) if mask >> v & 1)  # the mask is a clique


# -- is_k_rigid ----------------------------------------------------------------

def test_regular_module_always_rigid():
    for kup in [(2, 3), (3, 3), (5, 6, 6, 6, 6)]:
        A = nak.validate(C, kup)
        regular = [nak.projective(A, i) for i in range(A.n)]
        for k in (1, 2, 3):
            assert rg.is_k_rigid(A, regular, k)


def test_paper_witness_is_2_rigid():
    A = nak.validate(C, (5, 6, 6, 6, 6))
    mods = list(nak.dual_regular(A))
    for I in nak.dual_regular(A):
        om = nak.syzygy_power(A, I, 4)
        if om is not None:
            mods.append(om)
    assert rg.is_k_rigid(A, mods, 2)


def test_non_rigid_module_55():
    A = nak.validate(C, (5, 5))
    assert not rg.is_k_rigid(A, [nak.NakModule(0, 2)], 1)


def rigid_by_definition(A, modules, k):
    """Ext^t(X, Y) = 0 for t = 1..k over all ordered pairs, by scalar dim_ext."""
    summands = set(modules)
    return all(nak.dim_ext(A, t, X, Y) == 0
               for t in range(1, k + 1) for X in summands for Y in summands)


@pytest.mark.parametrize("k", [1, 2])
def test_is_k_rigid_matches_definition(k):
    """The witness of o_k is rigid; adding any module outside it is not
    (the witness is maximal); a random subset may be either."""
    rng = random.Random(k)
    seen = {True: 0, False: 0}
    for kup in cyclic_series(2, 4, SWEEP_C_MAX):
        A = nak.validate(C, kup)
        witness = rg.o_k(A, k).witness
        mods = nak.indecomposables(A)
        extra = rng.choice([M for M in mods if M not in witness] or mods)
        for sub in (witness, witness + (extra,), rng.sample(mods, min(3, len(mods)))):
            verdict = rg.is_k_rigid(A, sub, k)
            assert verdict == rigid_by_definition(A, sub, k), (kup, sub)
            seen[verdict] += 1
    assert seen[True] > 360 and seen[False] > 300  # both verdicts well exercised


def rigid_up_to(A, modules, k):
    """Ext^t vanishes between all summands for every t = 1..k, one syzygy
    chain per summand read to Omega^k."""
    summands = sorted(set(modules))
    chains = [nak.syzygy_chain(A, X, k) for X in summands]
    return not any(nak.ext_on_chain(A, t, chain, Y)
                   for t in range(1, k + 1) for chain in chains for Y in summands)


def test_is_k_rigid_at_a_huge_k_equals_the_pigeonhole_bound(small_cycles):
    # k = sum(c) + 1 reaches every pair (Omega^(t-1) X, Omega^t X) there is;
    # k = 10^12 must stop at the first repeat of each orbit and agree
    seen = {True: 0, False: 0}
    for A in small_cycles:
        mods = nak.indecomposables(A)
        subs = [[M] for M in mods] + [[M, N] for M, N in zip(mods, mods[1:])]
        for sub in subs + [nak.dual_regular(A)]:
            verdict = rg.is_k_rigid(A, sub, 10**12)
            assert verdict == rigid_up_to(A, sub, sum(A.kupisch) + 1), (A, sub)
            seen[verdict] += 1
    assert min(seen.values()) > 50


def test_multiset_input_equals_set_input():
    A = nak.validate(C, (3, 3))
    mods = [nak.NakModule(0, 2), nak.NakModule(0, 2), nak.projective(A, 0)]
    assert rg.is_k_rigid(A, mods, 1) == rg.is_k_rigid(A, set(mods), 1)


# -- o_k -------------------------------------------------------------------------

def test_o1_22_exhaustive_oracle():
    A = nak.validate(C, (2, 2))
    rep = rg.o_k(A, 1)
    assert rep.o_k == 3
    assert brute_force_o_k(A, 1) == 3
    assert rg.is_k_rigid(A, rep.witness, 1)


def test_o1_local_algebra_is_1():
    A = nak.validate(C, (4,))
    assert rg.o_k(A, 1).o_k == 1


@given(st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 2, 2)]))
def test_o1_matches_bruteforce(kup):
    A = nak.validate(C, kup)
    assert rg.o_k(A, 1).o_k == brute_force_o_k(A, 1)


@given(st.sampled_from([(2, 3), (3, 3), (3, 4, 4), (4, 5), (2, 2, 3)]))
def test_o_k_monotone_nonincreasing(kup):
    A = nak.validate(C, kup)
    values = [rg.o_k(A, k).o_k for k in (1, 2, 3)]
    assert values[0] >= values[1] >= values[2] >= A.n


def test_o_k_witness_revalidates():
    A = nak.validate(C, (3, 4, 4))
    for k in (1, 2):
        rep = rg.o_k(A, k)
        assert rg.is_k_rigid(A, rep.witness, k)
        assert len(rep.witness) == rep.o_k


# the search and its tie-breaks must keep returning exactly these witnesses
PINNED_WITNESSES = [
    (C, (3, 4, 4), 1, [(0, 1), (0, 2), (1, 4), (2, 3), (2, 4)]),
    (C, (3, 4, 4), 2, [(0, 3), (1, 3), (1, 4), (2, 4)]),
    (C, (5, 6, 6, 6, 6), 2, [(0, 5), (1, 5), (1, 6), (2, 6), (3, 5), (3, 6), (4, 6)]),
    (nak.LINE, (3, 3, 2, 1), 1, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 2), (3, 1)]),
    (C, (4, 4, 5), 3, [(0, 1), (0, 4), (1, 4), (2, 5)]),
]


@pytest.mark.parametrize("orientation, kup, k, witness", PINNED_WITNESSES)
def test_o_k_pinned_witnesses(orientation, kup, k, witness):
    rep = rg.o_k(nak.validate(orientation, kup), k)
    assert rep.o_k == len(witness)
    assert [(m.vertex, m.length) for m in rep.witness] == witness


def test_o1_bound_small_corpus():
    for kup in [(2, 2), (5, 5), (6, 6), (5, 6, 6, 6, 6), (9, 9, 9)]:
        A = nak.validate(C, kup)
        n = A.n
        assert rg.o_k(A, 1).o_k <= n * (n - 1) + n * n


# -- rigid sequence construction ---------------------------------------------------

def test_rigid_sequence_family_n5():
    A = nak.validate(C, (5, 6, 6, 6, 6))
    res = rg.rigid_sequence_module(A, 2, 64)
    assert res.q == 1
    expect = set(nak.dual_regular(A))
    expect.add(nak.NakModule(3, 5))  # the only surviving fourth syzygy
    assert set(res.modules) == expect
    assert res.size >= res.w + res.q
    assert res.rigid


def test_rigid_sequence_q0_fallback():
    # dominant dimension 2 leaves no room for a shift: D(A) alone
    A = nak.validate(C, (2, 3))
    res = rg.rigid_sequence_module(A, 1, 64)
    assert res.q == 0
    assert set(res.modules) == set(nak.dual_regular(A))
    assert res.size >= res.w


def _shift_count(domdim, k):
    """q as ``rigid_sequence_module`` counted it up before its closed form:
    the largest q >= 0 with (k + 2)q + k <= domdim - 2, else 0."""
    q = 0
    while (k + 2) * (q + 1) + k <= domdim - 2:
        q += 1
    return q


def test_rigid_sequence_q_is_the_closed_form_of_the_count():
    for domdim in range(2, 41):
        for k in range(1, 6):
            assert max(0, (domdim - 2 - k) // (k + 2)) == _shift_count(domdim, k), (domdim, k)
    # the family (n, n+1, ..., n+1) has domdim 2n - 2
    for n in range(2, 7):
        A = nak.validate(C, (n,) + (n + 1,) * (n - 1))
        for k in (1, 2, 3):
            assert rg.rigid_sequence_module(A, k, 64).q == _shift_count(2 * n - 2, k), (n, k)


def test_rigid_sequence_rejects_selfinjective():
    with pytest.raises(nak.NakInputError):
        rg.rigid_sequence_module(nak.validate(C, (3, 3)), 1, 64)


# -- main inequality ------------------------------------------------------------------

def test_main_inequality_family_instances():
    rep = rg.verify_main_inequality(nak.validate(C, (3, 4, 4)), 1, 64, gendo="bimodule")
    assert rep.verdict and rep.gendo_provenance == "bimodule-test"
    assert rep.domdim.value == 4
    rep2 = rg.verify_main_inequality(nak.validate(C, (5, 6, 6, 6, 6)), 2, 64,
                                     gendo="bimodule")
    assert rep2.verdict and rep2.gendo_provenance == "bimodule-test"
    # the inequality with domdim 8 forces o_2 >= 6; the exact clique search
    # finds a strictly larger 2-rigid module
    assert rep2.o_k >= 6 and rep2.rhs == 8
    assert rep2.lhs == (rep2.o_k + 2 - 5) * 4 - 1 >= 8


def test_main_inequality_rejects_selfinjective():
    with pytest.raises(nak.NakInputError):
        rg.verify_main_inequality(nak.validate(C, (3, 3)), 1, 64)


def test_main_inequality_rejects_non_gendo():
    with pytest.raises(hml.PreconditionError):
        rg.verify_main_inequality(nak.validate(C, (2, 3, 3)), 1, 64, gendo="bimodule")


# -- 1-Extsymmetric -------------------------------------------------------------------

def test_preproj_a2_is_ext1_symmetric_both_routes():
    A = nak.validate(C, (2, 2))
    assert rg.is_ext1_symmetric(A) is True
    table = qa.preset("preproj-a2")
    mods = [hml.bridged_module(table, M.vertex, M.length)
            for M in nak.indecomposables(A)]
    assert rg.is_ext1_symmetric(table, mods) is True


def test_symmetric_33_is_not_ext1_symmetric():
    # Ext^1(M(0,2), S_0) is one-dimensional while Ext^1(S_0, M(0,2)) vanishes
    A = nak.validate(C, (3, 3))
    assert nak.dim_ext(A, 1, nak.NakModule(0, 2), nak.NakModule(0, 1)) == 1
    assert nak.dim_ext(A, 1, nak.NakModule(0, 1), nak.NakModule(0, 2)) == 0
    assert rg.is_ext1_symmetric(A) is False


def test_symmetric_33_is_not_ext1_symmetric_on_the_table():
    # the table route reads the same asymmetric pair off the bridged modules
    A = nak.validate(C, (3, 3))
    table = qa.nakayama_to_table(A, F2)
    mods = [hml.bridged_module(table, M.vertex, M.length) for M in nak.indecomposables(A)]
    assert rg.is_ext1_symmetric(table, mods) is False


def test_extsym_bound_preproj_a2():
    A = nak.validate(C, (2, 2))
    rep = rg.verify_extsym_bound(A, 12)
    assert rep.extsymmetric
    assert rep.delta.value == 2 and rep.o_1 == 3 and rep.simples == 2
    assert rep.bound == 3 and rep.holds


def test_extsym_bound_with_end_algebra():
    A = nak.validate(C, (2, 2))
    table = qa.preset("preproj-a2")
    P0 = hml.projective(table, 0); P0.name = "P0"
    P1 = hml.projective(table, 1); P1.name = "P1"
    S0 = hml.bridged_module(table, 0, 1); S0.name = "S0"
    end = hml.endomorphism_algebra([P0, P1, S0])
    rep = rg.verify_extsym_bound(A, 12, end_algebras=[end])
    assert rep.holds
    assert rep.end_algebra_checks[0]["holds"]


def test_extsym_requires_selfinjective():
    with pytest.raises(nak.NakInputError):
        rg.is_ext1_symmetric(nak.validate(C, (2, 3)))
    with pytest.raises(nak.NakInputError):
        rg.verify_extsym_bound(nak.validate(C, (2, 3)), 12)
