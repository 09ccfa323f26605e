"""The four benchmark workloads: seeded inputs, item execution, oracles.

Every workload is an endless stream of *rounds*; a round is a list of
item specs (plain tuples), stratified so that every round has the same
composition.  ``make_rounds`` builds a workload's fixed pools at once and
draws each round from the seeded generator only when the harness asks
for it, so a run never runs out of inputs.  The harness runs whole rounds
in a closed loop, so the mix of work in a run does not depend on where
the clock stops.

Each workload has two halves.  ``compute_*`` does the work the workload
measures and returns its results; only it is timed (and traced).
``check_*`` takes the spec and those results, runs the oracles, and
returns the list of violations; an empty list means every result was
checked and correct.  An item whose search came back undetermined (a
``None`` verdict, or ``at_least`` where the oracle says the value is
finite) is a violation too.
"""

from __future__ import annotations

import random

from domdimlab import homology as hml
from domdimlab import nakayama as nak
from domdimlab import quivalg as qa
from domdimlab import rigidity as rg
from domdimlab.exactmath import F2, F3, QQ

CUTOFF = 64
FIELDS = {"F2": F2, "F3": F3, "Q": QQ}
# the verify suite's main-inequality corpus, pinned here so the benchmark
# does not move when the suites module does
MAIN_INEQUALITY_CORPUS = ((2, 3), (2, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4, 5), (4, 5, 5, 5))


# ---------------------------------------------------------------------------
# constructive Kupisch sampler
# ---------------------------------------------------------------------------

def sample_cycle(rng: random.Random, n: int, c_max: int, c_min: int = 2,
                 total: int | None = None) -> tuple[int, ...]:
    """A cyclic Kupisch series with ``n`` entries in ``[c_min, c_max]``,
    summing to ``total`` when it is given.

    Each entry is drawn in its valid range given the previous one
    (``c_{i+1} >= c_i - 1``) and, with ``total``, given that the entries
    still to come can make up the rest of the sum; only the wrap-around
    condition ``c_0 >= c_{n-1} - 1`` can reject a draw.
    """
    if total is not None and not c_min * n <= total <= c_max * n:
        raise ValueError(f"no series of {n} entries in [{c_min}, {c_max}] sums to {total}")

    def completable(sofar, c, left):
        # the smallest tail after c steps down by one to c_min; the largest is all c_max
        rest = total - sofar - c
        return sum(max(c_min, c - j) for j in range(1, left + 1)) <= rest <= c_max * left

    while True:
        c = []
        for i in range(n):
            lo = max(c_min, c[-1] - 1) if c else c_min
            choices = range(lo, c_max + 1)
            if total is not None:
                choices = [x for x in choices if completable(sum(c), x, n - 1 - i)]
            c.append(rng.choice(choices))
        if c[0] >= c[-1] - 1:
            return tuple(c)


def sample_line(rng: random.Random, n: int) -> tuple[int, ...]:
    """A non-semisimple line Kupisch series with ``n >= 2`` entries, drawn
    from the last entry (always 1) backwards, each in its valid range
    ``1 <= c_i <= min(n - i, c_{i+1} + 1)``."""
    if n < 2:
        raise ValueError("a non-semisimple line algebra needs n >= 2")
    while True:
        c = [1]
        for i in range(n - 2, -1, -1):
            c.append(rng.randint(1, min(n - i, c[-1] + 1)))
        c.reverse()
        if any(x > 1 for x in c):
            return tuple(c)


def cyclic_pool(n: int, c_max: int, c_min: int = 2) -> list[tuple[int, ...]]:
    """Every cyclic Kupisch series with ``n`` entries in ``[c_min, c_max]``,
    built entry by entry within the valid ranges (for the small n of the
    table-engine workloads only)."""
    frontier = [(c,) for c in range(c_min, c_max + 1)]
    for _ in range(n - 1):
        frontier = [c + (x,) for c in frontier for x in range(max(c_min, c[-1] - 1), c_max + 1)]
    return [c for c in frontier if c[0] >= c[-1] - 1]


def _endless(draw):
    while True:
        yield draw()


# ---------------------------------------------------------------------------
# nakayama-sweep
# ---------------------------------------------------------------------------

SWEEP_N = range(1, 8)
SWEEP_C_MAX = 12
# Total dimension sum(c) per n = 2..7 (n = 1 is drawn freely).  The cost of
# an item grows steeply with sum(c), so fixing it per stratum keeps every
# round's work nearly equal while the seed picks the shape.
SWEEP_TOTALS = {2: 19, 3: 28, 4: 38, 5: 47, 6: 57, 7: 66}
SWEEP_SHIFT_PAIRS = 64


def ext_by_shift(A, t, M, N) -> int:
    """dim Ext^t(M, N) from Hom dimensions alone: Ext^t(M, N) = Ext^1(X, N)
    for X = Omega^{t-1} M, and 0 -> Hom(X,N) -> Hom(P_X,N) -> Hom(Omega X,N)
    -> Ext^1(X,N) -> 0 is exact.  Independent of dim_ext's rank bookkeeping."""
    X = nak.syzygy_power(A, M, t - 1)
    if X is None or nak.is_projective(A, X):
        return 0
    P = nak.projective(A, X.vertex)
    return (nak.dim_hom(A, nak.syzygy(A, X), N) - nak.dim_hom(A, P, N)
            + nak.dim_hom(A, X, N))


def rounds_nakayama_sweep(rng: random.Random):
    """One cyclic series per n = 1..7 in every round, of total dimension
    SWEEP_TOTALS[n] (an odd number of strata, so the median item falls
    inside one stratum, not in the gap between two)."""
    return _endless(lambda: [(sample_cycle(rng, n, SWEEP_C_MAX, total=SWEEP_TOTALS.get(n)),)
                             for n in SWEEP_N])


def compute_nakayama_sweep(kup):
    """o_1 and o_2, domdim, delta, and the 1-rigid indecomposables both by
    the closed criterion and by brute-force dim_ext."""
    A = nak.validate(nak.CYCLE, kup)
    crit = brute = None
    if A.n >= 2:  # the closed criterion is stated for n >= 2
        crit = set(nak.one_rigid_indecomposables(A))
        brute = {M for M in nak.indecomposables(A) if nak.dim_ext(A, 1, M, M) == 0}
    return crit, brute, rg.o_k(A, 1), rg.o_k(A, 2), nak.domdim(A, CUTOFF), nak.delta(A, CUTOFF)


def check_nakayama_sweep(spec, result):
    (kup,) = spec
    crit, brute, r1, r2, dd, dl = result
    A = nak.validate(nak.CYCLE, kup)
    n = A.n
    bad = []
    if crit != brute:
        bad.append("closed 1-rigid criterion differs from brute-force dim_ext")
    mods = nak.indecomposables(A)
    pick = random.Random(repr(kup))
    for _ in range(SWEEP_SHIFT_PAIRS):
        M, N, t = pick.choice(mods), pick.choice(mods), pick.randint(1, 2)
        if nak.dim_ext(A, t, M, N) != ext_by_shift(A, t, M, N):
            bad.append(f"dim Ext^{t}({M!r},{N!r}) differs from the dimension-shift value")
    if not n <= r2.o_k <= r1.o_k <= n * (n - 1) + n * n:
        bad.append(f"expected n <= o_2 <= o_1 <= n(n-1)+n^2, got o_1={r1.o_k} o_2={r2.o_k}")
    for k, rep in ((1, r1), (2, r2)):
        if len(set(rep.witness)) != rep.o_k or not rg.is_k_rigid(A, rep.witness, k):
            bad.append(f"o_{k} clique witness is not a {k}-rigid module of size o_{k}")
    # Nakayama algebras are representation-finite, where the Nakayama
    # conjecture holds: domdim is infinite exactly when A is selfinjective.
    if dd.is_finite == nak.is_selfinjective(A):
        bad.append(f"domdim {dd!r} contradicts selfinjective={nak.is_selfinjective(A)}")
    # ... and so does Tachikawa's first conjecture, so delta is finite.
    if not dl.is_finite:
        bad.append(f"delta undetermined: {dl!r}")
    return bad


# ---------------------------------------------------------------------------
# engine-cross
# ---------------------------------------------------------------------------

CROSS_C_MAX = 7
CROSS_T_MAX = 4
# total dimensions sum(c) per number of vertices n; one cyclic algebra per
# (n, dimension, field) in every round.  The cost of an item is set by n,
# the field and sum(c), so fixing those keeps every round's work equal
# while the seed picks the shape.
CROSS_DIMS = {1: (3, 5, 7), 2: (5, 9, 13), 3: (8, 12, 16), 4: (10, 14, 18)}
CROSS_LINE_N = (3, 4)


def rounds_engine_cross(rng: random.Random):
    """Every round: for each (n, sum(c)) in CROSS_DIMS and each field a
    cyclic algebra of that size, plus one line algebra per n in
    CROSS_LINE_N and field, with n = 1..4 and entries <= 7 throughout."""
    by_dim = {}
    for n in CROSS_DIMS:
        for c in cyclic_pool(n, CROSS_C_MAX):
            by_dim.setdefault((n, sum(c)), []).append(c)

    def draw():
        rnd = []
        for n, dims in CROSS_DIMS.items():
            for d in dims:
                for fname in FIELDS:
                    rnd.append((nak.CYCLE, rng.choice(by_dim[(n, d)]), fname))
        for n in CROSS_LINE_N:
            for fname in FIELDS:
                rnd.append((nak.LINE, sample_line(rng, n), fname))
        return rnd

    return _endless(draw)


def compute_engine_cross(orientation, kup, fname):
    """Hom and Ext^1..4 of every pair of indecomposables, and domdim, in
    both engines: the bridged table and the Nakayama combinatorics."""
    A = nak.validate(orientation, kup)
    table = qa.nakayama_to_table(A, FIELDS[fname])
    mods = nak.indecomposables(A)
    bridged = {M: hml.bridged_module(table, M.vertex, M.length) for M in mods}
    pairs = []
    for M in mods:
        for N in mods:
            ext = hml.ext_dims(bridged[M], bridged[N], CROSS_T_MAX, include_hom=True)
            got = [ext.hom] + list(ext.degrees)
            want = [nak.dim_hom(A, M, N)] + [nak.dim_ext(A, t, M, N)
                                            for t in range(1, CROSS_T_MAX + 1)]
            pairs.append((M, N, got, want))
    return pairs, hml.domdim(table, CUTOFF), nak.domdim(A, CUTOFF)


def check_engine_cross(spec, result):
    pairs, dd_table, dd_nak = result
    bad = [f"Hom/Ext^1..{CROSS_T_MAX}({M!r},{N!r}): table {got} vs nakayama {want}"
           for M, N, got, want in pairs if got != want]
    if dd_table != dd_nak:
        bad.append(f"domdim: table {dd_table!r} vs nakayama {dd_nak!r}")
    return bad


# ---------------------------------------------------------------------------
# gendo-bimodule
# ---------------------------------------------------------------------------

GENDO_N_MAX = 4
GENDO_C_MAX = 7
GENDO_TENSOR_CAP = 120  # drawn series only; the corpus goes up to 228


def tensor_dim(A: nak.NakAlgebra) -> int:
    """dim (eAe)^op (x) A for e the sum of the projective-injective vertices,
    i.e. the size of the table the bimodule test builds, from the Kupisch
    series alone."""
    pi = [i for i in range(A.n) if nak.is_injective(A, nak.projective(A, i))]
    corner = sum(nak.dim_hom(A, nak.projective(A, j), nak.projective(A, i))
                 for i in pi for j in pi)
    return corner * sum(A.kupisch)


def smallest_rotation(c: tuple[int, ...]) -> tuple[int, ...]:
    return min(c[i:] + c[:i] for i in range(len(c)))


def gendo_pool():
    """Non-selfinjective cyclic series with n <= 4, entries <= 7, Nakayama
    domdim >= 2 and bimodule table dimension <= GENDO_TENSOR_CAP that are
    not a rotation of a corpus series."""
    pool = []
    corpus = {smallest_rotation(c) for c in MAIN_INEQUALITY_CORPUS}
    for n in range(1, GENDO_N_MAX + 1):
        for c in cyclic_pool(n, GENDO_C_MAX):
            if smallest_rotation(c) in corpus:
                continue
            A = nak.validate(nak.CYCLE, c)
            if nak.is_selfinjective(A):
                continue
            dd = nak.domdim(A, CUTOFF)
            if dd.is_finite and dd.value < 2:
                continue
            if tensor_dim(A) <= GENDO_TENSOR_CAP:
                pool.append(c)
    return pool


def rotation_classes(series):
    """Group series that are rotations of each other (isomorphic algebras,
    vertices relabelled), in order of their smallest rotation."""
    classes = {}
    for c in series:
        classes.setdefault(smallest_rotation(c), []).append(c)
    return [sorted(classes[k]) for k in sorted(classes)]


def rounds_gendo_bimodule(rng: random.Random):
    """Every round: the six corpus series and every series of the capped
    pool (all rotations of ten algebras), in seeded order.  A rotation
    relabels the quiver but changes the cost of the test by up to 30 %, so
    a round holds all of them and its work does not depend on the seed;
    one seeded rotation per algebra moved the median latency of a run by
    15 % from seed to seed."""
    items = [(c,) for c in MAIN_INEQUALITY_CORPUS + tuple(gendo_pool())]

    def draw():
        rnd = list(items)
        rng.shuffle(rnd)
        return rnd

    return _endless(draw)


def _is_family(kup) -> bool:
    n = len(kup)
    return kup == (n,) + (n + 1,) * (n - 1)


def compute_gendo_bimodule(kup):
    """The gendo-symmetric verdict over F_2 and, when it is True, the main
    inequality for k = 1, 2."""
    A = nak.validate(nak.CYCLE, kup)
    verdict = hml.is_gendo_symmetric(qa.nakayama_to_table(A, F2), CUTOFF)
    reports = []
    if verdict is True:
        reports = [rg.verify_main_inequality(A, k, CUTOFF, gendo="assert") for k in (1, 2)]
    return verdict, reports


def check_gendo_bimodule(spec, result):
    (kup,) = spec
    verdict, reports = result
    bad = []
    if verdict is None:
        bad.append("gendo-symmetric verdict undetermined")
    if _is_family(kup) and verdict is not True:
        bad.append(f"family member {kup} not confirmed gendo-symmetric: {verdict}")
    for k, rep in enumerate(reports, 1):
        if not rep.verdict:
            bad.append(f"FALSIFICATION of the main inequality at k={k}: {rep.to_json()}")
    A = nak.validate(nak.CYCLE, kup)
    dd_table = hml.domdim(qa.nakayama_to_table(A, F2), CUTOFF)
    dd_nak = nak.domdim(A, CUTOFF)
    if dd_table != dd_nak:
        bad.append(f"domdim: table {dd_table!r} vs nakayama {dd_nak!r}")
    return bad


# ---------------------------------------------------------------------------
# deep-resolution
# ---------------------------------------------------------------------------

# (preset, resolution length) per round.  The hopf resolution is the
# median-cost item and runs three times, so the median rests on several
# measurements instead of one.
DEEP_ITEMS = (("dihedral8-f2", 28), ("quaternion8-f2", 32)) + (("hopf-a5-f2", 32),) * 3
FINGERPRINTS = {
    "hopf-a5-f2": [7, 9, 7, 9],
    "dihedral8-f2": [7, 9, 15, 17],
    "quaternion8-f2": [7, 9, 7, 1],
}


def closed_form_ext(name: str, t: int):
    """Group cohomology of the simple module: dim Ext^t_{kD8}(k,k) = t+1,
    and kQ8 is periodic with dims (2, 2, 1, 1).  None: no closed form."""
    if name == "dihedral8-f2":
        return t + 1
    if name == "quaternion8-f2":
        return (2, 2, 1, 1)[(t - 1) % 4]
    return None


def rounds_deep_resolution(rng: random.Random):
    """The inputs are fixed; the seed only orders each round."""
    def draw():
        rnd = list(DEEP_ITEMS)
        rng.shuffle(rnd)
        return rnd

    return _endless(draw)


def compute_deep_resolution(name, length):
    """Ext^1..L(S, S) of the simple module and its first L + 1 syzygies."""
    S = hml.simple(qa.preset(name), 0)
    ext = hml.ext_dims(S, S, length)
    return [ext.dim(t) for t in range(1, length + 1)], hml.syzygy_dims(S, length + 1)


def check_deep_resolution(spec, result):
    name, length = spec
    ext, syz = result
    bad = []
    if syz[:4] != FINGERPRINTS[name]:
        bad.append(f"syzygy fingerprint {syz[:4]} != {FINGERPRINTS[name]}")
    # local algebra: P_t = A^{m_t} with m_t = dim Ext^t(S,S), and
    # dim P_t = dim Omega^t + dim Omega^{t+1}
    algebra_dim = qa.preset(name).dim
    dims = [1] + syz
    for t in range(1, length + 1):
        got = ext[t - 1]
        if dims[t] + dims[t + 1] != got * algebra_dim:
            bad.append(f"Ext^{t} = {got} disagrees with the resolution ranks")
        want = closed_form_ext(name, t)
        if want is not None and got != want:
            bad.append(f"Ext^{t} = {got}, closed form {want}")
    return bad


# ---------------------------------------------------------------------------

# name -> (rounds, compute, check)
WORKLOADS = {
    "nakayama-sweep": (rounds_nakayama_sweep, compute_nakayama_sweep, check_nakayama_sweep),
    "engine-cross": (rounds_engine_cross, compute_engine_cross, check_engine_cross),
    "gendo-bimodule": (rounds_gendo_bimodule, compute_gendo_bimodule, check_gendo_bimodule),
    "deep-resolution": (rounds_deep_resolution, compute_deep_resolution, check_deep_resolution),
}


def make_rounds(workload: str, seed: int):
    """The endless round stream of ``workload`` for ``seed``; the same seed
    gives the same stream."""
    generate = WORKLOADS[workload][0]
    return generate(random.Random(f"{workload}:{seed}"))
