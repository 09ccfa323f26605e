"""Batch verification suites behind the ``verify`` CLI command.

Each suite returns a list of item dicts (JSON-ready, canonically ordered)
plus a list of failure strings; an empty failure list is the pass
condition.  Suite items re-derive every expected value from pinned
constants or independent oracles, never from the code path under test.
"""

from __future__ import annotations

from itertools import product as iter_product

from . import homology as hml
from . import nakayama as nak
from . import quivalg as qa
from . import rigidity as rg
from .exactmath import F2, F3

CUTOFF = 64  # search cutoff of every bounded invariant in the suites
ORACLE_N_MAX, ORACLE_C_MAX, ORACLE_T_MAX = 3, 6, 4  # oracle-cross: n, entries, Ext degree
SWEEP_N_MAX, SWEEP_C_MAX = 5, 10  # rigidity-sweep: n, entries


def cyclic_series(n_min: int, n_max: int, c_max: int):
    """All valid cyclic Kupisch series with n_min <= n <= n_max entries in
    [2, c_max], in lexicographic order (2 is the least entry on a cycle)."""
    for n in range(n_min, n_max + 1):
        for c in iter_product(range(2, c_max + 1), repeat=n):
            if all(c[(i + 1) % n] >= c[i] - 1 for i in range(n)):
                yield c


def _item(name: str, passed: bool, **details):
    out = {"name": name, "pass": bool(passed)}
    out.update(details)
    return out


def _result(items):
    return items, [it["name"] for it in items if not it["pass"]]


# ---------------------------------------------------------------------------
# paper-core: the fast pinned-value checks
# ---------------------------------------------------------------------------

def _family_item(n):
    A = nak.validate(nak.CYCLE, (n,) + (n + 1,) * (n - 1))
    got = nak.domdim(A, CUTOFF)
    want = 2 * n - 2
    return _item(f"family-domdim-n{n}", got.is_finite and got.value == want,
                 expected=want, got=got.to_json())


def _rigid_witness_item():
    A = nak.validate(nak.CYCLE, (5, 6, 6, 6, 6))
    duals = nak.dual_regular(A)
    mods = list(duals)
    for I in duals:
        om = nak.syzygy_power(A, I, 4)
        if om is not None:
            mods.append(om)
    ok = rg.is_k_rigid(A, mods, 2)
    return _item("two-rigid-witness-n5", ok,
                 modules=[[m.vertex, m.length] for m in sorted(set(mods))])


def _delta_item(kup, want):
    A = nak.validate(nak.CYCLE, kup)
    got = nak.delta(A, 12)
    return _item(f"symmetric-delta-{'-'.join(map(str, kup))}",
                 got.is_finite and got.value == want,
                 expected=want, got=got.to_json())


def _fingerprint_item(preset_name, dims_want):
    table = qa.preset(preset_name)
    S = hml.simple(table, 0)
    got = hml.syzygy_dims(S, 4)
    return _item(f"syzygy-fingerprint-{preset_name}", got == list(dims_want),
                 expected=list(dims_want), got=got)


def _quaternion_periodic_item():
    table = qa.preset("quaternion8-f2")
    S = hml.simple(table, 0)
    om = S
    for _ in range(4):
        om = hml.syzygy(om)
    return _item("quaternion-omega4-selfiso", hml.modules_isomorphic(om, S),
                 got_dim=om.dim)


def _mueller_item():
    B = nak.validate(nak.CYCLE, (3, 3))
    table = qa.nakayama_to_table(B, F2)
    P0 = hml.projective(table, 0); P0.name = "P0"
    P1 = hml.projective(table, 1); P1.name = "P1"
    S0 = hml.bridged_module(table, 0, 1); S0.name = "S0"
    end = hml.endomorphism_algebra([P0, P1, S0])
    dd = hml.domdim(end, CUTOFF)
    phi_comb = nak.phi(B, [nak.projective(B, 0), nak.projective(B, 1),
                           nak.simple(B, 0)], 12)
    ok = (dd.is_finite and phi_comb.is_finite
          and dd.value == 4 and phi_comb.value + 1 == 4)
    return _item("mueller-end-3-3", ok, domdim_end=dd.to_json(),
                 phi=phi_comb.to_json())


def _ideal_rigidity_item(name, presets):
    """Every J^k with 1 <= k < the Loewy length is a nonzero proper ideal."""
    details = []
    ok = True
    for preset in presets:
        table = qa.preset(preset)
        for k in range(1, qa.loewy_length(table)):
            rep = hml.check_ideal_rigidity(table, hml.radical_power(table, k))
            details.append(rep.to_json())
            ok = ok and rep.holds and rep.ext1_self > 0
    return _item(name, ok, instances=details)


def _enveloping_ext_item():
    table = qa.preset("truncated-poly(3,F3)")
    env, bimod = hml.enveloping(table)
    ext1 = hml.ext_dims(bimod, bimod, 1).dim(1)
    return _item("enveloping-ext1-nonzero", env.dim == 9 and ext1 > 0,
                 env_dim=env.dim, ext1=ext1)


def _extsym_item():
    A = nak.validate(nak.CYCLE, (2, 2))
    table = qa.preset("preproj-a2")
    mods = [hml.bridged_module(table, M.vertex, M.length)
            for M in nak.indecomposables(A)]
    table_sym = rg.is_ext1_symmetric(table, mods)
    rep = rg.verify_extsym_bound(A, 12)
    ok = (table_sym and rep.extsymmetric and rep.holds
          and rep.delta.is_finite and rep.delta.value == 2
          and rep.o_1 == 3 and rep.simples == 2)
    return _item("extsym-preproj-a2", ok, report=rep.to_json())


def suite_paper_core():
    items = [_family_item(n) for n in range(2, 9)]
    items.append(_rigid_witness_item())
    items.append(_delta_item((3,), 1))       # one simple
    items.append(_delta_item((3, 3), 3))     # two simples
    items.append(_delta_item((4, 4, 4), 5))  # three simples
    items.append(_fingerprint_item("hopf-a5-f2", (7, 9, 7, 9)))
    items.append(_fingerprint_item("dihedral8-f2", (7, 9, 15, 17)))
    items.append(_fingerprint_item("quaternion8-f2", (7, 9, 7, 1)))
    items.append(_quaternion_periodic_item())
    items.append(_mueller_item())
    items.append(_ideal_rigidity_item(
        "ideal-rigidity-truncated-poly", [f"truncated-poly({n},Q)" for n in range(3, 7)]))
    items.append(_ideal_rigidity_item(
        "ideal-rigidity-group-algebras", ["dihedral8-f2", "quaternion8-f2"]))
    items.append(_enveloping_ext_item())
    items.append(_extsym_item())
    return _result(items)


# ---------------------------------------------------------------------------
# oracle-cross: combinatorial vs linear-algebra engines
# ---------------------------------------------------------------------------

def _oracle_item(kup, fld):
    A = nak.validate(nak.CYCLE, kup)
    table = qa.nakayama_to_table(A, fld)
    mods = nak.indecomposables(A)
    bridged = {M: hml.bridged_module(table, M.vertex, M.length) for M in mods}
    mismatches = []
    for M in mods:
        for N in mods:
            ext = hml.ext_dims(bridged[M], bridged[N], ORACLE_T_MAX, include_hom=True)
            if ext.hom != nak.dim_hom(A, M, N):
                mismatches.append(["hom", M.to_json(), N.to_json(),
                                   ext.hom, nak.dim_hom(A, M, N)])
            for t in range(1, ORACLE_T_MAX + 1):
                comb = nak.dim_ext(A, t, M, N)
                if ext.dim(t) != comb:
                    mismatches.append(["ext", t, M.to_json(), N.to_json(),
                                       ext.dim(t), comb])
    dd, dd_comb = hml.domdim(table, CUTOFF), nak.domdim(A, CUTOFF)
    if dd != dd_comb:
        mismatches.append(["domdim", dd.to_json(), dd_comb.to_json()])
    selfinj, selfinj_comb = hml.is_selfinjective(table), nak.is_selfinjective(A)
    if selfinj != selfinj_comb:
        mismatches.append(["selfinjective", selfinj, selfinj_comb])
    name = f"oracle-{'-'.join(map(str, kup))}-{fld.describe()}"
    return _item(name, not mismatches, pairs=len(mods) ** 2,
                 mismatches=mismatches, domdim=dd_comb.to_json(),
                 selfinjective=selfinj_comb)


def suite_oracle_cross():
    return _result([_oracle_item(kup, fld)
                    for kup in cyclic_series(1, ORACLE_N_MAX, ORACLE_C_MAX)
                    for fld in (F2, F3)])


# ---------------------------------------------------------------------------
# rigidity-sweep: the closed 1-rigidity criterion and the o_1 bound
# ---------------------------------------------------------------------------

def _rigidity_chunk_item(series_chunk, tag):
    bad = []
    for kup in series_chunk:
        A = nak.validate(nak.CYCLE, kup)
        crit = set(nak.one_rigid_indecomposables(A))
        brute = {M for M in nak.indecomposables(A)
                 if nak.dim_ext(A, 1, M, M) == 0}
        if crit != brute:
            bad.append(["criterion", list(kup)])
            continue
        rep = rg.o_k(A, 1)
        n = A.n
        if not (n <= rep.o_k <= n * (n - 1) + n * n):
            bad.append(["o1-bound", list(kup), rep.o_k])
    return _item(f"rigidity-sweep-{tag}", not bad,
                 algebras=len(series_chunk), violations=bad)


def _brute_o1_22_item():
    A = nak.validate(nak.CYCLE, (2, 2))
    mods = nak.indecomposables(A)
    best = 0
    for bits in range(1, 2 ** len(mods)):
        sub = [m for i, m in enumerate(mods) if bits >> i & 1]
        if rg.is_k_rigid(A, sub, 1):
            best = max(best, len(set(sub)))
    rep = rg.o_k(A, 1)
    return _item("o1-2-2-exhaustive", best == 3 and rep.o_k == 3,
                 brute=best, clique=rep.o_k)


def suite_rigidity_sweep():
    series = list(cyclic_series(2, SWEEP_N_MAX, SWEEP_C_MAX))
    size = 128
    items = [_rigidity_chunk_item(series[i:i + size], f"{i:05d}")
             for i in range(0, len(series), size)]
    items.append(_brute_o1_22_item())
    return _result(items)


# ---------------------------------------------------------------------------
# main-inequality: confirmed gendo-symmetric instances, k in {1, 2}
# ---------------------------------------------------------------------------

MAIN_INEQUALITY_CORPUS = (
    (2, 3),
    (2, 3, 3),
    (3, 3, 4),
    (3, 4, 4),
    (4, 4, 4, 5),
    (4, 5, 5, 5),
    (5, 6, 6, 6, 6),
    (6, 7, 7, 7, 7, 7),
)


def _confirmed_item(kup):
    A = nak.validate(nak.CYCLE, kup)
    name = f"main-ineq-{'-'.join(map(str, kup))}"
    table = qa.nakayama_to_table(A, F2)
    if not hml.is_gendo_symmetric(table, CUTOFF):
        return _item(name + "-skipped", True, gendo=False,
                     note="not gendo-symmetric; outside the theorem's hypothesis")
    reports = []
    ok = True
    for k in (1, 2):
        rep = rg.verify_main_inequality(A, k, CUTOFF, gendo="assert")
        rep.gendo_provenance = "bimodule-test"
        reports.append(rep.to_json())
        ok = ok and rep.verdict
    return _item(name, ok, reports=reports)


def suite_main_inequality():
    return _result([_confirmed_item(kup) for kup in MAIN_INEQUALITY_CORPUS])


def suite_all():
    items = []
    for fn in (suite_paper_core, suite_oracle_cross, suite_rigidity_sweep,
               suite_main_inequality):
        items.extend(fn()[0])
    return _result(items)


SUITES = {
    "paper-core": suite_paper_core,
    "oracle-cross": suite_oracle_cross,
    "rigidity-sweep": suite_rigidity_sweep,
    "main-inequality": suite_main_inequality,
    "all": suite_all,
}
