"""The seeded inputs: reproducible, valid, and stratified as documented."""

import itertools
import random

import pytest

import workloads as wl
from domdimlab import nakayama as nak
from domdimlab import homology as hml
from domdimlab import quivalg as qa
from domdimlab.exactmath import F2


def first_rounds(workload, seed, count):
    return list(itertools.islice(wl.make_rounds(workload, seed), count))


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = first_rounds(workload, 7, 3)
    assert first == first_rounds(workload, 7, 3)
    assert len(first) == 3 and all(first)


def test_seeds_differ():
    assert first_rounds("nakayama-sweep", 1, 4) != first_rounds("nakayama-sweep", 2, 4)


def test_nakayama_sweep_rounds_are_valid_and_stratified():
    for rnd in first_rounds("nakayama-sweep", 3, 50):
        assert [len(kup) for (kup,) in rnd] == list(wl.SWEEP_N)
        for (kup,) in rnd:
            nak.validate(nak.CYCLE, kup)
            assert max(kup) <= wl.SWEEP_C_MAX
            if len(kup) in wl.SWEEP_TOTALS:
                assert sum(kup) == wl.SWEEP_TOTALS[len(kup)]


@pytest.mark.parametrize("n,total", [(2, 9), (3, 10), (4, 14), (4, 23)])
def test_fixed_sum_sampler_reaches_every_series_and_nothing_else(n, total):
    from itertools import product

    brute = {c for c in product(range(2, 7), repeat=n)
             if sum(c) == total and all(c[(i + 1) % n] >= c[i] - 1 for i in range(n))}
    rng = random.Random(1)
    assert {wl.sample_cycle(rng, n, 6, total=total) for _ in range(3000)} == brute


def test_engine_cross_rounds_are_valid_and_stratified():
    expected = [(nak.CYCLE, n, d, f) for n, dims in wl.CROSS_DIMS.items()
                for d in dims for f in wl.FIELDS]
    expected += [(nak.LINE, n, None, f) for n in wl.CROSS_LINE_N for f in wl.FIELDS]
    for rnd in first_rounds("engine-cross", 3, 40):
        got = [(o, len(k), sum(k) if o == nak.CYCLE else None, f) for o, k, f in rnd]
        assert got == expected
        for orientation, kup, _ in rnd:
            nak.validate(orientation, kup)
            assert max(kup) <= wl.CROSS_C_MAX


def test_gendo_rounds_hold_the_corpus_and_every_rotation_of_the_pool():
    pool = wl.gendo_pool()
    classes = wl.rotation_classes(pool)
    assert len(classes) > 6
    assert sum(len(cls) for cls in classes) == len(pool)
    for cls in classes:
        c = cls[0]
        assert sorted(set(c[i:] + c[:i] for i in range(len(c)))) == cls
    expected = sorted(wl.MAIN_INEQUALITY_CORPUS + tuple(pool))
    orders = set()
    for rnd in first_rounds("gendo-bimodule", 3, 5):
        kups = [kup for (kup,) in rnd]
        assert sorted(kups) == expected
        orders.add(tuple(kups))
    assert len(orders) > 1
    for kup in pool:
        A = nak.validate(nak.CYCLE, kup)
        assert not nak.is_selfinjective(A) and len(kup) <= wl.GENDO_N_MAX
        assert wl.tensor_dim(A) <= wl.GENDO_TENSOR_CAP


def test_cyclic_pool_is_every_valid_series():
    from itertools import product

    for n in (1, 2, 3):
        brute = [c for c in product(range(2, 6), repeat=n)
                 if all(c[(i + 1) % n] >= c[i] - 1 for i in range(n))]
        assert sorted(wl.cyclic_pool(n, 5)) == brute


@pytest.mark.parametrize("kup", [(2, 3), (3, 2, 2), (4, 3, 4)])
def test_tensor_dim_matches_the_corner_algebra(kup):
    A = nak.validate(nak.CYCLE, kup)
    table = qa.nakayama_to_table(A, F2)
    pi = sorted(hml.projective_injective_vertices(table))
    corner, _ = qa.corner_algebra(table, [table.idempotents[i][0] for i in pi])
    assert wl.tensor_dim(A) == corner.dim * table.dim


def test_deep_resolution_inputs_are_fixed():
    for rnd in first_rounds("deep-resolution", 5, 4):
        assert sorted(rnd) == sorted(wl.DEEP_ITEMS)
