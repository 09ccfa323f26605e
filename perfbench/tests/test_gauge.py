"""The speed gauge takes its samples out of an item and scales by them."""

import signal
from time import perf_counter

from pytest import approx

import gauge as gg


def _gauge(samples):
    g = gg.Gauge()
    for start, seconds in samples:
        g.start.append(start)
        g.end.append(start + seconds)
    return g


def test_short_item_is_scaled_by_its_nearest_samples():
    fast, slow = gg.REFERENCE_S, 2 * gg.REFERENCE_S
    n = gg.NEIGHBOURS
    g = _gauge([(float(i), fast) for i in range(3 * n)]
               + [(float(i), slow) for i in range(3 * n, 6 * n)])
    assert g.scaled(n + 0.1, n + 0.5) == approx(0.4)
    assert g.scaled(5 * n + 0.1, 5 * n + 0.5) == approx(0.2)
    # at the boundary, the side that holds most of its neighbours wins
    assert g.scaled(3 * n - 1.4, 3 * n - 1.0) == approx(0.4)


def test_long_item_loses_the_samples_it_holds_and_is_scaled_by_them():
    slow = 2 * gg.REFERENCE_S
    n = gg.NEIGHBOURS
    # fast samples all around, slow ones inside the item
    g = _gauge([(float(i), gg.REFERENCE_S) for i in range(10)]
               + [(10.0 + i, slow) for i in range(n)]
               + [(10.0 + n + i, gg.REFERENCE_S) for i in range(10)])
    t0, t1 = 9.9, 10.0 + n - 0.5
    assert g.scaled(t0, t1) == approx((t1 - t0 - n * slow) / 2)


def test_running_samples_every_period_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    g = gg.Gauge()
    with g.running():
        t0 = perf_counter()
        while perf_counter() - t0 < 10 * gg.PERIOD_S:
            pass
    assert 5 <= len(g.start) <= 11
    assert g.start == sorted(g.start)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
