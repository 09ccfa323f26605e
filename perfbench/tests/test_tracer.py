"""Tracing wraps every layer binding while installed and nothing otherwise."""

import inspect

import pytest

import run
import tracer as tr
import workloads as wl
from domdimlab import exactmath, homology, nakayama


def _snapshot():
    snap = {}
    for mod in tr._package_modules():
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = val
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    snap[(mod.__name__, attr, cattr)] = cval
    return snap


def _small_rounds():
    return [[((2, 3),), ((3, 3, 4),)]]


def test_untraced_run_leaves_every_attribute_unwrapped():
    before = _snapshot()
    records, _, executed = run.run_rounds(iter(_small_rounds()), wl.compute_nakayama_sweep, 60.0)
    assert len(executed) == 1
    assert run.check_records(records, wl.check_nakayama_sweep) == [[], []]
    assert tr.wrapped_attributes() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_install_wraps_every_binding_and_uninstall_restores():
    before = _snapshot()
    t = tr.Tracer()
    t.install()
    try:
        assert homology.matmul_rows is exactmath.matmul_rows
        assert getattr(homology.matmul_rows, tr._MARK)
        assert getattr(exactmath.SpanBuilder.add, tr._MARK)
        assert getattr(homology.Representation.element_action, tr._MARK)
        assert getattr(nakayama.dim_ext, tr._MARK)
        nid = t.name_id("harness.item", "harness")
        spec = (nakayama.CYCLE, (2, 3), "F3")
        records, wall, _ = run.run_rounds(iter([[spec]]), wl.compute_engine_cross, 60.0, t, nid)
    finally:
        t.uninstall()
    assert run.check_records(records, wl.check_engine_cross) == [[]]
    assert tr.wrapped_attributes() == []
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)

    calls = t.call_counts()
    assert calls["harness.item"] == 1
    assert calls["nakayama.dim_ext"] > 0 and calls["exactmath.matmul_rows"] > 0
    own = t.self_times()
    _, parent, start, end = t.arrays()
    assert abs(sum(own.values()) - float((end - start)[parent < 0].sum())) < 1e-9
    assert all(v >= -1e-9 for v in own.values())
    assert t.counters["exactmath.matmul.cells"] > 0



def test_every_function_a_metric_reads_is_traced():
    t = tr.Tracer()
    t.install()
    t.uninstall()
    for name in run.TRACED:
        t.require(name)
    with pytest.raises(LookupError):
        t.require("nakayama.no_such_function")
