"""domdimlab benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload nakayama-sweep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run

1. draws seeded rounds of items and runs whole rounds until ``--seconds``
   have passed, timing only each item's compute step;
2. with ``--trace 0``, also times ``2 * SETUP_REPEATS`` fresh child
   processes, half before the loop and half after it, that each import
   the package, build the workload's input pools and draw its first round
   (``setup_s`` is their median), and scales every item and set-up time
   to the machine speed of ``gauge.REFERENCE_S``;
3. checks every item's results against its oracles, after the timed loop;
4. with ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
   with ``--trace 1`` it runs the same loop with every layer function
   wrapped, replays the completed items untraced to get the tracing
   overhead, writes the spans to ``.bench_out/`` and reports the
   per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every item passed its oracles.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from gauge import REFERENCE_S, Gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up is timed SETUP_REPEATS times before the loop and as often after
# it, so that its median does not rest on one moment of the machine
SETUP_REPEATS = 8
# reference samples taken before every set-up process and after the last
SETUP_SAMPLES = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate the inputs, then exit (used to time set-up)")
    return ap.parse_args(argv)


def import_workloads():
    if not os.path.isfile(os.path.join(SRC, "domdimlab", "__init__.py")):
        sys.exit(f"perfbench: no domdimlab package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    return workloads


def generate(wl, args):
    """The workload's round stream, with its first round drawn."""
    rounds = wl.make_rounds(args.workload, args.seed)
    return itertools.chain([next(rounds)], rounds)


def measure_setup(args, gauge) -> list[float]:
    """Wall times of SETUP_REPEATS fresh ``--setup-only`` processes, each
    scaled to the gauge's reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    spans = []
    for _ in range(SETUP_REPEATS):
        # the samples are taken between the processes, not while they run
        for _ in range(SETUP_SAMPLES):
            gauge.sample()
        t0 = perf_counter()
        # no timeout: Popen.wait with a timeout polls in 50 ms sleeps,
        # which would quantize the measurement
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        spans.append((t0, perf_counter()))
    for _ in range(SETUP_SAMPLES):
        gauge.sample()
    return [gauge.scaled(t0, t1) for t0, t1 in spans]


def run_rounds(rounds, compute, seconds, tracer=None, item_nid=None, gauge=None,
               after_first_round=None):
    """Closed loop over whole rounds until ``seconds`` have passed, at
    least one round.  Only ``compute`` runs in the loop; ``after_first_round``
    is called once, when the first round is done.

    With a ``gauge``, reference samples are taken all through the loop and
    every item time is scaled to the gauge's reference speed.

    Returns (records, wall, executed rounds); a record is
    (spec, seconds, result, error), with ``error`` None unless compute raised."""
    runs = []
    executed = []
    with gauge.running() if gauge is not None else contextlib.nullcontext():
        t_start = perf_counter()
        for rnd in rounds:
            if executed and perf_counter() - t_start >= seconds:
                break
            for spec in rnd:
                # the garbage cycles of earlier items go first, so that
                # peak RSS does not depend on the order of the items
                gc.collect()
                result = error = None
                sid = tracer.open(item_nid) if tracer is not None else None
                t0 = perf_counter()
                try:
                    result = compute(*spec)
                except Exception as exc:  # an item that raises counts as failed
                    traceback.print_exc(file=sys.stderr)
                    error = f"{type(exc).__name__}: {exc}"
                t1 = perf_counter()
                if sid is not None:
                    tracer.close(sid)
                runs.append((spec, t0, t1, result, error))
            executed.append(rnd)
            if len(executed) == 1 and after_first_round is not None:
                after_first_round()
        wall = perf_counter() - t_start
    seconds_of = gauge.scaled if gauge is not None else (lambda t0, t1: t1 - t0)
    records = [(spec, seconds_of(t0, t1), result, error)
               for spec, t0, t1, result, error in runs]
    return records, wall, executed


def check_records(records, check):
    """The oracle violations of every record, in order."""
    out = []
    for spec, _, result, error in records:
        if error is not None:
            out.append([error])
            continue
        try:
            out.append(check(spec, result))
        except Exception as exc:  # a check that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            out.append([f"check raised {type(exc).__name__}: {exc}"])
    return out


def percentile_ms(values, q):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return 1000.0 * cuts[q - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, peak_mb, setup_times):
    lat = [dt for _, dt, _, _ in records]
    return {
        "items_per_s": len(records) / sum(lat),
        "item_ms.p50": 1000.0 * statistics.median(lat),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup_times),
    }


# every traced function a per-layer metric reads
TRACED = (
    "nakayama.dim_ext", "nakayama.syzygy", "rigidity.compat_graph", "rigidity.o_k",
    "quivalg.verify_table", "quivalg.make_table", "quivalg.AlgebraTable.mult_elements",
    "homology.projective_cover", "homology.ext_dims", "homology.Representation.element_action",
    "homology.modules_isomorphic", "exactmath.rref_rows", "exactmath.matmul_rows",
    "exactmath.SpanBuilder.add",
)


def per_layer(tracer, records, wall, wall_untraced):
    from tracer import LAYERS

    items = len(records)
    own = tracer.self_times()
    total = tracer.total_times()
    calls = tracer.call_counts()
    ctr = tracer.counters
    for name in TRACED:
        tracer.require(name)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, layer in zip(tracer.names, tracer.name_layer):
        if layer in layer_self:
            layer_self[layer] += own[name]
    # The item spans must cover exactly the compute time the loop measured
    # with its own clock; the span tree then splits that time into self
    # times.  What no layer claims is the harness's: the item glue in
    # workloads.py and the loop between items.
    _, parent, start, end = tracer.arrays()
    top = float((end - start)[parent < 0].sum())
    timed = sum(dt for _, dt, _, _ in records)
    if abs(top - timed) > 0.01 * timed:
        raise AssertionError(f"item spans last {top:.4f} s, the loop timed {timed:.4f} s")
    layer_self["harness"] = wall - sum(layer_self.values())
    print(f"layer self times {wall - layer_self['harness']:.3f} s + harness "
          f"{layer_self['harness']:.3f} s = traced wall {wall:.3f} s; "
          f"item spans {top:.3f} s, loop-timed items {timed:.3f} s")
    adds = calls["exactmath.SpanBuilder.add"]

    def per_item(x):
        return x / items

    m = {f"{layer}.self_s": per_item(s) for layer, s in layer_self.items()}
    m.update({
        "nakayama.dim_ext.calls": per_item(calls["nakayama.dim_ext"]),
        "nakayama.syzygy.calls": per_item(calls["nakayama.syzygy"]),
        "rigidity.compat_graph.s": per_item(total["rigidity.compat_graph"]),
        "rigidity.clique.s": per_item(own["rigidity.o_k"]),
        # counters are filled by the hooks of functions install() checked
        "rigidity.graph.vertices": per_item(ctr.get("rigidity.graph.vertices", 0)),
        "rigidity.graph.edges": per_item(ctr.get("rigidity.graph.edges", 0)),
        "quivalg.verify_table.s": per_item(total["quivalg.verify_table"]),
        "quivalg.tables": per_item(calls["quivalg.make_table"]),
        "quivalg.table_d3_cells": per_item(ctr.get("quivalg.table_d3_cells", 0)),
        "quivalg.mult_elements.calls": per_item(calls["quivalg.AlgebraTable.mult_elements"]),
        "homology.cover.calls": per_item(calls["homology.projective_cover"]),
        "homology.cover.dim_sum": per_item(ctr.get("homology.cover.dim_sum", 0)),
        "homology.ext.calls": per_item(calls["homology.ext_dims"]),
        "homology.element_action.calls": per_item(calls["homology.Representation.element_action"]),
        "homology.iso.calls": per_item(calls["homology.modules_isomorphic"]),
        "exactmath.rref.calls": per_item(calls["exactmath.rref_rows"]),
        "exactmath.rref.cells": per_item(ctr.get("exactmath.rref.cells", 0)),
        "exactmath.matmul.calls": per_item(calls["exactmath.matmul_rows"]),
        "exactmath.matmul.cells": per_item(ctr.get("exactmath.matmul.cells", 0)),
        "exactmath.span.adds": per_item(adds),
        "exactmath.span.useful_ratio": ctr.get("exactmath.span.useful", 0) / adds if adds else 0.0,
        "trace.overhead": wall / wall_untraced,
        "trace.spans": per_item(len(start)),
    })
    return m


def emit(spec_metrics, values, violations):
    failed = sum(1 for bad in violations if bad)
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    out = {
        "correct": failed == 0,
        "attempted": len(violations),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }
    print(json.dumps(out))
    return failed


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_workloads()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(sorted(wl.WORKLOADS))}")
    if args.setup_only:
        generate(wl, args)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _, compute, check = wl.WORKLOADS[args.workload]

    if not args.trace:
        gauge = Gauge()
        setup_times = measure_setup(args, gauge)
        rounds = generate(wl, args)
        # Peak RSS is read when the first round is done: every round has
        # the same composition, and the results kept for the checks grow
        # with the number of rounds, which a faster program raises.
        peak = []
        records, wall, executed = run_rounds(rounds, compute, args.seconds, gauge=gauge,
                                             after_first_round=lambda: peak.append(peak_rss_mb()))
        peak_mb = peak[0]
        setup_times += measure_setup(args, gauge)
        values = end_to_end(records, peak_mb, setup_times)
        ref = sorted(t1 - t0 for t0, t1 in zip(gauge.start, gauge.end))
        print(f"reference loop: {len(ref)} samples, quartiles {1000 * ref[len(ref) // 4]:.3f} / "
              f"{1000 * ref[len(ref) // 2]:.3f} / {1000 * ref[3 * len(ref) // 4]:.3f} ms; "
              f"times are scaled to {1000 * REFERENCE_S:.3f} ms")
        metrics = spec["end_to_end"]
    else:
        from tracer import Tracer

        rounds = generate(wl, args)
        tracer = Tracer()
        item_nid = tracer.name_id(f"harness.item:{args.workload}", "harness")
        tracer.install()
        try:
            records, wall, executed = run_rounds(rounds, compute, args.seconds, tracer, item_nid)
        finally:
            tracer.uninstall()
        _, wall_untraced, _ = run_rounds(iter(executed), compute, float("inf"))
        print(f"trace overhead: {wall:.3f} s traced / {wall_untraced:.3f} s untraced "
              f"= {wall / wall_untraced:.3f}")
        values = per_layer(tracer, records, wall, wall_untraced)
        tracer.save(os.path.join(ROOT, ".bench_out", f"trace-{args.workload}.npz"),
                    {"workload": args.workload, "seed": args.seed, "items": len(records),
                     "wall_s": wall, "untraced_wall_s": wall_untraced})
        metrics = spec["per_layer"]

    violations = check_records(records, check)
    lat = [dt for _, dt, _, _ in records]
    print(f"{args.workload}: seed {args.seed}, {len(records)} items in {len(executed)} rounds, "
          f"{wall:.3f} s timed{' (traced)' if args.trace else ''}")
    if len(lat) >= 100:
        print(f"item_ms.p90 = {percentile_ms(lat, 90):.3f} ms (n = {len(lat)})")
    else:
        print(f"item_ms.p90 not reported: {len(lat)} items < 100")
    failed = [(r[0], bad) for r, bad in zip(records, violations) if bad]
    print(f"fail_frac = {len(failed)}/{len(records)}")
    for s, bad in failed[:10]:
        print(f"FAILED {s}: {'; '.join(bad)[:500]}")
    return 1 if emit(metrics, values, violations) else 0


if __name__ == "__main__":
    sys.exit(main())
