"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workloads engine-cross gendo-bimodule --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one process at a time, each
run as long as ``run_seconds`` in ``BENCHMARK.json`` (the length the
bounds hold for), and reports for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median.  With ``--out`` the
summary and every raw run are written as JSON.  The exit code is 1 when
any run failed or an end-to-end spread, ``setup_s`` included, exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    runs = []
    ok = True
    for wl in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            runs.append({"workload": wl, "seed": seed, "exit": proc.returncode,
                         "elapsed_s": elapsed, "result": result})
            print(f"# {wl} seed {seed}: exit {proc.returncode}, {elapsed:.1f} s", flush=True)

    summary = {}
    print(f"{'workload':16s} {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for wl in args.workloads:
        results = [r["result"] for r in runs if r["workload"] == wl and r["result"]]
        summary[wl] = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            if len(vals) < 2:
                continue
            s = summarize(vals)
            summary[wl][m["name"]] = s
            bound = bounds[m["name"]]
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag = "  OVER BOUND"
                ok = False
            print(f"{wl:16s} {m['name']:30s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:7.3f} {bound if bound is not None else '':>6}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                                   "platform": platform.platform()},
                       "seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds,
                       "summary": summary, "runs": runs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
