"""polyvor benchmark: one workload, one process, a closed loop of calls.

Usage (from the repository root):

    python3 perfbench/run.py --workload raster_hw --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``raster_hw``, ``cli_check``, ``exact``.
The library is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.  It starts no
thread or process and sets no ``POLYVOR_*`` variable: each call starts
when the previous one returns.

Set-up (import, metric validation, curve sampling, first facet tables) is
repeated from a fresh import and reported as its median.  Operations then
run in rounds until the next one would end past ``--seconds`` (at least
one round).  Every output is checked against ``references.json``, and
every time is also scaled to a reference machine speed (speed.py).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` and ``wall_s``
(seconds per round, see ``round_seconds``), both at the reference speed,
and ``peak_rss_mb``; the raw seconds are among the attributes.
``--trace 1`` runs every operation twice on the same input, traced and
untraced, and reports the per-layer metrics of the traced runs normalised
per round, the whole-operation figures of the untraced ones, and
``trace.overhead_frac`` (median traced over untraced raw seconds, minus 1).
The last stdout line is the result JSON; the line before it holds the
run's attributes (backend, versions, sample counts, percentiles).  Spans
and results are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import numpy  # noqa: E402  (imported before the timed set-ups, so none pays for it)

import tracing  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed,
# at most SETUP_MAX times: cheap set-ups get enough repeats for a steady
# median, the exact pool's (about 2.5 s) only three
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 20, 1.5
MODULES = ("polyvor", "polyvor._kernels", "polyvor.metrics", "polyvor.transport",
           "polyvor.ball", "polyvor.curve", "polyvor.counting", "polyvor.voronoi",
           "polyvor.render", "polyvor.cli")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics, per round of the workload; a layer a workload does not
# reach reads 0 there
LAYER_METRICS = (
    ("kernels.classify_s", "s"), ("kernels.calls", "count"), ("kernels.inside_px", "count"),
    ("kernels.pair_evals", "count"), ("kernels.facet_evals", "count"),
    ("kernels.bytes_computed", "B"),
    ("voronoi.sample_s", "s"), ("voronoi.facet_table_s", "s"), ("voronoi.relabel_s", "s"),
    ("voronoi.pixel_counts_s", "s"), ("voronoi.certify_s", "s"),
    ("voronoi.certify_found", "count"), ("voronoi.certify_attempted", "count"),
    ("voronoi.certify_notfound_trials", "count"),
    ("render.ppm_s", "s"), ("render.ppm_bytes", "B"),
    ("cli.self_s", "s"), ("cli.json_bytes", "B"),
    ("transport.solve_s.k6", "s"), ("transport.solves.k6", "count"),
    ("transport.solve_s.k20", "s"), ("transport.solves.k20", "count"),
    ("transport.solve_s.k40", "s"), ("transport.solves.k40", "count"),
    ("ball.build_s", "s"), ("curve.tangency_s", "s"), ("counting.census_s", "s"),
    ("counting.censuses", "count"), ("counting.repeated_params", "count"),
    ("metrics.random_metric_s", "s"), ("metrics.validate_s", "s"),
)
# layers of one traced set-up
SETUP_METRICS = (
    ("setup.import_s", "s"), ("setup.validate_s", "s"), ("setup.random_metric_s", "s"),
    ("setup.sample_s", "s"), ("setup.facet_table_s", "s"),
)
# whole-operation figures, from the untraced operations
OP_METRICS = (
    ("raster_s_p50", "s"), ("raster_mpix_per_s", "Mpix/s"), ("check_s", "s"),
    ("transport_k6_ms", "ms"), ("transport_k20_ms", "ms"), ("transport_k40_ms", "ms"),
    ("certify_ms_p50", "ms"), ("ops_failed_frac", "1"),
)
PER_LAYER = LAYER_METRICS + SETUP_METRICS + OP_METRICS + (("trace.overhead_frac", "1"),)


def import_polyvor():
    """Import polyvor afresh from ``src/`` and return its modules by name."""
    for name in [n for n in sys.modules if n == "polyvor" or n.startswith("polyvor.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in MODULES}
    where = os.path.dirname(os.path.abspath(mods["polyvor"].__file__))
    if where != os.path.join(SRC, "polyvor"):
        raise SystemExit(f"imported polyvor from {where}, not from {SRC}")
    return mods


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def timing_summary(values):
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    out = {"n": len(values)}
    if not values:
        return out
    out["p50"] = statistics.median(values)
    out["mean"] = statistics.fmean(values)
    for q in (99.9, 99, 95, 90, 75):
        if len(values) - math.ceil(q / 100 * len(values)) >= 10:
            out[f"p{q:g}"] = percentile(values, q)
            break
    return out


def environment(mods):
    kernels = mods["polyvor._kernels"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "backend": kernels.backend_name(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "polyvor_env": {k: v for k, v in os.environ.items() if k.startswith("POLYVOR_")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "loop": "closed, 1 caller, no threads",
    }


def execute(wl, kind, inst, op, r, tracer):
    """Run one operation, traced when ``tracer`` is given; returns its record."""
    first = len(tracer.spans) if tracer else 0
    try:
        if tracer:
            with tracer.installed(wl.mods):
                res = op()
        else:
            res = op()
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc()
        res = None
    rec = {"kind": kind, "inst": inst, "round": r, "traced": tracer is not None}
    if res is None:
        rec.update(seconds=None, ok=False, extra={}, why=f"{kind}: raised")
    else:
        rec.update(seconds=res.seconds, ok=res.ok, extra=res.extra, why=res.why)
    if tracer:
        tracer.resolve(first)
        rec["layers"] = tracing.layer_totals(tracer.spans[first:], first)
        rec["layers"].update(rec["extra"].get("layers", {}))
    return rec


def run_ops(wl, seconds, tracer, speed):
    """Run rounds of operations until the next would end past ``seconds``
    (at least one round); returns one record per execution, its seconds
    also scaled to the reference speed (``scaled``).

    When tracing, every operation runs twice on the same input, traced and
    untraced, alternating which goes first, so the two halves compare.
    """
    def schedule():
        r = 0
        while True:
            for kind, inst, op in wl.ops(r):
                yield r, kind, inst, op
            r += 1

    records = []
    last = {}
    start = perf_counter()
    for n, (r, kind, inst, op) in enumerate(schedule()):
        if r >= 1 and perf_counter() - start + last.get(kind, 0.0) > seconds:
            break
        speed.tick()
        t0 = perf_counter()
        passes = (None,) if tracer is None else ((tracer, None) if n % 2 == 0 else (None, tracer))
        for tr in passes:
            a = perf_counter()
            rec = execute(wl, kind, inst, op, r, tr)
            rec["span"] = (a, perf_counter())
            rec["n"] = n
            records.append(rec)
        last[kind] = perf_counter() - t0
    speed.tick(force=True)
    for rec in records:
        if rec["seconds"] is not None:
            rec["scaled"] = speed.scale(rec["seconds"], *rec.pop("span"))
    return records


def per_round(wl, records, value):
    """Sum over kinds of the kind's mean value per operation times its count
    per round, or None when some kind has no record."""
    total = 0.0
    for kind, count in wl.round:
        vals = [value(rec) for rec in records if rec["kind"] == kind]
        if not vals:
            return None
        total += statistics.fmean(vals) * count
    return total


def round_seconds(wl, records, key="scaled"):
    """Seconds per round: each input's median time, averaged over the
    inputs of a kind, weighted by the kind's count per round and summed.

    A kind's inputs differ in cost (the k=40 solves alone span 1.1-3.2 s),
    so a kind's cost is the mean over the inputs met, each input counted
    once however often it ran.
    """
    times = {}
    for rec in records:
        if rec.get(key) is not None:
            times.setdefault((rec["kind"], rec["inst"]), []).append(rec[key])
    total = 0.0
    for kind, count in wl.round:
        vals = [statistics.median(t) for (k, _), t in times.items() if k == kind]
        if not vals:
            return None
        total += statistics.fmean(vals) * count
    return total


def trace_overhead(records):
    """Median over operations of traced / untraced raw seconds, minus 1.

    The two executions of one operation run back to back, so they see one
    machine speed; scaled seconds would not do here, because the probe
    bursts bracket the pair, not each of its halves.
    """
    pairs = {}
    for rec in records:
        if rec["seconds"] is not None:
            pairs.setdefault(rec["n"], {})[rec["traced"]] = rec["seconds"]
    ratios = [p[True] / p[False] for p in pairs.values() if len(p) == 2]
    return statistics.median(ratios) - 1.0


def op_metrics(records):
    """Whole-operation figures from untraced operations."""
    plain = [r for r in records if not r["traced"] and r["ok"] and r["seconds"] is not None]

    def times(kinds, key=None):
        out = []
        for r in plain:
            if r["kind"] in kinds:
                v = r["seconds"] if key is None else r["extra"][key]
                out.extend(v if isinstance(v, list) else [v])
        return out

    raster = times(("d1", "d2", "d3"), "raster_s")
    inside = [r["extra"]["inside_px"] for r in plain if "inside_px" in r["extra"]]
    out = {
        "raster_s_p50": timing_summary(raster),
        "check_s": timing_summary(times(("check",))),
        "transport_k6_ms": timing_summary([t * 1e3 for t in times(("k6",))]),
        "transport_k20_ms": timing_summary([t * 1e3 for t in times(("k20",))]),
        "transport_k40_ms": timing_summary([t * 1e3 for t in times(("k40",))]),
        "certify_ms_p50": timing_summary([t * 1e3 for t in times(("hw3",), "certify_s")]),
    }
    values = {k: v.get("p50", 0.0) for k, v in out.items()}
    values["raster_mpix_per_s"] = (statistics.median(inside) / values["raster_s_p50"] / 1e6
                                   if raster else 0.0)
    failed = sum(1 for r in records if not r["ok"])
    values["ops_failed_frac"] = failed / len(records)
    return values, out


def traced_setup(wl, tracer):
    t0 = perf_counter()
    mods = import_polyvor()
    import_s = perf_counter() - t0
    first = len(tracer.spans)
    with tracer.installed(mods):
        wl.setup(mods)
    tracer.resolve(first)
    layers = tracing.layer_totals(tracer.spans[first:], first)
    out = {"setup.import_s": import_s}
    for key in ("validate_s", "random_metric_s"):
        out[f"setup.{key}"] = layers.get(f"metrics.{key}", 0.0)
    for key in ("sample_s", "facet_table_s"):
        out[f"setup.{key}"] = layers.get(f"voronoi.{key}", 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="input seed (affects exact only)")
    ap.add_argument("--seconds", type=float, default=40.0, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polyvor", "__init__.py")):
        print(f"polyvor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    os.makedirs(OUTDIR, exist_ok=True)

    wl = WORKLOADS[args.workload](refs[args.workload], args.seed, OUTDIR)
    tracer = tracing.Tracer() if args.trace else None
    # set-up is interpreter work on every workload (imports, Fraction
    # validation, the sampling loop), which the Fraction probe tracks: over
    # 80 raster_hw set-ups its spread was 8.5 %, the kernel probe's 15 %
    # and that of raw seconds 29 %
    setup_speed = Speed("fraction")
    setups = []     # (seconds, start, end)
    while len(setups) < SETUP_MAX and (
            len(setups) < SETUP_MIN or sum(s for s, _, _ in setups) < SETUP_SECONDS):
        setup_speed.tick(force=True)
        t0 = perf_counter()
        wl.setup(import_polyvor())
        t1 = perf_counter()
        setups.append((t1 - t0, t0, t1))
    setup_speed.tick(force=True)
    setup_scaled = [setup_speed.scale(*s) for s in setups]
    setup_layers = traced_setup(wl, tracer) if tracer else {}

    speed = Speed(wl.probe)
    try:
        records = run_ops(wl, args.seconds, tracer, speed)
    finally:
        wl.cleanup()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [r for r in records if not r["ok"]]
    plain = [r for r in records if not r["traced"]]
    wall = round_seconds(wl, plain)
    op_values, op_summary = op_metrics(records)

    if tracer:
        traced = [r for r in records if r["traced"]]
        values = {name: per_round(wl, traced, lambda r, n=name: r["layers"].get(n, 0)) or 0.0
                  for name, _ in LAYER_METRICS}
        values.update(setup_layers)
        values.update(op_values)
        values["trace.overhead_frac"] = trace_overhead(records)
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setup_scaled), "wall_s": wall,
                  "peak_rss_mb": rss_mb}
        units = END_TO_END

    attributes = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(wl.mods),
        "rounds": max(r["round"] for r in records) + 1,
        "ops": {kind: timing_summary([r["seconds"] for r in plain
                                      if r["kind"] == kind and r["seconds"] is not None])
                for kind, _ in wl.round},
        "setup_s": [s for s, _, _ in setups],
        "setup_s_scaled": setup_scaled,
        "wall_s_raw": round_seconds(wl, plain, "seconds"),
        "speed": speed.summary(),
        "setup_speed": setup_speed.summary(),
        "op_metrics": op_summary,
        "repeated_param_censuses": sum(r["extra"].get("repeated_params", 0) for r in records),
        "failures": [r["why"] for r in failed][:20],
        "untraced_entry_points": sorted(tracer.missing) if tracer else [],
    }
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    stem = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(OUTDIR, f"result_{stem}.json"), "w") as fh:
        json.dump({"attributes": attributes, "result": result,
                   "records": [[r["kind"], r["inst"], r["traced"], r["seconds"], r.get("scaled")]
                               for r in records]}, fh, indent=1)
    if tracer:
        with open(os.path.join(OUTDIR, f"spans_{stem}.json"), "w") as fh:
            json.dump(tracer.spans, fh)

    for name, unit in units:
        print(f"{name:34s} {values[name]:.6g} {unit}")
    print(json.dumps({"attributes": attributes}))
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
