"""The benchmark's three workloads, each a fixed round of operations.

* ``raster_hw`` -- library API on the open Hardy-Weinberg curve: a 512^2
  raster of 1001 samples for each worked metric d1, d2, d3, then
  ``pixel_counts``/``full_dim_labels`` and a PPM file.  Chosen because the
  raster kernel (``_kernels.classify_grid``) does nearly all of the work.
* ``cli_check`` -- ``polyvor.cli.main(["check"])`` in-process.  The same
  kernel on the closed circle (seam-merged samples, in every direction),
  plus the CLI layer and the exact 300-metric census loop.
* ``exact`` -- raster-free: exact network-simplex transport at k = 6, 20
  and 40, then ball, census and dimension certificates on 3-state metrics.
  The kernel does no work here, so kernel changes must leave it alone,
  and simplex changes must leave the other two alone.

``ops(r)`` lists round r as ``(kind, instance, call)``; the instance names
the input, so repeated timings of one input can be told apart.  A call
returns ``Result(seconds, ok, extra)``: ``seconds`` covers the library
calls only, ``extra["layers"]`` adds per-layer numbers only the workload
sees, and every output is checked against
``references.json`` after the clock stops.  Library functions are looked
up through their modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np

RESOLUTION = 512
SAMPLES = 1001
RASTER_METRICS = {
    "d1": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "d2": [[0, 2, 3], [2, 0, 4], [3, 4, 0]],
    "d3": [[0, 2, 1], [2, 0, 2], [1, 2, 0]],
}
# the metrics cli ``check`` validates; it rasters d1 and the line metric
CHECK_METRICS = {
    "d1": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "line": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    "d2": [[0, 2, 3], [2, 0, 4], [3, 4, 0]],
    "d3": [[0, 2, 1], [2, 0, 2], [1, 2, 0]],
}
CHECK_RASTERED = ("d1", "line")

# exact-track pools.  A run walks a seed-shuffled permutation of each pool,
# cycling, so a 40 s run meets every instance two or three times and its
# figures do not hinge on which few instances a seed happens to draw.
TRANSPORT_POOL = {6: 80, 20: 12, 40: 4}
HW3_POOL = 40           # random_metric(3, s) for s < 40, tight triangles included
BALL_CENTER = (Fraction(1, 3),) * 3
BALL_RADIUS = Fraction(1, 3)


def transport_instance(k: int, i: int):
    """Pool instance i at k states: metric seed and two rational endpoints."""
    rng = random.Random(f"transport-{k}-{i}")

    def point():
        w = [rng.randint(0, 20) for _ in range(k)]
        w[rng.randrange(k)] += 1          # never all zero
        total = sum(w)
        return tuple(Fraction(x, total) for x in w)

    return 1000 * k + i, point(), point()


def nearest_sample_point(sample, p):
    """Index and coordinates of the sample whose parameter is nearest p."""
    idx = int(np.argmin(np.abs(sample.params - float(p))))
    return idx, tuple(float(x) for x in sample.points[idx])


def certificate_record(idx, cert) -> dict:
    """A certificate outcome as stored in the references."""
    if cert:
        return {"sample_index": idx, "found": True, "epsilon": str(cert.epsilon)}
    return {"sample_index": idx, "found": False, "trials": cert.trials}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Result:
    seconds: float
    ok: bool
    extra: dict = field(default_factory=dict)
    why: str = ""


class Workload:
    """One workload: ``setup`` builds the inputs, ``ops(r)`` lists round r.

    ``round`` is the fixed content of one round as (kind, count) pairs;
    ``probe`` names the speed probe that stresses the machine as the
    workload does (see speed.py).
    """

    name = ""
    round: tuple = ()
    probe = "kernel"

    def __init__(self, refs: dict, seed: int, outdir: str):
        self.refs = refs
        self.seed = seed
        self.outdir = outdir
        self.mods = None

    def setup(self, mods: dict):
        raise NotImplementedError

    def ops(self, r: int):
        raise NotImplementedError

    def cleanup(self):
        pass


class RasterHW(Workload):
    name = "raster_hw"
    round = (("d1", 1), ("d2", 1), ("d3", 1))
    resolution = RESOLUTION

    def setup(self, mods):
        self.mods = mods
        metrics, vor = mods["polyvor.metrics"], mods["polyvor.voronoi"]
        curve = mods["polyvor.curve"]
        self.metrics = {k: metrics.validate_metric(m) for k, m in RASTER_METRICS.items()}
        self.sample = vor.sample_curve(curve.hardy_weinberg_curve(), SAMPLES)
        for d in self.metrics.values():
            vor._facet_data(d)
        self.ppm_path = os.path.join(self.outdir, f"raster-{os.getpid()}.ppm")

    def ops(self, r):
        return [(name, name, lambda name=name: self._raster(name)) for name, _ in self.round]

    def _raster(self, name):
        vor, render = self.mods["polyvor.voronoi"], self.mods["polyvor.render"]
        t0 = perf_counter()
        raster = vor.raster_voronoi(self.sample, self.metrics[name], self.resolution)
        t1 = perf_counter()
        counts = raster.pixel_counts()
        full = raster.full_dim_labels()
        render.raster_ppm(raster, self.ppm_path)
        t2 = perf_counter()
        ref = self.refs["metrics"][name]
        labels = hashlib.sha256(raster.labels.tobytes()).hexdigest()
        inside = int((raster.labels != -1).sum())
        checks = {
            "labels_sha256": labels == ref["labels_sha256"],
            "full_dim_labels": full == ref["full_dim_labels"],
            "counted_px": sum(counts.values()) == ref["counted_px"],
            "ppm_sha256": sha256_file(self.ppm_path) == ref["ppm_sha256"],
        }
        bad = [k for k, v in checks.items() if not v]
        return Result(t2 - t0, not bad, {"raster_s": t1 - t0, "inside_px": inside},
                      f"{name}: {', '.join(bad)} differ" if bad else "")

    def cleanup(self):
        if self.mods is not None and os.path.exists(self.ppm_path):
            os.remove(self.ppm_path)


class CliCheck(Workload):
    name = "cli_check"
    round = (("check", 1),)

    def setup(self, mods):
        self.mods = mods
        metrics, vor = mods["polyvor.metrics"], mods["polyvor.voronoi"]
        curve = mods["polyvor.curve"]
        checked = {k: metrics.validate_metric(m) for k, m in CHECK_METRICS.items()}
        vor.sample_curve(curve.circle_curve(), SAMPLES)
        for k in CHECK_RASTERED:
            vor._facet_data(checked[k])

    def ops(self, r):
        return [("check", "check", self._check)]

    def _check(self):
        cli = self.mods["polyvor.cli"]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check"])
        t1 = perf_counter()
        text = out.getvalue()
        try:
            parsed = json.loads(text)
        except json.JSONDecodeError:
            parsed = None
        ok = code == 0 and parsed == self.refs["output"]
        return Result(t1 - t0, ok, {"layers": {"cli.json_bytes": len(text.encode())}},
                      "" if ok else f"exit {code}, output differs from reference")


class Exact(Workload):
    name = "exact"
    round = (("k40", 1), ("k20", 3), ("k6", 20), ("hw3", 10))
    probe = "fraction"

    def setup(self, mods):
        self.mods = mods
        metrics, vor = mods["polyvor.metrics"], mods["polyvor.voronoi"]
        curve = mods["polyvor.curve"]
        tr = mods["polyvor.transport"]
        self.transport = {}
        for k, refs in self.refs["transport"].items():
            insts = []
            for ref in refs:
                d = metrics.random_metric(int(k), ref["metric_seed"])
                mu = tr.as_affine_point(tuple(Fraction(x) for x in ref["mu"]))
                nu = tr.as_affine_point(tuple(Fraction(x) for x in ref["nu"]))
                insts.append((d, mu, nu, Fraction(ref["cost"])))
            self.transport[int(k)] = insts
        self.sample = vor.sample_curve(curve.hardy_weinberg_curve(), SAMPLES)
        self.hw3 = []
        for ref in self.refs["hw3"]:
            d = metrics.random_metric(3, ref["metric_seed"])
            vor._facet_data(d)
            self.hw3.append((d, ref))
        sizes = {f"k{k}": len(v) for k, v in self.transport.items()}
        sizes["hw3"] = len(self.hw3)
        rng = random.Random(self.seed)
        self.order = {kind: rng.sample(range(n), n) for kind, n in sorted(sizes.items())}

    def ops(self, r):
        out = []
        for kind, count in self.round:
            order = self.order[kind]
            for j in range(count):
                i = order[(r * count + j) % len(order)]
                if kind == "hw3":
                    out.append((kind, i, lambda i=i: self._hw3(i)))
                else:
                    out.append((kind, i, lambda k=int(kind[1:]), i=i: self._solve(k, i)))
        return out

    def _solve(self, k, i):
        tr = self.mods["polyvor.transport"]
        d, mu, nu, want = self.transport[k][i]
        t0 = perf_counter()
        cost, plan = tr.wasserstein_distance(mu, nu, d)
        t1 = perf_counter()
        ok = cost == want and plan.cost(d) == cost
        return Result(t1 - t0, ok, {}, "" if ok else f"k={k} instance {i}: cost {cost} != {want}")

    def _hw3(self, i):
        ball_m, counting, vor = (self.mods["polyvor.ball"], self.mods["polyvor.counting"],
                                 self.mods["polyvor.voronoi"])
        d, ref = self.hw3[i]
        sample = self.sample
        certify_s = []
        certs = []      # (sample index, certificate)
        t0 = perf_counter()
        ball = ball_m.build_ball(BALL_CENTER, BALL_RADIUS, d)
        census = counting.count_full_dim_cells_hw(d)
        for p in census.parameters:
            idx, point = nearest_sample_point(sample, p)
            c0 = perf_counter()
            certs.append((idx, vor.dimension_certificate(point, sample, d)))
            certify_s.append(perf_counter() - c0)
        t1 = perf_counter()
        params = [str(p) for p in census.parameters]
        got_certs = [certificate_record(idx, c) for idx, c in certs]
        checks = {
            "vertex_count": ball.vertex_count == ref["vertex_count"],
            "census": census.count == ref["census_count"] and params == ref["parameters"],
            "certificates": got_certs == ref["certificates"],
        }
        bad = [k for k, v in checks.items() if not v]
        extra = {"certify_s": certify_s,
                 "repeated_params": int(len(set(params)) != len(params))}
        return Result(t1 - t0, not bad, extra,
                      f"metric seed {ref['metric_seed']}: {', '.join(bad)} differ" if bad else "")


WORKLOADS = {w.name: w for w in (RasterHW, CliCheck, Exact)}
