"""Regenerate ``references.json``, the expected outputs the benchmark checks.

Usage (from the repository root):

    python3 perfbench/make_refs.py

Run it only when a change is meant to alter results; a faster run that
changes labels is a regression, not a new reference.  Every transport cost
is stored as an exact ``p/q`` string and cross-checked once here against
scipy's HiGHS ``linprog`` to 1e-9; the plan must reproduce the cost.  The
raster label hashes must keep the prefixes of the brute-force kernel's
labels recorded below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import workloads as W  # noqa: E402
from polyvor import cli, counting, curve, metrics, render, transport, voronoi  # noqa: E402
from polyvor.ball import build_ball  # noqa: E402

# sha256 prefixes of the labels of the brute-force numpy kernel, HW curve,
# 512^2 pixels, 1001 samples
LABEL_PREFIXES = {"d1": "8a2b9b1d34ab", "d2": "e77bfe454f01", "d3": "be7c62431a00"}
HIGHS_TOL = 1e-9


def raster_refs(outdir):
    sample = voronoi.sample_curve(curve.hardy_weinberg_curve(), W.SAMPLES)
    path = os.path.join(outdir, "make-refs.ppm")
    out = {}
    try:
        for name, m in W.RASTER_METRICS.items():
            raster = voronoi.raster_voronoi(sample, metrics.validate_metric(m), W.RESOLUTION)
            labels = hashlib.sha256(raster.labels.tobytes()).hexdigest()
            if not labels.startswith(LABEL_PREFIXES[name]):
                raise SystemExit(f"{name}: label hash {labels[:12]} is not the "
                                 f"brute-force kernel's {LABEL_PREFIXES[name]}")
            render.raster_ppm(raster, path)
            out[name] = {
                "labels_sha256": labels,
                "full_dim_labels": raster.full_dim_labels(),
                "counted_px": sum(raster.pixel_counts().values()),
                "ppm_sha256": W.sha256_file(path),
            }
    finally:
        if os.path.exists(path):
            os.remove(path)
    return {"metrics": out}


def check_refs():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check"])
    output = json.loads(buf.getvalue())
    if code != 0 or not output["all_pass"]:
        raise SystemExit("polyvor check does not pass")
    return {"output": output}


def highs_cost(d, mu, nu):
    k = d.n_states
    c = np.array([[float(d[i, j]) for j in range(k)] for i in range(k)]).ravel()
    a_eq = np.zeros((2 * k, k * k))
    for i in range(k):
        a_eq[i, i * k:(i + 1) * k] = 1.0
        a_eq[k + i, i::k] = 1.0
    b_eq = np.array([float(x) for x in mu] + [float(x) for x in nu])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise SystemExit(f"HiGHS failed: {res.message}")
    return float(res.fun)


def exact_refs():
    trans = {}
    for k, n in W.TRANSPORT_POOL.items():
        rows = []
        for i in range(n):
            seed, mu, nu = W.transport_instance(k, i)
            d = metrics.random_metric(k, seed)
            cost, plan = transport.wasserstein_distance(mu, nu, d)
            if plan.cost(d) != cost:
                raise SystemExit(f"k={k} instance {i}: plan does not attain its cost")
            highs = highs_cost(d, mu, nu)
            if abs(highs - float(cost)) > HIGHS_TOL:
                raise SystemExit(f"k={k} instance {i}: exact {cost} vs HiGHS {highs}")
            rows.append({"metric_seed": seed, "mu": [str(x) for x in mu],
                         "nu": [str(x) for x in nu], "cost": str(cost), "highs_cost": highs})
            print(f"k={k} instance {i}: cost {cost} (HiGHS {highs:.12g})", file=sys.stderr)
        trans[str(k)] = rows

    sample = voronoi.sample_curve(curve.hardy_weinberg_curve(), W.SAMPLES)
    hw3 = []
    for s in range(W.HW3_POOL):
        d = metrics.random_metric(3, s)
        census = counting.count_full_dim_cells_hw(d)
        certs = []
        for p in census.parameters:
            idx, point = W.nearest_sample_point(sample, p)
            certs.append(W.certificate_record(
                idx, voronoi.dimension_certificate(point, sample, d)))
        params = [str(p) for p in census.parameters]
        hw3.append({
            "metric_seed": s,
            "d": [str(d[0, 1]), str(d[0, 2]), str(d[1, 2])],
            "vertex_count": build_ball(W.BALL_CENTER, W.BALL_RADIUS, d).vertex_count,
            "census_count": census.count,
            "parameters": params,
            "distinct_parameters": len(set(params)),
            "certificates": certs,
        })
    return {"transport": trans, "hw3": hw3}


def main():
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    refs = {
        "raster_hw": raster_refs(outdir),
        "cli_check": check_refs(),
        "exact": exact_refs(),
    }
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
