"""Compare the raster labels of two source trees on the kernel's identity sweeps.

Usage (from the repository root):

    python tests/label_sweep.py OLD_SRC NEW_SRC [--sets 720,3200,180,288]

OLD_SRC and NEW_SRC are directories that hold a ``polyvor`` package (a
checkout's ``src``).  Each tree runs every case in a child process of its
own, through the public API (``random_metric``, ``sample_curve``,
``raster_voronoi``), and reports one sha256 of the labels and one of the
sample arrays per case.  The script prints each case whose labels or
samples differ, then a count per set, and exits 1 when any case differs.
It is not collected by pytest (no ``test_`` prefix): a run takes minutes.

The case sets, each a product of metrics x resolution^2/samples x curves x
tie tolerances (the tolerance is 1e-9 where none is listed):

* 720: random_metric(3, 0..39) x {128^2/201, 100^2/101, 37^2/51} x
  {HW, circle 0.7} x {0, 1e-9, 1e-3};
* 3200: random_metric(3, 0..39) x {128^2/201, 100^2/101, 37^2/51,
  16^2/1001, 33^2/7} x {HW, circle 0.2, 0.7, 5} x {0, 1e-9, 1e-3, 0.05};
* 180: random_metric(3, 0..14) x {16^2, 40^2} x {2001, 4001} samples x
  {HW, circle 0.7, circle 5}, where a tile keeps nearly every sample and a
  block is one pixel row;
* 288: random_metric(3, 0..23) x {37^2, 128^2, 512^2}/1001 x
  {HW, circle 0.2} x {0, 1e-9}.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys

CURVES = {"hw": None, "circle0.2": 0.2, "circle0.7": 0.7, "circle5": 5.0}


def case_sets():
    """{name: [(seed, res, count, curve, tol), ...]} of the four sweeps."""
    sizes3 = [(128, 201), (100, 101), (37, 51)]
    sets = {
        "720": itertools.product(range(40), sizes3, ["hw", "circle0.7"], [0.0, 1e-9, 1e-3]),
        "3200": itertools.product(range(40), sizes3 + [(16, 1001), (33, 7)], list(CURVES),
                                  [0.0, 1e-9, 1e-3, 0.05]),
        "180": itertools.product(range(15), [(r, n) for r in (16, 40) for n in (2001, 4001)],
                                 ["hw", "circle0.7", "circle5"], [1e-9]),
        "288": itertools.product(range(24), [(37, 1001), (128, 1001), (512, 1001)],
                                 ["hw", "circle0.2"], [0.0, 1e-9]),
    }
    return {name: [(seed, res, n, curve, tol) for seed, (res, n), curve, tol in cases]
            for name, cases in sets.items()}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def hashes(names):
    """Print one JSON line per case of the named sets, with the polyvor on sys.path."""
    from polyvor import circle_curve, hardy_weinberg_curve, random_metric, raster_voronoi
    from polyvor import sample_curve

    samples = {}
    for name in names:
        for seed, res, n, curve, tol in case_sets()[name]:
            key = (curve, n)
            if key not in samples:
                radius = CURVES[curve]
                chart = hardy_weinberg_curve() if radius is None else circle_curve(radius)
                try:
                    samples[key] = sample_curve(chart, n)
                except ValueError as err:
                    samples[key] = f"error: {err}"
            s = samples[key]
            if isinstance(s, str):
                row = [s, s]
            else:
                labels = raster_voronoi(s, random_metric(3, seed), res, tie_tolerance=tol).labels
                row = [_digest(labels), _digest(s.params, s.u1, s.u2)]
            print(json.dumps([name, seed, res, n, curve, tol, *row]), flush=True)


def _run(src, names):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--hashes", ",".join(names)],
                            env=env, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--sets", default="720,3200,180,288")
    parser.add_argument("--hashes", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.hashes:
        hashes(args.hashes.split(","))
        return 0
    if not (args.old_src and args.new_src):
        parser.error("give OLD_SRC and NEW_SRC")
    names = args.sets.split(",")
    unknown = set(names) - set(case_sets())
    if unknown:
        parser.error(f"unknown sets {sorted(unknown)}; known: {sorted(case_sets())}")
    # the two trees run side by side, one process each
    procs = [_run(src, names) for src in (args.old_src, args.new_src)]
    outs = [p.communicate()[0].splitlines() for p in procs]
    if any(p.returncode for p in procs):
        print("a child process failed", file=sys.stderr)
        return 2
    old, new = ([json.loads(line) for line in out] for out in outs)
    differ = {name: 0 for name in names}
    for a, b in zip(old, new):
        parts = [part for part, x, y in zip(("labels", "samples"), a[6:], b[6:]) if x != y]
        if parts:
            differ[a[0]] += 1
            print("differ", " and ".join(parts), json.dumps(a[:6]))
    for name in names:
        print(f"set {name}: {differ[name]} of {len(case_sets()[name])} cases differ")
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
