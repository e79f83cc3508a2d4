"""Compare the raster labels and dimension certificates of two source trees.

Usage (from the repository root):

    python tests/sweep.py OLD_SRC NEW_SRC [--sets 240,800,180,144,hw1001,hw201,circle]

OLD_SRC and NEW_SRC are directories that hold a ``polyvor`` package (a
checkout's ``src``).  Each tree runs every case in a child process of its
own, through the public API, and prints one line per case with sha256
digests of what it computed.  The script prints each case whose digests
differ, then a count per set.  It exits 0 when no case differs, 1 when one
does, and 2 when a child process fails or the two trees ran different
cases.  It is not collected by pytest (no ``test_`` prefix): a run takes
minutes.

Label sets (``random_metric``, ``sample_curve``, ``raster_voronoi``; one
digest of the labels and one of the sample arrays per case), each a
product of metrics x resolution^2/samples x curves:

* 240: random_metric(3, 0..39) x {128^2/201, 100^2/101, 37^2/51} x
  {HW, circle 0.7};
* 800: random_metric(3, 0..39) x {128^2/201, 100^2/101, 37^2/51,
  16^2/1001, 33^2/7} x {HW, circle 0.2, 0.7, 5};
* 180: random_metric(3, 0..14) x {16^2, 40^2} x {2001, 4001} samples x
  {HW, circle 0.7, circle 5}, where a tile keeps nearly every sample and a
  block is one pixel row;
* 144: random_metric(3, 0..23) x {37^2, 128^2, 512^2}/1001 x
  {HW, circle 0.2}.

Certificate sets (``count_full_dim_cells_hw``, ``dimension_certificate``;
one digest per case of x, witness and epsilon of a certificate, or the
trial count of a NotFound), at sample indices k of the sample named:

* hw1001: HW at 1001 samples on random_metric(3, 0..299), at the sample
  nearest each census parameter and at k = 70, 300, 500, 930;
* hw201: HW at 201 samples on random_metric(3, 0..39), at the census
  samples and at k = 14, 60, 100, 186;
* circle: on random_metric(3, 0..19), six evenly spaced samples each of the
  circle of radius 0.2 at 1001 samples and of radius 0.7 at 301.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys

import numpy as np

CURVES = {"hw": None, "circle0.2": 0.2, "circle0.7": 0.7, "circle5": 5.0}
LABEL_SETS = ("240", "800", "180", "144")
CERT_SETS = ("hw1001", "hw201", "circle")


def label_cases():
    """{name: [(seed, res, count, curve), ...]} of the label sets."""
    sizes3 = [(128, 201), (100, 101), (37, 51)]
    sets = {
        "240": itertools.product(range(40), sizes3, ["hw", "circle0.7"]),
        "800": itertools.product(range(40), sizes3 + [(16, 1001), (33, 7)], list(CURVES)),
        "180": itertools.product(range(15), [(r, n) for r in (16, 40) for n in (2001, 4001)],
                                 ["hw", "circle0.7", "circle5"]),
        "144": itertools.product(range(24), [(37, 1001), (128, 1001), (512, 1001)],
                                 ["hw", "circle0.2"]),
    }
    return {name: [(seed, res, n, curve) for seed, (res, n), curve in cases]
            for name, cases in sets.items()}


def cert_cases(name, api):
    """Yield (seed, curve name, sample, k) of a certificate set, with ``api`` the polyvor module."""
    if name in ("hw1001", "hw201"):
        count, seeds, extra = ((1001, 300, (70, 300, 500, 930)) if name == "hw1001"
                               else (201, 40, (14, 60, 100, 186)))
        s = api.sample_curve(api.hardy_weinberg_curve(), count)
        for seed in range(seeds):
            params = api.count_full_dim_cells_hw(api.random_metric(3, seed)).parameters
            near = [int(np.argmin(np.abs(s.params - float(p)))) for p in params]
            for k in near + list(extra):
                yield seed, "hw", s, k
    else:
        circles = [(f"circle{r}", api.sample_curve(api.circle_curve(r), n))
                   for r, n in ((0.2, 1001), (0.7, 301))]
        for seed in range(20):
            for curve, s in circles:
                for i in range(6):
                    yield seed, curve, s, i * s.count // 6


def _digest(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _label_records(name, api):
    samples = {}
    for seed, res, n, curve in label_cases()[name]:
        key = (curve, n)
        if key not in samples:
            radius = CURVES[curve]
            chart = api.hardy_weinberg_curve() if radius is None else api.circle_curve(radius)
            try:
                samples[key] = api.sample_curve(chart, n)
            except ValueError as err:
                samples[key] = f"error: {err}"
        s = samples[key]
        if isinstance(s, str):
            digests = {"labels": s, "samples": s}
        else:
            labels = api.raster_voronoi(s, api.random_metric(3, seed), res).labels
            digests = {"labels": _digest(labels.tobytes()),
                       "samples": _digest(s.params.tobytes(), s.u1.tobytes(), s.u2.tobytes())}
        yield [seed, res, n, curve], digests


def _cert_records(name, api):
    for seed, curve, s, k in cert_cases(name, api):
        u1, u2 = float(s.u1[k]), float(s.u2[k])
        cert = api.dimension_certificate((u1, u2, 1.0 - u1 - u2), s, api.random_metric(3, seed))
        if cert:
            out = f"{cert.x.coords} {cert.witness_y.coords} {cert.epsilon}"
        else:
            out = f"trials {cert.trials}"
        yield [seed, curve, s.count, k], {"found": bool(cert), "certificate": _digest(out.encode())}


def records(names):
    """Print one JSON line [set, case, digests] per case of the named sets.

    The polyvor imported is the one on sys.path.
    """
    import polyvor as api

    for name in names:
        cases = _label_records(name, api) if name in LABEL_SETS else _cert_records(name, api)
        for case, digests in cases:
            print(json.dumps([name, case, digests]), flush=True)


def _run(src, names):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, os.path.abspath(__file__), "--records", ",".join(names)]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--sets", default=",".join(LABEL_SETS + CERT_SETS))
    parser.add_argument("--records", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.records:
        records(args.records.split(","))
        return 0
    if not (args.old_src and args.new_src):
        parser.error("give OLD_SRC and NEW_SRC")
    names = args.sets.split(",")
    unknown = set(names) - set(LABEL_SETS + CERT_SETS)
    if unknown:
        parser.error(f"unknown sets {sorted(unknown)}; known: {list(LABEL_SETS + CERT_SETS)}")
    # the two trees run side by side, one process each
    procs = [_run(src, names) for src in (args.old_src, args.new_src)]
    outs = [p.communicate()[0].splitlines() for p in procs]
    if any(p.returncode for p in procs):
        print("a child process failed", file=sys.stderr)
        return 2
    old, new = ([json.loads(line) for line in out] for out in outs)
    if [r[:2] for r in old] != [r[:2] for r in new]:
        print(f"the trees ran different cases ({len(old)} and {len(new)})", file=sys.stderr)
        return 2
    total = {name: 0 for name in names}
    found = {name: 0 for name in names}
    differ = {name: 0 for name in names}
    for (name, case, a), (_, _, b) in zip(old, new):
        total[name] += 1
        found[name] += a.get("found", False)
        parts = [part for part in a if a[part] != b[part]]
        if parts:
            differ[name] += 1
            print("differ", " and ".join(parts), json.dumps([name, *case]))
    for name in names:
        line = f"set {name}: {differ[name]} of {total[name]} cases differ"
        if name in CERT_SETS:
            line += f" ({found[name]} certificates found at OLD_SRC)"
        print(line)
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
