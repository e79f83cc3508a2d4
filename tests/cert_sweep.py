"""Compare the dimension certificates of two source trees on a fixed case set.

Usage (from the repository root):

    python tests/cert_sweep.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``polyvor`` package (a
checkout's ``src``).  Each tree runs every case in a child process of its
own, through the public API (``random_metric``, ``sample_curve``,
``count_full_dim_cells_hw``, ``dimension_certificate``), and reports one
sha256 per case of the outcome: x, witness and epsilon of a certificate, or
the trial count of a NotFound.  The script prints each case whose digest
differs, then a count per set, and exits 1 when any case differs.  It is
not collected by pytest (no ``test_`` prefix): a run takes minutes.

The case sets (sample indices k of the sample named):

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
import json
import os
import subprocess
import sys

import numpy as np

SETS = ("hw1001", "hw201", "circle")


def cases(name, api):
    """Yield (seed, curve name, sample, k) of a case set, with ``api`` the polyvor module."""
    hw = api.hardy_weinberg_curve()
    if name in ("hw1001", "hw201"):
        count, seeds, extra = ((1001, 300, (70, 300, 500, 930)) if name == "hw1001"
                               else (201, 40, (14, 60, 100, 186)))
        s = api.sample_curve(hw, count)
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


def digests(names):
    """Print one JSON line per case of the named sets, with the polyvor on sys.path."""
    import polyvor as api

    for name in names:
        for seed, curve, s, k in cases(name, api):
            u1, u2 = float(s.u1[k]), float(s.u2[k])
            cert = api.dimension_certificate((u1, u2, 1.0 - u1 - u2), s, api.random_metric(3, seed))
            if cert:
                out = f"{cert.x.coords} {cert.witness_y.coords} {cert.epsilon}"
            else:
                out = f"trials {cert.trials}"
            digest = hashlib.sha256(out.encode()).hexdigest()
            print(json.dumps([name, seed, curve, s.count, k, bool(cert), digest]), flush=True)


def _run(src, names):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--digests", ",".join(names)],
                            env=env, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--sets", default=",".join(SETS))
    parser.add_argument("--digests", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digests:
        digests(args.digests.split(","))
        return 0
    if not (args.old_src and args.new_src):
        parser.error("give OLD_SRC and NEW_SRC")
    names = args.sets.split(",")
    unknown = set(names) - set(SETS)
    if unknown:
        parser.error(f"unknown sets {sorted(unknown)}; known: {list(SETS)}")
    # the two trees run side by side, one process each
    procs = [_run(src, names) for src in (args.old_src, args.new_src)]
    outs = [p.communicate()[0].splitlines() for p in procs]
    if any(p.returncode for p in procs):
        print("a child process failed", file=sys.stderr)
        return 2
    old, new = ([json.loads(line) for line in out] for out in outs)
    if len(old) != len(new):
        print(f"the trees ran {len(old)} and {len(new)} cases", file=sys.stderr)
        return 2
    total = {name: 0 for name in names}
    found = {name: 0 for name in names}
    differ = {name: 0 for name in names}
    for a, b in zip(old, new):
        total[a[0]] += 1
        found[a[0]] += a[5]
        if a != b:
            differ[a[0]] += 1
            print("differ", json.dumps(a[:5]))
    for name in names:
        print(f"set {name}: {differ[name]} of {total[name]} cases differ "
              f"({found[name]} certificates found at OLD_SRC)")
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
