"""Command line interface: JSON in, JSON out.

Metrics are read from JSON files of the form {"d": [[...]]} whose entries
are integers or rational strings "p/q"; points and radii are read exactly,
decimals too.  Every subcommand prints a JSON object to stdout; rationals
are emitted as strings so nothing is rounded.
Errors become {"error": {...}}, exit code 2 for a refused command line, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from polyvor import _kernels, metrics, render, voronoi
from polyvor._chart import plot_xy
from polyvor.ball import build_ball
from polyvor.counting import count_full_dim_cells_hw, full_dim_upper_bound
from polyvor.curve import circle_curve, hardy_weinberg_curve, veronese_point
from polyvor.metrics import MetricError, validate_metric
from polyvor.transport import wasserstein_distance
from polyvor.voronoi import DEFAULT_TIE_TOL, FULL_DIM_THRESHOLD, raster_voronoi, sample_curve


def load_metric(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "d" not in data:
        raise MetricError('metric file must be a JSON object with key "d"')
    return validate_metric(data["d"])


def parse_point(text):
    return tuple(metrics.rational(s) for s in text.split(","))


def fmt(value):
    """JSON-safe scalar: Fractions as 'p/q' strings, floats as floats."""
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:
            # Python refuses to print an int of over 4300 digits
            raise ValueError("a rational in the output has over 4300 digits") from None
    return value


def fmt_seq(values):
    return [fmt(v) for v in values]


def cmd_distance(args):
    d = load_metric(args.metric)
    cost, plan = wasserstein_distance(parse_point(args.mu), parse_point(args.nu), d)
    out = fmt if args.exact else float
    return {
        "cost": out(cost),
        "plan": [[out(v) for v in row] for row in plan.flow],
    }


def cmd_ball(args):
    d = load_metric(args.metric)
    ball = build_ball(parse_point(args.center), metrics.rational(args.radius), d)
    out = {
        "vertex_count": ball.vertex_count,
        "vertices": [fmt_seq(v.coords) for v in ball.hull_vertices],
        "edges": [{"vertices": list(pair), "normal": fmt_seq(nrm)}
                  for pair, nrm in ball.edges],
    }
    if args.svg:
        render.ball_svg(ball, args.svg)
        out["svg"] = args.svg
    return out


def cmd_tangency(args):
    d = load_metric(args.metric)
    census = count_full_dim_cells_hw(d)
    return {
        "entries": [{"p": fmt(e.p_star), "case": e.edge_case,
                     "direction": fmt_seq(e.direction)}
                    for e in census.entries],
        "degenerate": list(census.degenerate),
    }


def cmd_count(args):
    d = load_metric(args.metric)
    census = count_full_dim_cells_hw(d)
    return {
        "count": census.count,
        "regime": census.regime,
        "parameters": fmt_seq(census.parameters),
    }


def cmd_bound(args):
    return {"bound": fmt(full_dim_upper_bound(args.facets, args.dual_degree))}


def _make_curve(args):
    if args.curve == "hw":
        return hardy_weinberg_curve()
    return circle_curve(radius=args.circle_radius)


def cmd_raster(args):
    # printed in the JSON, so it must be finite
    threshold_pixels = args.threshold * args.resolution ** 2
    if not math.isfinite(threshold_pixels):
        raise ValueError(f"threshold {args.threshold!r} times resolution^2 is not finite")
    voronoi._check_nonnegative("threshold", args.threshold)    # before the raster
    d = load_metric(args.metric)
    curve = _make_curve(args)
    sample = sample_curve(curve, args.samples)
    raster = raster_voronoi(sample, d, args.resolution, args.tie_tolerance)
    counts = raster.pixel_counts()
    full = raster.full_dim_labels(args.threshold)
    out = {
        "resolution": args.resolution,
        "samples": args.samples,
        "backend": _kernels.backend_name(),
        "threshold_pixels": threshold_pixels,
        "full_dim": [{"label": lab, "parameter": raster.parameter(lab),
                      "pixels": counts[lab]} for lab in full],
        "tie_pixels": int((raster.labels == _kernels.TIE).sum()),
        "outside_pixels": int((raster.labels == _kernels.OUTSIDE).sum()),
    }
    if args.out:
        render.raster_ppm(raster, args.out)
        out["ppm"] = args.out
    if args.svg:
        marks = []
        if args.curve == "hw":
            marks = [plot_xy(veronese_point(2, p).coords)
                     for p in count_full_dim_cells_hw(d).parameters]
        ball = build_ball((Fraction(1, 3),) * 3, Fraction(1, 8), d)
        render.overlay_svg(args.svg, curve=curve, ball=ball, marks=marks)
        out["svg"] = args.svg
    return out


def cmd_check(args):
    """Bundled confirmations of the closed-form predictions."""
    d1 = validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    d_line = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    d2 = validate_metric([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
    d3 = validate_metric([[0, 2, 1], [2, 0, 2], [1, 2, 0]])
    c = (Fraction(1, 3),) * 3
    items = []

    def item(name, passed, detail):
        items.append({"name": name, "pass": bool(passed), "detail": detail})
        print(("ok   " if passed else "FAIL ") + f"{name}: {detail}", file=sys.stderr)

    m1 = build_ball(c, Fraction(1, 3), d1).vertex_count
    m2 = build_ball(c, Fraction(1, 3), d_line).vertex_count
    item("ball-dichotomy", m1 == 6 and m2 == 4,
         f"hexagon {m1} vertices, quadrilateral {m2} vertices")

    census = [count_full_dim_cells_hw(m) for m in (d1, d2, d3)]
    got = [cs.parameters for cs in census]
    want = [(Fraction(1, 2),),
            (Fraction(2, 3), Fraction(4, 5)),
            (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))]
    item("tangency-sets", got == want, f"{[fmt_seq(g) for g in got]}")

    item("census-counts", [cs.count for cs in census] == [1, 2, 3],
         f"counts {[cs.count for cs in census]}")

    agree = 0
    for seed in range(300):
        # looked up on the module at call time, so a wrapper installed on
        # polyvor.metrics (as perfbench's tracer does) sees these calls
        m = metrics.random_metric(3, seed)
        cs = count_full_dim_cells_hw(m)
        formula = 1 + (m[0, 1] > m[0, 2]) + (m[1, 2] > m[0, 2])
        agree += cs.count == formula
    item("census-formula-300", agree == 300, f"{agree}/300 random metrics agree")

    circle = circle_curve()
    sample = sample_curve(circle, args.samples)
    for d, name, want_cells in ((d1, "hexagon", 6), (d_line, "quadrilateral", 4)):
        raster = raster_voronoi(sample, d, args.resolution)
        cells = len(raster.full_dim_labels())
        bound = full_dim_upper_bound(build_ball(c, 1, d).vertex_count, 2)
        item(f"circle-tightness-{name}", cells == want_cells and bound == want_cells,
             f"{cells} cells vs bound {bound}")

    return {"items": items, "all_pass": all(i["pass"] for i in items)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # a refused command line goes to main's error JSON
        raise argparse.ArgumentError(None, message)


def build_parser():
    ap = _Parser(
        prog="polyvor",
        description="Wasserstein balls, tangency counts and raster Voronoi "
                    "diagrams in the probability simplex.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="Wasserstein distance between simplex points")
    p.add_argument("--metric", required=True)
    p.add_argument("--mu", required=True, help='point, e.g. "1/2,1/2,0"')
    p.add_argument("--nu", required=True)
    p.add_argument("--exact", action=argparse.BooleanOptionalAction, default=True,
                   help="rational output (default); --no-exact rounds the exact "
                        "answer to floats")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("ball", help="Wasserstein ball hull around a center")
    p.add_argument("--metric", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--radius", required=True)
    p.add_argument("--svg")
    p.set_defaults(fn=cmd_ball)

    p = sub.add_parser("tangency", help="ball-edge tangency parameters on the HW curve")
    p.add_argument("--metric", required=True)
    p.set_defaults(fn=cmd_tangency)

    p = sub.add_parser("count", help="full-dimensional Voronoi cell census")
    p.add_argument("--metric", required=True)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("bound", help="upper bound facets * dual degree / 2")
    p.add_argument("--facets", type=int, required=True)
    p.add_argument("--dual-degree", type=int, required=True)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("raster", help="raster Voronoi diagram of a sampled curve")
    p.add_argument("--metric", required=True)
    p.add_argument("--curve", choices=("hw", "circle"), default="hw")
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--tie-tolerance", type=float, default=DEFAULT_TIE_TOL)
    p.add_argument("--threshold", type=float, default=FULL_DIM_THRESHOLD)
    p.add_argument("--circle-radius", type=float, default=0.2)
    p.add_argument("--out", help="output PPM path")
    p.add_argument("--svg", help="overlay SVG path")
    p.set_defaults(fn=cmd_raster)

    p = sub.add_parser("check", help="run the bundled closed-form confirmations")
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--samples", type=int, default=1001)
    p.set_defaults(fn=cmd_check)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = args.fn(args)
        text = json.dumps(out, indent=2, allow_nan=False)
    except (argparse.ArgumentError, ValueError, ArithmeticError, OSError) as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}},
                  sys.stdout)
        print()
        return 2 if isinstance(exc, argparse.ArgumentError) else 1
    print(text)
    if args.command == "check" and not out["all_pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
