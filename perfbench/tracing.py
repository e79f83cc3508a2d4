"""In-memory spans around the calls between polyvor's modules.

The tracer wraps the module attributes through which one layer calls
another, for the length of one ``with tracer.installed(mods):`` block, and
puts the originals back when the block ends.  Names are patched where
they are looked up: ``polyvor.cli`` binds ``raster_voronoi``,
``build_ball`` and friends by from-import, so those bindings are patched
next to the defining module's.

A span is ``[name, start, end, parent, attrs]`` with ``parent`` the index
of the enclosing span (or ``None``).  An entry point the library no longer
has is left untraced and listed in ``Tracer.missing``; a counter whose
arguments are no longer where the hook looks is left out of the span, so
an API change costs per-layer detail, never the run.  Spans stay in memory; the benchmark
writes them out when the run ends.  Counters that would cost time to
compute (for example the inside-pixel count of a label array) are stored
as deferred callables and evaluated by ``resolve``, outside every timed
section.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, ATTRS = range(5)


def _kernel_attrs(args, out):
    _res, a0, _a1, s1 = args[:4]    # classify_grid(res, a0, a1, s1, s2, tie_tol)
    nf, m = len(a0), len(s1)
    # the label array is relabelled in place by the caller, but OUTSIDE
    # stays OUTSIDE, so the count is the same whenever it is taken
    return lambda: _kernel_counts(out, nf, m)


def _kernel_counts(labels, nf, m):
    inside = int((labels != -1).sum())
    pairs = inside * m
    return {
        "inside_px": inside,
        "pair_evals": pairs,
        "facet_evals": pairs * nf,
        # computed, not measured: per facet evaluation the numpy kernel
        # writes two products, their sum and one running max, 8 bytes each
        "bytes_computed": pairs * nf * 4 * 8,
    }


def _certify_attrs(args, out):
    return {"found": bool(out), "trials": 0 if out else out.trials}


def _census_attrs(args, out):
    params = out.parameters
    return {"repeated": int(len(set(params)) != len(params))}


def _transport_attrs(args, out):
    return {"k": args[2].n_states}


def _ppm_attrs(args, out):
    path = args[1]
    return lambda: {"bytes": os.path.getsize(path)}


# (span name, defining module, attribute, modules that from-import it, attrs hook)
PATCHES = (
    ("kernels.classify", "polyvor._kernels", "classify_grid", (), _kernel_attrs),
    ("voronoi.facet_table", "polyvor.voronoi", "_facet_data", (), None),
    ("voronoi.sample", "polyvor.voronoi", "sample_curve", ("polyvor.cli",), None),
    ("voronoi.raster", "polyvor.voronoi", "raster_voronoi", ("polyvor.cli",), None),
    ("voronoi.certify", "polyvor.voronoi", "dimension_certificate", (), _certify_attrs),
    ("render.ppm", "polyvor.render", "raster_ppm", (), _ppm_attrs),
    ("cli.main", "polyvor.cli", "main", (), None),
    ("transport.solve", "polyvor.transport", "wasserstein_distance", (), _transport_attrs),
    ("ball.build", "polyvor.ball", "build_ball", ("polyvor.cli",), None),
    ("curve.tangency", "polyvor.curve", "hw_tangency_points",
     ("polyvor.counting", "polyvor.cli"), None),
    ("counting.census", "polyvor.counting", "count_full_dim_cells_hw",
     ("polyvor.cli",), _census_attrs),
    ("metrics.random_metric", "polyvor.metrics", "random_metric", (), None),
    ("metrics.validate", "polyvor.metrics", "validate_metric", ("polyvor.cli",), None),
)

# methods of VoronoiRaster; full_dim_labels calls pixel_counts, so only the
# outermost of the two is counted (see layer_totals)
METHOD_PATCHES = (
    ("voronoi.pixel_counts", "polyvor.voronoi", "VoronoiRaster", "pixel_counts"),
    ("voronoi.pixel_counts", "polyvor.voronoi", "VoronoiRaster", "full_dim_labels"),
)


class Tracer:
    """Span recorder; one per benchmark run."""

    def __init__(self):
        self.spans = []
        self.missing = set()
        self._stack = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span[ATTRS] = hook(args, out)
                except (IndexError, TypeError, AttributeError, ValueError):
                    pass
            return out

        return traced

    @contextmanager
    def installed(self, mods):
        """Wrap every layer entry point in ``mods`` (name -> module) for the block."""
        saved = []
        try:
            targets = [(mods[modname], attr, name, hook)
                       for name, home, attr, aliases, hook in PATCHES
                       for modname in (home,) + aliases]
            targets += [(getattr(mods[modname], clsname, None), attr, name, None)
                        for name, modname, clsname, attr in METHOD_PATCHES]
            for owner, attr, name, hook in targets:
                orig = vars(owner).get(attr) if owner is not None else None
                if orig is None:
                    self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, hook))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def resolve(self, first):
        """Evaluate deferred counters of spans[first:]; call outside timing."""
        for span in self.spans[first:]:
            if callable(span[ATTRS]):
                try:
                    span[ATTRS] = span[ATTRS]()
                except (OSError, TypeError, ValueError):
                    span[ATTRS] = None


def layer_totals(spans, base):
    """Per-layer numbers of one traced operation, spans[i] being the
    tracer's span ``base + i``.

    Layer times are inclusive times of the outermost span of each name;
    ``voronoi.relabel_s`` and ``cli.self_s`` are self times (the span's
    duration minus that of its direct children).
    """
    out = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None and s[PARENT] >= base:
            child_time[s[PARENT] - base] += s[END] - s[START]

    def add(key, value):
        out[key] = out.get(key, 0) + value

    def nested(i, name):
        p = spans[i][PARENT]
        while p is not None and p >= base:
            if spans[p - base][NAME] == name:
                return True
            p = spans[p - base][PARENT]
        return False

    for i, s in enumerate(spans):
        name, dur, attrs = s[NAME], s[END] - s[START], s[ATTRS] or {}
        if not nested(i, name):
            add(name + "_s", dur)
        if name == "voronoi.raster":
            add("voronoi.relabel_s", dur - child_time[i])
        elif name == "cli.main":
            add("cli.self_s", dur - child_time[i])
        elif name == "kernels.classify":
            add("kernels.calls", 1)
        elif name == "voronoi.certify":
            add("voronoi.certify_attempted", 1)
        elif name == "counting.census":
            add("counting.censuses", 1)
        if not attrs:
            continue
        if name == "kernels.classify":
            for key in ("inside_px", "pair_evals", "facet_evals", "bytes_computed"):
                add("kernels." + key, attrs[key])
        elif name == "voronoi.certify":
            add("voronoi.certify_found", int(attrs["found"]))
            add("voronoi.certify_notfound_trials", attrs["trials"])
        elif name == "render.ppm":
            add("render.ppm_bytes", attrs["bytes"])
        elif name == "transport.solve":
            add(f"transport.solve_s.k{attrs['k']}", dur)
            add(f"transport.solves.k{attrs['k']}", 1)
        elif name == "counting.census":
            add("counting.repeated_params", attrs["repeated"])
    return out
