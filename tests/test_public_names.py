"""The public surface of ``polyvor`` and its settable values, pinned by name.

An addition or removal must edit a list below, so it shows in the diff.
"""

import ast
import pathlib
import types

import polyvor

PUBLIC_NAMES = [
    "AffinePoint",
    "CellCensus",
    "CurveSample",
    "DimensionCertificate",
    "DimensionMismatch",
    "FiniteMetric",
    "Infeasible",
    "MetricError",
    "NonpositiveOffDiagonal",
    "NonzeroDiagonal",
    "NotFound",
    "NotSymmetric",
    "OddFacetCount",
    "ParameterOutOfRange",
    "PolyBall",
    "TangencyEntry",
    "TransportPlan",
    "TriangleViolation",
    "VoronoiRaster",
    "as_affine_point",
    "build_ball",
    "circle_curve",
    "count_full_dim_cells_hw",
    "dimension_certificate",
    "edge_directions",
    "full_dim_upper_bound",
    "hardy_weinberg_curve",
    "random_metric",
    "raster_voronoi",
    "sample_curve",
    "validate_metric",
    "veronese_point",
    "wasserstein_distance",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(polyvor).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


# every value a caller or the environment can set without editing the
# source: parameters with a default, class fields with a default (the
# dataclass fields) and reads of os.environ / os.getenv, as qualified names
SETTABLE_VALUES = [
    "cli.main(argv=)",
    "curve.circle_curve(radius=)",
    "render._Svg.dot(fill=)",
    "render._Svg.dot(r=)",
    "render._Svg.polygon(fill=)",
    "render._Svg.polygon(stroke=)",
    "render._Svg.polygon(width=)",
    "voronoi.VoronoiRaster.full_dim_labels(threshold=)",
]


def _settable(node, qual, found):
    """Append the settable values under ``node`` to ``found``, named from ``qual``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{qual}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, v in zip(args.kwonlyargs, args.kw_defaults)
                             if v is not None]
            found += [f"{name}({a.arg}=)" for a in with_default]
            _settable(child, name, found)
        elif isinstance(child, ast.ClassDef):
            name = f"{qual}.{child.name}"
            found += [f"{name}.{st.target.id} =" for st in child.body
                      if isinstance(st, ast.AnnAssign) and st.value is not None]
            _settable(child, name, found)
        else:
            if isinstance(child, ast.Attribute) and child.attr in ("environ", "getenv"):
                found.append(f"{qual}: {ast.unparse(child)}")
            _settable(child, qual, found)


def test_settable_values_are_pinned():
    found = []
    for path in pathlib.Path(polyvor.__file__).parent.glob("*.py"):
        _settable(ast.parse(path.read_text()), path.stem, found)
    assert sorted(found) == SETTABLE_VALUES
