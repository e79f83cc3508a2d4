"""End-to-end CLI tests: in-process main(argv), JSON captured from stdout."""

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyvor import cli

UNIT = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
LINE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
TWO_CELL = [[0, 2, 3], [2, 0, 4], [3, 4, 0]]
THREE_CELL = [[0, 2, 1], [2, 0, 2], [1, 2, 0]]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def metric_file(tmp_path, rows, name="d.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"d": rows}))
    return str(path)


def test_distance_exact_rational(tmp_path, capsys):
    path = metric_file(tmp_path, LINE)
    code, out = run(["distance", "--metric", path,
                     "--mu", "1/2,1/4,1/4", "--nu", "1/4,1/2,1/4"], capsys)
    assert code == 0
    assert out["cost"] == "1/4"
    # the plan is a transport plan: marginals match mu and nu
    plan = [[eval_frac(v) for v in row] for row in out["plan"]]
    assert [sum(row) for row in plan] == [0.5, 0.25, 0.25]
    assert [sum(col) for col in zip(*plan)] == [0.25, 0.5, 0.25]


def eval_frac(s):
    if isinstance(s, str):
        num, _, den = s.partition("/")
        return int(num) / int(den or 1)
    return float(s)


def test_distance_float_mode(tmp_path, capsys):
    path = metric_file(tmp_path, LINE)
    code, out = run(["distance", "--metric", path, "--no-exact",
                     "--mu", "0.5,0.25,0.25", "--nu", "0.25,0.5,0.25"], capsys)
    assert code == 0
    assert abs(out["cost"] - 0.25) < 1e-9


def test_no_exact_prints_the_exact_answer_rounded(tmp_path, capsys):
    argv = ["distance", "--metric", metric_file(tmp_path, UNIT),
            "--mu", "0.1,0.1,0.8", "--nu", "0.1,0.05,0.85"]
    code, exact = run(argv, capsys)
    assert code == 0
    assert exact["cost"] == "1/20"          # decimals are read exactly
    code, rounded = run(argv + ["--no-exact"], capsys)
    assert code == 0
    assert rounded["cost"] == float(Fraction(exact["cost"])) == 0.05
    assert rounded["plan"] == [[float(Fraction(v)) for v in row] for row in exact["plan"]]


def test_distance_dimension_mismatch_is_json_error(tmp_path, capsys):
    path = metric_file(tmp_path, UNIT)
    code, out = run(["distance", "--metric", path,
                     "--mu", "1/2,1/2,0,0", "--nu", "1,0,0"], capsys)
    assert code == 1
    assert out["error"]["type"] == "DimensionMismatch"


def test_ball_hexagon(tmp_path, capsys):
    path = metric_file(tmp_path, UNIT)
    code, out = run(["ball", "--metric", path,
                     "--center", "1/3,1/3,1/3", "--radius", "1/3"], capsys)
    assert code == 0
    assert out["vertex_count"] == 6
    assert len(out["vertices"]) == 6
    assert len(out["edges"]) == 6
    for v in out["vertices"]:
        assert all(isinstance(c, str) for c in v)   # rationals, never floats
    assert ["2/3", "1/3", "0"] in out["vertices"]


def test_ball_svg_written(tmp_path, capsys):
    path = metric_file(tmp_path, LINE)
    svg = str(tmp_path / "ball.svg")
    code, out = run(["ball", "--metric", path, "--center", "1/3,1/3,1/3",
                     "--radius", "1/4", "--svg", svg], capsys)
    assert code == 0
    assert out["vertex_count"] == 4
    content = (tmp_path / "ball.svg").read_text()
    assert content.startswith("<svg") or "<svg" in content


def test_tangency_two_cell(tmp_path, capsys):
    path = metric_file(tmp_path, TWO_CELL)
    code, out = run(["tangency", "--metric", path], capsys)
    assert code == 0
    assert [(e["p"], e["case"]) for e in out["entries"]] == \
        [("2/3", "c"), ("4/5", "b")]
    assert out["degenerate"] == []


def test_count_three_cell(tmp_path, capsys):
    path = metric_file(tmp_path, THREE_CELL)
    code, out = run(["count", "--metric", path], capsys)
    assert code == 0
    assert out["count"] == 3
    assert out["regime"] == "strict_case_3"
    assert out["parameters"] == ["1/3", "1/2", "2/3"]


DEGENERATE_D1 = ["d12 == d13: case (a) tangency degenerates to p = 0",
                 "d23 == d13: case (b) tangency degenerates to p = 1"]


# the full JSON of the worked metrics, edge directions and degenerate
# records included (no tight metric: its repeated parameters are a known
# defect, not a behaviour to keep)
@pytest.mark.parametrize("rows, tangency, count", [
    (UNIT,
     {"entries": [{"p": "1/2", "case": "c", "direction": ["1", "0", "-1"]}],
      "degenerate": DEGENERATE_D1},
     {"count": 1, "regime": "boundary", "parameters": ["1/2"]}),
    (TWO_CELL,
     {"entries": [{"p": "2/3", "case": "c", "direction": ["1/2", "-1/4", "-1/4"]},
                  {"p": "4/5", "case": "b", "direction": ["1/3", "-1/4", "-1/12"]}],
      "degenerate": []},
     {"count": 2, "regime": "strict_case_2", "parameters": ["2/3", "4/5"]}),
    (THREE_CELL,
     {"entries": [{"p": "1/3", "case": "a", "direction": ["-1/2", "-1/2", "1"]},
                  {"p": "1/2", "case": "c", "direction": ["1/2", "0", "-1/2"]},
                  {"p": "2/3", "case": "b", "direction": ["1", "-1/2", "-1/2"]}],
      "degenerate": []},
     {"count": 3, "regime": "strict_case_3", "parameters": ["1/3", "1/2", "2/3"]}),
], ids=["d1", "d2", "d3"])
def test_tangency_and_count_json_pinned(tmp_path, capsys, rows, tangency, count):
    path = metric_file(tmp_path, rows)
    assert run(["tangency", "--metric", path], capsys) == (0, tangency)
    assert run(["count", "--metric", path], capsys) == (0, count)


def test_bound_values(capsys):
    code, out = run(["bound", "--facets", "6", "--dual-degree", "2"], capsys)
    assert code == 0
    assert out["bound"] == "6"
    code, out = run(["bound", "--facets", "5", "--dual-degree", "2"], capsys)
    assert code == 1
    assert out["error"]["type"] == "OddFacetCount"


def test_raster_at_reference_scale(tmp_path, capsys):
    path = metric_file(tmp_path, UNIT)
    code, out = run(["raster", "--metric", path], capsys)
    assert code == 0
    assert out["resolution"] == 512 and out["samples"] == 1001
    assert out["backend"] == "numpy"
    assert out["threshold_pixels"] == 0.001 * 512 * 512
    assert len(out["full_dim"]) == 1
    assert abs(out["full_dim"][0]["parameter"] - 0.5) <= 0.002
    assert out["full_dim"][0]["pixels"] >= out["threshold_pixels"]
    assert out["outside_pixels"] > 0


def test_raster_writes_ppm_and_svg(tmp_path, capsys):
    path = metric_file(tmp_path, UNIT)
    ppm = tmp_path / "v.ppm"
    svg = tmp_path / "v.svg"
    code, out = run(["raster", "--metric", path, "--samples", "51",
                     "--resolution", "48", "--out", str(ppm),
                     "--svg", str(svg)], capsys)
    assert code == 0
    header = ppm.read_bytes()[:15].split()
    assert header[:4] == [b"P6", b"48", b"48", b"255"]
    assert "<svg" in svg.read_text()


# sha256 of the SVG files the CLI writes: a moved hull vertex, generator
# dot, curve point or tangency mark changes the bytes
@pytest.mark.parametrize("rows, argv, digest", [
    (UNIT, ["ball", "--center", "1/3,1/3,1/3", "--radius", "1/4"],
     "6d2e7596ca8b4d77c6c629045098cc361b2363151fdae2d0d20bd3534cafa9d1"),
    (LINE, ["ball", "--center", "1/3,1/3,1/3", "--radius", "1/4"],
     "92166e08ed5df19daad7faf875f0b18f3f8861c586d2a2957ac5b22a21064ea8"),
    (THREE_CELL, ["raster", "--samples", "11", "--resolution", "8"],
     "a43352f049a62470716fab53b75a4b48cc4c590236f3587edee9c5d420e40d84"),
    (UNIT, ["raster", "--curve", "circle", "--circle-radius", "0.7",
            "--samples", "11", "--resolution", "8"],
     "db0c6e97c8ee68e9fd973de51d9f04329a7a45ab7007eec002b599ff129e02d9"),
], ids=["ball-hexagon", "ball-quadrilateral", "raster-hw", "raster-circle"])
def test_svg_bytes_pinned(tmp_path, capsys, rows, argv, digest):
    svg = tmp_path / "out.svg"
    code, out = run(argv[:1] + ["--metric", metric_file(tmp_path, rows)] + argv[1:]
                    + ["--svg", str(svg)], capsys)
    assert code == 0 and out["svg"] == str(svg)
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


def test_metric_file_errors(tmp_path, capsys):
    code, out = run(["count", "--metric", str(tmp_path / "missing.json")], capsys)
    assert code == 1
    assert out["error"]["type"] == "FileNotFoundError"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(["count", "--metric", str(bad)], capsys)
    assert code == 1
    assert out["error"]["type"] == "JSONDecodeError"

    nokey = tmp_path / "nokey.json"
    nokey.write_text(json.dumps({"rows": UNIT}))
    code, out = run(["count", "--metric", str(nokey)], capsys)
    assert code == 1
    assert out["error"]["type"] == "MetricError"

    scalar = metric_file(tmp_path, 5, "scalar.json")
    code, out = run(["count", "--metric", scalar], capsys)
    assert code == 1
    assert out["error"] == {"type": "MetricError",
                            "message": "cost matrix must be square with at least 2 states"}

    tri = metric_file(tmp_path, [[0, 1, 3], [1, 0, 1], [3, 1, 0]], "tri.json")
    code, out = run(["count", "--metric", tri], capsys)
    assert code == 1
    assert out["error"]["type"] == "TriangleViolation"


@pytest.mark.parametrize("rows, cell", [
    ([[0, True, True], [True, 0, True], [True, True, 0]], "(1,2)"),
    ([[0, True], [True, 0]], "(1,2)"),
])
def test_boolean_metric_entries_are_json_errors(tmp_path, capsys, rows, cell):
    path = metric_file(tmp_path, rows)
    code = cli.main(["count", "--metric", path])
    text = capsys.readouterr().out
    assert code == 1
    message = f"entry {cell} is not a finite rational: True"
    assert text == json.dumps({"error": {"type": "MetricError", "message": message}}) + "\n"


@pytest.mark.parametrize("entry, argv, err", [
    ('"1/0"', ["count"], "MetricError"),
    ("1e400", ["count"], "MetricError"),
    ("1", ["distance", "--mu", "1/0,1,0", "--nu", "1,0,0"], "ZeroDivisionError"),
    ("1", ["distance", "--no-exact", "--mu", "nan,0.5,0.5", "--nu", "1,0,0"],
     "ValueError"),
    ("1", ["raster", "--resolution", "8", "--samples", "11",
           "--tie-tolerance", "nan"], "ValueError"),
    ("1", ["raster", "--resolution", "8", "--samples", "11",
           "--threshold", "-1"], "ValueError"),
    ("1", ["distance", "--mu", "3/2,-1/2,0", "--nu", "1,0,0"],
     "ValueError: transport endpoints must lie in the closed simplex"),
    ("1", ["ball", "--center", "1/4,1/4,1/4,1/4", "--radius", "1/3"],
     "DimensionMismatch: center dimension does not match the metric"),
    # Fraction alone would expand each of these into a billion-digit int
    ('"1e1000000000"', ["count"],
     "MetricError: entry (1,2) is not a finite rational: '1e1000000000'"),
    ("1", ["distance", "--mu", "1e1000000000,0,0", "--nu", "1,0,0"],
     "ValueError: exponent of '1e1000000000' is over 4300 in magnitude"),
    ("1", ["ball", "--center", "1/3,1/3,1/3", "--radius", "1e-1000000000"],
     "ValueError: exponent of '1e-1000000000' is over 4300 in magnitude"),
    # the pixel cut 1e308 * 8^2 overflows to inf
    ("1", ["raster", "--resolution", "8", "--samples", "11",
           "--threshold", "1e308"],
     "ValueError: threshold 1e+308 times resolution^2 is not finite"),
])
def test_non_finite_and_out_of_range_inputs_are_json_errors(tmp_path, capsys,
                                                            entry, argv, err):
    path = tmp_path / "d.json"
    path.write_text('{"d": [[0, %s, 1], [%s, 0, 1], [1, 1, 0]]}' % (entry, entry))
    code = cli.main(argv[:1] + ["--metric", str(path)] + argv[1:])
    text = capsys.readouterr().out
    assert code == 1
    err_type, _, message = err.partition(": ")
    assert json.loads(text)["error"]["type"] == err_type
    if message:
        assert text == json.dumps({"error": {"type": err_type, "message": message}}) + "\n"


@pytest.mark.parametrize("argv, message", [
    (["raster", "--metric", "d.json", "--samples", "abc"],
     "argument --samples: invalid int value: 'abc'"),
    (["raster"], "the following arguments are required: --metric"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
])
def test_usage_errors_are_json_errors(capsys, argv, message):
    code, out = run(argv, capsys)
    assert code == 2
    assert out["error"]["type"] == "ArgumentError"
    assert out["error"]["message"].startswith(message)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["raster", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: polyvor raster")


def test_negative_threshold_is_refused_before_the_raster(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("sampled before the threshold was checked")

    monkeypatch.setattr(cli, "sample_curve", fail)
    monkeypatch.setattr(cli, "raster_voronoi", fail)
    code, out = run(["raster", "--metric", metric_file(tmp_path, UNIT),
                     "--threshold", "-1"], capsys)
    assert code == 1
    assert out == {"error": {"type": "ValueError",
                             "message": "threshold must be finite and >= 0, got -1.0"}}


def test_whole_number_strings_are_not_exponents(tmp_path, capsys):
    # "5000" has no "e", so its digits are no exponent over 4300
    rows = [[0, "5000", "10000"], ["5000", 0, "5000"], ["10000", "5000", 0]]
    code, out = run(["count", "--metric", metric_file(tmp_path, rows)], capsys)
    assert code == 0
    assert out["count"] == 1
    code, out = run(["ball", "--metric", metric_file(tmp_path, UNIT),
                     "--center", "1/3,1/3,1/3", "--radius", "5000"], capsys)
    assert code == 0
    assert ["15001/3", "1/3", "-14999/3"] in out["vertices"]


@pytest.mark.parametrize("rows, argv", [
    (UNIT, ["ball", "--center", "1/3,1/3,1/3", "--radius", "1e4300"]),
    # d13 == d12 == 10^4300 and d23 = 1: case (c) sits at p = 1/(10^4300 + 1)
    ([[0, "1e4300", "1e4300"], ["1e4300", 0, 1], ["1e4300", 1, 0]], ["tangency"]),
], ids=["ball", "tangency"])
def test_output_rationals_over_4300_digits_are_json_errors(tmp_path, capsys, rows, argv):
    code = cli.main(argv[:1] + ["--metric", metric_file(tmp_path, rows)] + argv[1:])
    text = capsys.readouterr().out
    assert code == 1
    message = "a rational in the output has over 4300 digits"
    assert text == json.dumps({"error": {"type": "ValueError", "message": message}}) + "\n"


@pytest.mark.parametrize("radius, shown", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf")])
def test_non_finite_circle_radius_is_json_error(tmp_path, capsys, radius, shown):
    code = cli.main(["raster", "--metric", metric_file(tmp_path, UNIT), "--curve", "circle",
                     "--resolution", "8", "--samples", "11", "--circle-radius", radius])
    text = capsys.readouterr().out
    assert code == 1
    message = f"circle radius must be finite and > 0, got {shown}"
    assert text == json.dumps({"error": {"type": "ValueError", "message": message}}) + "\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", ["1e300", "1.5e308", "1.7e308"])
def test_huge_circle_radius_is_json_error(tmp_path, capsys, radius):
    # past 2^48 a float gauge no longer sees the simplex; at 1.5e308 the
    # rounding band overflowed and the raster reported a 128 px cell; at
    # 1.7e308 the chart map overflows, and numpy's warning must not escape
    code = cli.main(["raster", "--metric", metric_file(tmp_path, UNIT), "--curve", "circle",
                     "--resolution", "8", "--samples", "11", "--circle-radius", radius])
    text = capsys.readouterr().out
    assert code == 1
    error = json.loads(text, parse_constant=pytest.fail)["error"]
    assert error["type"] == "ValueError"
    extent = "inf" if radius == "1.7e308" else r"\S+e\+30\d"
    assert re.fullmatch(rf"curve sample extent {extent} is not below 2\^48 - 1, "
                        r"where float gauges no longer resolve the simplex", error["message"])


@pytest.mark.parametrize("argv, message", [
    (["ball", "--center", "1/3,1/3", "--radius", "1/3"],
     "center dimension does not match the metric"),
    (["distance", "--mu", "1/3,1/3", "--nu", "1,0,0"],
     "points and metric must share one state set"),
])
def test_short_points_are_dimension_mismatches(tmp_path, capsys, argv, message):
    # 1/3 + 1/3 also misses the sum 1: the count is checked first
    code = cli.main(argv[:1] + ["--metric", metric_file(tmp_path, UNIT)] + argv[1:])
    text = capsys.readouterr().out
    assert code == 1
    assert text == json.dumps({"error": {"type": "DimensionMismatch", "message": message}}) + "\n"


FOUR_STATE = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]


@pytest.mark.parametrize("argv, err, message", [
    (["raster", "--resolution", "8", "--samples", "11"], "ValueError",
     "raster classification is planar (n = 2)"),
    (["tangency"], "DimensionMismatch",
     "edge direction classes are defined for n = 2"),
    (["count"], "DimensionMismatch",
     "edge direction classes are defined for n = 2"),
])
def test_planar_commands_reject_four_states(tmp_path, capsys, argv, err, message):
    path = metric_file(tmp_path, FOUR_STATE)
    code = cli.main(argv[:1] + ["--metric", path] + argv[1:])
    text = capsys.readouterr().out
    assert code == 1
    assert text == json.dumps({"error": {"type": err, "message": message}}) + "\n"


@pytest.mark.parametrize("command", ["raster", "check"])
def test_resolution_over_the_memory_budget_is_json_error(tmp_path, capsys, command):
    # a 728 TiB label array: refused before anything is allocated
    argv = [command, "--resolution", "10000000", "--samples", "11"]
    if command == "raster":
        argv += ["--metric", metric_file(tmp_path, UNIT)]
    code = cli.main(argv)
    text = capsys.readouterr().out
    assert code == 1
    message = ("resolution 10000000 needs a 800000000000000 B label array, "
               "over a quarter of physical memory")
    assert text == json.dumps({"error": {"type": "ValueError", "message": message}}) + "\n"


@pytest.mark.parametrize("svg", [False, True], ids=["json", "svg"])
@pytest.mark.parametrize("rows, center", [
    ([[0, 1], [1, 0]], "1/2,1/2"),
    (FOUR_STATE, "1/4,1/4,1/4,1/4"),
], ids=["2-states", "4-states"])
def test_ball_off_the_plane_is_json_error(tmp_path, capsys, rows, center, svg):
    argv = ["ball", "--metric", metric_file(tmp_path, rows), "--center", center,
            "--radius", "1/3"]
    if svg:
        argv += ["--svg", str(tmp_path / "ball.svg")]
    code = cli.main(argv)
    text = capsys.readouterr().out
    assert code == 1
    error = {"type": "DimensionMismatch", "message": "balls are built for n = 2"}
    assert text == json.dumps({"error": error}) + "\n"
    assert not (tmp_path / "ball.svg").exists()


@pytest.mark.parametrize("command", ["raster", "check"])
def test_two_samples_of_the_circle_are_json_error(tmp_path, capsys, command):
    # both samples are the seam point: one cell would cover the whole inside
    argv = [command, "--resolution", "8", "--samples", "2"]
    if command == "raster":
        argv += ["--metric", metric_file(tmp_path, UNIT), "--curve", "circle"]
    code = cli.main(argv)
    text = capsys.readouterr().out
    assert code == 1
    message = "2 samples of a closed curve are one point: need at least 3"
    assert text == json.dumps({"error": {"type": "ValueError", "message": message}}) + "\n"


@pytest.mark.parametrize("command", ["raster", "check"])
def test_sample_count_over_the_memory_budget_is_json_error(tmp_path, capsys, command):
    # 56 B per sample at 10^12 samples is 51 TiB: refused before sampling
    argv = [command, "--resolution", "8", "--samples", str(10**12)]
    if command == "raster":
        argv += ["--metric", metric_file(tmp_path, UNIT)]
    code = cli.main(argv)
    text = capsys.readouterr().out
    assert code == 1
    message = ("1000000000000 samples need 56000000000000 B, "
               "over a quarter of physical memory")
    assert text == json.dumps({"error": {"type": "ValueError", "message": message}}) + "\n"


def test_check_all_pass(capsys):
    code = cli.main(["check"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 0
    assert out["all_pass"] is True
    names = [i["name"] for i in out["items"]]
    assert names == ["ball-dichotomy", "tangency-sets", "census-counts",
                     "census-formula-300", "circle-tightness-hexagon",
                     "circle-tightness-quadrilateral"]
    assert all(i["pass"] for i in out["items"])
    assert captured.err.count("ok   ") == len(names)


def test_check_exits_1_when_an_item_fails(monkeypatch, capsys):
    # a zero bound fails both circle-tightness items
    monkeypatch.setattr(cli, "full_dim_upper_bound", lambda *args: 0)
    code = cli.main(["check", "--resolution", "32", "--samples", "51"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["all_pass"] is False
    assert "FAIL circle-tightness-hexagon" in captured.err


HOSTILE = ["nan", "inf", "1e400", "1/0", "", "٣", "-1e-13", "3/2"]
MALFORMED = {
    "nan.json": '{"d": [[0, NaN, 1], [NaN, 0, 1], [1, 1, 0]]}',
    "huge.json": '{"d": [[0, 1e400, 1], [1e400, 0, 1], [1, 1, 0]]}',
    "zero_den.json": '{"d": [[0, "1/0", 1], ["1/0", 0, 1], [1, 1, 0]]}',
    "digit.json": '{"d": [[0, "٣", 1], ["٣", 0, 1], [1, 1, 0]]}',
    "ragged.json": '{"d": [[0, 1], [1]]}',
    "four.json": json.dumps({"d": FOUR_STATE}),
    "list.json": "[]",
    "text.json": "not json",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {"unit.json": UNIT, "line.json": LINE, "two.json": TWO_CELL,
             "three.json": THREE_CELL}
    for name, rows in files.items():
        (root / name).write_text(json.dumps({"d": rows}))
    for name, text in MALFORMED.items():
        (root / name).write_text(text)
    return root


def int_values(top):
    """Integer flag values up to ``top``, and hostile ones int() may still take."""
    return st.sampled_from([*map(str, range(-1, top + 1)), "٣", "nan", "1e400", "-1e-13"])


@st.composite
def hostile_argv(draw, root):
    """argv for one subcommand, its values drawn from a hostile alphabet."""
    valid = st.sampled_from(["unit.json", "line.json", "two.json", "three.json"])
    invalid = st.sampled_from(["missing.json", *MALFORMED])
    metric = str(root / draw(st.one_of(valid, invalid)))
    value = st.sampled_from(HOSTILE + ["0", "1", "1/2", "1/3", "0.25", "2"])
    point = st.one_of(st.lists(value, min_size=1, max_size=4).map(",".join),
                      st.sampled_from(["1/3,1/3,1/3", "1,0,0", "0.5,0.25,0.25"]))
    command = draw(st.sampled_from(["distance", "ball", "tangency", "count",
                                    "bound", "raster"]))
    if command == "distance":
        argv = ["--mu", draw(point), "--nu", draw(point),
                draw(st.sampled_from(["--exact", "--no-exact"]))]
    elif command == "ball":
        argv = ["--center", draw(point), "--radius", draw(value)]
        if draw(st.booleans()):
            argv += ["--svg", str(root / "ball.svg")]
    elif command == "bound":
        count = st.one_of(value, st.integers(-2, 12).map(str))
        return ["bound", "--facets", draw(count), "--dual-degree", draw(count)]
    elif command == "raster":
        argv = ["--curve", draw(st.sampled_from(["hw", "circle"])),
                "--resolution", draw(int_values(17)), "--samples", draw(int_values(7))]
        for flag in ("--tie-tolerance", "--threshold", "--circle-radius"):
            if draw(st.booleans()):
                argv += [flag, draw(value)]
        if draw(st.booleans()):
            argv += ["--out", str(root / "r.ppm"), "--svg", str(root / "r.svg")]
    else:
        argv = []
    return [command, "--metric", metric] + argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_hostile_argv_never_escapes_main(fuzz_dir, data):
    argv = data.draw(hostile_argv(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out.getvalue()), dict)
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
