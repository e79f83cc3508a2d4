"""Self-test of the benchmark harness at small scale.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from speed import Speed  # noqa: E402

sys.path.insert(0, run.SRC)


@pytest.fixture(scope="module")
def refs():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def small_raster(tmp_path, refs):
    """The raster workload at 32^2, with references made for that size."""
    wl = W.RasterHW(copy.deepcopy(refs["raster_hw"]), 0, str(tmp_path))
    wl.resolution = 32
    wl.setup(run.import_polyvor())
    vor, render = wl.mods["polyvor.voronoi"], wl.mods["polyvor.render"]
    for name, d in wl.metrics.items():
        raster = vor.raster_voronoi(wl.sample, d, 32)
        render.raster_ppm(raster, wl.ppm_path)
        wl.refs["metrics"][name].update(
            labels_sha256=hashlib.sha256(raster.labels.tobytes()).hexdigest(),
            full_dim_labels=raster.full_dim_labels(),
            counted_px=sum(raster.pixel_counts().values()),
            ppm_sha256=W.sha256_file(wl.ppm_path))
    return wl


def test_tracer_records_layers_and_restores(tmp_path, refs):
    wl = small_raster(tmp_path, refs)
    kernels = wl.mods["polyvor._kernels"]
    orig = kernels.classify_grid
    tracer = tracing.Tracer()
    with tracer.installed(wl.mods):
        assert kernels.classify_grid is not orig
        res = wl._raster("d3")
    assert kernels.classify_grid is orig
    assert res.ok
    tracer.resolve(0)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("kernels.classify") == 1
    k = names.index("kernels.classify")
    assert names[tracer.spans[k][tracing.PARENT]] == "voronoi.raster"
    layers = tracing.layer_totals(tracer.spans, 0)
    assert layers["kernels.calls"] == 1
    assert layers["kernels.inside_px"] == res.extra["inside_px"]
    assert layers["kernels.pair_evals"] == res.extra["inside_px"] * len(wl.sample.u1)
    assert layers["render.ppm_bytes"] == os.path.getsize(wl.ppm_path)
    wl.cleanup()


def test_self_time_subtracts_direct_children():
    spans = [
        ["voronoi.raster", 0.0, 10.0, None, None],
        ["voronoi.facet_table", 1.0, 2.0, 0, None],
        ["kernels.classify", 2.0, 9.0, 0, {"inside_px": 4, "pair_evals": 8,
                                            "facet_evals": 48, "bytes_computed": 1536}],
        ["voronoi.pixel_counts", 10.0, 12.0, None, None],
        ["voronoi.pixel_counts", 10.5, 11.5, 3, None],
    ]
    layers = tracing.layer_totals(spans, 0)
    assert layers["voronoi.relabel_s"] == pytest.approx(2.0)
    assert layers["voronoi.pixel_counts_s"] == pytest.approx(2.0)   # outermost only
    assert layers["kernels.classify_s"] == pytest.approx(7.0)


def test_label_gate_counts_a_changed_raster_as_failed(tmp_path, refs):
    wl = small_raster(tmp_path, refs)
    assert wl._raster("d1").ok
    wl.refs["metrics"]["d1"]["labels_sha256"] = "0" * 64
    res = wl._raster("d1")
    assert not res.ok and "labels_sha256" in res.why
    wl.cleanup()


def test_exact_ops_check_costs_and_certificates(tmp_path, refs):
    ex = copy.deepcopy(refs["exact"])
    ex["transport"] = {"6": ex["transport"]["6"][:3], "20": [], "40": []}
    ex["hw3"] = ex["hw3"][:6]          # seeds 0-5: four tight triangles among them
    wl = W.Exact(ex, 7, str(tmp_path))
    wl.round = (("k6", 3), ("hw3", 6))
    wl.setup(run.import_polyvor())
    results = [op() for _, _, op in wl.ops(0)]
    assert all(r.ok for r in results), [r.why for r in results]
    assert sum(r.extra.get("repeated_params", 0) for r in results) == 4
    ex["transport"]["6"][0]["cost"] = "1/7"
    wl.setup(run.import_polyvor())
    bad = [r for r in (op() for kind, _, op in wl.ops(0) if kind == "k6") if not r.ok]
    assert len(bad) == 1 and "cost" in bad[0].why


def test_seed_fixes_the_exact_inputs(refs):
    def order(seed):
        wl = W.Exact(refs["exact"], seed, "")
        wl.setup(run.import_polyvor())
        return [(kind, inst) for kind, inst, _ in wl.ops(0) + wl.ops(1)]

    assert order(3) == order(3)
    assert order(3) != order(4)


class Fake(W.Workload):
    name = "fake"
    round = (("a", 2), ("b", 1))
    probe = "fraction"

    def setup(self, mods):
        self.mods = mods

    def ops(self, r):
        return [("a", 0, lambda: W.Result(0.001, True)), ("a", 1, lambda: W.Result(0.003, True)),
                ("b", 0, lambda: W.Result(0.010, True))]


def test_round_seconds_weights_kinds_by_count():
    wl = Fake({}, 0, "")
    records = run.run_ops(wl, 0.0, None, Speed("fraction"))
    assert [(r["kind"], r["inst"]) for r in records] == [("a", 0), ("a", 1), ("b", 0)]
    # kind a: mean of its inputs (1 ms, 3 ms) twice per round; kind b once
    assert run.round_seconds(wl, records, "seconds") == pytest.approx(2 * 0.002 + 0.010)


def test_timing_summary_reports_percentile_with_ten_beyond():
    assert "p90" in run.timing_summary(list(range(100)))
    assert set(run.timing_summary(list(range(19)))) == {"n", "p50", "mean"}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_every_declared_metric(trace, capsys):
    before = {k for k in os.environ if k.startswith("POLYVOR_")}
    code = run.main(["--workload", "exact", "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 34
    spec = benchmark_spec()["end_to_end" if trace == 0 else "per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    attrs = json.loads(lines[-2])["attributes"]
    assert attrs["environment"]["backend"] in ("numpy", "numba")
    assert {k for k in os.environ if k.startswith("POLYVOR_")} == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
