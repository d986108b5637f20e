"""Self-tests of the benchmark:  python3 -m pytest perfbench -q  (from the repo root)."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import layertrace
import run
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _last_json_line(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"), "--workload",
         "table1_image", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    result = _last_json_line(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected


AXIS = workloads.GRID_MIN + 0.001 * np.arange(201)  # the table1_image grid axis


def _write_csv_map(path, ix, iy):
    """A map CSV in smig's layout whose only maximum is at grid point (ix, iy)."""
    gx, gy = np.meshgrid(AXIS, AXIS, indexing="ij")
    values = np.exp(-((gx - AXIS[ix]) ** 2 + (gy - AXIS[iy]) ** 2) / 1e-4)
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for i, x in enumerate(AXIS):
            for j, y in enumerate(AXIS):
                fh.write("%r,%r,%r\n" % (float(x), float(y), float(values[i, j])))
    return float(AXIS[ix]), float(AXIS[iy])


def _image_results(loc, peak):
    stdout = "argmax_x_m=%r argmax_y_m=%r peak=%r rank_used=1 files=map.csv\n" % (
        loc[0], loc[1], peak)
    return [(["image"], (0, stdout, ""))]


def test_corrupted_map_counts_as_failed_op(tmp_path):
    workload = workloads.WORKLOADS["table1_image"]
    path = str(tmp_path / "map.csv")
    center = _write_csv_map(path, 110, 130)  # (0.01, 0.03)
    request = workloads.Request([["image"]], center, str(tmp_path))
    assert workload.check(request, _image_results(center, 1.0)) is None

    moved = _write_csv_map(path, 120, 130)  # argmax 1 cm off
    assert workload.check(request, _image_results(center, 1.0)) is not None  # file disagrees
    assert workload.check(request, _image_results(moved, 1.0)) is not None  # outside 2 mm

    counted = run.Run(workload)
    counted.check(request, _image_results(moved, 1.0))
    assert (counted.attempted, counted.failed) == (1, 1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_argv(name):
    workload = workloads.WORKLOADS[name]

    def first(seed):
        stream = workloads.requests(workload, seed, "out")
        return [next(stream).calls for _ in range(4)]

    assert first(7) == first(7)
    assert first(7) != first(8)


@pytest.mark.parametrize("name", ["table1_image", "synth_validate"])
def test_traced_self_times_sum_to_wall_time(name, tmp_path):
    modules = run.load_smig()
    workload = workloads.WORKLOADS[name]
    request = next(workloads.requests(workload, 5, str(tmp_path)))
    tracer = layertrace.Tracer(modules)
    tracer.install()
    try:
        wall, results = run.execute(modules["cli"], request.calls)
    finally:
        tracer.uninstall()
    assert workload.check(request, results) is None
    assert not hasattr(modules["cli"].main, "__wrapped__")  # uninstall restored it
    roots = [span for span in tracer.spans if span.parent is None]
    assert [span.name for span in roots] == ["cli.main"] * len(request.calls)
    total = sum(layertrace.self_times(tracer.spans))
    assert abs(total - wall) <= 0.05 * wall
    metrics = layertrace.layer_metrics(tracer.spans, 1)
    layer_sum = sum(metrics["%s.self_s" % layer] for layer in layertrace.LAYERS)
    assert math.isclose(layer_sum, total, rel_tol=1e-9)
