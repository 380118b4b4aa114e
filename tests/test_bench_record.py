"""How ``tools/bench_record.py`` turns benchmark results into a record."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MACHINE = {"nproc": 2, "sparse_lu": "SuperLU (scipy), single-threaded"}


def _result(name, walls, trace):
    # the keys run.py writes that the record reads, plus one it drops
    result = {"workload": name, "seed": 0, "passes": len(walls),
              "pass_walls_s": walls, "setup_s": 0.4, "peak_rss_mb": 750.0,
              "pass_frac": 1.0, "machine": MACHINE, "failures": {}}
    if trace:
        result["layer_metrics"] = {"saddle.lu_nnz": 23_115_290,
                                   "saddle.factor_s": 2.5}
    return result


def test_record_carries_median_iqr_and_lu_fill():
    tool = _load_tool()
    walls = [4.0, 3.0, 5.0, 3.5, 6.0]
    untraced = {"solve-256": _result("solve-256", walls, 0),
                "ladder-suite": _result("ladder-suite", [2.4], 0)}
    traced = {name: _result(name, [1.0, 1.2], 1) for name in untraced}
    record = tool.baseline(untraced, traced, "abc123", False)
    assert set(record) == {"revision", "dirty", "seed", "machine",
                           "workloads"}
    assert (record["revision"], record["dirty"], record["seed"]) == \
        ("abc123", False, 0)
    assert record["machine"] == MACHINE
    assert list(record["workloads"]) == ["solve-256", "ladder-suite"]
    solve = record["workloads"]["solve-256"]
    assert set(solve) == {"passes", "pass_walls_s", "wall_s", "setup_s",
                          "peak_rss_mb", "pass_frac", "layer_metrics"}
    # sorted walls 3.0, 3.5, 4.0, 5.0, 6.0: inclusive quartiles 3.5 and 5.0
    assert solve["wall_s"] == {"median": 4.0, "iqr": pytest.approx(1.5)}
    assert solve["pass_walls_s"] == walls and solve["passes"] == 5
    assert (solve["setup_s"], solve["peak_rss_mb"], solve["pass_frac"]) == \
        (0.4, 750.0, 1.0)
    assert solve["layer_metrics"]["saddle.lu_nnz"] == 23_115_290
    # one pass has no spread
    assert record["workloads"]["ladder-suite"]["wall_s"] == \
        {"median": 2.4, "iqr": 0.0}
