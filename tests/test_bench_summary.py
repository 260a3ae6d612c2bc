"""tools/bench_summary.py: medians, quartiles and pair wins from perfbench records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary", ROOT / "tools" / "bench_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_runs(folder, commit, walls, rss=50.0):
    folder.mkdir()
    for seed, wall in walls.items():
        record = {"commit": commit, "source_digest": commit[::-1], "cpu": "test cpu", "nproc": 2}
        result = {
            "workload": "spectral_sweep",
            "seed": seed,
            "seconds": 30.0,
            "trace": 0,
            "metrics": {"wall_ref": wall, "peak_rss_mb": rss, "setup_s": None},
            "child": {"failed": 0, "record": record},
        }
        (folder / f"spectral_sweep-seed{seed}-trace0.json").write_text(json.dumps(result))
    (folder / "spans-spectral_sweep-seed1.jsonl").write_text("{}\n")


def test_summary_medians_quartiles_and_wins(tmp_path, bench_summary, capsys):
    _write_runs(tmp_path / "parent", "aaaa", {1: 10.0, 2: 12.0, 3: 11.0, 4: 13.0, 5: 14.0})
    _write_runs(tmp_path / "change", "bbbb", {1: 8.0, 2: 9.0, 3: 11.5, 4: 10.0, 6: 1.0}, rss=45.0)
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(tmp_path / "parent"), str(tmp_path / "change"), "-o", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["parent"]["commit"] == "aaaa"
    assert summary["change"]["source_digest"] == "bbbb"
    assert summary["parent"]["machine"] == {"cpu": "test cpu", "nproc": 2}
    workload = summary["workloads"]["spectral_sweep"]
    assert workload["seeds"] == [1, 2, 3, 4]
    wall = workload["metrics"]["wall_ref"]
    # Seeds 5 and 6 ran on one side only and are left out of every figure;
    # of the four pairs, seed 3 went to the parent.
    assert wall["parent"] == {"n": 4, "median": 11.5, "q1": 10.75, "q3": 12.25, "iqr": 1.5}
    assert wall["change"]["median"] == 9.5
    assert (wall["pairs"], wall["change_wins"]) == (4, 3)
    assert wall["median_rel_change"] == pytest.approx(-2.0 / 11.5)
    assert wall["gap_exceeds_parent_iqr"] is True
    assert workload["metrics"]["peak_rss_mb"]["parent"]["iqr"] == 0.0
    assert "setup_s" not in workload["metrics"]
    assert "wins 3/4" in capsys.readouterr().out


def test_summary_refuses_a_folder_without_records(tmp_path, bench_summary):
    (tmp_path / "empty").mkdir()
    with pytest.raises(SystemExit, match="no perfbench result records"):
        bench_summary.summarise(str(tmp_path / "empty"), str(tmp_path / "empty"))
