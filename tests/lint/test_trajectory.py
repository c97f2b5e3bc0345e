"""``benchmarks/trajectory.py`` reads the committed ``BENCH_*.json`` ledger."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
READER_PATH = ROOT / "benchmarks" / "trajectory.py"


@pytest.fixture(scope="module")
def reader():
    spec = importlib.util.spec_from_file_location("trajectory", READER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench(pairs, metrics):
    return {
        "end_to_end": {
            "video_64": {
                "pairs": pairs,
                "metrics": {
                    name: {
                        "parent": {"median": parent},
                        "change": {"median": change},
                        "change_wins": wins,
                    }
                    for name, (parent, change, wins) in metrics.items()
                },
            }
        }
    }


@pytest.fixture
def ledger(tmp_path):
    files = {
        "BENCH_9.json": bench(10, {"cpu_s_per_frame": (0.4, 0.3, 9), "psnr_db": (27.0, 27.0, 0)}),
        "BENCH_10.json": bench(8, {"cpu_s_per_frame": (0.3, 0.2, 8)}),
        "notes.json": {"end_to_end": {}},
    }
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    return tmp_path


def test_rows_are_ordered_by_pr_not_by_name(reader, ledger):
    benches = reader.load_trajectory(ledger)
    assert list(benches) == [9, 10]
    rows = reader.trajectory_rows(benches, metric="cpu_s_per_frame")
    assert [(row["pr"], row["parent"], row["change"]) for row in rows] == [
        (9, 0.4, 0.3),
        (10, 0.3, 0.2),
    ]
    assert rows[0]["change_pct"] == pytest.approx(-25.0)
    assert (rows[1]["wins"], rows[1]["pairs"]) == (8, 8)


def test_main_prints_every_metric(reader, ledger, capsys):
    assert reader.main(["--root", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "video_64 cpu_s_per_frame" in out and "video_64 psnr_db" in out
    assert "-25.0" in out and "9/10" in out


def test_main_fails_on_no_match(reader, ledger):
    assert reader.main(["--root", str(ledger), "--workload", "mosaic_256"]) == 1


def test_committed_ledger_reads(reader):
    benches = reader.load_trajectory(ROOT)
    assert benches, "no BENCH_*.json at the repository root"
    rows = reader.trajectory_rows(benches, workload="video_64", metric="cpu_s_per_frame")
    assert [row["pr"] for row in rows] == list(benches)
    mosaic = reader.trajectory_rows(benches, workload="mosaic_256", metric="cpu_s_per_frame")
    (amp,) = [row for row in mosaic if row["pr"] == 37]
    assert amp["wins"] == amp["pairs"] == 10
