"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the
repository root.  They run the smoke mode and the missing-sources guard; the
package's own tests live under ``tests/``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_metric_names_and_units_match_spec():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr


def test_metric_map_covers_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((HERE / "metric_map.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(mapping["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == set(mapping["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} == set(mapping["operations"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
