"""Smoke tests for the example scripts, which read the analysis API."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_election_demo_writes_bundle(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "demo"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_election_demo.py"), str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("transcript.jsonl", "mapping.json", "repository.jsonl", "clusters.csv",
                 "diagram.json", "diagram.dot", "diagram.svg", "analysis_events.jsonl"):
        assert (out / name).stat().st_size > 0, name
    assert "intentions in the repository" in proc.stdout
    assert "\ninfluence: cluster " in proc.stdout


def test_involution_study_runs(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_involution_study",
                                                  SCRIPTS / "run_involution_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the __main__ guard keeps main() from running
    assert set(module.SCENARIOS) == {"imitate", "fixed"}
    # A small world over the 11 days the script reads (it prints day 10).
    monkeypatch.setattr(module, "STUDY_CONFIG", dict(
        grid_size=12, total_steps=11 * 24, steps_per_day=24, peak_ticks_per_day=(12,),
        n_riders=4, base_order_rate=1.0, seed=42,
    ))
    monkeypatch.setattr(sys, "argv", ["run_involution_study.py", str(tmp_path)])
    assert module.main() == 0
    out = capsys.readouterr().out
    points = json.loads((tmp_path / "analysis_imitate" / "diagram.json").read_text())["points"]
    assert f" intentions, {len(points)} emergence points\n" in out
    assert "imitate day10/day1 ratio:" in out
