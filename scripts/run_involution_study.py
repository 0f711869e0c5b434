#!/usr/bin/env python3
"""Compare labor-cost-per-order dynamics under imitation vs. fixed hours.

Runs the same seeded world twice: once with riders imitating the previous
day's top earner (widening their shift each day) and once with constant
shifts. Writes both traces, the metric CSVs, and a full analysis bundle for
the imitation run, then prints the daily index side by side.

Usage: python scripts/run_involution_study.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

from intentsim.backends.scripted import ScriptedBackend, ScriptedPolicy
from intentsim.config import SimConfig
from intentsim.engine import run_simulation
from intentsim.metrics import fold_events, involution_index, write_metrics_reports
from intentsim.pipeline import AnalysisOptions, analyze_trace_events, write_analysis_outputs
from intentsim.trace import load_trace

STUDY_CONFIG = dict(
    grid_size=50,
    total_steps=1320,  # 11 days; day 0 is the pre-imitation baseline
    steps_per_day=120,
    n_riders=100,
    base_order_rate=2.5,
    peak_multiplier=2.0,
    wage_rate=1.0,
    seed=42,
)

SCENARIOS = {
    "imitate": ScriptedPolicy("imitate_top_ranked", {"delta": 1, "day0": (10, 13)}),
    "fixed": ScriptedPolicy("fixed_hours", {"start": 10, "end": 13}),
}


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("involution_study")
    out.mkdir(parents=True, exist_ok=True)
    config = SimConfig(**STUDY_CONFIG)
    series = {}
    for name, hours_policy in SCENARIOS.items():
        backend = ScriptedBackend(
            hours_policy=hours_policy,
            selection_policy=ScriptedPolicy("greedy_nearest"),
        )
        trace_path = out / f"{name}.trace.jsonl"
        print(f"simulating scenario '{name}' -> {trace_path}")
        run_simulation(config, backend, trace_path)
        events = load_trace(trace_path).events
        series[name] = involution_index(fold_events(events))
        write_metrics_reports(events, out / f"metrics_{name}", window_ticks=config.steps_per_day)

    print("\nanalyzing the imitation run (intentions, clusters, diagram)")
    events = load_trace(out / "imitate.trace.jsonl").events
    result = analyze_trace_events(
        events, AnalysisOptions(k=5, theta=0.8, window_ticks=config.steps_per_day * 4)
    )
    write_analysis_outputs(result, out / "analysis_imitate")
    print(f"  {len(result.repository)} intentions, {len(result.diagram.points)} emergence points")
    for cluster_id, label in sorted(result.diagram.cluster_labels.items()):
        print(f"  cluster {cluster_id}: {label[:100]}")

    print("\nday  imitate-index  fixed-index")
    for day in series["imitate"].days:
        print(
            f"{day:>3}  {series['imitate'].index[day]:>13.2f}  "
            f"{series['fixed'].index[day]:>11.2f}"
        )
    ramp = series["imitate"].index
    print(f"\nimitate day10/day1 ratio: {ramp[10] / ramp[1]:.2f}")
    flat = series["fixed"].index
    print(f"fixed   day10/day1 ratio: {flat[10] / flat[1]:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
