import pytest

from intentsim.backends.scripted import ScriptedBackend
from intentsim.config import SimConfig, config_digest
from intentsim.engine import run_simulation
from intentsim.metrics import (
    effective_hours,
    fold_events,
    hours_vs_orders,
    involution_index,
    position_heatmap,
    write_metrics_reports,
)
from intentsim.trace import TraceEvent, TraceHeader, load_trace, write_trace


def synthetic_trace(tmp_path, positions, config_overrides=None, extra_events=()):
    """Build a hand-written trace: positions is [(tick, agent, x, y, held)]."""
    overrides = {"grid_size": 16, "total_steps": 120, "steps_per_day": 120,
                 "n_riders": 2, "seed": 1}
    overrides.update(config_overrides or {})
    cfg = SimConfig(**overrides)
    events = [TraceEvent(0, 0, "sim_start", {"config": cfg.to_dict(), "backend": {}, "rider_start": {}})]
    seq = 1
    items = sorted(
        [("position", t, {"agent": a, "x": x, "y": y, "held": h}) for t, a, x, y, h in positions]
        + list(extra_events),
        key=lambda item: item[1],
    )
    for kind, tick, payload in items:
        events.append(TraceEvent(seq, tick, kind, payload))
        seq += 1
    events.append(TraceEvent(seq, cfg.total_steps, "sim_end", {}))
    path = tmp_path / "synthetic.jsonl"
    write_trace(path, TraceHeader(1, config_digest(cfg), cfg.seed), events)
    return load_trace(path).events


def test_involution_simple_division(tmp_path):
    events = synthetic_trace(
        tmp_path,
        positions=[],
        extra_events=[
            ("cost_accrual", 119, {"agent": 0, "amount": 500.0, "ticks": 100}),
        ]
        + [
            ("order_event", 50 + i, {"event": "delivered", "order": i, "agent": 0, "payment": 1.0})
            for i in range(10)
        ],
    )
    series = involution_index(fold_events(events))
    assert series.index[0] == 50.0
    assert series.delivered == [10]


def test_involution_zero_delivery_day_flagged(tmp_path):
    events = synthetic_trace(
        tmp_path,
        positions=[],
        extra_events=[("cost_accrual", 119, {"agent": 0, "amount": 77.0, "ticks": 77})],
    )
    series = involution_index(fold_events(events))
    assert series.index[0] == 77.0  # divisor clamped to 1
    assert (series.days, series.delivered) == ([0], [0])  # kept, not dropped


def test_involution_linear_in_wage(tmp_path):
    def run(wage):
        cfg = SimConfig(grid_size=30, total_steps=240, steps_per_day=120, n_riders=4,
                        base_order_rate=1.0, wage_rate=wage, seed=3)
        path = tmp_path / f"w{wage}.jsonl"
        run_simulation(cfg, ScriptedBackend(), path)
        return involution_index(fold_events(load_trace(path).events))

    single = run(1.0)
    double = run(2.0)
    assert single.delivered == double.delivered  # identical behavior
    for a, b in zip(single.index, double.index):
        assert b == pytest.approx(2.0 * a, rel=1e-9)


def test_heatmap_stationary_rider(tmp_path):
    events = synthetic_trace(
        tmp_path, positions=[(t, 0, 5, 5, 0) for t in range(10)]
    )
    grid = position_heatmap(fold_events(events, window_ticks=120), window=0)
    assert grid.counts[5][5] == 10
    assert sum(sum(row) for row in grid.counts) == 10


def test_heatmap_mass_conservation(tmp_path):
    cfg = SimConfig(grid_size=30, total_steps=120, steps_per_day=120, n_riders=5,
                    base_order_rate=1.0, seed=2)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), path)
    events = load_trace(path).events
    n_positions = sum(1 for e in events if e.kind == "position" and 0 <= e.tick < 120)
    grid = position_heatmap(fold_events(events, window_ticks=120), window=0)
    assert sum(sum(row) for row in grid.counts) == n_positions


def test_heatmap_empty_window_zero_grid(tmp_path):
    events = synthetic_trace(tmp_path, positions=[])
    grid = position_heatmap(fold_events(events, window_ticks=120), window=0)
    assert sum(sum(row) for row in grid.counts) == 0


def test_heatmap_downsampling_averages_blocks(tmp_path):
    events = synthetic_trace(tmp_path, positions=[(t, 0, 1, 1, 0) for t in range(8)])
    grid = position_heatmap(fold_events(events, window_ticks=120), window=0, downsample=4)
    assert [len(row) for row in grid.counts] == [4] * 4
    assert grid.counts[0][0] == 8 / 16.0


@pytest.mark.parametrize("downsample", [0, -3])
def test_heatmap_refuses_non_positive_downsample(tmp_path, downsample):
    # 0 used to end in ZeroDivisionError; only write_metrics_reports checked.
    totals = fold_events(synthetic_trace(tmp_path, positions=[]), window_ticks=120)
    with pytest.raises(ValueError, match=f"downsample must be > 0, got {downsample}"):
        position_heatmap(totals, 0, downsample=downsample)


def test_effective_hours_half_holding(tmp_path):
    # 120 at-work ticks at 120 ticks/day, 60 of them holding an order:
    # total 24h, effective 12h.
    positions = [(t, 0, 3, 3, 1 if t < 60 else 0) for t in range(120)]
    events = synthetic_trace(tmp_path, positions=positions, config_overrides={"n_riders": 1})
    rows = effective_hours(fold_events(events), day=0)
    assert rows[0].total_hours_worked == 24.0
    assert rows[0].effective_hours == 12.0


def test_effective_hours_idle_rider_zero_row(tmp_path):
    events = synthetic_trace(tmp_path, positions=[(5, 0, 1, 1, 0)])
    rows = effective_hours(fold_events(events), day=0)
    idle = rows[1]
    assert (idle.total_hours_worked, idle.effective_hours, idle.total_orders) == (0.0, 0.0, 0)


def test_effective_never_exceeds_total(tmp_path):
    cfg = SimConfig(grid_size=30, total_steps=240, steps_per_day=120, n_riders=6,
                    base_order_rate=1.5, seed=4)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), path)
    totals = fold_events(load_trace(path).events)
    for day in range(2):
        for row in effective_hours(totals, day):
            assert row.effective_hours <= row.total_hours_worked + 1e-9


def test_hours_vs_orders_empty_trace(tmp_path):
    events = synthetic_trace(tmp_path, positions=[], config_overrides={"n_riders": 0})
    assert hours_vs_orders(fold_events(events)) == []


def test_hours_vs_orders_single_agent_totals(tmp_path):
    positions = [(t, 0, 2, 2, 0) for t in range(10)]
    extra = [("order_event", 9, {"event": "delivered", "order": 0, "agent": 0, "payment": 5.0})]
    events = synthetic_trace(
        tmp_path, positions=positions, extra_events=extra, config_overrides={"n_riders": 1}
    )
    rows = hours_vs_orders(fold_events(events))
    assert rows == [(0, 10 * 24.0 / 120, 1)]


def test_hours_vs_orders_spearman_on_monotone_scenario(tmp_path):
    # Persona shifts vary in length; demand is rich enough that longer
    # shifts always see offers, so rank correlation must be strong.
    cfg = SimConfig(grid_size=50, total_steps=1200, steps_per_day=120, n_riders=30,
                    base_order_rate=6.0, peak_multiplier=2.0, seed=5)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), path)
    rows = hours_vs_orders(fold_events(load_trace(path).events))
    hours = [r[1] for r in rows]
    orders = [r[2] for r in rows]
    assert spearman(hours, orders) > 0.8


def spearman(xs, ys):
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for t in range(i, j + 1):
                out[order[t]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den


def test_reports_are_byte_stable(tmp_path):
    cfg = SimConfig(grid_size=30, total_steps=240, steps_per_day=120, n_riders=4,
                    base_order_rate=1.0, seed=6)
    trace_path = tmp_path / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), trace_path)
    events = load_trace(trace_path).events
    first = write_metrics_reports(events, tmp_path / "r1", window_ticks=120)
    second = write_metrics_reports(events, tmp_path / "r2", window_ticks=120)
    assert first.keys() == second.keys()
    for name, path in first.items():
        assert path.name == name and path.read_bytes() == second[name].read_bytes()
    names = set(first)
    assert {"involution.csv", "hours_vs_orders.csv", "effective_hours.csv"} <= names
