import filecmp

import pytest

from intentsim.audit import audit_trace
from intentsim.backends.scripted import ScriptedBackend, ScriptedPolicy
from intentsim.config import SimConfig
from intentsim.engine import SimulationSession, replay_simulation, run_simulation, step_world
from intentsim.trace import load_trace
from intentsim.world import ASSIGNED, PICKED_UP, Order, Position, init_world, world_digest


def small_config(**overrides):
    base = dict(grid_size=40, total_steps=240, steps_per_day=120, n_riders=4,
                base_order_rate=0.8, seed=11)
    base.update(overrides)
    return SimConfig(**base)


class NullWriter:
    """A trace writer that drops every event."""

    def emit(self, kind, tick, payload):
        pass


def fixed_backend(start=0, end=23):
    return ScriptedBackend(
        hours_policy=ScriptedPolicy("fixed_hours", {"start": start, "end": end}),
        selection_policy=ScriptedPolicy("greedy_nearest"),
    )


def test_idle_world_only_generates_and_ticks():
    # All riders off shift: orders appear, nothing else changes.
    cfg = small_config(base_order_rate=2.0)
    world = init_world(cfg)
    # start == end: never works
    session = SimulationSession(world, fixed_backend(start=5, end=5), NullWriter())
    digest_riders_before = [(r.position, r.earnings, r.held_orders[:]) for r in world.riders]
    for _ in range(10):
        step_world(world, session)
    assert world.tick == 10
    assert world.next_order_id > 0
    for r, before in zip(world.riders, digest_riders_before):
        assert (r.position, r.earnings, r.held_orders) == before
        assert r.ticks_worked_today == 0
        assert r.labor_cost == 0.0


def test_rider_adjacent_to_pickup_picks_up_after_step():
    cfg = small_config(base_order_rate=0.0, n_riders=1)
    world = init_world(cfg)
    rider = world.riders[0]
    rider.position = Position(5, 5)
    order = Order(id=0, pickup=Position(6, 5), dropoff=Position(30, 30),
                  payment=7.5, created_tick=0, state=ASSIGNED, rider_id=0)
    world.order_book[0] = order
    world.next_order_id = 1
    rider.held_orders.append(0)
    step_world(world, SimulationSession(world, fixed_backend(), NullWriter()))
    assert order.state == PICKED_UP
    assert rider.position == Position(6, 5)


def test_delivery_credits_exact_payment():
    cfg = small_config(base_order_rate=0.0, n_riders=1)
    world = init_world(cfg)
    rider = world.riders[0]
    rider.position = Position(5, 5)
    order = Order(id=0, pickup=Position(5, 5), dropoff=Position(8, 5),
                  payment=9.25, created_tick=0, state=PICKED_UP, rider_id=0)
    world.order_book[0] = order
    world.next_order_id = 1
    rider.held_orders.append(0)
    step_world(world, SimulationSession(world, fixed_backend(), NullWriter()))
    assert order.state == "delivered"
    assert rider.earnings == 9.25
    assert rider.orders_completed == 1
    assert rider.held_orders == []


def test_full_run_digest_reproducible(tmp_path):
    cfg = small_config()
    first = run_simulation(cfg, fixed_backend(8, 18), tmp_path / "a.jsonl")
    second = run_simulation(cfg, fixed_backend(8, 18), tmp_path / "b.jsonl")
    assert world_digest(first) == world_digest(second)
    assert filecmp.cmp(tmp_path / "a.jsonl", tmp_path / "b.jsonl", shallow=False)


def test_trace_replay_byte_identical(tmp_path):
    cfg = small_config(base_order_rate=1.2)
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 1, "day0": [9, 15]}),
        selection_policy=ScriptedPolicy("route_optimizer"),
    )
    original = tmp_path / "orig.jsonl"
    replayed = tmp_path / "replay.jsonl"
    run_simulation(cfg, backend, original)
    replay_simulation(original, replayed)
    assert original.read_bytes() == replayed.read_bytes()


def test_medium_run_passes_audit(tmp_path):
    cfg = small_config(n_riders=6, base_order_rate=1.5, total_steps=360)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), path)
    report = audit_trace(load_trace(path).events)
    assert report.orders_created > 0
    assert report.orders_delivered > 0
    assert report.max_displacement <= cfg.max_move_per_step


def test_thought_events_accompany_decisions(tmp_path):
    cfg = small_config(total_steps=120)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), path)
    events = load_trace(path).events
    decisions = [e for e in events if e.kind == "decision"]
    thoughts = [e for e in events if e.kind == "thought"]
    assert len(decisions) == len(thoughts)
    assert all(not t.payload["missing"] for t in thoughts)
    assert all(t.payload["bounded"] and t.payload["rational"] for t in thoughts)


def test_no_inspector_drops_bounded_texts(tmp_path):
    cfg = small_config(total_steps=120)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), path, inspector=False)
    thoughts = [e for e in load_trace(path).events if e.kind == "thought"]
    assert thoughts
    assert all(t.payload["bounded"] == "" for t in thoughts)
    assert all(t.payload["rational"] for t in thoughts)


def test_work_hours_decided_once_per_day(tmp_path):
    cfg = small_config(total_steps=240, n_riders=3)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), path)
    events = load_trace(path).events
    hour_decisions = [
        e for e in events if e.kind == "decision" and e.payload["decision"] == "work_hours"
    ]
    assert len(hour_decisions) == 2 * 3  # two days, three riders
    assert {e.tick for e in hour_decisions} == {0, 120}


def test_imitation_converges_on_leader_hours():
    cfg = small_config(n_riders=5, base_order_rate=0.0, total_steps=240)
    world = init_world(cfg)
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 1, "day0": (10, 13)}),
    )
    session = SimulationSession(world, backend, NullWriter())
    for _ in range(121):  # through the second day's decision point
        step_world(world, session)
    # Day 0 ends with everyone on (10, 13); day 1 widens the leader's hours.
    assert all((r.shift_start, r.shift_end) == (9, 14) for r in world.riders)


def test_failing_backend_falls_back_and_logs(tmp_path):
    from intentsim.errors import BackendError

    class FailingHoursBackend(ScriptedBackend):
        def decide_work_hours_batch(self, contexts):
            return [BackendError("synthetic failure") for _ in contexts]

    cfg = small_config(total_steps=120, n_riders=2)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, FailingHoursBackend(), path)
    events = load_trace(path).events
    warnings = [e for e in events if e.kind == "warning"]
    assert len(warnings) >= 2
    thoughts = [e for e in events if e.kind == "thought" and e.payload["decision"] == "work_hours"]
    assert all(t.payload["missing"] for t in thoughts)
    # Riders kept their initial persona hours.
    decisions = [e for e in events if e.kind == "decision" and e.payload["decision"] == "work_hours"]
    assert decisions


def test_backend_raising_mid_run_leaves_previous_trace(tmp_path):
    # The trace used to be written in place, so a run that raised left a
    # truncated file behind.
    class CrashingBackend(ScriptedBackend):
        def decide_work_hours_batch(self, contexts):
            if contexts[0].current_tick:
                raise RuntimeError("backend crashed")
            return super().decide_work_hours_batch(contexts)

    cfg = small_config(total_steps=240)
    kept, fresh = tmp_path / "kept.jsonl", tmp_path / "fresh.jsonl"
    run_simulation(cfg, ScriptedBackend(), kept)
    before = kept.read_bytes()
    for path in (kept, fresh):
        with pytest.raises(RuntimeError, match="backend crashed"):
            run_simulation(cfg, CrashingBackend(), path)
    assert kept.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl"]


def test_rider_stops_selecting_at_cap(tmp_path):
    cfg = small_config(n_riders=1, base_order_rate=3.0, total_steps=120, order_cap=2)
    path = tmp_path / "t.jsonl"
    run_simulation(cfg, fixed_backend(), path)
    events = load_trace(path).events
    for event in events:
        if event.kind == "position":
            assert event.payload["held"] <= 2
    audit_trace(events)


def test_session_starts_at_a_day_boundary():
    # The first tick of a session ranks the day before it, so a session
    # cannot start mid-day.
    world = init_world(small_config())
    world.tick = 5
    with pytest.raises(ValueError, match="day boundary, not at tick 5"):
        SimulationSession(world, fixed_backend(), NullWriter())
    world.tick = 120
    session = SimulationSession(world, fixed_backend(), NullWriter())
    step_world(world, session)
    assert session.stats is not None and world.tick == 121
