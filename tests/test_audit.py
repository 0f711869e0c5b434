import json

import pytest

from intentsim.audit import audit_trace
from intentsim.backends.scripted import ScriptedBackend
from intentsim.config import SimConfig
from intentsim.engine import run_simulation
from intentsim.errors import AuditError
from intentsim.trace import TraceEvent, load_trace


@pytest.fixture(scope="module")
def clean_trace(tmp_path_factory):
    cfg = SimConfig(grid_size=40, total_steps=360, steps_per_day=120, n_riders=6,
                    base_order_rate=1.5, seed=21)
    path = tmp_path_factory.mktemp("audit") / "t.jsonl"
    run_simulation(cfg, ScriptedBackend(), path)
    return path


def tamper(path, tmp_path, mutate):
    """Apply `mutate(event_dict) -> bool` to the first event it accepts."""
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        data = json.loads(lines[i])
        if mutate(data):
            lines[i] = json.dumps(data, sort_keys=True, separators=(",", ":"))
            break
    out = tmp_path / "tampered.jsonl"
    out.write_text("\n".join(lines) + "\n")
    return out


def test_clean_trace_passes(clean_trace):
    report = audit_trace(load_trace(clean_trace).events)
    assert report.orders_delivered > 0


def test_sim_start_without_config_rejected(clean_trace):
    events = load_trace(clean_trace).events
    start = events[0]
    bare = TraceEvent(start.seq, start.tick, start.kind,
                      {k: v for k, v in start.payload.items() if k != "config"})
    with pytest.raises(AuditError, match="carrying the config"):
        audit_trace([bare, *events[1:]])
    with pytest.raises(AuditError, match="carrying the config"):
        audit_trace(events[1:])


def test_speed_cap_violation_detected(tmp_path):
    from intentsim.config import config_digest
    from intentsim.trace import TraceEvent, TraceHeader, write_trace

    cfg = SimConfig(grid_size=40, total_steps=120, steps_per_day=120, n_riders=1,
                    base_order_rate=0.0, max_move_per_step=30, seed=1)
    events = [
        TraceEvent(0, 0, "sim_start", {"config": cfg.to_dict(), "backend": {},
                                       "rider_start": {"0": [0, 0]}}),
        TraceEvent(1, 1, "position", {"agent": 0, "x": 31, "y": 0, "held": 0}),
        TraceEvent(2, 120, "sim_end", {}),
    ]
    path = tmp_path / "speed.jsonl"
    write_trace(path, TraceHeader(1, config_digest(cfg), cfg.seed), events)
    with pytest.raises(AuditError, match="moved 31"):
        audit_trace(load_trace(path).events)


def test_held_count_tamper_detected(clean_trace, tmp_path):
    def mutate(data):
        if data["kind"] == "position":
            data["payload"]["held"] += 1
            return True
        return False

    with pytest.raises(AuditError, match="held-count"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def test_out_of_grid_position_detected(clean_trace, tmp_path):
    def mutate(data):
        if data["kind"] == "position":
            data["payload"]["x"] = 40
            return True
        return False

    with pytest.raises(AuditError, match="outside grid"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def test_double_creation_detected(clean_trace, tmp_path):
    first_created = {}

    def mutate(data):
        if data["kind"] == "order_event" and data["payload"]["event"] == "created":
            if not first_created:
                first_created["id"] = data["payload"]["order"]
                return False
            data["payload"]["order"] = first_created["id"]
            return True
        return False

    with pytest.raises(AuditError, match="created twice|illegal transition"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def test_skipped_pickup_detected(clean_trace, tmp_path):
    def mutate(data):
        if data["kind"] == "order_event" and data["payload"]["event"] == "picked_up":
            data["payload"]["event"] = "delivered"
            data["payload"]["payment"] = 1.0
            return True
        return False

    with pytest.raises(AuditError, match="illegal transition|held-count|earnings"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def test_earnings_mismatch_detected(clean_trace, tmp_path):
    def mutate(data):
        if data["kind"] == "sim_end":
            riders = data["payload"]["riders"]
            busiest = max(riders, key=lambda k: riders[k]["earnings"])
            riders[busiest]["earnings"] += 1.0
            return True
        return False

    with pytest.raises(AuditError, match="earnings"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def test_accrual_mismatch_detected(clean_trace, tmp_path):
    def mutate(data):
        if data["kind"] == "cost_accrual":
            data["payload"]["amount"] += 0.5
            return True
        return False

    with pytest.raises(AuditError, match="accrual"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def rename_key(summary, key):
    summary[key.title()] = summary.pop(key)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: rename_key(s, "earnings"), "has no 'earnings'"),
        (lambda s: rename_key(s, "labor_cost"), "has no 'labor_cost'"),
        (lambda s: rename_key(s, "orders_completed"), "has no 'orders_completed'"),
        (lambda s: rename_key(s, "distance_ridden"), "has no 'distance_ridden'"),
        (lambda s: s.update(earnings=str(s["earnings"])), "'earnings' is not a number"),
    ],
    ids=["earnings", "labor_cost", "orders_completed", "distance_ridden", "string_earnings"],
)
def test_malformed_rider_summary_names_rider(clean_trace, tmp_path, edit, message):
    def mutate(data):
        if data["kind"] == "sim_end":
            edit(data["payload"]["riders"]["2"])
            return True
        return False

    with pytest.raises(AuditError, match=f"rider 2 sim_end summary {message}"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda starts: starts.update({"0": [12.5]}), "rider_start does not map"),
        (lambda starts: starts.update({"x": starts.pop("0")}), "rider_start does not map"),
    ],
    ids=["one_element_point", "named_rider"],
)
def test_malformed_rider_start_rejected(clean_trace, tmp_path, edit, message):
    def mutate(data):
        if data["kind"] == "sim_start":
            edit(data["payload"]["rider_start"])
            return True
        return False

    with pytest.raises(AuditError, match=message):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def test_sim_end_without_rider_summaries_rejected(clean_trace, tmp_path):
    def mutate(data):
        if data["kind"] == "sim_end":
            data["payload"]["riderz"] = data["payload"].pop("riders")
            return True
        return False

    with pytest.raises(AuditError, match="sim_end riders does not map"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)
