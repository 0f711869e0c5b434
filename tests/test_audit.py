import json
import re

import pytest

from intentsim.audit import audit_trace
from intentsim.backends.scripted import ScriptedBackend, ScriptedPolicy
from intentsim.config import SimConfig, config_digest
from intentsim.engine import run_simulation
from intentsim.errors import AuditError
from intentsim.metrics import write_metrics_reports
from intentsim.trace import TraceEvent, TraceHeader, load_trace

import fold_oracle
from trace_files import write_trace


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


def first(kind, edit, event=None):
    """A ``tamper`` mutation that applies ``edit`` to the payload of the first
    ``kind`` event (of the first order event ``event``, when given)."""
    def mutate(data):
        if data["kind"] != kind or event not in (None, data["payload"].get("event")):
            return False
        edit(data["payload"])
        return True
    return mutate


def hand_built(tmp_path, n_riders, events):
    """Read back a trace of ``(tick, kind, payload)`` events after a
    ``sim_start`` whose riders all start at (0, 0)."""
    cfg = SimConfig(grid_size=40, total_steps=120, steps_per_day=120, n_riders=n_riders,
                    base_order_rate=0.0, max_move_per_step=30, order_cap=1, seed=1)
    start = (0, "sim_start", {"config": cfg.to_dict(), "backend": {},
                              "rider_start": {str(r): [0, 0] for r in range(n_riders)}})
    path = tmp_path / "hand.jsonl"
    write_trace(path, TraceHeader(1, config_digest(cfg), cfg.seed),
                [TraceEvent(seq, *event) for seq, event in enumerate([start, *events])])
    return load_trace(path).events


def order(tick, what, oid, **fields):
    return tick, "order_event", {"event": what, "order": oid, **fields}


NEW = dict(pickup=[1, 1], dropoff=[2, 2], payment=10.0)
END = (120, "sim_end", {})


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
    events = hand_built(tmp_path, 1, [(1, "position", {"agent": 0, "x": 31, "y": 0, "held": 0}), END])
    with pytest.raises(AuditError, match="moved 31"):
        audit_trace(events)


@pytest.mark.parametrize(
    "n_riders, events, message",
    [
        (1, [order(1, "created", 0, **NEW), order(1, "created", 1, **NEW),
             order(1, "assigned", 0, agent=0), order(1, "assigned", 1, agent=0), END],
         "rider 0 exceeds order cap at tick 1"),
        (2, [order(1, "created", 0, **NEW), order(1, "assigned", 0, agent=0),
             order(2, "picked_up", 0, agent=0), order(3, "delivered", 0, agent=1, payment=10.0),
             END],
         "rider 1 delivered an unheld order 0"),
        (1, [(1, "position", {"agent": 0, "x": 0, "y": 0, "held": 0}),
             (120, "sim_end", {"orders_created": 0, "riders": {"0": {
                 "earnings": 0.0, "labor_cost": 1.0, "orders_completed": 0, "distance_ridden": 0}}})],
         "rider 0 accrual events sum to 0.0 but final labor cost is 1.0"),
    ],
    ids=["order_cap", "delivery_by_another_rider", "labor_cost_never_accrued"],
)
def test_hand_built_violation_detected(tmp_path, n_riders, events, message):
    with pytest.raises(AuditError, match=re.escape(message)):
        audit_trace(hand_built(tmp_path, n_riders, events))


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

    with pytest.raises(AuditError, match="created twice"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def test_skipped_pickup_detected(clean_trace, tmp_path):
    def mutate(data):
        if data["kind"] == "order_event" and data["payload"]["event"] == "picked_up":
            data["payload"]["event"] = "delivered"
            data["payload"]["payment"] = 1.0
            return True
        return False

    with pytest.raises(AuditError, match="illegal transition 'assigned' -> 'delivered'"):
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

    with pytest.raises(AuditError, match="accrual amount"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (first("order_event", lambda p: p.update(payment=99.0), "created"),
         r"order \d+ payment 99.0 outside range \[5.0, 15.0\]"),
        (first("order_event", lambda p: p.update(dropoff=[3, 40]), "created"),
         r"order \d+ endpoint \[3, 40\] outside grid"),
        (first("order_event", lambda p: p.update(payment=999.5), "delivered"),
         r"order \d+ delivered with payment 999.5, created with \d+\.\d+"),
        (first("cost_accrual", lambda p: p.update(ticks=p["ticks"] + 1)),
         r"cost accrual covers \d+ ticks but \d+ position events"),
        (first("sim_end", lambda p: p.update(orders_created=p["orders_created"] + 1)),
         r"sim_end reports \d+ orders, trace contains \d+"),
        (first("sim_end", lambda p: p["riders"]["2"].update(
            orders_completed=p["riders"]["2"]["orders_completed"] + 1)),
         "rider 2 completion count mismatch"),
        (first("sim_end", lambda p: p["riders"]["2"].update(
            distance_ridden=p["riders"]["2"]["distance_ridden"] + 1)),
         "rider 2 distance .* != sum of displacements"),
        (first("sim_end", lambda p: p["riders"]["2"].update(
            labor_cost=p["riders"]["2"]["labor_cost"] + 1.0)),
         "rider 2 labor cost .* != wage x at-work ticks"),
    ],
    ids=["payment", "endpoint", "delivered_payment", "accrual_ticks", "orders_created", "orders_completed",
         "distance_ridden", "labor_cost"],
)
def test_one_field_tamper_detected(clean_trace, tmp_path, mutate, message):
    with pytest.raises(AuditError, match=message):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


@pytest.mark.parametrize("payment", [{}, {"payment": "9.5"}, {"payment": None}],
                         ids=["missing", "string", "null"])
def test_delivered_without_number_payment_refused(clean_trace, payment):
    # The reader refuses such a line, but the auditor takes any event stream.
    events = load_trace(clean_trace).events
    at = next(i for i, event in enumerate(events)
              if event.kind == "order_event" and event.payload["event"] == "delivered")
    payload = {key: value for key, value in events[at].payload.items() if key != "payment"}
    events[at] = events[at]._replace(payload={**payload, **payment})
    with pytest.raises(AuditError, match=r"order \d+ delivered with payment "):
        audit_trace(events)


def rename_key(summary, key):
    summary[key.title()] = summary.pop(key)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda riders: rename_key(riders["2"], "earnings"), "has no 'earnings'"),
        (lambda riders: rename_key(riders["2"], "labor_cost"), "has no 'labor_cost'"),
        (lambda riders: rename_key(riders["2"], "orders_completed"), "has no 'orders_completed'"),
        (lambda riders: rename_key(riders["2"], "distance_ridden"), "has no 'distance_ridden'"),
        (lambda riders: riders["2"].update(earnings=str(riders["2"]["earnings"])),
         "'earnings' is not a number"),
        (lambda riders: riders.update({"2": [riders["2"]["earnings"]]}), "is not an object"),
    ],
    ids=["earnings", "labor_cost", "orders_completed", "distance_ridden", "string_earnings",
         "list_summary"],
)
def test_malformed_rider_summary_names_rider(clean_trace, tmp_path, edit, message):
    def mutate(data):
        if data["kind"] == "sim_end":
            edit(data["payload"]["riders"])
            return True
        return False

    with pytest.raises(AuditError, match=f"rider 2 sim_end summary {message}"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda starts: starts.update({"0": [12.5]}), "rider_start does not map"),
        (lambda starts: starts.update({"x": starts.pop("0")}), "rider_start does not map"),
        # str.isdecimal let "01" overwrite rider 1's start, and "٣" stand for rider 3.
        (lambda starts: starts.update({"01": [0, 0]}), "rider_start does not map"),
        (lambda starts: starts.update({"\u0663": starts.pop("3")}), "rider_start does not map"),
    ],
    ids=["one_element_point", "named_rider", "zero_padded_rider", "arabic_indic_rider"],
)
def test_malformed_rider_start_rejected(clean_trace, tmp_path, edit, message):
    def mutate(data):
        if data["kind"] == "sim_start":
            edit(data["payload"]["rider_start"])
            return True
        return False

    with pytest.raises(AuditError, match=message):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


@pytest.mark.parametrize("key", ["02", "\u0662", "-2"])
def test_sim_end_rider_id_spelled_otherwise_rejected(clean_trace, tmp_path, key):
    def mutate(data):
        if data["kind"] == "sim_end":
            riders = data["payload"]["riders"]
            riders[key] = riders.pop("2")
            return True
        return False

    with pytest.raises(AuditError, match="sim_end riders does not map"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def test_sim_end_without_rider_summaries_rejected(clean_trace, tmp_path):
    def mutate(data):
        if data["kind"] == "sim_end":
            data["payload"]["riderz"] = data["payload"].pop("riders")
            return True
        return False

    with pytest.raises(AuditError, match="sim_end riders does not map"):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


def test_position_of_a_rider_the_run_lacks_rejected(clean_trace, tmp_path):
    # Inserted right after sim_start, it used to pass: the ledger made a rider 99.
    lines = clean_trace.read_text().splitlines()
    events = [json.loads(line) for line in lines[1:]]
    events.insert(1, {"seq": 0, "tick": 0, "kind": "position",
                      "payload": {"agent": 99, "x": 0, "y": 0, "held": 0}})
    for seq, event in enumerate(events, start=events[0]["seq"]):
        event["seq"] = seq
    path = tmp_path / "inserted.jsonl"
    path.write_text("\n".join([lines[0], *(json.dumps(e, separators=(",", ":")) for e in events)]) + "\n")
    with pytest.raises(AuditError, match="rider 99 is not one of the run's 6 riders"):
        audit_trace(load_trace(path).events)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (first("order_event", lambda p: p.update(agent=-1), "assigned"), "rider -1 is not one"),
        (first("order_event", lambda p: p.update(agent=6), "picked_up"), "rider 6 is not one"),
        (first("cost_accrual", lambda p: p.update(agent=6)), "rider 6 is not one"),
        (first("sim_start", lambda p: p["rider_start"].pop("2")), "sim_start rider_start lacks rider 2"),
        (first("sim_start", lambda p: p["rider_start"].update({"6": [0, 0]})),
         "sim_start rider_start names rider 6, which the run does not have"),
        (first("sim_end", lambda p: p["riders"].pop("2")), "sim_end riders lacks rider 2"),
        (first("sim_end", lambda p: p["riders"].update({"6": {
            "earnings": 0.0, "labor_cost": 0.0, "orders_completed": 0, "distance_ridden": 0}})),
         "sim_end riders names rider 6, which the run does not have"),
    ],
    ids=["assigned_negative", "picked_up", "cost_accrual", "rider_start_lacks", "rider_start_extra",
         "sim_end_lacks", "sim_end_extra"],
)
def test_rider_the_run_lacks_rejected(clean_trace, tmp_path, mutate, message):
    with pytest.raises(AuditError, match=message):
        audit_trace(load_trace(tamper(clean_trace, tmp_path, mutate)).events)


@pytest.mark.parametrize("point, refused", [
    ([500, -3], True), ([10, 0], True), ([0, 10], True), ([-1, 0], True), ([9, 9], False), ([0, 0], False),
])
def test_rider_start_outside_grid_rejected(tmp_path, point, refused):
    # Only a move was checked, so a rider that never works could start anywhere.
    cfg = SimConfig(grid_size=10, total_steps=120, steps_per_day=120, n_riders=2,
                    base_order_rate=0.0, seed=3)
    path = tmp_path / "idle.jsonl"
    run_simulation(cfg, ScriptedBackend(ScriptedPolicy("fixed_hours", {"start": 5, "end": 5})), path)
    events = load_trace(tamper(path, tmp_path, first(
        "sim_start", lambda p: p["rider_start"].update({"0": point})))).events
    if refused:
        with pytest.raises(AuditError, match=re.escape(f"rider 0 start {point} outside grid")):
            audit_trace(events)
    else:
        assert audit_trace(events).position_events == 0


def mutations_of(test):
    """The ``mutate`` values of a test parametrized by ``mutate, message``."""
    (mark,) = test.pytestmark
    return [mutate for mutate, _message in mark.args[1]]


TAMPERS = [
    None,  # the clean trace
    first("position", lambda p: p.update(held=p["held"] + 1)),
    first("position", lambda p: p.update(x=40)),
    first("position", lambda p: p.update(x=(p["x"] + 1) % 40)),
    first("position", lambda p: p.update(agent=-1)),
    first("order_event", lambda p: p.update(event="delivered", payment=1.0), "picked_up"),
    first("order_event", lambda p: p.update(agent=7), "delivered"),
    first("cost_accrual", lambda p: p.update(amount=p["amount"] + 0.5)),
    first("sim_start", lambda p: p["rider_start"].update({"0": [12.5]})),
    *mutations_of(test_one_field_tamper_detected),
    *mutations_of(test_rider_the_run_lacks_rejected),
]


def outcome(fold, events):
    """What ``fold`` returns for the events, or the type and message of what it raises."""
    try:
        return fold(events)
    except Exception as exc:  # the comparison is of any refusal, whatever its type
        return type(exc), str(exc)


@pytest.mark.parametrize("mutate", TAMPERS)
def test_folds_match_their_oracle(clean_trace, tmp_path, mutate):
    path = clean_trace if mutate is None else tamper(clean_trace, tmp_path, mutate)
    events = load_trace(path).events
    assert outcome(audit_trace, events) == outcome(fold_oracle.audit_trace, events)

    def metrics_bytes(events):
        paths = write_metrics_reports(events, tmp_path / "metrics", window_ticks=50)
        return {name: path.read_bytes() for name, path in paths.items()}

    def oracle_bytes(events):
        texts = fold_oracle.metrics_texts(events, window_ticks=50)
        return {name: text.encode() for name, text in texts.items()}

    assert outcome(metrics_bytes, events) == outcome(oracle_bytes, events)
