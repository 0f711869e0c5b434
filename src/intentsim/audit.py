"""Trace auditor: replays a full event stream and checks every simulation
invariant — the order lifecycle, movement speed and grid bounds, the hold
cap, and the earnings / labor-cost / distance accounting identities against
the final summary — with one ledger per rider of the run and one entry per
order."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AuditError
from .trace import FIELD_TYPES, NUMBER, field_error, is_int_key, is_point, start_config
from .world import manhattan

# Each later order event and the state it requires.
_BEFORE = {"assigned": "created", "picked_up": "assigned", "delivered": "picked_up"}


def _is_rider_id(key: str) -> bool:
    return is_int_key(key) and not key.startswith("-")


@dataclass
class AuditReport:
    events: int = 0
    orders_created: int = 0
    orders_delivered: int = 0
    position_events: int = 0
    max_displacement: int = 0


@dataclass(slots=True)
class _Rider:
    position: tuple[int, int] | None = None
    held: int = 0
    ticks: int = 0  # position events, i.e. ticks at work
    accrued_ticks: int = 0  # ``ticks`` at the last cost accrual
    accrued: float = 0.0
    earnings: float = 0.0
    delivered: int = 0
    distance: int = 0


def _rider(riders: dict[int, _Rider], agent: int) -> _Rider:
    """The ledger of ``agent``; the audit loop looks a rider up itself and
    calls this only on a miss (a ``_Rider`` is always true), so the refusal
    has one home."""
    rider = riders.get(agent)
    if rider is None:
        raise AuditError(f"rider {agent} is not one of the run's {len(riders)} riders")
    return rider


def _same_riders(where: str, keys, riders: dict[int, _Rider]) -> None:
    """Refuse a map whose rider-id keys do not name exactly the run's riders."""
    named = [int(key) for key in keys]
    for agent in named:
        if agent not in riders:
            raise AuditError(f"{where} names rider {agent}, which the run does not have")
    if len(named) < len(riders):  # the keys are distinct ids, each of the run
        raise AuditError(f"{where} lacks rider {min(set(riders).difference(named))}")


def audit_trace(events) -> AuditReport:
    """Validate a trace's events (any iterable, starting with a ``sim_start``
    that carries the config) in the order a trace reader yields them, whose
    :class:`~intentsim.trace.OrderGuard` owns seq and tick order; raises
    :class:`AuditError` on any violation."""
    stream = iter(events)
    start = next(stream, None)
    config = start_config(start)
    if config is None:
        raise AuditError("trace does not start with a sim_start event carrying the config")
    riders = {agent: _Rider() for agent in range(config["n_riders"])}
    # An order enters only on "created", which is counted, so the states of
    # ``orders`` always add up to ``orders_created``: conservation by construction.
    orders: dict[int, list] = {}  # id -> [state, payment]
    sim_end_payload: dict | None = None
    grid = config["grid_size"]
    rider_start = start.payload.get("rider_start", {})
    if not isinstance(rider_start, dict) or not all(
        _is_rider_id(rider_id) and is_point(point) for rider_id, point in rider_start.items()
    ):
        raise AuditError("sim_start rider_start does not map rider ids to [x, y] points")
    _same_riders("sim_start rider_start", rider_start, riders)
    for rider_id, (x, y) in rider_start.items():
        if not (0 <= x < grid and 0 <= y < grid):
            raise AuditError(f"rider {rider_id} start [{x}, {y}] outside grid")
        riders[int(rider_id)].position = (x, y)

    # The loop's counters and config values are locals, stored on the report
    # once at the end.
    n_events, created, delivered, moves, max_moved = 1, 0, 0, 0, 0
    cap, order_cap, wage = config["max_move_per_step"], config["order_cap"], config["wage_rate"]
    lo, hi = config["payment_range"]
    get_rider = riders.get
    for event in stream:
        n_events += 1
        kind = event.kind
        payload = event.payload
        if kind == "position":
            agent = payload["agent"]
            rider = get_rider(agent) or _rider(riders, agent)
            position = x, y = payload["x"], payload["y"]
            moves += 1
            if not (0 <= x < grid and 0 <= y < grid):
                raise AuditError(f"rider {agent} position {position} outside grid")
            if payload["held"] != rider.held:
                raise AuditError(
                    f"rider {agent} held-count mismatch at tick {event.tick}: "
                    f"event says {payload['held']}, ledger says {rider.held}"
                )
            # An unchanged point adds 0 to the distance and cannot pass the cap.
            if position != rider.position:
                moved = manhattan(rider.position, position)
                if moved > max_moved:
                    max_moved = moved
                if moved > cap:
                    raise AuditError(f"rider {agent} moved {moved} > cap {cap}")
                rider.distance += moved
                rider.position = position
            rider.ticks += 1
        elif kind == "order_event":
            what = payload["event"]
            oid = payload["order"]
            order = orders.get(oid)
            if what == "created":
                if order is not None:
                    raise AuditError(f"order {oid} created twice")
                orders[oid] = ["created", payload["payment"]]
                created += 1
                if not lo <= payload["payment"] <= hi:
                    raise AuditError(
                        f"order {oid} payment {payload['payment']} outside range [{lo}, {hi}]"
                    )
                for point in (payload["pickup"], payload["dropoff"]):
                    if not (0 <= point[0] < grid and 0 <= point[1] < grid):
                        raise AuditError(f"order {oid} endpoint {point} outside grid")
                continue
            previous = order[0] if order else None
            if previous is None or _BEFORE.get(what) != previous:
                raise AuditError(f"order {oid} illegal transition {previous!r} -> {what!r}")
            order[0] = what
            agent = payload["agent"]
            rider = get_rider(agent) or _rider(riders, agent)
            if what == "assigned":
                rider.held += 1
                if rider.held > order_cap:
                    raise AuditError(f"rider {agent} exceeds order cap at tick {event.tick}")
            elif what == "delivered":
                rider.held -= 1
                if rider.held < 0:
                    raise AuditError(f"rider {agent} delivered an unheld order {oid}")
                payment = payload.get("payment")
                if type(payment) not in NUMBER or payment != order[1]:
                    raise AuditError(
                        f"order {oid} delivered with payment {payment!r}, created with {order[1]}"
                    )
                rider.earnings += order[1]
                rider.delivered += 1
                delivered += 1
        elif kind == "cost_accrual":
            agent = payload["agent"]
            rider = get_rider(agent) or _rider(riders, agent)
            rider.accrued += payload["amount"]
            worked = rider.ticks - rider.accrued_ticks
            if payload["ticks"] != worked:
                raise AuditError(
                    f"rider {agent} cost accrual covers {payload['ticks']} ticks "
                    f"but {worked} position events were seen since the last accrual"
                )
            expected = wage * payload["ticks"]
            if not math.isclose(payload["amount"], expected, rel_tol=1e-9, abs_tol=1e-9):
                raise AuditError(
                    f"rider {agent} accrual amount {payload['amount']} != wage x ticks {expected}"
                )
            rider.accrued_ticks = rider.ticks
        elif kind == "sim_end":
            sim_end_payload = payload
    report = AuditReport(events=n_events, orders_created=created, orders_delivered=delivered,
                         position_events=moves, max_displacement=max_moved)

    if sim_end_payload is not None:
        if sim_end_payload.get("orders_created") != created:
            raise AuditError(
                f"sim_end reports {sim_end_payload.get('orders_created')} orders, "
                f"trace contains {created}"
            )
        summaries = sim_end_payload.get("riders")
        if not isinstance(summaries, dict) or not all(map(_is_rider_id, summaries)):
            raise AuditError("sim_end riders does not map rider ids to summaries")
        _same_riders("sim_end riders", summaries, riders)
        for rider_id, summary in summaries.items():
            agent = int(rider_id)
            rider = riders[agent]
            problem = (
                field_error(FIELD_TYPES["rider_summary"], summary)
                if isinstance(summary, dict)
                else "is not an object"
            )
            if problem is not None:
                raise AuditError(f"rider {agent} sim_end summary {problem}")
            if not math.isclose(summary["earnings"], rider.earnings, rel_tol=1e-9, abs_tol=1e-6):
                raise AuditError(
                    f"rider {agent} earnings {summary['earnings']} != delivered payments "
                    f"{rider.earnings}"
                )
            if summary["orders_completed"] != rider.delivered:
                raise AuditError(f"rider {agent} completion count mismatch")
            if summary["distance_ridden"] != rider.distance:
                raise AuditError(
                    f"rider {agent} distance {summary['distance_ridden']} != "
                    f"sum of displacements {rider.distance}"
                )
            expected_cost = config["wage_rate"] * rider.ticks
            if not math.isclose(summary["labor_cost"], expected_cost, rel_tol=1e-9, abs_tol=1e-6):
                raise AuditError(
                    f"rider {agent} labor cost {summary['labor_cost']} != "
                    f"wage x at-work ticks {expected_cost}"
                )
            if not math.isclose(rider.accrued, summary["labor_cost"], rel_tol=1e-9, abs_tol=1e-6):
                raise AuditError(
                    f"rider {agent} accrual events sum to {rider.accrued} "
                    f"but final labor cost is {summary['labor_cost']}"
                )
    return report
