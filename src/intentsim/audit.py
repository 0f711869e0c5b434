"""Trace auditor: replays a full event stream and checks every simulation
invariant — the order lifecycle, movement speed and grid bounds, the hold
cap, and the earnings / labor-cost / distance accounting identities against
the final summary — with one ledger per rider of the run and one entry per
order."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AuditError
from .trace import FIELD_TYPES, field_error, is_int_key, is_point, start_config

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
    report = AuditReport(events=1)
    riders = {agent: _Rider() for agent in range(config["n_riders"])}
    # An order enters only on "created", which is counted, so the states of
    # ``orders`` always add up to ``orders_created``: conservation by construction.
    orders: dict[int, list] = {}  # id -> [state, payment]
    sim_end_payload: dict | None = None
    rider_start = start.payload.get("rider_start", {})
    if not isinstance(rider_start, dict) or not all(
        _is_rider_id(rider_id) and is_point(point) for rider_id, point in rider_start.items()
    ):
        raise AuditError("sim_start rider_start does not map rider ids to [x, y] points")
    _same_riders("sim_start rider_start", rider_start, riders)
    for rider_id, point in rider_start.items():
        riders[int(rider_id)].position = (point[0], point[1])
    grid = config["grid_size"]

    for event in stream:
        report.events += 1
        kind = event.kind
        payload = event.payload
        if kind == "order_event":
            what = payload["event"]
            oid = payload["order"]
            order = orders.get(oid)
            if what == "created":
                if order is not None:
                    raise AuditError(f"order {oid} created twice")
                orders[oid] = ["created", payload["payment"]]
                report.orders_created += 1
                lo, hi = config["payment_range"]
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
            rider = _rider(riders, agent)
            if what == "assigned":
                rider.held += 1
                if rider.held > config["order_cap"]:
                    raise AuditError(f"rider {agent} exceeds order cap at tick {event.tick}")
            elif what == "delivered":
                rider.held -= 1
                if rider.held < 0:
                    raise AuditError(f"rider {agent} delivered an unheld order {oid}")
                rider.earnings += order[1]
                rider.delivered += 1
                report.orders_delivered += 1
        elif kind == "position":
            agent = payload["agent"]
            rider = _rider(riders, agent)
            x, y = payload["x"], payload["y"]
            report.position_events += 1
            if not (0 <= x < grid and 0 <= y < grid):
                raise AuditError(f"rider {agent} position ({x}, {y}) outside grid")
            if payload["held"] != rider.held:
                raise AuditError(
                    f"rider {agent} held-count mismatch at tick {event.tick}: "
                    f"event says {payload['held']}, ledger says {rider.held}"
                )
            if rider.position is not None:
                moved = abs(x - rider.position[0]) + abs(y - rider.position[1])
                report.max_displacement = max(report.max_displacement, moved)
                if moved > config["max_move_per_step"]:
                    raise AuditError(
                        f"rider {agent} moved {moved} > cap {config['max_move_per_step']}"
                    )
                rider.distance += moved
            rider.position = (x, y)
            rider.ticks += 1
        elif kind == "cost_accrual":
            agent = payload["agent"]
            rider = _rider(riders, agent)
            rider.accrued += payload["amount"]
            worked = rider.ticks - rider.accrued_ticks
            if payload["ticks"] != worked:
                raise AuditError(
                    f"rider {agent} cost accrual covers {payload['ticks']} ticks "
                    f"but {worked} position events were seen since the last accrual"
                )
            expected = config["wage_rate"] * payload["ticks"]
            if not math.isclose(payload["amount"], expected, rel_tol=1e-9, abs_tol=1e-9):
                raise AuditError(
                    f"rider {agent} accrual amount {payload['amount']} != wage x ticks {expected}"
                )
            rider.accrued_ticks = rider.ticks
        elif kind == "sim_end":
            sim_end_payload = payload

    if sim_end_payload is not None:
        if sim_end_payload.get("orders_created") != report.orders_created:
            raise AuditError(
                f"sim_end reports {sim_end_payload.get('orders_created')} orders, "
                f"trace contains {report.orders_created}"
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
