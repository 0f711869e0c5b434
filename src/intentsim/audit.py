"""Trace auditor: replays a full event stream and checks every simulation
invariant — order lifecycle and conservation, movement speed and grid
bounds, the hold cap, and the earnings / labor-cost / distance accounting
identities against the final summary."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AuditError
from .trace import FIELD_TYPES, field_error, is_point, start_config

_LEGAL_TRANSITIONS = {
    ("created", "assigned"),
    ("assigned", "picked_up"),
    ("picked_up", "delivered"),
}


@dataclass
class AuditReport:
    events: int = 0
    orders_created: int = 0
    orders_delivered: int = 0
    position_events: int = 0
    max_displacement: int = 0


def audit_trace(events) -> AuditReport:
    """Validate a trace's events (any iterable, starting with a ``sim_start``
    that carries the config); raises :class:`AuditError` on any violation."""
    stream = iter(events)
    start = next(stream, None)
    config = start_config(start)
    if config is None:
        raise AuditError("trace does not start with a sim_start event carrying the config")
    report = AuditReport(events=1)
    order_state: dict[int, str] = {}
    order_created_tick: dict[int, int] = {}
    order_payment: dict[int, float] = {}
    held: dict[int, int] = {}
    last_pos: dict[int, tuple[int, int]] = {}
    at_work_ticks: dict[int, int] = {}
    accrued: dict[int, float] = {}
    earnings: dict[int, float] = {}
    delivered_count: dict[int, int] = {}
    distance: dict[int, int] = {}
    last_accrual_mark: dict[int, int] = {}
    sim_end_payload: dict | None = None
    rider_start = start.payload.get("rider_start", {})
    if not isinstance(rider_start, dict) or not all(
        rider_id.isdecimal() and is_point(point) for rider_id, point in rider_start.items()
    ):
        raise AuditError("sim_start rider_start does not map rider ids to [x, y] points")
    for rider_id, point in rider_start.items():
        last_pos[int(rider_id)] = (point[0], point[1])
    grid = config["grid_size"]

    for event in stream:
        report.events += 1
        kind = event.kind
        payload = event.payload
        if kind == "order_event":
            what = payload["event"]
            oid = payload["order"]
            if what == "created":
                if oid in order_state:
                    raise AuditError(f"order {oid} created twice")
                order_state[oid] = "created"
                order_created_tick[oid] = event.tick
                order_payment[oid] = payload["payment"]
                report.orders_created += 1
                lo, hi = config["payment_range"]
                if not lo <= payload["payment"] <= hi:
                    raise AuditError(
                        f"order {oid} payment {payload['payment']} outside range [{lo}, {hi}]"
                    )
                for point in (payload["pickup"], payload["dropoff"]):
                    if not (0 <= point[0] < grid and 0 <= point[1] < grid):
                        raise AuditError(f"order {oid} endpoint {point} outside grid")
            else:
                previous = order_state.get(oid)
                if previous is None or (previous, what) not in _LEGAL_TRANSITIONS:
                    raise AuditError(
                        f"order {oid} illegal transition {previous!r} -> {what!r}"
                    )
                order_state[oid] = what
                agent = payload["agent"]
                if what == "assigned":
                    held[agent] = held.get(agent, 0) + 1
                    if held[agent] > config["order_cap"]:
                        raise AuditError(
                            f"rider {agent} exceeds order cap at tick {event.tick}"
                        )
                elif what == "delivered":
                    if event.tick < order_created_tick[oid]:
                        raise AuditError(f"order {oid} delivered before creation")
                    held[agent] = held.get(agent, 0) - 1
                    if held[agent] < 0:
                        raise AuditError(f"rider {agent} delivered an unheld order {oid}")
                    earnings[agent] = earnings.get(agent, 0.0) + order_payment[oid]
                    delivered_count[agent] = delivered_count.get(agent, 0) + 1
                    report.orders_delivered += 1
        elif kind == "position":
            agent = payload["agent"]
            x, y = payload["x"], payload["y"]
            report.position_events += 1
            if not (0 <= x < grid and 0 <= y < grid):
                raise AuditError(f"rider {agent} position ({x}, {y}) outside grid")
            if payload["held"] != held.get(agent, 0):
                raise AuditError(
                    f"rider {agent} held-count mismatch at tick {event.tick}: "
                    f"event says {payload['held']}, ledger says {held.get(agent, 0)}"
                )
            previous = last_pos.get(agent)
            if previous is not None:
                moved = abs(x - previous[0]) + abs(y - previous[1])
                report.max_displacement = max(report.max_displacement, moved)
                if moved > config["max_move_per_step"]:
                    raise AuditError(
                        f"rider {agent} moved {moved} > cap {config['max_move_per_step']}"
                    )
                distance[agent] = distance.get(agent, 0) + moved
            last_pos[agent] = (x, y)
            at_work_ticks[agent] = at_work_ticks.get(agent, 0) + 1
        elif kind == "cost_accrual":
            agent = payload["agent"]
            accrued[agent] = accrued.get(agent, 0.0) + payload["amount"]
            worked = at_work_ticks.get(agent, 0) - last_accrual_mark.get(agent, 0)
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
            last_accrual_mark[agent] = at_work_ticks.get(agent, 0)
        elif kind == "sim_end":
            sim_end_payload = payload

    # Conservation: every order is in exactly one state and the ledger's
    # state counts add back up to everything ever created.
    states = {"created": 0, "assigned": 0, "picked_up": 0, "delivered": 0}
    for state in order_state.values():
        states[state] += 1
    if sum(states.values()) != report.orders_created:
        raise AuditError("order conservation violated")

    if sim_end_payload is not None:
        if sim_end_payload.get("orders_created") != report.orders_created:
            raise AuditError(
                f"sim_end reports {sim_end_payload.get('orders_created')} orders, "
                f"trace contains {report.orders_created}"
            )
        riders = sim_end_payload.get("riders")
        if not isinstance(riders, dict) or not all(map(str.isdecimal, riders)):
            raise AuditError("sim_end riders does not map rider ids to summaries")
        for rider_id, summary in riders.items():
            agent = int(rider_id)
            problem = (
                field_error(FIELD_TYPES["rider_summary"], summary)
                if isinstance(summary, dict)
                else "is not an object"
            )
            if problem is not None:
                raise AuditError(f"rider {agent} sim_end summary {problem}")
            if not math.isclose(
                summary["earnings"], earnings.get(agent, 0.0), rel_tol=1e-9, abs_tol=1e-6
            ):
                raise AuditError(
                    f"rider {agent} earnings {summary['earnings']} != delivered payments "
                    f"{earnings.get(agent, 0.0)}"
                )
            if summary["orders_completed"] != delivered_count.get(agent, 0):
                raise AuditError(f"rider {agent} completion count mismatch")
            if summary["distance_ridden"] != distance.get(agent, 0):
                raise AuditError(
                    f"rider {agent} distance {summary['distance_ridden']} != "
                    f"sum of displacements {distance.get(agent, 0)}"
                )
            expected_cost = config["wage_rate"] * at_work_ticks.get(agent, 0)
            if not math.isclose(summary["labor_cost"], expected_cost, rel_tol=1e-9, abs_tol=1e-6):
                raise AuditError(
                    f"rider {agent} labor cost {summary['labor_cost']} != "
                    f"wage x at-work ticks {expected_cost}"
                )
            if not math.isclose(
                accrued.get(agent, 0.0), summary["labor_cost"], rel_tol=1e-9, abs_tol=1e-6
            ):
                raise AuditError(
                    f"rider {agent} accrual events sum to {accrued.get(agent, 0.0)} "
                    f"but final labor cost is {summary['labor_cost']}"
                )
    return report
