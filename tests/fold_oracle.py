"""The auditor and the metrics fold before they took a position event in a
few local steps: the oracle of the fold tests.

``audit_trace`` keeps its counters on the report and reads the config on
every event, looks each rider up through ``_rider`` and measures every move
with ``manhattan``. ``fold_events`` keys its per-rider totals by
``(day, rider)`` tuples and its visits by ``(y, x)`` within a window, and
the report views read that layout. ``metrics_texts`` builds the CSV bundle
through these views with the package's own CSV formats.
"""

import math
from collections import defaultdict

from intentsim.audit import _BEFORE, AuditReport, _is_rider_id, _rider, _Rider, _same_riders
from intentsim.diagram import DEFAULT_WINDOW_TICKS, check_positive
from intentsim.errors import AuditError, TraceFormatError
from intentsim.metrics import (
    HeatmapGrid,
    HoursRow,
    _unknown_rider,
    effective_hours_csv,
    hours_vs_orders_csv,
    involution_index,
)
from intentsim.trace import FIELD_TYPES, NUMBER, event_line, field_error, is_point, start_config
from intentsim.world import manhattan


def audit_trace(events) -> AuditReport:
    stream = iter(events)
    start = next(stream, None)
    config = start_config(start)
    if config is None:
        raise AuditError("trace does not start with a sim_start event carrying the config")
    report = AuditReport(events=1)
    riders = {agent: _Rider() for agent in range(config["n_riders"])}
    orders: dict[int, list] = {}  # id -> [state, payment]
    sim_end_payload: dict | None = None
    rider_start = start.payload.get("rider_start", {})
    if not isinstance(rider_start, dict) or not all(
        _is_rider_id(rider_id) and is_point(point) for rider_id, point in rider_start.items()
    ):
        raise AuditError("sim_start rider_start does not map rider ids to [x, y] points")
    _same_riders("sim_start rider_start", rider_start, riders)
    for rider_id, point in rider_start.items():
        riders[int(rider_id)].position = tuple(point)
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
                payment = payload.get("payment")
                if type(payment) not in NUMBER or payment != order[1]:
                    raise AuditError(
                        f"order {oid} delivered with payment {payment!r}, created with {order[1]}"
                    )
                rider.earnings += order[1]
                rider.delivered += 1
                report.orders_delivered += 1
        elif kind == "position":
            agent = payload["agent"]
            rider = _rider(riders, agent)
            position = x, y = payload["x"], payload["y"]
            report.position_events += 1
            if not (0 <= x < grid and 0 <= y < grid):
                raise AuditError(f"rider {agent} position {position} outside grid")
            if payload["held"] != rider.held:
                raise AuditError(
                    f"rider {agent} held-count mismatch at tick {event.tick}: "
                    f"event says {payload['held']}, ledger says {rider.held}"
                )
            if rider.position is not None:
                moved = manhattan(rider.position, position)
                report.max_displacement = max(report.max_displacement, moved)
                if moved > config["max_move_per_step"]:
                    raise AuditError(
                        f"rider {agent} moved {moved} > cap {config['max_move_per_step']}"
                    )
                rider.distance += moved
            rider.position = position
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


class TraceTotals:
    def __init__(self, config: dict):
        self.config = config
        self.cost: dict[int, float] = defaultdict(float)  # day -> labor cost
        self.delivered: dict[int, int] = defaultdict(int)  # day -> orders delivered
        self.worked: dict[tuple[int, int], int] = defaultdict(int)  # (day, agent) -> ticks at work
        self.holding: dict[tuple[int, int], int] = defaultdict(int)  # (day, agent) -> ticks holding
        self.orders: dict[tuple[int, int], int] = defaultdict(int)  # (day, agent) -> orders delivered
        # window -> (y, x) -> position events
        self.visits: dict[int, dict[tuple[int, int], int]] = defaultdict(lambda: defaultdict(int))

    @property
    def n_days(self) -> int:
        return self.config["total_steps"] // self.config["steps_per_day"]


def fold_events(events, window_ticks: int = DEFAULT_WINDOW_TICKS) -> TraceTotals:
    check_positive("window_ticks", window_ticks)
    stream = iter(events)
    config = start_config(next(stream, None))
    if config is None:
        raise TraceFormatError(event_line(0), "the first event is not a sim_start carrying the config")
    totals = TraceTotals(config)
    spd = totals.config["steps_per_day"]
    grid = totals.config["grid_size"]
    riders = totals.config["n_riders"]
    for event in stream:
        kind = event.kind
        payload = event.payload
        if kind == "position":
            x, y = payload["x"], payload["y"]
            if not (0 <= x < grid and 0 <= y < grid):
                raise TraceFormatError(event_line(event.seq), f"position ({x}, {y}) is outside the grid")
            if not 0 <= payload["agent"] < riders:
                raise _unknown_rider(event, riders)
            key = (event.tick // spd, payload["agent"])
            totals.worked[key] += 1
            if payload["held"] > 0:
                totals.holding[key] += 1
            totals.visits[event.tick // window_ticks][y, x] += 1
        elif kind == "order_event" and payload["event"] == "delivered":
            if not 0 <= payload["agent"] < riders:
                raise _unknown_rider(event, riders)
            day = event.tick // spd
            totals.delivered[day] += 1
            totals.orders[day, payload["agent"]] += 1
        elif kind == "cost_accrual":
            if not 0 <= payload["agent"] < riders:
                raise _unknown_rider(event, riders)
            totals.cost[event.tick // spd] += payload["amount"]
    return totals


def position_heatmap(totals: TraceTotals, window: int, downsample: int = 1) -> HeatmapGrid:
    check_positive("downsample", downsample)
    f = downsample
    size = (totals.config["grid_size"] + f - 1) // f
    counts = [[0.0] * size for _ in range(size)]
    for (y, x), n in totals.visits.get(window, {}).items():
        counts[y // f][x // f] += n
    if f > 1:
        counts = [[v / (f * f) for v in row] for row in counts]
    return HeatmapGrid(counts)


def effective_hours(totals: TraceTotals, day: int) -> list[HoursRow]:
    to_hours = 24.0 / totals.config["steps_per_day"]
    return [
        HoursRow(
            agent_id=agent,
            total_hours_worked=totals.worked.get((day, agent), 0) * to_hours,
            effective_hours=totals.holding.get((day, agent), 0) * to_hours,
            total_orders=totals.orders.get((day, agent), 0),
        )
        for agent in range(totals.config["n_riders"])
    ]


def hours_vs_orders(totals: TraceTotals) -> list[tuple[int, float, int]]:
    worked: dict[int, int] = defaultdict(int)
    orders: dict[int, int] = defaultdict(int)
    for (_, agent), ticks in totals.worked.items():
        worked[agent] += ticks
    for (_, agent), count in totals.orders.items():
        orders[agent] += count
    to_hours = 24.0 / totals.config["steps_per_day"]
    return [
        (agent, worked[agent] * to_hours, orders[agent])
        for agent in range(totals.config["n_riders"])
    ]


def metrics_texts(events, window_ticks: int = DEFAULT_WINDOW_TICKS, downsample: int = 4) -> dict[str, str]:
    """The CSV bundle ``write_metrics_reports`` writes, by file name."""
    check_positive("downsample", downsample)
    totals = fold_events(events, window_ticks)
    reports = {
        "involution.csv": involution_index(totals).to_csv(),
        "hours_vs_orders.csv": hours_vs_orders_csv(hours_vs_orders(totals)),
        "effective_hours.csv": effective_hours_csv(
            {day: effective_hours(totals, day) for day in range(totals.n_days)}
        ),
    }
    n_windows = max(1, (totals.config["total_steps"] + window_ticks - 1) // window_ticks)
    for window in range(n_windows):
        grid = position_heatmap(totals, window, downsample=downsample)
        reports[f"heatmap_window{window}.csv"] = grid.to_csv()
    return reports
