"""Observational reports computed from a simulation trace.

All reports are pure functions of the event stream: the daily labor cost
per delivered order (the over-competition index), rider position heat
maps, effective working hours (ticks spent holding at least one order),
and per-agent hours-vs-orders totals. :func:`fold_events` reads the events
once and gathers every total the reports need. Each report function takes
those :class:`TraceTotals` and is a view over them, so
:func:`write_metrics_reports` makes one pass over a trace (which may be a
stream) for the whole CSV bundle. Re-running any report on the
same trace yields byte-identical CSV output.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .diagram import DEFAULT_WINDOW_TICKS, check_positive
from .errors import TraceFormatError
from .trace import event_line, start_config, write_files

# The names of every file write_metrics_reports may write.
METRICS_FILES = r"(involution|hours_vs_orders|effective_hours|heatmap_window(0|[1-9][0-9]*))\.csv"


class TraceTotals:
    """Every total the reports read, gathered in one pass over the events.

    A day is ``tick // steps_per_day`` and a heat-map window is
    ``tick // window_ticks``, for the ``window_ticks`` of :func:`fold_events`.
    """

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
    """Read the events (any iterable, starting with ``sim_start``) once."""
    check_positive("window_ticks", window_ticks)
    stream = iter(events)
    config = start_config(next(stream, None))
    if config is None:
        raise TraceFormatError(event_line(0), "the first event is not a sim_start carrying the config")
    totals = TraceTotals(config)
    spd = totals.config["steps_per_day"]
    grid = totals.config["grid_size"]
    for event in stream:
        kind = event.kind
        payload = event.payload
        if kind == "position":
            x, y = payload["x"], payload["y"]
            if not (0 <= x < grid and 0 <= y < grid):
                raise TraceFormatError(event_line(event.seq), f"position ({x}, {y}) is outside the grid")
            key = (event.tick // spd, payload["agent"])
            totals.worked[key] += 1
            if payload["held"] > 0:
                totals.holding[key] += 1
            totals.visits[event.tick // window_ticks][y, x] += 1
        elif kind == "order_event" and payload["event"] == "delivered":
            day = event.tick // spd
            totals.delivered[day] += 1
            totals.orders[day, payload["agent"]] += 1
        elif kind == "cost_accrual":
            totals.cost[event.tick // spd] += payload["amount"]
    return totals


def csv_text(rows) -> str:
    """Rows as CSV text with "\\n" line ends: the format of every CSV this package writes."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@dataclass
class InvolutionSeries:
    days: list[int] = field(default_factory=list)
    cost: list[float] = field(default_factory=list)
    delivered: list[int] = field(default_factory=list)
    index: list[float] = field(default_factory=list)

    def to_csv(self) -> str:
        rows = zip(self.days, self.cost, self.delivered, self.index)
        return csv_text([["day", "cost", "orders", "index"]] + [
            [day, f"{cost:.6f}", delivered, f"{index:.6f}"] for day, cost, delivered, index in rows
        ])


def involution_index(totals: TraceTotals) -> InvolutionSeries:
    """Daily labor cost per delivered order.

    Days with zero deliveries keep the raw cost (divisor clamped to 1)
    rather than being dropped, preserving the series length.
    """
    series = InvolutionSeries()
    for day in range(totals.n_days):
        cost = totals.cost.get(day, 0.0)
        delivered = totals.delivered.get(day, 0)
        series.days.append(day)
        series.cost.append(cost)
        series.delivered.append(delivered)
        series.index.append(cost / max(delivered, 1))
    return series


@dataclass
class HeatmapGrid:
    counts: list[list[float]]

    def to_csv(self) -> str:
        return csv_text([f"{v:g}" for v in row] for row in self.counts)


def position_heatmap(totals: TraceTotals, window: int, downsample: int = 1) -> HeatmapGrid:
    """Visit counts per cell over one of the tick windows the totals were
    folded over.

    ``downsample`` > 1 averages f x f blocks into one cell (the raw grid
    conserves total event mass; averaged grids trade that for compactness).
    """
    check_positive("downsample", downsample)
    f = downsample
    size = (totals.config["grid_size"] + f - 1) // f
    counts = [[0.0] * size for _ in range(size)]
    for (y, x), n in totals.visits.get(window, {}).items():
        counts[y // f][x // f] += n
    if f > 1:
        counts = [[v / (f * f) for v in row] for row in counts]
    return HeatmapGrid(counts)


@dataclass(frozen=True)
class HoursRow:
    agent_id: int
    total_hours_worked: float
    effective_hours: float
    total_orders: int


def effective_hours(totals: TraceTotals, day: int) -> list[HoursRow]:
    """Per-agent worked vs order-holding hours for one day."""
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
    """Whole-run (agent, hours worked, orders delivered) totals."""
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


def hours_vs_orders_csv(rows: list[tuple[int, float, int]]) -> str:
    return csv_text([["agent_id", "hours", "orders"]] + [
        [agent, f"{hours:.6f}", orders] for agent, hours, orders in rows
    ])


def effective_hours_csv(rows_by_day: dict[int, list[HoursRow]]) -> str:
    header = ["day", "agent_id", "total_hours", "effective_hours", "orders"]
    return csv_text([header] + [
        [day, row.agent_id, f"{row.total_hours_worked:.6f}", f"{row.effective_hours:.6f}", row.total_orders]
        for day in sorted(rows_by_day)
        for row in rows_by_day[day]
    ])


def write_metrics_reports(
    events, out_dir: str | Path, window_ticks: int = DEFAULT_WINDOW_TICKS, downsample: int = 4
) -> dict[str, Path]:
    """Emit the standard CSV bundle for one trace from a single pass over its
    events (any iterable, such as a stream) through :func:`write_files`,
    which deletes a previous run's extra heat maps; returns paths by name."""
    check_positive("downsample", downsample)  # refused before any event is read
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
    return write_files(out_dir, reports, METRICS_FILES)
