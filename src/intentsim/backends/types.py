"""Shared decision and thought types: backends return them, analysis reads the records."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OfferedOrder:
    id: int
    pickup: tuple[int, int]
    dropoff: tuple[int, int]
    payment: float
    pickup_distance: int


@dataclass(frozen=True)
class DecisionContext:
    """Everything a rider knows at a decision point."""

    rider_id: int
    persona: str
    position: tuple[int, int]
    yesterday_shift: tuple[int, int]
    distance_rank: int
    earnings_rank: int
    orders_rank: int
    n_riders: int
    leader_id: int
    leader_shift: tuple[int, int]
    current_tick: int
    capacity_left: int = 0
    offered: tuple[OfferedOrder, ...] = ()
    memory: tuple[str, ...] = ()


@dataclass(frozen=True)
class WorkHoursDecision:
    go_to_work_hour: int
    get_off_work_hour: int

    def __post_init__(self) -> None:
        for hour in (self.go_to_work_hour, self.get_off_work_hour):
            if not 0 <= hour <= 23:
                raise ValueError(f"hour {hour} outside 0..23")


@dataclass(frozen=True)
class OrderSelection:
    order_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class ThoughtPair:
    """Parallel reasoning texts: instinct-driven and calculation-driven."""

    bounded: str
    rational: str


def combine_pair(bounded: str, rational: str) -> str:
    """Fold both perspectives into one analyzable text.

    Labels keep the two perspectives distinguishable after concatenation;
    when the bounded slot is empty (single-perspective sources, inspector
    disabled) only the rational side is kept.
    """
    if bounded:
        return f"bounded: {bounded} | rational: {rational}"
    return f"rational: {rational}"


@dataclass(slots=True)
class ThoughtRecord:
    record_id: int
    agent_id: int
    tick: int
    text: str  # the combine_pair text that is embedded, stored and shown
    missing: bool = False


def numbered_records(items: list[tuple]) -> list[ThoughtRecord]:
    """Records from ``(tick, agent, arrival, text)`` tuples, which it sorts.

    Ids follow canonical (tick, agent, arrival) order — the order mining
    processes records in — so repository ids always increase. An empty text,
    which :func:`combine_pair` never returns, makes the record missing.
    """
    items.sort()
    return [
        ThoughtRecord(record_id, agent, tick, text, not text)
        for record_id, (tick, agent, _arrival, text) in enumerate(items)
    ]
