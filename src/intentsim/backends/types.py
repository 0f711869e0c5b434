"""Shared decision and thought types used by every backend."""

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
