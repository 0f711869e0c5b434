"""World state for the delivery simulation: grid, riders, orders.

Movement uses the Manhattan metric with x-before-y axis priority. Order
lifecycle is pending -> assigned -> picked_up -> delivered; the order book
keeps every order ever created so conservation can be checked at any tick.
The pending orders' pickups are also kept in compact arrays, so the offer
lookup scans them without touching the book.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import personas
from .config import SimConfig, json_digest

_INT64 = np.dtype(np.int64)  # the items of an array("q")

PENDING = "pending"
ASSIGNED = "assigned"
PICKED_UP = "picked_up"
DELIVERED = "delivered"


@dataclass(frozen=True)
class Position:
    x: int
    y: int


def manhattan(a: Position, b: Position) -> int:
    return abs(a.x - b.x) + abs(a.y - b.y)


def move_toward(pos: Position, target: Position, max_dist: int) -> Position:
    """Advance from ``pos`` toward ``target`` by at most ``max_dist`` grid units.

    Budget is spent along x first, then y; reaches ``target`` exactly whenever
    the Manhattan distance fits in the budget.
    """
    budget = max_dist
    dx = target.x - pos.x
    step_x = max(-budget, min(budget, dx))
    budget -= abs(step_x)
    dy = target.y - pos.y
    step_y = max(-budget, min(budget, dy))
    return Position(pos.x + step_x, pos.y + step_y)


@dataclass
class Order:
    id: int
    pickup: Position
    dropoff: Position
    payment: float
    created_tick: int
    state: str = PENDING
    rider_id: int | None = None
    delivered_tick: int | None = None


@dataclass
class RiderState:
    id: int
    persona: str
    position: Position
    shift_start: int
    shift_end: int
    held_orders: list[int] = field(default_factory=list)
    earnings: float = 0.0
    labor_cost: float = 0.0
    orders_completed: int = 0
    distance_ridden: int = 0
    # Per-day bookkeeping used for rankings and cost accrual.
    ticks_worked_today: int = 0
    day_mark_distance: int = 0
    day_mark_earnings: float = 0.0
    day_mark_orders: int = 0


@dataclass
class WorldState:
    config: SimConfig
    tick: int
    riders: list[RiderState]
    order_book: dict[int, Order]
    rng: random.Random
    next_order_id: int = 0
    # Each pending order's id -> its row in the three int64 columns below,
    # which hold its pickup x, pickup y and id; the columns have one row per
    # pending order.
    pending_ids: dict[int, int] = field(default_factory=dict)
    pending_x: array = field(default_factory=lambda: array("q"))
    pending_y: array = field(default_factory=lambda: array("q"))
    pending_order: array = field(default_factory=lambda: array("q"))


def shift_active(shift_start: int, shift_end: int, tick_of_day: int, steps_per_day: int) -> bool:
    """Whether a tick falls inside the [start, end) working window.

    Shifts with start == end mean the rider does not work; start > end wraps
    past midnight. Comparison is exact integer arithmetic: a tick's hour point
    is tick_of_day * 24 / steps_per_day.
    """
    if shift_start == shift_end:
        return False
    t24 = tick_of_day * 24
    lo = shift_start * steps_per_day
    hi = shift_end * steps_per_day
    if shift_start < shift_end:
        return lo <= t24 < hi
    return t24 >= lo or t24 < hi


def init_world(config: SimConfig) -> WorldState:
    """Create the tick-0 world: seeded riders, personas, empty order book."""
    rng = random.Random(config.seed)
    riders: list[RiderState] = []
    for rider_id in range(config.n_riders):
        persona = personas.make_persona(rider_id, rng)
        x = rng.randrange(config.grid_size)
        y = rng.randrange(config.grid_size)
        start, end = personas.draw_initial_shift(rng)
        riders.append(
            RiderState(
                id=rider_id,
                persona=persona,
                position=Position(x, y),
                shift_start=start,
                shift_end=end,
            )
        )
    return WorldState(
        config=config,
        tick=0,
        riders=riders,
        order_book={},
        rng=rng,
    )


def add_pending(world: WorldState, order: Order) -> None:
    """Put a pending order in a new last row of the pending columns."""
    world.pending_ids[order.id] = len(world.pending_order)
    world.pending_x.append(order.pickup.x)
    world.pending_y.append(order.pickup.y)
    world.pending_order.append(order.id)


def _drop_pending(world: WorldState, order_id: int) -> None:
    """Take an order out of the pending columns; the last row fills its row."""
    row = world.pending_ids.pop(order_id)
    x, y, moved = world.pending_x.pop(), world.pending_y.pop(), world.pending_order.pop()
    if moved != order_id:
        world.pending_x[row], world.pending_y[row], world.pending_order[row] = x, y, moved
        world.pending_ids[moved] = row


def nearest_pending(world: WorldState, x: int, y: int, limit: int) -> list[tuple[int, int]]:
    """The ``limit`` pending orders nearest to (x, y), as (distance, id) pairs
    ordered by the Manhattan distance to the pickup, then by id."""
    # One int64 key per order sorts like (distance, id): every id is below
    # the stride, and SimConfig bounds grid_size so that no key overflows.
    # The buffer views must not outlive this call: a column that exports its
    # buffer cannot grow.
    stride = world.next_order_id
    keys = np.abs(np.frombuffer(world.pending_x, _INT64) - x)
    keys += np.abs(np.frombuffer(world.pending_y, _INT64) - y)
    keys *= stride
    keys += np.frombuffer(world.pending_order, _INT64)
    if len(keys) > limit:
        keys = np.partition(keys, limit - 1)[:limit]
    keys.sort()
    return [divmod(key, stride) for key in keys.tolist()]


def poisson_draw(rng: random.Random, rate: float) -> int:
    """Seeded Poisson sample (Knuth's product method)."""
    if rate <= 0:
        return 0
    limit = math.exp(-rate)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def is_peak_tick(tick_of_day: int, config: SimConfig) -> bool:
    """Within +/-5 ticks (circularly) of any configured peak."""
    spd = config.steps_per_day
    for peak in config.peak_ticks_per_day:
        delta = abs(tick_of_day - peak)
        if min(delta, spd - delta) <= 5:
            return True
    return False


def generate_orders(world: WorldState) -> list[Order]:
    """Draw this tick's new orders and append them to the book as pending."""
    config = world.config
    tick = world.tick
    rate = config.base_order_rate
    if is_peak_tick(tick % config.steps_per_day, config):
        rate *= config.peak_multiplier
    count = poisson_draw(world.rng, rate)
    lo, hi = config.payment_range
    created: list[Order] = []
    for _ in range(count):
        order = Order(
            id=world.next_order_id,
            pickup=Position(
                world.rng.randrange(config.grid_size),
                world.rng.randrange(config.grid_size),
            ),
            dropoff=Position(
                world.rng.randrange(config.grid_size),
                world.rng.randrange(config.grid_size),
            ),
            payment=round(world.rng.uniform(lo, hi), 2),
            created_tick=tick,
        )
        world.next_order_id += 1
        world.order_book[order.id] = order
        add_pending(world, order)
        created.append(order)
    return created


def assign_orders(
    world: WorldState,
    rider_id: int,
    selection: list[int],
    offered_ids: list[int],
) -> tuple[list[int], list[int], list[int]]:
    """Apply one rider's order selection, tolerating malformed choices.

    Ids outside the offered list are rejected; surviving picks are processed
    in offered order and truncated once the rider reaches the hold cap.
    Returns the (accepted, rejected, truncated) ids.
    """
    if not 0 <= rider_id < len(world.riders):
        raise ValueError(f"unknown rider {rider_id}")
    rider = world.riders[rider_id]
    cap = world.config.order_cap
    offered_set = set(offered_ids)
    rejected = [oid for oid in selection if oid not in offered_set or oid not in world.pending_ids]
    valid_in_offer_order = [
        oid for oid in offered_ids if oid in selection and oid not in rejected
    ]
    accepted: list[int] = []
    truncated: list[int] = []
    for oid in valid_in_offer_order:
        if len(rider.held_orders) >= cap:
            truncated.append(oid)
            continue
        order = world.order_book[oid]
        order.state = ASSIGNED
        order.rider_id = rider_id
        _drop_pending(world, oid)
        rider.held_orders.append(oid)
        accepted.append(oid)
    return accepted, rejected, truncated


def world_digest(world: WorldState) -> str:
    """Content digest of the full world, including the generator state."""
    riders = [
        {
            "id": r.id,
            "persona": r.persona,
            "pos": [r.position.x, r.position.y],
            "shift": [r.shift_start, r.shift_end],
            "held": list(r.held_orders),
            "earnings": round(r.earnings, 6),
            "labor_cost": round(r.labor_cost, 6),
            "orders_completed": r.orders_completed,
            "distance": r.distance_ridden,
        }
        for r in world.riders
    ]
    orders = [
        {
            "id": o.id,
            "pickup": [o.pickup.x, o.pickup.y],
            "dropoff": [o.dropoff.x, o.dropoff.y],
            "payment": o.payment,
            "created": o.created_tick,
            "state": o.state,
            "rider": o.rider_id,
            "delivered": o.delivered_tick,
        }
        for o in sorted(world.order_book.values(), key=lambda o: o.id)
    ]
    rng_state = hashlib.sha256(repr(world.rng.getstate()).encode()).hexdigest()
    return json_digest({"tick": world.tick, "riders": riders, "orders": orders, "rng": rng_state})
