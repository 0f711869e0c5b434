"""Discrete-step simulation loop.

Each tick runs, in order: day-start work-hours decisions (with yesterday's
rankings in context), order generation, order selection for at-work riders
below the hold cap, movement toward the earliest-held order's objective
with pickup/delivery state flips, and wage accrual. Every per-rider phase
iterates in ascending rider id so a run is a pure function of (config,
backend); traces from two identical runs match byte for byte. A day's
working riders are found once a day; fixed-shape events go to the writer
as values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .backends.types import DecisionContext, OfferedOrder, ThoughtPair, combine_pair
from .config import SimConfig, config_digest
from .errors import BackendError, DecisionParseError
from .trace import TraceWriter, open_output
from .world import (
    ASSIGNED,
    DELIVERED,
    PICKED_UP,
    RiderState,
    WorldState,
    assign_orders,
    generate_orders,
    init_world,
    manhattan,
    move_toward,
    nearest_pending,
    world_digest,
)

OFFER_LIMIT = 10
MEMORY_WINDOW = 5  # the memory lines a decision context carries


@dataclass
class DayStats:
    """Yesterday's rankings, recomputed at the start of every day."""

    distance_rank: dict[int, int]
    earnings_rank: dict[int, int]
    orders_rank: dict[int, int]
    leader_id: int
    leader_shift: tuple[int, int]


def _rank(values: dict[int, float]) -> dict[int, int]:
    # Rank 1 is the highest value; ties resolve to the lower rider id.
    ordered = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    return {rider_id: idx + 1 for idx, (rider_id, _) in enumerate(ordered)}


def working_by_tick(riders: list[RiderState], steps_per_day: int) -> list[list[RiderState]]:
    """The riders at work on each tick t of the day, in the order of
    ``riders``: those for which :func:`~intentsim.world.shift_active` holds,
    whose hour t * 24 / steps_per_day is in [start, end), or outside [end,
    start) when the shift wraps past midnight; none when start == end."""
    working: list[list[RiderState]] = [[] for _ in range(steps_per_day)]
    for rider in riders:
        start, end = rider.shift_start, rider.shift_end
        # The first tick t with t * 24 >= hour * steps_per_day, for each end.
        first, stop = -(-start * steps_per_day // 24), -(-end * steps_per_day // 24)
        if start < end:
            ticks = range(first, stop)
        elif start > end:
            ticks = [*range(stop), *range(first, steps_per_day)]
        else:
            continue
        for tick in ticks:
            working[tick].append(rider)
    return working


def _roll_over_day(world: WorldState) -> DayStats:
    """Close out yesterday's per-rider totals and return their rankings."""
    distance: dict[int, float] = {}
    earnings: dict[int, float] = {}
    orders: dict[int, float] = {}
    for r in world.riders:
        distance[r.id] = float(r.distance_ridden - r.day_mark_distance)
        earnings[r.id] = r.earnings - r.day_mark_earnings
        orders[r.id] = float(r.orders_completed - r.day_mark_orders)
        r.day_mark_distance = r.distance_ridden
        r.day_mark_earnings = r.earnings
        r.day_mark_orders = r.orders_completed
    earnings_rank = _rank(earnings)
    leader = world.riders[next(iter(earnings_rank))]  # rank 1 comes first
    return DayStats(
        distance_rank=_rank(distance),
        earnings_rank=earnings_rank,
        orders_rank=_rank(orders),
        leader_id=leader.id,
        leader_shift=(leader.shift_start, leader.shift_end),
    )


class SimulationSession:
    """Cross-tick state that is not part of the world proper.

    A session starts at a day boundary, where the first tick ranks the day
    before it.
    """

    def __init__(
        self,
        world: WorldState,
        backend,
        writer: TraceWriter,
        inspector: bool = True,
    ):
        if world.tick % world.config.steps_per_day:
            raise ValueError(f"a session must start at a day boundary, not at tick {world.tick}")
        self.world = world
        self.backend = backend
        self.writer = writer
        self.inspector = inspector
        self.stats: DayStats | None = None
        self.working: list[list[RiderState]] = [[]] * world.config.steps_per_day  # by tick of day
        self.memories: dict[int, deque[str]] = {
            r.id: deque(maxlen=MEMORY_WINDOW) for r in world.riders
        }
        if hasattr(backend, "exchange_sink"):
            backend.exchange_sink = self._log_exchange

    def _log_exchange(self, agent_id: int, payload: dict) -> None:
        self.emit("llm_exchange", {"agent": agent_id, **payload})

    def emit(self, kind: str, payload: dict) -> None:
        self.writer.emit(kind, self.world.tick, payload)

    def fall_back(self, rider_id: int, decision_kind: str, message: str) -> None:
        """Record a decision the backend failed: a warning and a missing thought."""
        self.emit("warning", {"agent": rider_id, "message": message})
        self.record_thought(rider_id, decision_kind, None)

    def record_thought(self, rider_id: int, decision_kind: str, pair: ThoughtPair | None) -> None:
        missing = pair is None
        if missing or not self.inspector:
            pair = ThoughtPair(bounded="", rational="" if missing else pair.rational)
        self.emit(
            "thought",
            {
                "agent": rider_id,
                "decision": decision_kind,
                "bounded": pair.bounded,
                "rational": pair.rational,
                "missing": missing,
            },
        )
        if not missing:
            self.memories[rider_id].append(combine_pair(pair.bounded, pair.rational))


def _base_context(
    session: SimulationSession,
    rider,
    stats: DayStats,
    capacity_left: int = 0,
    offered: tuple[OfferedOrder, ...] = (),
) -> DecisionContext:
    world = session.world
    return DecisionContext(
        rider_id=rider.id,
        persona=rider.persona,
        position=(rider.position.x, rider.position.y),
        yesterday_shift=(rider.shift_start, rider.shift_end),
        distance_rank=stats.distance_rank[rider.id],
        earnings_rank=stats.earnings_rank[rider.id],
        orders_rank=stats.orders_rank[rider.id],
        n_riders=world.config.n_riders,
        leader_id=stats.leader_id,
        leader_shift=stats.leader_shift,
        current_tick=world.tick,
        capacity_left=capacity_left,
        offered=offered,
        memory=tuple(session.memories[rider.id]),
    )


def _work_hours_phase(session: SimulationSession) -> None:
    world = session.world
    stats = session.stats
    contexts = [_base_context(session, r, stats) for r in world.riders]
    results = session.backend.decide_work_hours_batch(contexts)
    for rider, outcome in zip(world.riders, results):
        if isinstance(outcome, Exception):
            message = f"work-hours backend failed: {outcome}; keeping yesterday's hours"
            session.fall_back(rider.id, "work_hours", message)
        else:
            decision, pair = outcome
            rider.shift_start = decision.go_to_work_hour
            rider.shift_end = decision.get_off_work_hour
            session.record_thought(rider.id, "work_hours", pair)
        session.writer.work_hours(world.tick, agent=rider.id, start=rider.shift_start,
                                  end=rider.shift_end)


def _offer_for(world: WorldState, rider) -> list[OfferedOrder]:
    book = world.order_book
    offers = []
    for dist, oid in nearest_pending(world, rider.position.x, rider.position.y, OFFER_LIMIT):
        order = book[oid]
        offers.append(
            OfferedOrder(
                id=oid,
                pickup=(order.pickup.x, order.pickup.y),
                dropoff=(order.dropoff.x, order.dropoff.y),
                payment=order.payment,
                pickup_distance=dist,
            )
        )
    return offers


def _selection_phase(session: SimulationSession, working: list[RiderState]) -> None:
    world = session.world
    cap = world.config.order_cap
    for rider in working:
        if not world.pending_ids:
            break  # nothing is left to offer to anyone
        if len(rider.held_orders) >= cap:
            continue
        offers = _offer_for(world, rider)
        ctx = _base_context(session, rider, session.stats, cap - len(rider.held_orders), tuple(offers))
        try:
            selection, pair = session.backend.select_orders(ctx)
        except (BackendError, DecisionParseError) as exc:
            message = f"order-selection backend failed: {exc}; selecting nothing"
            session.fall_back(rider.id, "order_selection", message)
            continue
        session.record_thought(rider.id, "order_selection", pair)
        selected = list(selection.order_ids)
        offered = [o.id for o in offers]
        accepted, rejected, truncated = assign_orders(world, rider.id, selected, offered)
        session.emit(
            "decision",
            {
                "agent": rider.id,
                "decision": "order_selection",
                "offered": offered,
                "selected": selected,
                "accepted": accepted,
                "rejected": rejected,
                "truncated": truncated,
            },
        )
        for oid in accepted:
            session.writer.assigned(world.tick, rider.id, oid)


def _movement_phase(session: SimulationSession, working: list[RiderState]) -> None:
    world = session.world
    config = world.config
    writer, tick = session.writer, world.tick
    for rider in working:
        if rider.held_orders:
            order = world.order_book[rider.held_orders[0]]
            objective = order.pickup if order.state == ASSIGNED else order.dropoff
            new_pos = move_toward(rider.position, objective, config.max_move_per_step)
            moved = manhattan(rider.position, new_pos)
            if moved:
                rider.distance_ridden += moved
                rider.position = new_pos
            if order.state == ASSIGNED and rider.position == order.pickup:
                order.state = PICKED_UP
                writer.picked_up(tick, rider.id, order.id)
            elif order.state == PICKED_UP and rider.position == order.dropoff:
                order.state = DELIVERED
                order.delivered_tick = tick
                rider.earnings += order.payment
                rider.orders_completed += 1
                rider.held_orders.pop(0)
                writer.delivered(tick, rider.id, order.id, order.payment)
        position = rider.position
        writer.position(tick, rider.id, len(rider.held_orders), position.x, position.y)


def _accrual_phase(session: SimulationSession, working: list[RiderState]) -> None:
    world = session.world
    config = world.config
    for rider in working:
        rider.labor_cost += config.wage_rate
        rider.ticks_worked_today += 1
    if world.tick % config.steps_per_day == config.steps_per_day - 1:
        for rider in world.riders:
            if rider.ticks_worked_today:
                ticks = rider.ticks_worked_today
                session.writer.cost_accrual(world.tick, rider.id, config.wage_rate * ticks, ticks)
            rider.ticks_worked_today = 0


def step_world(world: WorldState, session: SimulationSession) -> WorldState:
    """Advance the session's world one tick. See the module docstring for
    phase order. Events go to the session's writer."""
    if world.tick >= world.config.total_steps:
        raise ValueError("simulation already ran its configured steps")
    config = world.config
    tick_of_day = world.tick % config.steps_per_day
    if tick_of_day == 0 and world.riders:
        session.stats = _roll_over_day(world)
        _work_hours_phase(session)
        session.working = working_by_tick(world.riders, config.steps_per_day)
    working = session.working[tick_of_day]
    created = generate_orders(world)
    for order in created:
        pickup, dropoff = order.pickup, order.dropoff
        session.writer.created(world.tick, [dropoff.x, dropoff.y], order.id, order.payment,
                               [pickup.x, pickup.y])
    _selection_phase(session, working)
    _movement_phase(session, working)
    _accrual_phase(session, working)
    world.tick += 1
    return world


def replay_simulation(trace_path, out_path) -> WorldState:
    """Re-run a scripted-backend trace from its recorded config.

    With scripted backends the rerun reproduces the original file byte for
    byte; callers compare the two paths to prove it.
    """
    from .backends.scripted import scripted_from_descriptor
    from .trace import iter_trace

    stream = iter_trace(trace_path)
    header = next(stream)
    start = next(stream)
    deque(stream, maxlen=0)  # read to the end, so a corrupt trace is refused
    config = SimConfig.from_dict(start.payload["config"])
    backend = scripted_from_descriptor(start.payload["backend"])
    return run_simulation(
        config,
        backend,
        out_path,
        inspector=start.payload.get("inspector", True),
        created=header.created,
    )


def run_simulation(
    config: SimConfig,
    backend,
    trace_path,
    *,
    inspector: bool = True,
    created: str | None = None,
) -> WorldState:
    """Run the full configured horizon, writing the event trace."""
    world = init_world(config)
    digest = config_digest(config)
    with open_output(trace_path) as fh:
        writer = TraceWriter(fh, digest, config.seed, created)
        writer.emit(
            "sim_start",
            0,
            {
                "config": config.to_dict(),
                "backend": backend.describe(),
                "inspector": inspector,
                "rider_start": {
                    str(r.id): [r.position.x, r.position.y] for r in world.riders
                },
            },
        )
        session = SimulationSession(world, backend, writer, inspector=inspector)
        while world.tick < config.total_steps:
            step_world(world, session)
        writer.emit(
            "sim_end",
            world.tick,
            {
                "orders_created": world.next_order_id,
                "riders": {
                    str(r.id): {
                        "earnings": round(r.earnings, 6),
                        "labor_cost": round(r.labor_cost, 6),
                        "orders_completed": r.orders_completed,
                        "distance_ridden": r.distance_ridden,
                        "x": r.position.x,
                        "y": r.position.y,
                    }
                    for r in world.riders
                },
                "world_digest": world_digest(world),
            },
        )
    return world
