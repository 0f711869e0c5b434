import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from intentsim.config import SimConfig
from intentsim.world import (
    ASSIGNED,
    PENDING,
    Position,
    add_pending,
    assign_orders,
    generate_orders,
    init_world,
    is_peak_tick,
    manhattan,
    move_toward,
    nearest_pending,
    poisson_draw,
    shift_active,
    world_digest,
)


def small_config(**overrides):
    base = dict(grid_size=40, total_steps=240, steps_per_day=120, n_riders=5,
                base_order_rate=1.0, seed=42)
    base.update(overrides)
    return SimConfig(**base)


# --- move_toward -------------------------------------------------------------

def test_move_toward_identity():
    p = Position(3, 4)
    assert move_toward(p, p, 30) == p


def test_move_toward_axis_priority():
    # 10 units spent on x, remaining 20 on y.
    assert move_toward(Position(0, 0), Position(10, 40), 30) == Position(10, 20)


def test_move_toward_reaches_close_target():
    assert move_toward(Position(0, 0), Position(5, 5), 30) == Position(5, 5)


coords = st.integers(min_value=0, max_value=199)


@given(coords, coords, coords, coords, st.integers(min_value=1, max_value=60))
def test_move_toward_respects_budget_and_bounds(x1, y1, x2, y2, budget):
    start, target = Position(x1, y1), Position(x2, y2)
    moved = move_toward(start, target, budget)
    assert manhattan(start, moved) <= budget
    assert 0 <= moved.x < 200 and 0 <= moved.y < 200
    if manhattan(start, target) <= budget:
        assert moved == target
    else:
        assert manhattan(start, moved) == budget


# --- init_world --------------------------------------------------------------

def test_init_world_positions_in_grid():
    cfg = SimConfig(n_riders=100, grid_size=200, seed=42)
    world = init_world(cfg)
    assert len(world.riders) == 100
    for r in world.riders:
        assert 0 <= r.position.x < 200
        assert 0 <= r.position.y < 200
        assert r.persona


def test_init_world_zero_riders():
    world = init_world(small_config(n_riders=0))
    assert world.riders == []


def test_init_world_deterministic():
    cfg = small_config(seed=7)
    assert world_digest(init_world(cfg)) == world_digest(init_world(cfg))


def test_init_world_seed_changes_layout():
    a = init_world(small_config(seed=1))
    b = init_world(small_config(seed=2))
    assert world_digest(a) != world_digest(b)


# --- order generation --------------------------------------------------------

def test_zero_rate_generates_nothing():
    world = init_world(small_config(base_order_rate=0.0))
    for _ in range(50):
        assert generate_orders(world) == []


def test_generation_deterministic():
    a = init_world(small_config())
    b = init_world(small_config())
    for _ in range(20):
        oa = generate_orders(a)
        ob = generate_orders(b)
        assert [(o.id, o.pickup, o.dropoff, o.payment) for o in oa] == [
            (o.id, o.pickup, o.dropoff, o.payment) for o in ob
        ]


def test_orders_created_pending_in_grid():
    world = init_world(small_config(base_order_rate=4.0))
    created = generate_orders(world)
    for o in created:
        assert o.state == PENDING
        assert 0 <= o.pickup.x < 40 and 0 <= o.pickup.y < 40
        assert 0 <= o.dropoff.x < 40 and 0 <= o.dropoff.y < 40
        assert 5.0 <= o.payment <= 15.0


def test_peak_rate_triples_mean_over_10k_draws():
    # Monte Carlo check of the generation rate against the analytic mean.
    cfg = small_config(base_order_rate=3.0, peak_multiplier=3.0,
                       peak_ticks_per_day=(60,))
    peak_world = init_world(cfg)
    peak_world.tick = 60
    peak_total = sum(len(generate_orders(peak_world)) for _ in range(10_000))
    off_world = init_world(cfg)
    off_world.tick = 20
    off_total = sum(len(generate_orders(off_world)) for _ in range(10_000))
    assert abs(peak_total / 10_000 - 9.0) / 9.0 < 0.05
    assert abs(off_total / 10_000 - 3.0) / 3.0 < 0.05
    assert 3.0 * 0.95 < peak_total / off_total < 3.0 * 1.05


def test_peak_window_is_plus_minus_five_circular():
    cfg = small_config(peak_ticks_per_day=(0,))
    assert is_peak_tick(0, cfg)
    assert is_peak_tick(5, cfg)
    assert not is_peak_tick(6, cfg)
    assert is_peak_tick(115, cfg)  # wraps around the day boundary


def test_poisson_draw_zero_rate():
    rng = random.Random(0)
    assert poisson_draw(rng, 0.0) == 0


# --- assign_orders -----------------------------------------------------------

def _world_with_pending(n_orders):
    world = init_world(small_config(base_order_rate=0.0))
    from intentsim.world import Order

    for i in range(n_orders):
        order = Order(id=i, pickup=Position(i, 0), dropoff=Position(i, 5),
                      payment=6.0, created_tick=0)
        world.order_book[i] = order
        world.next_order_id = i + 1
        add_pending(world, order)
    return world


def test_assign_empty_selection_no_change():
    world = _world_with_pending(2)
    assign_orders(world, 0, [], [0, 1])
    assert world.riders[0].held_orders == []
    assert set(world.pending_ids) == {0, 1}


def test_assign_truncates_at_cap():
    world = _world_with_pending(5)
    rider = world.riders[0]
    # Rider already holds two; cap is 3, so only the first valid pick fits.
    assign_orders(world, 0, [0, 1], [0, 1])
    assert rider.held_orders == [0, 1]
    assign_orders(world, 0, [2, 3], [2, 3])
    assert rider.held_orders == [0, 1, 2]
    assert world.order_book[3].state == PENDING


def test_assign_rejects_unknown_ids_applies_rest():
    world = _world_with_pending(3)
    assign_orders(world, 0, [99, 1], [0, 1, 2])
    rider = world.riders[0]
    assert rider.held_orders == [1]
    assert world.order_book[1].state == ASSIGNED
    assert world.order_book[1].rider_id == 0
    assert 99 not in world.order_book


# New orders with pickups on a small grid (so distances tie), an order
# taken by its place among the pending ids, or an offer lookup from a point.
offer_ops = st.lists(
    st.tuples(st.just("add"), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=15))
    | st.tuples(st.just("take"), st.integers(0, 200))
    | st.tuples(st.just("look"), st.integers(0, 6), st.integers(0, 6)),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(ops=offer_ops)
def test_nearest_pending_matches_heapq(ops):
    # The pending columns after any mix of appends and swap-removes give
    # the orders heapq.nsmallest gives over (|dx| + |dy|, id) of the book.
    from intentsim.engine import OFFER_LIMIT
    from intentsim.world import Order

    world = init_world(small_config(base_order_rate=0.0, order_cap=1000))
    pending: set[int] = set()
    for op in ops + [("look", 3, 3)]:
        if op[0] == "add":
            for x, y in op[1]:
                oid = world.next_order_id
                order = Order(id=oid, pickup=Position(x, y), dropoff=Position(0, 0),
                              payment=6.0, created_tick=0)
                world.order_book[oid] = order
                world.next_order_id += 1
                add_pending(world, order)
                pending.add(oid)
        elif op[0] == "take" and pending:
            oid = sorted(pending)[op[1] % len(pending)]
            assert assign_orders(world, 0, [oid], [oid])[0] == [oid]
            pending.discard(oid)
        elif op[0] == "look":
            x, y = op[1], op[2]
            book = world.order_book
            expected = heapq.nsmallest(
                OFFER_LIMIT,
                ((abs(book[oid].pickup.x - x) + abs(book[oid].pickup.y - y), oid) for oid in pending),
            )
            assert nearest_pending(world, x, y, OFFER_LIMIT) == expected
        assert set(world.pending_ids) == pending
        rows = [world.pending_ids[oid] for oid in sorted(pending)]
        assert sorted(rows) == list(range(len(pending)))
        for oid, row in world.pending_ids.items():
            assert world.pending_order[row] == oid
            assert (world.pending_x[row], world.pending_y[row]) == (
                world.order_book[oid].pickup.x, world.order_book[oid].pickup.y)


def test_assign_unknown_rider_raises():
    world = _world_with_pending(1)
    with pytest.raises(ValueError):
        assign_orders(world, 42, [0], [0])


# --- shift arithmetic --------------------------------------------------------

def test_shift_active_basic():
    # 120 ticks/day -> 5 ticks per hour; shift 9..18 covers ticks 45..89.
    assert not shift_active(9, 18, 44, 120)
    assert shift_active(9, 18, 45, 120)
    assert shift_active(9, 18, 89, 120)
    assert not shift_active(9, 18, 90, 120)


def test_shift_start_equals_end_means_off():
    assert not shift_active(8, 8, 40, 120)


def test_shift_wraps_midnight():
    assert shift_active(22, 2, 115, 120)
    assert shift_active(22, 2, 5, 120)
    assert not shift_active(22, 2, 60, 120)
