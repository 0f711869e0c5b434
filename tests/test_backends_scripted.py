import pytest

from intentsim.backends.scripted import (
    ScriptedBackend,
    ScriptedPolicy,
    scripted_from_descriptor,
)
from intentsim.backends.types import DecisionContext, OfferedOrder
from intentsim.errors import ConfigError


def make_ctx(**overrides):
    base = dict(
        rider_id=3,
        persona="You are a rider.",
        position=(10, 10),
        yesterday_shift=(9, 17),
        distance_rank=4,
        earnings_rank=5,
        orders_rank=6,
        n_riders=10,
        leader_id=0,
        leader_shift=(8, 20),
        current_tick=120,
    )
    base.update(overrides)
    return DecisionContext(**base)


def test_fixed_hours_constant_policy():
    backend = ScriptedBackend(hours_policy=ScriptedPolicy("fixed_hours", {"start": 9, "end": 18}))
    decision, pair = backend.decide_work_hours(make_ctx())
    assert (decision.go_to_work_hour, decision.get_off_work_hour) == (9, 18)
    assert pair.bounded and pair.rational


def test_fixed_hours_keeps_yesterday_without_params():
    backend = ScriptedBackend(hours_policy=ScriptedPolicy("fixed_hours"))
    decision, _ = backend.decide_work_hours(make_ctx(yesterday_shift=(7, 13)))
    assert (decision.go_to_work_hour, decision.get_off_work_hour) == (7, 13)


@pytest.mark.parametrize(
    "params",
    [{"start": 30, "end": 5}, {"start": 9, "end": -1}, {"start": 9}, {"end": 17},
     {"start": 9.0, "end": 17}, {"start": True, "end": 17}],
    ids=["start_30", "end_negative", "start_alone", "end_alone", "float_start", "bool_start"],
)
def test_fixed_hours_refuses_impossible_params(params):
    # Out-of-range hours used to be clamped (30 -> 23) and a lone hour
    # ignored; the sim_start descriptor then disagreed with the decisions.
    with pytest.raises(ConfigError, match="fixed_hours"):
        ScriptedBackend(hours_policy=ScriptedPolicy("fixed_hours", params))
    with pytest.raises(ConfigError, match="fixed_hours"):
        scripted_from_descriptor({
            "kind": "scripted",
            "hours_policy": {"kind": "fixed_hours", "params": params},
            "selection_policy": {"kind": "greedy_nearest", "params": {}},
        })


def test_imitate_widens_leader_shift_by_delta():
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 1})
    )
    decision, pair = backend.decide_work_hours(make_ctx(leader_shift=(8, 20)))
    assert (decision.go_to_work_hour, decision.get_off_work_hour) == (7, 21)
    assert "imitate rider 0" in pair.bounded


def test_imitate_clamps_to_day_bounds():
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 3})
    )
    decision, _ = backend.decide_work_hours(make_ctx(leader_shift=(1, 22)))
    assert (decision.go_to_work_hour, decision.get_off_work_hour) == (0, 23)


def test_imitate_day0_uses_planned_hours():
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 1, "day0": (10, 13)})
    )
    decision, pair = backend.decide_work_hours(make_ctx(current_tick=0))
    assert (decision.go_to_work_hour, decision.get_off_work_hour) == (10, 13)
    assert "imitate" not in pair.bounded


def offers(*specs):
    out = []
    for oid, payment, dist in specs:
        out.append(
            OfferedOrder(id=oid, pickup=(0, 0), dropoff=(0, dist), payment=payment,
                         pickup_distance=dist)
        )
    return tuple(out)


def test_greedy_empty_offer_selects_nothing():
    backend = ScriptedBackend()
    selection, pair = backend.select_orders(make_ctx(capacity_left=2, offered=()))
    assert selection.order_ids == ()
    assert pair.rational


def test_greedy_payment_per_distance_rule():
    # 30/(1+1)=15.0 beats 50/(10+1)=4.55, so order 2 wins the single slot.
    backend = ScriptedBackend()
    ctx = make_ctx(capacity_left=1, offered=offers((1, 50.0, 10), (2, 30.0, 1)))
    selection, _ = backend.select_orders(ctx)
    assert selection.order_ids == (2,)


def test_greedy_tie_breaks_by_lower_id():
    backend = ScriptedBackend()
    ctx = make_ctx(capacity_left=1, offered=offers((7, 10.0, 4), (3, 10.0, 4)))
    selection, _ = backend.select_orders(ctx)
    assert selection.order_ids == (3,)


def test_route_optimizer_prefers_short_routes():
    backend = ScriptedBackend(selection_policy=ScriptedPolicy("route_optimizer"))
    long_route = OfferedOrder(id=1, pickup=(0, 0), dropoff=(30, 30), payment=20.0, pickup_distance=2)
    short_route = OfferedOrder(id=2, pickup=(0, 0), dropoff=(1, 1), payment=5.0, pickup_distance=2)
    selection, pair = backend.select_orders(
        make_ctx(capacity_left=1, offered=(long_route, short_route))
    )
    assert selection.order_ids == (2,)
    assert "short routes" in pair.bounded


def test_scripted_decisions_are_pure():
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 2}),
        selection_policy=ScriptedPolicy("greedy_nearest"),
    )
    ctx = make_ctx(capacity_left=2, offered=offers((1, 9.0, 3), (2, 8.0, 1)))
    first = backend.select_orders(ctx)
    second = backend.select_orders(ctx)
    assert first == second
    assert backend.decide_work_hours(ctx) == backend.decide_work_hours(ctx)


def test_unknown_policy_kinds_rejected():
    with pytest.raises(ConfigError):
        ScriptedBackend(hours_policy=ScriptedPolicy("greedy_nearest"))
    with pytest.raises(ConfigError):
        ScriptedBackend(selection_policy=ScriptedPolicy("fixed_hours"))


def test_descriptor_round_trip():
    backend = ScriptedBackend(
        hours_policy=ScriptedPolicy("imitate_top_ranked", {"delta": 1, "day0": [10, 13]}),
    )
    rebuilt = scripted_from_descriptor(backend.describe())
    assert rebuilt.describe() == backend.describe()

