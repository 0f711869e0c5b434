"""Deterministic scripted decision policies.

Each policy is a pure function of the decision context, so identical
contexts always yield identical decisions and identical thought texts.
Thought templates deliberately carry intention-bearing phrases ("imitate",
"where orders are dense", "short routes") so downstream text clustering has
semantic signal without any language model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..world import manhattan
from .types import DecisionContext, ThoughtPair

@dataclass(frozen=True)
class ScriptedPolicy:
    """A policy kind plus its parameters.

    fixed_hours: params ``start``/``end``, hours in 0-23 (omit both to keep
    yesterday's shift); imitate_top_ranked: ``delta`` hours widened on each
    side of the leader's shift, ``day0`` optional (start, end) used before
    any ranking data exists; greedy_nearest / route_optimizer take no
    parameters.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


def _clamp_hour(hour: int) -> int:
    return max(0, min(23, hour))


def fixed_shift(params: dict) -> tuple[int, int] | None:
    """The fixed (start, end) hours, both in 0-23, or None for yesterday's shift."""
    start, end = params.get("start"), params.get("end")
    if start is None and end is None:
        return None
    if start is None or end is None:
        raise ConfigError("fixed_hours", "give both a start and an end hour, or neither")
    for name, hour in (("start", start), ("end", end)):
        if not isinstance(hour, int) or isinstance(hour, bool) or not 0 <= hour <= 23:
            raise ConfigError("fixed_hours", f"{name} hour {hour!r} is not an integer in 0-23")
    return start, end


def decide_hours_fixed(policy: ScriptedPolicy, ctx: DecisionContext) -> tuple[tuple[int, int], ThoughtPair]:
    shift = fixed_shift(policy.params)
    if shift is None:
        shift = ctx.yesterday_shift
        bounded = "I am comfortable with my routine; I will keep my usual working hours."
    else:
        bounded = "I trust my fixed schedule; I will keep the hours I was given."
    rational = (
        f"Keeping the shift {shift[0]}:00-{shift[1]}:00 "
        "holds my workload steady; nothing in the rankings justifies a change."
    )
    return shift, ThoughtPair(bounded=bounded, rational=rational)


def decide_hours_imitate(policy: ScriptedPolicy, ctx: DecisionContext) -> tuple[tuple[int, int], ThoughtPair]:
    delta = int(policy.params.get("delta", 1))
    day0 = policy.params.get("day0")
    if ctx.current_tick == 0:
        if day0 is not None:
            start, end = int(day0[0]), int(day0[1])
        else:
            start, end = ctx.yesterday_shift
        shift = _clamp_hour(start), _clamp_hour(end)
        pair = ThoughtPair(
            bounded="First day on the job; I will ride my planned hours and see how others do.",
            rational=(
                f"No ranking data exists yet, so the shift {shift[0]}:00-{shift[1]}:00 "
                "is as good as any other choice."
            ),
        )
        return shift, pair
    leader_start, leader_end = ctx.leader_shift
    shift = _clamp_hour(leader_start - delta), _clamp_hour(leader_end + delta)
    if ctx.rider_id == ctx.leader_id:
        pair = ThoughtPair(
            bounded=(
                "I topped yesterday's earnings and everyone is chasing me; I will "
                "defend my rank and stretch my hours even further."
            ),
            rational=(
                f"Holding rank 1 requires staying ahead; widening my own shift by "
                f"{delta} hour(s) on each side preserves the earnings lead."
            ),
        )
    else:
        pair = ThoughtPair(
            bounded=(
                f"Ranking {ctx.earnings_rank} in earnings stings; I feel jealous of rider "
                f"{ctx.leader_id} and I will imitate rider {ctx.leader_id} to keep up with my peers."
            ),
            rational=(
                f"Rider {ctx.leader_id} topped yesterday's earnings working "
                f"{leader_start}:00-{leader_end}:00; copying that shift widened by {delta} "
                "hour(s) on each side should raise my order volume."
            ),
        )
    return shift, pair


def select_greedy_nearest(policy: ScriptedPolicy, ctx: DecisionContext) -> tuple[tuple[int, ...], ThoughtPair]:
    # Value an offer by payment per unit of pickup distance (+1 so zero
    # distance stays finite); ties prefer the lower order id.
    ranked = sorted(
        ctx.offered,
        key=lambda o: (-(o.payment / (o.pickup_distance + 1)), o.id),
    )
    chosen = tuple(o.id for o in ranked[: max(0, ctx.capacity_left)])
    if chosen:
        best = next(o for o in ctx.offered if o.id == chosen[0])
        bounded = (
            "Orders are waiting nearby; I will go where orders are dense and grab "
            "the best paying ones before anyone else."
        )
        rational = (
            f"I rank offers by payment per unit of pickup distance; order {best.id} pays "
            f"{best.payment} at distance {best.pickup_distance}, so I take the top "
            f"{len(chosen)} within my remaining capacity."
        )
    else:
        bounded = "Nothing worth grabbing right now; I will wait for denser order areas."
        rational = "No offer fits my remaining capacity, so accepting nothing is optimal."
    return chosen, ThoughtPair(bounded=bounded, rational=rational)


def select_route_optimizer(policy: ScriptedPolicy, ctx: DecisionContext) -> tuple[tuple[int, ...], ThoughtPair]:
    def route_len(o) -> int:
        return o.pickup_distance + manhattan(o.pickup, o.dropoff)

    ranked = sorted(ctx.offered, key=lambda o: (route_len(o), o.id))
    chosen = tuple(o.id for o in ranked[: max(0, ctx.capacity_left)])
    if chosen:
        bounded = (
            "Traffic and long detours wear me out; I will avoid congestion and stick "
            "to the short routes I know."
        )
        rational = (
            f"I minimize total route length (pickup plus delivery legs); the {len(chosen)} "
            "shortest routes go into my bag."
        )
    else:
        bounded = "No short routes on offer; I would rather not ride a long detour."
        rational = "Every candidate route exceeds my remaining capacity, so I take none."
    return chosen, ThoughtPair(bounded=bounded, rational=rational)


_HOURS_DISPATCH = {
    "fixed_hours": decide_hours_fixed,
    "imitate_top_ranked": decide_hours_imitate,
}
_SELECTION_DISPATCH = {
    "greedy_nearest": select_greedy_nearest,
    "route_optimizer": select_route_optimizer,
}


class ScriptedBackend:
    """Pure, reentrant decision backend driven by two scripted policies."""

    kind = "scripted"

    def __init__(
        self,
        hours_policy: ScriptedPolicy | None = None,
        selection_policy: ScriptedPolicy | None = None,
    ):
        self.hours_policy = hours_policy or ScriptedPolicy("fixed_hours")
        self.selection_policy = selection_policy or ScriptedPolicy("greedy_nearest")
        if self.hours_policy.kind not in _HOURS_DISPATCH:
            raise ConfigError("hours_policy", f"unknown kind {self.hours_policy.kind!r}")
        if self.selection_policy.kind not in _SELECTION_DISPATCH:
            raise ConfigError(
                "selection_policy", f"unknown kind {self.selection_policy.kind!r}"
            )
        if self.hours_policy.kind == "fixed_hours":
            fixed_shift(self.hours_policy.params)  # refuse bad hours before any decision

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "hours_policy": self.hours_policy.describe(),
            "selection_policy": self.selection_policy.describe(),
        }

    def decide_work_hours(self, ctx: DecisionContext) -> tuple[tuple[int, int], ThoughtPair]:
        return _HOURS_DISPATCH[self.hours_policy.kind](self.hours_policy, ctx)

    def decide_work_hours_batch(self, contexts) -> list[tuple[tuple[int, int], ThoughtPair]]:
        return [self.decide_work_hours(ctx) for ctx in contexts]

    def select_orders(self, ctx: DecisionContext) -> tuple[tuple[int, ...], ThoughtPair]:
        return _SELECTION_DISPATCH[self.selection_policy.kind](self.selection_policy, ctx)


def scripted_from_descriptor(descriptor: dict) -> ScriptedBackend:
    """Rebuild a scripted backend from a trace's sim_start descriptor."""
    if descriptor.get("kind") != "scripted":
        raise ConfigError("backend", f"cannot replay backend kind {descriptor.get('kind')!r}")
    hours = descriptor["hours_policy"]
    selection = descriptor["selection_policy"]
    return ScriptedBackend(
        hours_policy=ScriptedPolicy(hours["kind"], dict(hours.get("params", {}))),
        selection_policy=ScriptedPolicy(selection["kind"], dict(selection.get("params", {}))),
    )
