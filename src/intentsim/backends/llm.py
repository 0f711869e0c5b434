"""Chat-completion decision backend.

Wire protocol: POST {"model", "temperature", "messages": [{"role",
"content"}]} to the configured endpoint, with temperature pinned to 0, and read
{"choices": [{"message": {"content": ...}}]} back. Each decision renders a
prompt template twice — once under the instinct-flavoured system preamble
and once under the calculation-flavoured one — so both reasoning streams
are captured. The decision payload itself is parsed from the second
(calculation) reply; malformed replies are re-asked with the parse error
appended, up to :data:`ASKS` asks in all.
"""

from __future__ import annotations

import json
from importlib import resources

from ..errors import BackendError, DecisionParseError
from ..transport import Endpoint, post_json
from .parsing import parse_reply, read_reply
from .types import DecisionContext, OrderSelection, ThoughtPair, WorkHoursDecision


TEMPERATURE = 0.0
CHAT_BACKOFF_S = 0.2  # times the attempt number, between chat transport attempts
ASKS = 3  # rational asks per decision: the first and two re-asks


def load_prompt(name: str) -> str:
    return (
        resources.files("intentsim.backends")
        .joinpath("prompts")
        .joinpath(name)
        .read_text(encoding="utf-8")
    )


def chat_request(model_id: str, messages: list[dict]) -> dict:
    """The request body a chat completion posts, and the exchange log records."""
    return {"model": model_id, "temperature": TEMPERATURE, "messages": messages}


def _reply_text(payload) -> str:
    content = payload["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise TypeError(f"reply content is {type(content).__name__}, not a string")
    return content


def complete(endpoint: Endpoint, messages: list[dict]) -> str:
    """The reply text of one chat completion, with transport retries."""
    request = chat_request(endpoint.model_id, messages)
    return post_json(endpoint, request, _reply_text, BackendError, "chat", CHAT_BACKOFF_S)


def _format_memory(memory: tuple[str, ...]) -> str:
    if not memory:
        return "(no notes yet)"
    return "\n".join(f"- {line}" for line in memory)


def _format_orders(ctx: DecisionContext) -> str:
    items = [
        {
            "order_id": o.id,
            "pickup": [o.pickup[0], o.pickup[1]],
            "delivery": [o.dropoff[0], o.dropoff[1]],
            "money": o.payment,
        }
        for o in ctx.offered
    ]
    return json.dumps(items)


class LlmBackend:
    """Decision backend that defers judgement to a chat model."""

    kind = "llm"

    def __init__(self, endpoint: Endpoint, dual: bool = True):
        self.endpoint = endpoint
        self.dual = dual
        self.exchange_sink = None  # set by the engine to log raw exchanges
        self._preambles = {
            mode: load_prompt(f"preamble_{mode}.txt").strip() for mode in ("bounded", "rational")
        }
        self._work_hours_template = load_prompt("work_hours.txt")
        self._order_template = load_prompt("order_selection.txt")

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "model": self.endpoint.model_id,
            "temperature": TEMPERATURE,
            "dual": self.dual,
        }

    def ask(self, ctx: DecisionContext, mode: str, conversation: list[dict]) -> str:
        """Ask as the rider under the ``"bounded"`` or ``"rational"`` preamble.

        The exchange goes to ``exchange_sink`` when one is set.
        """
        system = f"{ctx.persona}\n{self._preambles[mode]}"
        messages = [{"role": "system", "content": system}, *conversation]
        reply = complete(self.endpoint, messages)
        if self.exchange_sink is not None:
            self.exchange_sink(
                ctx.rider_id,
                {"request": chat_request(self.endpoint.model_id, messages), "response": reply},
            )
        return reply

    # -- internals ---------------------------------------------------------

    def _decide(self, ctx: DecisionContext, prompt: str, schema: str):
        conversation = [{"role": "user", "content": prompt}]
        bounded_text = ""
        if self.dual:
            bounded_text = read_reply(self.ask(ctx, "bounded", conversation))[0]
        last_error: DecisionParseError | None = None
        for _ in range(ASKS):
            reply = self.ask(ctx, "rational", conversation)
            try:
                rational_text, decision = parse_reply(reply, schema)
            except DecisionParseError as exc:
                last_error = exc
                conversation = conversation + [
                    {"role": "assistant", "content": reply},
                    {
                        "role": "user",
                        "content": (
                            f"Your reply was invalid: {exc.violation}. "
                            "Respond again using exactly the required json format."
                        ),
                    },
                ]
                continue
            if not rational_text:
                rational_text = "(no reasoning text returned)"
            return decision, ThoughtPair(bounded=bounded_text, rational=rational_text)
        raise BackendError(f"unparseable reply after retries: {last_error}")

    # -- backend interface ---------------------------------------------------

    def decide_work_hours(self, ctx: DecisionContext) -> tuple[WorkHoursDecision, ThoughtPair]:
        prompt = self._work_hours_template.format(
            n_riders=ctx.n_riders,
            distance_rank=ctx.distance_rank,
            earnings_rank=ctx.earnings_rank,
            orders_rank=ctx.orders_rank,
            yesterday_start=ctx.yesterday_shift[0],
            yesterday_end=ctx.yesterday_shift[1],
            memory=_format_memory(ctx.memory),
        )
        return self._decide(ctx, prompt, "work_hours")

    def decide_work_hours_batch(self, contexts):
        """Decide each context in order; a failed decision is returned as its error."""
        return [self._safe_decide_hours(ctx) for ctx in contexts]

    def _safe_decide_hours(self, ctx: DecisionContext):
        try:
            return self.decide_work_hours(ctx)
        except (BackendError, DecisionParseError) as exc:
            return exc

    def select_orders(self, ctx: DecisionContext) -> tuple[OrderSelection, ThoughtPair]:
        prompt = self._order_template.format(
            order_list=_format_orders(ctx),
            x=ctx.position[0],
            y=ctx.position[1],
            capacity=ctx.capacity_left,
        )
        return self._decide(ctx, prompt, "order_selection")
