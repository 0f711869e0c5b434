"""Chat-completion decision backend.

Wire protocol: POST {"model", "temperature", "messages": [{"role",
"content"}]} to the configured endpoint, with temperature pinned to 0, and read
{"choices": [{"message": {"content": ...}}]} back. Each decision renders a
prompt template twice — once under the instinct-flavoured system preamble
and once under the calculation-flavoured one — so both reasoning streams
are captured. The decision payload itself is parsed from the second
(calculation) reply; malformed replies are re-asked with the parse error
appended, up to the configured retry budget.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import resources

from ..errors import BackendError, DecisionParseError
from .parsing import (
    extract_think_block,
    parse_decision_payload,
    prose_before_payload,
)
from .types import DecisionContext, OrderSelection, ThoughtPair, WorkHoursDecision


TEMPERATURE = 0.0


@dataclass(frozen=True)
class LlmEndpointConfig:
    base_url: str
    model_id: str
    timeout_ms: int = 30000
    max_retries: int = 2
    retry_backoff_s: float = 0.2


def load_prompt(name: str) -> str:
    return (
        resources.files("intentsim.backends")
        .joinpath("prompts")
        .joinpath(name)
        .read_text(encoding="utf-8")
    )


class ChatClient:
    """Minimal chat-completion HTTP client with transport retries."""

    def __init__(self, endpoint: LlmEndpointConfig):
        self.endpoint = endpoint

    def complete(self, messages: list[dict]) -> str:
        body = json.dumps(
            {
                "model": self.endpoint.model_id,
                "temperature": TEMPERATURE,
                "messages": messages,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint.base_url,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        last_error: Exception | None = None
        for attempt in range(self.endpoint.max_retries + 1):
            try:
                with urllib.request.urlopen(
                    request, timeout=self.endpoint.timeout_ms / 1000.0
                ) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
                return payload["choices"][0]["message"]["content"]
            except (urllib.error.URLError, json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
                last_error = exc
                if attempt < self.endpoint.max_retries and self.endpoint.retry_backoff_s:
                    time.sleep(self.endpoint.retry_backoff_s * (attempt + 1))
        raise BackendError(f"chat endpoint failed after retries: {last_error}")


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

    def __init__(
        self,
        endpoint: LlmEndpointConfig,
        dual: bool = True,
        client: ChatClient | None = None,
    ):
        self.endpoint = endpoint
        self.dual = dual
        self.client = client or ChatClient(endpoint)
        self.exchange_sink = None  # set by the engine to log raw exchanges
        self._bounded_preamble = load_prompt("preamble_bounded.txt").strip()
        self._rational_preamble = load_prompt("preamble_rational.txt").strip()
        self._work_hours_template = load_prompt("work_hours.txt")
        self._order_template = load_prompt("order_selection.txt")

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "model": self.endpoint.model_id,
            "temperature": TEMPERATURE,
            "dual": self.dual,
        }

    # -- internals ---------------------------------------------------------

    def _ask(self, agent_id: int, system: str, conversation: list[dict]) -> str:
        messages = [{"role": "system", "content": system}, *conversation]
        reply = self.client.complete(messages)
        if self.exchange_sink is not None:
            self.exchange_sink(
                agent_id,
                {
                    "request": {
                        "model": self.endpoint.model_id,
                        "temperature": TEMPERATURE,
                        "messages": messages,
                    },
                    "response": reply,
                },
            )
        return reply

    def _thought_from(self, reply: str) -> str:
        block = extract_think_block(reply)
        if block is not None:
            return block
        return prose_before_payload(reply)

    def _decide(self, ctx: DecisionContext, prompt: str, schema: str):
        persona_system_bounded = f"{ctx.persona}\n{self._bounded_preamble}"
        persona_system_rational = f"{ctx.persona}\n{self._rational_preamble}"
        bounded_text = ""
        if self.dual:
            bounded_reply = self._ask(
                ctx.rider_id, persona_system_bounded, [{"role": "user", "content": prompt}]
            )
            bounded_text = self._thought_from(bounded_reply)
        conversation = [{"role": "user", "content": prompt}]
        last_error: DecisionParseError | None = None
        for _ in range(self.endpoint.max_retries + 1):
            reply = self._ask(ctx.rider_id, persona_system_rational, conversation)
            rational_text = self._thought_from(reply)
            try:
                decision = parse_decision_payload(reply, schema)
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
        decision, pair = self._decide(ctx, prompt, "order_selection")
        return decision, pair


def extract_dual_thoughts(
    question: str,
    memory: tuple[str, ...],
    ctx: DecisionContext,
    backend,
) -> ThoughtPair:
    """Run one free-form question under both reasoning modes.

    Chat backends answer twice (instinct preamble, then calculation
    preamble); scripted backends fill their deterministic templates.
    """
    if not question:
        raise ValueError("question must be non-empty")
    if not isinstance(backend, LlmBackend):
        return backend.dual_thoughts(question, ctx)
    body = f"{question}\n\nRecent notes from your memory:\n{_format_memory(memory)}"
    bounded_reply = backend._ask(
        ctx.rider_id,
        f"{ctx.persona}\n{backend._bounded_preamble}",
        [{"role": "user", "content": body}],
    )
    rational_reply = backend._ask(
        ctx.rider_id,
        f"{ctx.persona}\n{backend._rational_preamble}",
        [{"role": "user", "content": body}],
    )
    return ThoughtPair(
        bounded=backend._thought_from(bounded_reply),
        rational=backend._thought_from(rational_reply),
    )
