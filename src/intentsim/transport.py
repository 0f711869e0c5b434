"""JSON over HTTP POST with transport retries, shared by the chat and
embedding clients."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .trace import decode_json

TIMEOUT_S = 30.0
ATTEMPTS = 3


@dataclass(frozen=True)
class Endpoint:
    """A remote model: the URL requests are posted to and the model they name."""

    base_url: str
    model_id: str


def post_json(endpoint: Endpoint, body: dict, read, error, name: str, backoff_s: float = 0.0):
    """POST ``body`` to ``endpoint.base_url`` and return ``read`` of the reply.

    Makes :data:`ATTEMPTS` attempts, sleeping ``backoff_s * attempt number``
    between them, then raises ``error`` with the last failure. What ``read``
    raises outside the retried failures propagates at once. Only a command
    that reaches a remote model loads the HTTP modules.
    """
    import http.client
    import urllib.request

    # Every transport failure is retried: OSError covers URLError, HTTPError and
    # TimeoutError, HTTPException covers a truncated body (IncompleteRead), and
    # the rest are a reply that is not JSON or lacks the fields ``read`` reads.
    retried = (OSError, http.client.HTTPException, ValueError, KeyError, IndexError, TypeError)
    request = urllib.request.Request(
        endpoint.base_url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    last_error: Exception | None = None
    for attempt in range(1, ATTEMPTS + 1):
        try:
            with urllib.request.urlopen(request, timeout=TIMEOUT_S) as resp:
                return read(decode_json(resp.read().decode("utf-8")))
        except retried as exc:
            last_error = exc
            if attempt < ATTEMPTS and backoff_s:
                time.sleep(backoff_s * attempt)
    raise error(f"{name} endpoint failed after retries: {last_error}")
