"""JSON over HTTP POST with transport retries, shared by the chat and
embedding clients."""

from __future__ import annotations

import http.client
import json
import time
import urllib.request
from dataclasses import dataclass

from .trace import decode_json

# Every transport failure is retried: OSError covers URLError, HTTPError and
# TimeoutError, HTTPException covers a truncated body (IncompleteRead), and
# the rest are a reply that is not JSON or lacks the fields ``read`` reads.
RETRIED = (OSError, http.client.HTTPException, ValueError, KeyError, IndexError, TypeError)
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
    raises outside :data:`RETRIED` propagates at once.
    """
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
        except RETRIED as exc:
            last_error = exc
            if attempt < ATTEMPTS and backoff_s:
                time.sleep(backoff_s * attempt)
    raise error(f"{name} endpoint failed after retries: {last_error}")
