"""JSON over HTTP POST with transport retries, shared by the chat and
embedding clients."""

from __future__ import annotations

import http.client
import json
import time
import urllib.request

# Every transport failure is retried: OSError covers URLError, HTTPError and
# TimeoutError, HTTPException covers a truncated body (IncompleteRead), and
# the rest are a reply that is not JSON or lacks the fields ``read`` reads.
RETRIED = (OSError, http.client.HTTPException, ValueError, KeyError, IndexError, TypeError)


def post_json(endpoint, body: dict, read, error, name: str, backoff_s: float = 0.0):
    """POST ``body`` to ``endpoint.base_url`` and return ``read`` of the reply.

    Makes ``endpoint.max_retries + 1`` attempts, sleeping ``backoff_s *
    (attempt + 1)`` between them, then raises ``error`` with the last
    failure. What ``read`` raises outside :data:`RETRIED` propagates at once.
    """
    request = urllib.request.Request(
        endpoint.base_url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    last_error: Exception | None = None
    for attempt in range(endpoint.max_retries + 1):
        try:
            with urllib.request.urlopen(request, timeout=endpoint.timeout_ms / 1000.0) as resp:
                return read(json.loads(resp.read().decode("utf-8")))
        except RETRIED as exc:
            last_error = exc
            if attempt < endpoint.max_retries and backoff_s:
                time.sleep(backoff_s * (attempt + 1))
    raise error(f"{name} endpoint failed after retries: {last_error}")
