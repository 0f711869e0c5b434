import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from intentsim import transport
from intentsim.backends import llm, parsing
from intentsim.backends.llm import LlmBackend, complete
from intentsim.backends.types import DecisionContext, OfferedOrder, ThoughtPair
from intentsim.embedding import RemoteEmbedder
from intentsim.errors import BackendError, EmbeddingError
from intentsim.transport import Endpoint


class StubHandler(BaseHTTPRequestHandler):
    """Chat/embedding stub; replies come from the server's scripted queue,
    or from the queue for the request's path when ``script`` is a dict.

    An ``{"embedding": rows}`` reply sends those rows, and a ``{"vectors":
    {text: row}}`` reply answers each input of the request with its row. A
    ``{"stall": seconds}`` reply sleeps before answering, and a
    ``{"short_body": True}`` reply announces 100 bytes and sends 6.
    """

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        self.server.requests.append((self.path, request))
        script = self.server.script
        if isinstance(script, dict):  # one queue per request path
            script = script[self.path]
        reply = script.pop(0) if script else {"status": 500, "body": b"exhausted"}
        if reply.get("short_body"):
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"choi')
            return
        time.sleep(reply.get("stall", 0))
        status = reply.get("status", 200)
        if "chat" in reply:
            body = json.dumps(
                {"choices": [{"message": {"content": reply["chat"]}}]}
            ).encode()
        elif "embedding" in reply:
            body = json.dumps(
                {"data": [{"embedding": vec} for vec in reply["embedding"]]}
            ).encode()
        elif "vectors" in reply:
            rows = [reply["vectors"][text] for text in request["input"]]
            body = json.dumps({"data": [{"embedding": vec} for vec in rows]}).encode()
        else:
            body = reply.get("body", b"")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # the client gave up waiting

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.script = []
    server.requests = []
    # A short poll lets shutdown() return without waiting out the default 0.5 s.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    # Chat retries wait 0.2 s, then 0.4 s; these tests need not.
    monkeypatch.setattr(llm, "CHAT_BACKOFF_S", 0.0)


def endpoint_for(server, path="/v1/chat/completions", model_id="stub-model"):
    host, port = server.server_address
    return Endpoint(base_url=f"http://{host}:{port}{path}", model_id=model_id)


def make_ctx(**overrides):
    base = dict(
        rider_id=1,
        persona="You are Sam Chen, a 30-year-old delivery rider.",
        position=(28, 104),
        yesterday_shift=(10, 18),
        distance_rank=34,
        earnings_rank=28,
        orders_rank=31,
        n_riders=100,
        leader_id=0,
        leader_shift=(8, 20),
        current_tick=120,
    )
    base.update(overrides)
    return DecisionContext(**base)


def test_work_hours_decision_parsed_from_reply(stub_server):
    stub_server.script = [
        {"chat": "<think>Feeling ambitious today.</think>I'll start early."},
        {"chat": '<think>Math says widen.</think>{"go_to_work_time":"10:00","get_off_work_time":"18:00"}'},
    ]
    backend = LlmBackend(endpoint_for(stub_server))
    decision, pair = backend.decide_work_hours(make_ctx())
    assert decision == (10, 18)
    assert pair.bounded == "Feeling ambitious today."
    assert pair.rational == "Math says widen."


def test_requests_carry_temperature_zero_and_model(stub_server):
    stub_server.script = [
        {"chat": "<think>a</think>"},
        {"chat": '{"go_to_work_time":"9:00","get_off_work_time":"17:00"}'},
    ]
    backend = LlmBackend(endpoint_for(stub_server))
    backend.decide_work_hours(make_ctx())
    for _, request in stub_server.requests:
        assert request["temperature"] == 0
        assert request["model"] == "stub-model"
        assert request["messages"][0]["role"] == "system"


def test_dual_preambles_differ(stub_server):
    stub_server.script = [
        {"chat": "<think>instinct</think>"},
        {"chat": '{"go_to_work_time":"9:00","get_off_work_time":"17:00"}'},
    ]
    backend = LlmBackend(endpoint_for(stub_server))
    backend.decide_work_hours(make_ctx())
    systems = [req["messages"][0]["content"] for _, req in stub_server.requests]
    assert "bounded rational way" in systems[0]
    assert "completely rational way" in systems[1]
    assert all(s.startswith("You are Sam Chen") for s in systems)


def test_malformed_reply_is_reasked_with_error(stub_server):
    stub_server.script = [
        {"chat": "bounded side"},
        {"chat": '{"go_to_work_time":"8:30","get_off_work_time":"17:00"}'},
        {"chat": '{"go_to_work_time":"8:00","get_off_work_time":"17:00"}'},
    ]
    backend = LlmBackend(endpoint_for(stub_server))
    decision, _ = backend.decide_work_hours(make_ctx())
    assert decision[0] == 8
    retry_request = stub_server.requests[-1][1]
    user_turns = [m for m in retry_request["messages"] if m["role"] == "user"]
    assert "minutes must be 00" in user_turns[-1]["content"]


def test_each_reply_is_scanned_once(stub_server, monkeypatch):
    # A reply without a think block was scanned for its payload twice: for
    # the prose before it (the thought) and for the decision.
    replies = [
        "go early",
        'minutes are off {"go_to_work_time":"8:30","get_off_work_time":"17:00"}',
        'widen the shift {"go_to_work_time":"8:00","get_off_work_time":"17:00"}',
    ]
    stub_server.script = [{"chat": reply} for reply in replies]
    scanned = []
    scan = parsing.last_json_object
    monkeypatch.setattr(parsing, "last_json_object", lambda text: scanned.append(text) or scan(text))
    decision, pair = LlmBackend(endpoint_for(stub_server)).decide_work_hours(make_ctx())
    assert decision[0] == 8
    assert pair == ThoughtPair(bounded="go early", rational="widen the shift")
    assert scanned == replies


def test_unparseable_after_retries_raises_backend_error(stub_server):
    stub_server.script = [
        {"chat": "bounded side"},
        {"chat": "nope"},
        {"chat": "still nope"},
        {"chat": "never"},
    ]
    backend = LlmBackend(endpoint_for(stub_server))
    with pytest.raises(BackendError, match="unparseable reply after retries: no JSON object"):
        backend.decide_work_hours(make_ctx())
    assert len(stub_server.requests) == 1 + llm.ASKS


def test_order_selection_round_trip(stub_server):
    stub_server.script = [
        {"chat": "<think>those two look close</think>"},
        {"chat": 'Taking the close ones. {"order_list":[3,7]}'},
    ]
    backend = LlmBackend(endpoint_for(stub_server))
    offers = (
        OfferedOrder(id=3, pickup=(1, 1), dropoff=(2, 2), payment=8.0, pickup_distance=2),
        OfferedOrder(id=7, pickup=(3, 3), dropoff=(4, 4), payment=6.0, pickup_distance=6),
    )
    selection, _ = backend.select_orders(make_ctx(capacity_left=2, offered=offers))
    assert selection == (3, 7)
    prompt = stub_server.requests[0][1]["messages"][1]["content"]
    assert '"order_id": 3' in prompt
    assert "[28,104]" in prompt


def test_transport_failure_retries_then_raises(stub_server, monkeypatch):
    monkeypatch.setattr(transport, "ATTEMPTS", 2)
    stub_server.script = [{"status": 500, "body": b"boom"}] * 4
    with pytest.raises(BackendError, match="after retries"):
        complete(endpoint_for(stub_server), [{"role": "user", "content": "hi"}])
    assert len(stub_server.requests) == 2  # initial + one retry


@pytest.mark.parametrize("kind", ["chat", "embedding"])
def test_backoff_waits_only_between_chat_attempts(stub_server, monkeypatch, kind):
    monkeypatch.setattr(llm, "CHAT_BACKOFF_S", 0.2)
    sleeps = []
    monkeypatch.setattr(transport, "time", SimpleNamespace(sleep=sleeps.append))
    stub_server.script = [{"status": 500, "body": b"boom"}] * 3
    if kind == "chat":
        with pytest.raises(BackendError):
            complete(endpoint_for(stub_server), [{"role": "user", "content": "hi"}])
        assert sleeps == [0.2, 0.4]
    else:
        with pytest.raises(EmbeddingError):
            RemoteEmbedder(endpoint_for(stub_server, "/embed", "e")).embed(["a"])
        assert sleeps == []
    assert len(stub_server.requests) == transport.ATTEMPTS == 3


TRANSPORT_FAULTS = pytest.mark.parametrize(
    "fault", [{"short_body": True}, {"stall": 1.0}], ids=["short_body", "stall"]
)


@TRANSPORT_FAULTS
def test_chat_transport_fault_retries_then_raises(stub_server, monkeypatch, fault):
    monkeypatch.setattr(transport, "TIMEOUT_S", 0.2)
    stub_server.script = [fault] * 3
    with pytest.raises(BackendError, match="chat endpoint failed after retries"):
        complete(endpoint_for(stub_server), [{"role": "user", "content": "hi"}])
    assert len(stub_server.requests) == 3


@TRANSPORT_FAULTS
def test_embedding_transport_fault_retries_then_raises(stub_server, monkeypatch, fault):
    monkeypatch.setattr(transport, "TIMEOUT_S", 0.2)
    stub_server.script = [fault] * 3
    embedder = RemoteEmbedder(endpoint_for(stub_server, "/embed", "e"))
    with pytest.raises(EmbeddingError, match="embedding endpoint failed after retries"):
        embedder.embed(["a"])
    assert len(stub_server.requests) == 3


def test_local_stages_never_import_the_http_modules():
    # Only post_json loads them, so a command that reaches no remote model
    # does not pay for their import.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "import intentsim.engine, intentsim.pipeline, intentsim.metrics, intentsim.audit, intentsim.cli\n"
        "print(sorted(m for m in ('http.client', 'urllib.request') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_vector_count_mismatch_is_not_retried(stub_server):
    embedder = RemoteEmbedder(endpoint_for(stub_server, "/embed", "e"))
    # Two rows for one text, then one row for two texts.
    for texts, rows in [(["a"], [[1.0, 0.0], [0.0, 1.0]]), (["a", "b"], [[1.0, 0.0]])]:
        stub_server.requests.clear()
        stub_server.script = [{"embedding": rows}] * 3
        with pytest.raises(EmbeddingError, match=f"returned {len(rows)} vectors for {len(texts)} inputs"):
            embedder.embed(texts)
        assert len(stub_server.requests) == 1


def simulate_until_fallback(server, tmp_path, *failures):
    """``simulate`` two riders who each decide their hours once through the
    stub, and check that it exits 0 and that each decision fell back with a
    warning holding every text of ``failures`` and a missing thought."""
    from click.testing import CliRunner

    from intentsim.cli import main as cli_main
    from intentsim.trace import load_trace

    config = tmp_path / "sim.cfg"
    config.write_text("grid_size = 20\ntotal_steps = 10\nsteps_per_day = 10\nn_riders = 2\n"
                      "base_order_rate = 0.0\npeak_ticks_per_day = 5\nseed = 1\n")
    host, port = server.server_address
    trace = tmp_path / "t.jsonl"
    result = CliRunner().invoke(cli_main, [
        "simulate", "--config", str(config), "--out", str(trace),
        "--llm-url", f"http://{host}:{port}/v1/chat/completions", "--llm-model", "stub-model",
    ])
    assert result.exit_code == 0, (result.output, result.exception)
    events = load_trace(trace).events
    warnings = [e for e in events if e.kind == "warning"]
    assert [w.payload["agent"] for w in warnings] == [0, 1]
    assert all(f in w.payload["message"] for w in warnings for f in failures)
    thoughts = [e.payload for e in events if e.kind == "thought"]
    assert [(t["decision"], t["missing"]) for t in thoughts] == [("work_hours", True)] * 2


def test_simulate_falls_back_on_truncated_replies(stub_server, tmp_path):
    stub_server.script = [{"short_body": True}] * 6  # two riders, three attempts each
    simulate_until_fallback(stub_server, tmp_path, "chat endpoint failed after retries")
    assert len(stub_server.requests) == 6


# Replies that json cannot decode: deep nesting used to end in a
# RecursionError traceback (exit 1), an over-long integer in exit 4.
@pytest.mark.parametrize("reply, failure, requests", [
    # Each of two riders: three attempts at the body of its bounded ask.
    ({"body": b"[" * 100_000}, "chat endpoint failed after retries", 6),
    # Each of two riders: a bounded ask, then three rational asks.
    ({"chat": '{"a":' + "[" * 100_000}, "unparseable reply after retries", 8),
    ({"chat": '{"go_to_work_time": ' + "9" * 5000}, "unparseable reply after retries", 8),
    # A lone surrogate escape in the body used to reach the trace, whose
    # UTF-8 write failed: exit 4 and no trace. Each rider: three attempts.
    ({"chat": "I will run for mayor \ud800 now"}, "the lone surrogate '\\ud800'", 6),
    # A body that repeats a key, at the top level or nested, used to keep
    # the last copy, here a reply that parses. Each rider: three attempts.
    ({"body": b'{"choices": [], "choices": [{"message": {"content": "{\\"go_to_work_time\\":'
               b' \\"9:00\\", \\"get_off_work_time\\": \\"17:00\\"}"}}]}'},
     "a JSON object repeats the key 'choices'", 6),
    ({"body": b'{"choices": [{"message": {"content": "", "content": "{\\"go_to_work_time\\":'
               b' \\"9:00\\", \\"get_off_work_time\\": \\"17:00\\"}"}}]}'},
     "a JSON object repeats the key 'content'", 6),
], ids=["nested_body", "nested_content", "long_int_content", "lone_surrogate_body",
        "repeated_key_body", "nested_repeated_key_body"])
def test_simulate_falls_back_on_undecodable_replies(stub_server, tmp_path, reply, failure, requests):
    stub_server.script = [reply] * requests
    simulate_until_fallback(stub_server, tmp_path, failure)
    assert len(stub_server.requests) == requests


def test_exchange_sink_sees_raw_pairs(stub_server):
    stub_server.script = [
        {"chat": "<think>a</think>"},
        {"chat": '{"go_to_work_time":"9:00","get_off_work_time":"17:00"}'},
    ]
    backend = LlmBackend(endpoint_for(stub_server))
    exchanges = []
    backend.exchange_sink = lambda agent, payload: exchanges.append((agent, payload))
    backend.decide_work_hours(make_ctx())
    assert len(exchanges) == 2
    assert all(agent == 1 for agent, _ in exchanges)
    assert all("request" in p and "response" in p for _, p in exchanges)


def test_single_perspective_mode_skips_bounded_call(stub_server):
    stub_server.script = [
        {"chat": '{"go_to_work_time":"9:00","get_off_work_time":"17:00"}'},
    ]
    backend = LlmBackend(endpoint_for(stub_server), dual=False)
    decision, pair = backend.decide_work_hours(make_ctx())
    assert pair.bounded == ""
    assert len(stub_server.requests) == 1


def test_remote_embedder_normalizes(stub_server):
    stub_server.script = [{"embedding": [[3.0, 4.0], [0.0, 2.0]]}]
    embedder = RemoteEmbedder(endpoint_for(stub_server, "/embed", "e"))
    # One request per call, its rows in the order given.
    assert np.allclose(embedder.embed(["a", "b"]), [[0.6, 0.8], [0.0, 1.0]])
    assert [request for _, request in stub_server.requests] == [{"model": "e", "input": ["a", "b"]}]


def test_remote_embedder_failure_raises(stub_server):
    stub_server.script = [{"status": 500, "body": b"x"}] * 3
    embedder = RemoteEmbedder(endpoint_for(stub_server, "/embed", "e"))
    with pytest.raises(EmbeddingError):
        embedder.embed(["a"])


# Embeddings that are not a non-empty flat list of finite JSON numbers; the
# scalar used to end in an AttributeError traceback, the others were taken.
MALFORMED_EMBEDDINGS = pytest.mark.parametrize(
    "vector",
    [5, [True, False], [], [[1.0, 2.0]], "1,2", [1.0, None], [float("nan")], [10**400]],
    ids=["scalar", "bools", "empty", "nested", "text", "null_entry", "nan", "beyond_float"],
)


@MALFORMED_EMBEDDINGS
def test_malformed_embedding_is_retried_then_refused(stub_server, vector):
    stub_server.script = [{"embedding": [vector]}] * 3
    embedder = RemoteEmbedder(endpoint_for(stub_server, "/embed", "e"))
    with pytest.raises(EmbeddingError, match="failed after retries: embedding (is not|holds)"):
        embedder.embed(["a"])
    assert len(stub_server.requests) == transport.ATTEMPTS


def test_malformed_embedding_then_good_reply_is_used(stub_server):
    stub_server.script = [{"embedding": [5]}, {"embedding": [[3.0, 4.0]]}]
    embedder = RemoteEmbedder(endpoint_for(stub_server, "/embed", "e"))
    assert np.allclose(embedder.embed(["a"]), [[0.6, 0.8]])
    assert len(stub_server.requests) == 2


def test_embedding_length_change_is_refused(stub_server):
    # It used to fail later, in the detector's matmul, with exit 4.
    stub_server.script = [{"embedding": [[1.0, 0.0]]}, {"embedding": [[1.0, 0.0, 0.0]]}]
    embedder = RemoteEmbedder(endpoint_for(stub_server, "/embed", "e"))
    embedder.embed(["a"])
    with pytest.raises(EmbeddingError, match="length 3, but its first had length 2"):
        embedder.embed(["b"])
    assert len(stub_server.requests) == 2  # not retried


def analyze_external_with_embedder(server, tmp_path):
    """``analyze`` of a two-line foreign log through the stub's /embed."""
    from click.testing import CliRunner

    from intentsim.cli import main as cli_main

    log = tmp_path / "foreign.jsonl"
    log.write_text('{"a": 0, "t": 1, "x": "ride to the market"}\n'
                   '{"a": 1, "t": 2, "x": "wait at the station"}\n')
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"agent": "a", "tick": "t", "text": "x"}))
    host, port = server.server_address
    return CliRunner().invoke(cli_main, [
        "analyze", "--external", str(log), "--mapping", str(mapping),
        "--out", str(tmp_path / "out"), "--k", "1",
        "--embed-url", f"http://{host}:{port}/embed", "--embed-model", "stub-embed",
    ])


@MALFORMED_EMBEDDINGS
def test_analyze_exits_1_on_malformed_embedding(stub_server, tmp_path, vector):
    # The two thoughts are one block, so one reply holds both rows, and the
    # one malformed row makes the whole block retry.
    stub_server.script = [{"embedding": [[1.0, 0.0], vector]}] * 3
    result = analyze_external_with_embedder(stub_server, tmp_path)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "embedding endpoint failed after retries: embedding" in result.output
    body = {"model": "stub-embed", "input": ["bounded: ride to the market | rational: ride to the market",
                                             "bounded: wait at the station | rational: wait at the station"]}
    assert stub_server.requests == [("/embed", body)] * transport.ATTEMPTS


def test_analyze_exits_1_on_nested_embedding_reply(stub_server, tmp_path):
    # Deep nesting used to end in a RecursionError traceback.
    stub_server.script = [{"body": b"[" * 100_000}] * 3
    result = analyze_external_with_embedder(stub_server, tmp_path)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "embedding endpoint failed after retries" in result.output
    assert "nesting too deep" in result.output
    assert len(stub_server.requests) == transport.ATTEMPTS


@pytest.mark.parametrize("body, key", [
    (b'{"data": [], "data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]}', "data"),
    (b'{"data": [{"embedding": [], "embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]}', "embedding"),
], ids=["top_level", "nested"])
def test_analyze_exits_1_on_an_embedding_reply_with_a_repeated_key(stub_server, tmp_path, body, key):
    # The last copy used to win, here a reply that holds both rows.
    stub_server.script = [{"body": body}] * 3
    result = analyze_external_with_embedder(stub_server, tmp_path)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"embedding endpoint failed after retries: a JSON object repeats the key '{key}'" in result.output
    assert len(stub_server.requests) == transport.ATTEMPTS


def test_analyze_exits_1_on_embedding_length_change(stub_server, tmp_path):
    stub_server.script = [{"embedding": [[1.0, 0.0], [1.0, 0.0, 0.0]]}] * 3
    result = analyze_external_with_embedder(stub_server, tmp_path)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "length 3, but its first had length 2" in result.output
    assert len(stub_server.requests) == 1  # not retried


def test_analyze_posts_one_embedding_request_per_block(stub_server, tmp_path):
    # 130 thoughts of two agents, taken agent by agent: blocks of 64, 64 and 2.
    from click.testing import CliRunner

    from intentsim.cli import main as cli_main
    from intentsim.mining import BLOCK_ROWS

    log = tmp_path / "foreign.jsonl"
    log.write_text("".join(json.dumps({"a": i % 2, "t": i, "x": f"plan {i}"}) + "\n" for i in range(130)))
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"agent": "a", "tick": "t", "text": "x"}))
    texts = [f"bounded: plan {i} | rational: plan {i}" for i in [*range(0, 130, 2), *range(1, 130, 2)]]
    stub_server.script = [{"vectors": {text: [1.0, float(i)] for i, text in enumerate(texts)}}] * 3
    host, port = stub_server.server_address
    result = CliRunner().invoke(cli_main, [
        "analyze", "--external", str(log), "--mapping", str(mapping),
        "--out", str(tmp_path / "out"), "--k", "1",
        "--embed-url", f"http://{host}:{port}/embed", "--embed-model", "stub-embed",
    ])
    assert result.exit_code == 0, (result.output, result.exception)
    inputs = [body["input"] for _, body in stub_server.requests]
    assert [len(batch) for batch in inputs] == [BLOCK_ROWS, BLOCK_ROWS, 2]
    assert [text for batch in inputs for text in batch] == texts


def test_simulation_with_llm_backend_logs_exchanges(stub_server, tmp_path):
    from intentsim.config import SimConfig
    from intentsim.engine import run_simulation
    from intentsim.trace import load_trace

    # One day of 10 ticks, no orders: two riders decide hours once each.
    cfg = SimConfig(grid_size=20, total_steps=10, steps_per_day=10, n_riders=2,
                    base_order_rate=0.0, peak_ticks_per_day=(5,), seed=1)
    paths = [tmp_path / "llm_a.jsonl", tmp_path / "llm_b.jsonl"]
    for path in paths:
        stub_server.script = [
            {"chat": "<think>rider 0 gut</think>"},
            {"chat": '<think>rider 0 math</think>{"go_to_work_time":"9:00","get_off_work_time":"17:00"}'},
            {"chat": "<think>rider 1 gut</think>"},
            {"chat": '<think>rider 1 math</think>{"go_to_work_time":"8:00","get_off_work_time":"16:00"}'},
        ]
        run_simulation(cfg, LlmBackend(endpoint_for(stub_server)), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    events = load_trace(paths[0]).events
    exchanges = [e for e in events if e.kind == "llm_exchange"]
    assert len(exchanges) == 4
    assert [e.payload["request"] for e in exchanges] == [req for _, req in stub_server.requests[:4]]
    assert all("response" in e.payload for e in exchanges)
    decisions = [e for e in events if e.kind == "decision"]
    assert [(d.payload["start"], d.payload["end"]) for d in decisions] == [(9, 17), (8, 16)]
    thoughts = [e for e in events if e.kind == "thought"]
    assert thoughts[0].payload["bounded"] == "rider 0 gut"
    assert thoughts[1].payload["rational"] == "rider 1 math"


def test_llm_detector_via_cli(stub_server, tmp_path):
    import json as _json

    from click.testing import CliRunner

    from intentsim.cli import main as cli_main

    rows = [
        {"speaker": 1, "step": 1, "utterance": "first plan"},
        {"speaker": 1, "step": 2, "utterance": "second plan"},
    ]
    log = tmp_path / "foreign.jsonl"
    log.write_text("\n".join(_json.dumps(r) for r in rows) + "\n")
    mapping = tmp_path / "map.json"
    mapping.write_text(_json.dumps({"agent": "speaker", "tick": "step", "text": "utterance"}))
    stub_server.script = [{"chat": "yes"}, {"chat": "no"}]
    host, port = stub_server.server_address
    runner = CliRunner()
    result = runner.invoke(cli_main, [
        "analyze", "--external", str(log), "--mapping", str(mapping),
        "--out", str(tmp_path / "out"), "--k", "1", "--window-ticks", "10",
        "--detector", "llm",
        "--llm-url", f"http://{host}:{port}/v1/chat/completions",
        "--llm-model", "stub-model",
    ])
    assert result.exit_code == 0, result.output
    repo_lines = (tmp_path / "out" / "repository.jsonl").read_text().splitlines()
    assert len(repo_lines) == 1  # second record judged not novel
    prompts = [req["messages"][0]["content"] for _, req in stub_server.requests]
    assert all("novel intention" in p for p in prompts)


def test_zero_embedding_is_never_an_intention(stub_server, tmp_path):
    # The chat model calls every thought new, but the second one embeds to
    # the zero vector: it stays out of the repository, so every intention
    # has a cluster, and the model is never asked about it.
    from click.testing import CliRunner

    from intentsim.cli import main as cli_main

    texts = ["ride to the market", "say nothing", "wait at the station"]
    log = tmp_path / "foreign.jsonl"
    log.write_text("".join(
        json.dumps({"speaker": i, "step": i + 1, "utterance": t}) + "\n" for i, t in enumerate(texts)
    ))
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"agent": "speaker", "tick": "step", "text": "utterance"}))
    stub_server.script = {
        "/embed": [{"vectors": {f"bounded: {t} | rational: {t}": v
                                for t, v in zip(texts, ([1.0, 0.0], [0.0, 0.0], [0.0, 1.0]))}}],
        "/v1/chat/completions": [{"chat": "yes"}] * 2,
    }
    host, port = stub_server.server_address
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, [
        "analyze", "--external", str(log), "--mapping", str(mapping), "--out", str(out),
        "--k", "2", "--window-ticks", "10",
        "--embed-url", f"http://{host}:{port}/embed", "--embed-model", "stub-embed",
        "--detector", "llm",
        "--llm-url", f"http://{host}:{port}/v1/chat/completions", "--llm-model", "stub-model",
    ])
    assert result.exit_code == 0, (result.output, result.exception)
    assert not any(stub_server.script.values())
    prompts = [body["messages"][0]["content"] for path, body in stub_server.requests
               if path == "/v1/chat/completions"]
    assert len(prompts) == 2 and not any("say nothing" in prompt for prompt in prompts)
    repo = [json.loads(line) for line in (out / "repository.jsonl").read_text().splitlines()]
    assert [entry["record_id"] for entry in repo] == [0, 2]
    clusters = (out / "clusters.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in clusters] == ["0", "2"]
    assert all(int(row.split(",")[3]) >= 0 for row in clusters)
    assert "cluster assignment" not in (out / "analysis_events.jsonl").read_text()


def test_opposite_remote_embeddings_share_one_label(stub_server, tmp_path):
    # At --k 1 the two intentions' centroid is the zero vector; the cluster
    # takes the first record's text as its label.
    from click.testing import CliRunner

    from intentsim.cli import main as cli_main

    log = tmp_path / "foreign.jsonl"
    log.write_text("".join(
        json.dumps({"speaker": i, "step": i, "utterance": t}) + "\n"
        for i, t in enumerate(["go east", "go west"])
    ))
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"agent": "speaker", "tick": "step", "text": "utterance"}))
    stub_server.script = [{"vectors": {"bounded: go east | rational: go east": [1.0, 0.0],
                                       "bounded: go west | rational: go west": [-1.0, 0.0]}}]
    host, port = stub_server.server_address
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, [
        "analyze", "--external", str(log), "--mapping", str(mapping), "--out", str(out), "--k", "1",
        "--embed-url", f"http://{host}:{port}/embed", "--embed-model", "stub-embed",
    ])
    assert result.exit_code == 0, (result.output, result.exception)
    assert json.loads((out / "diagram.json").read_text())["cluster_labels"] == {
        "0": "bounded: go east | rational: go east"
    }
    assert (out / "clusters.csv").read_text().splitlines()[1:] == [
        "0,0,0,0,bounded: go east | rational: go east",
        "1,1,1,0,bounded: go east | rational: go east",
    ]


def test_label_llm_via_cli(stub_server, tmp_path):
    import json as _json

    from click.testing import CliRunner

    from intentsim.cli import main as cli_main

    rows = [
        {"speaker": 1, "step": 1, "utterance": "ride to the market square"},
        {"speaker": 2, "step": 2, "utterance": "ride to the market now"},
    ]
    log = tmp_path / "foreign.jsonl"
    log.write_text("\n".join(_json.dumps(r) for r in rows) + "\n")
    mapping = tmp_path / "map.json"
    mapping.write_text(_json.dumps({"agent": "speaker", "tick": "step", "text": "utterance"}))
    stub_server.script = [{"chat": "market rush"}]
    host, port = stub_server.server_address
    runner = CliRunner()
    result = runner.invoke(cli_main, [
        "analyze", "--external", str(log), "--mapping", str(mapping),
        "--out", str(tmp_path / "out"), "--k", "1", "--window-ticks", "10",
        "--label-llm",
        "--llm-url", f"http://{host}:{port}/v1/chat/completions",
        "--llm-model", "stub-model",
    ])
    assert result.exit_code == 0, result.output
    doc = _json.loads((tmp_path / "out" / "diagram.json").read_text())
    assert doc["cluster_labels"] == {"0": "market rush"}
    [(_path, request)] = stub_server.requests
    assert request["messages"][0]["content"] == (
        "Give one short label (under ten words) for this group of intentions:\n"
        "- bounded: ride to the market square | rational: ride to the market square\n"
        "- bounded: ride to the market now | rational: ride to the market now"
    )


BOOM = {"status": 500, "body": b"boom"}


def test_llm_trace_bytes_pinned(stub_server, tmp_path):
    # Three riders over two days, no orders. Day 1: rider 0 needs a re-ask
    # (minutes not 00), rider 1's first request fails in transport on every
    # attempt, rider 2 never parses. Day 2 parses at once, memory in the prompt.
    import hashlib

    from click.testing import CliRunner

    from intentsim.cli import main as cli_main

    config = tmp_path / "sim.cfg"
    config.write_text("grid_size = 20\ntotal_steps = 20\nsteps_per_day = 10\nn_riders = 3\n"
                      "base_order_rate = 0.0\npeak_ticks_per_day = 5\nseed = 1\n")
    hours = '{"go_to_work_time":"%s","get_off_work_time":"17:00"}'
    stub_server.script = [
        {"chat": "<think>rider 0 gut</think>"},
        {"chat": "<think>rider 0 math</think>" + hours % "9:30"},
        {"chat": "Fixed it. " + hours % "9:00"},
        BOOM, BOOM, BOOM,
        {"chat": "rider 2 gut"},
        {"chat": "no json"}, {"chat": "[1, 2]"}, {"chat": '{"go_to_work_time": 9}'},
    ] + [
        {"chat": f"<think>day 2 rider {rider} {side}</think>" + hours % "8:00"}
        for rider in range(3) for side in ("gut", "math")
    ]
    host, port = stub_server.server_address
    trace = tmp_path / "t.jsonl"
    result = CliRunner().invoke(cli_main, [
        "simulate", "--config", str(config), "--out", str(trace),
        "--llm-url", f"http://{host}:{port}/v1/chat/completions", "--llm-model", "stub-model",
    ])
    assert result.exit_code == 0, (result.output, result.exception)
    assert not stub_server.script and len(stub_server.requests) == 16
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "2f7550345a0162811a99d6628565ee8f0af22301ad63607abc5c742cb9c0cf31"
    )


def test_llm_analysis_bundle_bytes_pinned(stub_server, tmp_path):
    # Six thoughts by two agents: one remote embedding request for all six
    # (answered after one failed attempt), an LLM novelty verdict per thought (yes, no,
    # neither, a transport failure), and an LLM label per cluster (one fails).
    import hashlib

    from click.testing import CliRunner

    from intentsim.cli import main as cli_main

    texts = ["ride to the market", "ride to the market now", "wait at the station",
             "copy the top earner", "wait near the station", "start before dawn"]
    rows = [{"speaker": i % 2, "step": 10 * i, "utterance": t} for i, t in enumerate(texts)]
    log = tmp_path / "foreign.jsonl"
    log.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"agent": "speaker", "tick": "step", "text": "utterance"}))
    vectors = [[3.0, 4.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0],
               [0.0, 0.0, 2.0], [1.0, 0.1, 0.0], [0.5, 0.5, 0.5]]
    # Embeddings go agent by agent (texts 0, 2, 4, then 1, 3, 5) in one block;
    # its first attempt fails.
    stub_server.script = {
        "/embed": [BOOM, {"embedding": [vectors[i] for i in (0, 2, 4, 1, 3, 5)]}],
        "/v1/chat/completions": [
            {"chat": "yes"}, {"chat": "Yes, new."}, {"chat": "no"}, {"chat": "unsure"},
            BOOM, BOOM, BOOM, {"chat": "yes"},
            {"chat": "market rush"}, BOOM, BOOM, BOOM,
        ],
    }
    host, port = stub_server.server_address
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, [
        "analyze", "--external", str(log), "--mapping", str(mapping), "--out", str(out),
        "--k", "2", "--window-ticks", "20",
        "--embed-url", f"http://{host}:{port}/embed", "--embed-model", "stub-embed",
        "--detector", "llm", "--label-llm",
        "--llm-url", f"http://{host}:{port}/v1/chat/completions", "--llm-model", "stub-model",
    ])
    assert result.exit_code == 0, (result.output, result.exception)
    assert not any(stub_server.script.values())
    combined = [f"bounded: {text} | rational: {text}" for text in texts]
    embedded = [[combined.index(text) for text in body["input"]] for path, body in stub_server.requests
                if path == "/embed"]
    assert embedded == [[0, 2, 4, 1, 3, 5]] * 2
    prompts = [body["messages"][0]["content"] for path, body in stub_server.requests
               if path == "/v1/chat/completions"]
    asked = [prompt.split("\n")[1] for prompt in prompts if prompt.startswith("An agent")]
    # Novelty questions stay in canonical order; text 4's is tried three times.
    assert asked == [combined[i] for i in (0, 1, 2, 3, 4, 4, 4, 5)]
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())
    }
    assert digests == {
        "analysis_events.jsonl": "09aca291ffe3742b807d29b8999d4312968809433e4ddc4280b797fd7378ccb7",
        "clusters.csv": "a7d28dbc40aec0fc890f1e7d230f92b93e42d994afd5f864c2fb998b8ddb0da4",
        "diagram.dot": "e60648e2e70cb27cdb6c1f14776c1fcd8f573aa058d1b66650efd330c0716aa6",
        "diagram.json": "fe47ade93f74839acd3c4916499c338d9353344935e1f0972aa856978b305257",
        "repository.jsonl": "725b3e895d51ceaf69d8794e02cd5231957cd69a6c60ef8444b698dd08eb1c1f",
    }
