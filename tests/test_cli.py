import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import test_golden
from intentsim.audit import audit_trace
from intentsim.cli import EXIT_CODES, main
from intentsim.errors import AuditError, TraceFormatError
from intentsim.trace import load_trace


@pytest.fixture()
def runner():
    return CliRunner()


def write_small_config(path, **overrides):
    values = dict(grid_size=30, total_steps=240, steps_per_day=120, n_riders=4,
                  base_order_rate=1.0, seed=3)
    values.update(overrides)
    lines = [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_simulate_twice_identical_traces(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg")
    for name in ("a", "b"):
        result = runner.invoke(
            main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / f"{name}.jsonl")]
        )
        assert result.exit_code == 0, result.output
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_simulate_seed_override_changes_trace(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg")
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "a.jsonl")])
    runner.invoke(
        main,
        ["simulate", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "b.jsonl")],
    )
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()


def test_analyze_writes_fixed_output_names(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg")
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    result = runner.invoke(
        main,
        ["analyze", "--trace", str(trace), "--out", str(tmp_path / "analysis"),
         "--k", "3", "--theta", "0.8", "--window-ticks", "120"],
    )
    assert result.exit_code == 0, result.output
    for name in ("repository.jsonl", "clusters.csv", "diagram.json", "diagram.dot"):
        assert (tmp_path / "analysis" / name).exists()


def test_analyze_no_analyzer_empty_diagram(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg")
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    result = runner.invoke(
        main,
        ["analyze", "--trace", str(trace), "--out", str(tmp_path / "ablate"),
         "--no-analyzer", "--window-ticks", "120"],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "ablate" / "diagram.json").read_text())
    assert doc["points"] == []
    assert (tmp_path / "ablate" / "repository.jsonl").read_text() == ""


def test_analyze_no_inspector_strips_bounded(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg")
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    result = runner.invoke(
        main,
        ["analyze", "--trace", str(trace), "--out", str(tmp_path / "nb"),
         "--no-inspector", "--window-ticks", "120"],
    )
    assert result.exit_code == 0, result.output
    for line in (tmp_path / "nb" / "repository.jsonl").read_text().splitlines():
        assert "bounded:" not in json.loads(line)["combined_text"]


def test_metrics_command_writes_reports(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg")
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    result = runner.invoke(
        main, ["metrics", "--trace", str(trace), "--out", str(tmp_path / "reports"),
               "--window-ticks", "120"]
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "reports" / "involution.csv").exists()
    assert (tmp_path / "reports" / "hours_vs_orders.csv").exists()


@pytest.mark.parametrize("downsample", ["0", "-3"])
def test_non_positive_downsample_exits_4(runner, tmp_path, downsample):
    # Both used to exit 0 and write the raw grid, as if 1 was given.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    out = tmp_path / "reports"
    result = runner.invoke(
        main, ["metrics", "--trace", str(trace), "--out", str(out), "--downsample", downsample]
    )
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"downsample must be > 0, got {downsample}" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--fixed-start", "30", "--fixed-end", "5"], ["--fixed-start", "9"], ["--fixed-end", "17"]],
    ids=["start_30", "start_alone", "end_alone"],
)
def test_impossible_fixed_hours_exit_2(runner, tmp_path, flags):
    # --fixed-start 30 used to run riders 23:00-05:00 while sim_start said
    # 30, and a lone --fixed-start was ignored.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)] + flags)
    assert result.exit_code == 2, result.output
    assert "--fixed-start/--fixed-end" in result.output
    assert not trace.exists()


def test_fixed_hours_flags_reach_the_trace(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    result = runner.invoke(
        main,
        ["simulate", "--config", str(cfg), "--out", str(trace), "--fixed-start", "0", "--fixed-end", "23"],
    )
    assert result.exit_code == 0, result.output
    events = [json.loads(line) for line in trace.read_text().splitlines()[1:]]
    shifts = {(e["payload"]["start"], e["payload"]["end"]) for e in events
              if e["kind"] == "decision" and e["payload"]["decision"] == "work_hours"}
    assert shifts == {(0, 23)}


def test_diagram_rerender_round_trip(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg")
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    runner.invoke(
        main,
        ["analyze", "--trace", str(trace), "--out", str(tmp_path / "an"),
         "--window-ticks", "120"],
    )
    svg_out = tmp_path / "d.svg"
    result = runner.invoke(
        main, ["diagram", "--analysis", str(tmp_path / "an"), "--format", "svg",
               "--out", str(svg_out)]
    )
    assert result.exit_code == 0, result.output
    assert svg_out.read_text().startswith("<svg")
    json_out = tmp_path / "d.json"
    result = runner.invoke(
        main, ["diagram", "--analysis", str(tmp_path / "an"), "--format", "json",
               "--out", str(json_out)]
    )
    assert result.exit_code == 0
    assert json.loads(json_out.read_text()) == json.loads(
        (tmp_path / "an" / "diagram.json").read_text()
    )


@pytest.mark.parametrize(
    "write_golden_bundle",
    [test_golden.test_external_bundle_bytes, test_golden.test_simulated_bundle_bytes],
    ids=["external", "simulated"],
)
def test_golden_diagram_rerenders_byte_for_byte(runner, tmp_path, write_golden_bundle):
    write_golden_bundle(tmp_path)  # the pinned bundle, under tmp_path / "analysis"
    bundle = tmp_path / "analysis"
    for fmt in ("dot", "json"):
        out = tmp_path / f"rerendered.{fmt}"
        result = runner.invoke(
            main, ["diagram", "--json", str(bundle / "diagram.json"), "--format", fmt, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (bundle / f"diagram.{fmt}").read_bytes()


def test_analyze_external_election(runner, tmp_path):
    rows = [
        {"speaker": 1, "step": 5, "utterance": "I announce my candidacy for mayor and ask for support in the election."},
        {"speaker": 2, "step": 40, "utterance": "I will support the candidacy for mayor in the election."},
    ]
    log = tmp_path / "foreign.jsonl"
    log.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"agent": "speaker", "tick": "step", "text": "utterance"}))
    result = runner.invoke(
        main,
        ["analyze", "--external", str(log), "--mapping", str(mapping),
         "--out", str(tmp_path / "ext"), "--k", "1", "--window-ticks", "40"],
    )
    assert result.exit_code == 0, result.output
    points = json.loads((tmp_path / "ext" / "diagram.json").read_text())["points"]
    assert points  # speaker 2 takes up the candidacy in the next window
    assert f", {len(points)} emergence points ->" in result.output


# --- error paths and exit codes ------------------------------------------------

def test_unknown_flag_exits_2(runner):
    result = runner.invoke(main, ["simulate", "--nonsense"])
    assert result.exit_code == 2


def test_missing_trace_exits_3(runner, tmp_path):
    result = runner.invoke(
        main, ["metrics", "--trace", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]
    )
    assert result.exit_code == 3
    assert "error:" in result.output


@pytest.mark.parametrize(
    "text, message",
    [
        ("grid_size = 0\n", "'grid_size': must be > 0"),
        ("grid_size = abc\n", "'grid_size': cannot parse value 'abc'"),
        ("payment_range = 1\n", "'payment_range': expected two comma-separated numbers"),
        ("grid_size 30\n", "line 1: expected 'key = value'"),
        ("seed = 1\nseed = 2\n", "'seed': duplicated on line 2"),
        ("peak_multiplier = -1\n", "'peak_multiplier': must be >= 0"),
        # Non-finite floats used to simulate with exit 0, and a NaN payment
        # range wrote a trace that the auditor then refused.
        ("payment_range = 1, nan\n", "'payment_range': each value must be finite"),
        ("wage_rate = inf\n", "'wage_rate': must be finite"),
        ("base_order_rate = nan\n", "'base_order_rate': must be finite"),
        ("peak_multiplier = inf\n", "'peak_multiplier': must be finite"),
        # A rate the Poisson draw cannot sample used to simulate with exit 0.
        ("total_steps = 0\nbase_order_rate = 1000\n", "'base_order_rate': gives a largest per-tick rate of 3000 "
         "(times peak_multiplier at peaks), above 700"),
    ],
    ids=["zero_grid", "unparsable", "one_payment", "no_equals", "duplicate", "negative_peak",
         "nan_payment", "inf_wage", "nan_rate", "inf_peak", "rate_past_bound"],
)
def test_bad_config_exits_4(runner, tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    trace = tmp_path / "t.jsonl"
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    assert result.exit_code == 4, result.output
    assert message in result.output
    assert not trace.exists()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda line: line[:10], "malformed event"),
        (lambda line: line[:10] + b"\xff" + line[10:], "invalid UTF-8"),
        (lambda line: b"[" * 100_000, "malformed event: maximum recursion depth"),
        (lambda line: b"", "blank line inside trace"),
        (lambda line: b"[1]", "event is not an object"),
        (lambda line: json.dumps({**json.loads(line), "kind": "sim_start"}).encode(),
         "duplicate sim_start"),
    ],
    ids=["truncated", "non_utf8", "deep_nesting", "blank", "list_event", "second_sim_start"],
)
def test_corrupt_trace_exits_5(runner, tmp_path, corrupt, message):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    lines = trace.read_bytes().splitlines()
    lines[5] = corrupt(lines[5])
    trace.write_bytes(b"\n".join(lines) + b"\n")
    result = runner.invoke(
        main, ["metrics", "--trace", str(trace), "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 5
    assert f"line 6: {message}" in result.output


def test_header_only_trace_exits_5(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    trace.write_text(trace.read_text().splitlines()[0] + "\n")
    for command in ("metrics", "analyze"):
        result = runner.invoke(
            main, [command, "--trace", str(trace), "--out", str(tmp_path / command)]
        )
        assert result.exit_code == 5, (command, result.output)
        assert "trace contains no events" in result.output


def test_metrics_on_analysis_events_exits_5(runner, tmp_path):
    # analysis_events.jsonl is in trace format, but its sim_start has no config.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    runner.invoke(main, ["analyze", "--trace", str(trace), "--out", str(tmp_path / "an")])
    result = runner.invoke(
        main, ["metrics", "--trace", str(tmp_path / "an" / "analysis_events.jsonl"),
               "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 5, result.output
    assert "line 2: the first event is not a sim_start carrying the config" in result.output


def edit_first_event(trace, kind, edit):
    """Apply ``edit`` to the payload of the first ``kind`` event; return its line number."""
    lines = trace.read_text().splitlines()
    for index, line in enumerate(lines):
        event = json.loads(line)
        if event.get("kind") == kind:
            edit(event["payload"])
            lines[index] = json.dumps(event)
            trace.write_text("\n".join(lines) + "\n")
            return index + 1
    raise AssertionError(f"no {kind} event in the trace")


def test_thought_without_agent_exits_5(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    line_no = edit_first_event(trace, "thought", lambda payload: payload.pop("agent"))
    result = runner.invoke(
        main, ["analyze", "--trace", str(trace), "--out", str(tmp_path / "an"),
               "--window-ticks", "120"]
    )
    assert result.exit_code == 5, result.output
    assert f"line {line_no}:" in result.output


@pytest.mark.parametrize("edit, problem", [
    ({"rational": ["not", "text"], "bounded": 7}, "'bounded' is not a string"),
    ({"rational": None}, "'rational' is not a string"),
    ({"missing": 0}, "'missing' is not a boolean"),
])
def test_mistyped_thought_text_exits_5(runner, tmp_path, edit, problem):
    # Analysis used to format any JSON value into the thought's text.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    line_no = edit_first_event(trace, "thought", lambda payload: payload.update(edit))
    result = runner.invoke(
        main, ["analyze", "--trace", str(trace), "--out", str(tmp_path / "an"),
               "--window-ticks", "120"]
    )
    assert result.exit_code == 5, result.output
    assert f"line {line_no}: thought event {problem}" in result.output


@pytest.mark.parametrize("x", [999, -1])
def test_out_of_grid_position_exits_5(runner, tmp_path, x):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    line_no = edit_first_event(trace, "position", lambda payload: payload.update(x=x))
    result = runner.invoke(
        main, ["metrics", "--trace", str(trace), "--out", str(tmp_path / "r"),
               "--window-ticks", "120"]
    )
    assert result.exit_code == 5, result.output
    assert f"line {line_no}:" in result.output


def first_line_of(lines, event):
    """The line number of the first event whose order event, or else whose
    kind, is ``event``."""
    return next(index for index, line in enumerate(lines[1:], start=2)
                if (data := json.loads(line))["payload"].get("event", data["kind"]) == event)


@pytest.mark.parametrize("agent", [7, -1])
@pytest.mark.parametrize("event", ["position", "delivered", "cost_accrual"])
def test_unknown_rider_exits_5(runner, tmp_path, event, agent):
    # A position of a rider the run does not have used to pass: the heat map
    # counted the visit while the hours tables dropped it. A cost accrual of
    # one was added to its day's labor cost. The auditor refuses the same
    # trace.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120, n_riders=3)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    line_no = first_line_of(lines, event)
    edited = json.loads(lines[line_no - 1])
    edited["payload"]["agent"] = agent
    lines[line_no - 1] = json.dumps(edited)
    trace.write_text("\n".join(lines) + "\n")
    message = f"rider {agent} is not one of the run's 3 riders"
    with pytest.raises(AuditError, match=re.escape(message)):
        audit_trace(load_trace(trace).events)
    result = runner.invoke(
        main, ["metrics", "--trace", str(trace), "--out", str(tmp_path / "r"),
               "--window-ticks", "120"]
    )
    assert result.exit_code == 5, result.output
    assert result.output == f"error: line {line_no}: {message}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("event, key, text, problem", [
    ("cost_accrual", "amount", "NaN", "'amount' is not finite"),
    ("cost_accrual", "amount", "1e400", "'amount' is not finite"),
    ("cost_accrual", "amount", "9" * 400, "'amount' is not finite"),
    ("created", "payment", "-Infinity", "'payment' is not finite"),
    ("delivered", "payment", "1e400", "'payment' is not finite"),
    ("delivered", "payment", None, "has no 'payment'"),
], ids=["nan", "float_overflow", "long_int", "infinity", "delivered_overflow", "no_payment"])
def test_number_that_is_not_finite_exits_5(runner, tmp_path, event, key, text, problem):
    # A NaN or 1e400 amount reached the involution report as nan or inf, and
    # a 400-digit one ended metrics and the auditor in an OverflowError.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120, n_riders=3)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    line_no = first_line_of(lines, event)
    value = re.compile(f',?"{key}":[^,}}]+')
    lines[line_no - 1] = value.sub("" if text is None else f',"{key}":{text}', lines[line_no - 1])
    trace.write_text("\n".join(lines) + "\n")
    kind = event if event == "cost_accrual" else "order_event"
    message = f"line {line_no}: {kind} event {problem}"
    with pytest.raises(TraceFormatError, match=re.escape(message)):
        audit_trace(load_trace(trace).events)
    result = runner.invoke(
        main, ["metrics", "--trace", str(trace), "--out", str(tmp_path / "r"),
               "--window-ticks", "120"]
    )
    assert result.exit_code == 5, result.output
    assert result.output == f"error: {message}\n"


def assert_embedded_config_refused(runner, tmp_path, edit, message):
    """Edit a simulated trace's embedded config, drop the header digest, and
    check that metrics and analyze both refuse the trace at its sim_start."""
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    line_no = edit_first_event(trace, "sim_start", lambda payload: edit(payload["config"]))
    lines = trace.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "config_digest": ""})
    trace.write_text("\n".join(lines) + "\n")
    for command in ("metrics", "analyze"):
        result = runner.invoke(
            main, [command, "--trace", str(trace), "--out", str(tmp_path / command),
                   "--window-ticks", "120"]
        )
        assert result.exit_code == 5, (command, result.output)
        assert f"line {line_no}: unusable embedded config" in result.output
        assert message in result.output


def test_incomplete_config_without_digest_exits_5(runner, tmp_path):
    # With no header digest to compare against, the embedded config is still
    # checked, so metrics never indexes a key the config lacks.
    assert_embedded_config_refused(
        runner, tmp_path, lambda config: config.pop("steps_per_day"), "steps_per_day")


@pytest.mark.parametrize("key, value", [("n_riders", 4.0), ("grid_size", True)])
def test_mistyped_config_without_digest_exits_5(runner, tmp_path, key, value):
    # A float where an int belongs, or a bool, is refused by the embedded
    # config check rather than failing later in the report code.
    assert_embedded_config_refused(
        runner, tmp_path, lambda config: config.update({key: value}), f"'{key}': must be an integer")


def test_non_finite_config_without_digest_exits_5(runner, tmp_path):
    # json writes NaN as the bare token NaN, which the reader decodes.
    assert_embedded_config_refused(
        runner, tmp_path, lambda config: config.update(wage_rate=float("nan")),
        "'wage_rate': must be finite")


@pytest.mark.parametrize("kind, key", [("position", "x"), ("thought", "agent")])
def test_over_long_integer_exits_5(runner, tmp_path, kind, key):
    # 5,000 digits pass the JSON grammar but not Python's int-string limit.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if f'"kind":"{kind}"' in line)
    lines[index] = re.sub(f'"{key}":[0-9]+', f'"{key}":' + "9" * 5000, lines[index], count=1)
    trace.write_text("\n".join(lines) + "\n")
    for command in ("metrics", "analyze"):
        result = runner.invoke(
            main, [command, "--trace", str(trace), "--out", str(tmp_path / command),
                   "--window-ticks", "120"]
        )
        assert result.exit_code == 5, (command, result.output)
        assert f"line {index + 1}: malformed event: Exceeds the limit" in result.output


def test_negative_ticks_exit_5(runner, tmp_path):
    # A trace shifted to start at tick -1000 is refused at its sim_start
    # line; analyze used to index its tick windows from the end.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    events = [json.loads(line) for line in lines[1:]]
    for event in events:
        event["tick"] -= 1000
    trace.write_text("\n".join(lines[:1] + [json.dumps(event) for event in events]) + "\n")
    for command in ("metrics", "analyze"):
        result = runner.invoke(
            main, [command, "--trace", str(trace), "--out", str(tmp_path / command),
                   "--window-ticks", "120"]
        )
        assert result.exit_code == 5, (command, result.output)
        assert "line 2: tick -1000 is negative" in result.output
        assert not (tmp_path / command).exists()


def test_over_long_integer_in_header_exits_5(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    text = trace.read_text()
    trace.write_text(re.sub('"seed":[0-9]+', '"seed":' + "9" * 5000, text, count=1))
    result = runner.invoke(main, ["metrics", "--trace", str(trace), "--out", str(tmp_path / "r")])
    assert result.exit_code == 5, result.output
    assert "unreadable header: Exceeds the limit" in result.output


def test_deeply_nested_header_exits_5(runner, tmp_path):
    trace = tmp_path / "t.jsonl"
    trace.write_text("[" * 100_000 + "\n")
    result = runner.invoke(main, ["metrics", "--trace", str(trace), "--out", str(tmp_path / "r")])
    assert result.exit_code == 5, result.output
    assert "unreadable header: maximum recursion depth" in result.output


def test_external_undecodable_lines_skipped(runner, tmp_path):
    log = tmp_path / "foreign.jsonl"
    log.write_text('{"speaker": 1, "step": 5, "utterance": "vote for rain"}\n'
                   '{"speaker": 2, "step": ' + "9" * 5000 + '}\n' + "[" * 100_000 + "\n")
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"agent": "speaker", "tick": "step", "text": "utterance"}))
    result = runner.invoke(
        main, ["analyze", "--external", str(log), "--mapping", str(mapping),
               "--out", str(tmp_path / "ext"), "--k", "1"]
    )
    assert result.exit_code == 0, result.output
    events = (tmp_path / "ext" / "analysis_events.jsonl").read_text()
    assert "line 2: malformed record" in events and "line 3: malformed record" in events


@pytest.mark.parametrize("row", [
    '{"speaker": 1, "speaker": 2, "step": 5, "utterance": "run for mayor"}',
    '{"speaker": 1, "step": 5, "utterance": "run for mayor", "meta": {"mood": 1, "mood": 2}}',
], ids=["top_level", "nested"])
def test_external_row_that_repeats_a_key_is_skipped(runner, tmp_path, row):
    # The last copy used to win: the top-level row was an intention of agent 2.
    log = tmp_path / "foreign.jsonl"
    log.write_text(row + "\n")
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"agent": "speaker", "tick": "step", "text": "utterance"}))
    out = tmp_path / "ext"
    result = runner.invoke(main, ["analyze", "--external", str(log), "--mapping", str(mapping), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "ingest skipped 1 record(s)" in result.output
    assert "0 intentions" in result.output
    assert "line 1: malformed record" in (out / "analysis_events.jsonl").read_text()


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--created-at"), ("simulate", "--llm-url"), ("simulate", "--llm-model"),
    ("analyze", "--embed-url"), ("analyze", "--embed-model"), ("analyze", "--llm-url"), ("analyze", "--llm-model"),
])
def test_a_text_option_that_is_not_utf8_is_a_usage_error(runner, tmp_path, command, flag):
    # A shell byte that is not UTF-8 (\xff) reaches Python as a lone
    # surrogate. --created-at used to fail the trace write with exit 4.
    source = "--config" if command == "simulate" else "--trace"
    result = runner.invoke(main, [command, source, str(tmp_path / "absent"), "--out", str(tmp_path / "out"),
                                  flag, "x\udcff"])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{flag}': 'x\\udcff' is not UTF-8" in result.output
    assert not (tmp_path / "out").exists()


def test_negative_memory_capacity_exits_4(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    result = runner.invoke(
        main, ["analyze", "--trace", str(trace), "--out", str(tmp_path / "an"),
               "--memory-capacity", "-1"]
    )
    assert result.exit_code == 4, result.output
    assert "memory capacity" in result.output


def test_analyze_requires_exactly_one_source(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_similarity_csv_flag(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    result = runner.invoke(
        main,
        ["analyze", "--trace", str(trace), "--out", str(tmp_path / "an"),
         "--window-ticks", "120", "--similarity-csv"],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "an" / "similarity.csv").read_text().splitlines()
    assert lines[0].startswith("record_id,")
    n = len(lines) - 1
    assert all(len(line.split(",")) == n + 1 for line in lines[1:])


def test_deeply_nested_mapping_exits_4(runner, tmp_path):
    # It used to end in a RecursionError traceback and exit 1.
    log = tmp_path / "foreign.jsonl"
    log.write_text('{"speaker": 1, "step": 5, "utterance": "vote for rain"}\n')
    mapping = tmp_path / "mapping.json"
    mapping.write_text("[" * 100_000)
    result = runner.invoke(
        main, ["analyze", "--external", str(log), "--mapping", str(mapping),
               "--out", str(tmp_path / "ext")]
    )
    assert result.exit_code == 4, result.output
    assert "nesting too deep" in result.output
    assert not (tmp_path / "ext").exists()


def command_files(out):
    """Name and bytes of every file in ``out``."""
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_metrics_rerun_deletes_its_stale_heatmaps(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg")
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    out, fresh = tmp_path / "r", tmp_path / "fresh"
    out.mkdir()
    foreign = {"notes.txt": b"mine", "heatmap_window01.csv": b"not a window the command names"}
    for name, data in foreign.items():
        (out / name).write_bytes(data)
    first = runner.invoke(
        main, ["metrics", "--trace", str(trace), "--out", str(out), "--window-ticks", "60"]
    )
    assert first.exit_code == 0, first.output
    assert {f"heatmap_window{w}.csv" for w in range(4)} <= set(command_files(out))
    for target in (out, fresh):
        result = runner.invoke(main, ["metrics", "--trace", str(trace), "--out", str(target)])
        assert result.exit_code == 0, result.output
    assert command_files(out) == {**command_files(fresh), **foreign}
    assert sorted(command_files(fresh)) == [
        "effective_hours.csv", "heatmap_window0.csv", "hours_vs_orders.csv", "involution.csv"]


def test_stale_file_that_cannot_be_deleted_exits_1(runner, tmp_path, monkeypatch):
    # The stale heat maps were deleted outside the output error handling, so
    # such an error read as an unreadable input (exit 3). A real permission
    # failure cannot be made by a test running as root.
    cfg = write_small_config(tmp_path / "sim.cfg")
    trace, out = tmp_path / "t.jsonl", tmp_path / "r"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    metrics = ["metrics", "--trace", str(trace), "--out", str(out)]
    assert runner.invoke(main, metrics + ["--window-ticks", "60"]).exit_code == 0
    stale = out / "heatmap_window3.csv"
    unlink = Path.unlink

    def refuse(self, *args, **kwargs):
        if self == stale:
            raise PermissionError(13, "Permission denied", str(self))
        return unlink(self, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", refuse)
    result = runner.invoke(main, metrics)
    assert result.exit_code == 1, result.output
    assert result.output == f"error: cannot write {stale}: Permission denied\n"
    assert isinstance(result.exception, SystemExit)  # no traceback


def test_analyze_rerun_deletes_its_stale_similarity_csv(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg")
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    out, fresh = tmp_path / "an", tmp_path / "fresh"
    out.mkdir()
    (out / "notes.txt").write_bytes(b"mine")
    analyze = ["analyze", "--trace", str(trace), "--window-ticks", "60"]
    first = runner.invoke(main, analyze + ["--out", str(out), "--similarity-csv"])
    assert first.exit_code == 0, first.output
    assert "similarity.csv" in command_files(out)
    for target in (out, fresh):
        result = runner.invoke(main, analyze + ["--out", str(target), "--no-analyzer"])
        assert result.exit_code == 0, result.output
    assert command_files(out) == {**command_files(fresh), "notes.txt": b"mine"}
    assert "similarity.csv" not in command_files(fresh)


@pytest.mark.parametrize("command", ["simulate", "diagram", "metrics", "analyze"])
def test_unwritable_output_exits_1(runner, tmp_path, command):
    # A file or bundle path in a missing directory used to exit 3 as a
    # missing input; a regular file as the bundle directory, a traceback.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    runner.invoke(main, ["analyze", "--trace", str(trace), "--out", str(tmp_path / "an")])
    (tmp_path / "afile").write_text("keep")
    out, args = {
        "simulate": ("missingdir/t.jsonl", ["simulate", "--config", str(cfg)]),
        "diagram": ("missingdir/o.dot", ["diagram", "--analysis", str(tmp_path / "an"), "--format", "dot"]),
        "metrics": ("afile", ["metrics", "--trace", str(trace)]),
        "analyze": ("afile", ["analyze", "--trace", str(trace)]),
    }[command]
    result = runner.invoke(main, args + ["--out", str(tmp_path / out)])
    assert result.exit_code == 1, result.output
    reason = "No such file or directory" if "/" in out else "File exists"
    assert result.output == f"error: cannot write {tmp_path / out}: {reason}\n"
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "an", "sim.cfg", "t.jsonl"]
    assert (tmp_path / "afile").read_text() == "keep"


def test_killed_runs_temporaries_are_deleted(runner, tmp_path):
    # A killed run leaves its temporary beside the target; the next run on
    # that target deletes it, but not a running process's temporaries.
    dead, live = subprocess.Popen([sys.executable, "-c", ""]), os.getpid()
    dead.wait()  # reaped: its PID names no process now
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace, reports = tmp_path / "t.jsonl", tmp_path / "r"
    reports.mkdir()
    kept = {
        tmp_path / f".t.jsonl.{live}-0123abcd.tmp",
        tmp_path / f".other.jsonl.{dead.pid}-0123abcd.tmp",
        tmp_path / "notes.txt",
        reports / f".involution.csv.{live}-89abcdef.tmp",
    }
    orphans = {tmp_path / f".t.jsonl.{dead.pid}-0123abcd.tmp",
               reports / f".involution.csv.{dead.pid}-89abcdef.tmp"}
    for path in kept | orphans:
        path.write_text("partial")
    for args in (["simulate", "--config", str(cfg), "--out", str(trace)],
                 ["metrics", "--trace", str(trace), "--out", str(reports)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert all(path.read_text() == "partial" for path in kept)
    assert not any(path.exists() for path in orphans)


def test_help_documents_exit_codes(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    assert ("Exit codes: 0 ok, 1 error, 2 usage, 3 missing or unreadable input file, "
            "4 bad config/schema, 5 bad trace.") in " ".join(result.output.split())
    for command in ("simulate", "analyze", "metrics", "diagram"):
        assert command in result.output


def test_readme_exit_code_table_is_the_cli_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\d+)` \| (.+?) \|$", section, flags=re.MULTILINE)
    assert [(int(code), meaning) for code, meaning in rows] == [
        (code, meaning) for code, meaning, _classes in sorted(EXIT_CODES)]


@pytest.mark.parametrize("window_ticks", ["0", "-5"])
@pytest.mark.parametrize("command", ["metrics", "analyze"])
def test_non_positive_window_ticks_exit_4(runner, tmp_path, command, window_ticks):
    # 0 used to end in a ZeroDivisionError traceback, and metrics wrote one
    # all-zero heat map for -5.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    out = tmp_path / command
    result = runner.invoke(
        main, [command, "--trace", str(trace), "--out", str(out), "--window-ticks", window_ticks]
    )
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"window_ticks must be > 0, got {window_ticks}" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "mapping, named",
    [
        ({"agent": 1, "tick": "step", "text": "utterance"}, "target 'agent'"),
        ({"agent": "speaker", "tick": ["t"], "text": "utterance"}, "target 'tick'"),
        ({"agent": "speaker", "tick": "step", "text": "utterance", "defaults": [1]}, "'defaults'"),
        ({"agent": "speaker", "tick": "step", "text": "utterance", "defaults": "ab"}, "'defaults'"),
        (["agent", "tick", "text"], "not a JSON object"),
    ],
    ids=["int_path", "list_path", "defaults_list", "defaults_string", "mapping_list"],
)
def test_bad_mapping_exits_4(runner, tmp_path, mapping, named):
    log = tmp_path / "foreign.jsonl"
    log.write_text('{"speaker": 1, "step": 5, "utterance": "vote for rain"}\n')
    mapping_path = tmp_path / "mapping.json"
    mapping_path.write_text(json.dumps(mapping))
    out = tmp_path / "ext"
    result = runner.invoke(
        main, ["analyze", "--external", str(log), "--mapping", str(mapping_path), "--out", str(out)]
    )
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert named in result.output
    assert not out.exists()


def test_mapping_with_repeated_key_exits_4(runner, tmp_path):
    # The last "text" used to win silently, reading the records' "step".
    log = tmp_path / "foreign.jsonl"
    log.write_text('{"speaker": 1, "step": 5, "utterance": "vote for rain"}\n')
    mapping_path = tmp_path / "mapping.json"
    mapping_path.write_text('{"agent": "speaker", "tick": "step", "text": "utterance", "text": "step"}')
    out = tmp_path / "ext"
    result = runner.invoke(
        main, ["analyze", "--external", str(log), "--mapping", str(mapping_path), "--out", str(out)]
    )
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert "a JSON object repeats the key 'text'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("kind, field", [("sim_start", "rider_start"), ("sim_end", "riders")])
def test_repeated_rider_key_exits_5(runner, tmp_path, kind, field):
    # A rider map that names one rider twice used to keep the last entry.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if f'"kind":"{kind}"' in line)
    rider, entry = next(iter(json.loads(lines[index])["payload"][field].items()))
    marker = f'"{field}":{{'
    assert marker in lines[index]
    lines[index] = lines[index].replace(marker, f'{marker}"{rider}":{json.dumps(entry)},', 1)
    trace.write_text("\n".join(lines) + "\n")
    for command in ("metrics", "analyze"):
        result = runner.invoke(
            main, [command, "--trace", str(trace), "--out", str(tmp_path / command),
                   "--window-ticks", "120"]
        )
        assert result.exit_code == 5, (command, result.output)
        assert f"line {index + 1}: malformed event: a JSON object repeats the key '{rider}'" in result.output
        assert not (tmp_path / command).exists()


UNREACHABLE = "http://127.0.0.1:1/v1"  # never contacted: the flags are refused first


@pytest.mark.parametrize(
    "flags, refused",
    [
        (["--hours-policy", "imitate_top_ranked", "--fixed-start", "9", "--fixed-end", "17"],
         "--fixed-start, --fixed-end with --hours-policy imitate_top_ranked"),
        (["--imitate-delta", "2"], "--imitate-delta with --hours-policy fixed_hours"),
        (["--llm-model", "m"], "--llm-model without --llm-url"),
        (["--llm-url", UNREACHABLE, "--llm-model", "m",
          "--hours-policy", "imitate_top_ranked"], "--hours-policy with --llm-url"),
        (["--llm-url", UNREACHABLE, "--llm-model", "m",
          "--selection-policy", "route_optimizer", "--imitate-delta", "2"],
         "--selection-policy, --imitate-delta with --llm-url"),
    ],
    ids=["fixed_under_imitate", "delta_under_fixed", "llm_model_scripted", "policy_under_llm",
         "scripted_flags_under_llm"],
)
def test_simulate_refuses_unread_flags(runner, tmp_path, flags, refused):
    # Each of these used to exit 0 and drop the flag without a word.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)] + flags)
    assert result.exit_code == 2, result.output
    assert f"nothing reads {refused}" in result.output
    assert not trace.exists()


@pytest.mark.parametrize(
    "flags, refused",
    [
        (["--mapping", "map.json"], "--mapping with --trace"),
        (["--embed-model", "e"], "--embed-model without --embed-url"),
        (["--llm-url", UNREACHABLE], "--llm-url without --detector llm or --label-llm"),
        (["--llm-model", "m"], "--llm-model without --detector llm or --label-llm"),
        # Foreign rows fill both thought slots with one text: nothing to drop.
        (["--external", "log.jsonl", "--mapping", "map.json", "--no-inspector"],
         "--no-inspector with --external"),
    ],
    ids=["mapping_with_trace", "embed_model_without_url", "llm_url_unused", "llm_model_unused",
         "no_inspector_external"],
)
def test_analyze_refuses_unread_flags(runner, tmp_path, flags, refused):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    out = tmp_path / "an"
    source = [] if "--external" in flags else ["--trace", str(trace)]
    result = runner.invoke(main, ["analyze", *source, "--out", str(out)] + flags)
    assert result.exit_code == 2, result.output
    assert f"nothing reads {refused}" in result.output
    assert not out.exists()


# A well-formed document: cluster 0 born in window 0 at agent 1, tick 5,
# reaches agent 2 in window 1.
ONE_POINT_DIAGRAM = {
    "diagram_schema": 1, "window_ticks": 10, "n_windows": 2, "cluster_labels": {"0": "go"},
    "cluster_nodes": [[0, 0]], "agent_nodes": [[0, 1], [1, 2]], "emergence_windows": {"0": 0},
    "origins": {"0": {"agent": 1, "tick": 5}},
    "points": [{"cluster": 0, "origin": 1, "influenced": 2, "window": 1}],
}


def test_well_formed_diagram_document_renders(runner, tmp_path):
    source = tmp_path / "d.json"
    source.write_text(json.dumps(ONE_POINT_DIAGRAM))
    out = tmp_path / "d.dot"
    result = runner.invoke(main, ["diagram", "--json", str(source), "--format", "dot", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert '"agent1_w0" -> "agent2_w1" [label="c0@w1"];' in out.read_text()


@pytest.mark.parametrize(
    "text, named, fmt",
    [
        (json.dumps({"diagram_schema": 1, "n_windows": 2}), "'window_ticks'", "dot"),
        (json.dumps({"diagram_schema": 1, "window_ticks": 40, "n_windows": 2,
                     "points": [{"cluster": 0, "influenced": 1, "window": 0}]}), "'points'", "dot"),
        (json.dumps([{"diagram_schema": 1}]), "a diagram document is a JSON object", "dot"),
        (json.dumps({"diagram_schema": 1, "window_ticks": 40, "n_windows": 2,
                     "origins": {"0": [1, 2]}}), "'origins'", "dot"),
        ("[" * 100_000, "nesting too deep", "dot"),
        (json.dumps({"diagram_schema": 1, "window_ticks": 10, "n_windows": -3}),
         "n_windows must be >= 0", "svg"),
        (json.dumps({"diagram_schema": 1, "window_ticks": 0, "n_windows": 2}),
         "window_ticks must be > 0, got 0", "dot"),
        (json.dumps({"diagram_schema": 1, "window_ticks": 10, "n_windows": 2,
                     "points": [{"cluster": 0, "origin": 1, "influenced": 2, "window": 1}]}),
         "'points' names cluster 0, which has no birth", "svg"),
        # A window outside 0..n_windows - 1 used to be drawn off the canvas;
        # a node list must be the one the births, origins and points give.
        (json.dumps({"diagram_schema": 1, "window_ticks": 10, "n_windows": 1,
                     "cluster_nodes": [[7, 0]]}),
         "'cluster_nodes' is not the list its births, origins and points give", "svg"),
        (json.dumps({"diagram_schema": 1, "window_ticks": 10, "n_windows": 2,
                     "agent_nodes": [[0, 1], [-1, 1]]}),
         "'agent_nodes' is not the list its births, origins and points give", "dot"),
        (json.dumps({"diagram_schema": 1, "window_ticks": 10, "n_windows": 2,
                     "emergence_windows": {"0": 2}}),
         "'emergence_windows' names window 2, but n_windows is 2", "svg"),
        (json.dumps({"diagram_schema": 1, "window_ticks": 10, "n_windows": 2,
                     "agent_nodes": [[0, 1], [1, 2]],
                     "points": [{"cluster": 0, "origin": 1, "influenced": 2, "window": 5}]}),
         "'points' names window 5, but n_windows is 2", "svg"),
        (json.dumps({**ONE_POINT_DIAGRAM, "origins": {}}),
         "'origins' and 'emergence_windows' name different clusters", "dot"),
        (json.dumps({**ONE_POINT_DIAGRAM, "points": [
            {"cluster": 0, "origin": 3, "influenced": 2, "window": 1}]}),
         "'points' names origin 3 for cluster 0, whose origin is agent 1", "svg"),
        (json.dumps({**ONE_POINT_DIAGRAM, "agent_nodes": [[0, 1], [1, 2], [1, 3]]}),
         "'agent_nodes' is not the list its births, origins and points give", "dot"),
        (json.dumps({**ONE_POINT_DIAGRAM, "cluster_nodes": []}),
         "'cluster_nodes' is not the list its births, origins and points give", "svg"),
        # int() read "01" as 1, so the second label silently replaced the first.
        (json.dumps({**ONE_POINT_DIAGRAM, "cluster_labels": {"0": "a", "00": "b"}}),
         "'cluster_labels' is missing or malformed", "dot"),
        (json.dumps({**ONE_POINT_DIAGRAM, "emergence_windows": {" 0": 0}}),
         "'emergence_windows' is missing or malformed", "dot"),
        (json.dumps({**ONE_POINT_DIAGRAM, "origins": {"\u0660": {"agent": 1, "tick": 5}}}),
         "'origins' is missing or malformed", "svg"),
        # The decoder kept the last copy of a key, so this rendered label "b".
        (json.dumps(ONE_POINT_DIAGRAM).replace('"cluster_labels": {', '"cluster_labels": {"0": "a", '),
         "a JSON object repeats the key '0'", "dot"),
    ],
    ids=["no_window_ticks", "point_without_origin", "top_level_list", "origin_as_list",
         "deep_nesting", "negative_n_windows", "zero_window_ticks", "point_without_agent_node",
         "cluster_node_window", "agent_node_window", "emergence_window", "point_window",
         "births_without_origins", "point_origin_not_the_clusters", "extra_agent_node",
         "missing_cluster_node", "duplicate_label_key", "spaced_birth_key", "arabic_indic_origin_key",
         "repeated_label_key"],
)
def test_malformed_diagram_document_exits_4(runner, tmp_path, text, named, fmt):
    # Each of these used to end in a traceback with exit 1, or to draw
    # nothing (a negative count or width) and exit 0.
    source = tmp_path / "d.json"
    source.write_text(text)
    out = tmp_path / f"d.{fmt}"
    result = runner.invoke(main, ["diagram", "--json", str(source), "--format", fmt, "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert named in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "riders, flags, named",
    [
        (12, ["--no-analyzer", "--k", "0"], "k must be >= 1"),
        (12, ["--no-analyzer", "--theta", "5"], "theta must be in (0, 1]"),
        (12, ["--no-analyzer", "--memory-capacity", "-1"], "memory capacity must be >= 0, got -1"),
        (0, ["--k", "0", "--theta", "7"], "k must be >= 1"),
    ],
    ids=["k0_no_analyzer", "theta5_no_analyzer", "capacity_no_analyzer", "k0_no_riders"],
)
def test_analysis_option_out_of_range_exits_4(runner, tmp_path, riders, flags, named):
    # With detection off, or nothing to detect, these used to exit 0.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=360, n_riders=riders)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    out = tmp_path / "an"
    result = runner.invoke(main, ["analyze", "--trace", str(trace), "--out", str(out)] + flags)
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert named in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("simulate", ["--llm-url", UNREACHABLE]),
        ("simulate", ["--llm-url", "", "--llm-model", "m"]),
        ("analyze", ["--embed-url", UNREACHABLE]),
        ("analyze", ["--detector", "llm", "--llm-model", "m"]),
    ],
    ids=["llm_url_alone", "empty_llm_url", "embed_url_alone", "llm_detector_without_url"],
)
def test_remote_model_needs_url_and_model(runner, tmp_path, command, flags):
    # Refused before any input is read, so the trace need not exist.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    out = tmp_path / "out"
    source = ["--config", str(cfg)] if command == "simulate" else ["--trace", str(tmp_path / "t.jsonl")]
    result = runner.invoke(main, [command, *source, "--out", str(out)] + flags)
    assert result.exit_code == 2, result.output
    assert "require" in result.output
    assert not out.exists()


def test_readme_names_only_real_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])(--[a-z][a-z0-9-]*)", readme))
    real = {
        opt
        for command in main.commands.values()
        for param in command.params
        for opt in param.opts + param.secondary_opts
    }
    assert "--trace" in named
    assert named <= real, sorted(named - real)


# --- lone surrogates, header types and SVG characters -------------------------

LONE = "I will run for mayor \ud800 now"  # json.dumps writes it as a \ud800 escape


def analyze_foreign(runner, tmp_path, rows, mapping=None, flags=()):
    """``analyze --external`` over ``rows`` (each a JSON text) into tmp_path/ext."""
    log = tmp_path / "foreign.jsonl"
    log.write_text("\n".join(rows) + "\n")
    mapping_path = tmp_path / "mapping.json"
    mapping_path.write_text(json.dumps(mapping or {"agent": "speaker", "tick": "step", "text": "utterance"}))
    return runner.invoke(main, ["analyze", "--external", str(log), "--mapping", str(mapping_path),
                                "--out", str(tmp_path / "ext"), "--k", "1", *flags])


def test_foreign_row_with_lone_surrogate_is_skipped(runner, tmp_path):
    # Its text used to reach the bundle, whose UTF-8 write failed: exit 4, no bundle.
    rows = [json.dumps({"speaker": 1, "step": 5, "utterance": LONE}),
            json.dumps({"speaker": 2, "step": 6, "utterance": "I will vote for rain"}),
            json.dumps({"speaker": 3, "step": 7, "utterance": "a valid pair \U0001F600 stays"})]
    assert "\\ud83d\\ude00" in rows[2]
    result = analyze_foreign(runner, tmp_path, rows)
    assert result.exit_code == 0, result.output
    events = (tmp_path / "ext" / "analysis_events.jsonl").read_text(encoding="utf-8")
    assert "line 1: malformed record" in events
    assert "a valid pair \U0001F600 stays" in events


def test_trace_line_with_lone_surrogate_exits_5(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    line_no = edit_first_event(trace, "thought", lambda payload: payload.update(rational=LONE))
    result = runner.invoke(main, ["analyze", "--trace", str(trace), "--out", str(tmp_path / "an")])
    assert result.exit_code == 5, result.output
    assert f"line {line_no}: malformed event: a JSON string holds the lone surrogate '\\ud800'" in result.output
    assert not (tmp_path / "an").exists()


def test_mapping_with_lone_surrogate_exits_4(runner, tmp_path):
    rows = [json.dumps({"speaker": 1, "step": 5, "utterance": "vote for rain"})]
    result = analyze_foreign(runner, tmp_path, rows, {"agent": "speaker", "tick": "step", "text": "utter\udc00"})
    assert result.exit_code == 4, result.output
    assert "the lone surrogate '\\udc00'" in result.output
    assert not (tmp_path / "ext").exists()


def test_diagram_document_with_lone_surrogate_exits_4(runner, tmp_path):
    # The SVG's UTF-8 write failed with exit 4 too, but named the codec, not the input.
    source = tmp_path / "d.json"
    source.write_text(json.dumps({**ONE_POINT_DIAGRAM, "cluster_labels": {"0": LONE}}))
    out = tmp_path / "d.svg"
    result = runner.invoke(main, ["diagram", "--json", str(source), "--format", "svg", "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "the lone surrogate '\\ud800'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("edit, problem", [
    ({"schema_version": True}, "header 'schema_version' is not an integer"),
    ({"schema_version": 1.0}, "header 'schema_version' is not an integer"),
    ({"config_digest": "", "created": 5, "seed": "s"}, "header 'seed' is not an integer"),
    ({"created": 5}, "header 'created' is not a string or null"),
    ({"config_digest": 7}, "header 'config_digest' is not a string"),
    # Another version may type its fields otherwise, so it is named first.
    ({"schema_version": 2, "seed": "s"}, "trace schema_version 2 unsupported (expected 1)"),
], ids=["bool_version", "float_version", "string_seed", "int_created", "int_digest", "other_version"])
def test_mistyped_header_exits_5(runner, tmp_path, edit, problem):
    # Each of these used to be read, a true or 1.0 version as version 1.
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    lines = trace.read_text().splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), **edit}) + "\n"
    trace.write_text("".join(lines))
    for command in ("metrics", "analyze"):
        result = runner.invoke(main, [command, "--trace", str(trace), "--out", str(tmp_path / command)])
        assert result.exit_code == 5, (command, result.output)
        assert problem in result.output
        assert not (tmp_path / command).exists()


def test_header_without_optional_fields_keeps_defaults(runner, tmp_path):
    cfg = write_small_config(tmp_path / "sim.cfg", total_steps=120)
    trace = tmp_path / "t.jsonl"
    runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(trace)])
    lines = trace.read_text().splitlines(keepends=True)
    lines[0] = '{"schema_version":1}\n'
    trace.write_text("".join(lines))
    assert load_trace(trace).header == (1, "", 0, None)
    result = runner.invoke(main, ["metrics", "--trace", str(trace), "--out", str(tmp_path / "r")])
    assert result.exit_code == 0, result.output


def test_svg_of_a_control_character_label_is_well_formed(runner, tmp_path):
    # The C0 control went into the SVG as it was, which no XML parser reads.
    import xml.etree.ElementTree as ET

    rows = [json.dumps({"speaker": 1, "step": 5, "utterance": "\u0001 run for mayor"})]
    result = analyze_foreign(runner, tmp_path, rows, flags=["--window-ticks", "40"])
    assert result.exit_code == 0, result.output
    bundle = tmp_path / "ext"
    assert '"bounded: \\u0001 run for mayor' in (bundle / "diagram.json").read_text()
    for fmt in ("svg", "dot", "json"):
        out = tmp_path / f"d.{fmt}"
        result = runner.invoke(main, ["diagram", "--json", str(bundle / "diagram.json"),
                                      "--format", fmt, "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert (tmp_path / "d.json").read_bytes() == (bundle / "diagram.json").read_bytes()
    assert "\u0001" in (tmp_path / "d.dot").read_text()
    labels = [node.text for node in ET.parse(tmp_path / "d.svg").iter("{http://www.w3.org/2000/svg}text")]
    assert "bounded: \ufffd run fo\u2026" in labels
