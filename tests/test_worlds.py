"""Generated worlds: every small config the validator accepts runs clean
through every stage, and the stages' folds agree.

Each world is drawn from the edges as well as the middle: a grid of one
cell, one tick a day (every tick a day roll-over), no riders, shifts that
wrap past midnight or are empty, an order rate or a payment of 0, and a
move budget of 1 or past the grid. For each world:

* two runs write the same bytes, and ``replay_simulation`` does too;
* the streamed trace passes ``audit_trace``, and the auditor's report and
  the ``metrics`` CSVs equal those of the folds kept in ``fold_oracle``;
* the auditor's report, the trace's own sums, ``sim_end`` and the
  ``metrics`` reports agree on orders created and delivered, earnings and
  labor cost;
* ``analyze``, run twice, writes the same bundle.
"""

import csv
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from intentsim.audit import audit_trace
from intentsim.backends.scripted import ScriptedBackend, ScriptedPolicy
from intentsim.config import SimConfig
from intentsim.engine import replay_simulation, run_simulation
from intentsim.metrics import write_metrics_reports
from intentsim.pipeline import AnalysisOptions, analyze_trace_events, write_analysis_outputs

import fold_oracle
from study_script import load_study

hours = st.integers(0, 23)


@st.composite
def worlds(draw):
    """A config, a scripted backend and the inspector flag of a small world."""
    steps_per_day = draw(st.sampled_from([1, 2, 24, 120]) | st.integers(1, 120))
    grid_size = draw(st.sampled_from([1, 2, 50]) | st.integers(1, 50))
    cents = st.integers(0, 2000).map(lambda n: n / 100)
    lo = draw(st.sampled_from([0.0, 5.0]) | cents)
    config = SimConfig(
        grid_size=grid_size,
        total_steps=steps_per_day * draw(st.integers(0, 4)),
        steps_per_day=steps_per_day,
        n_riders=draw(st.integers(0, 12)),
        max_move_per_step=draw(st.sampled_from([1, grid_size + 1, 2 * grid_size]) | st.integers(1, 60)),
        order_cap=draw(st.integers(1, 5)),
        peak_ticks_per_day=tuple(draw(st.sets(st.integers(0, steps_per_day - 1), max_size=3))),
        base_order_rate=draw(st.sampled_from([0.0, 0.5]) | st.floats(0, 3)),
        peak_multiplier=draw(st.floats(0, 3)),
        wage_rate=draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 2)),
        payment_range=(lo, round(lo + draw(st.sampled_from([0.0]) | cents), 2)),
        seed=draw(st.integers(0, 2**32)),
    )
    if draw(st.booleans()):
        params = draw(st.sampled_from([{}]) | st.fixed_dictionaries({"start": hours, "end": hours}))
        hours_policy = ScriptedPolicy("fixed_hours", params)
    else:
        params = {"delta": draw(st.integers(0, 3))}
        if draw(st.booleans()):
            params["day0"] = draw(st.tuples(hours, hours))
        hours_policy = ScriptedPolicy("imitate_top_ranked", params)
    selection = ScriptedPolicy(draw(st.sampled_from(["greedy_nearest", "route_optimizer"])))
    return config, ScriptedBackend(hours_policy, selection), draw(st.booleans())


events_of = load_study().events_of  # a trace's events, header skipped


def analysis_bundle(trace, out, options):
    result = analyze_trace_events(events_of(trace), options)
    paths = write_analysis_outputs(result, out, seed=options.seed, similarity=True)
    return {name: path.read_bytes() for name, path in paths.items()}


@settings(deadline=None)
@given(
    world=worlds(),
    k=st.integers(1, 6),
    window_ticks=st.integers(1, 200),
    scan_k=st.booleans(),
)
def test_generated_world_runs_clean_and_its_folds_agree(world, k, window_ticks, scan_k):
    config, backend, inspector = world
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        state = run_simulation(config, backend, tmp / "a.jsonl", inspector=inspector)
        run_simulation(config, backend, tmp / "b.jsonl", inspector=inspector)
        replay_simulation(tmp / "a.jsonl", tmp / "replay.jsonl")
        trace = (tmp / "a.jsonl").read_bytes()
        assert (tmp / "b.jsonl").read_bytes() == trace
        assert (tmp / "replay.jsonl").read_bytes() == trace

        report = audit_trace(events_of(tmp / "a.jsonl"))
        assert report == fold_oracle.audit_trace(events_of(tmp / "a.jsonl"))
        payments = accrued = 0.0
        for event in events_of(tmp / "a.jsonl"):
            if event.kind == "order_event" and event.payload["event"] == "delivered":
                payments += event.payload["payment"]
            elif event.kind == "cost_accrual":
                accrued += event.payload["amount"]
            elif event.kind == "sim_end":
                end = event.payload
        summaries = [end["riders"][str(agent)] for agent in range(config.n_riders)]
        rounding = 1e-6 * (len(summaries) + 1)  # sim_end rounds each rider's sums to 6 places
        assert end["orders_created"] == report.orders_created == state.next_order_id
        assert sum(s["orders_completed"] for s in summaries) == report.orders_delivered
        assert math.isclose(sum(s["earnings"] for s in summaries), payments, abs_tol=rounding)
        assert math.isclose(sum(s["labor_cost"] for s in summaries), accrued, abs_tol=rounding)

        reports = write_metrics_reports(events_of(tmp / "a.jsonl"), tmp / "metrics", window_ticks)
        assert {name: path.read_bytes() for name, path in reports.items()} == {
            name: text.encode() for name, text in fold_oracle.metrics_texts(
                events_of(tmp / "a.jsonl"), window_ticks).items()}
        with reports["involution.csv"].open() as fh:
            days = list(csv.DictReader(fh))
        assert len(days) == config.total_steps // config.steps_per_day
        assert sum(int(day["orders"]) for day in days) == report.orders_delivered
        assert math.isclose(sum(float(day["cost"]) for day in days), accrued,
                            abs_tol=1e-6 * (len(days) + 1))  # the report's 6 places
        with reports["hours_vs_orders.csv"].open() as fh:
            riders = list(csv.DictReader(fh))
        assert [int(row["orders"]) for row in riders] == [
            s["orders_completed"] for s in summaries]

        options = AnalysisOptions(k=k, window_ticks=window_ticks, seed=config.seed % 1000,
                                  inspector=inspector, scan_k=scan_k)
        bundle = analysis_bundle(tmp / "a.jsonl", tmp / "analysis1", options)
        assert analysis_bundle(tmp / "a.jsonl", tmp / "analysis2", options) == bundle
