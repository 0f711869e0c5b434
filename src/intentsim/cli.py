"""Command-line entry point.

Commands: ``simulate`` (run the world, write a trace), ``analyze`` (mine a
trace or a foreign log into repository / clusters / diagram), ``metrics``
(CSV reports from a trace), ``diagram`` (re-render an existing analysis).

An error exits with its code in :data:`EXIT_CODES`, printing one line and
no traceback; the group's help epilog is built from that table.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
from click.core import ParameterSource

from .backends.llm import LlmBackend
from .backends.scripted import ScriptedBackend, ScriptedPolicy
from .clustering import SCAN_K_MAX, SCAN_K_MIN
from .config import SimConfig, load_config
from .diagram import DEFAULT_WINDOW_TICKS, EmergenceDiagram, render_diagram
from .engine import run_simulation
from .errors import (
    ClusteringError,
    ConfigError,
    IntentsimError,
    TraceError,
)
from .metrics import write_metrics_reports
from .mining import DEFAULT_MEMORY_CAPACITY, DEFAULT_THETA
from .pipeline import (
    AnalysisOptions,
    analyze_external,
    analyze_trace_events,
    write_analysis_outputs,
)
from .trace import IngestMapping, decode_json, iter_trace, open_output
from .transport import Endpoint

# (code, meaning, the errors that exit with it), most specific first. Click
# exits 2 itself; an OSError is an unreadable input, as outputs raise OutputError.
EXIT_CODES = (
    (0, "ok", ()),
    (2, "usage", ()),
    (3, "missing or unreadable input file", (OSError,)),
    (4, "bad config/schema", (ConfigError, ClusteringError, ValueError)),
    (5, "bad trace", (TraceError,)),
    (1, "error", (IntentsimError,)),
)


def _refuse_unread(reason: str, *names: str) -> None:
    """Refuse, as a usage error, each named option the user gave that
    nothing reads ``reason`` (for example ``"with --trace"``)."""
    ctx = click.get_current_context()
    given = [
        param.opts[0]
        for param in ctx.command.params
        if param.name in names and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT
    ]
    if given:
        raise click.UsageError(f"nothing reads {', '.join(given)} {reason}")


def _utf8(_ctx, _param, value: str | None) -> str | None:
    """Refuse, as a usage error, a text option that is not UTF-8: a shell
    byte that is not UTF-8 reaches Python as a lone surrogate."""
    if value is not None and any("\ud800" <= char <= "\udfff" for char in value):
        raise click.BadParameter(f"{ascii(value)} is not UTF-8")
    return value


def _guarded(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (IntentsimError, OSError, ValueError) as exc:
            if isinstance(exc, FileNotFoundError):
                message = f"missing file: {exc.filename or exc}"
            elif isinstance(exc, OSError):
                message = f"cannot read {exc.filename or 'an input'}: {exc.strerror or exc}"
            else:
                message = str(exc)
            click.echo(f"error: {message}", err=True)
            sys.exit(next(code for code, _meaning, classes in EXIT_CODES if isinstance(exc, classes)))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group(epilog=f"Exit codes: {', '.join(f'{code} {meaning}' for code, meaning, _ in sorted(EXIT_CODES))}.")
def main() -> None:
    """Delivery-world simulator and intention emergence analyzer."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None, help="Config file (key = value lines); defaults apply when omitted.")
@click.option("--out", "out_path", type=click.Path(), required=True, help="Trace file to write.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--hours-policy", type=click.Choice(["fixed_hours", "imitate_top_ranked"]), default="fixed_hours", show_default=True)
@click.option("--selection-policy", type=click.Choice(["greedy_nearest", "route_optimizer"]), default="greedy_nearest", show_default=True)
@click.option("--imitate-delta", type=int, default=1, show_default=True, help="Hours widened on each side when imitating.")
@click.option("--fixed-start", type=int, default=None, help="Constant shift start for fixed_hours.")
@click.option("--fixed-end", type=int, default=None, help="Constant shift end for fixed_hours.")
@click.option("--llm-url", default=None, callback=_utf8, help="Chat-completion endpoint URL; decisions go to the chat model instead of the scripted policies.")
@click.option("--llm-model", default=None, callback=_utf8, help="Model id sent to the chat endpoint (with --llm-url).")
@click.option("--no-inspector", is_flag=True, help="Record single-perspective thoughts only (calculation side).")
@click.option("--created-at", default=None, callback=_utf8, help="Timestamp stored in the trace header (omitted by default so reruns are byte-identical).")
@_guarded
def simulate(
    config_path,
    out_path,
    seed,
    hours_policy,
    selection_policy,
    imitate_delta,
    fixed_start,
    fixed_end,
    llm_url,
    llm_model,
    no_inspector,
    created_at,
):
    """Run the simulation and write its event trace."""
    config = load_config(config_path) if config_path else SimConfig()
    if seed is not None:
        config = SimConfig(**{**config.to_dict(), "seed": seed})
    if llm_url is not None:
        _refuse_unread(
            "with --llm-url",
            "hours_policy", "selection_policy", "imitate_delta", "fixed_start", "fixed_end",
        )
        if not llm_url or not llm_model:
            raise click.UsageError("--llm-url requires a URL and --llm-model")
        chosen = LlmBackend(Endpoint(base_url=llm_url, model_id=llm_model), dual=not no_inspector)
    else:
        _refuse_unread("without --llm-url", "llm_model")
        unread = ("imitate_delta",) if hours_policy == "fixed_hours" else ("fixed_start", "fixed_end")
        _refuse_unread(f"with --hours-policy {hours_policy}", *unread)
        hours_params = {"delta": imitate_delta}
        if hours_policy == "fixed_hours":
            given = {"start": fixed_start, "end": fixed_end}
            hours_params = {key: hour for key, hour in given.items() if hour is not None}
        try:
            chosen = ScriptedBackend(
                hours_policy=ScriptedPolicy(hours_policy, hours_params),
                selection_policy=ScriptedPolicy(selection_policy),
            )
        except ConfigError as exc:
            raise click.UsageError(f"--fixed-start/--fixed-end: {exc}") from None
    world = run_simulation(
        config, chosen, out_path, inspector=not no_inspector, created=created_at
    )
    click.echo(
        f"simulated {config.total_steps} ticks, {config.n_riders} riders, "
        f"{world.next_order_id} orders -> {out_path}"
    )


@main.command()
@click.option("--trace", "trace_path", type=click.Path(), default=None, help="Simulation trace to analyze.")
@click.option("--external", "external_path", type=click.Path(), default=None, help="Foreign JSONL log to ingest instead of a trace.")
@click.option("--mapping", "mapping_path", type=click.Path(), default=None, help="Field mapping file for --external.")
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
@click.option("--k", type=int, default=5, show_default=True, help="Number of intention clusters.")
@click.option("--theta", type=float, default=DEFAULT_THETA, show_default=True, help="Novelty threshold for the similarity detector.")
@click.option("--window-ticks", type=int, default=DEFAULT_WINDOW_TICKS, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for embedding/clustering.")
@click.option("--embed-url", default=None, callback=_utf8, help="Embedding endpoint URL; thoughts are embedded remotely instead of by token hashing.")
@click.option("--embed-model", default=None, callback=_utf8, help="Embedding model id (with --embed-url).")
@click.option("--memory-capacity", type=int, default=DEFAULT_MEMORY_CAPACITY, show_default=True)
@click.option("--scan-k", is_flag=True, help=f"Pick k by silhouette scan over {SCAN_K_MIN}..{SCAN_K_MAX}.")
@click.option("--detector", type=click.Choice(["similarity", "llm"]), default="similarity", show_default=True)
@click.option("--llm-url", default=None, callback=_utf8, help="Chat endpoint for --detector llm / --label-llm.")
@click.option("--llm-model", default=None, callback=_utf8, help="Model id for --detector llm / --label-llm.")
@click.option("--label-llm", is_flag=True, help="Summarize cluster labels with the chat endpoint instead of the medoid text.")
@click.option("--similarity-csv", is_flag=True, help="Also export the pairwise similarity matrix as similarity.csv.")
@click.option("--no-inspector", is_flag=True, help="Drop instinct-side texts before analysis.")
@click.option("--no-analyzer", is_flag=True, help="Skip emergence detection (repository stays empty).")
@_guarded
def analyze(
    trace_path,
    external_path,
    mapping_path,
    out_dir,
    k,
    theta,
    window_ticks,
    seed,
    embed_url,
    embed_model,
    memory_capacity,
    scan_k,
    detector,
    llm_url,
    llm_model,
    label_llm,
    similarity_csv,
    no_inspector,
    no_analyzer,
):
    """Mine thoughts into intentions, cluster them, and build the diagram."""
    if (trace_path is None) == (external_path is None):
        raise click.UsageError("provide exactly one of --trace or --external")
    if trace_path is not None:
        _refuse_unread("with --trace", "mapping_path")
    else:
        _refuse_unread("with --external", "no_inspector")
    if embed_url is None:
        _refuse_unread("without --embed-url", "embed_model")
    if detector != "llm" and not label_llm:
        _refuse_unread("without --detector llm or --label-llm", "llm_url", "llm_model")
    options = AnalysisOptions(
        k=k,
        theta=theta,
        window_ticks=window_ticks,
        seed=seed,
        inspector=not no_inspector,
        analyzer=not no_analyzer,
        memory_capacity=memory_capacity,
        scan_k=scan_k,
    )
    if embed_url is not None:
        if not embed_url or not embed_model:
            raise click.UsageError("--embed-url requires a URL and --embed-model")
        options.embed_endpoint = Endpoint(base_url=embed_url, model_id=embed_model)
    if detector == "llm" or label_llm:
        if not llm_url or not llm_model:
            raise click.UsageError("--detector llm / --label-llm require --llm-url and --llm-model")
        endpoint = Endpoint(base_url=llm_url, model_id=llm_model)
        options.detector_llm = endpoint if detector == "llm" else None
        options.label_llm = endpoint if label_llm else None
    if trace_path is not None:
        stream = iter_trace(trace_path)
        digest = next(stream).config_digest
        result = analyze_trace_events(stream, options)
    else:
        if mapping_path is None:
            raise click.UsageError("--external requires --mapping")
        mapping = IngestMapping.load(mapping_path)
        result, ingest = analyze_external(external_path, mapping, options)
        digest = ""
        if ingest.skipped:
            click.echo(f"ingest skipped {ingest.skipped} record(s)", err=True)
    write_analysis_outputs(result, out_dir, source_digest=digest, seed=seed, similarity=similarity_csv)
    click.echo(
        f"{len(result.repository)} intentions, k={result.clustering.k if result.clustering else 0}, "
        f"{len(result.diagram.points)} emergence points -> {Path(out_dir)}"
    )


@main.command()
@click.option("--trace", "trace_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--window-ticks", type=int, default=DEFAULT_WINDOW_TICKS, show_default=True)
@click.option("--downsample", type=int, default=4, show_default=True, help="Heatmap block size (1 = raw grid).")
@_guarded
def metrics(trace_path, out_dir, window_ticks, downsample):
    """Write the CSV report bundle for a simulation trace."""
    events = iter_trace(trace_path)
    next(events)  # the header
    written = write_metrics_reports(
        events, out_dir, window_ticks=window_ticks, downsample=downsample
    )
    click.echo(f"wrote {len(written)} report file(s) under {out_dir}")


@main.command()
@click.option("--analysis", "analysis_dir", type=click.Path(), default=None, help="Analysis directory containing diagram.json.")
@click.option("--json", "json_path", type=click.Path(), default=None, help="Diagram JSON document to re-render.")
@click.option("--format", "fmt", type=click.Choice(["dot", "json", "svg"]), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@_guarded
def diagram(analysis_dir, json_path, fmt, out_path):
    """Re-render an existing analysis diagram in another format."""
    if (analysis_dir is None) == (json_path is None):
        raise click.UsageError("provide exactly one of --analysis or --json")
    source = Path(json_path) if json_path else Path(analysis_dir) / "diagram.json"
    doc = EmergenceDiagram.from_json_dict(decode_json(source.read_text(encoding="utf-8")))
    with open_output(out_path) as fh:
        fh.write(render_diagram(doc, fmt))
    click.echo(f"rendered {fmt} diagram -> {out_path}")


if __name__ == "__main__":
    main()
