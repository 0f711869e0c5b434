"""Temporal emergence diagram over windowed intention clusters.

The repository's records are partitioned into fixed-width tick windows;
only the windows that hold an intention exist, so memory follows the
intentions, not the span. A cluster is *emergent* in the first window where
it appears (the baseline of already seen clusters grows as windows are
consumed, so each cluster has exactly one birth). The origin of an
emergent cluster is the agent with the globally earliest repository tick in
it; any other agent contributing to the same cluster in the emergence
window or the one after it, strictly after the origin tick, is recorded as
influenced. The influence map keys each influenced agent to the set of
clusters that reached it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .clustering import Clustering
from .mining import IntentionRepository

DIAGRAM_SCHEMA = 1
DEFAULT_WINDOW_TICKS = 1200


def check_positive(name: str, value: int) -> None:
    """Refuse a count, such as a window width or a block size, below 1."""
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class WindowSpec:
    window_ticks: int = DEFAULT_WINDOW_TICKS
    n_windows: int = 1

    def __post_init__(self) -> None:
        check_positive("window_ticks", self.window_ticks)
        if self.n_windows < 0:
            raise ValueError("n_windows must be >= 0")

    @classmethod
    def for_span(cls, total_ticks: int, window_ticks: int = DEFAULT_WINDOW_TICKS) -> "WindowSpec":
        if total_ticks <= 0:
            return cls(window_ticks=window_ticks, n_windows=0)
        n = (total_ticks + window_ticks - 1) // window_ticks
        return cls(window_ticks=window_ticks, n_windows=n)


# Window -> cluster id -> {agent id -> first tick of that agent in the window},
# for each window that holds an intention.
WindowedClusters = dict[int, dict[int, dict[int, int]]]


def window_partition(
    repo: IntentionRepository, clustering: Clustering, spec: WindowSpec
) -> WindowedClusters:
    """Group the repository's records by (window, cluster, agent) first occurrence."""
    windows: WindowedClusters = {}
    for record, cluster in zip(repo.records, clustering.assignments.tolist()):
        agents = windows.setdefault(record.tick // spec.window_ticks, {}).setdefault(cluster, {})
        previous = agents.get(record.agent_id)
        if previous is None or record.tick < previous:
            agents[record.agent_id] = record.tick
    return windows


@dataclass(frozen=True)
class EmergencePoint:
    cluster_id: int
    origin_agent: int
    influenced_agent: int
    window: int


@dataclass
class EmergenceDiagram:
    window_ticks: int
    n_windows: int
    cluster_labels: dict[int, str] = field(default_factory=dict)
    cluster_nodes: list[tuple[int, int]] = field(default_factory=list)  # (window, cluster)
    agent_nodes: list[tuple[int, int]] = field(default_factory=list)  # (window, agent)
    emergence_windows: dict[int, int] = field(default_factory=dict)  # cluster -> window
    origins: dict[int, tuple[int, int]] = field(default_factory=dict)  # cluster -> (agent, tick)
    points: list[EmergencePoint] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "diagram_schema": DIAGRAM_SCHEMA,
            "window_ticks": self.window_ticks,
            "n_windows": self.n_windows,
            "cluster_labels": {str(k): v for k, v in sorted(self.cluster_labels.items())},
            "cluster_nodes": [list(node) for node in self.cluster_nodes],
            "agent_nodes": [list(node) for node in self.agent_nodes],
            "emergence_windows": {str(k): v for k, v in sorted(self.emergence_windows.items())},
            "origins": {
                str(k): {"agent": a, "tick": t} for k, (a, t) in sorted(self.origins.items())
            },
            "points": [
                {
                    "cluster": p.cluster_id,
                    "origin": p.origin_agent,
                    "influenced": p.influenced_agent,
                    "window": p.window,
                }
                for p in self.points
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "EmergenceDiagram":
        """Read a diagram document; a malformed field is a ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"a diagram document is a JSON object, not {type(data).__name__}")
        if data.get("diagram_schema") != DIAGRAM_SCHEMA:
            raise ValueError(
                f"unsupported diagram_schema {data.get('diagram_schema')!r} (expected {DIAGRAM_SCHEMA})"
            )
        fields = {}
        for name, parse in _FIELD_PARSERS.items():
            try:
                fields[name] = parse(data.get(name, {}))  # an absent list or map is empty
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"diagram field {name!r} is missing or malformed: {exc!r}") from None
        WindowSpec(fields["window_ticks"], fields["n_windows"])  # refuses a width < 1, a count < 0
        n_windows = fields["n_windows"]
        for name, windows in (
            ("cluster_nodes", [w for w, _ in fields["cluster_nodes"]]),
            ("agent_nodes", [w for w, _ in fields["agent_nodes"]]),
            ("emergence_windows", fields["emergence_windows"].values()),
            ("points", [p.window for p in fields["points"]]),
        ):
            outside = [w for w in windows if not 0 <= w < n_windows]
            if outside:
                raise ValueError(
                    f"diagram field {name!r} names window {outside[0]}, but n_windows is {n_windows}"
                )
        agents = {agent for _, agent in fields["agent_nodes"]}
        for p in fields["points"]:
            if not {p.origin_agent, p.influenced_agent} <= agents:
                raise ValueError(f"diagram field 'points' names an agent with no agent node: {p}")
        return cls(**fields)


def _int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


# Each field of a diagram document, read back into its dataclass field.
_FIELD_PARSERS = {
    "window_ticks": _int,
    "n_windows": _int,
    "cluster_labels": lambda v: {int(k): _text(label) for k, label in v.items()},
    "cluster_nodes": lambda v: [(_int(w), _int(c)) for w, c in v],
    "agent_nodes": lambda v: [(_int(w), _int(a)) for w, a in v],
    "emergence_windows": lambda v: {int(k): _int(w) for k, w in v.items()},
    "origins": lambda v: {int(k): (_int(o["agent"]), _int(o["tick"])) for k, o in v.items()},
    "points": lambda v: [
        EmergencePoint(_int(p["cluster"]), _int(p["origin"]), _int(p["influenced"]), _int(p["window"]))
        for p in v
    ],
}


InfluenceMap = dict[int, set[int]]


def build_diagram(
    repo: IntentionRepository,
    clustering: Clustering,
    spec: WindowSpec,
    cluster_labels: dict[int, str] | None = None,
) -> tuple[EmergenceDiagram, InfluenceMap, list[EmergencePoint]]:
    """Walk the windows in order, birth new clusters, and record influence
    points. The diagram spans the spec's windows, and past them up to the
    last window that holds an intention.

    Windows follow ticks, so the earliest (tick, agent) of a cluster in its
    birth window is its earliest anywhere: that record is the origin.
    """
    windows = window_partition(repo, clustering, spec)
    diagram = EmergenceDiagram(
        window_ticks=spec.window_ticks,
        n_windows=max(spec.n_windows, max(windows, default=-1) + 1),
        cluster_labels=dict(cluster_labels or {}),
    )
    births = diagram.emergence_windows
    agent_nodes: set[tuple[int, int]] = set()
    for w, window in sorted(windows.items()):
        for cluster_id in sorted(window.keys() - births.keys()):
            origin_tick, origin_agent = min((tick, agent) for agent, tick in window[cluster_id].items())
            diagram.cluster_nodes.append((w, cluster_id))
            births[cluster_id] = w
            diagram.origins[cluster_id] = (origin_agent, origin_tick)
            agent_nodes.add((w, origin_agent))
            # Every later agent in the birth window or the next one, each
            # counted once, at its earlier window.
            reached: dict[int, int] = {}
            for later in (w, w + 1):
                for agent, tick in windows.get(later, {}).get(cluster_id, {}).items():
                    if agent != origin_agent and tick > origin_tick:
                        reached.setdefault(agent, later)
            for agent, agent_window in sorted(reached.items(), key=lambda kv: (kv[1], kv[0])):
                diagram.points.append(EmergencePoint(cluster_id, origin_agent, agent, agent_window))
                agent_nodes.add((agent_window, agent))
    diagram.agent_nodes = sorted(agent_nodes)
    return diagram, influence_from_points(diagram.points), diagram.points


def influence_from_points(points: list[EmergencePoint]) -> InfluenceMap:
    """Projection of the point list onto the per-agent influence sets."""
    influence: InfluenceMap = {}
    for p in points:
        influence.setdefault(p.influenced_agent, set()).add(p.cluster_id)
    return influence


# --- rendering ---------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(diagram: EmergenceDiagram) -> str:
    lines = ["digraph intention_emergence {", "  rankdir=LR;"]
    for window, cluster in diagram.cluster_nodes:
        label = diagram.cluster_labels.get(cluster, f"cluster {cluster}")
        lines.append(
            f'  "c{cluster}_w{window}" [shape=box, label="w{window}: {_dot_escape(label)}"];'
        )
    for window, agent in diagram.agent_nodes:
        lines.append(f'  "agent{agent}_w{window}" [shape=ellipse, label="agent {agent}"];')
    for p in diagram.points:
        origin_window = diagram.emergence_windows.get(p.cluster_id, p.window)
        lines.append(
            f'  "agent{p.origin_agent}_w{origin_window}" -> "agent{p.influenced_agent}_w{p.window}"'
            f' [label="c{p.cluster_id}@w{p.window}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_json(diagram: EmergenceDiagram) -> str:
    return json.dumps(diagram.to_json_dict(), sort_keys=True, indent=2) + "\n"


def render_svg(diagram: EmergenceDiagram) -> str:
    """Minimal timeline: windows as columns, agents as rows, arrows for influence."""
    agents = sorted({a for _, a in diagram.agent_nodes})
    col_w, row_h, margin = 160, 40, 60
    width = margin * 2 + max(1, diagram.n_windows) * col_w
    height = margin * 2 + max(1, len(agents)) * row_h
    row_of = {agent: i for i, agent in enumerate(agents)}

    def x_of(window: int) -> int:
        return margin + window * col_w + col_w // 2

    def y_of(agent: int) -> int:
        return margin + row_of[agent] * row_h + row_h // 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '  <style>text { font-family: sans-serif; font-size: 12px; }</style>',
    ]
    # Label only the windows that hold a node: n_windows alone may be huge.
    for w in sorted({w for w, _ in diagram.cluster_nodes} | {w for w, _ in diagram.agent_nodes}):
        parts.append(f'  <text x="{x_of(w) - 30}" y="{margin - 20}">window {w}</text>')
    for agent in agents:
        parts.append(f'  <text x="10" y="{y_of(agent) + 4}">agent {agent}</text>')
    for window, cluster in diagram.cluster_nodes:
        label = diagram.cluster_labels.get(cluster, f"cluster {cluster}")
        origin_agent, _ = diagram.origins.get(cluster, (None, None))
        if origin_agent is None or origin_agent not in row_of:
            continue
        x, y = x_of(window), y_of(origin_agent)
        parts.append(
            f'  <rect x="{x - 55}" y="{y - 14}" width="110" height="24" fill="none" stroke="black"/>'
        )
        short = label if len(label) <= 18 else label[:17] + "…"
        parts.append(f'  <text x="{x - 50}" y="{y + 2}">{_xml_escape(short)}</text>')
    for p in diagram.points:
        origin_window = diagram.emergence_windows.get(p.cluster_id, p.window)
        x1, y1 = x_of(origin_window), y_of(p.origin_agent)
        x2, y2 = x_of(p.window), y_of(p.influenced_agent)
        parts.append(
            f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" marker-end="url(#arrow)"/>'
        )
    parts.insert(
        1,
        '  <defs><marker id="arrow" markerWidth="8" markerHeight="8" refX="8" refY="4" orient="auto">'
        '<path d="M0,0 L8,4 L0,8 z"/></marker></defs>',
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def render_diagram(diagram: EmergenceDiagram, fmt: str) -> str:
    if fmt == "dot":
        return render_dot(diagram)
    if fmt == "json":
        return render_json(diagram)
    if fmt == "svg":
        return render_svg(diagram)
    raise ValueError(f"unknown diagram format {fmt!r} (use dot, json, or svg)")
