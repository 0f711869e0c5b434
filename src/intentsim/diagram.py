"""Temporal emergence diagram over windowed intention clusters.

Records fall into fixed-width tick windows. A cluster is *emergent* in the
window of its first record, whose agent and tick are its origin. Any other
agent whose first record of the cluster in that window or the next comes
strictly after the origin tick is influenced, once, at the earlier window.
The influence map keys each influenced agent to the clusters that reached it.

:func:`build_diagram` relies on record-id order being canonical (tick, agent)
order, and reads the repository in one pass. The diagram stores each birth,
origin and point once; its node lists follow from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .mining import IntentionRepository
from .trace import is_int_key

DIAGRAM_SCHEMA = 1
DEFAULT_WINDOW_TICKS = 1200


def check_positive(name: str, value: int) -> None:
    """Refuse a count, such as a window width or a block size, below 1."""
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


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
    emergence_windows: dict[int, int] = field(default_factory=dict)  # cluster -> window
    origins: dict[int, tuple[int, int]] = field(default_factory=dict)  # cluster -> (agent, tick)
    points: list[EmergencePoint] = field(default_factory=list)

    @property
    def cluster_nodes(self) -> list[tuple[int, int]]:
        """The (window, cluster) of each birth."""
        return sorted((w, cluster) for cluster, w in self.emergence_windows.items())

    @property
    def agent_nodes(self) -> list[tuple[int, int]]:
        """The (window, agent) of each origin in its birth window and of each
        influenced agent in its point's window."""
        nodes = {(self.emergence_windows[c], agent) for c, (agent, _) in self.origins.items()}
        return sorted(nodes | {(p.window, p.influenced_agent) for p in self.points})

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
        stored_nodes = {name: fields.pop(name) for name in ("cluster_nodes", "agent_nodes")}
        check_positive("window_ticks", fields["window_ticks"])
        n_windows = fields["n_windows"]
        if n_windows < 0:
            raise ValueError("n_windows must be >= 0")
        births, origins, points = fields["emergence_windows"], fields["origins"], fields["points"]
        for name, windows in (("emergence_windows", births.values()), ("points", [p.window for p in points])):
            outside = [w for w in windows if not 0 <= w < n_windows]
            if outside:
                raise ValueError(
                    f"diagram field {name!r} names window {outside[0]}, but n_windows is {n_windows}"
                )
        if births.keys() != origins.keys():
            raise ValueError(
                f"diagram fields 'origins' and 'emergence_windows' name different clusters: "
                f"{sorted(origins)} and {sorted(births)}"
            )
        for p in points:
            if p.cluster_id not in origins:
                raise ValueError(f"diagram field 'points' names cluster {p.cluster_id}, which has no birth")
            if p.origin_agent != origins[p.cluster_id][0]:
                raise ValueError(
                    f"diagram field 'points' names origin {p.origin_agent} for cluster {p.cluster_id}, "
                    f"whose origin is agent {origins[p.cluster_id][0]}"
                )
        diagram = cls(**fields)
        for name, stored in stored_nodes.items():
            if stored != getattr(diagram, name):
                raise ValueError(f"diagram field {name!r} is not the list its births, origins and points give")
        return diagram


def _int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _key(key: str) -> int:
    if not is_int_key(key):
        raise ValueError(f"key {key!r} is not an integer as str(int) writes it")
    return int(key)


# Each field of a diagram document, read back into its dataclass field; the
# node lists are read only to be checked against the ones the diagram derives.
_FIELD_PARSERS = {
    "window_ticks": _int,
    "n_windows": _int,
    "cluster_labels": lambda v: {_key(k): _text(label) for k, label in v.items()},
    "cluster_nodes": lambda v: [(_int(w), _int(c)) for w, c in v],
    "agent_nodes": lambda v: [(_int(w), _int(a)) for w, a in v],
    "emergence_windows": lambda v: {_key(k): _int(w) for k, w in v.items()},
    "origins": lambda v: {_key(k): (_int(o["agent"]), _int(o["tick"])) for k, o in v.items()},
    "points": lambda v: [
        EmergencePoint(_int(p["cluster"]), _int(p["origin"]), _int(p["influenced"]), _int(p["window"]))
        for p in v
    ],
}


InfluenceMap = dict[int, set[int]]


def build_diagram(
    repo: IntentionRepository,
    clusters: list[int],
    window_ticks: int,
    n_windows: int,
    cluster_labels: dict[int, str],
) -> tuple[EmergenceDiagram, InfluenceMap, list[EmergencePoint]]:
    """Walk the records once in record-id order; ``clusters[i]`` is the
    cluster of ``repo.records[i]``. The diagram spans ``n_windows`` windows,
    and past them up to the last window that holds an intention."""
    births: dict[int, int] = {}
    origins: dict[int, tuple[int, int]] = {}
    points: list[EmergencePoint] = []
    seen: set[tuple[int, int, int]] = set()  # the (window, cluster, agent) of each first record
    w = -1
    for record, cluster in zip(repo.records, clusters):
        agent, tick = record.agent_id, record.tick
        w = tick // window_ticks
        if (w, cluster, agent) in seen:
            continue
        seen.add((w, cluster, agent))
        if cluster not in births:
            births[cluster] = w
            origins[cluster] = (agent, tick)
            continue
        origin_agent, origin_tick = origins[cluster]
        if w <= births[cluster] + 1 and agent != origin_agent and tick > origin_tick:
            points.append(EmergencePoint(cluster, origin_agent, agent, w))
            seen.add((w + 1, cluster, agent))  # an agent is influenced once, at its earlier window
    points.sort(key=lambda p: (births[p.cluster_id], p.cluster_id, p.window, p.influenced_agent))
    diagram = EmergenceDiagram(
        window_ticks, max(n_windows, w + 1), dict(cluster_labels), births, origins, points
    )
    return diagram, influence_from_points(points), points


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
        origin_window = diagram.emergence_windows[p.cluster_id]
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
    agent_nodes = diagram.agent_nodes
    agents = sorted({a for _, a in agent_nodes})
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
    for w in sorted({w for w, _ in agent_nodes}):
        parts.append(f'  <text x="{x_of(w) - 30}" y="{margin - 20}">window {w}</text>')
    for agent in agents:
        parts.append(f'  <text x="10" y="{y_of(agent) + 4}">agent {agent}</text>')
    for window, cluster in diagram.cluster_nodes:
        label = diagram.cluster_labels.get(cluster, f"cluster {cluster}")
        x, y = x_of(window), y_of(diagram.origins[cluster][0])
        parts.append(
            f'  <rect x="{x - 55}" y="{y - 14}" width="110" height="24" fill="none" stroke="black"/>'
        )
        short = label if len(label) <= 18 else label[:17] + "…"
        parts.append(f'  <text x="{x - 50}" y="{y + 2}">{_xml_escape(short)}</text>')
    for p in diagram.points:
        origin_window = diagram.emergence_windows[p.cluster_id]
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
