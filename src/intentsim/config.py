"""Simulation configuration: defaults, validation, file parsing, digests.

The config file format is plain ``key = value`` text, one key per line,
with ``#`` comments. Keys are exactly the :class:`SimConfig` field names.
List-valued fields (``peak_ticks_per_day``, ``payment_range``) take
comma-separated values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ConfigError

DEFAULT_PEAK_TICKS: tuple[int, ...] = (40, 60, 90)
# The offer lookup's int64 key is a pickup distance (below 2 * grid_size)
# times a stride above every order id; this bound leaves room for 2^31 ids.
MAX_GRID_SIZE = 2**31


@dataclass(frozen=True)
class SimConfig:
    """All tunables of the delivery-world simulation."""

    grid_size: int = 200
    total_steps: int = 3600
    steps_per_day: int = 120
    n_riders: int = 100
    max_move_per_step: int = 30
    order_cap: int = 3
    peak_ticks_per_day: tuple[int, ...] = DEFAULT_PEAK_TICKS
    base_order_rate: float = 3.0
    peak_multiplier: float = 3.0
    wage_rate: float = 1.0
    payment_range: tuple[float, float] = (5.0, 15.0)
    seed: int = 42

    def __post_init__(self) -> None:
        object.__setattr__(self, "peak_ticks_per_day", tuple(self.peak_ticks_per_day))
        object.__setattr__(self, "payment_range", tuple(self.payment_range))
        self.validate()

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if get_args(kind):  # a tuple field: check each value
                kind, values, rule = get_args(kind)[0], value, "each value must be"
            else:
                values, rule = (value,), "must be"
            if not all(type(v) is int or (kind is float and type(v) is float) for v in values):
                raise ConfigError(name, f"{rule} {'an integer' if kind is int else 'a number'}")
            if not all(type(v) is int or math.isfinite(v) for v in values):  # NaN fails no range check
                raise ConfigError(name, f"{rule} finite")
        if not 0 < self.grid_size <= MAX_GRID_SIZE:
            raise ConfigError("grid_size", f"must be > 0 and <= {MAX_GRID_SIZE}")
        if self.steps_per_day <= 0:
            raise ConfigError("steps_per_day", "must be > 0")
        if self.total_steps < 0 or self.total_steps % self.steps_per_day != 0:
            raise ConfigError(
                "total_steps",
                f"must be a non-negative multiple of steps_per_day ({self.steps_per_day})",
            )
        if self.n_riders < 0:
            raise ConfigError("n_riders", "must be >= 0")
        if self.max_move_per_step <= 0:
            raise ConfigError("max_move_per_step", "must be > 0")
        if self.order_cap < 1:
            raise ConfigError("order_cap", "must be >= 1")
        for p in self.peak_ticks_per_day:
            if not 0 <= p < self.steps_per_day:
                raise ConfigError(
                    "peak_ticks_per_day",
                    f"tick {p} outside [0, {self.steps_per_day})",
                )
        if self.base_order_rate < 0:
            raise ConfigError("base_order_rate", "must be >= 0")
        if self.peak_multiplier < 0:
            raise ConfigError("peak_multiplier", "must be >= 0")
        if self.wage_rate < 0:
            raise ConfigError("wage_rate", "must be >= 0")
        lo, hi = self.payment_range
        if lo < 0 or hi < lo:
            raise ConfigError("payment_range", "need 0 <= min <= max")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["peak_ticks_per_day"] = list(self.peak_ticks_per_day)
        d["payment_range"] = list(self.payment_range)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown config key")
        missing = known - set(data)
        if missing:
            raise ConfigError(sorted(missing)[0], "missing config key")
        return cls(**data)


def json_digest(obj) -> str:
    """Stable sha256 over the compact, key-sorted JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_digest(config: SimConfig) -> str:
    """Stable sha256 over the canonical JSON form of the config."""
    return json_digest(config.to_dict())


# Each field's type as SimConfig declares it. An int field takes exactly an
# int and a float field an int or a float; a bool is neither.
_FIELD_TYPES = get_type_hints(SimConfig)


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(key, "unknown config key")
    kind = _FIELD_TYPES[key]
    try:
        if not get_args(kind):
            return kind(raw.strip())
        parts = tuple(get_args(kind)[0](part.strip()) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse value {raw.strip()!r}") from exc
    if key == "payment_range" and len(parts) != 2:
        raise ConfigError(key, "expected two comma-separated numbers")
    return parts


def parse_config_text(text: str) -> SimConfig:
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("<line>", f"line {line_no}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in values:
            raise ConfigError(key, f"duplicated on line {line_no}")
        values[key] = _parse_value(key, raw)
    return SimConfig(**values)


def load_config(path: str | Path) -> SimConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))
