"""Exception types shared across the simulator and analysis pipeline."""

from __future__ import annotations


class IntentsimError(Exception):
    """Base class for all package errors."""


class ConfigError(IntentsimError):
    """Invalid simulation configuration; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class DecisionParseError(IntentsimError):
    """A decision payload violated the required reply format."""

    def __init__(self, violation: str):
        super().__init__(violation)
        self.violation = violation


class BackendError(IntentsimError):
    """A decision backend failed after exhausting its retries."""


class EmbeddingError(IntentsimError):
    """Embedding failure or an operation on a degenerate vector."""


class OutputError(IntentsimError):
    """An output path could not be written; names the path."""

    def __init__(self, path, exc: OSError):
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


class ClusteringError(IntentsimError):
    """Clustering preconditions violated (e.g. fewer points than clusters)."""


class TraceError(IntentsimError):
    """Base class for trace-store violations."""


class TraceHeaderError(TraceError):
    """Missing or unreadable trace header."""


class TraceVersionError(TraceError):
    """Trace schema version not supported by this reader."""


class TraceFormatError(TraceError):
    """A trace line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TraceOrderError(TraceError):
    """Sequence/tick ordering or bracketing violated in a trace."""


class AuditError(IntentsimError):
    """A simulation invariant failed while auditing a trace."""
