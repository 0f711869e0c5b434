"""Trace fixtures written from event tuples, for tests that hand-build a trace."""

from intentsim.trace import TraceWriter, open_output


def write_trace(path, header, events):
    """Write ``header`` and ``events`` (``TraceEvent``s numbered from seq 0,
    such as a loaded trace's) as a trace file, through ``TraceWriter.emit``."""
    with open_output(path) as fh:
        writer = TraceWriter(fh, header.config_digest, header.seed, header.created)
        for expected, (seq, tick, kind, payload) in enumerate(events):
            assert seq == expected, f"event seq {seq} is not the next one, {expected}"
            writer.emit(kind, tick, payload)
