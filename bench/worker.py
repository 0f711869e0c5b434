"""One iteration of one benchmark workload, in a fresh interpreter.

``bench/run.py`` starts this script once per iteration and reads the JSON
object it prints as its last line:

    python3 bench/worker.py --workload NAME --seed N --out DIR \
        --spawned-at MONOTONIC [--traced] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the start,
so ``setup_s`` covers interpreter start, imports and input generation.

While the stages run, a fixed reference loop is timed on the same thread
every 10 ms of the process's CPU time (``ReferenceClock``); ``ref_s`` is its
mean time over the iteration and ``stage_ref_s`` over each stage, so
``run.py`` can express times in units of it.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# The reference loop: REF_CALLS calls of a small function, about 30 us.
REF_CALLS = 150
REF_INTERVAL_S = 0.01


class Clock:
    seconds = 0.0


def _ref_call(a: int, b: int = 1, *, c: int = 2) -> int:
    return a + b + c


def reference_pass() -> int:
    total = 0
    for i in range(REF_CALLS):
        total = _ref_call(i, b=total & 7, c=1)
    return total


class ReferenceClock:
    """Times ``reference_pass`` on the calling thread every ``REF_INTERVAL_S``
    of process CPU time (SIGPROF), from ``__enter__`` to ``__exit__``.

    The passes run between the workload's bytecodes, on the same CPU at the
    same moments, so their mean time follows the speed the workload got.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.stages: dict[str, float] = {}

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_pass()
        self.seconds.append(time.perf_counter() - start)

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mean(self, first: int = 0) -> float:
        """Mean pass time from sample ``first`` on (all, if none since)."""
        samples = self.seconds[first:] or self.seconds
        return sum(samples) / len(samples)


def make_timer(tracer, reference: ReferenceClock | None = None):
    """``timer(stage)``: times a stage and, when traced, records its span;
    with a ``reference``, also the reference loop's mean time over the stage."""

    @contextmanager
    def timer(stage: str):
        clock = Clock()
        first = len(reference.seconds) if reference is not None else 0
        start = time.perf_counter()
        try:
            if tracer is None:
                yield clock
            else:
                with tracer.span(f"stage.{stage}"):
                    yield clock
        finally:
            clock.seconds = time.perf_counter() - start
            if reference is not None:
                reference.stages[stage] = reference.mean(first)

    return timer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import intentsim

    if Path(intentsim.__file__).resolve().parent != (SRC / "intentsim").resolve():
        print(f"intentsim imported from {intentsim.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import workloads

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
    prep = workloads.prepare(args.workload, args.seed, args.out)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.install()
        if prep.backend is not None:
            prep.backend = tracing.BackendProxy(prep.backend, tracer)
    reference = ReferenceClock()
    start = time.perf_counter()
    try:
        with reference:
            run = workloads.run_stages(prep, make_timer(tracer, reference))
    finally:
        wall_s = time.perf_counter() - start
        wrappers_left = tracer.restore() if tracer is not None else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": reference.mean(),
        "stage_ref_s": reference.stages,
        "ref_passes": len(reference.seconds),
        "stages": run.seconds,
        "peak_rss_mb": peak_rss_mb,
        "error": run.error,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        trace_path = args.out / "run.trace.jsonl"
        trace_bytes = trace_path.stat().st_size if trace_path.exists() else 0
        result["layers"] = tracer.layer_metrics(trace_bytes)
        result["spans"] = tracer.span_table()
        result["wrappers_left"] = wrappers_left
        tracer.save(ROOT / ".bench_run" / "spans" / f"{args.workload}-seed{args.seed}.npz")
    result["counts"], result["problems"] = workloads.facts(prep, run)
    result["hashes"] = workloads.output_hashes(args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
