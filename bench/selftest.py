"""Self-test of the benchmark on tiny configs (about 20 s).

    python3 bench/selftest.py

Checks that:

* untraced and traced runs of ``tiny_pipeline`` and ``tiny_ingest`` report
  every metric ``BENCHMARK.json`` names, with its unit, and pass every
  correctness check;
* a traced run writes byte-identical outputs to an untraced one, reaches
  every wrapped layer, and leaves no wrapper in place;
* in a directory holding only ``BENCHMARK.json`` and ``bench/``, the
  benchmark exits non-zero without printing a result.

Exits 0 when all hold; otherwise prints each failure and exits 1.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from intentsim import audit, clustering, embedding, engine, metrics, mining, pipeline, trace  # noqa: E402
from worker import make_timer  # noqa: E402

PATCHED = (audit, clustering, embedding, engine, metrics, mining, pipeline, trace,
           embedding.HashingEmbedder, mining.SimilarityDetector, trace.TraceWriter)
TINY = ("tiny_pipeline", "tiny_ingest")
failures: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def declared_metrics() -> dict:
    """The metric units a result must hold, by ``--trace`` value."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        name = workload["name"]
        known = name in workloads.WORKLOADS and not name.startswith("tiny_")
        check(known, f"BENCHMARK.json workload {name!r} unknown")
    end_to_end, per_layer = run.declared_metrics()
    return {"0": end_to_end, "1": per_layer}


def check_runs(units: dict) -> None:
    for name in TINY:
        for traced, expected in units.items():
            proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", traced)
            label = f"{name} --trace {traced}"
            check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            keys = {"correct", "attempted", "failed", "metrics"}
            check(set(result) == keys, f"{label}: result keys {sorted(result)}")
            check(result["correct"] and not result["failed"], f"{label}: not correct: {proc.stderr[-500:]}")
            check(set(result["metrics"]) == set(expected), f"{label}: metric names differ from BENCHMARK.json")
            for metric, unit in expected.items():
                got = result["metrics"].get(metric, {})
                check(isinstance(got.get("value"), (int, float)), f"{label}: {metric} has no numeric value")
                check(got.get("unit") == unit, f"{label}: {metric} unit {got.get('unit')!r} != {unit!r}")


def snapshot() -> dict:
    return {(owner.__name__, key): value for owner in PATCHED for key, value in vars(owner).items()}


def check_traced_in_process(per_layer: dict) -> None:
    before = snapshot()
    reached: set[str] = set()
    out_root = ROOT / ".bench_run" / "selftest"
    for name in TINY:
        hashes = {}
        for traced in (False, True):
            out = out_root / f"{name}-{int(traced)}"
            shutil.rmtree(out, ignore_errors=True)
            prep = workloads.prepare(name, 11, out)
            tracer = tracing.Tracer() if traced else None
            if tracer is not None:
                tracer.install()
                if prep.backend is not None:
                    prep.backend = tracing.BackendProxy(prep.backend, tracer)
            try:
                stage_run = workloads.run_stages(prep, make_timer(tracer))
            finally:
                left = tracer.restore() if tracer is not None else []
            check(stage_run.error is None, f"{name}: stage failed: {stage_run.error}")
            check(not left, f"{name}: wrappers left in place: {left}")
            if tracer is not None:
                reached |= {span for span, row in tracer.span_table().items() if row["calls"]}
            hashes[traced] = workloads.output_hashes(out)
            shutil.rmtree(out, ignore_errors=True)
        same = bool(hashes[False]) and hashes[False] == hashes[True]
        check(same, f"{name}: traced outputs differ from untraced")
    after = snapshot()
    changed = [key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)]
    check(not changed, f"attributes changed by tracing: {sorted(changed)}")
    layers = {
        metric.rpartition(".")[0]
        for metric in per_layer
        if metric.rpartition(".")[2] in tracing.SPAN_SUFFIXES
    }
    check(layers <= reached, f"layers never reached by the tiny workloads: {sorted(layers - reached)}")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tiny_pipeline", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory: benchmark exited 0")
    check('"correct"' not in proc.stdout, "bare directory: benchmark printed a result")


def main() -> int:
    units = declared_metrics()
    check_runs(units)
    check_traced_in_process(units["1"])
    check_bare_directory()
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
