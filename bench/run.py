"""Pipeline benchmark for intentsim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``default_pipeline``, ``involution_pipeline``, ``external_ingest``
or ``all``. Iterations of the workload run one at a time, each in a fresh
interpreter (``bench/worker.py``), for as long as another iteration is
likely to end within ``--seconds`` (at least one runs); five more
interpreters only set up, so that ``setup_s`` is a median too. BLAS runs on
one thread (a cap below the number of usable CPUs).

The ``*_kref`` figures are times in units of the worker's reference loop,
timed on the same thread throughout the iteration (``worker.ReferenceClock``):
1 kref is the time of 1,000 reference passes at the speed the iteration got.
A change in the host's speed moves the reference loop too, so they vary
less from run to run than the seconds do.

With ``--trace 0`` the result holds the end-to-end metrics BENCHMARK.json
names, medians over the iterations. With
``--trace 1`` every iteration is an untraced and a traced run of the same
inputs; the result holds the per-layer metrics BENCHMARK.json names,
medians over the traced runs, and ``trace.overhead_s``, their wall time
minus the untraced one, and the two runs' output files must be
byte-identical.

Every output file's sha256 must match the first iteration's and, for the
seeds it holds, the stored reference (``bench/reference.json``).
Each stage call that raises, fails the audit or a count check, or writes a
differing file counts as failed. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_run"

if not (SRC / "intentsim" / "__init__.py").is_file():
    raise SystemExit(f"no intentsim sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
import workloads  # noqa: E402

# The unit of every end-to-end figure a run prints; BENCHMARK.json gates
# those that every workload reports (a stage figure only where it runs).
UNITS = {
    "wall_s": "s",
    "simulate_s": "s",
    "load_s": "s",
    "audit_s": "s",
    "analyze_s": "s",
    "metrics_s": "s",
    "rider_ticks_per_s": "1/s",
    "thoughts_per_s": "1/s",
    "wall_kref": "kref",
    "analyze_kref": "kref",
    "thoughts_per_kref": "1/kref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "failed_ops_ratio": "ratio",
}
SETUP_SAMPLES = 5
# Two BLAS threads spin on the second CPU and finish no sooner than one.
BLAS_THREADS = 1
LOOP_BUDGET_S = 120.0
WORKER_TIMEOUT_S = 170.0


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """The end-to-end and per-layer metrics BENCHMARK.json names, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in end_to_end.items():
        if UNITS.get(name) != unit:
            raise SystemExit(f"BENCHMARK.json: end-to-end metric {name} [{unit}] is not computed here")
    return end_to_end, {m["name"]: m["unit"] for m in spec["per_layer"]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(name: str, seed: int, tag: str, *flags: str) -> dict:
    """Run one worker and return its JSON result, or ``{"crash": why}``."""
    out = RUNS / f"{name}-seed{seed}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed)]
    cmd += ["--out", str(out), *flags, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=worker_env(), timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def failed_stages(
    it: dict, stages: tuple[str, ...], expected: dict | None, first: dict | None
) -> tuple[set[str], list[str]]:
    """The stages of one iteration that failed, and why."""
    if "crash" in it:
        return set(stages), [it["crash"]]
    bad: set[str] = set()
    why: list[str] = []
    if it["error"]:
        stage, message = it["error"]
        bad |= set(stages[stages.index(stage):])
        why.append(f"{stage}: {message}")
    for stage, message in it["problems"]:
        bad.add(stage)
        why.append(f"{stage}: {message}")
    if it.get("wrappers_left"):
        bad |= set(stages)
        why.append(f"wrappers left in place: {it['wrappers_left']}")
    for label, ref in (("reference", expected), ("first iteration", first)):
        if not ref:
            continue
        for path, digest in ref["hashes"].items():
            if it["hashes"].get(path) != digest:
                bad.add(workloads.FILE_STAGE[path.split("/")[0]])
                why.append(f"{path} differs from the {label}")
        for key, value in ref["counts"].items():
            if it["counts"].get(key) != value:
                bad.add(workloads.COUNT_STAGE[key])
                why.append(f"{key} {it['counts'].get(key)} != {label} {value}")
    return bad, why


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def bench_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    end_to_end, per_layer = declared_metrics()
    stages = workloads.WORKLOADS[name].stages
    setups = [spawn(name, seed, f"setup{i}", "--setup-only") for i in range(SETUP_SAMPLES)]
    plain: list[dict] = []
    traced_runs: list[dict] = []
    started = time.monotonic()
    while True:
        plain.append(spawn(name, seed, "plain"))
        if traced:
            traced_runs.append(spawn(name, seed, "traced", "--traced"))
        elapsed = time.monotonic() - started
        # Stop before an iteration that would likely end after the limit.
        if elapsed + elapsed / len(plain) > min(seconds, LOOP_BUDGET_S):
            break

    reference = json.loads((BENCH / "reference.json").read_text()).get(name, {}).get(str(seed))
    first = next((it for it in plain if "crash" not in it), None)
    attempted = failed = 0
    for it in plain + traced_runs:
        bad, why = failed_stages(it, stages, reference, first)
        attempted += len(stages)
        failed += len(bad)
        for line in why:
            print(f"FAILED {name} seed {seed}: {line}", file=sys.stderr)

    ok = [it for it in plain if "crash" not in it and not it["error"]]
    per_it = {
        "wall_s": [it["wall_s"] for it in ok],
        "peak_rss_mb": [it["peak_rss_mb"] for it in ok],
        "thoughts_per_s": [it["counts"]["thoughts"] / it["stages"]["analyze"] for it in ok],
        "wall_kref": [it["wall_s"] / (1000 * it["ref_s"]) for it in ok],
        "analyze_kref": [
            it["stages"]["analyze"] / (1000 * it["stage_ref_s"]["analyze"]) for it in ok
        ],
        "thoughts_per_kref": [
            it["counts"]["thoughts"] * 1000 * it["stage_ref_s"]["analyze"] / it["stages"]["analyze"]
            for it in ok
        ],
        "setup_s": [it["setup_s"] for it in setups + plain if "setup_s" in it],
        "failed_ops_ratio": [failed / attempted],
    }
    for stage in stages:
        per_it[f"{stage}_s"] = [it["stages"][stage] for it in ok]
    if "simulate" in stages:
        per_it["rider_ticks_per_s"] = [
            it["counts"]["rider_ticks"] / it["stages"]["simulate"] for it in ok
        ]
    values = {key: median(vals) for key, vals in per_it.items()}

    meta = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "iterations": len(plain),
        "setup_samples": len(per_it["setup_s"]),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": first["numpy"] if first else "unknown",
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "reference": "stored" if reference else "none for this seed; checked determinism only",
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for key, unit in UNITS.items():
        if values.get(key) is not None:
            print(f"metric {name} {key} {values[key]!r} {unit}")
    for key in ("wall_s", "wall_kref", "analyze_s", "setup_s"):
        print(f"samples {name} {key} {json.dumps(per_it[key])}")
    if first:
        print("outputs " + json.dumps({"counts": first["counts"], "hashes": first["hashes"]}, sort_keys=True))

    if traced:
        layer_runs = [it for it in traced_runs if "layers" in it]
        unknown = sorted(set(per_layer) - {"trace.overhead_s"} - set(layer_runs[0]["layers"])) if layer_runs else []
        if unknown:
            raise SystemExit(f"BENCHMARK.json: per-layer metrics the tracer does not take: {unknown}")
        layers = {
            key: median([it["layers"][key] for it in layer_runs])
            for key in per_layer
            if key != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = median(
            [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced_runs) if "layers" in t and "wall_s" in p]
        )
        for key, unit in per_layer.items():
            print(f"layer {name} {key} {layers[key]!r} {unit}")
        if layer_runs:
            for span, row in sorted(layer_runs[0]["spans"].items()):
                print(f"span {name} {span} calls={row['calls']} s={row['s']:.6f} self_s={row['self_s']:.6f}")
        result_metrics = {key: {"value": layers[key], "unit": unit} for key, unit in per_layer.items()}
    else:
        result_metrics = {key: {"value": values[key], "unit": unit} for key, unit in end_to_end.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        names = tuple(n for n in workloads.WORKLOADS if not n.startswith("tiny_"))
    else:
        names = (args.workload,)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        choices = ", ".join(sorted(workloads.WORKLOADS))
        print(f"unknown workload {unknown[0]!r}; choose from {choices} or all", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    results = {n: bench_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{key}": value for n, r in results.items() for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
