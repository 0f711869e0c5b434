"""Write ``bench/reference.json``: the expected counts and output hashes.

    python3 bench/make_reference.py [SEED ...]

Runs one untraced iteration of every benchmark workload for each seed
(default: 1-10 and 42) and stores the counts that ``run.py`` checks and the
sha256 of every output file. The seed-42 counts measured when the benchmark
was defined are checked first: the script refuses to write a reference that
disagrees with them. Only rerun it when a change to the program is meant to
change its outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEED_42 = {
    "default_pipeline": {
        "orders_created": 16602, "pending_final": 6093, "events": 179774,
        "thoughts": 13287, "intentions": 200,
    },
    "involution_pipeline": {"orders_created": 4069, "events": 96415, "thoughts": 3807, "intentions": 315},
    "external_ingest": {"rows": 10000, "intentions": 117},
}


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]] or [*range(1, 11), 42]
    run.RUNS.mkdir(exist_ok=True)
    reference: dict[str, dict] = {}
    for name, expected in SEED_42.items():
        reference[name] = {}
        for seed in seeds:
            it = run.spawn(name, seed, "reference")
            bad, why = run.failed_stages(it, workloads.WORKLOADS[name].stages, None, None)
            if bad:
                raise SystemExit(f"{name} seed {seed} failed: {why}")
            counts = {key: it["counts"][key] for key in expected}
            if seed == 42 and counts != expected:
                raise SystemExit(f"{name} seed 42 counts {counts} != {expected}")
            reference[name][str(seed)] = {"counts": counts, "hashes": it["hashes"]}
            print(f"{name} seed {seed}: {counts}", flush=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    (run.BENCH / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
