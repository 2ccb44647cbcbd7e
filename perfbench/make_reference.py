"""Regenerate ``reference.json``: the digests each workload's outputs
must match, and the deterministic counters of its traced run.

    python3 perfbench/make_reference.py

The digests come from the in-memory pipeline -- every run simulated
with its trace kept in memory, merged, then ``synthesize_from_trace``
and the in-memory latency index -- so the store, the columnar walk and
the service are all checked against a path that uses none of them.
The counters come from a short traced run, which also checks the
stored path against the just-written digests.  Seed 1 is the one the
benchmark was written against; seed 2 is held out for re-checking a
later claim.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED_SEEDS = (1, 2)


def simulate(corpus, seed):
    from repro.experiments.runner import run_once
    from repro.scenarios.registry import build_scenario_spec

    config = corpus.config(seed)
    traces = []
    for run_index in range(corpus.runs):
        spec = build_scenario_spec(
            corpus.scenario, run_index=run_index, runs=corpus.runs,
            duration_ns=config.duration_ns, **config.scenario_params,
        )
        run_config = config.run_config(config.duration_ns, spec.num_cpus)
        traces.append(
            run_once(
                lambda world, _index, spec=spec: spec.build(world),
                run_config, run_index=run_index,
            ).trace
        )
    return traces


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import traced, workloads

    # New references accept new outputs, so counters kept from earlier
    # runs no longer apply.
    shutil.rmtree(traced.COUNTERS_DIR, ignore_errors=True)
    with open(workloads.REFERENCE_PATH) as handle:
        reference = json.load(handle)
    for name, corpus in workloads.CORPORA.items():
        if reference.get(name, {}).get("corpus") != repr(corpus):
            reference[name] = {"corpus": repr(corpus), "seeds": {}}
        for seed in COMMITTED_SEEDS:
            entry = workloads.reference_of_traces(corpus, simulate(corpus, seed))
            reference[name]["seeds"][str(seed)] = entry
            with open(workloads.REFERENCE_PATH, "w") as handle:
                json.dump(reference, handle, indent=2, sort_keys=True)
                handle.write("\n")
            work = workloads.fresh_dir(os.path.join(".perfbench_work", "reference"))
            try:
                result = getattr(traced, f"trace_{name}")(seed, 0.001, work, corpus)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result.ops.failed:
                print(f"{name} seed {seed}: {result.ops.errors}", file=sys.stderr)
                return 1
            entry["counters"] = result.counters
            print(f"{name} seed {seed}: {entry}")
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
