"""The measured process: runs one workload through longtailrec's public API
and writes its lists, reports and timings to a JSON file for run.py to check.

Started by run.py with ``--t0`` set to the moment before it spawned this
process, so that ``setup_s`` counts interpreter start, imports and
``prepare_experiment`` from the files. Each repetition then runs the
workload's operations on fresh CF predictors, so every repetition does the
same work from cold similarity caches.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from statistics import median

import numpy as np
import scipy

from longtailrec import harness
from longtailrec.cf import ItemBasedCF, UserBasedCF
from longtailrec.memetic import MemeticConfig
from longtailrec.objectives import ObjectiveWeights

from workloads import K, WORKLOADS, Workload


def config_for(workload: Workload, inputs: Path, seed: int, n_workers: int = 1) -> harness.ExperimentConfig:
    memetic = MemeticConfig(rng_seed=seed)
    if workload.generations is not None:
        memetic = replace(memetic, generations=workload.generations)
    if workload.top_pool is not None:
        memetic = replace(memetic, top_pool_size=workload.top_pool)
    extra = {}
    if workload.weights is not None:
        extra["weights"] = ObjectiveWeights.normalized(list(workload.weights))
    return harness.ExperimentConfig(
        ratings_path=str(inputs / "ratings.dat"),
        users_path=str(inputs / "users.dat"),
        movies_path=str(inputs / "movies.dat"),
        k=K,
        memetic=memetic,
        methods=workload.methods,
        candidate_universe=workload.universe,
        injection_scope=workload.injection_scope,
        subsample_users=workload.users,
        rounds=max(1, workload.serve_rounds),
        seed=seed,
        n_workers=n_workers,
        **extra,
    )


@contextmanager
def reusing(prepared: harness.PreparedExperiment):
    """run_experiment prepares its inputs itself and takes no prepared
    experiment; bind its lookup to the set-up already made and timed."""
    original = harness.prepare_experiment
    harness.prepare_experiment = lambda config: prepared
    try:
        yield
    finally:
        harness.prepare_experiment = original


def _report(report) -> dict:
    return {
        "precision": report.precision,
        "novelty": report.novelty,
        "aggregate_diversity": report.aggregate_diversity,
        "long_tail_items": sum(b.n_long_tail for b in report.per_user),
    }


def _lists(recommended) -> dict:
    return {str(u): list(items) for u, items in recommended.items()}


def run_repetition(workload: Workload, config, prepared) -> dict:
    """One pass over the workload's operations; an operation that raises is
    recorded as failed and the others still run."""
    fresh = replace(
        prepared,
        user_cf=UserBasedCF(prepared.train_matrix),
        item_cf=ItemBasedCF(prepared.train_matrix),
    )
    ops, seconds = [], {}
    start = time.perf_counter()
    with reusing(fresh):
        for method in workload.methods:
            t = time.perf_counter()
            try:
                outcome = harness.run_experiment(replace(config, methods=(method,)))
            except Exception:
                traceback.print_exc()
                ops.append({"name": method, "error": traceback.format_exc(limit=1)})
                continue
            seconds[method] = time.perf_counter() - t
            ops.append({
                "name": method,
                "rounds": [{"lists": _lists(outcome.recommendations[method]),
                            "report": _report(outcome.reports[method])}],
            })
    if workload.serve_rounds:
        t = time.perf_counter()
        try:
            outcomes, history = harness.multi_round_serve(
                config, rounds=workload.serve_rounds, prepared=fresh
            )
        except Exception:
            traceback.print_exc()
            ops.append({"name": "proposed", "error": traceback.format_exc(limit=1)})
        else:
            seconds["proposed"] = time.perf_counter() - t
            ops.append({
                "name": "proposed",
                "rounds": [{"lists": _lists(oc.recommendations), "report": _report(oc.report)}
                           for oc in outcomes],
                "history": {str(i): c for i, c in history.as_dict().items()},
            })
    return {"wall": time.perf_counter() - start, "seconds": seconds, "ops": ops}


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM, which exec resets)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, inputs: Path, seed: int, seconds: float, t0: float,
            tracer=None) -> dict:
    """Set up once, then repeat the operations while another repetition of
    the typical length still fits in `seconds` (at least one)."""
    config = config_for(workload, inputs, seed)
    prepared = harness.prepare_experiment(config)
    setup_s = time.time() - t0
    if tracer is not None:
        tracer.phase = "reps"
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_repetition(workload, config, prepared))
        elapsed = time.perf_counter() - start
        if elapsed + median(r["wall"] for r in reps) > seconds:
            break
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "eligible": list(prepared.eligible_users),
        "reps": reps,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import INFO_ONLY, Tracer

        tracer = Tracer()
        tracer.install()
    result = measure(WORKLOADS[args.workload], args.inputs, args.seed, args.seconds,
                     args.t0, tracer)
    if tracer is not None:
        result["layers"] = tracer.metrics(len(result["reps"]))
        result["layers_info"] = tracer.metrics(len(result["reps"]), INFO_ONLY)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
