"""Golden behaviour snapshot: a fixed seeded run whose lists and metrics must
not move unless a change says so and re-baselines the constants below.

The run covers all four methods on the `test` universe of 400 x 500
synthetic data (about 60 subsampled users, 10 generations) plus two serving
rounds of the proposed method on the `catalog` universe with `catalog`
injection scope. The snapshot is a SHA-256 over every sorted list, and the
precision, novelty and aggregate diversity of each method and round.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from longtailrec.harness import METHODS, ExperimentConfig, multi_round_serve, run_experiment
from longtailrec.memetic import MemeticConfig
from longtailrec.synth import SynthConfig

GOLDEN_CONFIG = ExperimentConfig(
    synth=SynthConfig(n_users=400, n_items=500, seed=7),
    k=10,
    seed=7,
    memetic=MemeticConfig(population_size=50, generations=10, rng_seed=7, top_pool_size=15),
    methods=METHODS,
    candidate_universe="test",
    subsample_users=60,
)

GOLDEN_LISTS_SHA256 = "c2f1c457f20e6780a3de82e3a1a2f57b6c9fc2d8973482ce5ec55cec56b853cc"

GOLDEN_METRICS = {
    "proposed": (0.871666666667, 1.9042903662e-05, 267),
    "user-cf": (0.935, 1.44740841523e-05, 222),
    "item-cf": (0.923333333333, 1.39832760019e-05, 217),
    "plain-genetic": (0.908333333333, 1.73834440079e-05, 243),
    "serve-round-1": (0.146666666667, 2.01255836419e-05, 146),
    "serve-round-2": (0.136666666667, 2.13397067924e-05, 171),
}


def _lists_digest(named_lists) -> str:
    h = hashlib.sha256()
    for name, recommended in named_lists:
        for user_id in sorted(recommended):
            items = ",".join(str(i) for i in sorted(recommended[user_id]))
            h.update(f"{name}|{user_id}|{items}\n".encode())
    return h.hexdigest()


def _metrics(report) -> tuple[float, float, int]:
    return (round(report.precision, 12), float(f"{report.novelty:.12g}"), report.aggregate_diversity)


def test_golden_snapshot_is_unchanged():
    outcome = run_experiment(GOLDEN_CONFIG)
    serve_config = replace(
        GOLDEN_CONFIG,
        methods=("proposed",),
        candidate_universe="catalog",
        injection_scope="catalog",
        rounds=2,
    )
    rounds, _history = multi_round_serve(serve_config)

    named = [(m, outcome.recommendations[m]) for m in METHODS]
    named += [(f"serve-round-{oc.round_index}", oc.recommendations) for oc in rounds]
    metrics = {m: _metrics(outcome.reports[m]) for m in METHODS}
    metrics.update({f"serve-round-{oc.round_index}": _metrics(oc.report) for oc in rounds})

    assert len(outcome.recommendations["proposed"]) == 60
    assert metrics == GOLDEN_METRICS
    assert _lists_digest(named) == GOLDEN_LISTS_SHA256
