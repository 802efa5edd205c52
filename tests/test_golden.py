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

import numpy as np

from longtailrec.harness import (
    METHODS,
    ExperimentConfig,
    _recommend_all,
    multi_round_serve,
    prepare_experiment,
    run_experiment,
)
from longtailrec.memetic import MemeticConfig, ServingHistory
from longtailrec.synth import SynthConfig, generate, write_movielens

GOLDEN_CONFIG = ExperimentConfig(
    synth=SynthConfig(n_users=400, n_items=500, seed=7),
    k=10,
    seed=7,
    memetic=MemeticConfig(population_size=50, generations=10, rng_seed=7, top_pool_size=15),
    methods=METHODS,
    candidate_universe="test",
    subsample_users=60,
)

GOLDEN_LISTS_SHA256 = "e57d628bf9ecbccd17b43b60b958162f5ba74ad231295a7eed27d04c94d0fe4b"

GOLDEN_METRICS = {
    "proposed": (0.871666666667, 1.90570568281e-05, 268),
    "user-cf": (0.935, 1.44740841523e-05, 222),
    "item-cf": (0.923333333333, 1.39834715366e-05, 216),
    "plain-genetic": (0.906666666667, 1.73436470221e-05, 242),
    "serve-round-1": (0.135, 1.98117880139e-05, 156),
    "serve-round-2": (0.146666666667, 2.09876802317e-05, 172),
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


def _result_line(method: str, result) -> str:
    items = ",".join(str(i) for i in result.best.items)
    return (
        f"{method}|{result.user_id}|{result.pool_size}|{result.n_injected}|"
        f"{result.age_group}|{result.target_long_tail}|{result.fitness.hex()}|{items}\n"
    )


def optimizer_digest() -> str:
    """SHA-256 over every proposed and plain-genetic ``OptimizationResult`` of
    the golden config's users, plus two `catalog`-scope serving rounds that
    carry serving history between them.

    Pool sizes, injection counts and bit-exact fitness are hashed with the
    lists, because the GA can reach the same list from a different pool."""
    h = hashlib.sha256()
    prepared = prepare_experiment(GOLDEN_CONFIG)
    for method in ("proposed", "plain-genetic"):
        _, results = _recommend_all(prepared, GOLDEN_CONFIG, method, ServingHistory())
        for user_id in sorted(results):
            h.update(_result_line(method, results[user_id]).encode())

    serve_config = replace(GOLDEN_CONFIG, candidate_universe="catalog", injection_scope="catalog")
    prepared = prepare_experiment(serve_config)
    history = ServingHistory()
    for round_index in range(2):
        recommended, results = _recommend_all(
            prepared, serve_config, "proposed", history, round_index=round_index
        )
        for user_id in sorted(results):
            h.update(_result_line(f"serve-{round_index}", results[user_id]).encode())
        for user_id in prepared.eligible_users:
            history.record_served(recommended[user_id])
    return h.hexdigest()


OPTIMIZER_DIGEST = "bfaf3f1b691c736e9bba04ae0da185b10434ddccb06a5e05a5b3bde91e70e4bd"


def test_optimizer_digest_is_unchanged():
    assert optimizer_digest() == OPTIMIZER_DIGEST


def setup_digest(prepared) -> str:
    """SHA-256 over every output of ``prepare_experiment``: the split rows,
    the rating matrix, the partition, profiles, curves, classifier centroids,
    same-age item means, training means, eligible users, universes and the
    held-out ratings by user. Floats are hashed by their exact bits."""
    h = hashlib.sha256()

    def put(*fields) -> None:
        h.update(("|".join(str(f) for f in fields) + "\n").encode())

    def put_array(name, arr, dtype) -> None:
        put(name, np.asarray(arr).astype(dtype).tobytes().hex())

    for name, rows in (("train", prepared.split.train), ("test", prepared.split.test)):
        for r in rows:
            put(name, r.user_id, r.item_id, r.value, r.timestamp)
    m = prepared.train_matrix
    put_array("R.indptr", m.R.indptr, "<i8")
    put_array("R.indices", m.R.indices, "<i8")
    put_array("R.data", m.R.data, "<f8")
    put_array("user_ids", m.user_ids, "<i8")
    put_array("item_ids", m.item_ids, "<i8")
    p = prepared.partition
    put_array("partition.ids", p.item_ids, "<i8")
    put_array("partition.counts", p.counts, "<i8")
    put_array("partition.long_tail", p.long_tail, "?")
    for age in sorted(prepared.profiles):
        prof = prepared.profiles[age]
        put_array(f"pgu.{age}.{prof.synthesized}", prof.pgu, "<f8")
    for age in sorted(prepared.curves):
        curve = prepared.curves[age]
        for b in curve.bins:
            put("curve", age, curve.synthesized, b.lo, b.hi, b.share.hex(), b.population)
    put_array("centroids", prepared.classifier.centroids, "<f8")
    for age in sorted(prepared.age_item_means):
        put_array(f"age_means.{age}", prepared.age_item_means[age], "<f8")
    for u in sorted(prepared.train_means):
        put("train_mean", u, prepared.train_means[u].hex())
    put("eligible", *prepared.eligible_users)
    for u in sorted(prepared.universes):
        put("universe", u, *prepared.universes[u])
    for u in sorted(prepared.test_by_user):
        tests = prepared.test_by_user[u]
        put("test_by_user", u, *(f"{i}:{tests[i]}" for i in sorted(tests)))
    return h.hexdigest()


SETUP_DIGEST = "1bc2714b22afd8b9ffe95b89340dc0538f499ac0f5786232f7ff34c256912ffd"


def test_setup_digest_is_unchanged_in_synthetic_mode():
    assert setup_digest(prepare_experiment(GOLDEN_CONFIG)) == SETUP_DIGEST


def test_setup_digest_is_unchanged_after_a_file_round_trip(tmp_path):
    paths = write_movielens(generate(GOLDEN_CONFIG.synth), tmp_path)
    config = replace(
        GOLDEN_CONFIG,
        synth=None,
        ratings_path=str(paths["ratings"]),
        users_path=str(paths["users"]),
        movies_path=str(paths["movies"]),
    )
    assert setup_digest(prepare_experiment(config)) == SETUP_DIGEST
