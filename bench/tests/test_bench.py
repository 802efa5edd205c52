"""Tests of the benchmark itself: each output check flags a corrupted input,
tracing does not change the lists, and neither does the worker count.

    python3 -m pytest -q bench/tests
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

import gen_inputs
import measure
import reference
import run
import tracing
from longtailrec import harness
from workloads import DESK_WEIGHTS, K, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent.parent

TINY = Workload(
    name="tiny-compare", why="tests", shape="tiny", universe="test", users=6,
    methods=("user-cf", "proposed"), weights=DESK_WEIGHTS, generations=3, top_pool=15,
)
TINY_SERVE = Workload(
    name="tiny-serve", why="tests", shape="tiny", universe="catalog", users=4,
    methods=("user-cf",), serve_rounds=2, injection_scope="catalog",
    weights=DESK_WEIGHTS, generations=3, top_pool=1,
)
SEED = 3


@pytest.fixture(scope="session")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs") / "tiny"
    gen_inputs.write(gen_inputs.SHAPES["tiny"], SEED, out)
    return out


def _measure(workload, inputs, tracer=None):
    # seconds=0: exactly one repetition.
    return measure.measure(workload, inputs, SEED, 0, time.time(), tracer)


def _rounds(result, name):
    (op,) = [op for op in result["reps"][0]["ops"] if op["name"] == name]
    return op


@pytest.fixture(scope="session")
def compare_run(inputs):
    return _measure(TINY, inputs)


@pytest.fixture(scope="session")
def serve_run(inputs):
    return _measure(TINY_SERVE, inputs)


def _lists(rnd):
    return {int(u): list(items) for u, items in rnd["lists"].items()}


def test_generator_is_seeded(tmp_path, inputs):
    gen_inputs.write(gen_inputs.SHAPES["tiny"], SEED, tmp_path / "again")
    for name in ("ratings.dat", "users.dat", "movies.dat"):
        assert (tmp_path / "again" / name).read_bytes() == (inputs / name).read_bytes()
    gen_inputs.write(gen_inputs.SHAPES["tiny"], SEED + 1, tmp_path / "other")
    assert (tmp_path / "other" / "ratings.dat").read_bytes() != (inputs / "ratings.dat").read_bytes()


def test_program_output_passes_every_check(inputs, compare_run):
    ref = reference.load(inputs, TINY.universe, K)
    for name in TINY.methods:
        rnd = _rounds(compare_run, name)["rounds"][0]
        lists = _lists(rnd)
        assert lists and set(lists) <= ref.eligible()
        assert all(reference.list_fault(ref, u, items) is None for u, items in lists.items())
        assert reference.quality_fault(ref, lists, rnd["report"]) is None


def _first_valid(inputs, compare_run):
    ref = reference.load(inputs, TINY.universe, K)
    rnd = _rounds(compare_run, "proposed")["rounds"][0]
    user, items = next(iter(_lists(rnd).items()))
    return ref, user, items, rnd


def test_duplicate_item_is_flagged(inputs, compare_run):
    ref, user, items, _ = _first_valid(inputs, compare_run)
    assert "duplicate" in reference.list_fault(ref, user, items[:-1] + items[:1])


def test_training_item_is_flagged(inputs, compare_run):
    ref, user, items, _ = _first_valid(inputs, compare_run)
    trained = min(ref.train[user])
    assert "training item" in reference.list_fault(ref, user, items[:-1] + [trained])


def test_item_outside_universe_is_flagged(inputs, compare_run):
    ref, user, items, _ = _first_valid(inputs, compare_run)
    outside = min(ref.catalog - ref.train[user] - ref.universe_of(user))
    assert "outside" in reference.list_fault(ref, user, items[:-1] + [outside])


def test_catalog_universe_excludes_only_training_items(inputs):
    ref = reference.load(inputs, "catalog", K)
    user = min(ref.test)
    assert ref.universe_of(user) == ref.catalog - ref.train[user]
    assert set(ref.test[user]) <= ref.universe_of(user)


def test_short_list_is_flagged(inputs, compare_run):
    ref, user, items, _ = _first_valid(inputs, compare_run)
    assert "length" in reference.list_fault(ref, user, items[:-1])


def test_precision_off_by_one_relevant_item_is_flagged(inputs, compare_run):
    ref, _, _, rnd = _first_valid(inputs, compare_run)
    lists = _lists(rnd)
    n = sum(len(items) for items in lists.values())
    for delta in (1, -1):
        report = dict(rnd["report"], precision=rnd["report"]["precision"] + delta / n)
        assert "precision" in reference.quality_fault(ref, lists, report)


def test_novelty_and_diversity_mismatch_is_flagged(inputs, compare_run):
    ref, _, _, rnd = _first_valid(inputs, compare_run)
    lists = _lists(rnd)
    pop = round(1 / rnd["report"]["novelty"])
    report = dict(rnd["report"], novelty=1 / (pop + 1))
    assert "novelty" in reference.quality_fault(ref, lists, report)
    report = dict(rnd["report"], aggregate_diversity=rnd["report"]["aggregate_diversity"] - 1)
    assert "aggregate_diversity" in reference.quality_fault(ref, lists, report)


def test_history_count_off_by_one_is_flagged(serve_run):
    op = _rounds(serve_run, "proposed")
    rounds = [_lists(rnd) for rnd in op["rounds"]]
    history = {int(i): c for i, c in op["history"].items()}
    assert reference.history_fault(rounds, history, K) is None
    item = min(history)
    assert "disagrees" in reference.history_fault(rounds, {**history, item: history[item] + 1}, K)
    assert "disagrees" in reference.history_fault(rounds, {**history, item: history[item] - 1}, K)


def test_serve_lists_stay_in_the_catalog_universe(inputs, serve_run):
    ref = reference.load(inputs, TINY_SERVE.universe, K)
    for rnd in _rounds(serve_run, "proposed")["rounds"]:
        lists = _lists(rnd)
        assert all(reference.list_fault(ref, u, items) is None for u, items in lists.items())
        assert reference.quality_fault(ref, lists, rnd["report"]) is None


def test_traced_run_yields_the_same_lists(inputs, compare_run, serve_run):
    for workload, untraced in ((TINY, compare_run), (TINY_SERVE, serve_run)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _measure(workload, inputs, tracer)
        finally:
            tracer.uninstall()
        assert [op["rounds"] for op in traced["reps"][0]["ops"]] == \
            [op["rounds"] for op in untraced["reps"][0]["ops"]]
        layers = tracer.metrics(len(traced["reps"]))
        assert set(layers) == set(tracing.LAYER_METRICS)
        one_shot = workload.users if "proposed" in workload.methods else 0
        assert layers["memetic.optimize_user.calls"]["value"] == \
            workload.users * workload.serve_rounds + one_shot
        assert layers["cf.similarity_vector.calls"]["value"] == workload.users
        assert layers["dataset.parse_movielens.ratings"]["value"] > 0
    # The wrappers are gone again.
    assert harness.optimize_user.__module__ == "longtailrec.memetic"
    assert not hasattr(harness.optimize_user, "__wrapped__")


def test_lists_do_not_depend_on_worker_count(inputs):
    outcomes = []
    for n_workers in (1, 2):
        config = replace(measure.config_for(TINY, inputs, SEED, n_workers), methods=("proposed",))
        outcomes.append(harness.run_experiment(config).recommendations["proposed"])
    assert outcomes[0] == outcomes[1]


def test_run_reports_every_end_to_end_metric(inputs, compare_run):
    checked = run.evaluate(TINY, inputs, compare_run)
    assert checked["attempted"] == TINY.users * len(TINY.methods)
    assert checked["failed"] == 0
    metrics, _ = run.end_to_end(TINY, compare_run, checked)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    assert all(m["value"] > 0 for m in metrics.values())


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
