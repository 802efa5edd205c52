"""End-to-end experiment orchestration: preparation, method runs, artifact
layout, determinism, worker parity, and multi-round serving."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from longtailrec import harness
from longtailrec.cf import ColdUserError
from longtailrec.harness import (
    METHODS,
    ExperimentConfig,
    _rank_candidates,
    _recommend_all,
    config_to_dict,
    emit_figure_data,
    engine_version,
    multi_round_serve,
    prepare_experiment,
    run_experiment,
)
from longtailrec.dataset import Rating, Ratings, popularity_partition, warm_user_ids
from longtailrec.memetic import InjectionParams, MemeticConfig, ServingHistory
from longtailrec.objectives import ObjectiveWeights
from longtailrec.synth import SynthConfig

TOY_SYNTH = SynthConfig(
    n_users=60,
    n_items=120,
    seed=11,
    min_ratings_per_user=20,
    max_ratings_per_user=80,
    median_ratings_per_user=35.0,
)

TOY_MEMETIC = MemeticConfig(population_size=20, generations=6, rng_seed=11)


def toy_config(**overrides) -> ExperimentConfig:
    base = dict(
        synth=TOY_SYNTH,
        k=5,
        seed=11,
        memetic=TOY_MEMETIC,
        candidate_universe="test",
        methods=METHODS,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def toy_prepared():
    return prepare_experiment(toy_config())


class TestConfigValidation:
    def test_partial_dataset_paths_rejected(self):
        with pytest.raises(ValueError, match="all three"):
            ExperimentConfig(ratings_path="r.dat")

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="k must"):
            toy_config(k=0)
        with pytest.raises(ValueError, match="rounds"):
            toy_config(rounds=0)
        with pytest.raises(ValueError, match="unknown methods"):
            toy_config(methods=("proposed", "svd"))
        with pytest.raises(ValueError, match="at least one method"):
            toy_config(methods=())
        with pytest.raises(ValueError, match="candidate_universe"):
            toy_config(candidate_universe="full")
        with pytest.raises(ValueError, match="injection_scope"):
            toy_config(injection_scope="everything")
        with pytest.raises(ValueError, match="age_source"):
            toy_config(age_source="oracle")
        with pytest.raises(ValueError, match="n_workers"):
            toy_config(n_workers=0)
        with pytest.raises(ValueError, match="subsample_users"):
            toy_config(subsample_users=0)

    def test_config_echo_contents(self, toy_prepared):
        echo = config_to_dict(toy_config())
        assert echo["k"] == 5
        assert echo["version"].startswith("longtailrec")
        assert "eligibility" in echo
        assert echo["weights"] == {"w1": 0.25, "w2": 0.25, "w3": 0.25, "w4": 0.25}
        assert echo["memetic"]["generations"] == 6
        assert echo["synth"]["n_users"] == 60

    def test_engine_version_format(self):
        assert engine_version().startswith("longtailrec ")


class TestPreparation:
    def test_eligibility_invariants(self, toy_prepared):
        prepared = toy_prepared
        assert prepared.eligible_users
        for u in prepared.eligible_users:
            row = prepared.train_matrix.user_index[u]
            assert prepared.train_matrix.user_rating_counts[row] >= 5
            assert prepared.test_by_user.get(u)
            universe = prepared.universes[u]
            assert len(universe) >= 5
            assert set(universe) == set(prepared.test_by_user[u])

    def test_catalog_universe_excludes_rated(self):
        prepared = prepare_experiment(toy_config(candidate_universe="catalog"))
        for u in prepared.eligible_users[:10]:
            rated = {
                int(i)
                for i in prepared.train_matrix.item_ids[
                    prepared.train_matrix.rated_item_indices(u)
                ]
            }
            assert not set(prepared.universes[u]) & rated

    def test_catalog_eligibility_matches_brute_force_recount(self):
        base = prepare_experiment(toy_config(candidate_universe="catalog"))
        catalog = sorted(base.dataset.items)
        unrated = {}
        for u in warm_user_ids(base.split.train, 5):
            if base.test_by_user.get(u):
                rated = {r.item_id for r in base.split.train if r.user_id == u}
                unrated[u] = tuple(i for i in catalog if i not in rated)
        # a list length between the smallest and largest universe excludes someone
        k = int(np.median([len(v) for v in unrated.values()]))
        expected = [u for u in sorted(unrated) if len(unrated[u]) >= k]
        assert 0 < len(expected) < len(unrated)

        prepared = prepare_experiment(toy_config(candidate_universe="catalog", k=k))
        assert list(prepared.eligible_users) == expected
        assert prepared.universes == {u: unrated[u] for u in expected}

        sub = prepare_experiment(toy_config(candidate_universe="catalog", k=k, subsample_users=5))
        assert set(sub.eligible_users) <= set(expected)
        assert sub.universes == {u: unrated[u] for u in sub.eligible_users}

    def test_subsample_is_seeded_and_stable(self):
        a = prepare_experiment(toy_config(subsample_users=10))
        b = prepare_experiment(toy_config(subsample_users=10))
        assert a.eligible_users == b.eligible_users
        assert len(a.eligible_users) == 10

    def test_rank_candidates_orders_by_pred_then_popularity_then_id(self):
        ratings = [
            Rating(user_id=1, item_id=1, value=5, timestamp=0),
            Rating(user_id=1, item_id=2, value=5, timestamp=1),
            Rating(user_id=2, item_id=2, value=4, timestamp=2),
            Rating(user_id=2, item_id=3, value=4, timestamp=3),
        ]
        partition = popularity_partition(Ratings.from_rows(ratings), [1, 2, 3, 4])

        class Stub:
            def predict_many(self, user_id, cand):
                lookup = {1: 4.0, 2: 5.0, 3: 4.0, 4: 4.0}
                return np.array([lookup[int(i)] for i in cand])

        # item 2 wins on prediction; 1 and 3 tie on prediction (pops 2 vs 1);
        # 3 and 4 tie on prediction and popularity -> smaller id first
        got = _rank_candidates(Stub(), partition, 1, [4, 3, 2, 1], 4)
        assert got == (2, 1, 3, 4)


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    return run_experiment(toy_config(out_dir=str(out))), out


class TestRunExperiment:
    def test_reports_for_every_method(self, outcome):
        result, _ = outcome
        assert set(result.reports) == set(METHODS)
        for method, report in result.reports.items():
            assert report.method == method
            assert report.n_users == result.n_eligible
            assert 0.0 <= report.precision <= 1.0
            assert report.aggregate_diversity >= 1

    def test_recommendation_lists_valid(self, outcome):
        result, _ = outcome
        prepared = prepare_experiment(toy_config())
        for method, recs in result.recommendations.items():
            for u, items in recs.items():
                assert len(items) == 5
                assert len(set(items)) == 5
                assert set(items) <= set(prepared.universes[u])

    def test_artifacts_written(self, outcome):
        result, out = outcome
        names = {p.name for p in out.iterdir()}
        for method in METHODS:
            assert f"recommendations_{method}.csv" in names
            assert f"report_{method}.json" in names
        assert {"summary.csv", "config.json"} <= names
        assert {"traces_proposed.csv", "traces_plain-genetic.csv"} <= names
        assert "traces_user-cf.csv" not in names
        config_echo = json.loads((out / "config.json").read_text())
        assert config_echo["version"].startswith("longtailrec")
        assert config_echo["n_eligible_users"] == result.n_eligible

    def test_recommendations_csv_round_trip(self, outcome):
        result, out = outcome
        with open(out / "recommendations_proposed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ids: dict[int, list[int]] = {}
        for row in rows:
            ids.setdefault(int(row["user_id"]), []).append(int(row["item_id"]))
        assert ids == {u: list(v) for u, v in result.recommendations["proposed"].items()}

    def test_traces_non_increasing(self, outcome):
        _, out = outcome
        best: dict[int, list[float]] = {}
        with open(out / "traces_proposed.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                best.setdefault(int(row["user_id"]), []).append(float(row["best_fitness"]))
        assert best
        for values in best.values():
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_single_method_run(self):
        result = run_experiment(toy_config(methods=("user-cf",)))
        assert list(result.reports) == ["user-cf"]

    def test_no_eligible_users_raises(self):
        with pytest.raises(ValueError, match="no eligible users"):
            run_experiment(toy_config(k=200, candidate_universe="catalog"))


class TestDeterminismAndWorkers:
    def test_summary_is_byte_identical_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = toy_config(methods=("proposed", "user-cf"))
        run_experiment(
            ExperimentConfig(**{**config.__dict__, "out_dir": str(out_a)})
        )
        run_experiment(
            ExperimentConfig(**{**config.__dict__, "out_dir": str(out_b)})
        )
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        assert (
            (out_a / "recommendations_proposed.csv").read_bytes()
            == (out_b / "recommendations_proposed.csv").read_bytes()
        )

    def test_worker_count_does_not_change_results(self):
        base = toy_config(methods=("proposed",), subsample_users=8)
        seq = run_experiment(base)
        par = run_experiment(ExperimentConfig(**{**base.__dict__, "n_workers": 2}))
        assert seq.recommendations == par.recommendations
        assert seq.reports["proposed"].precision == par.reports["proposed"].precision

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("error", [RuntimeError, ColdUserError])
    def test_user_failure_names_user_seed_and_round(self, monkeypatch, n_workers, error):
        config = toy_config(methods=("proposed",), subsample_users=6, n_workers=n_workers)
        prepared = prepare_experiment(config)
        failing = prepared.eligible_users[3]
        real = harness.optimize_user

        def fail_for_one_user(user_id, **kwargs):
            if user_id == failing:
                raise error(user_id)
            return real(user_id, **kwargs)

        # Worker processes are forked, so they see the patched name too.
        monkeypatch.setattr(harness, "optimize_user", fail_for_one_user)
        with pytest.raises(error) as info:
            _recommend_all(prepared, config, "proposed", ServingHistory(), round_index=3)
        assert str(info.value).startswith(f"user {failing} (seed 11, round 3): ")
        assert str(failing) in str(info.value).split(": ", 1)[1]
        if error is ColdUserError:
            assert info.value.user_id == failing

    def test_failure_removes_partial_outputs(self, tmp_path):
        out = tmp_path / "partial"
        config = toy_config(
            out_dir=str(out),
            methods=("user-cf", "proposed"),
            injection=InjectionParams(pool_size=2),  # < k: proposed must fail
        )
        with pytest.raises(ValueError, match="pool_size"):
            run_experiment(config)
        assert not out.exists() or not list(out.iterdir())


class TestFigureData:
    def test_emitted_csvs_are_consistent(self, toy_prepared, tmp_path):
        paths = emit_figure_data(toy_prepared, tmp_path, n_bins=4)
        with open(paths["age_genre_profile"], newline="") as fh:
            pgu_by_age: dict[int, float] = {}
            for row in csv.DictReader(fh):
                age = int(row["age_group"])
                pgu_by_age[age] = pgu_by_age.get(age, 0.0) + float(row["pgu"])
        for age, total in pgu_by_age.items():
            assert total == pytest.approx(1.0, abs=1e-9)
        with open(paths["lt_sh_over_time"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            lt, sh = float(row["long_tail_share"]), float(row["short_head_share"])
            assert lt + sh == pytest.approx(1.0, abs=1e-9)
        with open(paths["dynamics_by_age"], newline="") as fh:
            ages = {int(r["age_group"]) for r in csv.DictReader(fh)}
        assert ages == set(toy_prepared.profiles)


@pytest.fixture(scope="module")
def rounds_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("rounds")
    config = toy_config(
        methods=("proposed",),
        candidate_universe="catalog",
        subsample_users=10,
        out_dir=str(out),
        rounds=3,
    )
    outcomes, history = multi_round_serve(config)
    return config, outcomes, history, out


class TestMultiRoundServe:
    def test_round_indices_and_reports(self, rounds_run):
        _, outcomes, _, _ = rounds_run
        assert [oc.round_index for oc in outcomes] == [1, 2, 3]
        for oc in outcomes:
            assert oc.report.method == f"proposed-round-{oc.round_index}"
            assert oc.report.config["round"] == oc.round_index

    def test_history_counts_every_serving(self, rounds_run):
        config, outcomes, history, _ = rounds_run
        n_lists = sum(len(oc.recommendations) for oc in outcomes)
        assert sum(history.as_dict().values()) == n_lists * config.k

    def test_rounds_produce_differing_lists(self, rounds_run):
        _, outcomes, _, _ = rounds_run
        first, second = outcomes[0].recommendations, outcomes[1].recommendations
        assert any(first[u] != second[u] for u in first)

    def test_round_one_matches_single_run(self):
        config = toy_config(methods=("proposed",), subsample_users=10)
        single = run_experiment(config)
        outcomes, _ = multi_round_serve(config, rounds=1)
        assert outcomes[0].recommendations == single.recommendations["proposed"]

    def test_rounds_csv_written(self, rounds_run):
        _, outcomes, _, out = rounds_run
        with open(out / "rounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["round"]) for r in rows] == [1, 2, 3]
        for row, oc in zip(rows, outcomes):
            assert float(row["precision"]) == pytest.approx(oc.report.precision, abs=1e-6)
        assert (out / "serving_history.csv").exists()

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            multi_round_serve(toy_config(methods=("proposed",)), rounds=0)
