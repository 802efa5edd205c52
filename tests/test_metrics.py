"""Evaluation metrics and the per-method report container."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from longtailrec.dataset import PopularityPartition, Rating, Ratings
from longtailrec.metrics import (
    EvalReport,
    aggregate_diversity,
    build_report,
    novelty,
    precision,
    report_to_dict,
    write_report_json,
    write_reports_csv,
)
from longtailrec.metrics import test_ratings_by_user as index_test_ratings

from conftest import make_random_instance, partition_from_counts
from oracles import oracle_aggregate_diversity, oracle_novelty, oracle_precision


def make_partition(counts: dict[int, int]) -> PopularityPartition:
    ids = sorted(counts)
    n_head = max(1, len(ids) // 5)
    by_count = sorted(ids, key=lambda i: (-counts[i], i))
    return partition_from_counts(counts, head=by_count[:n_head])


class TestTestRatingsByUser:
    def test_indexes_by_user_then_item(self):
        ratings = [
            Rating(user_id=1, item_id=5, value=4, timestamp=0),
            Rating(user_id=1, item_id=6, value=2, timestamp=1),
            Rating(user_id=2, item_id=5, value=5, timestamp=2),
        ]
        assert index_test_ratings(Ratings.from_rows(ratings)) == {1: {5: 4, 6: 2}, 2: {5: 5}}


class TestPrecision:
    def test_counts_strictly_above_train_mean(self):
        recommended = {1: [10, 11, 12, 13]}
        tests = {1: {10: 5, 11: 3, 12: 4}}  # 13 unobserved
        means = {1: 3.0}
        # relevant: 10 (5>3) and 12 (4>3); 11 ties the mean, 13 unobserved
        assert precision(recommended, tests, means) == pytest.approx(0.5)

    def test_all_relevant_and_none_relevant(self):
        tests = {1: {7: 5}, 2: {8: 1}}
        means = {1: 2.0, 2: 4.0}
        assert precision({1: [7]}, tests, means) == 1.0
        assert precision({2: [8]}, tests, means) == 0.0

    def test_empty_recommendations_rejected(self):
        with pytest.raises(ValueError, match="no recommendations"):
            precision({}, {}, {})
        with pytest.raises(ValueError, match="no recommendations"):
            precision({1: []}, {1: {2: 5}}, {1: 3.0})

    def test_pools_over_users_not_mean_of_means(self):
        # 1/10 relevant for user 1, 1/1 for user 2 -> 2/11 pooled, not 0.55
        recommended = {1: list(range(10)), 2: [50]}
        tests = {1: {0: 5}, 2: {50: 5}}
        means = {1: 3.0, 2: 3.0}
        assert precision(recommended, tests, means) == pytest.approx(2 / 11)


class TestNovelty:
    def test_reciprocal_of_summed_popularity(self):
        part = make_partition({1: 30, 2: 20, 3: 0, 4: 4})
        assert novelty({7: [1, 2]}, part) == pytest.approx(1 / 50)
        assert novelty({7: [1], 8: [2, 4]}, part) == pytest.approx(1 / 54)

    def test_all_unrated_items_give_infinity(self):
        part = make_partition({1: 0, 2: 0, 3: 0, 4: 0, 5: 0})
        assert novelty({1: [1, 2], 2: [3]}, part) == math.inf

    def test_empty_rejected(self):
        part = make_partition({1: 1, 2: 2, 3: 3, 4: 4, 5: 5})
        with pytest.raises(ValueError, match="no recommendations"):
            novelty({}, part)

    def test_swapping_in_more_popular_item_strictly_decreases(self):
        master = np.random.default_rng(30)
        n_cases = 0
        for _ in range(2000):
            n = int(master.integers(5, 15))
            counts = {i: int(master.integers(0, 40)) for i in range(1, n + 1)}
            part = make_partition(counts)
            k = int(master.integers(1, 5))
            items = [int(i) for i in master.choice(np.arange(1, n + 1), size=k, replace=False)]
            outside = [i for i in counts if i not in items]
            if not outside:
                continue
            repl = int(master.choice(outside))
            pos = int(master.integers(k))
            swapped = list(items)
            swapped[pos] = repl
            base, new = novelty({1: items}, part), novelty({1: swapped}, part)
            if counts[repl] > counts[items[pos]] and not math.isinf(base):
                assert new < base
            elif counts[repl] < counts[items[pos]] and not math.isinf(new):
                assert new > base
            n_cases += 1
        assert n_cases >= 1500


class TestAggregateDiversity:
    def test_counts_distinct_items_across_users(self):
        assert aggregate_diversity({1: [1, 2], 2: [2, 3], 3: [1]}) == 3
        assert aggregate_diversity({}) == 0

    def test_monotone_when_adding_users(self):
        master = np.random.default_rng(31)
        n_cases = 0
        for _ in range(2000):
            n_users = int(master.integers(2, 8))
            recommended = {
                u: [int(i) for i in master.choice(np.arange(1, 30), size=3, replace=False)]
                for u in range(1, n_users + 1)
            }
            values = []
            partial: dict[int, list[int]] = {}
            for u in sorted(recommended):
                partial[u] = recommended[u]
                values.append(aggregate_diversity(dict(partial)))
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[-1] == len(set().union(*recommended.values()))
            n_cases += 1
        assert n_cases == 2000

    def test_permutation_invariance_of_all_metrics(self):
        master = np.random.default_rng(32)
        for _ in range(300):
            n = int(master.integers(5, 15))
            counts = {i: int(master.integers(0, 40)) for i in range(1, n + 1)}
            part = make_partition(counts)
            users = [int(u) for u in master.choice(np.arange(1, 50), size=4, replace=False)]
            recommended = {
                u: [int(i) for i in master.choice(np.arange(1, n + 1), size=3, replace=False)]
                for u in users
            }
            tests = {
                u: {i: int(master.integers(1, 6)) for i in recommended[u][:2]} for u in users
            }
            means = {u: float(master.uniform(1, 5)) for u in users}
            shuffled_users = list(recommended)
            master.shuffle(shuffled_users)
            shuffled = {
                u: list(reversed(recommended[u])) for u in shuffled_users
            }
            assert precision(shuffled, tests, means) == pytest.approx(
                precision(recommended, tests, means)
            )
            assert novelty(shuffled, part) == pytest.approx(novelty(recommended, part))
            assert aggregate_diversity(shuffled) == aggregate_diversity(recommended)


class TestOracleParity:
    def test_metrics_match_brute_force(self):
        master = np.random.default_rng(33)
        n_cases = 0
        for seed in range(300):
            inst = make_random_instance(seed=seed, max_users=8, max_items=15)
            warm = [
                int(u)
                for u in inst.train.user_ids
                if inst.train.user_rating_counts[inst.train.user_index[int(u)]] >= 1
            ]
            if not warm:
                continue
            ids = sorted(inst.items)
            recommended = {}
            tests = {}
            means = {}
            for u in warm:
                k = int(master.integers(1, min(4, len(ids)) + 1))
                recommended[u] = [int(i) for i in master.choice(ids, size=k, replace=False)]
                tests[u] = {
                    int(i): int(master.integers(1, 6))
                    for i in master.choice(ids, size=min(3, len(ids)), replace=False)
                }
                col = inst.train.user_index[u]
                means[u] = float(inst.train.user_means[col])
            got_p = precision(recommended, tests, means)
            got_n = novelty(recommended, inst.partition)
            got_a = aggregate_diversity(recommended)
            counts = {int(i): inst.partition.popularity(int(i)) for i in ids}
            assert got_p == pytest.approx(oracle_precision(recommended, tests, means), abs=1e-12)
            expected_n = oracle_novelty(recommended, counts)
            if math.isinf(expected_n):
                assert math.isinf(got_n)
            else:
                assert got_n == pytest.approx(expected_n, abs=1e-12)
            assert got_a == oracle_aggregate_diversity(recommended)
            n_cases += 1
        assert n_cases >= 250


class TestReports:
    def _inputs(self):
        part = make_partition({1: 30, 2: 20, 3: 0, 4: 4, 5: 1})
        recommended = {1: [1, 3], 2: [2, 4]}
        tests = {1: {1: 5, 3: 1}, 2: {2: 4}}
        means = {1: 3.0, 2: 3.5}
        return part, recommended, tests, means

    def test_build_report_fields(self):
        part, recommended, tests, means = self._inputs()
        report = build_report("demo", recommended, tests, means, part, catalog_size=5)
        assert report.method == "demo"
        assert report.precision == pytest.approx(0.5)  # items 1 and 2 relevant
        assert report.novelty == pytest.approx(1 / 54)
        assert report.aggregate_diversity == 4
        assert report.n_users == 2 and report.n_recommended == 4
        by_user = {b.user_id: b for b in report.per_user}
        assert by_user[1].n_relevant == 1
        assert by_user[1].popularity_sum == 30
        assert by_user[1].n_long_tail == 1  # item 3 is long tail
        assert not report.novelty_infinite

    def test_report_validation(self):
        with pytest.raises(ValueError, match="precision"):
            EvalReport(
                method="m",
                precision=1.5,
                novelty=1.0,
                novelty_infinite=False,
                aggregate_diversity=1,
                n_users=1,
                n_recommended=1,
            )
        part, recommended, tests, means = self._inputs()
        with pytest.raises(ValueError, match="catalog size"):
            build_report("m", recommended, tests, means, part, catalog_size=3)

    def test_json_round_trip(self, tmp_path):
        part, recommended, tests, means = self._inputs()
        report = build_report("demo", recommended, tests, means, part, config={"seed": 7})
        path = tmp_path / "report.json"
        write_report_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["method"] == "demo"
        assert loaded["precision"] == pytest.approx(report.precision)
        assert loaded["novelty"] == pytest.approx(report.novelty)
        assert loaded["aggregate_diversity"] == report.aggregate_diversity
        assert loaded["config"] == {"seed": 7}
        assert len(loaded["per_user"]) == 2

    def test_infinite_novelty_serializes_as_string(self, tmp_path):
        part = make_partition({1: 0, 2: 0, 3: 0, 4: 0, 5: 0})
        report = build_report("m", {1: [1]}, {1: {1: 5}}, {1: 3.0}, part)
        assert report.novelty_infinite
        assert report_to_dict(report)["novelty"] == "inf"
        path = tmp_path / "summary.csv"
        write_reports_csv([report], path)
        text = path.read_text()
        assert "m,novelty,inf" in text

    def test_summary_csv_rows(self, tmp_path):
        part, recommended, tests, means = self._inputs()
        report = build_report("demo", recommended, tests, means, part)
        path = tmp_path / "summary.csv"
        write_reports_csv([report], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,metric,value"
        metrics = {line.split(",")[1] for line in lines[1:]}
        assert metrics == {"precision", "novelty", "aggregate_diversity", "n_users"}
