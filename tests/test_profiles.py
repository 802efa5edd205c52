"""Age–genre distributions, activity-binned long-tail curves, and list quotas."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from longtailrec.cf import RatingMatrix
from longtailrec.dataset import AGE_GROUPS, GENRES, Item, Rating, Ratings, User
from longtailrec.profiles import (
    ActivityBin,
    DynamicsCurve,
    build_age_genre_profiles,
    build_dynamics_curves,
    target_long_tail_count,
    user_genre_counts,
    write_curves_csv,
    write_profiles_csv,
)

from instances import genre_rows, long_tail_ids, make_random_instance, partition_from_counts
from oracles import oracle_age_profiles, oracle_dynamics_curve


def single_genre_setup(genre="Comedy"):
    users = {1: User(user_id=1, age_group=25)}
    items = {1: Item(item_id=1, title="t", genres=frozenset({genre}))}
    ratings = Ratings.from_rows([Rating(user_id=1, item_id=1, value=4, timestamp=0)])
    return users, items, ratings


def profiles_of(ratings: Ratings, users, items):
    """Age-genre profiles of ``ratings`` over the catalog ``items``."""
    train = RatingMatrix(ratings, item_ids=sorted(items))
    return build_age_genre_profiles(train, users, genre_rows(items, train.item_ids))


class TestAgeGenreProfiles:
    def test_single_genre_group_concentrates_all_mass(self):
        users, items, ratings = single_genre_setup("Comedy")
        profiles = profiles_of(ratings, users, items)
        pgu = profiles[25].pgu
        assert pgu[GENRES.index("Comedy")] == pytest.approx(1.0)
        assert pgu.sum() == pytest.approx(1.0)
        assert not profiles[25].synthesized

    def test_two_genre_movie_splits_mass_evenly(self):
        users = {1: User(user_id=1, age_group=18)}
        items = {1: Item(item_id=1, title="t", genres=frozenset({"Action", "Sci-Fi"}))}
        ratings = Ratings.from_rows([Rating(user_id=1, item_id=1, value=4, timestamp=0)])
        profiles = profiles_of(ratings, users, items)
        pgu = profiles[18].pgu
        assert pgu[GENRES.index("Action")] == pytest.approx(0.5)
        assert pgu[GENRES.index("Sci-Fi")] == pytest.approx(0.5)

    def test_empty_group_gets_uniform_flagged_vector(self):
        users, items, ratings = single_genre_setup()
        profiles = profiles_of(ratings, users, items)
        for age in AGE_GROUPS:
            if age == 25:
                continue
            assert profiles[age].synthesized
            assert np.allclose(profiles[age].pgu, 1.0 / len(GENRES))

    def test_empty_train_rejected(self):
        users, items, _ = single_genre_setup()
        with pytest.raises(ValueError):
            profiles_of(Ratings.from_rows([]), users, items)

    def test_normalization_and_recount_parity_property(self):
        n_cases = 0
        item_cache = {}
        for seed in range(700):
            inst = make_random_instance(seed=seed, max_users=8, max_items=12, max_ratings=40)
            profiles = build_age_genre_profiles(inst.train, inst.users, inst.item_genres)
            ages = {u: usr.age_group for u, usr in inst.users.items()}
            genres = {i: sorted(item.genres) for i, item in inst.items.items()}
            expected = oracle_age_profiles(inst.ratings, ages, genres, list(GENRES), AGE_GROUPS)
            for age in AGE_GROUPS:
                vec, synthesized = expected[age]
                got = profiles[age]
                assert got.synthesized == synthesized
                assert np.allclose(got.pgu, vec, atol=1e-12)
                assert got.pgu.sum() == pytest.approx(1.0, abs=1e-9)
                assert ((got.pgu >= 0) & (got.pgu <= 1)).all()
                n_cases += 1
        assert n_cases >= 4900
        _ = item_cache


class TestDynamicsCurves:
    def _partition_all_head(self, items):
        ids = sorted(items)
        return partition_from_counts({i: 1 for i in ids}, head=ids, head_item_fraction=0.99)

    def test_all_short_head_yields_zero_shares(self):
        users = {1: User(user_id=1, age_group=25)}
        items = {i: Item(item_id=i, title="t", genres=frozenset({"Drama"})) for i in range(1, 21)}
        ratings = Ratings.from_rows(Rating(user_id=1, item_id=i, value=3, timestamp=i) for i in range(1, 21))
        curves = build_dynamics_curves(ratings, users, self._partition_all_head(items), n_bins=5)
        assert all(b.share == 0.0 for b in curves[25].bins)

    def test_alternating_membership_gives_half_share(self):
        users = {1: User(user_id=1, age_group=25)}
        n = 100
        ratings = Ratings.from_rows(Rating(user_id=1, item_id=i, value=3, timestamp=i) for i in range(1, n + 1))
        partition = partition_from_counts(
            {i: 1 for i in range(1, n + 1)},
            head=[i for i in range(1, n + 1) if i % 2 == 0],
            head_item_fraction=0.5,
        )
        curves = build_dynamics_curves(ratings, users, partition, n_bins=2)
        assert all(b.share == pytest.approx(0.5) for b in curves[25].bins)

    def test_empty_group_synthesized_flat_half(self):
        users, items, ratings = single_genre_setup()
        partition = self._partition_all_head(items)
        curves = build_dynamics_curves(ratings, users, partition, n_bins=4)
        assert curves[56].synthesized
        assert all(b.share == 0.5 for b in curves[56].bins)

    def test_min_bins_enforced(self):
        users, items, ratings = single_genre_setup()
        with pytest.raises(ValueError):
            build_dynamics_curves(ratings, users, self._partition_all_head(items), n_bins=1)

    def test_bins_partition_activity_range_and_population_sums(self):
        n_cases = 0
        for seed in range(500):
            inst = make_random_instance(seed=seed, max_users=8, max_items=12, max_ratings=50)
            curves = build_dynamics_curves(inst.ratings, inst.users, inst.partition, n_bins=4)
            group_counts: dict[int, int] = {age: 0 for age in AGE_GROUPS}
            for r in inst.ratings:
                group_counts[inst.users[r.user_id].age_group] += 1
            for age in AGE_GROUPS:
                curve = curves[age]
                if curve.synthesized:
                    assert group_counts[age] == 0
                    continue
                assert sum(b.population for b in curve.bins) == group_counts[age]
                assert curve.bins[0].lo == 1
                for prev, nxt in zip(curve.bins, curve.bins[1:]):
                    assert nxt.lo == prev.hi + 1
                assert all(0.0 <= b.share <= 1.0 for b in curve.bins)
                n_cases += 1
        assert n_cases >= 1500

    def test_matches_naive_binning_oracle(self):
        for seed in range(300):
            inst = make_random_instance(seed=seed, max_users=8, max_items=12, max_ratings=50)
            curves = build_dynamics_curves(inst.ratings, inst.users, inst.partition, n_bins=3)
            for age in AGE_GROUPS:
                members = [u for u, usr in inst.users.items() if usr.age_group == age]
                expected = oracle_dynamics_curve(
                    inst.ratings, members, long_tail_ids(inst.partition), n_bins=3
                )
                curve = curves[age]
                if not any(r.user_id in set(members) for r in inst.ratings):
                    assert curve.synthesized
                    continue
                got = [(b.lo, b.hi, b.share, b.population) for b in curve.bins]
                assert len(got) == len(expected)
                for g, e in zip(got, expected):
                    assert g[0] == e[0] and g[1] == e[1] and g[3] == e[3]
                    assert g[2] == pytest.approx(e[2], abs=1e-12)


def curve_with_shares(shares, width=10):
    bins = []
    lo = 1
    for s in shares:
        bins.append(ActivityBin(lo=lo, hi=lo + width - 1, share=s, population=width))
        lo += width
    return DynamicsCurve(age_group=25, bins=tuple(bins))


class TestTargetLongTailCount:
    def test_zero_share_gives_zero(self):
        assert target_long_tail_count(curve_with_shares([0.0]), 5, k=10) == 0

    def test_full_share_gives_k(self):
        assert target_long_tail_count(curve_with_shares([1.0]), 5, k=10) == 10

    def test_nearest_integer_rounding(self):
        assert target_long_tail_count(curve_with_shares([0.37]), 5, k=10) == 4
        assert target_long_tail_count(curve_with_shares([0.44]), 3, k=10) == 4
        assert target_long_tail_count(curve_with_shares([0.45]), 3, k=10) == 5

    def test_selects_bin_by_activity_and_clamps_beyond_range(self):
        curve = curve_with_shares([0.1, 0.5, 0.9], width=10)
        assert target_long_tail_count(curve, 1, k=10) == 1
        assert target_long_tail_count(curve, 10, k=10) == 1
        assert target_long_tail_count(curve, 11, k=10) == 5
        assert target_long_tail_count(curve, 25, k=10) == 9
        assert target_long_tail_count(curve, 999, k=10) == 9  # beyond the last bin

    def test_k_validation(self):
        with pytest.raises(ValueError):
            target_long_tail_count(curve_with_shares([0.5]), 1, k=0)

    def test_monotone_in_share_and_bounded_property(self):
        rng = np.random.default_rng(99)
        n_cases = 0
        for _ in range(10_000):
            s1, s2 = sorted(rng.uniform(0.0, 1.0, size=2))
            k = int(rng.integers(1, 25))
            n = int(rng.integers(1, 30))
            t1 = target_long_tail_count(curve_with_shares([s1]), n, k=k)
            t2 = target_long_tail_count(curve_with_shares([s2]), n, k=k)
            assert t1 <= t2
            assert 0 <= t1 <= k and 0 <= t2 <= k
            n_cases += 1
        assert n_cases == 10_000


class TestSerialization:
    def test_profiles_csv_round_trip(self, tmp_path, tiny):
        profiles = build_age_genre_profiles(tiny.train, tiny.users, tiny.item_genres)
        path = tmp_path / "profiles.csv"
        write_profiles_csv(profiles, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(AGE_GROUPS) * len(GENRES)
        for row in rows:
            age = int(row["age_group"])
            g = GENRES.index(row["genre"])
            assert float(row["pgu"]) == profiles[age].pgu[g]
            assert row["synthesized"] == str(profiles[age].synthesized).lower()

    def test_curves_csv_round_trip(self, tmp_path, tiny):
        curves = build_dynamics_curves(tiny.ratings, tiny.users, tiny.partition, n_bins=3)
        path = tmp_path / "curves.csv"
        write_curves_csv(curves, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_age: dict[int, list] = {}
        for row in rows:
            by_age.setdefault(int(row["age_group"]), []).append(row)
        for age, curve in curves.items():
            got = by_age[age]
            assert len(got) == len(curve.bins)
            for row, b in zip(got, curve.bins):
                assert (int(row["bin_lo"]), int(row["bin_hi"])) == (b.lo, b.hi)
                assert float(row["share"]) == b.share
                assert int(row["population"]) == b.population


def test_item_genre_matrix_rows_follow_item_order(tiny):
    ds = tiny.dataset
    ids = sorted(tiny.items)
    assert ds.item_ids.tolist() == ids
    mat = ds.item_genres
    assert mat.shape == (len(ids), len(GENRES))
    assert not mat.flags.writeable
    for row, item_id in enumerate(ids):
        expected = {GENRES.index(g) for g in tiny.items[item_id].genres}
        assert set(np.flatnonzero(mat[row]).tolist()) == expected


def test_user_genre_counts_recount_each_users_ratings():
    for seed in range(200):
        inst = make_random_instance(seed=seed, max_users=8, max_items=12, max_ratings=40)
        counts = user_genre_counts(inst.train, inst.dataset.item_genres)
        expected = np.zeros_like(counts)
        for r in inst.ratings:
            for g in inst.items[r.item_id].genres:
                expected[inst.train.uidx(r.user_id), GENRES.index(g)] += 1
        assert np.array_equal(counts, expected)
    with pytest.raises(ValueError, match="item genre matrix has shape"):
        user_genre_counts(inst.train, inst.dataset.item_genres[1:])
