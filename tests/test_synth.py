"""Synthetic dataset generator: structure, determinism, and the planted
phenomena the engine is supposed to detect."""

from __future__ import annotations

import numpy as np
import pytest

from longtailrec.dataset import (
    AGE_GROUPS,
    GENRES,
    parse_movielens,
    popularity_partition,
    temporal_split,
)
from longtailrec.profiles import build_dynamics_curves
from longtailrec.synth import (
    AGE_DRIFT_SLOPES,
    AGE_FAVORITE_GENRES,
    SynthConfig,
    generate,
    write_movielens,
)

SMALL = SynthConfig(n_users=60, n_items=120, seed=11, min_ratings_per_user=20,
                    max_ratings_per_user=80, median_ratings_per_user=35.0)


@pytest.fixture(scope="module")
def small_dataset():
    return generate(SMALL)


class TestStructure:
    def test_counts_and_id_ranges(self, small_dataset):
        ds = small_dataset
        assert ds.n_users == 60
        assert ds.n_items == 120
        assert set(ds.users) == set(range(1, 61))
        assert set(ds.items) == set(range(1, 121))
        for u in ds.users.values():
            assert u.age_group in AGE_GROUPS
            assert u.gender in ("M", "F")
        for it in ds.items.values():
            assert it.genres and all(g in GENRES for g in it.genres)

    def test_every_age_group_present(self, small_dataset):
        ages = {u.age_group for u in small_dataset.users.values()}
        assert ages == set(AGE_GROUPS)

    def test_ratings_per_user_within_bounds_and_unique(self, small_dataset):
        by_user: dict[int, list] = {}
        seen = set()
        for r in small_dataset.ratings:
            assert 1 <= r.value <= 5
            assert (r.user_id, r.item_id) not in seen
            seen.add((r.user_id, r.item_id))
            by_user.setdefault(r.user_id, []).append(r)
        for u, rs in by_user.items():
            assert SMALL.min_ratings_per_user <= len(rs) <= SMALL.max_ratings_per_user
            stamps = [r.timestamp for r in rs]
            assert stamps == sorted(stamps)
            assert len(set(stamps)) == len(stamps)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="age group"):
            SynthConfig(n_users=3)
        with pytest.raises(ValueError, match="catalog"):
            SynthConfig(n_items=10)
        with pytest.raises(ValueError, match="bounds"):
            SynthConfig(min_ratings_per_user=50, max_ratings_per_user=20)
        with pytest.raises(ValueError, match="exceed catalog"):
            SynthConfig(n_items=100, max_ratings_per_user=150)
        with pytest.raises(ValueError, match="head_fraction"):
            SynthConfig(head_fraction=1.0)


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.ratings == b.ratings
        assert a.users == b.users
        assert a.items == b.items

    def test_different_seed_differs(self):
        a = generate(SMALL)
        b = generate(SynthConfig(**{**SMALL.__dict__, "seed": 12}))
        assert a.ratings != b.ratings


class TestRoundTrip:
    def test_movielens_files_reparse_identically(self, small_dataset, tmp_path):
        paths = write_movielens(small_dataset, tmp_path)
        reparsed = parse_movielens(paths["ratings"], paths["users"], paths["movies"])
        assert reparsed.ratings == small_dataset.ratings
        assert reparsed.users == small_dataset.users
        assert {i: (it.title, it.genres) for i, it in reparsed.items.items()} == {
            i: (it.title, it.genres) for i, it in small_dataset.items.items()
        }


@pytest.fixture(scope="module")
def medium():
    return generate(
        SynthConfig(
            n_users=300,
            n_items=400,
            seed=5,
            min_ratings_per_user=40,
            max_ratings_per_user=200,
            median_ratings_per_user=80.0,
        )
    )


class TestPlantedPhenomena:
    def test_age_groups_prefer_their_planted_genres(self, medium):
        genre_mass = {age: np.zeros(len(GENRES)) for age in AGE_GROUPS}
        items = medium.items
        for r in medium.ratings:
            age = medium.users[r.user_id].age_group
            for g in items[r.item_id].genres:
                genre_mass[age][GENRES.index(g)] += 1
        for age, favorites in AGE_FAVORITE_GENRES.items():
            mass = genre_mass[age] / genre_mass[age].sum()
            fav_idx = [GENRES.index(g) for g in favorites]
            others = [i for i in range(len(GENRES)) if i not in fav_idx]
            assert mass[fav_idx].mean() > np.array(mass)[others].mean()

    def test_popularity_is_head_concentrated(self, medium):
        ids = sorted(medium.items)
        partition = popularity_partition(medium.ratings, ids, 0.2)
        head_total = int(partition.counts[~partition.long_tail].sum())
        assert head_total > 0.4 * len(medium.ratings)

    def test_long_tail_drift_rises_with_age_slope(self, medium):
        ids = sorted(medium.items)
        partition = popularity_partition(medium.ratings, ids, 0.2)
        curves = build_dynamics_curves(medium.ratings, medium.users, partition, n_bins=4)
        # the steepest-slope group must drift visibly upward; the zero-slope
        # group must drift strictly less
        rise = {
            age: curves[age].bins[-1].share - curves[age].bins[0].share
            for age in AGE_GROUPS
            if not curves[age].synthesized
        }
        assert AGE_DRIFT_SLOPES[56] > AGE_DRIFT_SLOPES[1]
        assert rise[56] > 0.05
        assert rise[56] > rise[1]

    def test_later_ratings_trend_higher(self, medium):
        early, late = [], []
        by_user: dict[int, list] = {}
        for r in medium.ratings:
            by_user.setdefault(r.user_id, []).append(r.value)
        for values in by_user.values():
            half = len(values) // 2
            early.extend(values[:half])
            late.extend(values[half:])
        assert np.mean(late) > np.mean(early)

    def test_split_then_partition_pipeline_runs(self, medium):
        split = temporal_split(medium, 0.2)
        assert len(split.test) > 0
        assert len(split.train) + len(split.test) == len(medium.ratings)
