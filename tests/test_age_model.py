"""Nearest-centroid age-group prediction from genre rating profiles."""

from __future__ import annotations

import numpy as np
import pytest

from longtailrec.age_model import (
    AgeClassifier,
    featurize_users,
    train_age_classifier,
)
from longtailrec.cf import ColdUserError, RatingMatrix
from longtailrec.dataset import AGE_GROUPS, GENRES, N_GENRES, Item, Rating, Ratings

from conftest import genre_rows, make_random_instance
from oracles import oracle_genre_features, oracle_nearest_centroid


def pure_vector(genre: str) -> np.ndarray:
    v = np.zeros(N_GENRES)
    v[GENRES.index(genre)] = 1.0
    return v


def features_of(rows, items, user_ids) -> np.ndarray:
    """featurize_users over a matrix of ``rows`` whose columns are ``items``."""
    train = RatingMatrix(Ratings.from_rows(rows), item_ids=sorted(items))
    return featurize_users(train, genre_rows(items, train.item_ids), user_ids)


class TestFeaturize:
    def test_single_genre_rating_is_unit_mass(self):
        items = {1: Item(item_id=1, title="t", genres=frozenset({"Comedy"}))}
        ratings = [Rating(user_id=1, item_id=1, value=4, timestamp=0)]
        vec = features_of(ratings, items, [1])
        assert vec.shape == (1, N_GENRES)
        assert np.allclose(vec[0], pure_vector("Comedy"))

    def test_multi_genre_incidence_fractions(self):
        items = {
            1: Item(item_id=1, title="a", genres=frozenset({"Action"})),
            2: Item(item_id=2, title="b", genres=frozenset({"Action", "War"})),
        }
        ratings = [
            Rating(user_id=1, item_id=1, value=4, timestamp=0),
            Rating(user_id=1, item_id=2, value=4, timestamp=1),
        ]
        vec = features_of(ratings, items, [1])[0]
        assert vec[GENRES.index("Action")] == pytest.approx(2 / 3)
        assert vec[GENRES.index("War")] == pytest.approx(1 / 3)

    def test_cold_user_raises(self):
        items = {1: Item(item_id=1, title="t", genres=frozenset({"Comedy"}))}
        with pytest.raises(ColdUserError):
            features_of([], items, [1])

    def test_matches_recount_oracle_and_normalization(self):
        n_cases = 0
        for seed in range(800):
            inst = make_random_instance(seed=seed, max_users=8, max_items=12, max_ratings=40)
            genres = {i: sorted(item.genres) for i, item in inst.items.items()}
            rated_users = sorted({r.user_id for r in inst.ratings})
            feats = featurize_users(inst.train, inst.item_genres, rated_users)
            for row, u in enumerate(rated_users):
                expected = oracle_genre_features(inst.ratings, genres, list(GENRES), u)
                assert np.allclose(feats[row], expected, atol=1e-12)
                assert feats[row].sum() == pytest.approx(1.0, abs=1e-9)
                n_cases += 1
        assert n_cases >= 2000


class TestTraining:
    def test_pure_groups_recover_their_vectors(self):
        feats = []
        labels = []
        for age, genre in zip(AGE_GROUPS, GENRES):
            for _ in range(3):
                feats.append(pure_vector(genre))
                labels.append(age)
        clf = train_age_classifier(np.array(feats), labels)
        for row, genre in zip(range(len(AGE_GROUPS)), GENRES):
            assert np.allclose(clf.centroids[row], pure_vector(genre))

    def test_single_user_per_group_centroid_is_that_user(self):
        rng = np.random.default_rng(0)
        feats = rng.dirichlet(np.ones(N_GENRES), size=len(AGE_GROUPS))
        clf = train_age_classifier(feats, list(AGE_GROUPS))
        assert np.allclose(clf.centroids, feats)

    def test_missing_group_is_an_error_naming_it(self):
        feats = np.stack([pure_vector("Drama")] * 6)
        labels = list(AGE_GROUPS[:6])
        with pytest.raises(ValueError, match="56"):
            train_age_classifier(feats, labels)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_age_classifier(np.zeros((3, N_GENRES)), [1, 18])

    def test_training_is_permutation_invariant(self):
        rng = np.random.default_rng(7)
        feats = rng.dirichlet(np.ones(N_GENRES), size=40)
        labels = [AGE_GROUPS[i % 7] for i in range(40)]
        base = train_age_classifier(feats, labels)
        n_cases = 0
        for trial in range(300):
            perm = rng.permutation(40)
            shuffled = train_age_classifier(feats[perm], [labels[p] for p in perm])
            assert (shuffled.centroids == base.centroids).all()
            probe = rng.dirichlet(np.ones(N_GENRES))
            assert shuffled.predict(probe) == base.predict(probe)
            n_cases += 1
        assert n_cases == 300


class TestPrediction:
    def _classifier(self):
        feats = np.stack([pure_vector(g) for g in GENRES[: len(AGE_GROUPS)]])
        return train_age_classifier(feats, list(AGE_GROUPS))

    def test_exact_centroid_match(self):
        clf = self._classifier()
        for row, age in enumerate(AGE_GROUPS):
            assert clf.predict(clf.centroids[row]) == age

    def test_equidistant_tie_resolves_to_smaller_age(self):
        clf = self._classifier()
        # ages 25 and 35 sit on pure genre axes 2 and 3; their midpoint ties
        midpoint = (clf.centroids[2] + clf.centroids[3]) / 2.0
        assert clf.predict(midpoint) == 25

    def test_always_returns_a_known_group_and_matches_oracle(self):
        rng = np.random.default_rng(11)
        clf = AgeClassifier(centroids=rng.dirichlet(np.ones(N_GENRES), size=len(AGE_GROUPS)))
        n_cases = 0
        for _ in range(5000):
            probe = rng.dirichlet(np.ones(N_GENRES))
            got = clf.predict(probe)
            assert got in AGE_GROUPS
            assert got == oracle_nearest_centroid(
                [c.tolist() for c in clf.centroids], AGE_GROUPS, probe.tolist()
            )
            n_cases += 1
        assert n_cases == 5000
