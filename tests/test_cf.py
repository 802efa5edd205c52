"""Neighborhood similarity and prediction behavior, checked against naive oracles."""

from __future__ import annotations

import numpy as np
import pytest

from longtailrec.cf import (
    ColdUserError,
    ItemBasedCF,
    RatingMatrix,
    UserBasedCF,
    similarity_vector,
    user_mean,
)
from longtailrec.dataset import Rating
from longtailrec.harness import _rank_candidates

from conftest import make_random_instance
from oracles import (
    oracle_adjusted_cosine,
    oracle_pearson,
    oracle_predict_item_based,
    oracle_predict_user_based,
    oracle_user_mean,
)


def matrix_from(rows):
    """rows: iterable of (user, item, value[, ts]) tuples."""
    ratings = [
        Rating(user_id=u, item_id=i, value=v, timestamp=(r[3] if len(r) > 3 else 0))
        for r in rows
        for u, i, v in [r[:3]]
    ]
    return ratings, RatingMatrix(ratings)


def pair_similarity(m: RatingMatrix, u: int, v: int) -> float:
    """Entry ``v`` of ``u``'s similarity vector."""
    return float(similarity_vector(m, u)[m.uidx(v)])


def predict_one(model, u: int, j: int) -> float:
    return float(model.predict_many(u, [j])[0])


def unrated_of(train: RatingMatrix, u: int) -> list[int]:
    rated = set(train.item_ids[train.rated_item_indices(u)].tolist())
    return [int(i) for i in train.item_ids if int(i) not in rated]


class TestUserMean:
    def test_arithmetic_mean(self):
        _, m = matrix_from([(1, 1, 5), (1, 2, 3), (1, 3, 4)])
        assert user_mean(m, 1) == pytest.approx(4.0)

    def test_single_rating(self):
        _, m = matrix_from([(1, 1, 2), (2, 1, 4)])
        assert user_mean(m, 1) == pytest.approx(2.0)

    def test_cold_user_raises(self):
        _, m = matrix_from([(1, 1, 2)])
        matrix = RatingMatrix([Rating(1, 1, 2, 0)], user_ids=[1, 9], item_ids=[1])
        with pytest.raises(ColdUserError):
            user_mean(matrix, 9)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(50):
            inst = make_random_instance(seed=seed)
            for u in inst.train.user_ids:
                u = int(u)
                if inst.train.user_rating_counts[inst.train.uidx(u)] == 0:
                    continue
                assert user_mean(inst.train, u) == pytest.approx(
                    oracle_user_mean(inst.ratings, u), abs=1e-12
                )


class TestUserSimilarity:
    def test_identical_ratings_give_one(self):
        _, m = matrix_from([(1, 1, 5), (1, 2, 3), (2, 1, 5), (2, 2, 3)])
        assert pair_similarity(m, 1, 2) == pytest.approx(1.0)

    def test_negated_deviations_give_minus_one(self):
        _, m = matrix_from([(1, 1, 5), (1, 2, 3), (2, 1, 3), (2, 2, 5)])
        assert pair_similarity(m, 1, 2) == pytest.approx(-1.0)

    def test_hand_computed_three_item_overlap(self):
        # u devs (2,0,-2), v devs (1,-1,0) -> 2 / (sqrt(8)*sqrt(2)) = 0.5
        _, m = matrix_from([(1, 1, 5), (1, 2, 3), (1, 3, 1), (2, 1, 4), (2, 2, 2), (2, 3, 3)])
        assert pair_similarity(m, 1, 2) == pytest.approx(0.5)

    def test_thin_overlap_and_constant_ratings_degenerate_to_zero(self):
        _, m = matrix_from([(1, 1, 5), (2, 1, 5), (2, 2, 3)])
        assert pair_similarity(m, 1, 2) == 0.0  # overlap 1 < min_overlap
        _, m2 = matrix_from([(1, 1, 4), (1, 2, 4), (2, 1, 5), (2, 2, 3)])
        assert pair_similarity(m2, 1, 2) == 0.0  # u's deviations all zero

    def test_self_similarity_rejected(self):
        # a user is never its own neighbor: the self entry is 0
        _, m = matrix_from([(1, 1, 5), (1, 2, 3), (2, 1, 5), (2, 2, 3)])
        assert pair_similarity(m, 1, 1) == 0.0
        assert pair_similarity(m, 1, 2) == pytest.approx(1.0)

    def test_symmetry_bounds_and_oracle_parity_property(self):
        """Pairwise checks across many random instances (the bulk case budget)."""
        n_pair_cases = 0
        for seed in range(1100):  # about 10^4 pairs of warm users
            inst = make_random_instance(seed=seed, max_users=8, max_items=12, max_ratings=40)
            t = inst.train
            # users with no training ratings have no similarity vector
            users = [int(u) for u in t.user_ids if t.user_rating_counts[t.uidx(int(u))] > 0]
            vectors = {u: similarity_vector(t, u) for u in users}
            for a in range(len(users)):
                for b in range(a + 1, len(users)):
                    u, v = users[a], users[b]
                    s_uv = vectors[u][t.uidx(v)]
                    s_vu = vectors[v][t.uidx(u)]
                    assert s_uv == pytest.approx(s_vu, abs=1e-12)
                    assert abs(s_uv) <= 1.0 + 1e-9
                    assert s_uv == pytest.approx(
                        oracle_pearson(inst.ratings, u, v), abs=1e-9
                    )
                    n_pair_cases += 1
        assert n_pair_cases >= 10_000

    def test_shift_invariance_of_similarity(self):
        n_cases = 0
        for seed in range(300):
            rng = np.random.default_rng(seed + 41)
            inst = make_random_instance(seed=seed, max_users=7, max_items=10, max_ratings=35)
            shifted = [
                Rating(r.user_id, r.item_id, min(5, max(1, r.value + 1)), r.timestamp)
                for r in inst.ratings
            ]
            if any(r.value == 5 for r in inst.ratings):
                continue  # shift would clip, changing the data
            m_shift = RatingMatrix(
                shifted,
                user_ids=inst.train.user_ids.tolist(),
                item_ids=inst.train.item_ids.tolist(),
            )
            t = inst.train
            for u in t.user_ids:
                if t.user_rating_counts[t.uidx(int(u))] == 0:
                    continue
                s0 = similarity_vector(t, int(u))
                s1 = similarity_vector(m_shift, int(u))
                assert np.allclose(s0, s1, atol=1e-9)
                n_cases += len(s0) - 1
        assert n_cases >= 300


class TestUserBasedPrediction:
    def test_neighbors_at_their_means_predict_users_mean(self):
        rows = [
            (1, 1, 4), (1, 2, 2),           # mu_1 = 3
            (2, 1, 5), (2, 2, 1), (2, 3, 3),  # mu_2 = 3, rates item 3 at mean
            (3, 1, 1), (3, 2, 5), (3, 3, 3),  # mu_3 = 3, same
        ]
        _, m = matrix_from(rows)
        assert predict_one(UserBasedCF(m), 1, 3) == pytest.approx(3.0)

    def test_single_full_similarity_neighbor(self):
        rows = [
            (1, 1, 3), (1, 2, 1),           # mu_1 = 2
            (2, 1, 4), (2, 2, 2), (2, 3, 5),  # mu_2 ~ identical pattern, sim 1
        ]
        _, m = matrix_from(rows)
        # mu_2 = 11/3; pred = 2 + (5 - 11/3) = 10/3
        assert predict_one(UserBasedCF(m), 1, 3) == pytest.approx(2 + (5 - 11 / 3))

    def test_unrated_by_anyone_falls_back_to_user_mean(self):
        ratings = [Rating(1, 1, 4, 0), Rating(1, 2, 2, 0)]
        m = RatingMatrix(ratings, item_ids=[1, 2, 9])
        assert predict_one(UserBasedCF(m), 1, 9) == pytest.approx(3.0)

    def test_cold_user_raises(self):
        ratings = [Rating(1, 1, 4, 0)]
        m = RatingMatrix(ratings, user_ids=[1, 5])
        with pytest.raises(ColdUserError):
            predict_one(UserBasedCF(m), 5, 1)

    def test_clamped_to_rating_scale_and_oracle_parity(self):
        n_cases = 0
        for seed in range(150):
            inst = make_random_instance(seed=seed, max_users=8, max_items=12, max_ratings=50)
            model = UserBasedCF(inst.train)
            for u in inst.train.user_ids:
                u = int(u)
                if inst.train.user_rating_counts[inst.train.uidx(u)] == 0:
                    continue
                preds = model.predict_many(u, inst.train.item_ids)
                assert ((preds >= 1.0) & (preds <= 5.0)).all()
                for j, pred in zip(inst.train.item_ids, preds):
                    expected = oracle_predict_user_based(inst.ratings, u, int(j))
                    assert pred == pytest.approx(expected, abs=1e-9)
                    n_cases += 1
        assert n_cases >= 3000

    def test_small_neighborhood_cap_respected(self):
        # k_neighbors=1 keeps only the most similar rater of the item
        rows = [
            (1, 1, 5), (1, 2, 1),
            (2, 1, 5), (2, 2, 1), (2, 3, 5),   # sim(1,2)=1
            (3, 1, 1), (3, 2, 5), (3, 3, 1),   # sim(1,3)=-1
        ]
        ratings, m = matrix_from(rows)
        got = predict_one(UserBasedCF(m, k_neighbors=1), 1, 3)
        expected = oracle_predict_user_based(ratings, 1, 3, k_neighbors=1)
        assert got == pytest.approx(expected)
        # mu_1=3, neighbor 2 (sim 1, dev 5-11/3) -> 3 + 4/3, clamped to [1,5]
        assert got == pytest.approx(3 + (5 - 11 / 3))


class TestTopN:
    """Top-k ranking runs through the harness's one ranking function."""

    def test_n_zero_gives_empty(self, tiny):
        u = tiny.warmest_user()
        model = UserBasedCF(tiny.train)
        assert _rank_candidates(model, tiny.train, u, unrated_of(tiny.train, u), 0) == ()

    def test_n_beyond_catalog_returns_all_unrated_ranked(self, tiny):
        u = tiny.warmest_user()
        model = UserBasedCF(tiny.train)
        got = _rank_candidates(model, tiny.train, u, unrated_of(tiny.train, u), 10_000)
        rated = tiny.rated_items_of(u)
        assert set(got) == set(int(i) for i in tiny.train.item_ids) - rated
        assert len(got) == len(set(got))

    def test_ordering_matches_brute_force_rank(self):
        for seed in range(40):
            inst = make_random_instance(seed=seed, max_users=8, max_items=12)
            model = UserBasedCF(inst.train)
            for u in inst.train.user_ids:
                u = int(u)
                uidx = inst.train.uidx(u)
                if inst.train.user_rating_counts[uidx] == 0:
                    continue
                unrated = unrated_of(inst.train, u)
                if not unrated:
                    continue
                scored = [
                    (
                        -predict_one(model, u, j),
                        -inst.train.popularity_of(j),
                        j,
                    )
                    for j in unrated
                ]
                expected = tuple(j for *_, j in sorted(scored))
                assert _rank_candidates(model, inst.train, u, unrated, len(unrated)) == expected

    def test_shift_invariance_of_ranking_away_from_clamp(self):
        n_cases = 0
        for seed in range(600):
            inst = make_random_instance(seed=seed, max_users=7, max_items=10, max_ratings=35)
            if any(r.value == 5 for r in inst.ratings):
                continue
            shifted = [
                Rating(r.user_id, r.item_id, r.value + 1, r.timestamp)
                for r in inst.ratings
            ]
            m_shift = RatingMatrix(
                shifted,
                user_ids=inst.train.user_ids.tolist(),
                item_ids=inst.train.item_ids.tolist(),
            )
            base_model = UserBasedCF(inst.train)
            shift_model = UserBasedCF(m_shift)
            for u in inst.train.user_ids:
                u = int(u)
                if inst.train.user_rating_counts[inst.train.uidx(u)] == 0:
                    continue
                p0 = base_model.predict_many(u, inst.train.item_ids)
                p1 = shift_model.predict_many(u, inst.train.item_ids)
                if ((p0 > 1.0) & (p0 < 5.0) & (p1 > 1.0) & (p1 < 5.0)).all():
                    # no clamping in either variant: predictions shift exactly
                    assert np.allclose(p1, p0 + 1.0, atol=1e-9)
                    unrated = unrated_of(inst.train, u)
                    assert _rank_candidates(
                        base_model, inst.train, u, unrated, 5
                    ) == _rank_candidates(shift_model, m_shift, u, unrated, 5)
                    n_cases += 1
        assert n_cases >= 100


class TestItemBased:
    def test_single_positive_similar_item_copies_rating(self):
        rows = [
            (1, 1, 4),
            # users 2 and 3 make items 1 and 2 co-rated with positive adjusted cosine
            (2, 1, 5), (2, 2, 5), (2, 3, 1),
            (3, 1, 1), (3, 2, 1), (3, 3, 5),
        ]
        ratings, m = matrix_from(rows)
        assert oracle_adjusted_cosine(ratings, 1, 2) > 0
        assert predict_one(ItemBasedCF(m), 1, 2) == pytest.approx(4.0)

    def test_no_similar_items_falls_back_to_mean(self):
        rows = [(1, 1, 5), (1, 2, 3), (2, 3, 4)]
        ratings, m = matrix_from(rows)
        assert predict_one(ItemBasedCF(m), 1, 3) == pytest.approx(4.0)  # mu_1

    def test_similarity_symmetry_and_cache(self):
        for seed in range(30):
            inst = make_random_instance(seed=seed, max_users=8, max_items=10)
            model = ItemBasedCF(inst.train)
            ids = [int(i) for i in inst.train.item_ids]
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    s_ab = model.item_similarity(ids[a], ids[b])
                    s_ba = model.item_similarity(ids[b], ids[a])
                    assert s_ab == s_ba
                    assert abs(s_ab) <= 1.0 + 1e-9
                    assert s_ab == pytest.approx(
                        oracle_adjusted_cosine(inst.ratings, ids[a], ids[b]), abs=1e-9
                    )

    def test_prediction_oracle_parity_and_bounds(self):
        n_cases = 0
        for seed in range(60):
            inst = make_random_instance(seed=seed, max_users=8, max_items=12, max_ratings=50)
            model = ItemBasedCF(inst.train)
            for u in inst.train.user_ids:
                u = int(u)
                if inst.train.user_rating_counts[inst.train.uidx(u)] == 0:
                    continue
                preds = model.predict_many(u, inst.train.item_ids)
                assert ((preds >= 1.0) & (preds <= 5.0)).all()
                for j, pred in zip(inst.train.item_ids, preds):
                    expected = oracle_predict_item_based(inst.ratings, u, int(j))
                    assert pred == pytest.approx(expected, abs=1e-9)
                    n_cases += 1
        assert n_cases >= 1500

    def test_top_n_matches_user_based_tie_rules(self, tiny):
        u = tiny.warmest_user()
        model = ItemBasedCF(tiny.train)
        unrated = unrated_of(tiny.train, u)
        got = _rank_candidates(model, tiny.train, u, unrated, 5)
        assert len(got) == min(5, len(tiny.items) - len(tiny.rated_items_of(u)))
        assert not set(got) & tiny.rated_items_of(u)
        scored = sorted((-predict_one(model, u, j), -tiny.train.popularity_of(j), j) for j in unrated)
        assert got == tuple(j for *_, j in scored[:5])


class TestRatingMatrix:
    def test_accessors_match_naive_recount(self):
        for seed in range(40):
            inst = make_random_instance(seed=seed)
            by_user: dict[int, dict[int, float]] = {}
            by_item: dict[int, int] = {}
            for r in inst.ratings:
                by_user.setdefault(r.user_id, {})[r.item_id] = float(r.value)
                by_item[r.item_id] = by_item.get(r.item_id, 0) + 1
            for u in inst.train.user_ids:
                u = int(u)
                expected = by_user.get(u, {})
                idx = inst.train.rated_item_indices(u)
                got = {
                    int(inst.train.item_ids[j]): float(v)
                    for j, v in zip(idx, inst.train.rated_values(u))
                }
                assert got == expected
            for i in inst.train.item_ids:
                assert inst.train.popularity_of(int(i)) == by_item.get(int(i), 0)

    def test_unknown_ids_raise(self, tiny):
        with pytest.raises(KeyError):
            tiny.train.uidx(10_000)
        with pytest.raises(KeyError):
            tiny.train.iidx(10_000)
