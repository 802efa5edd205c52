"""Neighborhood similarity and prediction behavior, checked against naive oracles."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtailrec import cf
from longtailrec.cf import (
    ColdUserError,
    ItemBasedCF,
    RatingMatrix,
    UserBasedCF,
    similarity_vector,
    user_mean,
)
from longtailrec.dataset import Rating, Ratings
from longtailrec.harness import _rank_candidates

from instances import make_random_instance
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
    return ratings, RatingMatrix(Ratings.from_rows(ratings))


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
        matrix = RatingMatrix(Ratings.from_rows([Rating(1, 1, 2, 0)]), user_ids=[1, 9], item_ids=[1])
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
                Ratings.from_rows(shifted),
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
        m = RatingMatrix(Ratings.from_rows(ratings), item_ids=[1, 2, 9])
        assert predict_one(UserBasedCF(m), 1, 9) == pytest.approx(3.0)

    def test_cold_user_raises(self):
        ratings = [Rating(1, 1, 4, 0)]
        m = RatingMatrix(Ratings.from_rows(ratings), user_ids=[1, 5])
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


def dense_matrix(seed: int, n_users: int = 90, n_items: int = 24, density: float = 0.6):
    """Integer ratings (so similarities tie) on a dense block, where items
    have more than 40 raters, plus catalog items nobody rated."""
    rng = np.random.default_rng(seed)
    ratings = [
        Rating(3 * int(u) + 2, 2 * int(i) + 1, int(rng.integers(1, 6)), 0)
        for u, i in zip(*np.nonzero(rng.random((n_users, n_items)) < density))
    ]
    return RatingMatrix(Ratings.from_rows(ratings), item_ids=range(1, 2 * n_items + 4))


def prediction_digest() -> str:
    """SHA-256 of the float64 bytes of multi-item ``predict_many`` calls on
    seeded instances: K in {1, 3, 40}, min_overlap in {0, 2}; each request
    holds the whole catalog (rated items and items without raters included)
    in a seeded order, plus three repeated ids."""
    h = hashlib.sha256()
    rng = np.random.default_rng(20261020)
    matrices = [make_random_instance(seed=seed).train for seed in range(40)]
    matrices += [dense_matrix(seed) for seed in range(3)]
    for train in matrices:
        users = [int(u) for u in train.user_ids if train.user_rating_counts[train.uidx(int(u))] > 0]
        for k_neighbors in (1, 3, 40):
            for min_overlap in (0, 2):
                model = UserBasedCF(train, k_neighbors=k_neighbors, min_overlap=min_overlap)
                for u in users[:15]:
                    ids = train.item_ids
                    request = rng.permutation(np.concatenate([ids, rng.choice(ids, size=3)]))
                    h.update(model.predict_many(u, request.tolist()).tobytes())
    return h.hexdigest()


# Recorded with the per-item prediction loop this vectorized pass replaced.
PREDICTION_DIGEST = "83eaa67be2cb0bfae85dd3ec377769b689ad30486fc412e5152df04a69b0caf3"


@st.composite
def rating_cases(draw, k_neighbors=st.integers(0, 6)):
    n_users = draw(st.integers(2, 12))
    n_items = draw(st.integers(1, 8))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_users - 1),
                st.integers(0, n_items - 1),
                st.integers(1, 5),
            ),
            min_size=1,
            max_size=60,
            unique_by=lambda c: c[:2],
        )
    )
    ratings = [Rating(user_id=10 + 7 * u, item_id=5 + 3 * i, value=v, timestamp=0) for u, i, v in cells]
    train = RatingMatrix(Ratings.from_rows(ratings), item_ids=[5 + 3 * i for i in range(n_items + 1)])
    user = draw(st.sampled_from(sorted({r.user_id for r in ratings})))
    request = draw(st.lists(st.sampled_from(train.item_ids.tolist()), min_size=1, max_size=12))
    return ratings, train, user, request, draw(k_neighbors), draw(st.integers(0, 3))


class TestPredictionExactness:
    """The one-pass ``predict_many`` gives the bits of a per-item evaluation."""

    def test_prediction_digest_unchanged(self):
        assert prediction_digest() == PREDICTION_DIGEST

    @settings(max_examples=300, deadline=None, database=None)
    @given(rating_cases())
    def test_batched_call_equals_per_item_calls_and_oracle(self, case):
        ratings, train, user, request, k_neighbors, min_overlap = case
        model = UserBasedCF(train, k_neighbors=k_neighbors, min_overlap=min_overlap)
        batched = model.predict_many(user, request)
        singles = np.array([model.predict_many(user, [j])[0] for j in request])
        assert batched.tobytes() == singles.tobytes()
        for j, pred in zip(request, batched):
            expected = oracle_predict_user_based(ratings, user, j, k_neighbors, min_overlap)
            assert abs(pred - expected) <= 1e-9

    def test_split_requests_give_the_same_bits(self, monkeypatch):
        train = dense_matrix(5)
        request = train.item_ids.tolist() * 2
        models = [UserBasedCF(train, k_neighbors=k) for k in (1, 3, 40)]
        whole = [model.predict_many(5, request) for model in models]
        # Keys this narrow split every request down to single columns.
        monkeypatch.setattr(cf, "_KEY_BITS", 8)
        for model, expected in zip(models, whole):
            assert model.predict_many(5, request).tobytes() == expected.tobytes()

    def test_unknown_item_and_negative_k_rejected(self, tiny):
        u = tiny.warmest_user()
        model = UserBasedCF(tiny.train)
        with pytest.raises(KeyError, match="unknown item 10000"):
            model.predict_many(u, [int(tiny.train.item_ids[0]), 10_000, 20_000])
        assert model.predict_many(u, []).shape == (0,)
        with pytest.raises(ValueError, match="k_neighbors"):
            UserBasedCF(tiny.train, k_neighbors=-1)


class TestTopN:
    """Top-k ranking runs through the harness's one ranking function."""

    def test_n_zero_gives_empty(self, tiny):
        u = tiny.warmest_user()
        model = UserBasedCF(tiny.train)
        assert _rank_candidates(model, tiny.partition, u, unrated_of(tiny.train, u), 0) == ()

    def test_n_beyond_catalog_returns_all_unrated_ranked(self, tiny):
        u = tiny.warmest_user()
        model = UserBasedCF(tiny.train)
        got = _rank_candidates(model, tiny.partition, u, unrated_of(tiny.train, u), 10_000)
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
                        -inst.partition.popularity(j),
                        j,
                    )
                    for j in unrated
                ]
                expected = tuple(j for *_, j in sorted(scored))
                assert _rank_candidates(model, inst.partition, u, unrated, len(unrated)) == expected

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
                Ratings.from_rows(shifted),
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
                        base_model, inst.partition, u, unrated, 5
                    ) == _rank_candidates(shift_model, inst.partition, u, unrated, 5)
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

    def test_similarity_symmetry_and_oracle_parity(self):
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

    def test_tied_neighbours_go_to_the_lower_item_id(self):
        # Items 1 and 2 have the same co-raters (2 and 3) with item 3, who
        # rate them alike: both similarities to item 3 are exactly 1.
        rows = [
            (1, 1, 5), (1, 2, 1),
            (2, 1, 5), (2, 2, 5), (2, 3, 5), (2, 4, 1),
            (3, 1, 1), (3, 2, 1), (3, 3, 1), (3, 4, 5),
        ]
        ratings, m = matrix_from(rows)
        model = ItemBasedCF(m, k_neighbors=1)
        assert model.item_similarity(1, 3) == model.item_similarity(2, 3) == 1.0
        assert predict_one(model, 1, 3) == oracle_predict_item_based(ratings, 1, 3, k_neighbors=1) == 5.0
        assert predict_one(ItemBasedCF(m, k_neighbors=2), 1, 3) == 3.0

    def test_prediction_leaves_no_state(self):
        for seed in range(20):
            inst = make_random_instance(seed=seed)
            model = ItemBasedCF(inst.train)
            # repr shows a container that grows in place, and the matrix's identity.
            before = {name: repr(value) for name, value in vars(model).items()}
            for u in inst.train.user_ids:
                if inst.train.user_rating_counts[inst.train.uidx(int(u))] > 0:
                    model.predict_many(int(u), inst.train.item_ids)
            assert {name: repr(value) for name, value in vars(model).items()} == before

    def test_k_zero_predicts_user_mean_and_negative_k_rejected(self, tiny):
        u = tiny.warmest_user()
        preds = ItemBasedCF(tiny.train, k_neighbors=0).predict_many(u, tiny.train.item_ids)
        assert (preds == user_mean(tiny.train, u)).all()
        with pytest.raises(ValueError, match="k_neighbors"):
            ItemBasedCF(tiny.train, k_neighbors=-1)

    @settings(max_examples=300, deadline=None, database=None)
    @given(rating_cases(k_neighbors=st.sampled_from([0, 1, 3, 40])))
    def test_one_call_matches_oracle_property(self, case):
        ratings, train, user, request, k_neighbors, min_overlap = case
        model = ItemBasedCF(train, k_neighbors=k_neighbors, min_overlap=min_overlap)
        # A repeated id, one of the user's rated items and the item nobody rated.
        rated = int(train.item_ids[train.rated_item_indices(user)[0]])
        request = request + request[:1] + [rated, int(train.item_ids[-1])]
        preds = model.predict_many(user, request)
        for j, pred in zip(request, preds):
            expected = oracle_predict_item_based(ratings, user, j, k_neighbors, min_overlap)
            assert abs(pred - expected) <= 1e-9
        for a, b in itertools.combinations(sorted(set(request)), 2):
            assert model.item_similarity(a, b).hex() == model.item_similarity(b, a).hex()
        assert model.predict_many(user, []).shape == (0,)
        with pytest.raises(KeyError, match="unknown item 4"):
            model.predict_many(user, request + [4])
        with pytest.raises(KeyError, match="unknown item 4"):
            model.item_similarity(request[0], 4)

    def test_top_n_matches_user_based_tie_rules(self, tiny):
        u = tiny.warmest_user()
        model = ItemBasedCF(tiny.train)
        unrated = unrated_of(tiny.train, u)
        got = _rank_candidates(model, tiny.partition, u, unrated, 5)
        assert len(got) == min(5, len(tiny.items) - len(tiny.rated_items_of(u)))
        assert not set(got) & tiny.rated_items_of(u)
        scored = sorted((-predict_one(model, u, j), -tiny.partition.popularity(j), j) for j in unrated)
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
                assert inst.partition.popularity(int(i)) == by_item.get(int(i), 0)

    def test_unknown_ids_raise(self, tiny):
        with pytest.raises(KeyError):
            tiny.train.uidx(10_000)
        with pytest.raises(KeyError):
            tiny.train.item_columns([10_000])

    def test_item_columns_match_catalog_positions(self, tiny):
        catalog = tiny.train.item_ids.tolist()
        ids = catalog[::-1] * 2
        assert tiny.train.item_columns(ids).tolist() == [catalog.index(i) for i in ids]
        for bad in ([10_000], [int(tiny.train.item_ids[0]), 0], [2.5]):
            with pytest.raises(KeyError, match=f"unknown item {bad[-1]}"):
                tiny.train.item_columns(bad)


class TestDuplicatePairs:
    def test_duplicate_pair_is_rejected_naming_it(self):
        # Summed, ratings 5 and 4 would make one 9 and a user mean of 6.
        rows = [Rating(1, 10, 5, 1), Rating(1, 10, 4, 2), Rating(2, 10, 3, 3)]
        with pytest.raises(ValueError, match="duplicate rating for user 1, movie 10"):
            RatingMatrix(Ratings.from_rows(rows))
        with pytest.raises(ValueError, match="duplicate rating for user 7, movie 3"):
            Ratings(user=[7, 2, 7], item=[3, 3, 3], value=[1, 2, 3], timestamp=[0, 0, 0])
        # Id spans too wide to pack a pair into one int64 key.
        with pytest.raises(ValueError, match=f"duplicate rating for user {-(2**62)}, movie 5"):
            Ratings(user=[-(2**62), 2**62, -(2**62)], item=[5, 5, 5], value=[1, 2, 3], timestamp=[0, 0, 0])

    def test_first_bad_row_is_named(self):
        with pytest.raises(ValueError, match="rating value 0 outside"):
            Ratings(user=[1, 1, 1], item=[1, 2, 1], value=[3, 0, 4], timestamp=[0, 0, 0])
        with pytest.raises(ValueError, match="duplicate rating for user 1, movie 1"):
            Ratings(user=[1, 1, 1], item=[1, 1, 2], value=[3, 4, 9], timestamp=[0, 0, 0])
        with pytest.raises(ValueError, match="non-integer"):
            Ratings.from_rows([Rating(1, 1, 2.5, 0)])
        with pytest.raises(ValueError, match="differ in length"):
            Ratings(user=[1], item=[1, 2], value=[3, 3], timestamp=[0, 0])


class TestSimilarityCache:
    def test_cache_stays_bounded_and_eviction_keeps_predictions(self):
        rng = np.random.default_rng(3)
        n_users, n_items = cf.SIM_CACHE_USERS + 20, 12
        rows = [
            Rating(u, i, int(rng.integers(1, 6)), 0)
            for u in range(1, n_users + 1)
            for i in range(1, n_items + 1)
            if rng.random() < 0.6
        ]
        train = RatingMatrix(Ratings.from_rows(rows))
        model = UserBasedCF(train, k_neighbors=5)
        users = [int(u) for u in train.user_ids if train.user_rating_counts[train.uidx(int(u))] > 0]
        items = train.item_ids
        first = {}
        for u in users + users[::-1]:
            got = model.predict_many(u, items)
            assert len(model._sim_cache) <= cf.SIM_CACHE_USERS
            assert next(reversed(model._sim_cache)) == u
            if u in first:
                assert np.array_equal(got, first[u])
            else:
                first[u] = got
                assert np.array_equal(got, UserBasedCF(train, k_neighbors=5).predict_many(u, items))
        assert len(model._sim_cache) == cf.SIM_CACHE_USERS
