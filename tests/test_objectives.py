"""The four list objectives, scalarization, and the pooled evaluation context.

Every objective and the fitness normalization are checked on
`ObjectiveContext`, the one evaluator the optimizer runs.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from longtailrec.dataset import GENRES, Item
from longtailrec.objectives import (
    CandidateList,
    ObjectiveContext,
    ObjectiveWeights,
)

from instances import (
    long_tail_ids,
    make_random_instance,
    partition_counts,
    partition_from_counts,
    pool_context,
)
from oracles import oracle_objective_values


def one_genre_items(ids, genre="Drama") -> dict[int, Item]:
    return {i: Item(item_id=i, title=f"t{i}", genres=frozenset({genre})) for i in ids}


def genre_profile(genre: str) -> np.ndarray:
    pgu = np.zeros(len(GENRES))
    pgu[GENRES.index(genre)] = 1.0
    return pgu


def make_context(
    pool,
    k,
    partition=None,
    preds=None,
    items=None,
    pgu=None,
    target=0,
    weights=None,
) -> ObjectiveContext:
    """A context over `pool`; unset inputs are flat (zero popularity, rating 3,
    one shared genre, uniform profile)."""
    pool = sorted(pool)
    return pool_context(
        pool_items=pool,
        k=k,
        partition=partition or partition_from_counts({i: 0 for i in pool}, head=set()),
        predictions=preds or {i: 3.0 for i in pool},
        items=items or one_genre_items(pool),
        pgu=np.full(len(GENRES), 1 / len(GENRES)) if pgu is None else pgu,
        target_lt=target,
        weights=weights or ObjectiveWeights(),
    )


def encode(ctx: ObjectiveContext, *lists) -> np.ndarray:
    """Index-encode item-id lists against the context's pool."""
    index_of = {int(i): n for n, i in enumerate(ctx.pool_items)}
    return np.array([[index_of[int(i)] for i in lst] for lst in lists], dtype=np.int64)


def objectives_of(ctx: ObjectiveContext, *lists) -> np.ndarray:
    return ctx.objectives(encode(ctx, *lists))


class TestCandidateList:
    def test_duplicate_items_rejected(self):
        lst = CandidateList(user_id=1, items=(1, 2, 2))
        with pytest.raises(ValueError, match="duplicate"):
            lst.validate(frozenset())

    def test_rated_items_rejected(self):
        lst = CandidateList(user_id=1, items=(1, 2, 3))
        with pytest.raises(ValueError, match="rated"):
            lst.validate(frozenset({3}))

    def test_valid_list_passes_and_reports_k(self):
        lst = CandidateList(user_id=1, items=(5, 2, 9))
        lst.validate(frozenset({1}))
        assert lst.k == 3


class TestWeights:
    def test_defaults_are_uniform(self):
        w = ObjectiveWeights()
        assert np.allclose(w.as_array(), 0.25)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(0.5, 0.5, 0.5, 0.5)

    def test_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(-0.5, 0.5, 0.5, 0.5)

    def test_normalized_constructor(self):
        w = ObjectiveWeights.normalized([2, 1, 1, 0])
        assert np.allclose(w.as_array(), [0.5, 0.25, 0.25, 0.0])
        with pytest.raises(ValueError):
            ObjectiveWeights.normalized([0, 0, 0, 0])
        with pytest.raises(ValueError):
            ObjectiveWeights.normalized([1, 1, 1])


class TestLongTailParticipation:
    def test_all_zero_popularity(self):
        part = partition_from_counts({1: 0, 2: 0, 3: 0}, head=set())
        ctx = make_context([1, 2, 3], k=3, partition=part)
        assert objectives_of(ctx, (1, 2, 3))[0, 0] == 0.0

    def test_sums_counts(self):
        part = partition_from_counts({1: 100, 2: 50, 3: 25}, head={1})
        ctx = make_context([1, 2, 3], k=3, partition=part)
        assert objectives_of(ctx, (1, 2, 3))[0, 0] == 175.0

    def test_less_popular_swap_strictly_decreases(self):
        rng = np.random.default_rng(5)
        n_cases = 0
        for _ in range(3000):
            n = int(rng.integers(4, 12))
            counts = {i: int(rng.integers(0, 50)) for i in range(1, n + 1)}
            part = partition_from_counts(counts, head=set())
            k = int(rng.integers(2, n))
            items = tuple(int(i) for i in rng.choice(np.arange(1, n + 1), size=k, replace=False))
            pos = int(rng.integers(k))
            outside = [i for i in counts if i not in set(items)]
            if not outside:
                continue
            repl = int(rng.choice(outside))
            swapped = list(items)
            swapped[pos] = repl
            ctx = make_context(counts, k=k, partition=part)
            base, new = objectives_of(ctx, items, swapped)[:, 0]
            delta = counts[repl] - counts[items[pos]]
            if delta < 0:
                assert new < base
            elif delta == 0:
                assert new == base
            else:
                assert new > base
            n_cases += 1
        assert n_cases >= 2500


class TestAccuracyObjective:
    def test_extremes(self):
        lst = tuple(range(1, 11))
        ctx5 = make_context(lst, k=10, preds={i: 5.0 for i in lst})
        ctx1 = make_context(lst, k=10, preds={i: 1.0 for i in lst})
        assert objectives_of(ctx5, lst)[0, 1] == pytest.approx(0.02)
        assert objectives_of(ctx1, lst)[0, 1] == pytest.approx(0.1)

    def test_higher_prediction_swap_strictly_decreases(self):
        rng = np.random.default_rng(6)
        n_cases = 0
        for _ in range(3000):
            n = int(rng.integers(4, 12))
            preds = {i: float(rng.uniform(1, 5)) for i in range(1, n + 1)}
            k = int(rng.integers(2, n))
            items = tuple(int(i) for i in rng.choice(np.arange(1, n + 1), size=k, replace=False))
            pos = int(rng.integers(k))
            outside = [i for i in preds if i not in set(items)]
            if not outside:
                continue
            repl = int(rng.choice(outside))
            swapped = list(items)
            swapped[pos] = repl
            ctx = make_context(preds, k=k, preds=preds)
            base, new = objectives_of(ctx, items, swapped)[:, 1]
            if preds[repl] > preds[items[pos]]:
                assert new < base
            elif preds[repl] < preds[items[pos]]:
                assert new > base
            n_cases += 1
        assert n_cases >= 2500


class TestQuotaAndGenreBounds:
    def test_quota_examples(self):
        part = partition_from_counts({i: 1 for i in range(1, 11)}, head={1, 2, 3, 4, 5, 6})
        four_lt = (7, 8, 9, 10, 1, 2, 3, 4, 5, 6)
        ctx = make_context(range(1, 11), k=10, partition=part, target=4)
        assert objectives_of(ctx, four_lt)[0, 2] == 0
        all_head = (1, 2, 3, 4, 5, 6)
        ctx = make_context(range(1, 11), k=6, partition=part, target=6)
        assert objectives_of(ctx, all_head)[0, 2] == 6 - 0

    def test_genre_distance_extremes(self):
        items = {
            1: Item(item_id=1, title="a", genres=frozenset({"Comedy"})),
            2: Item(item_id=2, title="b", genres=frozenset({"Action"})),
        }
        ctx = make_context([1, 2], k=1, items=items, pgu=genre_profile("Comedy"))
        only_comedy, only_action = objectives_of(ctx, (1,), (2,))[:, 3]
        assert only_comedy == pytest.approx(0.0)
        assert only_action == pytest.approx(2.0)

    def test_bounds_hold_on_random_lists(self):
        rng = np.random.default_rng(7)
        n_cases = 0
        for seed in range(500):
            inst = make_random_instance(seed=seed, max_users=6, max_items=14)
            ids = sorted(inst.items)
            k = int(rng.integers(1, min(8, len(ids)) + 1))
            items = tuple(int(i) for i in rng.choice(ids, size=k, replace=False))
            target = int(rng.integers(0, k + 1))
            pgu = rng.dirichlet(np.ones(len(GENRES)))
            ctx = make_context(
                ids, k=k, partition=inst.partition, items=inst.items, pgu=pgu, target=target
            )
            row = objectives_of(ctx, items)[0]
            assert 0 <= row[2] <= k
            assert 0.0 <= row[3] <= 2.0 + 1e-12
            n_cases += 1
        assert n_cases == 500


def oracle_fitness(row, pool_pops, pool_preds, k, weights):
    """Weighted sum of the objectives normalized by the bounds any k-subset of
    the pool can reach: popularity and rating sums by enumeration, the quota
    gap in [0, k] and the genre distance in [0, 2]; a flat range scores 0."""
    pop_sums = [sum(c) for c in itertools.combinations(pool_pops, k)]
    acc_values = [1.0 / sum(c) for c in itertools.combinations(pool_preds, k)]
    bounds = [
        (min(pop_sums), max(pop_sums)),
        (min(acc_values), max(acc_values)),
        (0.0, float(k)),
        (0.0, 2.0),
    ]
    total = 0.0
    for value, (lo, hi), w in zip(row, bounds, weights):
        total += w * (0.0 if hi <= lo else (value - lo) / (hi - lo))
    return total


class TestScalarize:
    def test_population_best_and_worst(self):
        # Items 1-3 reach every lower bound together, items 4-6 every upper one.
        counts = {1: 0, 2: 0, 3: 0, 4: 100, 5: 100, 6: 100}
        part = partition_from_counts(counts, head={4, 5, 6})
        preds = {1: 5.0, 2: 5.0, 3: 5.0, 4: 1.0, 5: 1.0, 6: 1.0}
        items = {**one_genre_items([1, 2, 3], "Comedy"), **one_genre_items([4, 5, 6], "Action")}
        ctx = make_context(
            counts, k=3, partition=part, preds=preds, items=items,
            pgu=genre_profile("Comedy"), target=3,
        )
        best, worst = ctx.fitness(encode(ctx, (1, 2, 3), (4, 5, 6)))
        assert best == pytest.approx(0.0)
        assert worst == pytest.approx(1.0)

    def test_flat_component_contributes_zero(self):
        # Equal popularity everywhere: all weight on that component scores 0.
        part = partition_from_counts({i: 10 for i in range(1, 6)}, head=set())
        preds = {i: float(i) for i in range(1, 6)}
        ctx = make_context(
            range(1, 6), k=2, partition=part, preds=preds,
            weights=ObjectiveWeights(1.0, 0.0, 0.0, 0.0),
        )
        fit = ctx.fitness(encode(ctx, *itertools.combinations(range(1, 6), 2)))
        assert (fit == 0.0).all()

    def test_single_component_difference_orders_candidates(self):
        part = partition_from_counts({1: 10, 2: 20, 3: 5}, head=set())
        ctx = make_context([1, 2, 3], k=2, partition=part)
        a, b = ctx.fitness(encode(ctx, (1, 3), (2, 3)))
        assert a < b

    def test_domination_monotonicity_and_oracle_parity(self):
        rng = np.random.default_rng(9)
        n_cases = 0
        for seed in range(4000):
            inst = make_random_instance(seed=seed, max_users=4, max_items=9, min_items=3)
            ids = sorted(inst.items)
            k = int(rng.integers(1, min(4, len(ids)) + 1))
            preds = {i: float(rng.uniform(1, 5)) for i in ids}
            weights = ObjectiveWeights.normalized(rng.uniform(0.01, 1, size=4).tolist())
            ctx = make_context(
                ids, k=k, partition=inst.partition, preds=preds, items=inst.items,
                pgu=rng.dirichlet(np.ones(len(GENRES))), target=int(rng.integers(0, k + 1)),
                weights=weights,
            )
            pop = np.stack([rng.choice(len(ids), size=k, replace=False) for _ in range(2)])
            objs = ctx.objectives(pop)
            fit = ctx.fitness_from_objectives(objs)
            pool_pops = [inst.partition.popularity(i) for i in ids]
            pool_preds = [preds[i] for i in ids]
            for row, f in zip(objs, fit):
                expected = oracle_fitness(
                    row.tolist(), pool_pops, pool_preds, k, weights.as_array().tolist()
                )
                assert f == pytest.approx(expected, abs=1e-9)
            a, b = objs
            lo = np.minimum(a, b)
            f_dom, f_base = ctx.fitness_from_objectives(np.stack([lo, a]))
            assert f_dom <= f_base + 1e-12
            if (a - lo > 1e-9).any():
                assert f_dom < f_base
            n_cases += 1
        assert n_cases == 4000


class TestObjectiveContext:
    def _context(self, inst, rng, weights=None, k=None):
        ids = sorted(inst.items)
        k = k or min(5, len(ids) - 1) or 1
        preds = {i: float(rng.uniform(1, 5)) for i in ids}
        pgu = rng.dirichlet(np.ones(len(GENRES)))
        target = int(rng.integers(0, k + 1))
        ctx = pool_context(
            pool_items=ids,
            k=k,
            partition=inst.partition,
            predictions=preds,
            items=inst.items,
            pgu=pgu,
            target_lt=target,
            weights=weights or ObjectiveWeights(),
        )
        return ctx, preds, pgu, target, ids

    def test_vectorized_objectives_match_scalar_functions(self):
        rng = np.random.default_rng(10)
        n_cases = 0
        for seed in range(400):
            inst = make_random_instance(seed=seed, max_users=5, max_items=14, min_items=3)
            ctx, preds, pgu, target, ids = self._context(inst, rng)
            pop = np.stack(
                [rng.choice(len(ids), size=ctx.k, replace=False) for _ in range(4)]
            )
            objs = ctx.objectives(pop)
            genres = {i: sorted(item.genres) for i, item in inst.items.items()}
            for row, individual in enumerate(pop):
                cand = ctx.candidate(individual)
                expected = oracle_objective_values(
                    list(cand.items),
                    partition_counts(inst.partition),
                    preds,
                    long_tail_ids(inst.partition),
                    target,
                    pgu.tolist(),
                    genres,
                    list(GENRES),
                )
                assert objs[row, 0] == pytest.approx(expected[0], abs=1e-9)
                assert objs[row, 1] == pytest.approx(expected[1], abs=1e-12)
                assert objs[row, 2] == expected[2]
                assert objs[row, 3] == pytest.approx(expected[3], abs=1e-12)
                n_cases += 1
        assert n_cases >= 1500

    def test_fitness_uses_fixed_pool_extremal_bounds(self):
        rng = np.random.default_rng(11)
        inst = make_random_instance(seed=77, max_users=5, max_items=14, min_items=6)
        ctx, *_ = self._context(inst, rng)
        pop = np.stack([rng.choice(len(ctx.pool_items), size=ctx.k, replace=False) for _ in range(16)])
        fit = ctx.fitness(pop)
        assert ((fit >= -1e-9) & (fit <= 1.0 + 1e-9)).all()
        # bounds do not move when evaluating a different population subset
        assert np.allclose(ctx.fitness(pop[:3]), fit[:3], atol=0)

    def test_pool_validation(self, rng):
        inst = make_random_instance(seed=3, max_users=5, max_items=10, min_items=4)
        ids = sorted(inst.items)
        preds = {i: 3.0 for i in ids}
        common = dict(
            k=2,
            partition=inst.partition,
            predictions=preds,
            items=inst.items,
            pgu=np.full(len(GENRES), 1 / len(GENRES)),
            target_lt=1,
            weights=ObjectiveWeights(),
        )
        with pytest.raises(ValueError, match="duplicate"):
            pool_context(pool_items=[ids[0], ids[0], ids[1]], **common)
        with pytest.raises(ValueError, match="cannot fill"):
            pool_context(pool_items=ids[:1], **common)
        with pytest.raises(ValueError, match="aligned"):
            ObjectiveContext(
                user_id=1, pool_items=ids[:3], k=2, popularity=np.zeros(3), predictions=np.ones(2),
                long_tail=np.zeros(3, dtype=bool), genres=np.ones((3, len(GENRES))),
                pgu=common["pgu"], target_lt=1, weights=ObjectiveWeights(),
            )

    def test_candidate_and_vector_round_trip(self, rng):
        inst = make_random_instance(seed=21, max_users=5, max_items=12, min_items=5)
        ctx, preds, pgu, target, ids = self._context(inst, rng)
        individual = np.arange(ctx.k)
        cand = ctx.candidate(individual)
        assert list(cand.items) == [int(ctx.pool_items[i]) for i in individual]
        vec = ctx.vector(individual)
        assert vec.as_array() == pytest.approx(ctx.objectives(individual[None, :])[0])
