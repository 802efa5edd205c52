"""Serving history, injection seeding, variation operators, and the per-user
memetic optimization loop."""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtailrec.cf import ColdUserError, UserBasedCF
from longtailrec.dataset import GENRES
from longtailrec.harness import _write_traces_csv
from longtailrec import memetic
from longtailrec.memetic import (
    GenerationTrace,
    InjectionParams,
    MemeticConfig,
    OptimizationResult,
    ServingHistory,
    _crossover_batch,
    _local_search_batch,
    _mutate_batch,
    initialize_population,
    inject_items,
    injection_probability,
    optimize_user,
    same_age_item_means,
)
from longtailrec.objectives import ObjectiveContext, ObjectiveWeights
from longtailrec.profiles import build_age_genre_profiles, build_dynamics_curves

from instances import long_tail_ids, make_random_instance, partition_counts, pool_context
from oracles import oracle_objective_values


class TestServingHistory:
    def test_counts_increment(self):
        h = ServingHistory()
        assert h.times_served(7) == 0
        h.record_served([7, 9])
        assert h.times_served(7) == 1
        h.record_served([7])
        assert h.times_served(7) == 2
        assert h.times_served(9) == 1
        assert h.as_dict() == {7: 2, 9: 1}

    def test_array_reads_match_scalar_reads(self):
        h = ServingHistory({3: 4, 8: 1})
        assert h.times_served(np.array([8, 5, 3, 3])).tolist() == [1, 0, 4, 4]
        assert h.times_served(np.array([], dtype=np.int64)).size == 0

    def test_negative_count_rejected_and_zero_dropped(self):
        with pytest.raises(ValueError, match="negative"):
            ServingHistory({1: -1})
        assert ServingHistory({1: 0, 2: 3}).as_dict() == {2: 3}

    def test_csv_round_trip(self, tmp_path):
        h = ServingHistory({10: 2, 4: 7})
        path = tmp_path / "history.csv"
        h.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["item_id"]), int(r["count"])) for r in rows] == [(4, 7), (10, 2)]


class TestInjectionProbability:
    def test_top_rated_unserved_item_is_certain(self):
        assert injection_probability(1, 5.0, ServingHistory()) == 1.0

    def test_unrated_item_is_never_injected(self):
        assert injection_probability(1, 0.0, ServingHistory()) == 0.0

    def test_exponential_decay_in_serving_count(self):
        h = ServingHistory({1: 10})
        assert injection_probability(1, 5.0, h, a=0.1) == pytest.approx(math.exp(-1.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="decay"):
            injection_probability(1, 3.0, ServingHistory(), a=0.0)
        with pytest.raises(ValueError, match="mean rating"):
            injection_probability(1, 5.5, ServingHistory())
        with pytest.raises(ValueError, match="mean rating"):
            injection_probability(1, -0.1, ServingHistory())

    def test_array_call_equals_scalar_calls_bit_for_bit(self):
        history = ServingHistory({i: i * 37 % 400 for i in range(1, 300)})
        ids = np.arange(1, 400)
        means = np.random.default_rng(5).uniform(0.0, 5.0, size=ids.size)
        for a in (0.1, 0.37, 1.0):
            got = injection_probability(ids, means, history, a)
            want = [injection_probability(int(i), float(m), history, a) for i, m in zip(ids, means)]
            assert [p.hex() for p in got.tolist()] == [p.hex() for p in want]
        with pytest.raises(ValueError, match="mean rating"):
            injection_probability(ids[:2], [1.0, float("nan")], history)

    def test_strictly_monotone_in_serving_count_and_rating(self):
        rng = np.random.default_rng(13)
        n_cases = 0
        for _ in range(10_000):
            m = float(rng.uniform(0.05, 5.0))
            a = float(rng.uniform(0.01, 1.0))
            n = int(rng.integers(0, 30))
            p_now = injection_probability(1, m, ServingHistory({1: n} if n else None), a)
            p_next = injection_probability(1, m, ServingHistory({1: n + 1}), a)
            assert 0.0 <= p_next < p_now <= 1.0
            m_hi = float(rng.uniform(m, 5.0))
            if m_hi > m:
                h = ServingHistory({1: n} if n else None)
                assert injection_probability(1, m_hi, h, a) > p_now
            n_cases += 1
        assert n_cases == 10_000


def bag_arrays(bag: dict[int, float]) -> tuple[list[int], list[float]]:
    """A bag as the aligned (item ids, same-age means) that inject_items takes."""
    return list(bag), list(bag.values())


class CountingRng:
    """A generator that counts the uniform item draws made through it."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs)


@st.composite
def injection_cases(draw):
    ids = draw(st.lists(st.integers(1, 200), min_size=1, max_size=30, unique=True))
    means = draw(st.lists(
        st.sampled_from([0.0, 0.5, 2.5, 5.0]) | st.floats(0.0, 5.0),
        min_size=len(ids), max_size=len(ids),
    ))
    served = draw(st.dictionaries(st.sampled_from(ids), st.integers(1, 60), max_size=len(ids)))
    params = InjectionParams(
        a=draw(st.floats(0.01, 2.0)),
        pool_size=draw(st.integers(1, 40)),
        attempt_budget_factor=draw(st.integers(1, 5)),
    )
    return ids, means, ServingHistory(served), params, draw(st.integers(0, 2**32 - 1))


class TestInjectItemsProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(injection_cases())
    def test_distinct_bag_ids_within_the_draw_budget(self, case):
        ids, means, history, params, seed = case
        rng = CountingRng(seed)
        got = inject_items(ids, means, params, history, rng)
        assert len(got) == len(set(got)) <= params.pool_size
        assert set(got) <= set(ids)
        assert rng.draws <= params.attempt_budget_factor * params.pool_size
        assert all(isinstance(i, int) for i in got)

    @settings(max_examples=100, deadline=None, database=None)
    @given(injection_cases())
    def test_all_zero_means_inject_nothing(self, case):
        ids, _, history, params, seed = case
        rng = CountingRng(seed)
        assert inject_items(ids, [0.0] * len(ids), params, history, rng) == []
        assert rng.draws == params.attempt_budget_factor * params.pool_size


class TestInjectItems:
    def test_certain_bag_fills_target(self, rng):
        bag = {i: 5.0 for i in range(1, 21)}
        got = inject_items(*bag_arrays(bag), InjectionParams(pool_size=10), ServingHistory(), rng)
        assert len(got) == 10
        assert len(set(got)) == 10
        assert set(got) <= set(bag)

    def test_zero_probability_bag_terminates_empty(self, rng):
        bag = {i: 0.0 for i in range(1, 6)}
        got = inject_items(*bag_arrays(bag), InjectionParams(pool_size=3), ServingHistory(), rng)
        assert got == []

    def test_only_certain_item_is_ever_chosen(self):
        bag = {1: 5.0, 2: 0.0}
        for seed in range(200):
            got = inject_items(
                *bag_arrays(bag),
                InjectionParams(pool_size=5),
                ServingHistory(),
                np.random.default_rng(seed),
                target_count=1,
            )
            assert got == [1]

    def test_bag_smaller_than_target_returns_whole_bag(self, rng):
        bag = {i: 5.0 for i in (3, 8, 11)}
        got = inject_items(*bag_arrays(bag), InjectionParams(pool_size=10), ServingHistory(), rng)
        assert sorted(got) == [3, 8, 11]

    def test_input_validation(self, rng):
        with pytest.raises(ValueError, match="empty"):
            inject_items([], [], InjectionParams(), ServingHistory(), rng)
        with pytest.raises(ValueError, match="target_count"):
            inject_items([1], [5.0], InjectionParams(), ServingHistory(), rng, target_count=0)
        with pytest.raises(ValueError, match="same-age means"):
            inject_items([1, 2], [5.0], InjectionParams(), ServingHistory(), rng)
        with pytest.raises(ValueError, match="repeats"):
            inject_items([4, 2, 4], [5.0, 1.0, 2.0], InjectionParams(), ServingHistory(), rng)

    def test_bag_order_does_not_change_the_draws(self):
        ids = np.array([40, 3, 17, 8, 25, 11])
        means = np.array([4.0, 1.5, 3.0, 5.0, 0.5, 2.0])
        perm = np.random.default_rng(3).permutation(ids.size)
        for seed in range(50):
            a = inject_items(ids, means, InjectionParams(pool_size=4), ServingHistory(), np.random.default_rng(seed))
            b = inject_items(ids[perm], means[perm], InjectionParams(pool_size=4), ServingHistory(),
                             np.random.default_rng(seed))
            assert a == b

    def test_results_distinct_and_from_bag(self):
        master = np.random.default_rng(14)
        for seed in range(300):
            rng = np.random.default_rng(seed)
            ids = master.choice(np.arange(1, 60), size=int(master.integers(1, 20)), replace=False)
            bag = {int(i): float(master.uniform(0, 5)) for i in ids}
            target = int(master.integers(1, 12))
            got = inject_items(*bag_arrays(bag), InjectionParams(pool_size=target), ServingHistory(), rng)
            assert len(got) == len(set(got))
            assert set(got) <= set(bag)
            assert len(got) <= target

    def test_single_draw_acceptance_frequency(self):
        # one attempt per call: acceptance rate must track the probability
        params = InjectionParams(a=0.1, pool_size=1, attempt_budget_factor=1)
        accepted = sum(
            bool(
                inject_items([1], [2.5], params, ServingHistory(), np.random.default_rng(s), 1)
            )
            for s in range(2000)
        )
        rate = accepted / 2000
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / 2000)

    def test_serving_decay_suppresses_acceptance_frequency(self):
        params = InjectionParams(a=0.1, pool_size=1, attempt_budget_factor=1)
        history = ServingHistory({1: 10})
        accepted = sum(
            bool(inject_items([1], [5.0], params, history, np.random.default_rng(s), 1))
            for s in range(2000)
        )
        p = math.exp(-1.0)
        assert abs(accepted / 2000 - p) < 3 * math.sqrt(p * (1 - p) / 2000)


class TestInitializePopulation:
    def test_pool_of_exactly_k_yields_identical_sets(self, rng):
        population = initialize_population([5, 2, 9], [], k=3, population_size=20, rng=rng)
        assert len(population) == 20
        for individual in population:
            assert set(individual) == {2, 5, 9}

    def test_union_smaller_than_k_rejected(self, rng):
        with pytest.raises(ValueError, match="distinct candidate"):
            initialize_population([1], [2], k=3, population_size=5, rng=rng)

    def test_no_injected_items_uses_top_pool_only(self, rng):
        population = initialize_population([], [4, 7, 1, 3], k=2, population_size=30, rng=rng)
        for individual in population:
            assert set(individual) <= {1, 3, 4, 7}
            assert len(set(individual)) == 2

    def test_deterministic_for_fixed_seed(self):
        args = ([3, 1, 8], [9, 2, 5, 7], 3, 40)
        a = initialize_population(*args, rng=np.random.default_rng(99))
        b = initialize_population(*args, rng=np.random.default_rng(99))
        assert a.dtype == np.int64 and a.shape == (40, 3)
        assert np.array_equal(a, b)

    def test_individuals_valid_in_bulk(self):
        master = np.random.default_rng(15)
        n_individuals = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            all_ids = master.choice(np.arange(1, 80), size=24, replace=False)
            n_inj = int(master.integers(0, 9))
            n_top = int(master.integers(0, 13))
            injected = [int(i) for i in all_ids[:n_inj]]
            top = [int(i) for i in all_ids[8 : 8 + n_top]]
            union = set(injected) | set(top)
            if not union:
                continue
            k = int(master.integers(1, min(6, len(union)) + 1))
            population = initialize_population(injected, top, k, 100, rng)
            for individual in population:
                assert len(individual) == k
                assert len(set(individual)) == k
                assert set(individual) <= union
                n_individuals += 1
        assert n_individuals >= 9000

    def test_matches_per_row_reference(self):
        """Given the same uniforms, the same population as a per-row loop:
        round(ratio * k) injected items (at most all), then top items not in
        the row while any are left, then leftover injected items; each pick
        is ``options[⌊u·len(options)⌋]`` over the sorted ids it may take."""

        def reference(injected, top, k, n, rng):
            injected, top = set(injected), set(top)
            draws = rng.random((n, k + 1))
            population = []
            for ratio, *picks in draws:
                n_inj = min(len(injected), int(round(ratio * k)))
                row: list[int] = []
                for j, u in enumerate(picks):
                    free_top = sorted(top - set(row))
                    options = free_top if j >= n_inj and free_top else sorted(injected - set(row))
                    row.append(options[int(u * len(options))])
                population.append(row)
            return np.array(population, dtype=np.int64).reshape(n, k)

        master = np.random.default_rng(19)
        n_cases = 0
        while n_cases < 500:
            ids = master.choice(np.arange(-5, 40), size=30, replace=False)
            injected = ids[: int(master.integers(0, 12))]
            top = ids[int(master.integers(0, 12)) :][: int(master.integers(0, 12))]
            n_union = np.union1d(injected, top).size
            if n_union == 0:
                continue
            k = int(master.integers(1, min(8, n_union) + 1))
            args = (injected.tolist(), top.tolist(), k, int(master.integers(1, 20)))
            seed = int(master.integers(2**32))
            got = initialize_population(*args, rng=np.random.default_rng(seed))
            assert np.array_equal(got, reference(*args, np.random.default_rng(seed)))
            n_cases += 1


def random_rows(rng, n, k, n_pool):
    """n rows of k distinct pool indices."""
    return np.stack([rng.choice(n_pool, size=k, replace=False) for _ in range(n)]).astype(np.int64)


def assert_valid_rows(rows, k, n_pool):
    assert rows.dtype == np.int64 and rows.shape[1] == k
    assert ((rows >= 0) & (rows < n_pool)).all()
    assert (np.diff(np.sort(rows, axis=1), axis=1) > 0).all()


class TestCrossover:
    def test_identical_parents_pass_through(self, rng):
        parent = np.array([[4, 9, 2]])
        child = _crossover_batch(parent, parent, np.array([True]), rng)
        assert child.tolist() == parent.tolist()

    def test_children_valid_and_closed_over_parent_union(self):
        master = np.random.default_rng(16)
        cases: dict[int, list] = {}
        for _ in range(10_000):
            k = int(master.integers(2, 7))
            pa = master.choice(12, size=k, replace=False)
            pb = master.choice(12, size=k, replace=False)
            cases.setdefault(k, []).append((pa, pb))
        n_cases = 0
        for k, pairs in cases.items():
            pa = np.array([a for a, _ in pairs], dtype=np.int64)
            pb = np.array([b for _, b in pairs], dtype=np.int64)
            children = _crossover_batch(pa, pb, np.ones(len(pairs), dtype=bool), master)
            assert_valid_rows(children, k, 12)
            for child, a, b in zip(children, pa, pb):
                assert set(child) <= set(a) | set(b)
                n_cases += 1
        assert n_cases == 10_000


class TestMutate:
    def test_rate_zero_is_identity(self, rng):
        assert _mutate_batch(np.array([[3, 1, 4]]), 5, 0.0, rng).tolist() == [[3, 1, 4]]

    def test_no_legal_replacement_is_identity(self, rng):
        assert _mutate_batch(np.array([[2, 0, 1]]), 3, 1.0, rng).tolist() == [[2, 0, 1]]

    def test_mutants_valid_in_bulk(self):
        master = np.random.default_rng(17)
        n_cases = 0
        for _ in range(5000):
            k = int(master.integers(2, 7))
            individual = master.choice(12, size=k, replace=False)[None, :]
            rate = float(master.uniform(0, 1))
            assert_valid_rows(_mutate_batch(individual, 12, rate, master), k, 12)
            n_cases += 1
        assert n_cases == 5000

    def test_replacement_matches_mask_reference(self):
        """Given the same uniforms, the same mutants as a per-row loop that
        picks ``np.flatnonzero(free_mask)[⌊u·n_free⌋]`` hit by hit."""

        def reference(population, n_pool, rate, rng):
            pop = population.copy()
            hit_u, pick_u = rng.random((2,) + pop.shape)
            for row, hits, picks in zip(pop, hit_u < rate, pick_u):
                for pos in np.flatnonzero(hits):
                    free_mask = np.ones(n_pool, dtype=bool)
                    free_mask[row] = False
                    options = np.flatnonzero(free_mask)
                    if options.size:
                        row[pos] = options[int(picks[pos] * options.size)]
            return pop

        master = np.random.default_rng(18)
        for case in range(2000):
            n_pool = int(master.integers(3, 15))
            k = int(master.integers(1, n_pool + 1))
            population = random_rows(master, int(master.integers(1, 9)), k, n_pool)
            rate = float(master.uniform(0, 1))
            rng_a = np.random.default_rng(case)
            rng_b = np.random.default_rng(case)
            got = _mutate_batch(population, n_pool, rate, rng_a)
            assert np.array_equal(got, reference(population, n_pool, rate, rng_b))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_replacement_is_uniform_over_free_indices(self):
        """Chi-square over the first hit of 16,000 copies of one row: each of
        the 8 free indices is equally likely (critical value 24.32, 7 degrees
        of freedom, level 0.001)."""
        row = np.array([3, 7, 0, 9])
        population = np.tile(row, (16_000, 1))
        mutants = _mutate_batch(population, 12, 1.0, np.random.default_rng(41))
        free = np.setdiff1d(np.arange(12), row)
        observed = np.array([(mutants[:, 0] == i).sum() for i in free])
        assert observed.sum() == len(population)
        expected = len(population) / free.size
        assert ((observed - expected) ** 2 / expected).sum() < 24.32


@st.composite
def parent_rows(draw):
    n_pool = draw(st.integers(1, 40))
    k = draw(st.integers(1, n_pool))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, n_pool, k, random_rows(rng, n, k, n_pool), random_rows(rng, n, k, n_pool)


class TestBatchedOperatorProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(parent_rows(), st.data())
    def test_crossover_children(self, case, data):
        rng, n_pool, k, pa, pb = case
        n = len(pa)
        do_crossover = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        same = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        pb[same] = pa[same]
        children = _crossover_batch(pa, pb, do_crossover, rng)
        assert_valid_rows(children, k, n_pool)
        for child, a, b in zip(children, pa, pb):
            assert set(child) <= set(a) | set(b)
        passed = ~do_crossover | same
        assert np.array_equal(children[passed], pa[passed])

    @settings(max_examples=300, deadline=None, database=None)
    @given(parent_rows(), st.floats(0.0, 1.0))
    def test_mutants(self, case, rate):
        rng, n_pool, k, population, _ = case
        mutants = _mutate_batch(population, n_pool, rate, rng)
        assert_valid_rows(mutants, k, n_pool)
        if n_pool == k:
            assert np.array_equal(mutants, population)


def small_context(inst, rng, k=3):
    ids = sorted(inst.items)
    preds = {i: float(rng.uniform(1, 5)) for i in ids}
    return pool_context(
        pool_items=ids,
        k=k,
        partition=inst.partition,
        predictions=preds,
        items=inst.items,
        pgu=rng.dirichlet(np.ones(len(GENRES))),
        target_lt=int(rng.integers(0, k + 1)),
        weights=ObjectiveWeights(),
    )


class TestLocalSearch:
    def test_zero_trials_is_identity(self, rng):
        inst = make_random_instance(seed=40, max_users=4, max_items=12, min_items=6)
        ctx = small_context(inst, rng)
        pop = np.stack([rng.choice(len(ctx.pool_items), size=3, replace=False) for _ in range(4)])
        assert np.array_equal(_local_search_batch(pop, ctx, 0, rng), pop)

    def test_never_worsens_fitness_and_stays_valid(self):
        master = np.random.default_rng(18)
        n_proposals = 0
        for seed in range(300):
            inst = make_random_instance(seed=seed, max_users=4, max_items=12, min_items=5)
            k = min(3, len(inst.items) - 1) or 1
            ctx = small_context(inst, master, k=k)
            pop = np.stack(
                [master.choice(len(ctx.pool_items), size=k, replace=False) for _ in range(8)]
            )
            before = ctx.fitness(pop)
            after_pop = _local_search_batch(pop, ctx, 5, master)
            after = ctx.fitness(after_pop)
            assert (after <= before + 1e-12).all()
            for row in after_pop:
                assert len(set(int(i) for i in row)) == k
                assert (row >= 0).all() and (row < len(ctx.pool_items)).all()
            n_proposals += 5 * 8
        assert n_proposals == 12_000


    def test_one_draw_call_equals_per_trial_draws(self):
        for seed in range(50):
            for n_pool, k, n, trials in ((40, 10, 98, 20), (1, 1, 5, 3), (7, 3, 1, 4)):
                for pre_draws in range(3):
                    # Odd 32-bit draws leave half a uint64 in the generator's buffer.
                    rng_a = np.random.default_rng(seed)
                    rng_b = np.random.default_rng(seed)
                    for rng in (rng_a, rng_b):
                        rng.integers(0, 10, size=pre_draws)
                    highs = np.empty((trials, 2, n), dtype=np.int64)
                    highs[:, 0] = k
                    highs[:, 1] = n_pool
                    hoisted = rng_a.integers(0, highs)
                    per_trial = np.array(
                        [[rng_b.integers(k, size=n), rng_b.integers(n_pool, size=n)] for _ in range(trials)]
                    )
                    assert np.array_equal(hoisted, per_trial)
                    assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_incremental_swaps_match_full_evaluation(self):
        """The former loop, which evaluated every swap with ``ctx.fitness``,
        gives the same population and leaves the generator in the same state."""

        def full_evaluation(population, ctx, trials, rng):
            pop = population.copy()
            n, k = pop.shape
            fitness = ctx.fitness(pop)
            rows = np.arange(n)
            for _ in range(trials):
                positions = rng.integers(k, size=n)
                replacements = rng.integers(len(ctx.pool_items), size=n)
                candidate = pop.copy()
                candidate[rows, positions] = replacements
                duplicated = (candidate == replacements[:, None]).sum(axis=1) > 1
                cand_fitness = ctx.fitness(candidate)
                accept = ~duplicated & (cand_fitness < fitness)
                pop[accept] = candidate[accept]
                fitness[accept] = cand_fitness[accept]
            return pop

        master = np.random.default_rng(29)
        for seed in range(200):
            inst = make_random_instance(seed=seed, max_users=4, max_items=30, min_items=8)
            k = int(master.integers(1, 6))
            ids = sorted(inst.items)
            # One-decimal predictions make lists whose exact sums tie but
            # whose float sums depend on the order they are added in.
            ctx = pool_context(
                pool_items=ids,
                k=k,
                partition=inst.partition,
                predictions={i: float(master.integers(10, 50)) / 10 for i in ids},
                items=inst.items,
                pgu=master.dirichlet(np.ones(len(GENRES))),
                target_lt=int(master.integers(0, k + 1)),
                weights=ObjectiveWeights(0.0, 1.0, 0.0, 0.0) if seed % 2 else ObjectiveWeights(),
            )
            pop = np.stack(
                [master.choice(len(ctx.pool_items), size=k, replace=False) for _ in range(12)]
            )
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            got = _local_search_batch(pop, ctx, 6, rng_a)
            assert np.array_equal(got, full_evaluation(pop, ctx, 6, rng_b))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestSameAgeItemMeans:
    def test_matches_recount(self):
        n_checked = 0
        for seed in range(200):
            inst = make_random_instance(seed=seed)
            means = same_age_item_means(inst.train, inst.users)
            by_age: dict[int, dict[int, list[int]]] = {}
            for r in inst.ratings:
                age = inst.users[r.user_id].age_group
                by_age.setdefault(age, {}).setdefault(r.item_id, []).append(r.value)
            for age, got in means.items():
                for col, item_id in enumerate(inst.train.item_ids):
                    values = by_age.get(age, {}).get(int(item_id))
                    expected = sum(values) / len(values) if values else 0.0
                    assert got[col] == pytest.approx(expected, abs=1e-12)
                    n_checked += 1
        assert n_checked >= 2000


def optimizer_setup(inst, k=3, **overrides):
    kwargs = dict(
        train=inst.train,
        users=inst.users,
        item_genres=inst.item_genres,
        partition=inst.partition,
        model=UserBasedCF(inst.train),
        profiles=build_age_genre_profiles(inst.train, inst.users, inst.item_genres),
        curves=build_dynamics_curves(inst.ratings, inst.users, inst.partition, n_bins=2),
        classifier=None,
        history=ServingHistory(),
        k=k,
        config=MemeticConfig(population_size=10, generations=5, elitism_count=2, rng_seed=1),
        weights=ObjectiveWeights(),
        injection=InjectionParams(pool_size=max(5, k)),
        age_source="actual",
        min_train_ratings=1,
    )
    kwargs.update(overrides)
    return kwargs


def pick_user(inst, k=3):
    """A user with at least one rating and at least k unrated catalog items."""
    for u in sorted(inst.users):
        n_rated = inst.train.rated_item_indices(u).size
        if n_rated >= 1 and len(inst.items) - n_rated >= k:
            return u
    return None


class TestOptimizeUser:
    def test_deterministic_for_fixed_seed(self):
        inst = make_random_instance(seed=50, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        results = [
            optimize_user(user, **optimizer_setup(inst), rng=np.random.default_rng(7))
            for _ in range(2)
        ]
        assert results[0].best.items == results[1].best.items
        assert results[0].fitness == results[1].fitness
        assert results[0].trace == results[1].trace

    def test_zero_generations_returns_seed_best(self):
        inst = make_random_instance(seed=51, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        kwargs = optimizer_setup(inst)
        kwargs["config"] = MemeticConfig(population_size=10, generations=0, rng_seed=3)
        result = optimize_user(user, **kwargs)
        assert len(result.trace) == 1
        assert result.trace[0].generation == 0
        assert result.fitness == result.trace[0].best_fitness

    def test_best_list_valid_and_objectives_recount(self):
        n_checked = 0
        for seed in range(60):
            inst = make_random_instance(seed=seed, max_users=8, max_items=15, min_items=8)
            user = pick_user(inst)
            if user is None:
                continue
            kwargs = optimizer_setup(inst)
            result = optimize_user(user, **kwargs, rng=np.random.default_rng(seed))
            rated = inst.rated_items_of(user)
            assert len(result.best.items) == 3
            assert len(set(result.best.items)) == 3
            assert not set(result.best.items) & rated
            assert set(result.best.items) <= set(inst.items)
            # recount the reported objective vector from first principles
            preds = kwargs["model"].predict_many(user, np.array(result.best.items))
            pred_map = {int(i): float(p) for i, p in zip(result.best.items, preds)}
            pgu = kwargs["profiles"][result.age_group].pgu
            genres = {i: sorted(it.genres) for i, it in inst.items.items()}
            expected = oracle_objective_values(
                list(result.best.items),
                partition_counts(inst.partition),
                pred_map,
                long_tail_ids(inst.partition),
                result.target_long_tail,
                pgu.tolist(),
                genres,
                list(GENRES),
            )
            assert np.allclose(result.objectives.as_array(), expected, atol=1e-9)
            # trace never worsens
            best_values = [t.best_fitness for t in result.trace]
            assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(best_values, best_values[1:]))
            n_checked += 1
        assert n_checked >= 40

    def test_elite_fitness_never_increases_across_many_runs(self):
        n_transitions = 0
        for seed in range(150):
            inst = make_random_instance(seed=1000 + seed, max_users=8, max_items=15, min_items=8)
            user = pick_user(inst)
            if user is None:
                continue
            kwargs = optimizer_setup(inst)
            kwargs["config"] = MemeticConfig(
                population_size=10, generations=8, elitism_count=2, rng_seed=seed
            )
            # the loop itself raises RuntimeError on any elite regression
            result = optimize_user(user, **kwargs, rng=np.random.default_rng(seed))
            best_values = [t.best_fitness for t in result.trace]
            for b1, b2 in zip(best_values, best_values[1:]):
                assert b2 <= b1 + 1e-9
                n_transitions += 1
        assert n_transitions >= 1000

    def test_elite_regression_error_names_the_user(self, monkeypatch):
        inst = make_random_instance(seed=52, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        # Each evaluation after the first scores one unit worse (fitness lies
        # in [0, 1]), so even the kept elites seem to regress at generation 1.
        calls = itertools.count()
        evaluate = ObjectiveContext.fitness
        monkeypatch.setattr(
            ObjectiveContext, "fitness", lambda ctx, pop: evaluate(ctx, pop) + next(calls)
        )
        kwargs = optimizer_setup(inst)
        kwargs["config"] = MemeticConfig(
            population_size=10, generations=1, elitism_count=2, rng_seed=1
        )
        with pytest.raises(RuntimeError, match=f"for user {user} at generation 1"):
            optimize_user(user, **kwargs)

    def test_no_elites_may_regress_without_error(self):
        regressions = 0
        for seed in range(20):
            inst = make_random_instance(seed=seed, max_users=6, max_items=15, min_items=10)
            user = pick_user(inst)
            if user is None:
                continue
            kwargs = optimizer_setup(inst)
            kwargs["config"] = MemeticConfig(
                population_size=6,
                generations=8,
                mutation_rate=0.5,
                local_search_trials=0,
                elitism_count=0,
                rng_seed=seed,
            )
            result = optimize_user(user, **kwargs)
            best = [g.best_fitness for g in result.trace]
            regressions += any(b > a + 1e-9 for a, b in zip(best, best[1:]))
        assert regressions > 0

    def test_cold_and_unknown_users_rejected(self):
        inst = make_random_instance(seed=52, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        kwargs = optimizer_setup(inst)
        with pytest.raises(ColdUserError):
            optimize_user(99_999, **kwargs)
        kwargs_cold = optimizer_setup(inst, min_train_ratings=10_000)
        with pytest.raises(ColdUserError):
            optimize_user(user, **kwargs_cold)

    def test_universe_too_small_rejected(self):
        inst = make_random_instance(seed=53, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        rated = sorted(inst.rated_items_of(user))
        unrated = sorted(set(inst.items) - set(rated))
        kwargs = optimizer_setup(inst)
        with pytest.raises(ValueError, match="candidate items"):
            optimize_user(user, **kwargs, candidate_items=unrated[:2])

    def test_unknown_candidate_items_rejected(self):
        inst = make_random_instance(seed=54, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        bogus = [max(inst.items) + i for i in (1, 2, 3, 4)]
        with pytest.raises(ValueError, match="not in catalog"):
            optimize_user(user, **optimizer_setup(inst), candidate_items=bogus)

    def test_rated_candidates_are_excluded(self):
        inst = make_random_instance(seed=55, max_users=6, max_items=15, min_items=12)
        user = pick_user(inst)
        rated = sorted(inst.rated_items_of(user))
        universe = sorted(inst.items)  # includes rated items on purpose
        result = optimize_user(
            user, **optimizer_setup(inst), candidate_items=universe, rng=np.random.default_rng(5)
        )
        assert not set(result.best.items) & set(rated)

    def test_injection_pool_must_cover_list_length(self):
        inst = make_random_instance(seed=56, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        kwargs = optimizer_setup(inst, injection=InjectionParams(pool_size=2))
        with pytest.raises(ValueError, match="pool_size"):
            optimize_user(user, **kwargs)

    def test_age_source_validation(self):
        inst = make_random_instance(seed=57, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        with pytest.raises(ValueError, match="age_source"):
            optimize_user(user, **optimizer_setup(inst, age_source="guess"))
        with pytest.raises(ValueError, match="classifier"):
            optimize_user(user, **optimizer_setup(inst, age_source="predicted", classifier=None))

    def test_injection_scope_validation(self):
        inst = make_random_instance(seed=56, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        with pytest.raises(ValueError, match="injection_scope"):
            optimize_user(user, **optimizer_setup(inst), injection_scope="everything")

    def test_catalog_scope_widens_injection_bag_to_short_head(self):
        """Opening the bag to the whole universe lets injection accept items
        beyond the long-tail set, while the default scope stays bounded by the
        long-tail count of the user's candidates."""
        small_cfg = MemeticConfig(
            population_size=10, generations=2, elitism_count=2, rng_seed=1, top_pool_size=3
        )
        n_checked = 0
        n_wider = 0
        for seed in range(300, 340):
            inst = make_random_instance(seed=seed, max_users=10, max_items=15, min_items=10)
            user = pick_user(inst)
            if user is None:
                continue
            unrated = set(inst.items) - inst.rated_items_of(user)
            n_lt = int(inst.partition.is_long_tail(sorted(unrated)).sum())
            try:
                result_cat = optimize_user(
                    user,
                    **optimizer_setup(
                        inst, config=small_cfg, injection=InjectionParams(pool_size=len(unrated))
                    ),
                    injection_scope="catalog",
                    rng=np.random.default_rng(seed),
                )
                result_lt = optimize_user(
                    user,
                    **optimizer_setup(
                        inst, config=small_cfg, injection=InjectionParams(pool_size=len(unrated))
                    ),
                    rng=np.random.default_rng(seed),
                )
            except ValueError:
                continue  # candidate pool too small to fill a list
            n_checked += 1
            assert result_lt.n_injected <= n_lt
            assert result_cat.n_injected <= len(unrated)
            if result_cat.n_injected > result_lt.n_injected:
                n_wider += 1
        assert n_checked >= 30
        assert n_wider >= 5

    def test_ablation_mode_skips_injection(self):
        inst = make_random_instance(seed=58, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        result = optimize_user(
            user,
            **optimizer_setup(inst, use_injection=False),
            rng=np.random.default_rng(9),
        )
        assert result.n_injected == 0
        assert len(set(result.best.items)) == 3

    def test_actual_age_group_is_reported(self):
        inst = make_random_instance(seed=59, max_users=6, max_items=15, min_items=10)
        user = pick_user(inst)
        result = optimize_user(user, **optimizer_setup(inst), rng=np.random.default_rng(4))
        assert result.age_group == inst.users[user].age_group
        assert 0 <= result.target_long_tail <= 3
        assert result.pool_size >= 3


def test_trace_lines_format(tmp_path):
    trace = (GenerationTrace(0, 0.5, 0.75), GenerationTrace(1, 0.25, 0.5))
    result = OptimizationResult(
        user_id=3, best=None, objectives=None, fitness=0.25, trace=trace,
        age_group=1, target_long_tail=0, pool_size=3, n_injected=0,
    )
    path = tmp_path / "traces.csv"
    _write_traces_csv(path, {3: result})
    assert path.read_text().splitlines() == [
        "user_id,generation,best_fitness,mean_fitness",
        "3,0,0.5,0.75",
        "3,1,0.25,0.5",
    ]
