"""Serving history, injection seeding, variation operators, and the per-user
memetic optimization loop."""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
import pytest

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
    _crossover_indices,
    _local_search_batch,
    _mutate_indices,
    initialize_population,
    inject_items,
    injection_probability,
    optimize_user,
    same_age_item_means,
)
from longtailrec.objectives import ObjectiveContext, ObjectiveWeights
from longtailrec.profiles import build_age_genre_profiles, build_dynamics_curves

from conftest import make_random_instance
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

    def test_reset_clears(self):
        h = ServingHistory({3: 4})
        h.reset()
        assert h.as_dict() == {}

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


class TestInjectItems:
    def test_certain_bag_fills_target(self, rng):
        bag = {i: 5.0 for i in range(1, 21)}
        got = inject_items(bag, InjectionParams(pool_size=10), ServingHistory(), rng)
        assert len(got) == 10
        assert len(set(got)) == 10
        assert set(got) <= set(bag)

    def test_zero_probability_bag_terminates_empty(self, rng):
        bag = {i: 0.0 for i in range(1, 6)}
        got = inject_items(bag, InjectionParams(pool_size=3), ServingHistory(), rng)
        assert got == []

    def test_only_certain_item_is_ever_chosen(self):
        bag = {1: 5.0, 2: 0.0}
        for seed in range(200):
            got = inject_items(
                bag,
                InjectionParams(pool_size=5),
                ServingHistory(),
                np.random.default_rng(seed),
                target_count=1,
            )
            assert got == [1]

    def test_bag_smaller_than_target_returns_whole_bag(self, rng):
        bag = {i: 5.0 for i in (3, 8, 11)}
        got = inject_items(bag, InjectionParams(pool_size=10), ServingHistory(), rng)
        assert sorted(got) == [3, 8, 11]

    def test_input_validation(self, rng):
        with pytest.raises(ValueError, match="empty"):
            inject_items({}, InjectionParams(), ServingHistory(), rng)
        with pytest.raises(ValueError, match="target_count"):
            inject_items({1: 5.0}, InjectionParams(), ServingHistory(), rng, target_count=0)

    def test_results_distinct_and_from_bag(self):
        master = np.random.default_rng(14)
        for seed in range(300):
            rng = np.random.default_rng(seed)
            ids = master.choice(np.arange(1, 60), size=int(master.integers(1, 20)), replace=False)
            bag = {int(i): float(master.uniform(0, 5)) for i in ids}
            target = int(master.integers(1, 12))
            got = inject_items(bag, InjectionParams(pool_size=target), ServingHistory(), rng)
            assert len(got) == len(set(got))
            assert set(got) <= set(bag)
            assert len(got) <= target

    def test_single_draw_acceptance_frequency(self):
        # one attempt per call: acceptance rate must track the probability
        params = InjectionParams(a=0.1, pool_size=1, attempt_budget_factor=1)
        accepted = sum(
            bool(
                inject_items({1: 2.5}, params, ServingHistory(), np.random.default_rng(s), 1)
            )
            for s in range(2000)
        )
        rate = accepted / 2000
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / 2000)

    def test_serving_decay_suppresses_acceptance_frequency(self):
        params = InjectionParams(a=0.1, pool_size=1, attempt_budget_factor=1)
        history = ServingHistory({1: 10})
        accepted = sum(
            bool(inject_items({1: 5.0}, params, history, np.random.default_rng(s), 1))
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
        assert a == b

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


class TestCrossover:
    def test_identical_parents_pass_through(self, rng):
        parent = [4, 9, 2]
        child = _crossover_indices(parent, parent, rng)
        assert child == parent

    def test_children_valid_and_closed_over_parent_union(self):
        master = np.random.default_rng(16)
        n_cases = 0
        for _ in range(10_000):
            k = int(master.integers(2, 7))
            pa = master.choice(12, size=k, replace=False).tolist()
            pb = master.choice(12, size=k, replace=False).tolist()
            child = _crossover_indices(pa, pb, master)
            assert len(child) == k
            assert len(set(child)) == k
            assert set(child) <= set(pa) | set(pb)
            n_cases += 1
        assert n_cases == 10_000


class TestMutate:
    def test_rate_zero_is_identity(self, rng):
        assert _mutate_indices([3, 1, 4], 5, 0.0, rng) == [3, 1, 4]

    def test_no_legal_replacement_is_identity(self, rng):
        assert _mutate_indices([2, 0, 1], 3, 1.0, rng) == [2, 0, 1]

    def test_mutants_valid_in_bulk(self):
        master = np.random.default_rng(17)
        n_cases = 0
        for _ in range(5000):
            k = int(master.integers(2, 7))
            individual = master.choice(12, size=k, replace=False).tolist()
            rate = float(master.uniform(0, 1))
            child = _mutate_indices(individual, 12, rate, master)
            assert len(child) == k
            assert len(set(child)) == k
            assert all(0 <= g < 12 for g in child)
            n_cases += 1
        assert n_cases == 5000

    def test_replacement_matches_mask_reference(self):
        """Same draws, same mutants as picking from a mask of the free pool indices."""

        def reference(individual, n_pool, rate, rng):
            child = np.array(individual)
            for pos in np.flatnonzero(rng.random(child.size) < rate):
                mask = np.ones(n_pool, dtype=bool)
                mask[child] = False
                options = np.flatnonzero(mask)
                if options.size:
                    child[pos] = options[rng.integers(options.size)]
            return child.tolist()

        master = np.random.default_rng(18)
        for case in range(2000):
            n_pool = int(master.integers(3, 15))
            k = int(master.integers(1, n_pool + 1))
            individual = master.choice(n_pool, size=k, replace=False).tolist()
            rate = float(master.uniform(0, 1))
            got = _mutate_indices(individual, n_pool, rate, np.random.default_rng(case))
            want = reference(individual, n_pool, rate, np.random.default_rng(case))
            assert got == want


def small_context(inst, rng, k=3):
    ids = sorted(inst.items)
    preds = {i: float(rng.uniform(1, 5)) for i in ids}
    return ObjectiveContext(
        user_id=1,
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
        items=inst.items,
        partition=inst.partition,
        model=UserBasedCF(inst.train),
        profiles=build_age_genre_profiles(inst.ratings, inst.users, inst.items),
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
                dict(inst.partition.counts),
                pred_map,
                set(inst.partition.long_tail),
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

        def worst_lists(children, ctx, trials, rng):
            lists = np.array(list(itertools.combinations(range(len(ctx.pool_items)), ctx.k)))
            return np.repeat(lists[[np.argmax(ctx.fitness(lists))]], len(children), axis=0)

        monkeypatch.setattr(memetic, "_local_search_batch", worst_lists)
        kwargs = optimizer_setup(inst)
        kwargs["config"] = MemeticConfig(
            population_size=10, generations=1, elitism_count=0, rng_seed=1
        )
        with pytest.raises(RuntimeError, match=f"for user {user} at generation 1"):
            optimize_user(user, **kwargs)

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
            n_lt = sum(1 for i in unrated if inst.partition.is_long_tail(i))
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
