"""Memetic optimizer producing one recommendation list per user.

The initial population is seeded with long-tail items accepted by an
exponentially decaying injection probability (decay in the number of times an
item was already served), mixed with the user's top predicted items. A
generational loop of tournament selection, uniform crossover with duplicate
repair, per-position mutation, hill-climbing local search, and elitism then
minimizes the weighted combination of the four list objectives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .age_model import AgeClassifier
from .cf import RATING_MAX, ColdUserError, RatingMatrix
from .dataset import MIN_WARM_TRAIN_RATINGS, Item, PopularityPartition, User
from .objectives import CandidateList, ObjectiveContext, ObjectiveVector, ObjectiveWeights
from .profiles import AgeGenreProfile, DynamicsCurve, item_genre_matrix, target_long_tail_count

DEFAULT_INJECTION_DECAY = 0.1
DEFAULT_INJECTION_POOL = 100
DEFAULT_TOP_POOL = 500


class ServingHistory:
    """Per-item counters of how many served lists each item appeared in."""

    def __init__(self, counts: Mapping[int, int] | None = None):
        self._counts: dict[int, int] = {}
        for item_id, count in (counts or {}).items():
            if count < 0:
                raise ValueError(f"negative serving count for item {item_id}")
            if count > 0:
                self._counts[int(item_id)] = int(count)

    def times_served(self, item_id: int) -> int:
        return self._counts.get(item_id, 0)

    def record_served(self, items: Iterable[int]) -> None:
        for item_id in items:
            self._counts[int(item_id)] = self._counts.get(int(item_id), 0) + 1

    def reset(self) -> None:
        self._counts.clear()

    def as_dict(self) -> dict[int, int]:
        return dict(self._counts)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["item_id", "count"])
            for item_id in sorted(self._counts):
                writer.writerow([item_id, self._counts[item_id]])


@dataclass(frozen=True)
class InjectionParams:
    """Decay rate and target size of the injection seeding pool."""

    a: float = DEFAULT_INJECTION_DECAY
    pool_size: int = DEFAULT_INJECTION_POOL
    attempt_budget_factor: int = 50

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"decay rate must be positive, got {self.a}")
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be positive, got {self.pool_size}")
        if self.attempt_budget_factor < 1:
            raise ValueError("attempt_budget_factor must be positive")


@dataclass(frozen=True)
class MemeticConfig:
    """Evolutionary hyperparameters; defaults are recorded in run reports."""

    population_size: int = 100
    generations: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    tournament_size: int = 3
    local_search_trials: int | None = None  # None resolves to 2*k at use
    elitism_count: int = 2
    rng_seed: int = 0
    top_pool_size: int = DEFAULT_TOP_POOL

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be positive")
        if self.local_search_trials is not None and self.local_search_trials < 0:
            raise ValueError("local_search_trials must be non-negative")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError("elitism_count must be smaller than population_size")
        if self.top_pool_size < 1:
            raise ValueError("top_pool_size must be positive")

    def resolved_local_search_trials(self, k: int) -> int:
        if self.local_search_trials is None:
            return 2 * k
        return self.local_search_trials


@dataclass(frozen=True)
class GenerationTrace:
    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass(frozen=True)
class OptimizationResult:
    user_id: int
    best: CandidateList
    objectives: ObjectiveVector
    fitness: float
    trace: tuple[GenerationTrace, ...]
    age_group: int
    target_long_tail: int
    pool_size: int
    n_injected: int


def injection_probability(
    item_id: int,
    same_age_mean_rating: float,
    history: ServingHistory,
    a: float = DEFAULT_INJECTION_DECAY,
) -> float:
    """Acceptance probability: mean same-age rating scaled to [0,1], decayed
    exponentially in the number of times the item was already served."""
    if a <= 0:
        raise ValueError(f"decay rate must be positive, got {a}")
    if not 0.0 <= same_age_mean_rating <= RATING_MAX:
        raise ValueError(
            f"same-age mean rating must lie in [0, {RATING_MAX}], got {same_age_mean_rating}"
        )
    n_served = history.times_served(item_id)
    return same_age_mean_rating * math.exp(-a * n_served) / RATING_MAX


def inject_items(
    candidate_bag: Mapping[int, float],
    params: InjectionParams,
    history: ServingHistory,
    rng: np.random.Generator,
    target_count: int | None = None,
) -> list[int]:
    """Sample distinct items from the bag by repeated accept/reject draws.

    Each attempt draws one bag item uniformly and accepts it with its
    injection probability; accepted items leave the bag. Stops after
    `target_count` acceptances or after `attempt_budget_factor * target_count`
    draws, whichever comes first, so an all-zero-probability bag terminates.
    """
    if not candidate_bag:
        raise ValueError("candidate bag is empty")
    target = params.pool_size if target_count is None else int(target_count)
    if target < 1:
        raise ValueError(f"target_count must be positive, got {target}")
    item_ids = np.array(sorted(candidate_bag), dtype=np.int64)
    probs = np.array(
        [injection_probability(int(i), candidate_bag[int(i)], history, params.a) for i in item_ids]
    )
    budget = params.attempt_budget_factor * target
    accepted: list[int] = []
    n = len(item_ids)
    for _ in range(budget):
        if len(accepted) >= target or n == 0:
            break
        idx = int(rng.integers(n))
        if rng.random() < probs[idx]:
            accepted.append(int(item_ids[idx]))
            n -= 1
            item_ids[idx], item_ids[n] = item_ids[n], item_ids[idx]
            probs[idx], probs[n] = probs[n], probs[idx]
    return accepted


def initialize_population(
    injected: Sequence[int],
    top_predicted: Sequence[int],
    k: int,
    population_size: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """Build `population_size` lists of k distinct items, each mixing injected
    and top-predicted items at a ratio drawn uniformly per individual."""
    injected_arr = np.array(sorted(set(injected)), dtype=np.int64)
    top_arr = np.array(list(dict.fromkeys(int(i) for i in top_predicted)), dtype=np.int64)
    union = set(injected_arr.tolist()) | set(top_arr.tolist())
    if len(union) < k:
        raise ValueError(
            f"only {len(union)} distinct candidate items available for lists of length {k}"
        )
    population: list[tuple[int, ...]] = []
    for _ in range(population_size):
        ratio = rng.random()
        n_inj = min(len(injected_arr), int(round(ratio * k)))
        picked: list[int] = []
        if n_inj > 0:
            picked.extend(int(i) for i in rng.choice(injected_arr, size=n_inj, replace=False))
        picked_set = set(picked)
        remaining_top = top_arr[~np.isin(top_arr, list(picked_set) or [-1])]
        n_rest = k - len(picked)
        if remaining_top.size >= n_rest:
            picked.extend(int(i) for i in rng.choice(remaining_top, size=n_rest, replace=False))
        else:
            picked.extend(int(i) for i in remaining_top)
            picked_set = set(picked)
            leftover_inj = injected_arr[~np.isin(injected_arr, list(picked_set) or [-1])]
            shortfall = k - len(picked)
            picked.extend(int(i) for i in rng.choice(leftover_inj, size=shortfall, replace=False))
        population.append(tuple(picked))
    return population


def _local_search_batch(
    population: np.ndarray,
    ctx: ObjectiveContext,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized hill climbing: one random swap per individual per trial."""
    if trials <= 0:
        return population
    pop = population.copy()
    n, k = pop.shape
    n_pool = len(ctx.pool_items)
    fitness = ctx.fitness(pop)
    rows = np.arange(n)
    for _ in range(trials):
        positions = rng.integers(k, size=n)
        replacements = rng.integers(n_pool, size=n)
        candidate = pop.copy()
        candidate[rows, positions] = replacements
        duplicated = (candidate == replacements[:, None]).sum(axis=1) > 1
        cand_fitness = ctx.fitness(candidate)
        accept = ~duplicated & (cand_fitness < fitness)
        pop[accept] = candidate[accept]
        fitness[accept] = cand_fitness[accept]
    return pop


def _crossover_indices(
    parent_a: list[int], parent_b: list[int], rng: np.random.Generator
) -> list[int]:
    """Uniform position-wise mix of two parents; a gene already in the child
    is replaced from a shuffled queue of the parents' unused genes."""
    draws = rng.random(len(parent_a)).tolist()
    child = [ga if u < 0.5 else gb for ga, gb, u in zip(parent_a, parent_b, draws)]
    used: set[int] = set()
    conflicts: list[int] = []
    for pos, gene in enumerate(child):
        if gene in used:
            conflicts.append(pos)
        else:
            used.add(gene)
    if conflicts:
        leftovers = [g for g in dict.fromkeys(parent_a + parent_b) if g not in used]
        queue = [leftovers[i] for i in rng.permutation(len(leftovers)).tolist()]
        for pos in conflicts:
            child[pos] = queue.pop()
    return child


def _mutate_indices(
    individual: list[int], n_pool: int, mutation_rate: float, rng: np.random.Generator
) -> list[int]:
    """Replace each position with probability `mutation_rate` by a uniform
    draw from the pool indices not in the list."""
    draws = rng.random(len(individual)).tolist()
    hits = [pos for pos, u in enumerate(draws) if u < mutation_rate]
    if not hits:
        return individual
    genes = list(individual)
    for pos in hits:
        taken = sorted(set(genes))
        if len(taken) == n_pool:
            continue
        # The r-th pool index not taken, counting up from 0.
        r = int(rng.integers(n_pool - len(taken)))
        for g in taken:
            if g > r:
                break
            r += 1
        genes[pos] = r
    return genes


def same_age_item_means(
    train: RatingMatrix, users: Mapping[int, User]
) -> dict[int, np.ndarray]:
    """Per age group, the mean training rating of every item (0 if unrated
    by that group), aligned to `train.item_ids`."""
    ages = np.array([users[int(u)].age_group for u in train.user_ids])
    means: dict[int, np.ndarray] = {}
    for age in sorted(set(int(a) for a in ages)):
        rows = np.flatnonzero(ages == age)
        sums = np.asarray(train.R[rows].sum(axis=0)).ravel()
        counts = np.asarray(train.B[rows].sum(axis=0)).ravel()
        with np.errstate(invalid="ignore", divide="ignore"):
            group_mean = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        means[age] = group_mean
    return means


def optimize_user(
    user_id: int,
    train: RatingMatrix,
    users: Mapping[int, User],
    items: Mapping[int, Item],
    partition: PopularityPartition,
    model,
    profiles: Mapping[int, AgeGenreProfile],
    curves: Mapping[int, DynamicsCurve],
    classifier: AgeClassifier | None,
    history: ServingHistory,
    k: int = 10,
    config: MemeticConfig | None = None,
    weights: ObjectiveWeights | None = None,
    injection: InjectionParams | None = None,
    candidate_items: Sequence[int] | None = None,
    age_source: str = "predicted",
    use_injection: bool = True,
    injection_scope: str = "long-tail",
    age_item_means: Mapping[int, np.ndarray] | None = None,
    rng: np.random.Generator | None = None,
    min_train_ratings: int = MIN_WARM_TRAIN_RATINGS,
) -> OptimizationResult:
    """Full per-user pipeline: resolve the age group, set the long-tail quota,
    build the candidate pool (top predictions plus injected items), then run
    the generational loop and return the elite list.

    `injection_scope` selects the bag the injection sampler draws from:
    "long-tail" (default) restricts it to long-tail items, for one-shot
    recommendation; "catalog" opens it to every unrated candidate, so that
    across serving rounds repeatedly served popular items decay out of the
    pool and hand their slots to rarely served ones.

    Deterministic for a fixed `rng` / `config.rng_seed`. Raises ColdUserError
    for users below the warm threshold and ValueError when the candidate
    universe cannot fill a list of length k.
    """
    config = config or MemeticConfig()
    weights = weights or ObjectiveWeights()
    injection = injection or InjectionParams()
    if injection.pool_size < k:
        raise ValueError(
            f"injection pool_size {injection.pool_size} is smaller than list length {k}"
        )
    if injection_scope not in ("long-tail", "catalog"):
        raise ValueError(
            f"injection_scope must be 'long-tail' or 'catalog', got {injection_scope!r}"
        )
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    if user_id not in train.user_index:
        raise ColdUserError(user_id)
    rated_idx = train.rated_item_indices(user_id)
    if rated_idx.size < min_train_ratings:
        raise ColdUserError(user_id)
    rated_ids = frozenset(int(i) for i in train.item_ids[rated_idx])

    # Resolve the age group driving the genre profile and long-tail quota.
    if age_source == "actual":
        age_group = users[user_id].age_group
    elif age_source == "predicted":
        if classifier is None:
            raise ValueError("age_source='predicted' requires a classifier")
        gmat = item_genre_matrix(items, [int(i) for i in train.item_ids[rated_idx]])
        genre_counts = gmat.sum(axis=0)
        total = genre_counts.sum()
        if total == 0:
            raise ColdUserError(user_id)
        age_group = classifier.predict(genre_counts / total)
    else:
        raise ValueError(f"unknown age_source {age_source!r}")
    pgu = profiles[age_group].pgu
    activity = int(rated_idx.size)
    target_lt = target_long_tail_count(curves[age_group], activity, k)

    # Candidate universe: caller-supplied item ids or the full unrated catalog.
    if candidate_items is None:
        universe = np.setdiff1d(train.item_ids, np.fromiter(rated_ids, dtype=np.int64, count=len(rated_ids)))
    else:
        universe = np.array(sorted(set(int(i) for i in candidate_items) - rated_ids), dtype=np.int64)
        unknown = [int(i) for i in universe if int(i) not in train.item_index]
        if unknown:
            raise ValueError(f"candidate items not in catalog: {unknown[:5]}")
    if universe.size < k:
        raise ValueError(
            f"user {user_id} has only {universe.size} candidate items for lists of length {k}"
        )

    preds = model.predict_many(user_id, universe)
    order = np.lexsort((universe, -preds))
    top_pool = universe[order[: config.top_pool_size]]

    injected: list[int] = []
    if use_injection:
        if injection_scope == "catalog":
            bag_ids = universe
        else:
            lt_mask = np.array([partition.is_long_tail(int(i)) for i in universe])
            bag_ids = universe[lt_mask]
        if bag_ids.size:
            if age_item_means is None:
                age_item_means = same_age_item_means(train, users)
            group_means = age_item_means.get(age_group)
            bag: dict[int, float] = {}
            for item_id in bag_ids:
                col = train.item_index[int(item_id)]
                m_i = float(group_means[col]) if group_means is not None else 0.0
                bag[int(item_id)] = m_i
            injected = inject_items(bag, injection, history, rng)

    pool_ids = np.array(sorted(set(top_pool.tolist()) | set(injected)), dtype=np.int64)
    pred_map = {int(i): float(p) for i, p in zip(universe, preds)}
    ctx = ObjectiveContext(
        user_id=user_id,
        pool_items=pool_ids,
        k=k,
        partition=partition,
        predictions=pred_map,
        items=items,
        pgu=pgu,
        target_lt=target_lt,
        weights=weights,
    )
    index_of = {int(i): idx for idx, i in enumerate(pool_ids)}

    if use_injection:
        seeds = initialize_population(injected, top_pool, k, config.population_size, rng)
        population = np.array(
            [[index_of[i] for i in individual] for individual in seeds], dtype=np.int64
        )
    else:
        # Ablation seeding: uniform k-subsets of the prediction pool.
        population = np.stack(
            [
                rng.choice(len(pool_ids), size=k, replace=False)
                for _ in range(config.population_size)
            ]
        ).astype(np.int64)

    fitness = ctx.fitness(population)
    trace = [
        GenerationTrace(
            generation=0,
            best_fitness=float(fitness.min()),
            mean_fitness=float(fitness.mean()),
        )
    ]

    ls_trials = config.resolved_local_search_trials(k)
    n_children = config.population_size - config.elitism_count
    for generation in range(1, config.generations + 1):
        elite_order = np.argsort(fitness, kind="stable")[: config.elitism_count]
        elites = population[elite_order]
        contenders = rng.integers(
            config.population_size, size=(n_children, 2, config.tournament_size)
        )
        winner_slot = np.argmin(fitness[contenders], axis=2)
        parent_idx = np.take_along_axis(contenders, winner_slot[:, :, None], axis=2)[:, :, 0]
        do_crossover = (rng.random(n_children) < config.crossover_rate).tolist()
        rows = population.tolist()
        children = []
        for c, (ia, ib) in enumerate(parent_idx.tolist()):
            pa, pb = rows[ia], rows[ib]
            child = _crossover_indices(pa, pb, rng) if do_crossover[c] and pa != pb else pa
            children.append(_mutate_indices(child, len(pool_ids), config.mutation_rate, rng))
        children = _local_search_batch(np.array(children, dtype=np.int64), ctx, ls_trials, rng)
        population = np.vstack([elites, children]) if config.elitism_count else children
        fitness = ctx.fitness(population)
        best = float(fitness.min())
        if best > trace[-1].best_fitness + 1e-9:
            raise RuntimeError(
                f"elite fitness increased for user {user_id} at generation {generation}: "
                f"{trace[-1].best_fitness} -> {best}"
            )
        trace.append(
            GenerationTrace(
                generation=generation,
                best_fitness=best,
                mean_fitness=float(fitness.mean()),
            )
        )

    best_idx = int(np.argmin(fitness))
    best_individual = np.sort(population[best_idx])
    candidate = ctx.candidate(best_individual)
    candidate.validate(rated_ids)
    return OptimizationResult(
        user_id=user_id,
        best=candidate,
        objectives=ctx.vector(best_individual),
        fitness=float(fitness[best_idx]),
        trace=tuple(trace),
        age_group=int(age_group),
        target_long_tail=int(target_lt),
        pool_size=int(pool_ids.size),
        n_injected=len(injected),
    )
