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

from .age_model import AgeClassifier, featurize_users
from .cf import RATING_MAX, ColdUserError, RatingMatrix
from .dataset import MIN_WARM_TRAIN_RATINGS, PopularityPartition, User
from .objectives import CandidateList, ObjectiveContext, ObjectiveVector, ObjectiveWeights
from .profiles import AgeGenreProfile, DynamicsCurve, checked_genres, target_long_tail_count

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

    def times_served(self, item_ids):
        """Serving count of one id (an int) or of each id of an array."""
        if np.ndim(item_ids) == 0:
            return self._counts.get(int(item_ids), 0)
        return np.array([self._counts.get(i, 0) for i in np.asarray(item_ids).tolist()], dtype=np.int64)

    def record_served(self, items: Iterable[int]) -> None:
        for item_id in items:
            self._counts[int(item_id)] = self._counts.get(int(item_id), 0) + 1

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
    item_ids,
    same_age_mean_rating,
    history: ServingHistory,
    a: float = DEFAULT_INJECTION_DECAY,
):
    """Acceptance probability: mean same-age rating scaled to [0,1], decayed
    exponentially in the number of times the item was already served.

    Takes one id and mean (returns a float) or aligned arrays of them. The
    decay is ``math.exp`` of each distinct served count, so an array call
    gives the bits of the scalar calls."""
    if a <= 0:
        raise ValueError(f"decay rate must be positive, got {a}")
    means = np.asarray(same_age_mean_rating, dtype=float)
    bad = ~((means >= 0.0) & (means <= RATING_MAX))
    if bad.any():
        raise ValueError(
            f"same-age mean rating must lie in [0, {RATING_MAX}], got {means.reshape(-1)[np.argmax(bad)]}"
        )
    served, inverse = np.unique(history.times_served(item_ids), return_inverse=True)
    decay = np.array([math.exp(-a * n) for n in served.tolist()])[inverse.reshape(means.shape)]
    probs = means * decay / RATING_MAX
    return float(probs) if probs.ndim == 0 else probs


def inject_items(
    item_ids: Sequence[int],
    same_age_means: Sequence[float],
    params: InjectionParams,
    history: ServingHistory,
    rng: np.random.Generator,
    target_count: int | None = None,
) -> list[int]:
    """Sample distinct items from the bag of ``item_ids`` (with their aligned
    same-age mean ratings) by repeated accept/reject draws.

    Each attempt draws one bag item uniformly and accepts it with its
    injection probability; accepted items leave the bag. Stops after
    `target_count` acceptances or after `attempt_budget_factor * target_count`
    draws, whichever comes first, so an all-zero-probability bag terminates.
    """
    ids = np.asarray(item_ids, dtype=np.int64)
    means = np.asarray(same_age_means, dtype=float)
    if ids.size == 0:
        raise ValueError("candidate bag is empty")
    if ids.shape != means.shape or ids.ndim != 1:
        raise ValueError(f"{ids.size} bag items but {means.size} same-age means")
    target = params.pool_size if target_count is None else int(target_count)
    if target < 1:
        raise ValueError(f"target_count must be positive, got {target}")
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    if (ids[1:] == ids[:-1]).any():
        raise ValueError("candidate bag repeats items")
    probs = injection_probability(ids, means[order], history, params.a)
    budget = params.attempt_budget_factor * target
    accepted: list[int] = []
    n = len(ids)
    for _ in range(budget):
        if len(accepted) >= target or n == 0:
            break
        idx = int(rng.integers(n))
        if rng.random() < probs[idx]:
            accepted.append(int(ids[idx]))
            n -= 1
            ids[idx], ids[n] = ids[n], ids[idx]
            probs[idx], probs[n] = probs[n], probs[idx]
    return accepted


# Padding for `_free_draw`: minus any row position, still above every index.
_ABSENT = np.iinfo(np.int64).max


def _free_draw(taken: np.ndarray, n_space: int, u: np.ndarray) -> np.ndarray:
    """Per row, the ⌊u·n_free⌋-th index of [0, n_space) absent from that row
    of `taken`, counting up from 0; `n_free` is the number of such indices.

    Entries of `taken` must be distinct per row; `_ABSENT` entries are
    padding. With the row sorted, the r-th free index is
    ``r + #{i : sorted_row[i] - i <= r}``, so a row costs one sort of its
    width, whatever `n_space` is."""
    taken = np.sort(taken, axis=1)
    n_free = n_space - (taken < n_space).sum(axis=1)
    r = (u * n_free).astype(np.int64)
    return r + (taken - np.arange(taken.shape[1]) <= r[:, None]).sum(axis=1)


def initialize_population(
    injected: Sequence[int],
    top_predicted: Sequence[int],
    k: int,
    population_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Build `population_size` lists of k distinct pool indices, each mixing
    injected and top-predicted items at a ratio drawn uniformly per
    individual: round(ratio * k) injected items (at most all of them), the
    rest from the top-predicted items not already in the list, and leftover
    injected items when those run out. Every pick is uniform over the items
    it may take. Returns an int64 (n, k) array.

    Fills position j of every row at once, from one of the two item sets:
    k passes, none of whose work per row grows with the item sets."""
    injected_arr = np.unique(np.asarray(injected, dtype=np.int64))
    top_arr = np.unique(np.asarray(top_predicted, dtype=np.int64))
    union = np.union1d(injected_arr, top_arr)
    if union.size < k:
        raise ValueError(
            f"only {union.size} distinct candidate items available for lists of length {k}"
        )
    # Each item set as its members' positions in `union`, and every union
    # position's rank within the set (`_ABSENT` if not a member).
    top_members = np.searchsorted(union, top_arr)
    inj_members = np.searchsorted(union, injected_arr)
    top_rank, inj_rank = np.full((2, union.size), _ABSENT)
    top_rank[top_members] = np.arange(top_members.size)
    inj_rank[inj_members] = np.arange(inj_members.size)
    draws = rng.random((population_size, k + 1))
    n_inj = np.minimum(injected_arr.size, np.rint(draws[:, 0] * k)).astype(np.int64)
    population = np.empty((population_size, k), dtype=np.int64)
    n_top = np.zeros(population_size, dtype=np.int64)
    for j in range(k):
        filled = population[:, :j]
        from_top = (j >= n_inj) & (n_top < top_arr.size)
        for members, rank, rows in (
            (top_members, top_rank, np.flatnonzero(from_top)),
            (inj_members, inj_rank, np.flatnonzero(~from_top)),
        ):
            picks = _free_draw(rank[filled[rows]], members.size, draws[rows, j + 1])
            population[rows, j] = members[picks]
        n_top += top_rank[population[:, j]] != _ABSENT
    return union[population]


def _local_search_batch(
    population: np.ndarray,
    ctx: ObjectiveContext,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized hill climbing: one random swap per individual per trial.

    Each trial draws a position in [0, k) then a pool index in [0, n_pool)
    for every individual; all trials' draws come from one ``integers`` call,
    which yields the same stream as one pair of calls per trial. A swap
    changes one row of the list's column sums of ``ctx.attrs`` and one entry
    of its predictions, whose row is summed whole as
    ``ObjectiveContext.objectives`` sums it, so every fitness is the one a
    full evaluation gives. A swap that repeats a gene of its row is rejected;
    only the swaps that would improve are checked.
    """
    if trials <= 0:
        return population
    pop = population.copy()
    n, k = pop.shape
    highs = np.empty((trials, 2, n), dtype=np.int64)
    highs[:, 0] = k
    highs[:, 1] = len(ctx.pool_items)
    draws = rng.integers(0, highs)
    sums = ctx.attrs[pop.T].sum(axis=0)
    row_preds = ctx.preds[pop]
    fitness = ctx.fitness(pop)
    rows = np.arange(n)
    for positions, replacements in draws:
        cand = sums - ctx.attrs[pop[rows, positions]] + ctx.attrs[replacements]
        cand_preds = row_preds.copy()
        cand_preds[rows, positions] = ctx.preds[replacements]
        cand_fitness = ctx.fitness_from_objectives(
            ctx.objectives_from_sums(cand, cand_preds.sum(axis=1))
        )
        better = np.flatnonzero(cand_fitness < fitness)
        # A swap to the gene already there leaves the fitness unchanged, so
        # an improving swap repeats a gene exactly when its row holds it.
        accept = better[~(pop[better] == replacements[better, None]).any(axis=1)]
        pop[accept, positions[accept]] = replacements[accept]
        row_preds[accept] = cand_preds[accept]
        sums[accept] = cand[accept]
        fitness[accept] = cand_fitness[accept]
    return pop


def _crossover_batch(
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    do_crossover: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform position-wise mix of each row pair of (n, k) parents; rows
    where `do_crossover` is False copy parent A.

    A gene that repeats an earlier position of its child is replaced by a
    distinct parent gene not in the child, picked by ranking uniform keys
    over the row's 2k parent genes. One stable sort of each row's child and
    parent genes finds both the repeats and the unused parent genes."""
    n, k = parent_a.shape
    mix = do_crossover[:, None] & (rng.random((n, k)) >= 0.5)
    child = np.where(mix, parent_b, parent_a)
    keys = rng.random((n, 2 * k))
    genes = np.concatenate([child, parent_a, parent_b], axis=1)
    order = np.argsort(genes, axis=1, kind="stable")
    ordered = np.take_along_axis(genes, order, axis=1)
    # True where a gene equals an entry before it: a child gene beats its
    # parents' copies, and earlier child positions beat later ones.
    seen = np.zeros(genes.shape, dtype=bool)
    np.put_along_axis(seen, order[:, 1:], ordered[:, 1:] == ordered[:, :-1], axis=1)
    rows, cols = np.nonzero(seen[:, :k])
    if rows.size:
        keys[seen[:, k:]] = 2.0  # above every draw: taken genes rank last
        ranked = np.argsort(keys, axis=1)
        # The row's j-th repeat takes its j-th ranked parent gene.
        nth = np.arange(rows.size) - np.searchsorted(rows, rows)
        child[rows, cols] = genes[rows, k + ranked[rows, nth]]
    return child


def _mutate_batch(
    population: np.ndarray, n_pool: int, mutation_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Replace each position with probability `mutation_rate` by a uniform
    draw from the pool indices not in its row, hit after hit in position
    order within each row (so a replaced gene is free for later hits).

    Passes go over hit ranks (every row's first hit, then its second, ...);
    none of their work per row grows with `n_pool`."""
    pop = population.copy()
    n, k = pop.shape
    hit_u, pick_u = rng.random((2, n, k))
    if n_pool == k:
        return pop
    rows, cols = np.nonzero(hit_u < mutation_rate)
    nth = np.arange(rows.size) - np.searchsorted(rows, rows)
    for rank in range(int(nth.max(initial=-1)) + 1):
        sel = nth == rank
        r_rows, r_cols = rows[sel], cols[sel]
        pop[r_rows, r_cols] = _free_draw(pop[r_rows], n_pool, pick_u[r_rows, r_cols])
    return pop


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
    item_genres: np.ndarray,
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

    `item_genres` is the 0/1 genre matrix aligned to `train.item_ids`.
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
    checked_genres(train, item_genres)
    if user_id not in train.user_index:
        raise ColdUserError(user_id)
    rated_idx = train.rated_item_indices(user_id)
    if rated_idx.size < min_train_ratings:
        raise ColdUserError(user_id)
    rated_ids = train.item_ids[rated_idx]

    # Resolve the age group driving the genre profile and long-tail quota.
    if age_source == "actual":
        age_group = users[user_id].age_group
    elif age_source == "predicted":
        if classifier is None:
            raise ValueError("age_source='predicted' requires a classifier")
        age_group = classifier.predict(featurize_users(train, item_genres, [user_id])[0])
    else:
        raise ValueError(f"unknown age_source {age_source!r}")
    target_lt = target_long_tail_count(curves[age_group], int(rated_idx.size), k)

    # Candidate universe: the unrated candidate items (default: the catalog), sorted.
    if candidate_items is None:
        candidate_items = train.item_ids
    universe = np.setdiff1d(np.asarray(candidate_items, dtype=np.int64), rated_ids)
    unknown = universe[~np.isin(universe, train.item_ids)]
    if unknown.size:
        raise ValueError(f"candidate items not in catalog: {unknown[:5].tolist()}")
    if universe.size < k:
        raise ValueError(
            f"user {user_id} has only {universe.size} candidate items for lists of length {k}"
        )

    preds = model.predict_many(user_id, universe)
    order = np.lexsort((universe, -preds))
    top_pool = universe[order[: config.top_pool_size]]

    injected = np.empty(0, dtype=np.int64)
    if use_injection:
        bag = universe if injection_scope == "catalog" else universe[partition.is_long_tail(universe)]
        if bag.size:
            if age_item_means is None:
                age_item_means = same_age_item_means(train, users)
            group_means = age_item_means.get(age_group)
            means = group_means[train.item_columns(bag)] if group_means is not None else np.zeros(bag.size)
            injected = np.array(inject_items(bag, means, injection, history, rng), dtype=np.int64)

    # Item attributes aligned to the sorted pool; ids are looked up by array.
    pool_ids = np.union1d(top_pool, injected)
    ctx = ObjectiveContext(
        user_id=user_id,
        pool_items=pool_ids,
        k=k,
        popularity=partition.popularity(pool_ids),
        predictions=preds[np.searchsorted(universe, pool_ids)],
        long_tail=partition.is_long_tail(pool_ids),
        genres=item_genres[train.item_columns(pool_ids)],
        pgu=profiles[age_group].pgu,
        target_lt=target_lt,
        weights=weights,
    )

    # The pool is sorted, so pool indices keep the order of the ids. Without
    # injection the pool is the top pool: uniform k-subsets of it.
    population = initialize_population(
        np.searchsorted(pool_ids, injected),
        np.searchsorted(pool_ids, top_pool),
        k,
        config.population_size,
        rng,
    )

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
        do_crossover = rng.random(n_children) < config.crossover_rate
        children = _crossover_batch(
            population[parent_idx[:, 0]], population[parent_idx[:, 1]], do_crossover, rng
        )
        children = _mutate_batch(children, len(pool_ids), config.mutation_rate, rng)
        children = _local_search_batch(children, ctx, ls_trials, rng)
        population = np.vstack([elites, children]) if config.elitism_count else children
        fitness = ctx.fitness(population)
        best = float(fitness.min())
        # Kept elites make the best fitness non-increasing; without them a
        # generation may be worse than the last.
        if config.elitism_count and best > trace[-1].best_fitness + 1e-9:
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
    candidate.validate(frozenset(rated_ids.tolist()))
    return OptimizationResult(
        user_id=user_id,
        best=candidate,
        objectives=ctx.vector(best_individual),
        fitness=float(fitness[best_idx]),
        trace=tuple(trace),
        age_group=int(age_group),
        target_long_tail=int(target_lt),
        pool_size=int(pool_ids.size),
        n_injected=int(injected.size),
    )
