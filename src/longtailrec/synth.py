"""Seeded synthetic dataset generator in MovieLens 1M format.

Produces a catalog and rating log exhibiting the structural phenomena the
engine targets: age-group-specific genre tastes, a popularity short head
versus a long tail, activity-dependent drift toward long-tail consumption
that steepens with age, and ratings predictable from user bias, item quality,
and genre affinity. Useful for end-to-end evaluation when the real MovieLens
archive is unavailable; all draws derive from a single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataset import AGE_GROUPS, GENRES, Dataset, Item, Ratings, User

# Genres each age group favors when choosing what to rate (and rates higher).
AGE_FAVORITE_GENRES: Mapping[int, tuple[str, ...]] = {
    1: ("Animation", "Children's", "Musical"),
    18: ("Horror", "Action", "Sci-Fi"),
    25: ("Action", "Thriller", "Adventure"),
    35: ("Crime", "Thriller", "Drama"),
    45: ("Romance", "Mystery", "Drama"),
    50: ("Documentary", "War", "Drama"),
    56: ("Film-Noir", "Western", "War"),
}

# How strongly the long-tail share of new ratings grows with time in system.
AGE_DRIFT_SLOPES: Mapping[int, float] = {
    1: 0.00,
    18: 0.03,
    25: 0.06,
    35: 0.10,
    45: 0.14,
    50: 0.18,
    56: 0.24,
}

AGE_POPULATION_WEIGHTS: Mapping[int, float] = {
    1: 0.08,
    18: 0.18,
    25: 0.22,
    35: 0.18,
    45: 0.12,
    50: 0.11,
    56: 0.11,
}


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the generator; defaults target desk-scale evaluation runs."""

    n_users: int = 400
    n_items: int = 500
    seed: int = 0
    min_ratings_per_user: int = 75
    max_ratings_per_user: int = 280
    median_ratings_per_user: float = 120.0
    activity_sigma: float = 0.45
    head_fraction: float = 0.2
    zipf_exponent: float = 0.9
    base_long_tail_rate: float = 0.47
    drift_scale_ratings: int = 200
    genre_bias: float = 1.2
    affinity_gain: float = 0.45
    selection_gain: float = 0.9
    user_mean_center: float = 3.4
    user_mean_sd: float = 0.35
    quality_sd: float = 0.9
    noise_sd: float = 0.35
    pref_jitter: float = 0.15

    def __post_init__(self):
        if self.n_users < len(AGE_GROUPS):
            raise ValueError("need at least one user per age group")
        if self.n_items < 20:
            raise ValueError("catalog too small to carve a short head")
        if not 2 <= self.min_ratings_per_user <= self.max_ratings_per_user:
            raise ValueError("invalid ratings-per-user bounds")
        if self.max_ratings_per_user > self.n_items:
            raise ValueError("max_ratings_per_user cannot exceed catalog size")
        if not 0.0 < self.head_fraction < 1.0:
            raise ValueError("head_fraction must lie in (0,1)")
        if not 0.0 < self.base_long_tail_rate < 1.0:
            raise ValueError("base_long_tail_rate must lie in (0,1)")


def _age_preference_vectors() -> dict[int, np.ndarray]:
    prefs: dict[int, np.ndarray] = {}
    for age, favorites in AGE_FAVORITE_GENRES.items():
        base = np.full(len(GENRES), 0.3)
        for name in favorites:
            base[GENRES.index(name)] += 2.0
        prefs[age] = base / base.sum()
    return prefs


def _make_items(config: SynthConfig, rng: np.random.Generator) -> dict[int, Item]:
    genre_weights = np.ones(len(GENRES))
    for name in ("Drama", "Comedy", "Action", "Thriller"):
        genre_weights[GENRES.index(name)] += 1.5
    genre_weights = genre_weights / genre_weights.sum()
    items: dict[int, Item] = {}
    for item_id in range(1, config.n_items + 1):
        n_genres = 1 + int(rng.binomial(2, 0.45))
        chosen = rng.choice(len(GENRES), size=n_genres, replace=False, p=genre_weights)
        genres = frozenset(GENRES[g] for g in chosen)
        year = 1980 + int(rng.integers(21))
        items[item_id] = Item(
            item_id=item_id,
            title=f"Synthetic Movie {item_id} ({year})",
            genres=genres,
        )
    return items


def generate(config: SynthConfig | None = None) -> Dataset:
    """Generate a full in-memory dataset from the seed in `config`."""
    config = config or SynthConfig()
    rng = np.random.default_rng(config.seed)
    prefs = _age_preference_vectors()

    items = _make_items(config, rng)
    item_ids = np.arange(1, config.n_items + 1, dtype=np.int64)
    genre_mat = np.zeros((config.n_items, len(GENRES)))
    for row, item_id in enumerate(item_ids):
        for g in items[int(item_id)].genres:
            genre_mat[row, GENRES.index(g)] = 1.0
    genre_mat_norm = genre_mat / genre_mat.sum(axis=1, keepdims=True)

    # Designed popularity: a permuted Zipf ranking; the heaviest head_fraction
    # of items forms the intended short head.
    ranks = rng.permutation(config.n_items)
    zipf_w = (ranks + 1.0) ** (-config.zipf_exponent)
    n_head = max(1, int(math.ceil(config.head_fraction * config.n_items)))
    head_rows = np.argsort(-zipf_w, kind="stable")[:n_head]
    head_mask = np.zeros(config.n_items, dtype=bool)
    head_mask[head_rows] = True
    tail_rows = np.flatnonzero(~head_mask)

    quality = np.clip(rng.normal(0.0, config.quality_sd, config.n_items), -1.8, 1.8)

    ages = list(AGE_GROUPS)
    age_p = np.array([AGE_POPULATION_WEIGHTS[a] for a in ages])
    age_p = age_p / age_p.sum()

    users: dict[int, User] = {}
    columns: list[tuple[np.ndarray, ...]] = []  # (user, item, value, timestamp) per user
    # Guarantee every age group appears, then sample the rest by weight.
    assigned_ages = list(AGE_GROUPS) * 2
    remaining = config.n_users - len(assigned_ages)
    if remaining < 0:
        assigned_ages = assigned_ages[: config.n_users]
        remaining = 0
    assigned_ages.extend(
        int(rng.choice(ages, p=age_p)) for _ in range(remaining)
    )

    for user_id in range(1, config.n_users + 1):
        age = assigned_ages[user_id - 1]
        gender = "F" if rng.random() < 0.45 else "M"
        users[user_id] = User(user_id=user_id, age_group=age, gender=gender)

        n_u = int(
            np.clip(
                round(rng.lognormal(math.log(config.median_ratings_per_user), config.activity_sigma)),
                config.min_ratings_per_user,
                config.max_ratings_per_user,
            )
        )
        pref = prefs[age] * np.exp(rng.normal(0.0, config.pref_jitter, len(GENRES)))
        pref = pref / pref.sum()
        affinity = genre_mat_norm @ pref
        aff_sd = affinity.std() + 1e-12
        aff_z = (affinity - affinity.mean()) / aff_sd
        select_w = np.exp(config.genre_bias * aff_z)

        head_p = zipf_w[head_rows] * select_w[head_rows]
        head_p = head_p / head_p.sum()
        tail_p = select_w[tail_rows] / select_w[tail_rows].sum()

        # Long-tail propensity grows with the user's absolute rating index,
        # saturating at drift_scale_ratings; slope depends on age.
        idx = np.arange(1, n_u + 1)
        progress = np.minimum(1.0, idx / config.drift_scale_ratings)
        p_lt = np.clip(
            config.base_long_tail_rate + AGE_DRIFT_SLOPES[age] * progress, 0.0, 0.95
        )
        tail_flags = rng.random(n_u) < p_lt
        n_tail_wanted = int(tail_flags.sum())
        n_head_wanted = n_u - n_tail_wanted
        if n_head_wanted > head_rows.size:
            # Not enough distinct head items; flip the latest head picks to tail.
            overflow = n_head_wanted - head_rows.size
            head_positions = np.flatnonzero(~tail_flags)
            tail_flags[head_positions[-overflow:]] = True
            n_tail_wanted = int(tail_flags.sum())
            n_head_wanted = n_u - n_tail_wanted
        if n_tail_wanted > tail_rows.size:
            overflow = n_tail_wanted - tail_rows.size
            tail_positions = np.flatnonzero(tail_flags)
            tail_flags[tail_positions[-overflow:]] = False
            n_tail_wanted = int(tail_flags.sum())
            n_head_wanted = n_u - n_tail_wanted

        head_picks = (
            rng.choice(head_rows, size=n_head_wanted, replace=False, p=head_p)
            if n_head_wanted
            else np.empty(0, dtype=np.int64)
        )
        tail_picks = (
            rng.choice(tail_rows, size=n_tail_wanted, replace=False, p=tail_p)
            if n_tail_wanted
            else np.empty(0, dtype=np.int64)
        )
        sequence = np.empty(n_u, dtype=np.int64)
        sequence[~tail_flags] = head_picks
        sequence[tail_flags] = tail_picks

        mu = float(np.clip(rng.normal(config.user_mean_center, config.user_mean_sd), 2.5, 4.3))
        noise = rng.normal(0.0, config.noise_sd, n_u)
        # Users increasingly pick items they expect to like, so later
        # ratings trend higher than early ones.
        informed = config.selection_gain * (idx / n_u)
        raw = mu + quality[sequence] + config.affinity_gain * aff_z[sequence] + informed + noise
        values = np.clip(np.rint(raw), 1, 5).astype(np.int64)
        columns.append((np.full(n_u, user_id), item_ids[sequence], values, user_id * 1000 + idx))

    ratings = Ratings(*(np.concatenate(col) for col in zip(*columns)))
    return Dataset(users=users, items=items, ratings=ratings)


def write_movielens(dataset: Dataset, outdir: str | Path) -> dict[str, Path]:
    """Write the dataset as MovieLens-format ratings.dat/users.dat/movies.dat."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "ratings": outdir / "ratings.dat",
        "users": outdir / "users.dat",
        "movies": outdir / "movies.dat",
    }
    r = dataset.ratings
    with open(paths["ratings"], "w", encoding="latin-1") as fh:
        for row in zip(r.user.tolist(), r.item.tolist(), r.value.tolist(), r.timestamp.tolist()):
            fh.write("::".join(map(str, row)) + "\n")
    with open(paths["users"], "w", encoding="latin-1") as fh:
        for user_id in sorted(dataset.users):
            u = dataset.users[user_id]
            fh.write(f"{u.user_id}::{u.gender or 'M'}::{u.age_group}::0::00000\n")
    with open(paths["movies"], "w", encoding="latin-1") as fh:
        for item_id in sorted(dataset.items):
            it = dataset.items[item_id]
            genres = "|".join(sorted(it.genres))
            fh.write(f"{it.item_id}::{it.title}::{genres}\n")
    return paths
