"""Seeded MovieLens-format input generator for the benchmark.

Writes ``ratings.dat``, ``users.dat`` and ``movies.dat`` with the structure
the recommender depends on: age-group genre tastes, a Zipf short head over a
long tail, and a drift toward long-tail items that grows with each user's
activity and is steeper for older groups. It is written apart from
``longtailrec.synth`` on purpose, so that an edit to the program cannot change
the benchmark's inputs.

    python3 bench/gen_inputs.py --shape desk --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENRES = (
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)
AGES = (1, 18, 25, 35, 45, 50, 56)
AGE_WEIGHTS = (0.08, 0.18, 0.22, 0.18, 0.12, 0.11, 0.11)
AGE_FAVORITES = {
    1: ("Animation", "Children's", "Musical"),
    18: ("Horror", "Action", "Sci-Fi"),
    25: ("Action", "Thriller", "Adventure"),
    35: ("Crime", "Thriller", "Drama"),
    45: ("Romance", "Mystery", "Drama"),
    50: ("Documentary", "War", "Drama"),
    56: ("Film-Noir", "Western", "War"),
}
# Growth of the long-tail share of new ratings over a user's first
# `drift_scale` ratings; older groups drift further into the tail.
AGE_DRIFT = {1: 0.00, 18: 0.03, 25: 0.06, 35: 0.10, 45: 0.14, 50: 0.18, 56: 0.24}


@dataclass(frozen=True)
class Shape:
    n_users: int
    n_items: int
    min_ratings: int
    max_ratings: int
    median_ratings: float
    activity_sigma: float
    zipf_exponent: float
    quality_sd: float
    affinity_gain: float
    noise_sd: float
    head_fraction: float = 0.2
    base_long_tail: float = 0.47
    drift_scale: int = 200
    genre_bias: float = 1.2
    selection_gain: float = 0.9


SHAPES = {
    # The make-up of the acceptance suite's desk dataset: ~260k ratings.
    "desk": Shape(
        n_users=1500, n_items=1200, min_ratings=90, max_ratings=450,
        median_ratings=150.0, activity_sigma=0.5, zipf_exponent=1.05,
        quality_sd=1.1, affinity_gain=0.38, noise_sd=0.30,
    ),
    # MovieLens-1M counts: 6040 users, 3706 rated movies, ~0.85M ratings,
    # at least 20 ratings per user.
    "ml1m": Shape(
        n_users=6040, n_items=3706, min_ratings=20, max_ratings=1500,
        median_ratings=118.0, activity_sigma=0.6, zipf_exponent=1.0,
        quality_sd=0.9, affinity_gain=0.45, noise_sd=0.35,
    ),
    # A small shape for the benchmark's own tests.
    "tiny": Shape(
        n_users=120, n_items=200, min_ratings=30, max_ratings=90,
        median_ratings=45.0, activity_sigma=0.4, zipf_exponent=1.0,
        quality_sd=1.0, affinity_gain=0.4, noise_sd=0.3,
    ),
}


def _weighted_order(rng: np.random.Generator, weights: np.ndarray, n: int) -> np.ndarray:
    """`n` distinct indices drawn in order, without replacement, in proportion
    to `weights` (Gumbel top-n, the same law as sequential draws)."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    keys = np.log(weights) + rng.gumbel(size=weights.size)
    top = np.argpartition(-keys, n - 1)[:n]
    return top[np.argsort(-keys[top], kind="stable")]


def generate(shape: Shape, seed: int):
    """Return (users, movies, ratings) as arrays; ratings rows are
    (user_id, item_id, value, timestamp)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 20211206]))
    n_g = len(GENRES)

    genre_p = np.ones(n_g)
    for name in ("Drama", "Comedy", "Action", "Thriller"):
        genre_p[GENRES.index(name)] += 1.5
    genre_p /= genre_p.sum()
    genre_mat = np.zeros((shape.n_items, n_g))
    for row in range(shape.n_items):
        n_genres = 1 + int(rng.binomial(2, 0.45))
        genre_mat[row, rng.choice(n_g, size=n_genres, replace=False, p=genre_p)] = 1.0
    genre_share = genre_mat / genre_mat.sum(axis=1, keepdims=True)
    years = 1980 + rng.integers(21, size=shape.n_items)

    zipf = (rng.permutation(shape.n_items) + 1.0) ** (-shape.zipf_exponent)
    n_head = math.ceil(shape.head_fraction * shape.n_items)
    head = np.argsort(-zipf, kind="stable")[:n_head]
    is_head = np.zeros(shape.n_items, dtype=bool)
    is_head[head] = True
    tail = np.flatnonzero(~is_head)
    quality = np.clip(rng.normal(0.0, shape.quality_sd, shape.n_items), -1.8, 1.8)

    taste = {}
    for age, favorites in AGE_FAVORITES.items():
        base = np.full(n_g, 0.3)
        base[[GENRES.index(g) for g in favorites]] += 2.0
        taste[age] = base / base.sum()

    ages = np.array(AGES * 2 + tuple(
        rng.choice(AGES, size=shape.n_users - 2 * len(AGES), p=AGE_WEIGHTS)
    ))
    genders = np.where(rng.random(shape.n_users) < 0.45, "F", "M")
    activity = np.clip(
        np.rint(rng.lognormal(math.log(shape.median_ratings), shape.activity_sigma, shape.n_users)),
        shape.min_ratings, shape.max_ratings,
    ).astype(np.int64)

    blocks = []
    clock = 956_700_000
    for u in range(shape.n_users):
        age, n_u = int(ages[u]), int(activity[u])
        pref = taste[age] * np.exp(rng.normal(0.0, 0.15, n_g))
        affinity = genre_share @ (pref / pref.sum())
        aff_z = (affinity - affinity.mean()) / (affinity.std() + 1e-12)
        select = np.exp(shape.genre_bias * aff_z)

        progress = np.minimum(1.0, np.arange(1, n_u + 1) / shape.drift_scale)
        wants_tail = rng.random(n_u) < np.clip(
            shape.base_long_tail + AGE_DRIFT[age] * progress, 0.0, 0.95
        )
        # Neither side can hold more picks than it has items: when one
        # overflows, flip the fewest flags needed (stable order keeps the rest).
        n_tail = int(np.clip(wants_tail.sum(), n_u - head.size, tail.size))
        if n_tail != int(wants_tail.sum()):
            order = np.argsort(wants_tail, kind="stable")
            wants_tail[:] = False
            wants_tail[order[n_u - n_tail:]] = True
        picks = np.empty(n_u, dtype=np.int64)
        picks[~wants_tail] = head[_weighted_order(rng, zipf[head] * select[head], n_u - n_tail)]
        picks[wants_tail] = tail[_weighted_order(rng, select[tail], n_tail)]

        mu = float(np.clip(rng.normal(3.4, 0.35), 2.5, 4.3))
        drift = shape.selection_gain * np.arange(1, n_u + 1) / n_u
        raw = mu + quality[picks] + shape.affinity_gain * aff_z[picks] + drift \
            + rng.normal(0.0, shape.noise_sd, n_u)
        values = np.clip(np.rint(raw), 1, 5).astype(np.int64)
        # Mostly increasing timestamps with occasional same-second ties.
        stamps = clock + np.cumsum(rng.integers(0, 90, size=n_u))
        clock = int(stamps[-1]) + 1
        blocks.append(np.stack([np.full(n_u, u + 1), picks + 1, values, stamps], axis=1))

    users = [(u + 1, str(genders[u]), int(ages[u])) for u in range(shape.n_users)]
    movies = [
        (i + 1, f"Bench Movie {i + 1} ({years[i]})", "|".join(GENRES[g] for g in np.flatnonzero(genre_mat[i])))
        for i in range(shape.n_items)
    ]
    return users, movies, np.concatenate(blocks)


def write(shape: Shape, seed: int, out: Path) -> None:
    """Write the three files into `out`, atomically (temporary dir + rename)."""
    users, movies, ratings = generate(shape, seed)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    with open(tmp / "users.dat", "w", encoding="latin-1") as fh:
        fh.writelines(f"{u}::{g}::{a}::0::00000\n" for u, g, a in users)
    with open(tmp / "movies.dat", "w", encoding="latin-1") as fh:
        fh.writelines(f"{i}::{t}::{g}\n" for i, t, g in movies)
    with open(tmp / "ratings.dat", "w", encoding="latin-1") as fh:
        fh.writelines(f"{u}::{i}::{v}::{t}\n" for u, i, v, t in ratings.tolist())
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write(SHAPES[args.shape], args.seed, args.out)


if __name__ == "__main__":
    main()
