"""Shared fixtures: seeded tiny random instances used across the test suite.

The generator produces adversarially small datasets (non-contiguous ids,
zero-rating users and items, timestamp ties) so index/id confusions and
degenerate statistics surface quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import pytest

from longtailrec.cf import RatingMatrix
from longtailrec.dataset import (
    AGE_GROUPS,
    GENRES,
    Dataset,
    Item,
    PopularityPartition,
    Rating,
    Ratings,
    User,
    popularity_partition,
)
from longtailrec.objectives import ObjectiveContext, ObjectiveWeights


@dataclass
class TinyInstance:
    """A small dataset plus the derived training matrix and popularity split."""

    seed: int
    users: dict[int, User]
    items: dict[int, Item]
    ratings: Ratings
    train: RatingMatrix
    partition: PopularityPartition

    @property
    def dataset(self) -> Dataset:
        return Dataset(users=self.users, items=self.items, ratings=self.ratings)

    @property
    def item_genres(self) -> np.ndarray:
        """The genre matrix aligned to ``train.item_ids`` (every item id)."""
        return genre_rows(self.items, self.train.item_ids)

    def rated_items_of(self, user_id: int) -> frozenset[int]:
        return frozenset(int(i) for i in self.train.item_ids[self.train.rated_item_indices(user_id)])

    def warmest_user(self) -> int:
        """The user with the most ratings (ties to the smallest id)."""
        counts = self.train.user_rating_counts
        best = int(np.lexsort((self.train.user_ids, -counts))[0])
        return int(self.train.user_ids[best])


def make_random_instance(
    seed: int,
    max_users: int = 10,
    max_items: int = 15,
    max_ratings: int = 60,
    min_users: int = 2,
    min_items: int = 2,
) -> TinyInstance:
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(min_users, max_users + 1))
    n_items = int(rng.integers(min_items, max_items + 1))

    user_ids = sorted(int(u) for u in rng.choice(np.arange(1, 3 * max_users + 2), size=n_users, replace=False))
    item_ids = sorted(int(i) for i in rng.choice(np.arange(1, 3 * max_items + 2), size=n_items, replace=False))

    users = {
        u: User(user_id=u, age_group=int(rng.choice(AGE_GROUPS)))
        for u in user_ids
    }
    items = {}
    for i in item_ids:
        n_genres = int(rng.integers(1, 5))
        genres = frozenset(rng.choice(GENRES, size=n_genres, replace=False).tolist())
        items[i] = Item(item_id=i, title=f"t{i}", genres=genres)

    max_pairs = n_users * n_items
    n_ratings = int(rng.integers(1, min(max_ratings, max_pairs) + 1))
    pair_idx = rng.choice(max_pairs, size=n_ratings, replace=False)
    ratings = []
    for p in pair_idx:
        u = user_ids[int(p) // n_items]
        i = item_ids[int(p) % n_items]
        ratings.append(
            Rating(
                user_id=u,
                item_id=i,
                value=int(rng.integers(1, 6)),
                timestamp=int(rng.integers(0, 50)),  # small range forces ties
            )
        )
    ratings.sort(key=lambda r: (r.user_id, r.timestamp, r.item_id))
    ratings = Ratings.from_rows(ratings)

    train = RatingMatrix(ratings, user_ids=user_ids, item_ids=item_ids)
    partition = popularity_partition(ratings, item_ids, head_item_fraction=0.2)
    return TinyInstance(
        seed=seed,
        users=users,
        items=items,
        ratings=ratings,
        train=train,
        partition=partition,
    )


def genre_rows(items: Mapping[int, Item], item_ids) -> np.ndarray:
    """0/1 genre rows of the given items, read one by one from their genre sets."""
    mat = np.zeros((len(item_ids), len(GENRES)))
    for row, item_id in enumerate(np.asarray(item_ids).tolist()):
        for g in items[item_id].genres:
            mat[row, GENRES.index(g)] = 1.0
    return mat


def partition_from_counts(
    counts: Mapping[int, int], head, head_item_fraction: float = 0.2
) -> PopularityPartition:
    """A partition with the given per-item counts and short-head ids."""
    ids = np.array(sorted(counts), dtype=np.int64)
    return PopularityPartition(
        item_ids=ids,
        counts=np.array([counts[i] for i in ids.tolist()], dtype=np.int64),
        long_tail=~np.isin(ids, list(head)),
        head_item_fraction=head_item_fraction,
    )


def partition_counts(partition: PopularityPartition) -> dict[int, int]:
    return dict(zip(partition.item_ids.tolist(), partition.counts.tolist()))


def long_tail_ids(partition: PopularityPartition) -> set[int]:
    return set(partition.item_ids[partition.long_tail].tolist())


def pool_context(
    pool_items,
    k: int,
    partition: PopularityPartition,
    predictions: Mapping[int, float],
    items: Mapping[int, Item],
    pgu: np.ndarray,
    target_lt: int,
    weights: ObjectiveWeights,
    user_id: int = 1,
) -> ObjectiveContext:
    """An ObjectiveContext whose item attributes are read from the partition,
    a prediction dict and the item genres, aligned to ``pool_items``."""
    ids = np.asarray(pool_items, dtype=np.int64)
    return ObjectiveContext(
        user_id=user_id,
        pool_items=ids,
        k=k,
        popularity=partition.popularity(ids),
        predictions=np.array([predictions[i] for i in ids.tolist()], dtype=float),
        long_tail=partition.is_long_tail(ids),
        genres=genre_rows(items, ids),
        pgu=pgu,
        target_lt=target_lt,
        weights=weights,
    )


@pytest.fixture
def tiny() -> TinyInstance:
    return make_random_instance(seed=12345)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
