"""The four list objectives (all minimized) and weighted-sum scalarization.

Objectives per candidate list: summed item popularity (long-tail pressure),
inverse summed predicted rating (accuracy pressure), absolute deviation from
the activity/age long-tail quota, and L1 distance between the list's genre
distribution and the age group's genre distribution. `ObjectiveContext`
evaluates them over index-encoded lists drawn from one user's candidate pool,
from item attribute arrays aligned to that pool, and normalizes each by the
bounds any k-subset of that pool can reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class CandidateList:
    """A length-k recommendation list for one user (the chromosome)."""

    user_id: int
    items: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.items)

    def validate(self, rated_items: frozenset[int] | set[int]) -> None:
        """Raise if the list repeats items or recommends already-rated items."""
        if len(set(self.items)) != len(self.items):
            raise ValueError(f"duplicate items in candidate list for user {self.user_id}")
        clash = set(self.items) & set(rated_items)
        if clash:
            raise ValueError(
                f"candidate list for user {self.user_id} contains rated items {sorted(clash)}"
            )


@dataclass(frozen=True)
class ObjectiveVector:
    long_tail_participation: float
    accuracy_obj: float
    dynamic_quota: int
    genre_distance: float

    def as_array(self) -> np.ndarray:
        return np.array([
            self.long_tail_participation,
            self.accuracy_obj,
            float(self.dynamic_quota),
            self.genre_distance,
        ])


@dataclass(frozen=True)
class ObjectiveWeights:
    w1: float = 0.25  # long-tail participation
    w2: float = 0.25  # accuracy
    w3: float = 0.25  # dynamic quota
    w4: float = 0.25  # genre distance

    def __post_init__(self):
        arr = self.as_array()
        if (arr < 0).any():
            raise ValueError(f"weights must be non-negative, got {arr}")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {arr.sum()}")

    def as_array(self) -> np.ndarray:
        return np.array([self.w1, self.w2, self.w3, self.w4])

    @classmethod
    def normalized(cls, values: Sequence[float]) -> "ObjectiveWeights":
        arr = np.asarray(values, dtype=float)
        if arr.shape != (4,) or (arr < 0).any() or arr.sum() <= 0:
            raise ValueError(f"need 4 non-negative weights with positive sum, got {values}")
        arr = arr / arr.sum()
        return cls(*arr.tolist())


class ObjectiveContext:
    """Vectorized objective evaluation over a fixed per-user candidate pool.

    Individuals are index arrays into the pool. Normalization bounds are the
    extremes attainable by any k-subset of the pool, so fitness comparisons
    stay consistent across an entire optimization run.
    """

    def __init__(
        self,
        user_id: int,
        pool_items: Sequence[int],
        k: int,
        popularity: np.ndarray,
        predictions: np.ndarray,
        long_tail: np.ndarray,
        genres: np.ndarray,
        pgu: np.ndarray,
        target_lt: int,
        weights: ObjectiveWeights,
    ):
        if len(set(pool_items)) != len(pool_items):
            raise ValueError("pool contains duplicate items")
        if len(pool_items) < k:
            raise ValueError(f"pool of {len(pool_items)} items cannot fill lists of length {k}")
        self.user_id = user_id
        self.k = k
        self.pool_items = np.asarray(pool_items, dtype=np.int64)
        self.pop_counts = np.asarray(popularity, dtype=float)
        self.preds = np.asarray(predictions, dtype=float)
        self.is_lt = np.asarray(long_tail, dtype=bool)
        self.genre_mat = np.asarray(genres, dtype=float)
        n = self.pool_items.size
        if any(len(a) != n for a in (self.pop_counts, self.preds, self.is_lt, self.genre_mat)):
            raise ValueError(f"item attributes must be aligned to the {n} pool items")
        self.pgu = np.asarray(pgu, dtype=float)
        self.target_lt = int(target_lt)
        self.weights = weights.as_array()

        pops_sorted = np.sort(self.pop_counts)
        preds_sorted = np.sort(self.preds)
        lo = np.array([
            pops_sorted[:k].sum(),
            1.0 / preds_sorted[-k:].sum(),
            0.0,
            0.0,
        ])
        hi = np.array([
            pops_sorted[-k:].sum(),
            1.0 / preds_sorted[:k].sum(),
            float(k),
            2.0,
        ])
        self.norm_lo = lo
        self.norm_span = np.where(hi - lo > 0, hi - lo, 1.0)

    def objectives(self, population: np.ndarray) -> np.ndarray:
        """Objective matrix (n, 4) for index-encoded individuals (n, k)."""
        pop = np.atleast_2d(population)
        out = np.empty((pop.shape[0], 4))
        out[:, 0] = self.pop_counts[pop].sum(axis=1)
        out[:, 1] = 1.0 / self.preds[pop].sum(axis=1)
        out[:, 2] = np.abs(self.is_lt[pop].sum(axis=1) - self.target_lt)
        # 0/1 indicators: the counts are exact in any order, so sum whole rows.
        genre_counts = self.genre_mat[pop.T].sum(axis=0)
        out[:, 3] = self.genre_distance(genre_counts, genre_counts.sum(axis=1))
        return out

    def genre_distance(self, genre_counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """L1 distance between each row's genre distribution (from its (n, 18)
        genre counts and their (n,) row totals) and the age group's."""
        pgl = genre_counts / totals[:, None]
        return np.abs(self.pgu[None, :] - pgl).sum(axis=1)

    def fitness_from_objectives(self, objs: np.ndarray) -> np.ndarray:
        normalized = (objs - self.norm_lo) / self.norm_span
        return normalized @ self.weights

    def fitness(self, population: np.ndarray) -> np.ndarray:
        return self.fitness_from_objectives(self.objectives(population))

    def vector(self, individual: np.ndarray) -> ObjectiveVector:
        row = self.objectives(individual[None, :])[0]
        return ObjectiveVector(
            long_tail_participation=float(row[0]),
            accuracy_obj=float(row[1]),
            dynamic_quota=int(round(row[2])),
            genre_distance=float(row[3]),
        )

    def candidate(self, individual: np.ndarray) -> CandidateList:
        return CandidateList(
            user_id=self.user_id,
            items=tuple(int(i) for i in self.pool_items[individual]),
        )
