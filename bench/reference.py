"""The benchmark's own reading of its input files, and the output checks.

Everything here is computed from the raw MovieLens-format files with numpy
alone: the temporal split, the training means, item popularity and each
user's candidate universe. Nothing is imported from the program under test,
so a fault in its reader, split or counts cannot hide in the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

SPLIT_FRACTION = 0.2
MIN_TRAIN = 5
HEAD_FRACTION = 0.2


def _read_ints(path: Path) -> np.ndarray:
    """The leading integer fields of a ``::``-separated file, one row per line."""
    lines = Path(path).read_text(encoding="latin-1").splitlines()
    return np.array([int(line.split("::", 1)[0]) for line in lines if line], dtype=np.int64)


def read_ratings(path: Path) -> np.ndarray:
    """(n, 4) array of user, item, value, timestamp."""
    text = Path(path).read_text(encoding="latin-1").replace("::", " ")
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 4)


@dataclass
class Reference:
    """Per-user train/test sets, training means and item popularity."""

    k: int
    universe: str  # "test" or "catalog"
    catalog: frozenset[int]
    train: dict[int, frozenset[int]]
    test: dict[int, dict[int, int]]
    train_mean: dict[int, float]
    popularity: dict[int, int]
    long_tail: frozenset[int]

    def universe_of(self, user: int) -> frozenset[int]:
        if self.universe == "test":
            return frozenset(self.test.get(user, {}))
        return self.catalog - self.train[user]

    def eligible(self) -> set[int]:
        """Warm users with a held-out rating and at least k candidates."""
        return {
            u for u, items in self.train.items()
            if len(items) >= MIN_TRAIN and self.test.get(u) and len(self.universe_of(u)) >= self.k
        }


def load(inputs: Path, universe: str, k: int) -> Reference:
    """Split each user's ratings by time: the latest ceil(0.2 n) are held out
    (ties by item id), unless that leaves fewer than MIN_TRAIN for training."""
    inputs = Path(inputs)
    catalog = frozenset(_read_ints(inputs / "movies.dat").tolist())
    r = read_ratings(inputs / "ratings.dat")
    r = r[np.lexsort((r[:, 1], r[:, 3], r[:, 0]))]
    users, start, counts = np.unique(r[:, 0], return_index=True, return_counts=True)
    n_test = np.array([math.ceil(SPLIT_FRACTION * n) for n in counts.tolist()])
    n_test[counts - n_test < MIN_TRAIN] = 0
    rank = np.arange(len(r)) - np.repeat(start, counts)
    held_out = rank >= np.repeat(counts - n_test, counts)

    train: dict[int, frozenset[int]] = {}
    test: dict[int, dict[int, int]] = {}
    train_mean: dict[int, float] = {}
    for u, s, n, t in zip(users.tolist(), start.tolist(), counts.tolist(), n_test.tolist()):
        rows = r[s:s + n]
        train[u] = frozenset(rows[: n - t, 1].tolist())
        train_mean[u] = float(rows[: n - t, 2].sum()) / (n - t)
        if t:
            test[u] = dict(zip(rows[n - t:, 1].tolist(), rows[n - t:, 2].tolist()))
    items, item_counts = np.unique(r[~held_out, 1], return_counts=True)
    popularity = dict.fromkeys(catalog, 0)
    popularity.update(zip(items.tolist(), item_counts.tolist()))
    # The short head: the most-rated ceil(0.2 |catalog|) items, ties by id.
    by_count = sorted(catalog, key=lambda i: (-popularity[i], i))
    long_tail = frozenset(by_count[math.ceil(HEAD_FRACTION * len(catalog)):])
    return Reference(k, universe, catalog, train, test, train_mean, popularity, long_tail)


def list_fault(ref: Reference, user: int, items: Sequence[int]) -> str | None:
    """Why one list is wrong, or None when it is a valid list for the user."""
    if user not in ref.train:
        return f"user {user} has no training ratings"
    if len(items) != ref.k:
        return f"user {user}: length {len(items)}, expected {ref.k}"
    if len(set(items)) != len(items):
        return f"user {user}: duplicate items"
    if set(items) & ref.train[user]:
        return f"user {user}: recommends a training item"
    if not set(items) <= ref.universe_of(user):
        return f"user {user}: item outside the {ref.universe} universe"
    return None


@dataclass(frozen=True)
class Quality:
    precision: float
    novelty: float
    aggregate_diversity: int
    long_tail_items: int


def quality(ref: Reference, lists: Mapping[int, Sequence[int]]) -> Quality:
    """Precision (held-out rating above the training mean), novelty (1 / summed
    training popularity), aggregate diversity (distinct items) and the number
    of recommended long-tail items."""
    n = relevant = pop = tail = 0
    for user, items in lists.items():
        tests = ref.test.get(user, {})
        n += len(items)
        relevant += sum(1 for i in items if tests.get(i, 0) > ref.train_mean[user])
        pop += sum(ref.popularity[i] for i in items)
        tail += sum(1 for i in items if i in ref.long_tail)
    novelty = math.inf if pop == 0 else 1.0 / pop
    distinct = len({i for items in lists.values() for i in items})
    return Quality(relevant / n, novelty, distinct, tail)


def quality_fault(ref: Reference, lists: Mapping[int, Sequence[int]], reported: Mapping) -> str | None:
    """Compare a report's precision, novelty, aggregate diversity and
    long-tail count with the values recomputed from its lists."""
    mine = quality(ref, lists)
    for name in ("precision", "novelty", "aggregate_diversity", "long_tail_items"):
        got, want = reported[name], getattr(mine, name)
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            return f"{name}: reported {got!r}, recomputed {want!r}"
    return None


def history_fault(
    rounds: Sequence[Mapping[int, Sequence[int]]], history: Mapping[int, int], k: int
) -> str | None:
    """Each item's serving count equals the number of lists holding it, and
    the counts sum to k x users x rounds."""
    expected: dict[int, int] = {}
    for lists in rounds:
        for items in lists.values():
            for i in items:
                expected[i] = expected.get(i, 0) + 1
    wrong = sorted(i for i in set(expected) | set(history) if history.get(i, 0) != expected.get(i, 0))
    if wrong:
        return f"serving history disagrees with the lists on {len(wrong)} items, e.g. {wrong[:3]}"
    total = sum(history.values())
    want = k * sum(len(lists) for lists in rounds)
    if total != want:
        return f"serving counts sum to {total}, expected {want}"
    return None
