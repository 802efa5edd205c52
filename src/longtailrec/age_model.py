"""Nearest-centroid age-group prediction from per-user genre rating profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cf import ColdUserError
from .dataset import AGE_GROUPS, GENRE_INDEX, N_GENRES, Item, Rating


@dataclass(frozen=True)
class AgeClassifier:
    """One mean genre-profile centroid per age group; nearest wins."""

    centroids: np.ndarray  # (7, 18), row order follows AGE_GROUPS

    def predict(self, features: np.ndarray) -> int:
        d = np.linalg.norm(self.centroids - features, axis=1)
        best = d.min()
        # exact ties resolve to the smallest age value (rows are age-ascending)
        return AGE_GROUPS[int(np.nonzero(d == best)[0][0])]


def featurize_users(
    train: Sequence[Rating],
    items: Mapping[int, Item],
    user_ids: Sequence[int],
) -> np.ndarray:
    """Normalized genre-incidence vectors, one row per requested user.

    Raises ColdUserError if any requested user has no training ratings.
    """
    pos = {u: i for i, u in enumerate(user_ids)}
    counts = np.zeros((len(user_ids), N_GENRES))
    for r in train:
        row = pos.get(r.user_id)
        if row is None:
            continue
        for g in items[r.item_id].genres:
            counts[row, GENRE_INDEX[g]] += 1.0
    totals = counts.sum(axis=1)
    for i, u in enumerate(user_ids):
        if totals[i] == 0:
            raise ColdUserError(u)
    return counts / totals[:, None]


def train_age_classifier(features: np.ndarray, labels: Sequence[int]) -> AgeClassifier:
    """Fit per-age-group mean centroids.

    Every one of the 7 age groups must be represented; missing groups are an
    error (the caller cannot meaningfully predict a group never observed).
    """
    labels = np.asarray(labels)
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on length")
    missing = [age for age in AGE_GROUPS if not (labels == age).any()]
    if missing:
        raise ValueError(f"no training users for age group(s) {missing}")
    centroids = np.zeros((len(AGE_GROUPS), N_GENRES))
    for row, age in enumerate(AGE_GROUPS):
        group = features[labels == age]
        # canonical row order makes the mean independent of input ordering
        group = group[np.lexsort(group.T[::-1])]
        centroids[row] = group.mean(axis=0)
    return AgeClassifier(centroids=centroids)
