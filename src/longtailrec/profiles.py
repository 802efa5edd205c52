"""Age-conditioned genre distributions and long-tail-share-vs-activity curves.

These profiles parameterize the dynamic-preference objectives: the genre
distribution of an age group (``pgu``) anchors the genre-distance objective,
and the activity curves set how many long-tail items a list should carry for
a user at a given activity level.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .cf import RatingMatrix
from .dataset import AGE_GROUPS, GENRES, N_GENRES, PopularityPartition, Ratings, User


@dataclass(frozen=True)
class AgeGenreProfile:
    age_group: int
    pgu: np.ndarray  # (18,) genre-incidence fractions, sums to 1
    synthesized: bool = False  # True when the group had no ratings (uniform fallback)


@dataclass(frozen=True)
class ActivityBin:
    lo: int  # inclusive activity index range
    hi: int
    share: float  # long-tail share of ratings in the bin
    population: int


@dataclass(frozen=True)
class DynamicsCurve:
    age_group: int
    bins: tuple[ActivityBin, ...]
    synthesized: bool = False


def checked_genres(train: RatingMatrix, item_genres: np.ndarray) -> np.ndarray:
    """``item_genres`` (the 0/1 genre matrix G, one row per catalog item) if
    its rows align with the matrix's item columns; ValueError otherwise."""
    if np.shape(item_genres) != (train.item_ids.size, N_GENRES):
        raise ValueError(
            f"item genre matrix has shape {np.shape(item_genres)}, "
            f"expected ({train.item_ids.size}, {N_GENRES}) for the rating matrix's items"
        )
    return item_genres


def user_genre_counts(
    train: RatingMatrix, item_genres: np.ndarray, rows: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Genre incidences of each user's training ratings, ``B · G``: one row
    per matrix row (or per row of ``rows``), one column per genre. A rating
    of a 3-genre movie contributes 3 incidences; the counts are exact."""
    b = train.B if rows is None else train.B[np.asarray(rows, dtype=np.int64)]
    return np.asarray(b @ checked_genres(train, item_genres))


def build_age_genre_profiles(
    train: RatingMatrix,
    users: Mapping[int, User],
    item_genres: np.ndarray,
) -> dict[int, AgeGenreProfile]:
    """Per age group, the normalized genre-incidence distribution of its ratings.

    The per-user counts ``B · G`` are summed over each group's users. Groups
    with zero ratings get the uniform vector, flagged as synthesized.
    """
    if not train.R.nnz:
        raise ValueError("training ratings required")
    rated = np.flatnonzero(train.user_rating_counts > 0)
    by_user = user_genre_counts(train, item_genres, rated)
    ages = np.array([users[u].age_group for u in train.user_ids[rated].tolist()])

    profiles: dict[int, AgeGenreProfile] = {}
    for age in AGE_GROUPS:
        counts = by_user[ages == age].sum(axis=0)
        total = counts.sum()
        if total > 0:
            profiles[age] = AgeGenreProfile(age_group=age, pgu=counts / total)
        else:
            profiles[age] = AgeGenreProfile(
                age_group=age, pgu=np.full(N_GENRES, 1.0 / N_GENRES), synthesized=True
            )
    return profiles


def build_dynamics_curves(
    train: Ratings,
    users: Mapping[int, User],
    partition: PopularityPartition,
    n_bins: int = 10,
) -> dict[int, DynamicsCurve]:
    """Long-tail share of ratings, binned by per-user activity index, per age group.

    Activity index is the 1-based position of a rating in its user's timeline.
    Bins are equal-population over the pooled indices of the age group (rating
    count distributions are heavy-tailed, so equal-width bins would starve the
    high-activity end). Groups with no ratings get flat 0.5 curves, flagged.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")

    # Every rating's activity index: its user's ratings ordered by
    # timestamp, then item id.
    n = len(train)
    user, item = train.user, train.item
    order = np.lexsort((item, train.timestamp, user))
    user_ids, starts, per_user = np.unique(user[order], return_index=True, return_counts=True)
    activity = np.arange(n) - np.repeat(starts, per_user) + 1
    user_ages = np.array([users[u].age_group for u in user_ids.tolist()], dtype=np.int64)
    age = np.repeat(user_ages, per_user)
    long_tail = partition.is_long_tail(item[order])

    curves: dict[int, DynamicsCurve] = {}
    for group in AGE_GROUPS:
        in_group = age == group
        if not in_group.any():
            bins = tuple(
                ActivityBin(lo=b + 1, hi=b + 1, share=0.5, population=0)
                for b in range(n_bins)
            )
            curves[group] = DynamicsCurve(age_group=group, bins=bins, synthesized=True)
            continue
        act_arr, lt_arr = activity[in_group], long_tail[in_group]
        acts = np.sort(act_arr)
        n = acts.size
        ranges: list[tuple[int, int]] = []
        prev_hi = 0
        for b in range(1, n_bins + 1):
            pos = min(n - 1, round(b * n / n_bins) - 1)
            hi = int(acts[pos]) if b < n_bins else int(acts[-1])
            if hi <= prev_hi:
                continue  # duplicate boundary: merge into the previous bin
            ranges.append((prev_hi + 1, hi))
            prev_hi = hi

        out_bins: list[ActivityBin] = []
        for lo, hi in ranges:
            mask = (act_arr >= lo) & (act_arr <= hi)
            population = int(mask.sum())
            share = float(lt_arr[mask].mean()) if population else 0.0
            out_bins.append(ActivityBin(lo=lo, hi=hi, share=share, population=population))
        curves[group] = DynamicsCurve(age_group=group, bins=tuple(out_bins))
    return curves


def target_long_tail_count(curve: DynamicsCurve, n_ratings_registered: int, k: int) -> int:
    """How many of the k list slots should hold long-tail items at this activity level."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    share = curve.bins[-1].share
    for b in curve.bins:
        if n_ratings_registered <= b.hi:
            share = b.share
            break
    target = math.floor(share * k + 0.5)
    return max(0, min(k, target))


def write_profiles_csv(profiles: Mapping[int, AgeGenreProfile], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["age_group", "genre", "pgu", "synthesized"])
        for age in sorted(profiles):
            p = profiles[age]
            for g, genre in enumerate(GENRES):
                w.writerow([age, genre, repr(float(p.pgu[g])), str(p.synthesized).lower()])


def write_curves_csv(curves: Mapping[int, DynamicsCurve], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["age_group", "bin_lo", "bin_hi", "share", "population", "synthesized"])
        for age in sorted(curves):
            c = curves[age]
            for b in c.bins:
                w.writerow([age, b.lo, b.hi, repr(b.share), b.population, str(c.synthesized).lower()])
