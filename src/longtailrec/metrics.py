"""Evaluation metrics: precision against held-out ratings, novelty as the
reciprocal of summed recommended-item popularity, and aggregate diversity as
the count of distinct items recommended across all users."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import PopularityPartition, Ratings


def test_ratings_by_user(ratings: Ratings) -> dict[int, dict[int, int]]:
    """Index held-out ratings as user_id -> item_id -> rating value."""
    by_user: dict[int, dict[int, int]] = {}
    for u, i, v in zip(ratings.user.tolist(), ratings.item.tolist(), ratings.value.tolist()):
        by_user.setdefault(u, {})[i] = v
    return by_user


def precision(
    recommended: Mapping[int, Sequence[int]],
    test_by_user: Mapping[int, Mapping[int, int]],
    train_user_means: Mapping[int, float],
) -> float:
    """Fraction of recommended items that are relevant.

    An item is relevant when the user rated it in the held-out set strictly
    above their training-set mean rating; unobserved items count as
    not-relevant.
    """
    n_recommended = 0
    n_relevant = 0
    for user_id, items in recommended.items():
        n_recommended += len(items)
        tests = test_by_user.get(user_id, {})
        mean = train_user_means[user_id]
        for item_id in items:
            value = tests.get(item_id)
            if value is not None and value > mean:
                n_relevant += 1
    if n_recommended == 0:
        raise ValueError("no recommendations to evaluate")
    return n_relevant / n_recommended


def novelty(
    recommended: Mapping[int, Sequence[int]],
    partition: PopularityPartition,
) -> float:
    """Reciprocal of the summed training popularity over every recommended
    item occurrence; +inf when all recommended items are unrated in train."""
    if not any(len(items) for items in recommended.values()):
        raise ValueError("no recommendations to evaluate")
    every_item = np.fromiter((i for items in recommended.values() for i in items), dtype=np.int64)
    total = int(partition.popularity(every_item).sum())
    if total == 0:
        return math.inf
    return 1.0 / total


def aggregate_diversity(recommended: Mapping[int, Sequence[int]]) -> int:
    """Number of distinct items appearing in any user's list."""
    seen: set[int] = set()
    for items in recommended.values():
        seen.update(items)
    return len(seen)


@dataclass(frozen=True)
class UserBreakdown:
    user_id: int
    n_recommended: int
    n_relevant: int
    popularity_sum: int
    n_long_tail: int


@dataclass(frozen=True)
class EvalReport:
    method: str
    precision: float
    novelty: float
    novelty_infinite: bool
    aggregate_diversity: int
    n_users: int
    n_recommended: int
    per_user: tuple[UserBreakdown, ...] = ()
    config: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.precision <= 1.0:
            raise ValueError(f"precision out of [0,1]: {self.precision}")
        if self.aggregate_diversity < 0:
            raise ValueError("aggregate_diversity must be non-negative")


def build_report(
    method: str,
    recommended: Mapping[int, Sequence[int]],
    test_by_user: Mapping[int, Mapping[int, int]],
    train_user_means: Mapping[int, float],
    partition: PopularityPartition,
    config: Mapping[str, object] | None = None,
    catalog_size: int | None = None,
) -> EvalReport:
    """Compute all three metrics plus a per-user breakdown for one method."""
    prec = precision(recommended, test_by_user, train_user_means)
    nov = novelty(recommended, partition)
    agg = aggregate_diversity(recommended)
    if catalog_size is not None and agg > catalog_size:
        raise ValueError(
            f"aggregate diversity {agg} exceeds catalog size {catalog_size}"
        )
    breakdown = []
    for user_id in sorted(recommended):
        items = recommended[user_id]
        tests = test_by_user.get(user_id, {})
        mean = train_user_means[user_id]
        n_rel = sum(1 for i in items if tests.get(i) is not None and tests[i] > mean)
        ids = np.asarray(items, dtype=np.int64)
        pop_sum = int(partition.popularity(ids).sum())
        n_lt = int(partition.is_long_tail(ids).sum())
        breakdown.append(
            UserBreakdown(
                user_id=user_id,
                n_recommended=len(items),
                n_relevant=n_rel,
                popularity_sum=pop_sum,
                n_long_tail=n_lt,
            )
        )
    return EvalReport(
        method=method,
        precision=prec,
        novelty=nov,
        novelty_infinite=math.isinf(nov),
        aggregate_diversity=agg,
        n_users=len(recommended),
        n_recommended=sum(len(v) for v in recommended.values()),
        per_user=tuple(breakdown),
        config=dict(config or {}),
    )


def report_to_dict(report: EvalReport) -> dict:
    return {
        "method": report.method,
        "precision": report.precision,
        "novelty": "inf" if report.novelty_infinite else report.novelty,
        "novelty_infinite": report.novelty_infinite,
        "aggregate_diversity": report.aggregate_diversity,
        "n_users": report.n_users,
        "n_recommended": report.n_recommended,
        "per_user": [asdict(b) for b in report.per_user],
        "config": dict(report.config),
    }


def write_report_json(report: EvalReport, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_reports_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    """Summary table with one row per (method, metric)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "metric", "value"])
        for report in reports:
            writer.writerow([report.method, "precision", f"{report.precision:.6f}"])
            nov = "inf" if report.novelty_infinite else f"{report.novelty:.10g}"
            writer.writerow([report.method, "novelty", nov])
            writer.writerow([report.method, "aggregate_diversity", report.aggregate_diversity])
            writer.writerow([report.method, "n_users", report.n_users])
