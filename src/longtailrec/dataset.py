"""MovieLens-format ingestion, temporal splitting and the popularity partition."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

#: Canonical genre vocabulary, in the order genre vectors are indexed.
GENRES: tuple[str, ...] = (
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)
GENRE_INDEX: Mapping[str, int] = {g: i for i, g in enumerate(GENRES)}
N_GENRES = len(GENRES)

#: Age-bucket lower bounds used by MovieLens-style user files.
AGE_GROUPS: tuple[int, ...] = (1, 18, 25, 35, 45, 50, 56)

#: Users need at least this many training ratings to be considered warm.
MIN_WARM_TRAIN_RATINGS = 5


class ParseError(ValueError):
    """Malformed input line; carries the file and 1-based line number."""

    def __init__(self, path, line_number: int, message: str):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{self.path}:{line_number}: {message}")


@dataclass(frozen=True)
class User:
    user_id: int
    age_group: int
    gender: Optional[str] = None

    def __post_init__(self):
        if self.user_id <= 0:
            raise ValueError(f"user_id must be positive, got {self.user_id}")
        if self.age_group not in AGE_GROUPS:
            raise ValueError(
                f"age_group must be one of {AGE_GROUPS}, got {self.age_group}"
            )


@dataclass(frozen=True)
class Item:
    item_id: int
    title: str
    genres: frozenset[str]

    def __post_init__(self):
        if self.item_id <= 0:
            raise ValueError(f"item_id must be positive, got {self.item_id}")
        if not self.genres:
            raise ValueError(f"item {self.item_id} has no genres")
        unknown = self.genres - set(GENRES)
        if unknown:
            raise ValueError(f"item {self.item_id} has unknown genres {sorted(unknown)}")


@dataclass(frozen=True)
class Rating:
    user_id: int
    item_id: int
    value: int
    timestamp: int

    def __post_init__(self):
        if not 1 <= self.value <= 5:
            raise ValueError(f"rating value must be in [1,5], got {self.value}")


@dataclass(frozen=True)
class Dataset:
    """Immutable in-memory dataset; safe for unrestricted concurrent reads."""

    users: Mapping[int, User]
    items: Mapping[int, Item]
    ratings: tuple[Rating, ...]

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_ratings(self) -> int:
        return len(self.ratings)


@dataclass(frozen=True)
class SplitDataset:
    train: tuple[Rating, ...]
    test: tuple[Rating, ...]
    split_fraction: float


def item_positions(catalog: np.ndarray, item_ids) -> np.ndarray:
    """Position of each id (one id or an array) in the sorted ``catalog``;
    KeyError names the first id not in it."""
    ids = np.asarray(item_ids)
    flat = ids.reshape(-1)
    pos = np.searchsorted(catalog, flat)
    found = pos < catalog.size
    found[found] = catalog[pos[found]] == flat[found]
    if not found.all():
        raise KeyError(f"unknown item {flat[np.argmin(found)]}")
    return pos.reshape(ids.shape)


@dataclass(frozen=True, eq=False)
class PopularityPartition:
    """Per-item training rating counts plus the short-head / long-tail split,
    as three arrays aligned to the sorted catalog ids."""

    item_ids: np.ndarray  # sorted int64
    counts: np.ndarray  # int64 training rating counts
    long_tail: np.ndarray  # bool; False marks the short head
    head_item_fraction: float

    def popularity(self, item_ids):
        """Training rating count of one id (an int) or of an array of ids."""
        pops = self.counts[item_positions(self.item_ids, item_ids)]
        return int(pops) if pops.ndim == 0 else pops

    def is_long_tail(self, item_ids):
        """Long-tail membership of one id (a bool) or of an array of ids."""
        lt = self.long_tail[item_positions(self.item_ids, item_ids)]
        return bool(lt) if lt.ndim == 0 else lt


def _parse_int(token: str, path, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, line_no, f"bad {what}: {token!r}") from None


def _iter_lines(path):
    # Titles may contain non-ASCII bytes; ids and values are plain ASCII decimal.
    with open(path, "r", encoding="latin-1") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if line:
                yield line_no, line


def parse_movielens(ratings_path, users_path, movies_path) -> Dataset:
    """Parse ``::``-delimited users/movies/ratings files into a Dataset.

    Raises ParseError (with file and line number) on malformed lines, unknown
    genre tokens, duplicate (user, item) ratings or dangling id references.
    """
    users: dict[int, User] = {}
    for line_no, line in _iter_lines(users_path):
        parts = line.split("::")
        if len(parts) != 5:
            raise ParseError(users_path, line_no, f"expected 5 fields, got {len(parts)}")
        user_id = _parse_int(parts[0], users_path, line_no, "user id")
        age = _parse_int(parts[2], users_path, line_no, "age")
        if age not in AGE_GROUPS:
            raise ParseError(users_path, line_no, f"age {age} not in {AGE_GROUPS}")
        if user_id in users:
            raise ParseError(users_path, line_no, f"duplicate user id {user_id}")
        users[user_id] = User(user_id=user_id, age_group=age, gender=parts[1] or None)

    items: dict[int, Item] = {}
    for line_no, line in _iter_lines(movies_path):
        parts = line.split("::")
        if len(parts) < 3:
            raise ParseError(movies_path, line_no, f"expected 3 fields, got {len(parts)}")
        item_id = _parse_int(parts[0], movies_path, line_no, "movie id")
        # Titles containing '::' are tolerated; genres are always the last field.
        title = "::".join(parts[1:-1])
        genre_tokens = parts[-1].split("|")
        for tok in genre_tokens:
            if tok not in GENRE_INDEX:
                raise ParseError(movies_path, line_no, f"unknown genre {tok!r}")
        if item_id in items:
            raise ParseError(movies_path, line_no, f"duplicate movie id {item_id}")
        items[item_id] = Item(item_id=item_id, title=title, genres=frozenset(genre_tokens))

    ratings: list[Rating] = []
    seen_pairs: set[tuple[int, int]] = set()
    for line_no, line in _iter_lines(ratings_path):
        parts = line.split("::")
        if len(parts) != 4:
            raise ParseError(ratings_path, line_no, f"expected 4 fields, got {len(parts)}")
        user_id = _parse_int(parts[0], ratings_path, line_no, "user id")
        item_id = _parse_int(parts[1], ratings_path, line_no, "movie id")
        value = _parse_int(parts[2], ratings_path, line_no, "rating value")
        ts = _parse_int(parts[3], ratings_path, line_no, "timestamp")
        if user_id not in users:
            raise ParseError(ratings_path, line_no, f"rating references unknown user {user_id}")
        if item_id not in items:
            raise ParseError(ratings_path, line_no, f"rating references unknown movie {item_id}")
        if not 1 <= value <= 5:
            raise ParseError(ratings_path, line_no, f"rating value {value} outside [1,5]")
        pair = (user_id, item_id)
        if pair in seen_pairs:
            raise ParseError(ratings_path, line_no, f"duplicate rating for user {user_id}, movie {item_id}")
        seen_pairs.add(pair)
        ratings.append(Rating(user_id=user_id, item_id=item_id, value=value, timestamp=ts))

    dataset = Dataset(users=users, items=items, ratings=tuple(ratings))
    logger.info(
        "parsed %d users, %d items, %d ratings",
        dataset.n_users, dataset.n_items, dataset.n_ratings,
    )
    return dataset


def temporal_split(
    dataset: Dataset,
    fraction: float,
    min_train: int = MIN_WARM_TRAIN_RATINGS,
) -> SplitDataset:
    """Per-user temporal split: the latest ``ceil(fraction * n_u)`` ratings go to test.

    Timestamp ties are broken by item_id ascending (larger ids rank later).
    Users who would be left with fewer than ``min_train`` training ratings
    contribute all of their ratings to train.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0,1), got {fraction}")

    by_user: dict[int, list[Rating]] = {}
    for r in dataset.ratings:
        by_user.setdefault(r.user_id, []).append(r)

    train: list[Rating] = []
    test: list[Rating] = []
    for user_id in sorted(by_user):
        rows = sorted(by_user[user_id], key=lambda r: (r.timestamp, r.item_id))
        n_test = math.ceil(fraction * len(rows))
        if len(rows) - n_test < min_train:
            n_test = 0
        cut = len(rows) - n_test
        train.extend(rows[:cut])
        test.extend(rows[cut:])

    return SplitDataset(train=tuple(train), test=tuple(test), split_fraction=fraction)


def popularity_partition(
    train_ratings: Sequence[Rating],
    item_ids: Iterable[int],
    head_item_fraction: float = 0.2,
) -> PopularityPartition:
    """Split the catalog into short head / long tail by training rating count.

    The top ``ceil(head_item_fraction * |items|)`` items by count (ties broken
    by item_id ascending) form the short head; everything else, including
    items with zero training ratings, is long tail.
    """
    if not 0.0 < head_item_fraction < 1.0:
        raise ValueError(f"head_item_fraction must be in (0,1), got {head_item_fraction}")
    if not train_ratings:
        raise ValueError("cannot build a popularity partition from an empty training set")

    all_items = np.unique(np.fromiter(item_ids, dtype=np.int64))
    if not all_items.size:
        raise ValueError("no items supplied")

    rated = np.fromiter((r.item_id for r in train_ratings), dtype=np.int64, count=len(train_ratings))
    rated = rated[np.isin(rated, all_items)]
    counts = np.bincount(np.searchsorted(all_items, rated), minlength=all_items.size).astype(np.int64)

    order = np.lexsort((all_items, -counts))
    n_head = math.ceil(head_item_fraction * all_items.size)
    long_tail = np.ones(all_items.size, dtype=bool)
    long_tail[order[:n_head]] = False
    return PopularityPartition(
        item_ids=all_items,
        counts=counts,
        long_tail=long_tail,
        head_item_fraction=head_item_fraction,
    )


def warm_user_ids(train: Sequence[Rating], min_ratings: int = MIN_WARM_TRAIN_RATINGS) -> list[int]:
    """Users with at least ``min_ratings`` training ratings, ascending."""
    counts: dict[int, int] = {}
    for r in train:
        counts[r.user_id] = counts.get(r.user_id, 0) + 1
    return sorted(u for u, c in counts.items() if c >= min_ratings)
