"""MovieLens-format ingestion, temporal splitting and the popularity partition."""

from __future__ import annotations

import io
import logging
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

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
    """One rating as a row; ``Ratings.from_rows`` builds columns from rows."""

    user_id: int
    item_id: int
    value: int
    timestamp: int

    def __post_init__(self):
        if not 1 <= self.value <= 5:
            raise ValueError(f"rating value must be in [1,5], got {self.value}")


def _first_bad_rating(user: np.ndarray, item: np.ndarray, value: np.ndarray) -> Optional[tuple[int, str]]:
    """Row and message of the first rating, in row order, whose value lies
    outside [1, 5] or whose (user, item) pair an earlier row already rated;
    None when there is none."""
    bad = []
    out_of_range = (value < 1) | (value > 5)
    if out_of_range.any():
        bad.append(int(np.argmax(out_of_range)))
    if user.size > 1:
        # One int64 key per pair when the id spans allow it; a stable sort
        # puts a pair's rows together in row order, so each later row of a
        # run repeats the first.
        lo_u, lo_i = int(user.min()), int(item.min())
        span = int(item.max()) - lo_i + 1
        if (int(user.max()) - lo_u + 1) * span < 2**63:
            order = np.argsort((user - lo_u) * span + (item - lo_i), kind="stable")
        else:
            order = np.lexsort((item, user))
        repeat = (user[order][1:] == user[order][:-1]) & (item[order][1:] == item[order][:-1])
        if repeat.any():
            bad.append(int(order[1:][repeat].min()))
    if not bad:
        return None
    row = min(bad)
    if out_of_range[row]:
        return row, f"rating value {value[row]} outside [1,5]"
    return row, f"duplicate rating for user {user[row]}, movie {item[row]}"


@dataclass(frozen=True, eq=False)
class Ratings:
    """Ratings as four aligned, read-only int64 columns; row r is one rating.

    Every value lies in [1, 5] and no (user, item) pair occurs twice:
    construction raises ValueError naming the first row that breaks either
    rule. ``len`` counts ratings; iterating yields ``Rating`` rows."""

    user: np.ndarray
    item: np.ndarray
    value: np.ndarray
    timestamp: np.ndarray

    def __post_init__(self):
        columns = {}
        for name in ("user", "item", "value", "timestamp"):
            given = np.asarray(getattr(self, name))
            col = given.astype(np.int64)
            if col.ndim != 1:
                raise ValueError(f"rating column {name!r} must be one-dimensional")
            if not np.array_equal(col, given):
                raise ValueError(f"rating column {name!r} holds non-integer values")
            col.setflags(write=False)
            columns[name] = col
        if len({c.size for c in columns.values()}) != 1:
            raise ValueError("rating columns differ in length")
        for name, col in columns.items():
            object.__setattr__(self, name, col)
        bad = _first_bad_rating(self.user, self.item, self.value)
        if bad is not None:
            raise ValueError(bad[1])

    @classmethod
    def from_rows(cls, rows: Iterable[Rating]) -> "Ratings":
        table = np.array([(r.user_id, r.item_id, r.value, r.timestamp) for r in rows])
        return cls(*table.reshape(-1, 4).T)

    def take(self, rows) -> "Ratings":
        """The ratings at the given row positions, in that order."""
        return Ratings(self.user[rows], self.item[rows], self.value[rows], self.timestamp[rows])

    def __len__(self) -> int:
        return self.user.size

    def __iter__(self) -> Iterator[Rating]:
        for u, i, v, t in zip(self.user.tolist(), self.item.tolist(), self.value.tolist(), self.timestamp.tolist()):
            yield Rating(user_id=u, item_id=i, value=v, timestamp=t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ratings):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("user", "item", "value", "timestamp")
        )


@dataclass(frozen=True)
class Dataset:
    """Immutable in-memory dataset; safe for unrestricted concurrent reads.

    ``item_ids`` is the sorted catalog and ``item_genres`` its (catalog x 18)
    0/1 genre matrix, row for row; both are built once, at construction."""

    users: Mapping[int, User]
    items: Mapping[int, Item]
    ratings: Ratings
    item_ids: np.ndarray = field(init=False, repr=False, compare=False)
    item_genres: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = np.array(sorted(self.items), dtype=np.int64)
        genres = np.zeros((ids.size, N_GENRES))
        for row, item_id in enumerate(ids.tolist()):
            genres[row, [GENRE_INDEX[g] for g in self.items[item_id].genres]] = 1.0
        ids.setflags(write=False)
        genres.setflags(write=False)
        object.__setattr__(self, "item_ids", ids)
        object.__setattr__(self, "item_genres", genres)

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
    train: Ratings
    test: Ratings
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


#: The characters a ratings file may hold, and the form of each of its fields.
_RATING_BYTES = b"0123456789+-:\n"
_RATING_FIELD = re.compile(r"[+-]?[0-9]+")
_RATING_FIELDS = ("user id", "movie id", "rating value", "timestamp")
_INT64 = range(-(2**63), 2**63)


def _read_rating_lines(path, text: str) -> np.ndarray:
    """The reference reading of a ratings file, one line at a time: the
    (n, 4) table of its non-blank lines, or ParseError at the first line
    that is not four ``::``-separated fields of the form ``[+-]?[0-9]+``
    within int64."""
    rows = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split("::")
        if len(parts) != 4:
            raise ParseError(path, line_no, f"expected 4 fields, got {len(parts)}")
        for token, what in zip(parts, _RATING_FIELDS):
            if not (_RATING_FIELD.fullmatch(token) and int(token) in _INT64):
                raise ParseError(path, line_no, f"bad {what}: {token!r}")
        rows.append([int(t) for t in parts])
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _read_rating_table(path) -> tuple[str, np.ndarray]:
    """The ratings file's text and its (n, 4) int64 table of user, movie,
    value and timestamp, one row per non-blank line.

    A file that holds only digits, signs, colons and newlines is read by one
    ``np.loadtxt`` call; any other file, or one that call rejects, is read by
    ``_read_rating_lines``, which names the first bad line. Both accept the
    same lines and read them to the same numbers."""
    with open(path, "r", encoding="latin-1") as fh:
        text = fh.read()
    data = text.encode("latin-1")
    if not data.translate(None, _RATING_BYTES):
        if not data.strip(b"\n"):
            return text, np.empty((0, 4), dtype=np.int64)
        try:
            table = np.loadtxt(
                io.BytesIO(data.replace(b"::", b",")),
                delimiter=",", dtype=np.int64, comments=None, ndmin=2,
            )
        except ValueError:
            table = None
        # loadtxt takes its column count from the first row.
        if table is not None and table.shape[1] == 4:
            return text, table
    return text, _read_rating_lines(path, text)


def _line_of_row(text: str, row: int) -> int:
    """1-based line number of the row-th (0-based) non-blank line."""
    nonblank = (line_no for line_no, line in enumerate(text.split("\n"), start=1) if line)
    for _ in range(row):
        next(nonblank)
    return next(nonblank)


def _first_unknown(ids: np.ndarray, known, what: str) -> Optional[tuple[int, str]]:
    unknown = ~np.isin(ids, np.fromiter(known, dtype=np.int64))
    if not unknown.any():
        return None
    row = int(np.argmax(unknown))
    return row, f"rating references unknown {what} {ids[row]}"


def parse_movielens(ratings_path, users_path, movies_path) -> Dataset:
    """Parse ``::``-delimited users/movies/ratings files into a Dataset.

    Raises ParseError (with file and line number) on malformed lines, unknown
    genre tokens, duplicate (user, item) ratings or dangling id references.
    When a file has several bad lines, the first one is named.
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
        try:
            users[user_id] = User(user_id=user_id, age_group=age, gender=parts[1] or None)
        except ValueError as exc:
            raise ParseError(users_path, line_no, str(exc)) from None

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
        try:
            items[item_id] = Item(item_id=item_id, title=title, genres=frozenset(genre_tokens))
        except ValueError as exc:
            raise ParseError(movies_path, line_no, str(exc)) from None

    text, table = _read_rating_table(ratings_path)
    user, item, value, timestamp = table.T
    problems = [
        bad
        for bad in (
            _first_unknown(user, users, "user"),
            _first_unknown(item, items, "movie"),
            _first_bad_rating(user, item, value),
        )
        if bad is not None
    ]
    if problems:
        # The earliest row; on one row, the first check listed above.
        row, message = min(problems, key=lambda bad: bad[0])
        raise ParseError(ratings_path, _line_of_row(text, row), message)

    dataset = Dataset(users=users, items=items, ratings=Ratings(user, item, value, timestamp))
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
    contribute all of their ratings to train. Both halves list users in
    ascending id order, each user's ratings by (timestamp, item_id).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0,1), got {fraction}")

    r = dataset.ratings
    order = np.lexsort((r.item, r.timestamp, r.user))
    user = r.user[order]
    starts = np.flatnonzero(np.r_[True, user[1:] != user[:-1]])
    per_user = np.diff(np.r_[starts, user.size])
    # float64 products and ceil, as math.ceil(fraction * n) computes them
    n_test = np.ceil(fraction * per_user).astype(np.int64)
    n_test[per_user - n_test < min_train] = 0
    position = np.arange(user.size) - np.repeat(starts, per_user)
    in_train = position < np.repeat(per_user - n_test, per_user)
    return SplitDataset(
        train=r.take(order[in_train]), test=r.take(order[~in_train]), split_fraction=fraction
    )


def popularity_partition(
    train_ratings: Ratings,
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
    if not len(train_ratings):
        raise ValueError("cannot build a popularity partition from an empty training set")

    all_items = np.unique(np.fromiter(item_ids, dtype=np.int64))
    if not all_items.size:
        raise ValueError("no items supplied")

    rated = train_ratings.item[np.isin(train_ratings.item, all_items)]
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


def warm_user_ids(train: Ratings, min_ratings: int = MIN_WARM_TRAIN_RATINGS) -> list[int]:
    """Users with at least ``min_ratings`` training ratings, ascending."""
    user_ids, counts = np.unique(train.user, return_counts=True)
    return user_ids[counts >= min_ratings].tolist()
