"""Ingestion, temporal split, and popularity partition behavior."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtailrec.dataset import (
    AGE_GROUPS,
    Dataset,
    Item,
    ParseError,
    Rating,
    Ratings,
    User,
    parse_movielens,
    popularity_partition,
    temporal_split,
    warm_user_ids,
)

from instances import make_random_instance
from oracles import oracle_partition


def head_and_tail(part) -> tuple[set[int], set[int]]:
    """The short-head and long-tail id sets of a partition."""
    return set(part.item_ids[~part.long_tail].tolist()), set(part.item_ids[part.long_tail].tolist())


def write_files(tmp_path, users_lines, movies_lines, ratings_lines):
    users = tmp_path / "users.dat"
    movies = tmp_path / "movies.dat"
    ratings = tmp_path / "ratings.dat"
    users.write_text("\n".join(users_lines) + ("\n" if users_lines else ""), encoding="latin-1")
    movies.write_text("\n".join(movies_lines) + ("\n" if movies_lines else ""), encoding="latin-1")
    ratings.write_text("\n".join(ratings_lines) + ("\n" if ratings_lines else ""), encoding="latin-1")
    return ratings, users, movies


BASE_USERS = ["1::F::1::10::48067", "2::M::25::16::70072"]
BASE_MOVIES = ["1193::One Flew Over the Cuckoo's Nest (1975)::Drama", "661::James and the Giant Peach (1996)::Animation|Children's|Musical"]


class TestParsing:
    def test_rating_line_field_mapping(self, tmp_path):
        paths = write_files(tmp_path, BASE_USERS, BASE_MOVIES, ["1::1193::5::978300760"])
        ds = parse_movielens(*paths)
        assert list(ds.ratings) == [Rating(user_id=1, item_id=1193, value=5, timestamp=978300760)]
        assert ds.n_users == 2 and ds.n_items == 2

    def test_empty_ratings_file_parses(self, tmp_path):
        paths = write_files(tmp_path, BASE_USERS, BASE_MOVIES, [])
        ds = parse_movielens(*paths)
        assert ds.n_ratings == 0 and ds.n_users == 2

    def test_user_fields_and_multi_genre(self, tmp_path):
        paths = write_files(tmp_path, BASE_USERS, BASE_MOVIES, [])
        ds = parse_movielens(*paths)
        assert ds.users[1] == User(user_id=1, age_group=1, gender="F")
        assert ds.items[661].genres == frozenset({"Animation", "Children's", "Musical"})

    def test_title_containing_separator_is_tolerated(self, tmp_path):
        movies = ["7::Odd::Title (1999)::Comedy"]
        paths = write_files(tmp_path, BASE_USERS, movies, [])
        ds = parse_movielens(*paths)
        assert ds.items[7].title == "Odd::Title (1999)"

    def test_reparse_yields_identical_dataset(self, tmp_path):
        inst = make_random_instance(seed=7)
        from longtailrec.synth import write_movielens

        write_movielens(inst.dataset, tmp_path)
        args = (tmp_path / "ratings.dat", tmp_path / "users.dat", tmp_path / "movies.dat")
        first = parse_movielens(*args)
        second = parse_movielens(*args)
        assert first == second
        assert first.ratings == inst.ratings
        assert first.items == inst.items
        # the writer fills the mandatory gender column with a placeholder
        assert {u: user.age_group for u, user in first.users.items()} == {
            u: user.age_group for u, user in inst.users.items()
        }

    @pytest.mark.parametrize(
        "users,movies,ratings,fragment",
        [
            (["1::F::1::10"], BASE_MOVIES, [], "expected 5 fields"),
            (["x::F::1::10::z"], BASE_MOVIES, [], "bad user id"),
            (["1::F::17::10::z"], BASE_MOVIES, [], "age 17"),
            (BASE_USERS + ["1::M::25::0::0"], BASE_MOVIES, [], "duplicate user id"),
            (BASE_USERS, ["5::T"], [], "expected 3 fields"),
            (BASE_USERS, ["5::T::Jazz"], [], "unknown genre"),
            (BASE_USERS, BASE_MOVIES + ["1193::Again::Drama"], [], "duplicate movie id"),
            (BASE_USERS, BASE_MOVIES, ["1::1193::5"], "expected 4 fields"),
            (BASE_USERS, BASE_MOVIES, ["9::1193::5::1"], "unknown user 9"),
            (BASE_USERS, BASE_MOVIES, ["1::9::5::1"], "unknown movie 9"),
            (BASE_USERS, BASE_MOVIES, ["1::1193::6::1"], "outside [1,5]"),
            (BASE_USERS, BASE_MOVIES, ["1::1193::5::1", "1::1193::4::2"], "duplicate rating"),
            (["0::F::1::10::z"], BASE_MOVIES, [], "user_id must be positive"),
            (BASE_USERS, BASE_MOVIES + ["-3::T::Drama"], [], "item_id must be positive"),
            (BASE_USERS, BASE_MOVIES, ["1::1193::5::1", "1::661:: 4::2"], "bad rating value"),
            (BASE_USERS, BASE_MOVIES, ["1::1193::5::1", "1::661::1_0::2"], "bad rating value"),
        ],
    )
    def test_malformed_inputs_raise_with_line_number(self, tmp_path, users, movies, ratings, fragment):
        paths = write_files(tmp_path, users, movies, ratings)
        with pytest.raises(ParseError) as err:
            parse_movielens(*paths)
        assert fragment in str(err.value)
        # Each case breaks the last line of one file.
        if users != BASE_USERS:
            path, lines = paths[1], users
        elif movies != BASE_MOVIES:
            path, lines = paths[2], movies
        else:
            path, lines = paths[0], ratings
        assert err.value.path == str(path)
        assert err.value.line_number == len(lines)


class TestDomainValidation:
    def test_user_rejects_bad_age_group(self):
        with pytest.raises(ValueError):
            User(user_id=1, age_group=17)
        with pytest.raises(ValueError):
            User(user_id=0, age_group=25)

    def test_item_rejects_empty_or_unknown_genres(self):
        with pytest.raises(ValueError):
            Item(item_id=1, title="t", genres=frozenset())
        with pytest.raises(ValueError):
            Item(item_id=1, title="t", genres=frozenset({"Jazz"}))

    def test_rating_value_bounds(self):
        with pytest.raises(ValueError):
            Rating(user_id=1, item_id=1, value=0, timestamp=0)
        with pytest.raises(ValueError):
            Rating(user_id=1, item_id=1, value=6, timestamp=0)


class TestTemporalSplit:
    def _dataset(self, per_user: dict[int, list[tuple[int, int]]]) -> Dataset:
        users = {u: User(user_id=u, age_group=25) for u in per_user}
        item_ids = sorted({i for rows in per_user.values() for i, _ in rows})
        items = {i: Item(item_id=i, title=f"t{i}", genres=frozenset({"Drama"})) for i in item_ids}
        ratings = Ratings.from_rows(
            Rating(user_id=u, item_id=i, value=3, timestamp=ts)
            for u, rows in per_user.items()
            for i, ts in rows
        )
        return Dataset(users=users, items=items, ratings=ratings)

    def test_latest_rating_goes_to_test(self):
        ds = self._dataset({1: [(i + 1, ts) for i, ts in enumerate([10, 20, 30, 40, 50])]})
        split = temporal_split(ds, 0.2, min_train=1)
        assert [r.timestamp for r in split.test] == [50]
        assert len(split.train) == 4

    def test_timestamp_tie_broken_by_item_id(self):
        rows = [(i, i) for i in range(1, 9)] + [(100, 99), (44, 99)]
        ds = self._dataset({1: rows})
        split = temporal_split(ds, 0.2, min_train=1)
        # two ratings tied at the newest timestamp: the larger item id ranks later
        assert {(r.item_id, r.timestamp) for r in split.test} == {(100, 99), (44, 99)}
        assert all(r.item_id != 100 or r.timestamp != 99 for r in split.train)

    def test_short_users_stay_entirely_in_train(self):
        ds = self._dataset({1: [(i, i) for i in range(1, 6)]})
        split = temporal_split(ds, 0.2, min_train=5)
        assert len(split.train) == 5 and len(split.test) == 0

    def test_fraction_bounds(self, tiny):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                temporal_split(tiny.dataset, bad)

    def test_test_count_matches_per_user_recount(self):
        for seed in range(200):
            inst = make_random_instance(seed=seed, max_ratings=60)
            split = temporal_split(inst.dataset, 0.2)
            per_user: dict[int, int] = {}
            for r in inst.ratings:
                per_user[r.user_id] = per_user.get(r.user_id, 0) + 1
            expected = sum(
                math.ceil(0.2 * n) for n in per_user.values() if n - math.ceil(0.2 * n) >= 5
            )
            assert len(split.test) == expected

    def test_split_invariants_on_random_instances(self):
        n_cases = 0
        for seed in range(1600):
            rng = np.random.default_rng(seed + 900_000)
            fraction = float(rng.uniform(0.05, 0.95))
            inst = make_random_instance(seed=seed, max_users=8, max_items=12, max_ratings=40)
            split = temporal_split(inst.dataset, fraction)
            key = lambda r: (r.timestamp, r.item_id)
            train_keys = set(map(lambda r: (r.user_id, key(r)), split.train))
            test_keys = set(map(lambda r: (r.user_id, key(r)), split.test))
            assert len(split.train) + len(split.test) == len(inst.ratings)
            by_user_train: dict[int, list] = {}
            by_user_test: dict[int, list] = {}
            for r in split.train:
                by_user_train.setdefault(r.user_id, []).append(key(r))
            for r in split.test:
                by_user_test.setdefault(r.user_id, []).append(key(r))
            for u, test_rows in by_user_test.items():
                n_total = len(test_rows) + len(by_user_train.get(u, []))
                assert len(test_rows) == math.ceil(fraction * n_total)
                assert len(by_user_train.get(u, [])) >= 5
                if u in by_user_train:
                    assert max(by_user_train[u]) < min(test_rows)
            n_cases += 1 + len(by_user_test)
        assert n_cases >= 1600


class TestPopularityPartition:
    def test_head_is_top_fifth_by_count(self):
        item_ids = list(range(1, 11))
        ratings = []
        ts = 0
        for rank, item in enumerate(item_ids):
            for u in range(1, 101 - 10 * rank):  # counts 100, 90, ..., 10
                ts += 1
                ratings.append(Rating(user_id=u, item_id=item, value=3, timestamp=ts))
        part = popularity_partition(Ratings.from_rows(ratings), item_ids, head_item_fraction=0.2)
        assert head_and_tail(part) == ({1, 2}, set(range(3, 11)))
        assert part.popularity(1) == 100

    def test_unrated_item_is_long_tail_with_zero_popularity(self):
        ratings = [Rating(user_id=1, item_id=1, value=3, timestamp=0)]
        part = popularity_partition(Ratings.from_rows(ratings), [1, 2, 3, 4, 5], head_item_fraction=0.2)
        assert part.popularity(5) == 0
        assert part.is_long_tail(5)
        assert not part.is_long_tail(1)

    def test_array_lookups_and_unknown_ids(self):
        ratings = [Rating(user_id=u, item_id=4, value=3, timestamp=0) for u in (1, 2)]
        part = popularity_partition(Ratings.from_rows(ratings), [9, 4, 2], head_item_fraction=0.3)
        assert part.item_ids.tolist() == [2, 4, 9]
        assert isinstance(part.popularity(4), int) and isinstance(part.is_long_tail(4), bool)
        assert part.popularity(np.array([9, 4, 4])).tolist() == [0, 2, 2]
        assert part.is_long_tail([4, 2]).tolist() == [False, True]
        assert part.popularity([]).size == 0
        for bad in (7, [2, 10], [0]):
            with pytest.raises(KeyError, match=f"unknown item {np.ravel(bad)[-1]}"):
                part.popularity(bad)
            with pytest.raises(KeyError, match=f"unknown item {np.ravel(bad)[-1]}"):
                part.is_long_tail(bad)

    def test_count_ties_break_by_item_id(self):
        ratings = [
            Rating(user_id=1, item_id=3, value=3, timestamp=0),
            Rating(user_id=1, item_id=7, value=3, timestamp=1),
        ]
        part = popularity_partition(Ratings.from_rows(ratings), [3, 7, 9], head_item_fraction=0.33)
        assert head_and_tail(part)[0] == {3}

    def test_errors(self):
        ratings = [Rating(user_id=1, item_id=1, value=3, timestamp=0)]
        with pytest.raises(ValueError):
            popularity_partition(Ratings.from_rows([]), [1])
        with pytest.raises(ValueError):
            popularity_partition(Ratings.from_rows(ratings), [])
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                popularity_partition(Ratings.from_rows(ratings), [1], head_item_fraction=bad)

    def test_partition_invariants_on_random_counts(self):
        n_cases = 0
        for seed in range(5000):
            rng = np.random.default_rng(seed)
            n_items = int(rng.integers(2, 25))
            item_ids = sorted(int(i) for i in rng.choice(100, size=n_items, replace=False) + 1)
            counts = rng.integers(0, 7, size=n_items)
            if counts.sum() == 0:
                counts[0] = 1
            ratings = [
                Rating(user_id=u, item_id=item, value=3, timestamp=0)
                for item, c in zip(item_ids, counts)
                for u in range(1, int(c) + 1)
            ]
            fraction = float(rng.uniform(0.05, 0.95))
            part = popularity_partition(Ratings.from_rows(ratings), item_ids, head_item_fraction=fraction)
            short_head, long_tail = head_and_tail(part)
            assert len(short_head) == math.ceil(fraction * n_items)
            assert short_head | long_tail == set(item_ids)
            assert not (short_head & long_tail)
            if long_tail:
                min_head = min(part.popularity(i) for i in short_head)
                max_tail = max(part.popularity(i) for i in long_tail)
                assert min_head >= max_tail
            n_cases += 1
        assert n_cases == 5000


@st.composite
def partition_cases(draw):
    """A catalog, ratings over it plus ids outside it, and a head fraction.

    Counts come from a small range, so count ties are common, and some
    catalog items get no ratings."""
    catalog = draw(st.lists(st.integers(1, 60), min_size=1, max_size=20, unique=True))
    outside = draw(st.lists(st.integers(61, 80), max_size=3))
    counts = draw(st.lists(st.integers(0, 4), min_size=len(catalog), max_size=len(catalog)))
    rated = [i for i, c in zip(catalog, counts) for _ in range(c)] + outside
    if not rated:
        rated = [catalog[0]]
    order = draw(st.permutations(range(len(rated))))
    ratings = [Rating(user_id=u + 1, item_id=rated[p], value=3, timestamp=0) for u, p in enumerate(order)]
    fraction = draw(st.floats(0.01, 0.99))
    return catalog, ratings, fraction


class TestPartitionMatchesOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(partition_cases())
    def test_array_partition_equals_oracle(self, case):
        catalog, ratings, fraction = case
        part = popularity_partition(Ratings.from_rows(ratings), catalog, head_item_fraction=fraction)
        counts, short_head, long_tail = oracle_partition(ratings, catalog, fraction)
        assert part.item_ids.tolist() == sorted(catalog)
        assert dict(zip(part.item_ids.tolist(), part.counts.tolist())) == counts
        assert head_and_tail(part) == (short_head, long_tail)
        assert part.popularity(catalog).tolist() == [counts[i] for i in catalog]
        assert part.is_long_tail(catalog).tolist() == [i in long_tail for i in catalog]


def test_warm_users_require_min_train_ratings():
    ratings = [
        Rating(user_id=1, item_id=i, value=3, timestamp=i) for i in range(1, 6)
    ] + [Rating(user_id=2, item_id=1, value=3, timestamp=9)]
    assert warm_user_ids(Ratings.from_rows(ratings)) == [1]
    assert warm_user_ids(Ratings.from_rows(ratings), min_ratings=1) == [1, 2]


def _valid_files(draw):
    """Line lists of a small valid users / movies / ratings file set."""
    n_users = draw(st.integers(2, 5))
    users = [f"{u}::F::{draw(st.sampled_from(AGE_GROUPS))}::10::48067" for u in range(1, n_users + 1)]
    movie_ids = list(range(10, 10 + draw(st.integers(2, 6))))
    movies = [f"{i}::Movie {i} (1999)::Drama|Comedy" for i in movie_ids]
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, n_users), st.sampled_from(movie_ids)),
            unique=True,
            max_size=12,
        )
    )
    ratings = [f"{u}::{i}::{draw(st.integers(1, 5))}::{draw(st.integers(0, 10**9))}" for u, i in pairs]
    return {"users": users, "movies": movies, "ratings": ratings}


# Tokens that no reading of an integer field accepts.
BAD_TOKENS = st.sampled_from(["", "x", "1.5", "5a", "--1", "0x1f", " "])


@st.composite
def one_bad_line(draw):
    """A valid file set with one malformed line inserted into one file, after
    some blank lines; returns the files, the damaged file's name, the
    expected 1-based line number and a fragment of the expected message."""
    files = _valid_files(draw)
    name = draw(st.sampled_from(["users", "movies", "ratings"]))
    lines = files[name]
    pos = draw(st.integers(0, len(lines)))
    earlier = lines[:pos]
    kinds = {
        "users": ["fields", "id", "age", "age-token"] + (["duplicate"] if earlier else []),
        "movies": ["fields", "id", "genre"] + (["duplicate"] if earlier else []),
        "ratings": ["fields", "token", "user", "movie", "value"] + (["duplicate"] if earlier else []),
    }[name]
    kind = draw(st.sampled_from(kinds))
    token = draw(BAD_TOKENS)
    copied = earlier[-1].split("::")[:2] if earlier else ["1", "10"]
    if name == "users":
        bad, fragment = {
            "fields": ("90::F::25::10", "expected 5 fields"),
            "id": (f"{token}::F::25::10::1", "bad user id"),
            "age": ("90::F::17::10::1", "age 17"),
            "age-token": (f"90::F::{token}::10::1", "bad age"),
            "duplicate": (f"{copied[0]}::M::25::0::0", "duplicate user id"),
        }[kind]
    elif name == "movies":
        bad, fragment = {
            "fields": ("90::Title", "expected 3 fields"),
            "id": (f"{token}::Title::Drama", "bad movie id"),
            "genre": ("90::Title::Jazz", "unknown genre"),
            "duplicate": (f"{copied[0]}::Again::Drama", "duplicate movie id"),
        }[kind]
    else:
        field = draw(st.integers(0, 3))
        fields = ["1", "10", "3", "5"]
        fields[field] = token
        what = ("user id", "movie id", "rating value", "timestamp")[field]
        bad, fragment = {
            "fields": (draw(st.sampled_from(["1::10::3", "1::10::3::5::7", "1"])), "fields"),
            "token": ("::".join(fields), f"bad {what}"),
            "user": ("99::10::3::5", "unknown user 99"),
            "movie": ("1::99::3::5", "unknown movie 99"),
            "value": (f"1::10::{draw(st.sampled_from([0, 6, -1]))}::5", "outside [1,5]"),
            "duplicate": (f"{copied[0]}::{copied[1]}::4::7", "duplicate rating"),
        }[kind]
    # Blank lines anywhere before the bad line shift its number.
    blanks = draw(st.lists(st.integers(0, pos), max_size=4))
    damaged = list(earlier)
    for at in sorted(blanks, reverse=True):
        damaged.insert(at, "")
    line_number = len(damaged) + 1
    files[name] = damaged + [bad] + lines[pos:]
    return files, name, line_number, fragment


class TestParseErrorLines:
    @settings(max_examples=300, deadline=None, database=None)
    @given(one_bad_line())
    def test_one_malformed_line_is_named_exactly(self, tmp_path_factory, case):
        files, name, line_number, fragment = case
        tmp = tmp_path_factory.mktemp("files")
        ratings, users, movies = write_files(tmp, files["users"], files["movies"], files["ratings"])
        path = {"users": users, "movies": movies, "ratings": ratings}[name]
        with pytest.raises(ParseError) as err:
            parse_movielens(ratings, users, movies)
        assert err.value.path == str(path)
        assert err.value.line_number == line_number
        assert fragment in str(err.value)
        assert str(err.value).startswith(f"{path}:{line_number}: ")
