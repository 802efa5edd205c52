"""User-based CF (mean-centered Pearson neighborhoods) and an item-based baseline.

Similarities follow the classic neighborhood formulation: Pearson correlation
over the co-rated overlap for user pairs, adjusted cosine over co-raters for
item pairs. Degenerate cases (thin overlap, zero variance) yield similarity 0
by contract so downstream predictions stay finite.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .dataset import Ratings, item_positions

RATING_MIN = 1.0
RATING_MAX = 5.0
DEFAULT_K_NEIGHBORS = 40
DEFAULT_MIN_OVERLAP = 2
# Width of the packed (column, rank, entry) sort keys of UserBasedCF.
_KEY_BITS = 63
# Similarity vectors one UserBasedCF keeps, least recently used first out:
# 3 MB at MovieLens-1M's 6040 users, against 292 MB for all of them.
SIM_CACHE_USERS = 64


class ColdUserError(ValueError):
    """Raised when an operation needs training ratings the user does not have."""

    def __init__(self, user_id: int):
        self.user_id = user_id
        super().__init__(f"user {user_id} has no training ratings")

    def __reduce__(self):
        # Pickled by worker processes: keep the message, which callers may extend.
        return type(self), (self.user_id,), {"args": self.args}


class RatingMatrix:
    """Immutable indexed sparse view over a fixed set of training ratings.

    Holds the catalog (all user/item ids, rated or not) so rankings can cover
    zero-rating items. All derived arrays are read-only once built.
    """

    def __init__(
        self,
        ratings: Ratings,
        user_ids: Optional[Iterable[int]] = None,
        item_ids: Optional[Iterable[int]] = None,
    ):
        extra_users = np.fromiter(user_ids if user_ids is not None else (), dtype=np.int64)
        extra_items = np.fromiter(item_ids if item_ids is not None else (), dtype=np.int64)
        self.user_ids = np.union1d(ratings.user, extra_users)
        self.item_ids = np.union1d(ratings.item, extra_items)
        self.user_index = {u: i for i, u in enumerate(self.user_ids.tolist())}
        n_users, n_items = len(self.user_ids), len(self.item_ids)

        rows = np.searchsorted(self.user_ids, ratings.user)
        cols = np.searchsorted(self.item_ids, ratings.item)
        vals = ratings.value.astype(np.float64)

        self.R = sp.csr_matrix((vals, (rows, cols)), shape=(n_users, n_items))
        # Sorts each row's columns; Ratings holds each (user, item) pair
        # once, so no entry is summed.
        self.R.sum_duplicates()
        self.B = self.R.copy()
        self.B.data = np.ones_like(self.B.data)
        self.Rsq = self.R.copy()
        self.Rsq.data = self.Rsq.data**2
        self.R_csc = self.R.tocsc()

        user_counts = np.asarray(self.B.sum(axis=1)).ravel()
        sums = np.asarray(self.R.sum(axis=1)).ravel()
        with np.errstate(invalid="ignore", divide="ignore"):
            self.user_means = np.where(user_counts > 0, sums / user_counts, np.nan)
        self.user_rating_counts = user_counts.astype(np.int64)

        # Ratings centered by their rater's mean, by item column; used by
        # adjusted cosine.
        self.C_csc = self.R_csc.copy()
        self.C_csc.data -= self.user_means[self.R_csc.indices]

    def uidx(self, user_id: int) -> int:
        try:
            return self.user_index[user_id]
        except KeyError:
            raise KeyError(f"unknown user {user_id}") from None

    def item_columns(self, item_ids: Sequence[int]) -> np.ndarray:
        """Column of each item id; KeyError names the first id not in the catalog."""
        return item_positions(self.item_ids, item_ids)

    def rated_item_indices(self, user_id: int) -> np.ndarray:
        u = self.uidx(user_id)
        return self.R.indices[self.R.indptr[u]:self.R.indptr[u + 1]]

    def rated_values(self, user_id: int) -> np.ndarray:
        u = self.uidx(user_id)
        return self.R.data[self.R.indptr[u]:self.R.indptr[u + 1]]


def user_mean(train: RatingMatrix, user_id: int) -> float:
    """Arithmetic mean of the user's training ratings."""
    vals = train.rated_values(user_id)
    if vals.size == 0:
        raise ColdUserError(user_id)
    return float(vals.mean())


def _cosine(
    num: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray, n_ov: np.ndarray, min_overlap: int
) -> np.ndarray:
    """``num / sqrt(sq_a * sq_b)`` clipped to [-1, 1], elementwise; 0 where
    the overlap is thinner than ``min_overlap`` or either square sum is not
    positive."""
    ok = (n_ov >= min_overlap) & (sq_a > 0.0) & (sq_b > 0.0)
    denom = sq_a * sq_b
    np.sqrt(denom, out=denom, where=ok)
    sims = np.zeros(ok.shape)
    np.divide(num, denom, out=sims, where=ok)
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def similarity_vector(
    train: RatingMatrix,
    user_id: int,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> np.ndarray:
    """Pearson similarities of ``user_id`` to every user over their co-rated
    items (self entry forced to 0).

    The per-pair sums are restricted to the overlap through the binary rating
    matrix. A pair scores 0 when the overlap is thinner than ``min_overlap``
    or when either user's ratings are constant over it. Raises ColdUserError
    for a user with no training ratings.
    """
    u = train.uidx(user_id)
    n_items = train.R.shape[1]
    x = np.zeros(n_items)
    xb = np.zeros(n_items)
    cols = train.rated_item_indices(user_id)
    if cols.size == 0:
        raise ColdUserError(user_id)
    vals = train.rated_values(user_id)
    x[cols] = vals
    xb[cols] = 1.0

    n_ov = train.B @ xb
    s_xy = train.R @ x
    s_y = train.R @ xb
    s_x = train.B @ x
    s_xx = train.B @ (x * x)
    s_yy = train.Rsq @ xb

    var_x = n_ov * s_xx - s_x * s_x
    var_y = n_ov * s_yy - s_y * s_y
    sims = _cosine(n_ov * s_xy - s_x * s_y, var_x, var_y, n_ov, min_overlap)
    sims[u] = 0.0
    return sims


class UserBasedCF:
    """Neighborhood predictor over a fixed training matrix.

    Similarity vectors are computed lazily per target user and the last
    ``SIM_CACHE_USERS`` of them are cached; the cache is instance-local, so
    concurrent use wants one instance per worker.
    """

    def __init__(
        self,
        train: RatingMatrix,
        k_neighbors: int = DEFAULT_K_NEIGHBORS,
        min_overlap: int = DEFAULT_MIN_OVERLAP,
    ):
        if k_neighbors < 0:
            raise ValueError(f"k_neighbors must be non-negative, got {k_neighbors}")
        self.train = train
        self.k_neighbors = k_neighbors
        self.min_overlap = min_overlap
        self._sim_cache: OrderedDict[int, np.ndarray] = OrderedDict()

    def similarities(self, user_id: int) -> np.ndarray:
        sims = self._sim_cache.get(user_id)
        if sims is None:
            sims = similarity_vector(self.train, user_id, self.min_overlap)
            sims.setflags(write=False)
            self._sim_cache[user_id] = sims
            if len(self._sim_cache) > SIM_CACHE_USERS:
                self._sim_cache.popitem(last=False)
        else:
            self._sim_cache.move_to_end(user_id)
        return sims

    def predict_many(self, user_id: int, item_ids: Sequence[int]) -> np.ndarray:
        """Predicted ratings (clamped to [1,5]) for the given items.

        An item's neighbours are its raters other than the user: the positive
        ones when at least ``k_neighbors`` are positive, else all of them,
        cut to the ``k_neighbors`` most similar (ties to the lower user index)
        when there are more. The prediction is the user's mean plus the
        |similarity|-weighted mean offset of the neighbours' ratings from
        their own means, or the user's mean when the weights sum to 0.
        """
        t = self.train
        mu_u = user_mean(t, user_id)  # raises ColdUserError for cold users
        sims = self.similarities(user_id)
        u = t.uidx(user_id)
        cols, inverse = np.unique(t.item_columns(item_ids), return_inverse=True)
        out = self._column_predictions(u, mu_u, sims, cols)[inverse]
        np.clip(out, RATING_MIN, RATING_MAX, out=out)
        return out

    def _column_predictions(
        self, u: int, mu_u: float, sims: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Unclamped predictions for distinct columns, from one pass over their
        CSC entries.

        Every value is bit-identical to a loop over the columns one at a time:
        a column's neighbour terms are summed by numpy's pairwise row sum in
        the order that loop uses. That is stored (ascending user) order when
        the neighbours are all of at most k raters or exactly k positive ones,
        and rank order (-similarity, user index) when they are cut to k.
        """
        t = self.train
        csc = t.R_csc
        k = self.k_neighbors
        rated = np.zeros(csc.shape[1], dtype=bool)
        rated[t.R.indices[t.R.indptr[u]:t.R.indptr[u + 1]]] = True
        n_r = csc.indptr[cols + 1] - csc.indptr[cols] - rated[cols]
        many = np.flatnonzero(n_r > k) if k > 0 else np.empty(0, dtype=np.int64)

        rank_bits = int(sims.size).bit_length()
        entry_bits = int(n_r[many].sum()).bit_length()
        if many.size > 1 and int(many.size).bit_length() + rank_bits + entry_bits > _KEY_BITS:
            # The packed sort keys would overflow int64: split the request.
            half = cols.size // 2
            return np.concatenate((
                self._column_predictions(u, mu_u, sims, cols[:half]),
                self._column_predictions(u, mu_u, sims, cols[half:]),
            ))

        def entries_of(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """CSC positions of the raters of columns ``c`` other than u,
            column after column in stored order, and their start offsets."""
            starts = csc.indptr[c]
            counts = csc.indptr[c + 1] - starts
            ends = np.cumsum(counts)
            pos = np.arange(ends[-1] if c.size else 0) + np.repeat(starts - ends + counts, counts)
            if rated[c].any():
                pos = pos[csc.indices[pos] != u]
                counts = counts - rated[c]
            return pos, np.cumsum(counts) - counts

        num = np.zeros(cols.size)
        den = np.zeros(cols.size)

        def block_sums(rows: np.ndarray, pos: np.ndarray) -> None:
            # Row sums of a (rows, n) block are numpy's pairwise sums over the
            # same n terms, in the same order, as a 1-D ``.sum()``.
            raters = csc.indices[pos]
            s = sims[raters]
            den[rows] = np.abs(s).sum(axis=1)
            num[rows] = (s * (csc.data[pos] - t.user_means[raters])).sum(axis=1)

        # At most k raters: all of them, in stored order, grouped by count.
        few = np.flatnonzero(n_r <= k)
        pos, starts = entries_of(cols[few])
        for n in np.unique(n_r[few]):
            if n > 0:
                group = n_r[few] == n
                block_sums(few[group], pos[starts[group][:, None] + np.arange(n)])

        if many.size:
            # More than k raters: sort packed (column, rank, entry) keys, so a
            # column's first k keys are its top k raters by rank.
            pos, starts = entries_of(cols[many])
            rank = np.empty(sims.size, dtype=np.int64)
            rank[np.argsort(-sims, kind="stable")] = np.arange(sims.size)
            keys = np.repeat(np.arange(many.size) << (rank_bits + entry_bits), n_r[many])
            keys |= rank[csc.indices[pos]] << entry_bits
            keys |= np.arange(pos.size)
            keys.sort()
            top = keys[starts[:, None] + np.arange(k + 1)]
            top_rank = (top >> entry_bits) & ((1 << rank_bits) - 1)
            # Exactly k positive raters: the neighbours are those k, in stored
            # order. Positive users hold the first ranks.
            n_positive = int(np.count_nonzero(sims > 0.0))
            exact = (top_rank[:, k - 1] < n_positive) & (top_rank[:, k] >= n_positive)
            chosen = top[:, :k] & ((1 << entry_bits) - 1)
            chosen[exact] = np.sort(chosen[exact], axis=1)
            block_sums(many, pos[chosen])

        out = np.full(cols.size, mu_u)
        has_weight = den > 0.0
        out[has_weight] = mu_u + num[has_weight] / den[has_weight]
        return out


class ItemBasedCF:
    """Adjusted-cosine item kNN baseline (ratings centered per user).

    Keeps no state beyond its settings: each call computes the similarities
    it needs from sparse co-rating products.
    """

    def __init__(
        self,
        train: RatingMatrix,
        k_neighbors: int = DEFAULT_K_NEIGHBORS,
        min_overlap: int = DEFAULT_MIN_OVERLAP,
    ):
        if k_neighbors < 0:
            raise ValueError(f"k_neighbors must be non-negative, got {k_neighbors}")
        self.train = train
        self.k_neighbors = k_neighbors
        self.min_overlap = min_overlap

    def _similarity_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Adjusted cosines of item columns ``rows`` to item columns ``cols``
        as a dense (rows, cols) array, each summed over the pair's co-raters
        in ascending user order."""
        c = self.train.C_csc
        a, b = c[:, rows], c[:, cols]

        def like(m: sp.csc_matrix, data: np.ndarray) -> sp.csc_matrix:
            return sp.csc_matrix((data, m.indices, m.indptr), shape=m.shape)

        # 0/1 copies count co-raters, centered ratings of 0 included.
        a_bin, b_bin = like(a, np.ones_like(a.data)), like(b, np.ones_like(b.data))
        n_ov = (a_bin.T @ b_bin).toarray()
        s_aa = (like(a, a.data**2).T @ b_bin).toarray()
        s_bb = (a_bin.T @ like(b, b.data**2)).toarray()
        return _cosine((a.T @ b).toarray(), s_aa, s_bb, n_ov, self.min_overlap)

    def item_similarity(self, item_a: int, item_b: int) -> float:
        """Adjusted cosine between two items over their co-raters."""
        cols = self.train.item_columns([item_a, item_b])
        return float(self._similarity_block(cols[:1], cols[1:])[0, 0])

    def predict_many(self, user_id: int, item_ids: Sequence[int]) -> np.ndarray:
        """Predicted ratings (clamped to [1,5]) for the given items.

        A target's neighbours are the user's rated items with positive
        similarity to it, cut to the ``k_neighbors`` most similar (ties to
        the lower item id). The prediction is the similarity-weighted mean of
        the user's ratings of them, or the user's mean when there are none.
        """
        t = self.train
        mu_u = user_mean(t, user_id)  # raises ColdUserError for cold users
        sims = self._similarity_block(t.rated_item_indices(user_id), t.item_columns(item_ids))
        np.maximum(sims, 0.0, out=sims)
        top = np.argsort(-sims, axis=0, kind="stable")[: self.k_neighbors]
        weights = np.take_along_axis(sims, top, axis=0)
        num = (weights * t.rated_values(user_id)[top]).sum(axis=0)
        den = weights.sum(axis=0)
        out = np.full(den.shape, mu_u)
        np.divide(num, den, out=out, where=den > 0.0)
        np.clip(out, RATING_MIN, RATING_MAX, out=out)
        return out
