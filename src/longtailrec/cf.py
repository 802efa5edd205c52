"""User-based CF (mean-centered Pearson neighborhoods) and an item-based baseline.

Similarities follow the classic neighborhood formulation: Pearson correlation
over the co-rated overlap for user pairs, adjusted cosine over co-raters for
item pairs. Degenerate cases (thin overlap, zero variance) yield similarity 0
by contract so downstream predictions stay finite.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .dataset import Rating

RATING_MIN = 1.0
RATING_MAX = 5.0
DEFAULT_K_NEIGHBORS = 40
DEFAULT_MIN_OVERLAP = 2


class ColdUserError(ValueError):
    """Raised when an operation needs training ratings the user does not have."""

    def __init__(self, user_id: int):
        self.user_id = user_id
        super().__init__(f"user {user_id} has no training ratings")


class RatingMatrix:
    """Immutable indexed sparse view over a fixed set of training ratings.

    Holds the catalog (all user/item ids, rated or not) so rankings can cover
    zero-rating items. All derived arrays are read-only once built.
    """

    def __init__(
        self,
        ratings: Sequence[Rating],
        user_ids: Optional[Iterable[int]] = None,
        item_ids: Optional[Iterable[int]] = None,
    ):
        uids = set(user_ids) if user_ids is not None else set()
        iids = set(item_ids) if item_ids is not None else set()
        for r in ratings:
            uids.add(r.user_id)
            iids.add(r.item_id)
        self.user_ids = np.array(sorted(uids), dtype=np.int64)
        self.item_ids = np.array(sorted(iids), dtype=np.int64)
        self.user_index = {int(u): i for i, u in enumerate(self.user_ids)}
        self.item_index = {int(i): j for j, i in enumerate(self.item_ids)}
        n_users, n_items = len(self.user_ids), len(self.item_ids)

        rows = np.fromiter((self.user_index[r.user_id] for r in ratings), dtype=np.int64, count=len(ratings))
        cols = np.fromiter((self.item_index[r.item_id] for r in ratings), dtype=np.int64, count=len(ratings))
        vals = np.fromiter((r.value for r in ratings), dtype=np.float64, count=len(ratings))

        self.R = sp.csr_matrix((vals, (rows, cols)), shape=(n_users, n_items))
        self.R.sum_duplicates()
        self.B = self.R.copy()
        self.B.data = np.ones_like(self.B.data)
        self.Rsq = self.R.copy()
        self.Rsq.data = self.Rsq.data**2
        self.R_csc = self.R.tocsc()

        counts = np.asarray(self.B.sum(axis=0)).ravel()
        self.item_counts = counts.astype(np.int64)
        user_counts = np.asarray(self.B.sum(axis=1)).ravel()
        sums = np.asarray(self.R.sum(axis=1)).ravel()
        with np.errstate(invalid="ignore", divide="ignore"):
            self.user_means = np.where(user_counts > 0, sums / user_counts, np.nan)
        self.user_rating_counts = user_counts.astype(np.int64)

        # Per-user ratings centered by that user's mean; used by adjusted cosine.
        self.C = self.R.copy()
        reps = np.diff(self.C.indptr)
        self.C.data = self.C.data - np.repeat(np.nan_to_num(self.user_means), reps)
        self.C_csc = self.C.tocsc()
        self.C_csc.sort_indices()

    def uidx(self, user_id: int) -> int:
        try:
            return self.user_index[user_id]
        except KeyError:
            raise KeyError(f"unknown user {user_id}") from None

    def iidx(self, item_id: int) -> int:
        try:
            return self.item_index[item_id]
        except KeyError:
            raise KeyError(f"unknown item {item_id}") from None

    def rated_item_indices(self, user_id: int) -> np.ndarray:
        u = self.uidx(user_id)
        return self.R.indices[self.R.indptr[u]:self.R.indptr[u + 1]]

    def rated_values(self, user_id: int) -> np.ndarray:
        u = self.uidx(user_id)
        return self.R.data[self.R.indptr[u]:self.R.indptr[u + 1]]

    def raters_of(self, item_idx: int) -> np.ndarray:
        return self.R_csc.indices[self.R_csc.indptr[item_idx]:self.R_csc.indptr[item_idx + 1]]

    def ratings_of(self, item_idx: int) -> np.ndarray:
        return self.R_csc.data[self.R_csc.indptr[item_idx]:self.R_csc.indptr[item_idx + 1]]

    def popularity_of(self, item_id: int) -> int:
        return int(self.item_counts[self.iidx(item_id)])


def user_mean(train: RatingMatrix, user_id: int) -> float:
    """Arithmetic mean of the user's training ratings."""
    vals = train.rated_values(user_id)
    if vals.size == 0:
        raise ColdUserError(user_id)
    return float(vals.mean())


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
    denom = var_x * var_y
    ok = (n_ov >= min_overlap) & (var_x > 0.0) & (var_y > 0.0)
    sims = np.zeros(train.R.shape[0])
    np.sqrt(denom, out=denom, where=ok)
    num = n_ov * s_xy - s_x * s_y
    np.divide(num, denom, out=sims, where=ok)
    np.clip(sims, -1.0, 1.0, out=sims)
    sims[u] = 0.0
    return sims


class UserBasedCF:
    """Neighborhood predictor over a fixed training matrix.

    Similarity vectors are computed lazily per target user and cached; the
    cache is instance-local, so concurrent use wants one instance per worker.
    """

    def __init__(
        self,
        train: RatingMatrix,
        k_neighbors: int = DEFAULT_K_NEIGHBORS,
        min_overlap: int = DEFAULT_MIN_OVERLAP,
    ):
        self.train = train
        self.k_neighbors = k_neighbors
        self.min_overlap = min_overlap
        self._sim_cache: dict[int, np.ndarray] = {}

    def similarities(self, user_id: int) -> np.ndarray:
        sims = self._sim_cache.get(user_id)
        if sims is None:
            sims = similarity_vector(self.train, user_id, self.min_overlap)
            sims.setflags(write=False)
            self._sim_cache[user_id] = sims
        return sims

    def predict_many(self, user_id: int, item_ids: Sequence[int]) -> np.ndarray:
        """Predicted ratings (clamped to [1,5]) for the given items."""
        t = self.train
        mu_u = user_mean(t, user_id)  # raises ColdUserError for cold users
        sims = self.similarities(user_id)
        u = t.uidx(user_id)
        means = np.nan_to_num(t.user_means)

        out = np.empty(len(item_ids))
        for pos, item_id in enumerate(item_ids):
            j = t.iidx(item_id)
            raters = t.raters_of(j)
            vals = t.ratings_of(j)
            keep = raters != u
            raters, vals = raters[keep], vals[keep]
            if raters.size == 0:
                out[pos] = mu_u
                continue
            s = sims[raters]
            positive = s > 0.0
            if positive.sum() >= self.k_neighbors:
                raters_c, vals_c, s_c = raters[positive], vals[positive], s[positive]
            else:
                raters_c, vals_c, s_c = raters, vals, s
            if raters_c.size > self.k_neighbors:
                order = np.lexsort((raters_c, -s_c))[: self.k_neighbors]
                raters_c, vals_c, s_c = raters_c[order], vals_c[order], s_c[order]
            denom = np.abs(s_c).sum()
            if denom > 0.0:
                num = (s_c * (vals_c - means[raters_c])).sum()
                out[pos] = mu_u + num / denom
            else:
                out[pos] = mu_u
        np.clip(out, RATING_MIN, RATING_MAX, out=out)
        return out

class ItemBasedCF:
    """Adjusted-cosine item kNN baseline (ratings centered per user)."""

    def __init__(
        self,
        train: RatingMatrix,
        k_neighbors: int = DEFAULT_K_NEIGHBORS,
        min_overlap: int = DEFAULT_MIN_OVERLAP,
    ):
        self.train = train
        self.k_neighbors = k_neighbors
        self.min_overlap = min_overlap
        self._sim_cache: dict[tuple[int, int], float] = {}

    def item_similarity(self, item_a: int, item_b: int) -> float:
        """Adjusted cosine between two items over their co-raters."""
        ia, ib = self.train.iidx(item_a), self.train.iidx(item_b)
        if ia > ib:
            ia, ib = ib, ia
        key = (ia, ib)
        cached = self._sim_cache.get(key)
        if cached is not None:
            return cached
        t = self.train
        ra = t.C_csc.indices[t.C_csc.indptr[ia]:t.C_csc.indptr[ia + 1]]
        rb = t.C_csc.indices[t.C_csc.indptr[ib]:t.C_csc.indptr[ib + 1]]
        ca = t.C_csc.data[t.C_csc.indptr[ia]:t.C_csc.indptr[ia + 1]]
        cb = t.C_csc.data[t.C_csc.indptr[ib]:t.C_csc.indptr[ib + 1]]
        # Co-raters in ascending user order; each column's indices are sorted.
        pos_a = np.searchsorted(ra, rb)
        pos_b = np.flatnonzero(ra[np.minimum(pos_a, ra.size - 1)] == rb) if ra.size else pos_a[:0]
        pos_a = pos_a[pos_b]
        sim = 0.0
        if pos_b.size >= self.min_overlap:
            xa, xb = ca[pos_a], cb[pos_b]
            da = float((xa * xa).sum())
            db = float((xb * xb).sum())
            if da > 0.0 and db > 0.0:
                sim = float((xa * xb).sum()) / math.sqrt(da * db)
                sim = min(1.0, max(-1.0, sim))
        self._sim_cache[key] = sim
        return sim

    def predict_many(self, user_id: int, item_ids: Sequence[int]) -> np.ndarray:
        t = self.train
        mu_u = user_mean(t, user_id)
        rated_idx = t.rated_item_indices(user_id)
        rated_vals = t.rated_values(user_id)
        rated_ids = t.item_ids[rated_idx]

        out = np.empty(len(item_ids))
        for pos, target in enumerate(item_ids):
            sims = np.array([self.item_similarity(int(i), target) for i in rated_ids])
            positive = sims > 0.0
            if not positive.any():
                out[pos] = mu_u
                continue
            cand_sims = sims[positive]
            cand_vals = rated_vals[positive]
            cand_ids = rated_ids[positive]
            if cand_sims.size > self.k_neighbors:
                order = np.lexsort((cand_ids, -cand_sims))[: self.k_neighbors]
                cand_sims, cand_vals = cand_sims[order], cand_vals[order]
            out[pos] = (cand_sims * cand_vals).sum() / cand_sims.sum()
        np.clip(out, RATING_MIN, RATING_MAX, out=out)
        return out
