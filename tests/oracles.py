"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately naive — plain dicts, lists, and loops with no
shared code paths with the package — so agreement between the two is
meaningful evidence of correctness.
"""

from __future__ import annotations

import math


def ratings_by_user(ratings):
    out: dict[int, dict[int, float]] = {}
    for r in ratings:
        out.setdefault(r.user_id, {})[r.item_id] = float(r.value)
    return out


def ratings_by_item(ratings):
    out: dict[int, dict[int, float]] = {}
    for r in ratings:
        out.setdefault(r.item_id, {})[r.user_id] = float(r.value)
    return out


def oracle_user_mean(ratings, user_id):
    vals = [r.value for r in ratings if r.user_id == user_id]
    if not vals:
        raise ValueError(f"user {user_id} has no ratings")
    return sum(vals) / len(vals)


def oracle_pearson(ratings, u, v, min_overlap=2):
    """Sample Pearson correlation over the co-rated overlap; degenerate -> 0."""
    by_user = ratings_by_user(ratings)
    ru = by_user.get(u, {})
    rv = by_user.get(v, {})
    common = sorted(set(ru) & set(rv))
    if len(common) < min_overlap:
        return 0.0
    xu = [ru[i] for i in common]
    xv = [rv[i] for i in common]
    n = len(common)
    mu = sum(xu) / n
    mv = sum(xv) / n
    num = sum((a - mu) * (b - mv) for a, b in zip(xu, xv))
    du = sum((a - mu) ** 2 for a in xu)
    dv = sum((b - mv) ** 2 for b in xv)
    if du <= 0.0 or dv <= 0.0:
        return 0.0
    r = num / math.sqrt(du * dv)
    return min(1.0, max(-1.0, r))


def oracle_predict_user_based(ratings, u, j, k_neighbors=40, min_overlap=2):
    """Direct evaluation of the mean-offset neighborhood prediction."""
    by_user = ratings_by_user(ratings)
    mu_u = oracle_user_mean(ratings, u)
    raters = [v for v, items in by_user.items() if v != u and j in items]
    entries = []
    for v in raters:
        s = oracle_pearson(ratings, u, v, min_overlap)
        mu_v = sum(by_user[v].values()) / len(by_user[v])
        entries.append((s, v, by_user[v][j], mu_v))
    if not entries:
        return min(5.0, max(1.0, mu_u))
    positives = [e for e in entries if e[0] > 0.0]
    pool = positives if len(positives) >= k_neighbors else entries
    pool = sorted(pool, key=lambda e: (-e[0], e[1]))[:k_neighbors]
    denom = sum(abs(e[0]) for e in pool)
    if denom <= 0.0:
        pred = mu_u
    else:
        num = sum(e[0] * (e[2] - e[3]) for e in pool)
        pred = mu_u + num / denom
    return min(5.0, max(1.0, pred))


def oracle_adjusted_cosine(ratings, item_a, item_b, min_overlap=2):
    by_user = ratings_by_user(ratings)
    by_item = ratings_by_item(ratings)
    ra = by_item.get(item_a, {})
    rb = by_item.get(item_b, {})
    common = sorted(set(ra) & set(rb))
    if len(common) < min_overlap:
        return 0.0
    means = {u: sum(items.values()) / len(items) for u, items in by_user.items()}
    xa = [ra[u] - means[u] for u in common]
    xb = [rb[u] - means[u] for u in common]
    da = sum(a * a for a in xa)
    db = sum(b * b for b in xb)
    if da <= 0.0 or db <= 0.0:
        return 0.0
    s = sum(a * b for a, b in zip(xa, xb)) / math.sqrt(da * db)
    return min(1.0, max(-1.0, s))


def oracle_predict_item_based(ratings, u, j, k_neighbors=40, min_overlap=2):
    by_user = ratings_by_user(ratings)
    mu_u = oracle_user_mean(ratings, u)
    entries = []
    for i, value in by_user[u].items():
        s = oracle_adjusted_cosine(ratings, i, j, min_overlap)
        if s > 0.0:
            entries.append((s, i, value))
    if not entries:
        return min(5.0, max(1.0, mu_u))
    entries = sorted(entries, key=lambda e: (-e[0], e[1]))[:k_neighbors]
    num = sum(s * v for s, _, v in entries)
    denom = sum(s for s, _, _ in entries)
    pred = num / denom
    return min(5.0, max(1.0, pred))


def oracle_popularity(train_ratings):
    counts: dict[int, int] = {}
    for r in train_ratings:
        counts[r.item_id] = counts.get(r.item_id, 0) + 1
    return counts


def oracle_partition(train_ratings, item_ids, head_fraction=0.2):
    """(counts, short_head set, long_tail set) by train count, ties by id."""
    counts = {i: 0 for i in item_ids}
    for r in train_ratings:
        if r.item_id in counts:
            counts[r.item_id] += 1
    order = sorted(item_ids, key=lambda i: (-counts[i], i))
    n_head = math.ceil(head_fraction * len(order))
    return counts, set(order[:n_head]), set(order[n_head:])


def oracle_objective_values(list_items, counts, predictions, long_tail, target, pgu, item_genres, vocab):
    """The four list objectives, all computed the slow way."""
    lt_participation = float(sum(counts.get(i, 0) for i in list_items))
    accuracy = 1.0 / sum(predictions[i] for i in list_items)
    quota = abs(sum(1 for i in list_items if i in long_tail) - target)
    incid = [0.0] * len(vocab)
    for i in list_items:
        for g in item_genres[i]:
            incid[vocab.index(g)] += 1.0
    total = sum(incid)
    pgl = [c / total for c in incid]
    genre_distance = sum(abs(a - b) for a, b in zip(pgu, pgl))
    return lt_participation, accuracy, quota, genre_distance


def oracle_precision(recommended, test_by_user, train_means):
    n_rec = 0
    n_rel = 0
    for u, items in recommended.items():
        for i in items:
            n_rec += 1
            v = test_by_user.get(u, {}).get(i)
            if v is not None and v > train_means[u]:
                n_rel += 1
    if n_rec == 0:
        raise ValueError("empty recommendation set")
    return n_rel / n_rec


def oracle_novelty(recommended, counts):
    total = 0
    for items in recommended.values():
        for i in items:
            total += counts.get(i, 0)
    if total == 0:
        return math.inf
    return 1.0 / total


def oracle_aggregate_diversity(recommended):
    seen = set()
    for items in recommended.values():
        seen.update(items)
    return len(seen)


def oracle_age_profiles(train_ratings, user_ages, item_genres, vocab, age_groups):
    """Recount of per-age normalized genre incidence; empty group -> uniform."""
    profiles = {}
    for age in age_groups:
        incid = [0.0] * len(vocab)
        for r in train_ratings:
            if user_ages[r.user_id] != age:
                continue
            for g in item_genres[r.item_id]:
                incid[vocab.index(g)] += 1.0
        total = sum(incid)
        if total == 0:
            profiles[age] = ([1.0 / len(vocab)] * len(vocab), True)
        else:
            profiles[age] = ([c / total for c in incid], False)
    return profiles


def oracle_genre_features(train_ratings, item_genres, vocab, user_id):
    incid = [0.0] * len(vocab)
    for r in train_ratings:
        if r.user_id != user_id:
            continue
        for g in item_genres[r.item_id]:
            incid[vocab.index(g)] += 1.0
    total = sum(incid)
    if total == 0:
        raise ValueError(f"user {user_id} has no ratings")
    return [c / total for c in incid]


def oracle_nearest_centroid(centroids, age_groups, features):
    """Smallest Euclidean distance; exact ties -> smallest age group."""
    best_age = None
    best_d = None
    for age, centroid in zip(age_groups, centroids):
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(centroid, features)))
        if best_d is None or d < best_d:
            best_d = d
            best_age = age
    return best_age


def oracle_dynamics_curve(train_ratings, user_ids, long_tail, n_bins=10):
    """Recount of pooled equal-population activity bins and their long-tail share.

    Returns a list of (lo, hi, share, population) for the given users pooled
    together. Bin upper bounds are the activity-index values found at the
    equal-population cut positions (round(b*n/n_bins) - 1); cuts that repeat a
    previous bound merge into the preceding bin; records are assigned to bins
    by activity-index value.
    """
    flags = []  # (activity_index, is_long_tail)
    for u in user_ids:
        rows = sorted(
            (r for r in train_ratings if r.user_id == u),
            key=lambda r: (r.timestamp, r.item_id),
        )
        for pos, r in enumerate(rows, start=1):
            flags.append((pos, r.item_id in long_tail))
    if not flags:
        return [(b + 1, b + 1, 0.5, 0) for b in range(n_bins)]
    acts_sorted = sorted(t for t, _ in flags)
    n = len(acts_sorted)
    ranges = []
    prev_hi = 0
    for b in range(1, n_bins + 1):
        pos = min(n - 1, round(b * n / n_bins) - 1)
        hi = acts_sorted[pos] if b < n_bins else acts_sorted[-1]
        if hi <= prev_hi:
            continue
        ranges.append((prev_hi + 1, hi))
        prev_hi = hi
    bins = []
    for lo, hi in ranges:
        seg = [lt for idx, lt in flags if lo <= idx <= hi]
        share = (sum(seg) / len(seg)) if seg else 0.0
        bins.append((lo, hi, share, len(seg)))
    return bins
