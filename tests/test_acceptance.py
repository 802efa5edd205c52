"""Acceptance gate: seven end-to-end criteria, one pass/fail line each.

Criteria 1-2 check the numerical core against brute-force oracles and run the
key invariants at scale (>= 10^4 generated cases per family). Criteria 3-7
reproduce the desk-scale behavior of the engine on a seeded 1500-user dataset:
precision bracket and baseline gap, diversity/novelty direction with the
plain-genetic ablation, long-tail dynamics shape, multi-round serving
novelty, and age-classifier sanity.

By default the desk-scale criteria run on the bundled synthetic facsimile.
Set the LONGTAILREC_ML1M environment variable to a directory containing the
MovieLens 1M files (ratings.dat, users.dat, movies.dat) to run them against
the real archive on a seeded 1500-user subsample instead.

Each test prints `ACCEPTANCE CRITERION n: PASS|FAIL — <measurements>`;
pytest -v adds one PASSED/FAILED line per criterion.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from longtailrec.age_model import featurize_users, train_age_classifier
from longtailrec.cf import UserBasedCF, similarity_vector
from longtailrec.dataset import GENRES
from longtailrec.harness import (
    ExperimentConfig,
    multi_round_serve,
    prepare_experiment,
    run_experiment,
)
from longtailrec.memetic import (
    InjectionParams,
    MemeticConfig,
    ServingHistory,
    _crossover_batch,
    _local_search_batch,
    _mutate_batch,
    injection_probability,
    optimize_user,
)
from longtailrec.metrics import aggregate_diversity, novelty, precision
from longtailrec.objectives import ObjectiveWeights
from longtailrec.profiles import build_age_genre_profiles, build_dynamics_curves
from longtailrec.synth import SynthConfig

from instances import long_tail_ids, make_random_instance, pool_context
from oracles import (
    oracle_aggregate_diversity,
    oracle_novelty,
    oracle_objective_values,
    oracle_pearson,
    oracle_precision,
    oracle_predict_user_based,
)

pytestmark = pytest.mark.acceptance

ML1M_ENV = "LONGTAILREC_ML1M"

# Desk-scale dataset: a 1500-user facsimile with planted age/genre affinity,
# long-tail drift rising with age, and a heavy-tailed item popularity skew.
DESK_SYNTH = SynthConfig(
    n_users=1500,
    n_items=1200,
    seed=7,
    min_ratings_per_user=90,
    max_ratings_per_user=450,
    median_ratings_per_user=150.0,
    activity_sigma=0.5,
    quality_sd=1.1,
    affinity_gain=0.38,
    noise_sd=0.30,
    zipf_exponent=1.05,
)


def _desk_config() -> ExperimentConfig:
    base = dict(
        k=10,
        weights=ObjectiveWeights.normalized([0.22, 0.36, 0.21, 0.21]),
        memetic=MemeticConfig(generations=40, rng_seed=7, top_pool_size=15),
        seed=7,
        methods=("user-cf", "item-cf", "proposed", "plain-genetic"),
        candidate_universe="test",
    )
    root = os.environ.get(ML1M_ENV)
    if root:
        d = Path(root)
        return ExperimentConfig(
            ratings_path=str(d / "ratings.dat"),
            users_path=str(d / "users.dat"),
            movies_path=str(d / "movies.dat"),
            subsample_users=1500,
            **base,
        )
    return ExperimentConfig(synth=DESK_SYNTH, **base)


@pytest.fixture(scope="session")
def desk_outcome():
    """The shared desk-scale run: all four methods once, wall time measured."""
    config = _desk_config()
    t0 = time.monotonic()
    outcome = run_experiment(config)
    elapsed = time.monotonic() - t0
    return outcome, elapsed


@pytest.fixture(scope="session")
def desk_prepared():
    return prepare_experiment(_desk_config())


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# Criterion 1: oracle equivalence on 200 seeded small instances (< 60 s).
# --------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(991)
    tol = 1e-9
    n_pred = n_obj = n_metric = 0

    for seed in range(50_000, 50_200):
        inst = make_random_instance(seed)
        item_ids = sorted(inst.items)
        counts = {i: inst.partition.popularity(i) for i in item_ids}

        # Rating prediction vs the brute-force neighborhood evaluation.
        model = UserBasedCF(inst.train)
        rated_users = [
            u for u in sorted(inst.users) if inst.train.rated_item_indices(u).size >= 1
        ]
        for u in rng.choice(rated_users, size=min(3, len(rated_users)), replace=False):
            j = int(rng.choice(item_ids))
            got = float(model.predict_many(int(u), [j])[0])
            want = oracle_predict_user_based(inst.ratings, int(u), j)
            assert abs(got - want) <= tol, f"seed {seed}: predict({u},{j}) {got} vs {want}"
            n_pred += 1
        # One batched call per user over the whole catalog, entry by entry.
        for u in rated_users:
            batch = model.predict_many(u, item_ids)
            for j, got in zip(item_ids, batch.tolist()):
                want = oracle_predict_user_based(inst.ratings, u, j)
                assert abs(got - want) <= tol, f"seed {seed}: batched predict({u},{j}) {got} vs {want}"
                n_pred += 1

        # The four list objectives of a random list, as the optimizer evaluates them.
        k = min(5, len(item_ids))
        list_idx = rng.choice(len(item_ids), size=k, replace=False)
        list_items = [item_ids[int(n)] for n in list_idx]
        preds = {i: float(rng.uniform(1.0, 5.0)) for i in item_ids}
        target = int(rng.integers(0, k + 1))
        pgu = rng.random(len(GENRES))
        pgu /= pgu.sum()
        ctx = pool_context(
            pool_items=item_ids,
            k=k,
            partition=inst.partition,
            predictions=preds,
            items=inst.items,
            pgu=pgu,
            target_lt=target,
            weights=ObjectiveWeights(),
        )
        got4 = ctx.objectives(list_idx[None, :])[0]
        want4 = oracle_objective_values(
            list_items,
            counts,
            preds,
            long_tail_ids(inst.partition),
            target,
            pgu.tolist(),
            {i: sorted(inst.items[i].genres) for i in item_ids},
            list(GENRES),
        )
        assert abs(got4[0] - want4[0]) <= tol, f"seed {seed}: long-tail participation"
        assert abs(got4[1] - want4[1]) <= tol, f"seed {seed}: accuracy objective"
        assert got4[2] == want4[2], f"seed {seed}: dynamic quota {got4[2]} vs {want4[2]}"
        assert abs(got4[3] - want4[3]) <= tol, f"seed {seed}: genre distance"
        n_obj += 4

        # Evaluation metrics on a random recommendation map.
        rec_users = [int(u) for u in rng.choice(sorted(inst.users), size=min(4, len(inst.users)), replace=False)]
        recommended = {
            u: [int(i) for i in rng.choice(item_ids, size=min(3, len(item_ids)), replace=False)]
            for u in rec_users
        }
        test_map: dict[int, dict[int, int]] = {}
        for r in inst.ratings:
            if rng.random() < 0.5:
                test_map.setdefault(r.user_id, {})[r.item_id] = r.value
        means = {u: float(rng.uniform(1.0, 5.0)) for u in rec_users}

        got_p = precision(recommended, test_map, means)
        want_p = oracle_precision(recommended, test_map, means)
        assert abs(got_p - want_p) <= tol, f"seed {seed}: precision {got_p} vs {want_p}"
        got_n = novelty(recommended, inst.partition)
        want_n = oracle_novelty(recommended, counts)
        if math.isinf(want_n):
            assert math.isinf(got_n), f"seed {seed}: novelty expected inf, got {got_n}"
        else:
            assert abs(got_n - want_n) <= tol, f"seed {seed}: novelty {got_n} vs {want_n}"
        assert aggregate_diversity(recommended) == oracle_aggregate_diversity(recommended)
        n_metric += 3

    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    _verdict(
        1,
        ok,
        f"200 instances, {n_pred} predictions, {n_obj} objective values, "
        f"{n_metric} metric values all within 1e-9 (integer ones exact) in {elapsed:.1f}s "
        f"(budget 60s)",
    )


# --------------------------------------------------------------------------
# Criterion 2: invariant suite, >= 10^4 generated cases per family.
# --------------------------------------------------------------------------


def _closure_setup(seed: int, rng: np.random.Generator):
    inst = make_random_instance(seed)
    item_ids = sorted(inst.items)
    k = min(4, len(item_ids))
    preds = {i: float(rng.uniform(1.0, 5.0)) for i in item_ids}
    pgu = rng.random(len(GENRES))
    pgu /= pgu.sum()
    ctx = pool_context(
        pool_items=item_ids,
        k=k,
        partition=inst.partition,
        predictions=preds,
        items=inst.items,
        pgu=pgu,
        target_lt=int(rng.integers(0, k + 1)),
        weights=ObjectiveWeights(),
    )
    return item_ids, k, ctx


def _assert_valid(individual: np.ndarray, k: int, n_pool: int) -> None:
    assert individual.shape == (k,)
    assert len(set(individual.tolist())) == k, f"duplicates in {individual}"
    assert ((individual >= 0) & (individual < n_pool)).all(), f"escaped the pool: {individual}"


def test_criterion_2_invariant_suite():
    counts = {}

    # Family 1: similarity bounds and symmetry, over pairs of users with
    # training ratings (a user without any has no similarity vector).
    rng = np.random.default_rng(611)
    n_sim = 0
    for seed in itertools.count(61_000):
        if n_sim >= 10_000:
            break
        inst = make_random_instance(seed)
        t = inst.train
        users = [u for u in sorted(inst.users) if t.rated_item_indices(u).size > 0]
        vectors = {u: similarity_vector(t, u) for u in users}
        for a in range(len(users)):
            for b in range(a + 1, len(users)):
                s_ab = vectors[users[a]][t.uidx(users[b])]
                s_ba = vectors[users[b]][t.uidx(users[a])]
                assert -1.0 - 1e-12 <= s_ab <= 1.0 + 1e-12
                assert abs(s_ab - s_ba) <= 1e-12
                assert abs(s_ab - oracle_pearson(inst.ratings, users[a], users[b])) <= 1e-9
                n_sim += 1
    counts["similarity"] = n_sim

    # Family 2: list validity closure under the optimizer's index operators.
    n_cross = n_mut = n_ls = 0
    for seed in itertools.count(62_000):
        if min(n_cross, n_mut, n_ls) >= 10_000:
            break
        item_ids, k, ctx = _closure_setup(seed, rng)
        n_pool = len(item_ids)
        pa = np.stack([rng.choice(n_pool, size=k, replace=False) for _ in range(20)])
        pb = np.stack([rng.choice(n_pool, size=k, replace=False) for _ in range(20)])
        children = _crossover_batch(pa, pb, np.ones(20, dtype=bool), rng)
        for child, a, b in zip(children, pa, pb):
            _assert_valid(child, k, n_pool)
            assert set(child) <= set(a) | set(b)
            n_cross += 1
        parents = np.stack([rng.choice(n_pool, size=k, replace=False) for _ in range(20)])
        for mutant in _mutate_batch(parents, n_pool, 0.4, rng):
            _assert_valid(mutant, k, n_pool)
            n_mut += 1
        trials = 5
        start = np.stack([rng.choice(n_pool, size=k, replace=False) for _ in range(4)])
        result = _local_search_batch(start, ctx, trials, rng)
        for row in result:
            _assert_valid(row, k, n_pool)
        assert (ctx.fitness(result) <= ctx.fitness(start) + 1e-12).all(), (
            "local search worsened fitness"
        )
        n_ls += trials * len(start)
    counts["closure"] = (n_cross, n_mut, n_ls)

    # Family 3: elite fitness never increases across generations.
    n_transitions = 0
    n_runs = 0
    for seed in itertools.count(63_000):
        if n_transitions >= 10_000:
            break
        inst = make_random_instance(seed)
        k = 3
        user = None
        for u in sorted(inst.users):
            n_rated = inst.train.rated_item_indices(u).size
            if n_rated >= 1 and len(inst.items) - n_rated >= k:
                user = u
                break
        if user is None:
            continue
        try:
            result = optimize_user(
                user,
                inst.train,
                inst.users,
                inst.item_genres,
                inst.partition,
                UserBasedCF(inst.train),
                build_age_genre_profiles(inst.train, inst.users, inst.item_genres),
                build_dynamics_curves(inst.ratings, inst.users, inst.partition, n_bins=2),
                classifier=None,
                history=ServingHistory(),
                k=k,
                config=MemeticConfig(
                    population_size=8, generations=40, elitism_count=2, rng_seed=seed
                ),
                injection=InjectionParams(pool_size=max(5, k)),
                age_source="actual",
                min_train_ratings=1,
            )
        except ValueError:
            continue
        for prev, cur in zip(result.trace, result.trace[1:]):
            assert cur.best_fitness <= prev.best_fitness + 1e-9, (
                f"seed {seed}: elite fitness rose {prev.best_fitness} -> {cur.best_fitness}"
            )
            n_transitions += 1
        n_runs += 1
    counts["elite"] = (n_transitions, n_runs)

    # Family 4: injection probability decays in serving count, grows in the
    # same-age mean rating.
    rng4 = np.random.default_rng(641)
    n_decay = n_grow = 0
    while n_decay < 10_000:
        m = float(rng4.uniform(0.05, 5.0))
        a = float(rng4.uniform(0.01, 1.0))
        n1 = int(rng4.integers(0, 100))
        n2 = n1 + int(rng4.integers(1, 50))
        p1 = injection_probability(7, m, ServingHistory({7: n1} if n1 else None), a)
        p2 = injection_probability(7, m, ServingHistory({7: n2}), a)
        assert p2 < p1, f"serving decay violated: p({n1})={p1} p({n2})={p2}"
        n_decay += 1
    while n_grow < 10_000:
        a = float(rng4.uniform(0.01, 1.0))
        n = int(rng4.integers(0, 100))
        m1 = float(rng4.uniform(0.0, 4.9))
        m2 = float(rng4.uniform(m1 + 1e-6, 5.0))
        hist = ServingHistory({7: n} if n else None)
        p1 = injection_probability(7, m1, hist, a)
        p2 = injection_probability(7, m2, hist, a)
        assert p2 > p1, f"mean-rating monotonicity violated: p({m1})={p1} p({m2})={p2}"
        n_grow += 1
    counts["injection"] = (n_decay, n_grow)

    # Family 5: every age-group genre profile is a proper distribution.
    n_pgu = 0
    for seed in itertools.count(65_000):
        if n_pgu >= 10_000:
            break
        inst = make_random_instance(seed)
        profiles = build_age_genre_profiles(inst.train, inst.users, inst.item_genres)
        for profile in profiles.values():
            assert profile.pgu.shape == (len(GENRES),)
            assert (profile.pgu >= 0.0).all()
            assert abs(float(profile.pgu.sum()) - 1.0) <= 1e-9
            n_pgu += 1
    counts["pgu"] = n_pgu

    ok = (
        counts["similarity"] >= 10_000
        and min(counts["closure"]) >= 10_000
        and counts["elite"][0] >= 10_000
        and min(counts["injection"]) >= 10_000
        and counts["pgu"] >= 10_000
    )
    _verdict(
        2,
        ok,
        f"cases per family — similarity: {counts['similarity']}, "
        f"closure (crossover/mutation/local-search): {counts['closure']}, "
        f"elite transitions: {counts['elite'][0]} over {counts['elite'][1]} runs, "
        f"injection (decay/growth): {counts['injection']}, pgu: {counts['pgu']}",
    )


# --------------------------------------------------------------------------
# Criteria 3-4: desk-scale reproduction on the shared four-method run.
# --------------------------------------------------------------------------


def test_criterion_3_precision_reproduction(desk_outcome):
    outcome, elapsed = desk_outcome
    prec_p = outcome.reports["proposed"].precision
    prec_u = outcome.reports["user-cf"].precision
    gap = abs(prec_p - prec_u)
    ok = 0.80 <= prec_p <= 0.95 and gap <= 0.03 and elapsed <= 1800.0
    _verdict(
        3,
        ok,
        f"proposed precision@10 = {prec_p:.4f} (bracket [0.80, 0.95]), "
        f"|gap to user-based CF| = {gap:.4f} (<= 0.03), "
        f"wall time {elapsed / 60:.1f} min over {outcome.n_eligible} users "
        f"(budget 30 min)",
    )


def test_criterion_4_diversity_novelty_direction(desk_outcome):
    outcome, _ = desk_outcome
    rep = outcome.reports
    p, u, i, g = rep["proposed"], rep["user-cf"], rep["item-cf"], rep["plain-genetic"]
    ratio_u = p.aggregate_diversity / u.aggregate_diversity
    ratio_i = p.aggregate_diversity / i.aggregate_diversity
    dprec = abs(p.precision - g.precision)
    ok = (
        ratio_u >= 1.2
        and ratio_i >= 1.2
        and p.novelty > u.novelty
        and p.novelty > i.novelty
        and dprec <= 0.02
        and p.novelty >= g.novelty
    )
    _verdict(
        4,
        ok,
        f"aggregate diversity {p.aggregate_diversity} vs user-CF {u.aggregate_diversity} "
        f"(x{ratio_u:.3f}) and item-CF {i.aggregate_diversity} (x{ratio_i:.3f}, need >= 1.2); "
        f"novelty {p.novelty:.3e} vs {u.novelty:.3e}/{i.novelty:.3e}; "
        f"ablation: novelty {p.novelty:.3e} vs plain-genetic {g.novelty:.3e} "
        f"at |Δprecision| = {dprec:.4f} (<= 0.02)",
    )


# --------------------------------------------------------------------------
# Criterion 5: long-tail dynamics shape.
# --------------------------------------------------------------------------


def test_criterion_5_dynamics_reproduction(desk_prepared):
    curves = desk_prepared.curves
    oldest = curves[56]
    first, last = oldest.bins[0].share, oldest.bins[-1].share
    firsts = {age: c.bins[0].share for age, c in curves.items()}
    lo, hi = min(firsts.values()), max(firsts.values())
    ok = last > first and 0.35 <= lo and hi <= 0.65
    _verdict(
        5,
        ok,
        f"age 56 long-tail share rises {first:.3f} -> {last:.3f} (strict); "
        f"first-bin shares over all groups in [{lo:.3f}, {hi:.3f}] (bracket [0.35, 0.65])",
    )


# --------------------------------------------------------------------------
# Criterion 6: novelty does not degrade over five serving rounds.
# --------------------------------------------------------------------------


def test_criterion_6_multi_round_novelty():
    # Serving simulation: the candidate pool is governed by the decay-gated
    # bag over the whole unrated catalog (injection_scope="catalog",
    # prediction shortlist reduced to one slot), so repeatedly served popular
    # items lose availability round over round and hand their slots to
    # rarely served long-tail items — the mechanism the long-run novelty
    # claim rests on. A seeded 200-user subsample keeps the five rounds
    # inside the budget.
    desk = _desk_config()
    config = replace(
        desk,
        candidate_universe="catalog",
        injection_scope="catalog",
        subsample_users=200,
        rounds=5,
        methods=("proposed",),
        memetic=replace(desk.memetic, top_pool_size=1),
    )
    outcomes, _history = multi_round_serve(config)
    novs = [oc.report.novelty for oc in outcomes]
    ok = len(outcomes) == 5 and novs[-1] >= novs[0]
    _verdict(
        6,
        ok,
        "round novelties: " + ", ".join(f"{n:.4e}" for n in novs) + f"; round 5 >= round 1: {novs[-1] >= novs[0]}",
    )


# --------------------------------------------------------------------------
# Criterion 7: the age classifier beats the majority baseline.
# --------------------------------------------------------------------------


def test_criterion_7_age_classifier_sanity(desk_prepared):
    prepared = desk_prepared
    users_arr = np.array(prepared.eligible_users)
    perm = np.random.default_rng(7).permutation(len(users_arr))
    n_fit = int(round(0.8 * len(users_arr)))
    fit_users = [int(x) for x in users_arr[perm[:n_fit]]]
    held_users = [int(x) for x in users_arr[perm[n_fit:]]]

    feats_fit = featurize_users(prepared.train_matrix, prepared.dataset.item_genres, fit_users)
    labels_fit = [prepared.dataset.users[x].age_group for x in fit_users]
    clf = train_age_classifier(feats_fit, labels_fit)

    feats_held = featurize_users(prepared.train_matrix, prepared.dataset.item_genres, held_users)
    labels_held = [prepared.dataset.users[x].age_group for x in held_users]
    hits = [clf.predict(row) == lab for row, lab in zip(feats_held, labels_held)]
    accuracy = float(np.mean(hits))

    tallies: dict[int, int] = {}
    for lab in labels_fit:
        tallies[lab] = tallies.get(lab, 0) + 1
    majority_label = max(sorted(tallies), key=lambda a: tallies[a])
    baseline = float(np.mean([lab == majority_label for lab in labels_held]))

    ok = accuracy > baseline
    _verdict(
        7,
        ok,
        f"held-out accuracy {accuracy:.3f} vs majority-class baseline {baseline:.3f} "
        f"({len(held_users)} held-out users, 80/20 split)",
    )
