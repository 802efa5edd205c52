"""Per-layer spans for the traced run, recorded from the benchmark's side.

Each public function or method is wrapped where its caller looks it up (a
name imported into ``harness``, a module global, or a class attribute), so no
file of the program changes. A span's self time is its duration minus the
wrapped calls beneath it. Busy and self time, calls and work counts are
summed in memory as spans close, and read out when the run ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

from longtailrec import age_model, cf, harness, memetic, objectives


def _ratings(args, kwargs, result):
    return {"ratings": len(result.ratings)}


def _items(args, kwargs, result):
    return {"items": len(args[2] if len(args) > 2 else kwargs["item_ids"])}


def _rows(args, kwargs, result):
    return {"rows": int(np.atleast_2d(args[1]).shape[0])}


def _accepted(args, kwargs, result):
    return {"accepted": len(result)}


def _optimized(args, kwargs, result):
    actual = kwargs["users"][result.user_id].age_group
    return {"pool_items": result.pool_size, "age_matches": int(result.age_group == actual)}


# (owner, attribute, layer name, work counter or None, timed)
SPANS = (
    (harness, "prepare_experiment", "harness.prepare_experiment", None, True),
    (harness, "parse_movielens", "dataset.parse_movielens", _ratings, True),
    (harness, "temporal_split", "dataset.temporal_split", None, True),
    (harness, "popularity_partition", "dataset.popularity_partition", None, True),
    (cf.RatingMatrix, "__init__", "cf.RatingMatrix", None, True),
    (harness, "build_age_genre_profiles", "profiles.build_age_genre_profiles", None, True),
    (harness, "build_dynamics_curves", "profiles.build_dynamics_curves", None, True),
    (harness, "featurize_users", "age_model.featurize_users", None, True),
    (harness, "train_age_classifier", "age_model.train_age_classifier", None, True),
    (harness, "same_age_item_means", "memetic.same_age_item_means", None, True),
    (cf, "similarity_vector", "cf.similarity_vector", None, True),
    (cf.UserBasedCF, "predict_many", "cf.UserBasedCF.predict_many", _items, True),
    (cf.ItemBasedCF, "predict_many", "cf.ItemBasedCF.predict_many", _items, True),
    (cf.ItemBasedCF, "item_similarity", "cf.ItemBasedCF.item_similarity", None, False),
    (harness, "optimize_user", "memetic.optimize_user", _optimized, True),
    (objectives.ObjectiveContext, "objectives", "objectives.ObjectiveContext.objectives", _rows, True),
    (memetic, "inject_items", "memetic.inject_items", _accepted, True),
    (memetic, "initialize_population", "memetic.initialize_population", None, True),
    (age_model.AgeClassifier, "predict", "age_model.AgeClassifier.predict", None, False),
    (harness, "build_report", "metrics.build_report", None, True),
)

# Per-layer metric -> (unit, how it is read from the tracer). Busy seconds,
# calls and work counts are per one set-up plus one repetition of the
# workload's operations.
LAYER_METRICS = {
    "harness.prepare_experiment.self_s": ("s", ("self", "harness.prepare_experiment")),
    "dataset.parse_movielens.s": ("s", ("busy", "dataset.parse_movielens")),
    "dataset.parse_movielens.ratings": ("count", ("work", "dataset.parse_movielens.ratings")),
    "dataset.temporal_split.s": ("s", ("busy", "dataset.temporal_split")),
    "dataset.popularity_partition.s": ("s", ("busy", "dataset.popularity_partition")),
    "cf.RatingMatrix.s": ("s", ("busy", "cf.RatingMatrix")),
    "profiles.build_age_genre_profiles.s": ("s", ("busy", "profiles.build_age_genre_profiles")),
    "profiles.build_dynamics_curves.s": ("s", ("busy", "profiles.build_dynamics_curves")),
    "age_model.featurize_users.s": ("s", ("busy", "age_model.featurize_users")),
    "age_model.train_age_classifier.s": ("s", ("busy", "age_model.train_age_classifier")),
    "memetic.same_age_item_means.s": ("s", ("busy", "memetic.same_age_item_means")),
    "cf.similarity_vector.s": ("s", ("busy", "cf.similarity_vector")),
    "cf.similarity_vector.calls": ("count", ("calls", "cf.similarity_vector")),
    "cf.UserBasedCF.predict_many.s": ("s", ("busy", "cf.UserBasedCF.predict_many")),
    "cf.UserBasedCF.predict_many.items": ("count", ("work", "cf.UserBasedCF.predict_many.items")),
    "cf.ItemBasedCF.predict_many.items": ("count", ("work", "cf.ItemBasedCF.predict_many.items")),
    "cf.ItemBasedCF.item_similarity.calls": ("count", ("calls", "cf.ItemBasedCF.item_similarity")),
    "memetic.optimize_user.s": ("s", ("busy", "memetic.optimize_user")),
    "memetic.optimize_user.self_s": ("s", ("self", "memetic.optimize_user")),
    "memetic.optimize_user.calls": ("count", ("calls", "memetic.optimize_user")),
    "objectives.ObjectiveContext.objectives.s": ("s", ("busy", "objectives.ObjectiveContext.objectives")),
    "objectives.ObjectiveContext.objectives.calls": ("count", ("calls", "objectives.ObjectiveContext.objectives")),
    "objectives.ObjectiveContext.objectives.rows": ("count", ("work", "objectives.ObjectiveContext.objectives.rows")),
    "memetic.inject_items.s": ("s", ("busy", "memetic.inject_items")),
    "memetic.inject_items.accepted": ("count", ("work", "memetic.inject_items.accepted")),
    "memetic.initialize_population.s": ("s", ("busy", "memetic.initialize_population")),
    "memetic.pool_size.mean": ("items", ("mean_pool",)),
    "age_model.AgeClassifier.predict.calls": ("count", ("calls", "age_model.AgeClassifier.predict")),
    "age_model.predicted_age_matches": ("users", ("work", "memetic.optimize_user.age_matches")),
    "metrics.build_report.s": ("s", ("busy", "metrics.build_report")),
}

# Layers one workload may not touch; a time that would read 0 on every run
# of such a workload is reported on the info line instead of as a metric.
INFO_ONLY = {
    "cf.ItemBasedCF.predict_many.s": ("s", ("busy", "cf.ItemBasedCF.predict_many")),
}


class Tracer:
    """Sums busy time, self time, calls and work counts per layer, kept
    apart for the set-up and for the repeated operations."""

    def __init__(self):
        self._phases = {"setup": self._new_phase(), "reps": self._new_phase()}
        self.phase = "setup"
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []

    @staticmethod
    def _new_phase():
        return {"busy": defaultdict(float), "self": defaultdict(float),
                "calls": defaultdict(int), "work": defaultdict(int)}

    def install(self) -> None:
        for owner, attr, name, work, timed in SPANS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, work, timed))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, work, timed):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._phases[tracer.phase]["calls"][name] += 1
            return fn(*args, **kwargs)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            below = [0.0]
            tracer._stack.append(below)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                phase = tracer._phases[tracer.phase]
                phase["busy"][name] += elapsed
                phase["self"][name] += elapsed - below[0]
                phase["calls"][name] += 1
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    phase["work"][f"{name}.{key}"] += value
            return result

        return spanned if timed else counted

    def _read(self, how, n_reps: int) -> float:
        setup, reps = self._phases["setup"], self._phases["reps"]
        if how[0] == "mean_pool":
            calls = setup["calls"]["memetic.optimize_user"] + reps["calls"]["memetic.optimize_user"]
            pool = setup["work"]["memetic.optimize_user.pool_items"] + reps["work"]["memetic.optimize_user.pool_items"]
            return pool / calls if calls else 0.0
        kind, key = how
        return setup[kind][key] + reps[kind][key] / n_reps

    def metrics(self, n_reps: int, table=LAYER_METRICS) -> dict:
        out = {}
        for metric, (unit, how) in table.items():
            value = self._read(how, n_reps)
            out[metric] = {"value": value if unit == "s" or how[0] == "mean_pool" else int(round(value)), "unit": unit}
        return out
