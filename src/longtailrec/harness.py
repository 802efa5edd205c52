"""Experiment orchestration: ingest → profile → per-user optimization →
metrics → comparison tables for the proposed engine and its baselines.

Methods: "proposed" (memetic with injection seeding), "user-cf" and
"item-cf" (top-k by predicted rating), and "plain-genetic" (the ablation:
uniform seeding, no local search). Evaluation ranks candidates either inside
each user's held-out items ("test" universe, the known-item protocol that
makes precision meaningful) or over the whole unrated catalog ("catalog",
the serving protocol).
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .age_model import AgeClassifier, featurize_users, train_age_classifier
from .cf import ItemBasedCF, RatingMatrix, UserBasedCF
from .dataset import (
    MIN_WARM_TRAIN_RATINGS,
    Dataset,
    PopularityPartition,
    SplitDataset,
    User,
    parse_movielens,
    popularity_partition,
    temporal_split,
    warm_user_ids,
)
from .memetic import (
    InjectionParams,
    MemeticConfig,
    OptimizationResult,
    ServingHistory,
    optimize_user,
    same_age_item_means,
)
from .metrics import EvalReport, build_report, test_ratings_by_user, write_report_json, write_reports_csv
from .objectives import ObjectiveWeights
from .profiles import (
    AgeGenreProfile,
    DynamicsCurve,
    build_age_genre_profiles,
    build_dynamics_curves,
    write_curves_csv,
    write_profiles_csv,
)
from .synth import SynthConfig, generate

METHODS = ("proposed", "user-cf", "item-cf", "plain-genetic")


def engine_version() -> str:
    """Package name and version, echoed into every report."""
    return f"longtailrec {__version__}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; echoed into every report."""

    ratings_path: Optional[str] = None
    users_path: Optional[str] = None
    movies_path: Optional[str] = None
    synth: Optional[SynthConfig] = None
    k: int = 10
    head_item_fraction: float = 0.2
    split_fraction: float = 0.2
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    memetic: MemeticConfig = field(default_factory=MemeticConfig)
    injection: InjectionParams = field(default_factory=InjectionParams)
    injection_scope: str = "long-tail"
    age_source: str = "predicted"
    rounds: int = 1
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    out_dir: Optional[str] = None
    subsample_users: Optional[int] = None
    candidate_universe: str = "test"
    n_workers: int = 1

    def __post_init__(self):
        paths = (self.ratings_path, self.users_path, self.movies_path)
        if any(paths) and not all(paths):
            raise ValueError("supply all three dataset paths or none (synthetic mode)")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}; valid: {METHODS}")
        if not self.methods:
            raise ValueError("at least one method required")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"methods repeated: {repeated}")
        if self.candidate_universe not in ("test", "catalog"):
            raise ValueError("candidate_universe must be 'test' or 'catalog'")
        if self.injection_scope not in ("long-tail", "catalog"):
            raise ValueError("injection_scope must be 'long-tail' or 'catalog'")
        if self.age_source not in ("predicted", "actual"):
            raise ValueError("age_source must be 'predicted' or 'actual'")
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if self.subsample_users is not None and self.subsample_users < 1:
            raise ValueError("subsample_users must be positive")


def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["version"] = engine_version()
    d["eligibility"] = (
        f">= {MIN_WARM_TRAIN_RATINGS} train ratings, >= 1 test rating, "
        f">= k candidate items in the '{config.candidate_universe}' universe"
    )
    return d


@dataclass
class PreparedExperiment:
    """Immutable shared inputs for all methods of one experiment run."""

    dataset: Dataset
    split: SplitDataset
    train_matrix: RatingMatrix
    partition: PopularityPartition
    profiles: dict[int, AgeGenreProfile]
    curves: dict[int, DynamicsCurve]
    classifier: AgeClassifier
    age_item_means: dict[int, np.ndarray]
    user_cf: UserBasedCF
    item_cf: ItemBasedCF
    train_means: dict[int, float]
    test_by_user: dict[int, dict[int, int]]
    eligible_users: tuple[int, ...]
    universes: dict[int, tuple[int, ...]]


def prepare_experiment(config: ExperimentConfig) -> PreparedExperiment:
    if config.ratings_path:
        dataset = parse_movielens(config.ratings_path, config.users_path, config.movies_path)
    else:
        dataset = generate(config.synth or SynthConfig(seed=config.seed))
    split = temporal_split(dataset, config.split_fraction)
    catalog = dataset.item_ids
    # Every rated item is in the catalog, so the matrix columns are the
    # catalog and dataset.item_genres aligns with them.
    train_matrix = RatingMatrix(split.train, item_ids=catalog)
    partition = popularity_partition(split.train, catalog, config.head_item_fraction)
    profiles = build_age_genre_profiles(train_matrix, dataset.users, dataset.item_genres)
    curves = build_dynamics_curves(split.train, dataset.users, partition)
    warm = warm_user_ids(split.train)
    features = featurize_users(train_matrix, dataset.item_genres, warm)
    labels = [dataset.users[u].age_group for u in warm]
    classifier = train_age_classifier(features, labels)
    age_means = same_age_item_means(train_matrix, dataset.users)
    user_cf = UserBasedCF(train_matrix)
    item_cf = ItemBasedCF(train_matrix)
    test_by_user = test_ratings_by_user(split.test)

    # Eligibility needs only universe sizes; universes are built for the kept users.
    eligible: list[int] = []
    for u in warm:
        tests = test_by_user.get(u)
        if not tests:
            continue
        if config.candidate_universe == "test":
            n_candidates = len(tests)
        else:
            n_candidates = catalog.size - train_matrix.rated_item_indices(u).size
        if n_candidates >= config.k:
            eligible.append(u)

    if config.subsample_users is not None and len(eligible) > config.subsample_users:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 997]))
        chosen = rng.choice(np.array(eligible), size=config.subsample_users, replace=False)
        eligible = sorted(int(u) for u in chosen)

    universes: dict[int, tuple[int, ...]] = {}
    for u in eligible:
        if config.candidate_universe == "test":
            universes[u] = tuple(sorted(test_by_user[u]))
        else:
            rated = catalog[train_matrix.rated_item_indices(u)]
            universes[u] = tuple(np.setdiff1d(catalog, rated).tolist())

    train_means = {u: float(train_matrix.user_means[train_matrix.user_index[u]]) for u in eligible}
    return PreparedExperiment(
        dataset=dataset,
        split=split,
        train_matrix=train_matrix,
        partition=partition,
        profiles=profiles,
        curves=curves,
        classifier=classifier,
        age_item_means=age_means,
        user_cf=user_cf,
        item_cf=item_cf,
        train_means=train_means,
        test_by_user=test_by_user,
        eligible_users=tuple(eligible),
        universes=universes,
    )


def _rank_candidates(
    model, partition: PopularityPartition, user_id: int, universe: Sequence[int], k: int
) -> tuple[int, ...]:
    """Top-k by predicted rating; ties broken by popularity then item id."""
    cand = np.asarray(universe, dtype=np.int64)
    preds = model.predict_many(user_id, cand)
    pops = partition.popularity(cand)
    order = np.lexsort((cand, -pops, -preds))
    return tuple(int(i) for i in cand[order[:k]])


def optimize_single(
    user_id: int,
    prepared: PreparedExperiment,
    config: ExperimentConfig,
    method: str,
    history: ServingHistory,
    round_index: int,
) -> OptimizationResult:
    """Optimize one eligible user's list with the method's settings, seeded by
    ``(config.seed, round_index, user_id)`` so the result does not depend on
    evaluation order or worker count.

    An exception keeps its type; its message is prefixed with the user id,
    the seed and the round, also when it comes back from a worker process."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, round_index, user_id])
    )
    memetic_cfg = config.memetic
    if method == "plain-genetic":  # the ablation: no local search
        memetic_cfg = replace(memetic_cfg, local_search_trials=0)
    try:
        return optimize_user(
            user_id,
            train=prepared.train_matrix,
            users=prepared.dataset.users,
            item_genres=prepared.dataset.item_genres,
            partition=prepared.partition,
            model=prepared.user_cf,
            profiles=prepared.profiles,
            curves=prepared.curves,
            classifier=prepared.classifier,
            history=history,
            k=config.k,
            config=memetic_cfg,
            weights=config.weights,
            injection=config.injection,
            candidate_items=prepared.universes[user_id],
            age_source=config.age_source,
            use_injection=method == "proposed",
            injection_scope=config.injection_scope,
            age_item_means=prepared.age_item_means,
            rng=rng,
        )
    except Exception as exc:
        exc.args = (f"user {user_id} (seed {config.seed}, round {round_index}): {exc}",)
        raise


_WORKER_STATE: dict = {}


def _worker_init(prepared, config, method, history_counts, round_index):
    _WORKER_STATE["args"] = (prepared, config, method, ServingHistory(history_counts), round_index)


def _worker_run(user_id: int) -> OptimizationResult:
    return optimize_single(user_id, *_WORKER_STATE["args"])


def _recommend_all(
    prepared: PreparedExperiment,
    config: ExperimentConfig,
    method: str,
    history: ServingHistory,
    round_index: int = 0,
) -> tuple[dict[int, tuple[int, ...]], dict[int, OptimizationResult]]:
    """Lists for every eligible user; optimizer results where applicable."""
    users = prepared.eligible_users
    recommended: dict[int, tuple[int, ...]] = {}
    results: dict[int, OptimizationResult] = {}
    if method in ("user-cf", "item-cf"):
        model = prepared.user_cf if method == "user-cf" else prepared.item_cf
        for u in users:
            recommended[u] = _rank_candidates(
                model, prepared.partition, u, prepared.universes[u], config.k
            )
    elif method in ("proposed", "plain-genetic"):
        if config.n_workers > 1 and len(users) > 1:
            with ProcessPoolExecutor(
                max_workers=config.n_workers,
                initializer=_worker_init,
                initargs=(prepared, config, method, history.as_dict(), round_index),
            ) as pool:
                chunk = max(1, len(users) // (config.n_workers * 4))
                for res in pool.map(_worker_run, users, chunksize=chunk):
                    results[res.user_id] = res
        else:
            for u in users:
                results[u] = optimize_single(u, prepared, config, method, history, round_index)
        for u in users:
            recommended[u] = results[u].best.items
    else:
        raise ValueError(f"unknown method {method!r}")
    return recommended, results


@dataclass
class ExperimentOutcome:
    config: ExperimentConfig
    reports: dict[str, EvalReport]
    recommendations: dict[str, dict[int, tuple[int, ...]]]
    artifacts: dict[str, Path]
    n_eligible: int


def _report_config_echo(config: ExperimentConfig, prepared: PreparedExperiment) -> dict:
    """The config echo of a prepared run's reports; raises if no user is eligible."""
    if not prepared.eligible_users:
        raise ValueError("no eligible users under the configured thresholds")
    echo = config_to_dict(config)
    echo["n_eligible_users"] = len(prepared.eligible_users)
    echo["n_catalog_items"] = len(prepared.dataset.items)
    echo["n_train_ratings"] = len(prepared.split.train)
    echo["n_test_ratings"] = len(prepared.split.test)
    return echo


def _serve_rounds(
    prepared: PreparedExperiment,
    config: ExperimentConfig,
    method: str,
    history: ServingHistory,
    reports: Sequence[tuple[str, dict]],
) -> Iterator[tuple[EvalReport, dict[int, tuple[int, ...]], dict[int, OptimizationResult]]]:
    """One round per (report name, config echo) of `reports`: every eligible
    user's list, one report of them, then every list recorded in `history`
    for the next round. Yields each round's report, lists and optimizer
    results."""
    for round_index, (name, echo) in enumerate(reports):
        recommended, results = _recommend_all(prepared, config, method, history, round_index)
        report = build_report(
            name,
            recommended,
            prepared.test_by_user,
            prepared.train_means,
            prepared.partition,
            config=echo,
            catalog_size=len(prepared.dataset.items),
        )
        for u in prepared.eligible_users:
            history.record_served(recommended[u])
        yield report, recommended, results


@contextmanager
def _removed_on_failure() -> Iterator[dict[str, Path]]:
    """Collects the files a block writes, by artifact name, and deletes them
    if the block raises."""
    written: dict[str, Path] = {}
    try:
        yield written
    except BaseException:
        for path in written.values():
            with suppress(OSError):
                path.unlink()
        raise


def _write_recommendations_csv(path: Path, recommended: Mapping[int, Sequence[int]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "rank", "item_id"])
        for user_id in sorted(recommended):
            for rank, item_id in enumerate(recommended[user_id], start=1):
                writer.writerow([user_id, rank, item_id])


def _write_traces_csv(path: Path, results: Mapping[int, OptimizationResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "generation", "best_fitness", "mean_fitness"])
        for user_id in sorted(results):
            for t in results[user_id].trace:
                writer.writerow([user_id, t.generation, f"{t.best_fitness:.12g}", f"{t.mean_fitness:.12g}"])


def emit_figure_data(
    prepared: PreparedExperiment,
    outdir: str | Path,
    n_bins: int = 10,
) -> dict[str, Path]:
    """Plot-ready CSVs: per-age genre profiles, per-age long-tail dynamics,
    and the pooled long-tail/short-head share over time in system."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "age_genre_profile": outdir / "age_genre_profile.csv",
        "dynamics_by_age": outdir / "dynamics_by_age.csv",
        "lt_sh_over_time": outdir / "lt_sh_over_time.csv",
    }
    write_profiles_csv(prepared.profiles, paths["age_genre_profile"])
    write_curves_csv(prepared.curves, paths["dynamics_by_age"])

    # Pool every user into one group to get the global consumption drift.
    pooled_users = {u: User(user_id=u, age_group=1) for u in prepared.dataset.users}
    pooled = build_dynamics_curves(prepared.split.train, pooled_users, prepared.partition, n_bins)
    curve = pooled[1]
    with open(paths["lt_sh_over_time"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "long_tail_share", "short_head_share", "population"])
        for b in curve.bins:
            writer.writerow(
                [b.lo, b.hi, f"{b.share:.6f}", f"{1.0 - b.share:.6f}", b.population]
            )
    return paths


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Run every configured method once and report all three metrics.

    Deterministic for a fixed config (including seed and worker count). When
    `out_dir` is set, writes the config echo, per-method reports and
    recommendation lists, a summary table, and the figure-data CSVs; on
    failure all files created by this run are removed.
    """
    prepared = prepare_experiment(config)
    echo = _report_config_echo(config, prepared)
    outdir = Path(config.out_dir) if config.out_dir else None
    reports: dict[str, EvalReport] = {}
    recommendations: dict[str, dict[int, tuple[int, ...]]] = {}
    with _removed_on_failure() as artifacts:
        for method in config.methods:
            [(report, recommended, results)] = _serve_rounds(
                prepared, config, method, ServingHistory(), [(method, echo)]
            )
            reports[method] = report
            recommendations[method] = recommended
            if outdir:
                outdir.mkdir(parents=True, exist_ok=True)
                path = outdir / f"recommendations_{method}.csv"
                _write_recommendations_csv(path, recommended)
                artifacts[f"recommendations_{method}"] = path
                path = outdir / f"report_{method}.json"
                write_report_json(report, path)
                artifacts[f"report_{method}"] = path
                if results:
                    path = outdir / f"traces_{method}.csv"
                    _write_traces_csv(path, results)
                    artifacts[f"traces_{method}"] = path

        if outdir:
            path = outdir / "summary.csv"
            write_reports_csv([reports[m] for m in config.methods], path)
            artifacts["summary"] = path
            path = outdir / "config.json"
            with open(path, "w") as fh:
                json.dump(echo, fh, indent=2, sort_keys=True)
                fh.write("\n")
            artifacts["config"] = path
            artifacts.update(emit_figure_data(prepared, outdir))
    return ExperimentOutcome(
        config=config,
        reports=reports,
        recommendations=recommendations,
        artifacts=artifacts,
        n_eligible=len(prepared.eligible_users),
    )


@dataclass
class RoundOutcome:
    round_index: int  # 1-based
    report: EvalReport
    recommendations: dict[int, tuple[int, ...]]


def multi_round_serve(
    config: ExperimentConfig,
    rounds: Optional[int] = None,
    prepared: Optional[PreparedExperiment] = None,
) -> tuple[list[RoundOutcome], ServingHistory]:
    """Serve the proposed method for R rounds, updating serving history
    between rounds so repeatedly served items lose injection probability.
    When `out_dir` is set, writes the per-round metrics and the final
    serving history; on failure both files are removed."""
    n_rounds = config.rounds if rounds is None else rounds
    if n_rounds < 1:
        raise ValueError("rounds must be at least 1")
    if prepared is None:
        prepared = prepare_experiment(config)
    echo = _report_config_echo(config, prepared)
    history = ServingHistory()
    reports = [(f"proposed-round-{r}", {**echo, "round": r}) for r in range(1, n_rounds + 1)]
    outcomes = [
        RoundOutcome(round_index=r, report=report, recommendations=recommended)
        for r, (report, recommended, _) in enumerate(
            _serve_rounds(prepared, config, "proposed", history, reports), start=1
        )
    ]
    if config.out_dir:
        outdir = Path(config.out_dir)
        with _removed_on_failure() as written:
            outdir.mkdir(parents=True, exist_ok=True)
            path = outdir / "rounds.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["round", "precision", "novelty", "aggregate_diversity"])
                for oc in outcomes:
                    nov = "inf" if oc.report.novelty_infinite else f"{oc.report.novelty:.10g}"
                    writer.writerow(
                        [oc.round_index, f"{oc.report.precision:.6f}", nov, oc.report.aggregate_diversity]
                    )
            written["rounds"] = path
            path = outdir / "serving_history.csv"
            history.write_csv(path)
            written["serving_history"] = path
    return outcomes, history
