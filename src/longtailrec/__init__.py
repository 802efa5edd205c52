"""Long-tail-aware recommendation engine.

Builds per-user recommendation lists that trade off predicted rating,
long-tail exposure, an age/activity-conditioned long-tail quota, and genre
fit, via a memetic optimizer seeded by decaying injection of long-tail items.
Includes user- and item-based collaborative filtering baselines, a
nearest-centroid age-group predictor over genre rating profiles, evaluation
metrics (precision, novelty, aggregate diversity), and an experiment harness
with a CLI.
"""

__version__ = "0.1.0"

from .age_model import (
    AgeClassifier,
    featurize_users,
    train_age_classifier,
)
from .cf import (
    ColdUserError,
    ItemBasedCF,
    RatingMatrix,
    UserBasedCF,
)
from .dataset import (
    AGE_GROUPS,
    GENRES,
    Dataset,
    Item,
    ParseError,
    PopularityPartition,
    Rating,
    SplitDataset,
    User,
    parse_movielens,
    popularity_partition,
    temporal_split,
    warm_user_ids,
)
from .harness import (
    METHODS,
    ExperimentConfig,
    ExperimentOutcome,
    RoundOutcome,
    emit_figure_data,
    multi_round_serve,
    prepare_experiment,
    run_experiment,
)
from .memetic import (
    InjectionParams,
    MemeticConfig,
    OptimizationResult,
    ServingHistory,
    initialize_population,
    inject_items,
    injection_probability,
    optimize_user,
)
from .metrics import (
    EvalReport,
    aggregate_diversity,
    build_report,
    novelty,
    precision,
)
from .objectives import (
    CandidateList,
    ObjectiveContext,
    ObjectiveVector,
    ObjectiveWeights,
)
from .profiles import (
    AgeGenreProfile,
    DynamicsCurve,
    build_age_genre_profiles,
    build_dynamics_curves,
    target_long_tail_count,
)
from .synth import SynthConfig, generate, write_movielens

__all__ = [
    "AGE_GROUPS",
    "AgeClassifier",
    "AgeGenreProfile",
    "CandidateList",
    "ColdUserError",
    "Dataset",
    "DynamicsCurve",
    "EvalReport",
    "ExperimentConfig",
    "ExperimentOutcome",
    "GENRES",
    "InjectionParams",
    "Item",
    "ItemBasedCF",
    "METHODS",
    "MemeticConfig",
    "ObjectiveContext",
    "ObjectiveVector",
    "ObjectiveWeights",
    "OptimizationResult",
    "ParseError",
    "PopularityPartition",
    "Rating",
    "RatingMatrix",
    "RoundOutcome",
    "ServingHistory",
    "SplitDataset",
    "SynthConfig",
    "User",
    "UserBasedCF",
    "aggregate_diversity",
    "build_age_genre_profiles",
    "build_dynamics_curves",
    "build_report",
    "emit_figure_data",
    "featurize_users",
    "generate",
    "initialize_population",
    "inject_items",
    "injection_probability",
    "multi_round_serve",
    "novelty",
    "optimize_user",
    "parse_movielens",
    "popularity_partition",
    "precision",
    "prepare_experiment",
    "run_experiment",
    "target_long_tail_count",
    "temporal_split",
    "train_age_classifier",
    "warm_user_ids",
    "write_movielens",
]
