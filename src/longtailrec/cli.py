"""Command-line interface.

Subcommands: `ingest` (parse or synthesize a dataset and summarize it),
`profile` (emit age/genre profiles and long-tail dynamics CSVs),
`recommend --user` (optimize one user's list), `evaluate` and `compare`
(one handler: run methods and report precision/novelty/aggregate diversity,
with proposed-vs-baseline deltas; they differ only in the default
`--methods`), and
`serve-rounds` (simulate repeated serving with history updates).

Errors print a machine-readable JSON record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from .dataset import MIN_WARM_TRAIN_RATINGS
from .harness import (
    METHODS,
    ExperimentConfig,
    emit_figure_data,
    multi_round_serve,
    optimize_single,
    prepare_experiment,
    run_experiment,
)
from .memetic import InjectionParams, MemeticConfig, ServingHistory
from .metrics import report_to_dict
from .objectives import ObjectiveWeights
from .synth import SynthConfig


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    data = parser.add_argument_group("dataset")
    data.add_argument("--ratings", help="ratings.dat path (omit all three for synthetic data)")
    data.add_argument("--users", help="users.dat path")
    data.add_argument("--movies", help="movies.dat path")
    data.add_argument("--synth-users", type=int, default=400, help="synthetic user count")
    data.add_argument("--synth-items", type=int, default=500, help="synthetic catalog size")

    run = parser.add_argument_group("run")
    run.add_argument("--seed", type=int, default=0, help="global random seed")
    run.add_argument("--k", type=int, default=10, help="recommendation list length")
    run.add_argument("--head-fraction", type=float, default=0.2,
                     help="fraction of catalog forming the popularity short head")
    run.add_argument("--split-fraction", type=float, default=0.2,
                     help="per-user fraction of latest ratings held out")
    run.add_argument("--universe", choices=("test", "catalog"), default=None,
                     help="candidate universe (default: test for evaluate/compare, catalog otherwise)")
    run.add_argument("--subsample", type=int, default=None,
                     help="evaluate at most this many eligible users (seeded)")
    run.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    run.add_argument("--age-source", choices=("predicted", "actual"), default="predicted")
    run.add_argument("--out", default=None, help="output directory for artifacts")

    opt = parser.add_argument_group("optimizer")
    opt.add_argument("--weights", type=float, nargs=4, metavar=("W1", "W2", "W3", "W4"),
                     default=None, help="objective weights (normalized to sum 1)")
    opt.add_argument("--population", type=int, default=100)
    opt.add_argument("--generations", type=int, default=50)
    opt.add_argument("--crossover-rate", type=float, default=0.9)
    opt.add_argument("--mutation-rate", type=float, default=0.05)
    opt.add_argument("--tournament", type=int, default=3)
    opt.add_argument("--ls-trials", type=int, default=None,
                     help="local search trials per offspring (default 2*k)")
    opt.add_argument("--elitism", type=int, default=2)
    opt.add_argument("--top-pool", type=int, default=500,
                     help="prediction-ranked candidate pool size")
    opt.add_argument("--injection-decay", type=float, default=0.1)
    opt.add_argument("--injection-pool", type=int, default=100)
    opt.add_argument("--injection-scope", choices=("long-tail", "catalog"), default=None,
                     help="bag the injection sampler draws from (default: catalog for "
                          "serve-rounds so served popular items decay out, long-tail otherwise)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longtailrec",
        description="Long-tail-aware recommendation engine and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse or synthesize a dataset and summarize it")
    _add_common_arguments(p_ingest)

    p_profile = sub.add_parser("profile", help="emit age/genre profiles and dynamics CSVs")
    _add_common_arguments(p_profile)

    p_rec = sub.add_parser("recommend", help="optimize one user's recommendation list")
    _add_common_arguments(p_rec)
    p_rec.add_argument("--user", type=int, required=True, help="target user id")

    for name, default_methods, help_text in (
        ("evaluate", ["proposed"], "run methods and report metrics"),
        ("compare", list(METHODS), "as evaluate, with all methods by default"),
    ):
        p_eval = sub.add_parser(name, help=help_text)
        _add_common_arguments(p_eval)
        p_eval.add_argument("--methods", nargs="+", choices=METHODS, default=default_methods)

    p_serve = sub.add_parser("serve-rounds", help="simulate R serving rounds with history updates")
    _add_common_arguments(p_serve)
    p_serve.add_argument("--rounds", type=int, default=5)

    return parser


def _config_from_args(
    args: argparse.Namespace,
    default_universe: str,
    default_injection_scope: str = "long-tail",
) -> ExperimentConfig:
    synth = None
    if not args.ratings:
        synth = SynthConfig(n_users=args.synth_users, n_items=args.synth_items, seed=args.seed)
    weights = (
        ObjectiveWeights.normalized(args.weights) if args.weights else ObjectiveWeights()
    )
    memetic = MemeticConfig(
        population_size=args.population,
        generations=args.generations,
        crossover_rate=args.crossover_rate,
        mutation_rate=args.mutation_rate,
        tournament_size=args.tournament,
        local_search_trials=args.ls_trials,
        elitism_count=args.elitism,
        rng_seed=args.seed,
        top_pool_size=args.top_pool,
    )
    injection = InjectionParams(a=args.injection_decay, pool_size=args.injection_pool)
    return ExperimentConfig(
        ratings_path=args.ratings,
        users_path=args.users,
        movies_path=args.movies,
        synth=synth,
        k=args.k,
        head_item_fraction=args.head_fraction,
        split_fraction=args.split_fraction,
        weights=weights,
        memetic=memetic,
        injection=injection,
        injection_scope=args.injection_scope or default_injection_scope,
        age_source=args.age_source,
        rounds=getattr(args, "rounds", 1),
        seed=args.seed,
        methods=tuple(getattr(args, "methods", METHODS)),
        out_dir=args.out,
        subsample_users=args.subsample,
        candidate_universe=args.universe or default_universe,
        n_workers=args.workers,
    )


def _cmd_ingest(args: argparse.Namespace) -> dict:
    config = _config_from_args(args, default_universe="catalog")
    prepared = prepare_experiment(config)
    return {
        "n_users": prepared.dataset.n_users,
        "n_items": prepared.dataset.n_items,
        "n_ratings": prepared.dataset.n_ratings,
        "n_train": len(prepared.split.train),
        "n_test": len(prepared.split.test),
        "n_short_head": int((~prepared.partition.long_tail).sum()),
        "n_long_tail": int(prepared.partition.long_tail.sum()),
        "n_eligible_users": len(prepared.eligible_users),
    }


def _cmd_profile(args: argparse.Namespace) -> dict:
    config = _config_from_args(args, default_universe="catalog")
    if not config.out_dir:
        raise ValueError("profile requires --out for the CSV artifacts")
    prepared = prepare_experiment(config)
    paths = emit_figure_data(prepared, config.out_dir)
    return {name: str(p) for name, p in paths.items()}


def _cmd_recommend(args: argparse.Namespace) -> dict:
    config = _config_from_args(args, default_universe="catalog")
    prepared = prepare_experiment(config)
    if args.user not in prepared.universes:
        raise ValueError(
            f"user {args.user} is not eligible (needs >= {MIN_WARM_TRAIN_RATINGS} train "
            f"ratings, >= 1 test rating, >= {config.k} candidate items)"
        )
    result = optimize_single(args.user, prepared, config, "proposed", ServingHistory(), 0)
    return {
        "user_id": result.user_id,
        "items": list(result.best.items),
        "age_group": result.age_group,
        "target_long_tail": result.target_long_tail,
        "fitness": result.fitness,
        "objectives": dataclasses.asdict(result.objectives),
        "n_injected": result.n_injected,
        "pool_size": result.pool_size,
    }


def _cmd_evaluate(args: argparse.Namespace) -> dict:
    """`evaluate` and `compare`: run the methods and report each, plus the
    proposed method's deltas to every other method that ran."""
    config = _config_from_args(args, default_universe="test")
    outcome = run_experiment(config)
    reports = outcome.reports
    payload = {
        "n_eligible_users": outcome.n_eligible,
        "reports": {
            m: {key: v for key, v in report_to_dict(r).items() if key != "per_user"}
            for m, r in reports.items()
        },
        "artifacts": {k: str(v) for k, v in outcome.artifacts.items()},
    }
    base = reports.get("proposed")
    if base is not None and len(reports) > 1:
        deltas = {}
        for method, report in reports.items():
            if method == "proposed":
                continue
            entry = {"precision_delta": base.precision - report.precision}
            if report.aggregate_diversity:
                entry["aggregate_diversity_ratio"] = (
                    base.aggregate_diversity / report.aggregate_diversity
                )
            if not (base.novelty_infinite or report.novelty_infinite) and report.novelty:
                entry["novelty_ratio"] = base.novelty / report.novelty
            deltas[method] = entry
        payload["proposed_vs"] = deltas
    return payload


def _cmd_serve_rounds(args: argparse.Namespace) -> dict:
    config = _config_from_args(
        args, default_universe="catalog", default_injection_scope="catalog"
    )
    outcomes, history = multi_round_serve(config, args.rounds)
    return {
        "rounds": [
            {
                "round": oc.round_index,
                "precision": oc.report.precision,
                "novelty": "inf" if oc.report.novelty_infinite else oc.report.novelty,
                "aggregate_diversity": oc.report.aggregate_diversity,
            }
            for oc in outcomes
        ],
        "n_items_with_history": len(history.as_dict()),
    }


_COMMANDS = {
    "ingest": _cmd_ingest,
    "profile": _cmd_profile,
    "recommend": _cmd_recommend,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_evaluate,
    "serve-rounds": _cmd_serve_rounds,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = _COMMANDS[args.command](args)
    except Exception as exc:  # surface a machine-readable error record
        record = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
