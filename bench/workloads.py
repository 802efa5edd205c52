"""The benchmark's workloads, as plain data read by both the runner and the
measured process."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

K = 10
DESK_WEIGHTS = (0.22, 0.36, 0.21, 0.21)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str  # input shape, a key of gen_inputs.SHAPES
    universe: str  # candidate universe: "test" or "catalog"
    users: int  # seeded subsample of eligible users
    methods: tuple[str, ...]  # one-shot methods, each one run_experiment call
    serve_rounds: int = 0  # then serve `proposed` this many rounds, if > 0
    injection_scope: str = "long-tail"
    weights: Optional[tuple[float, ...]] = None  # None: the library default
    generations: Optional[int] = None
    top_pool: Optional[int] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-compare",
            why="The paper's four-method comparison on desk-shaped files; GA operators "
            "and objective evaluation on 15-30 item pools dominate, and only here item-CF runs.",
            shape="desk",
            universe="test",
            users=30,
            methods=("user-cf", "item-cf", "proposed", "plain-genetic"),
            weights=DESK_WEIGHTS,
            generations=40,
            top_pool=15,
        ),
        Workload(
            name="desk-serve",
            why="Five serving rounds over the catalog: the optimizer on ~100-item injected "
            "pools, user-CF over ~1100 items per user, history carried between rounds.",
            shape="desk",
            universe="catalog",
            users=14,
            methods=("user-cf",),
            serve_rounds=5,
            injection_scope="catalog",
            weights=DESK_WEIGHTS,
            generations=40,
            top_pool=1,
        ),
        Workload(
            name="ml1m-recommend",
            why="MovieLens-1M-shaped files with the recommend defaults; parsing, the rating "
            "matrix, 6040-row similarity products and universe building dominate.",
            shape="ml1m",
            universe="catalog",
            users=48,
            methods=("user-cf", "proposed"),
        ),
    )
}
