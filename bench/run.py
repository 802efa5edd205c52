"""Benchmark entry point: one workload, one seed, one measured process.

    python3 bench/run.py --workload desk-compare --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The command generates the seeded
input files (cached under ``bench/.work/``) in a process of their own, runs
the workload in a fresh process that imports ``longtailrec`` from ``src/``,
checks every list and reported metric against the benchmark's own reading of
the input files, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it records the run environment and the figures that only some
workloads have.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
CACHED_INPUTS = 6  # input sets kept per shape; the oldest go first
RUN_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
import reference  # noqa: E402
from workloads import K, WORKLOADS, Workload  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    # The program asks git for its revision; keep that search inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def inputs_for(shape: str, seed: int) -> Path:
    """The input files for (shape, seed), generated once in a separate process."""
    out = WORK / "inputs" / f"{shape}-seed{seed}"
    if not (out / "ratings.dat").is_file():
        out.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(BENCH / "gen_inputs.py"), "--shape", shape,
             "--seed", str(seed), "--out", str(out)],
            env=_env(), check=True, timeout=RUN_TIMEOUT_S,
        )
    os.utime(out)
    cached = sorted(out.parent.glob(f"{shape}-seed*"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHED_INPUTS]:
        shutil.rmtree(old, ignore_errors=True)
    return out


def run_measured(workload: Workload, inputs: Path, seed: int, seconds: int, trace: int) -> dict:
    out = WORK / f"result-{os.getpid()}.json"
    cmd = [sys.executable, str(BENCH / "measure.py"), "--workload", workload.name,
           "--inputs", str(inputs), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    try:
        subprocess.run(cmd + ["--t0", repr(time.time())], env=_env(), check=True,
                       timeout=RUN_TIMEOUT_S, stdout=sys.stderr)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=_env(), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def evaluate(workload: Workload, inputs: Path, result: dict) -> dict:
    """Check every list and report; count the lists attempted and failed."""
    ref = reference.load(inputs, workload.universe, K)
    users = {int(u) for u in result["eligible"]}
    faults: list[str] = []
    own = ref.eligible()
    if not users <= own or len(users) != min(workload.users, len(own)):
        faults.append(f"{len(users)} users served, {len(users - own)} of them not eligible")
    attempted = failed = 0
    first: dict[str, list[dict]] = {}
    for rep in result["reps"]:
        for op in rep["ops"]:
            served = op["name"] == "proposed" and workload.serve_rounds
            n_lists = len(users) * (workload.serve_rounds if served else 1)
            attempted += n_lists
            fault = op.get("error") or operation_fault(ref, users, op)
            if fault is None and op["name"] in first and op["rounds"] != first[op["name"]]:
                fault = "lists differ from the first repetition"
            first.setdefault(op["name"], op.get("rounds"))
            if fault:
                faults.append(f"{op['name']}: {fault}")
                failed += n_lists
    # Comparisons between operations, on the first repetition's results. On
    # the test universe every method's lists come from the same few held-out
    # items per user, so aggregate diversity is compared on the catalog only.
    proposed, baseline = first.get("proposed"), first.get("user-cf")
    if proposed and baseline:
        p, b = proposed[-1]["report"], baseline[0]["report"]
        compared = ("novelty", "aggregate_diversity") if workload.universe == "catalog" else ("novelty",)
        for name in compared:
            if not p[name] > b[name]:
                faults.append(f"proposed {name} {p[name]} does not exceed user-cf's {b[name]}")
                failed += len(users) * len(proposed)
    for fault in faults:
        print(f"check failed: {fault}", file=sys.stderr)
    return {"attempted": attempted, "failed": min(failed, attempted), "first": first,
            "users": len(users)}


def _lists(rnd: dict) -> dict[int, list[int]]:
    return {int(u): items for u, items in rnd["lists"].items()}


def operation_fault(ref: reference.Reference, users: set[int], op: dict) -> str | None:
    for rnd in op["rounds"]:
        lists = _lists(rnd)
        if set(lists) != users:
            return "lists do not cover exactly the served users"
        for user, items in lists.items():
            fault = reference.list_fault(ref, user, items)
            if fault:
                return fault
        fault = reference.quality_fault(ref, lists, rnd["report"])
        if fault:
            return fault
    if "history" in op:
        history = {int(i): c for i, c in op["history"].items()}
        return reference.history_fault([_lists(rnd) for rnd in op["rounds"]], history, ref.k)
    return None


def end_to_end(workload: Workload, result: dict, checked: dict) -> tuple[dict, dict]:
    """(gated metrics, info-only figures) from the repetitions' timings."""
    users = checked["users"]
    reps = result["reps"]

    def rate(op: str, per_user: int = 1) -> float | None:
        times = [r["seconds"][op] for r in reps if op in r["seconds"]]
        return users * per_user / median(times) if times else None

    first = checked["first"]
    proposed = first["proposed"][-1]["report"]
    metrics = {
        "setup_s": (result["setup_s"], "s"),
        "wall_s": (result["setup_s"] + median(r["wall"] for r in reps), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "proposed.users_per_s": (rate("proposed", max(1, workload.serve_rounds)), "users/s"),
        "user-cf.users_per_s": (rate("user-cf"), "users/s"),
        "proposed.aggregate_diversity": (proposed["aggregate_diversity"], "items"),
        "proposed.novelty": (proposed["novelty"], "1/ratings"),
    }
    info = {"proposed.precision": proposed["precision"], "repetitions": len(reps), "users": users}
    for method in ("item-cf", "plain-genetic"):
        if method in first:
            info[f"{method}.users_per_s"] = rate(method)
    for method, rounds in first.items():
        for i, rnd in enumerate(rounds, start=1):
            tag = f"{method}.round{i}" if len(rounds) > 1 else method
            info[tag] = rnd["report"]
    if workload.serve_rounds:
        info["proposed.items_served"] = len(
            {i for rnd in first["proposed"] for items in rnd["lists"].values() for i in items}
        )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "longtailrec" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'longtailrec'} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = inputs_for(workload.shape, args.seed)
    result = run_measured(workload, inputs, args.seed, args.seconds, args.trace)
    checked = evaluate(workload, inputs, result)
    if "proposed" not in checked["first"] or checked["first"]["proposed"] is None:
        print("the proposed method produced no lists", file=sys.stderr)
        return 1
    metrics, info = end_to_end(workload, result, checked)
    if args.trace:
        # The traced run's end-to-end figures, for the tracing overhead.
        info["end_to_end"] = {k: v["value"] for k, v in metrics.items()}
        info.update({k: v["value"] for k, v in result["layers_info"].items()})
        metrics = result["layers"]
    info["environment"] = {
        "git_revision": git_revision(), "nproc": os.cpu_count(),
        "platform": platform.platform(), **result["versions"],
    }
    print(json.dumps({"workload": workload.name, "seed": args.seed, "info": info}))
    print(json.dumps({
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
