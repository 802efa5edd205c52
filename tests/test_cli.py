"""Command-line interface: every subcommand, JSON payloads, and error records."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from longtailrec.cli import main
from longtailrec.harness import ExperimentConfig, prepare_experiment
from longtailrec.synth import SynthConfig

SYNTH_ARGS = ["--synth-users", "60", "--synth-items", "300", "--seed", "11"]
FAST_OPT = ["--population", "20", "--generations", "5", "--k", "5"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eligible_user() -> int:
    config = ExperimentConfig(
        synth=SynthConfig(n_users=60, n_items=300, seed=11),
        seed=11,
        k=5,
        candidate_universe="catalog",
    )
    prepared = prepare_experiment(config)
    return prepared.eligible_users[0]


class TestSubcommands:
    def test_ingest_summary(self, capsys):
        code, out, _ = run_cli(capsys, "ingest", *SYNTH_ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["n_users"] == 60
        assert payload["n_items"] == 300
        assert payload["n_ratings"] == payload["n_train"] + payload["n_test"]
        assert payload["n_short_head"] + payload["n_long_tail"] == 300
        assert payload["n_eligible_users"] > 0

    def test_profile_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "profile", *SYNTH_ARGS, "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        for name in ("age_genre_profile", "dynamics_by_age", "lt_sh_over_time"):
            assert name in payload
            assert (tmp_path / f"{name}.csv").exists()

    def test_profile_requires_out(self, capsys):
        code, out, err = run_cli(capsys, "profile", *SYNTH_ARGS)
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "--out" in record["message"]
        assert record["command"] == "profile"
        assert out == ""

    def test_recommend_single_user(self, capsys):
        user = eligible_user()
        code, out, _ = run_cli(
            capsys, "recommend", *SYNTH_ARGS, *FAST_OPT, "--user", str(user)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["user_id"] == user
        assert len(payload["items"]) == 5
        assert len(set(payload["items"])) == 5
        assert payload["age_group"] in (1, 18, 25, 35, 45, 50, 56)
        assert 0 <= payload["target_long_tail"] <= 5
        assert set(payload["objectives"]) == {
            "long_tail_participation",
            "accuracy_obj",
            "dynamic_quota",
            "genre_distance",
        }

    def test_recommend_unknown_user_is_machine_readable_error(self, capsys):
        code, out, err = run_cli(
            capsys, "recommend", *SYNTH_ARGS, *FAST_OPT, "--user", "99999"
        )
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "not eligible" in record["message"]

    def test_evaluate_single_method(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "evaluate",
            *SYNTH_ARGS,
            *FAST_OPT,
            "--methods",
            "user-cf",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload["reports"]) == ["user-cf"]
        assert "proposed_vs" not in payload
        report = payload["reports"]["user-cf"]
        assert 0.0 <= report["precision"] <= 1.0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "config.json").exists()

    def test_compare_emits_deltas(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare",
            *SYNTH_ARGS,
            *FAST_OPT,
            "--methods",
            "proposed",
            "user-cf",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["reports"]) == {"proposed", "user-cf"}
        assert "per_user" not in payload["reports"]["proposed"]
        assert "user-cf" in payload["proposed_vs"]
        delta = payload["proposed_vs"]["user-cf"]
        assert "precision_delta" in delta
        assert "aggregate_diversity_ratio" in delta

    def test_serve_rounds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "serve-rounds",
            *SYNTH_ARGS,
            *FAST_OPT,
            "--rounds",
            "2",
            "--subsample",
            "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["round"] for r in payload["rounds"]] == [1, 2]
        assert payload["n_items_with_history"] > 0

    def test_custom_weights_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evaluate",
            *SYNTH_ARGS,
            *FAST_OPT,
            "--methods",
            "user-cf",
            "--weights",
            "2",
            "1",
            "1",
            "0",
        )
        assert code == 0
        json.loads(out)

    def test_injection_scope_defaults_per_subcommand(self):
        from longtailrec.cli import _config_from_args, build_parser

        parser = build_parser()
        serve_args = parser.parse_args(["serve-rounds", *SYNTH_ARGS])
        assert (
            _config_from_args(
                serve_args, default_universe="catalog", default_injection_scope="catalog"
            ).injection_scope
            == "catalog"
        )
        eval_args = parser.parse_args(["evaluate", *SYNTH_ARGS])
        assert (
            _config_from_args(eval_args, default_universe="test").injection_scope
            == "long-tail"
        )
        override = parser.parse_args(
            ["serve-rounds", *SYNTH_ARGS, "--injection-scope", "long-tail"]
        )
        assert (
            _config_from_args(
                override, default_universe="catalog", default_injection_scope="catalog"
            ).injection_scope
            == "long-tail"
        )


class TestDeterminismAndErrors:
    def test_evaluate_is_deterministic(self, capsys):
        argv = ["evaluate", *SYNTH_ARGS, *FAST_OPT, "--methods", "proposed", "--subsample", "8"]
        _, out_a, _ = run_cli(capsys, *argv)
        _, out_b, _ = run_cli(capsys, *argv)
        assert out_a == out_b

    def test_missing_dataset_file_reports_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--ratings",
            str(tmp_path / "nope.dat"),
            "--users",
            str(tmp_path / "nope2.dat"),
            "--movies",
            str(tmp_path / "nope3.dat"),
        )
        assert code == 1
        record = json.loads(err)
        assert record["command"] == "ingest"
        assert record["error"] in ("FileNotFoundError", "ParseError")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "longtailrec.cli", "ingest", *SYNTH_ARGS],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["n_users"] == 60
