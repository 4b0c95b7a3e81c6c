"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.model == "dsr1-llama-8b"
        assert args.parallel == 1

    def test_plan_requires_budget(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.model == "dsr1-qwen-1.5b"
        assert args.seed == 0
        assert args.deadline == 40.0

    def test_run_pipeline_flags(self):
        args = build_parser().parse_args(
            ["run", "--all", "--jobs", "4", "--timing", "--smoke",
             "--cache-dir", "/tmp/cache"])
        assert args.all and args.artifact is None
        assert args.jobs == 4 and args.timing and args.smoke
        assert args.cache_dir == "/tmp/cache"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table9"])
        assert args.artifact == "table9"
        assert not args.all and args.jobs == 1
        assert not args.timing and args.timing_json is None
        assert not args.keep_going and args.retries == 0
        assert args.timeout is None and args.resume is None

    def test_run_supervision_flags(self):
        args = build_parser().parse_args(
            ["run", "--all", "--keep-going", "--retries", "2",
             "--timeout", "30"])
        assert args.keep_going and args.retries == 2
        assert args.timeout == 30.0

    def test_run_resume_flag(self):
        args = build_parser().parse_args(
            ["run", "--resume", "20260101-000000-abcd1234",
             "--cache-dir", "/tmp/cache"])
        assert args.resume == "20260101-000000-abcd1234"
        assert not args.all and args.artifact is None

    def test_chaos_pipeline_flags(self):
        args = build_parser().parse_args(
            ["chaos", "--pipeline", "--fail-rate", "0.5", "--retries", "4"])
        assert args.pipeline
        assert args.fail_rate == 0.5 and args.retries == 4


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table11" in out and "fig7" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "dsr1-llama-8b" in out
        assert "llmc-awq-w4" in out

    def test_simulate(self, capsys):
        code = main(["simulate", "--model", "dsr1-qwen-1.5b",
                     "--prompt", "100", "--output", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decode" in out and "energy" in out

    def test_simulate_parallel(self, capsys):
        assert main(["simulate", "--model", "dsr1-qwen-1.5b",
                     "--output", "64", "--parallel", "8"]) == 0
        assert "batch 8" in capsys.readouterr().out

    @pytest.mark.parametrize("policy, core", [
        ("prefix-affinity", "vector"), ("latency-aware", "scalar")])
    def test_fleet_prints_the_core_that_ran(self, capsys, policy, core):
        assert main(["fleet", "--policy", policy, "--requests", "12",
                     "--sessions", "3"]) == 0
        assert f"policy {policy} [{core}]" in capsys.readouterr().out

    def test_run_artifact(self, capsys):
        assert main(["run", "table9"]) == 0
        assert "Table IX" in capsys.readouterr().out

    def test_run_unknown_artifact(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_run_without_artifact_or_all_errors(self, capsys):
        assert main(["run"]) == 2
        assert "artifact id, --all, or --resume" in capsys.readouterr().err

    def test_run_all_timing_and_json(self, capsys, monkeypatch, tmp_path):
        # Shrink the registry so --all stays fast: three artifacts, two
        # sharing the tradeoff grid.
        import repro.experiments.runner as runner_mod
        from repro.pipeline.graph import DependencyGraph
        from repro.pipeline.registry import ARTIFACTS, PRODUCERS

        subset = ("fig6", "fig7", "table9")
        small = DependencyGraph(
            PRODUCERS, {k: ARTIFACTS[k] for k in subset})
        monkeypatch.setattr(runner_mod, "default_graph", lambda: small)

        timing_json = tmp_path / "timing.json"
        code = main(["run", "--all", "--jobs", "2", "--smoke", "--timing",
                     "--timing-json", str(timing_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "=== fig6 ===" in out and "=== table9 ===" in out
        assert "Table IX" in out
        assert "Pipeline timing" in out and "wall time" in out
        assert "tradeoff_grid" in out

        from repro.evaluation.export import read_timing_json
        records = read_timing_json(timing_json)
        kinds = {record["kind"] for record in records}
        assert kinds == {"artifact", "producer", "run"}

    def test_run_all_journal_then_resume_round_trip(self, tmp_path, capsys,
                                                    monkeypatch):
        import repro.experiments.runner as runner_mod
        from repro.pipeline.graph import DependencyGraph
        from repro.pipeline.registry import ARTIFACTS, PRODUCERS

        subset = ("fig6", "fig7")
        small = DependencyGraph(
            PRODUCERS, {k: ARTIFACTS[k] for k in subset})
        monkeypatch.setattr(runner_mod, "default_graph", lambda: small)

        assert main(["run", "--all", "--smoke",
                     "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "run id: " in captured.err and "--resume" in captured.err
        run_id = captured.err.split("run id: ")[1].split()[0]

        assert main(["run", "--resume", run_id,
                     "--cache-dir", str(tmp_path)]) == 0
        resumed = capsys.readouterr()
        assert f"resuming run {run_id}" in resumed.err
        assert "2 committed" in resumed.err
        # Byte-identical artifact sections on resume.
        assert resumed.out == captured.out

    def test_run_resume_unknown_id_lists_known_runs(self, tmp_path, capsys):
        assert main(["run", "--resume", "ghost",
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "ghost" in err and "known runs" in err

    def test_run_resume_without_cache_dir_errors(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["run", "--resume", "whatever"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_run_keep_going_quarantines_and_exits_nonzero(self, capsys,
                                                          monkeypatch):
        import repro.experiments.runner as runner_mod
        from repro.pipeline.graph import (
            ArtifactSpec,
            DependencyGraph,
        )
        from repro.pipeline.registry import ARTIFACTS, PRODUCERS

        def boom(seed):
            raise ValueError("rigged")

        artifacts = {"fig6": ARTIFACTS["fig6"],
                     "boom": ArtifactSpec("boom", boom)}
        broken = DependencyGraph(PRODUCERS, artifacts)
        monkeypatch.setattr(runner_mod, "default_graph", lambda: broken)

        assert main(["run", "--all", "--smoke", "--keep-going"]) == 1
        captured = capsys.readouterr()
        assert "1 artifact(s) quarantined" in captured.err
        assert "partial results: 1 of 2" in captured.err
        assert "=== fig6 ===" in captured.out  # the healthy one completed

    def test_run_fail_fast_exits_nonzero_naming_artifact(self, capsys,
                                                         monkeypatch):
        import repro.experiments.runner as runner_mod
        from repro.pipeline.graph import ArtifactSpec, DependencyGraph

        def boom(seed):
            raise ValueError("rigged")

        broken = DependencyGraph({}, {"boom": ArtifactSpec("boom", boom)})
        monkeypatch.setattr(runner_mod, "default_graph", lambda: broken)
        assert main(["run", "--all", "--smoke"]) == 1
        assert "'boom' failed" in capsys.readouterr().err

    def test_run_cache_dir_persists_across_invocations(self, tmp_path,
                                                       capsys):
        argv = ["run", "table7", "--smoke", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*.pkl"))
        # Second invocation hits the disk tier and reproduces the output.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_run_env_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "table9"]) == 0
        assert list(tmp_path.glob("*.pkl"))

    def test_reproduce_writes_artifacts(self, capsys, tmp_path):
        code = main(["reproduce", "--output", str(tmp_path),
                     "--only", "table9"])
        assert code == 0
        assert (tmp_path / "table9.txt").exists()
        assert "Table IX" in (tmp_path / "table9.txt").read_text()

    def test_reproduce_jobs_match_serial(self, capsys, tmp_path):
        names = ("fig6", "fig7", "table9")
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        assert main(["reproduce", "--output", str(serial_dir),
                     "--only", ",".join(names), "--smoke"]) == 0
        assert main(["reproduce", "--output", str(parallel_dir),
                     "--only", ",".join(names), "--jobs", "4",
                     "--smoke", "--timing"]) == 0
        for name in names:
            assert ((serial_dir / f"{name}.txt").read_text()
                    == (parallel_dir / f"{name}.txt").read_text())
        assert "Pipeline timing" in capsys.readouterr().out

    def test_reproduce_charts_mode(self, capsys, tmp_path):
        code = main(["reproduce", "--output", str(tmp_path),
                     "--only", "fig3b", "--charts"])
        assert code == 0
        text = (tmp_path / "fig3b.txt").read_text()
        assert "|" in text  # chart grid, not point listings

    def test_chaos(self, capsys):
        # Small stream keeps the chaos sweep fast; exit 0 certifies the
        # degradation-on run matched or beat the baseline hit rate.
        code = main(["chaos", "--requests", "12", "--qps", "3",
                     "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Resilience ablation" in out
        assert "degradation on" in out
        assert "hit rate" in out

    def test_failing_chaos_gate_names_every_failed_check(self, capsys,
                                                          monkeypatch):
        from repro.experiments import resilience

        monkeypatch.setattr(resilience, "serving_checks", lambda points: {
            "first clause": False, "second clause": True,
            "third clause": False})
        code = main(["chaos", "--requests", "12", "--qps", "3",
                     "--seed", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "chaos gate (serving): FAIL" in captured.err
        assert "first clause" in captured.err
        assert "third clause" in captured.err
        assert "second clause" not in captured.err
        assert "PASS" not in captured.out

    def test_perf_list_prints_catalog_without_running(self, capsys):
        code = main(["perf", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet_100k" in out
        assert "serving_span_speedup" in out
        assert "ratio" in out and "time" in out
        # Listing must not write any bench file.
        assert "benchmarks ->" not in out

    def test_perf_unknown_only_fails_fast_with_available_set(self, capsys):
        code = main(["perf", "--only", "no_such_workload"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no_such_workload" in err
        assert "fleet_100k" in err  # the available set is printed

    def test_perf_profile_prints_top_functions(self, capsys):
        code = main(["perf", "--profile", "5", "--only",
                     "serving_span_speedup", "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "ncalls" in out

    def test_perf_profile_requires_exactly_one_workload(self, capsys):
        assert main(["perf", "--profile", "5"]) == 2
        assert main(["perf", "--profile", "5", "--only",
                     "serving_span_speedup,fleet_fixed_qps"]) == 2
        assert main(["perf", "--profile", "0", "--only",
                     "serving_span_speedup"]) == 2
        err = capsys.readouterr().err
        assert "--profile" in err

    def test_characterize_writes_json(self, capsys, tmp_path):
        out = tmp_path / "models.json"
        code = main(["characterize", "--model", "dsr1-qwen-1.5b",
                     "--output", str(out)])
        assert code == 0
        assert out.exists()
        from repro.core.persistence import load_models
        assert load_models(out)["model"] == "dsr1-qwen-1.5b"
