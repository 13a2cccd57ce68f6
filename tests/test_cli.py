"""Experiment-runner tests: seed derivation, agent parsing, config
validation, output files, and cross-run/worker determinism."""

import json
import math
import random
import re

import numpy as np
import pytest

from evomcts.analysis import aggregate, run_report
from evomcts.bench import FunctionEnv
from evomcts.cli import (
    CANONICAL_C,
    AgentSpec,
    ExperimentConfig,
    _build_parser,
    _load_config,
    _parse_agents,
    derive_run_seed,
    main,
    run_experiment,
)
from evomcts.mcts import UctPolicy, run_search
from evomcts.siea import EvolutionConfig

SQRT2_LABEL = "uct_c1.41421"


class TestSeedDerivation:
    def test_frozen_values(self):
        # Pinned so the mixing recipe can never drift silently: any
        # change would break reproducibility of published runs.
        assert derive_run_seed(0, "f1", "uct_c0.5", 0) == 17349403414486550555
        assert derive_run_seed(0, "f1", "siea", 29) == 14403981847541093318

    def test_stable_across_calls(self):
        assert derive_run_seed(7, "f3", "siea", 4) == derive_run_seed(7, "f3", "siea", 4)

    def test_every_argument_matters(self):
        base = derive_run_seed(0, "f1", "uct_c1", 0)
        assert derive_run_seed(1, "f1", "uct_c1", 0) != base
        assert derive_run_seed(0, "f2", "uct_c1", 0) != base
        assert derive_run_seed(0, "f1", "uct_c2", 0) != base
        assert derive_run_seed(0, "f1", "uct_c1", 1) != base

    def test_fits_in_64_bits(self):
        for r in range(100):
            assert 0 <= derive_run_seed(0, "f1", "siea", r) < 2**64


class TestAgentSpec:
    def test_labels(self):
        assert AgentSpec("uct", 0.5).label == "uct_c0.5"
        assert AgentSpec("uct", math.sqrt(2.0)).label == SQRT2_LABEL
        assert AgentSpec("siea").label == "siea"

    def test_validation(self):
        with pytest.raises(ValueError):
            AgentSpec("uct")
        with pytest.raises(ValueError):
            AgentSpec("siea", 0.5)
        with pytest.raises(ValueError):
            AgentSpec("minimax", 1.0)


class TestParseAgents:
    def test_full_grid_string(self):
        agents = _parse_agents("uct:0.5,uct:1,uct:sqrt2,uct:2,uct:3,siea", False)
        assert [a.kind for a in agents] == ["uct"] * 5 + ["siea"]
        assert [a.c for a in agents[:5]] == list(CANONICAL_C)

    def test_decimal_sqrt2_accepted_within_tolerance(self):
        agents = _parse_agents("uct:1.4142", False)
        assert agents[0].c == pytest.approx(1.4142)

    def test_non_canonical_rejected_without_flag(self):
        with pytest.raises(ValueError):
            _parse_agents("uct:0.7", False)
        agents = _parse_agents("uct:0.7", True)
        assert agents[0].c == 0.7

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            _parse_agents("ucb:1", False)
        # An empty list is rejected by the config, where every entry
        # path meets it.
        with pytest.raises(ValueError, match="no agents given"):
            ExperimentConfig(agents=_parse_agents("", False))


class TestExperimentConfig:
    def test_default_post_iterations(self):
        cfg = ExperimentConfig()
        assert cfg.post_iterations == 5000 - 2400 == 2600

    def test_siea_needs_iterations_above_budget(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                agents=[AgentSpec("siea")],
                iterations=2400,
            )
        # Fine without a siea agent.
        ExperimentConfig(agents=[AgentSpec("uct", 1.0)], iterations=100)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(functions=["f7"])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="no functions given"):
            ExperimentConfig(functions=[])
        with pytest.raises(ValueError, match="no agents given"):
            ExperimentConfig(agents=[])

    def test_duplicate_function_rejected(self):
        with pytest.raises(ValueError, match="'f1' is listed more than once"):
            ExperimentConfig(functions=["f1", "f2", "f1"])

    def test_colliding_agent_labels_rejected(self):
        # Both constants print as "uct_c0.5" under {c:g}, so they would
        # derive the same seeds and write the same files.
        with pytest.raises(ValueError, match="share the label 'uct_c0.5'"):
            ExperimentConfig(agents=[AgentSpec("uct", 0.5), AgentSpec("uct", 0.5000001)])
        with pytest.raises(ValueError, match="share the label 'siea'"):
            ExperimentConfig(agents=[AgentSpec("siea"), AgentSpec("siea")])

    def test_basic_bounds(self):
        for kwargs in (
            {"iterations": 0},
            {"runs": 0},
            {"bins": 0},
            {"workers": 0},
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(agents=[AgentSpec("uct", 1.0)], **kwargs)


def _uct_cfg(out_dir, **kwargs):
    defaults = dict(
        functions=["f1"],
        agents=[AgentSpec("uct", math.sqrt(2.0))],
        iterations=300,
        runs=1,
        bins=100,
        out_dir=out_dir,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_single_run_outputs(self, tmp_path):
        reports = run_experiment(_uct_cfg(tmp_path))
        cid = f"f1_{SQRT2_LABEL}"
        assert set(reports) == {cid}
        csv_path = tmp_path / f"{cid}.csv"
        rows = csv_path.read_text().splitlines()
        assert len(rows) == 1 + 3 * 100
        assert (tmp_path / f"{cid}.json").exists()
        assert (tmp_path / f"{cid}.dat").exists()
        log_path = tmp_path / "logs" / f"{cid}_run000.jsonl"
        lines = [json.loads(ln) for ln in log_path.read_text().splitlines()]
        kinds = [ln["type"] for ln in lines]
        assert kinds == ["run", "expansions", "summary"]
        assert lines[0]["seed"] == derive_run_seed(0, "f1", SQRT2_LABEL, 0)
        assert lines[2]["reward_draws"] == 300
        assert lines[2]["root_visits"] == 300
        # Every iteration expands this early, so counts conserve fully.
        assert reports[cid].tertile_counts.sum() == pytest.approx(300.0)

    def test_rerun_is_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run_experiment(_uct_cfg(d))
        cid = f"f1_{SQRT2_LABEL}"
        for name in (f"{cid}.csv", f"{cid}.json", f"{cid}.dat", f"logs/{cid}_run000.jsonl"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_aggregate_matches_manual_runs(self, tmp_path):
        cfg = _uct_cfg(tmp_path, runs=2)
        reports = run_experiment(cfg)
        cid = f"f1_{SQRT2_LABEL}"
        manual = []
        for r in range(2):
            rng = random.Random(derive_run_seed(0, "f1", SQRT2_LABEL, r))
            env = FunctionEnv("f1")
            _, log = run_search(env, UctPolicy(math.sqrt(2.0)), 300, rng)
            manual.append(run_report(log, 300, 100, cid))
        want = aggregate(manual)
        assert np.array_equal(reports[cid].tertile_counts, want.tertile_counts)
        assert reports[cid].runs == 2

    def test_siea_run_logs_generations(self, tmp_path):
        ea = EvolutionConfig(generations=2, lambda_=2, sims_per_eval=3)
        cfg = ExperimentConfig(
            functions=["f1"],
            agents=[AgentSpec("siea")],
            iterations=50,
            runs=1,
            bins=20,
            out_dir=tmp_path,
            ea=ea,
        )
        assert cfg.post_iterations == 50 - 12
        reports = run_experiment(cfg)
        lines = [
            json.loads(ln)
            for ln in (tmp_path / "logs" / "f1_siea_run000.jsonl").read_text().splitlines()
        ]
        kinds = [ln["type"] for ln in lines]
        assert kinds == ["run", "generation", "generation", "evolved", "expansions", "summary"]
        evolved = lines[3]
        assert evolved["expr"].startswith("(") or evolved["expr"] in ("Q", "Np", "Nc")
        assert lines[-1]["reward_draws"] == 50
        assert reports["f1_siea"].tertile_counts.sum() <= 38

    def test_worker_count_does_not_change_results(self, tmp_path):
        dirs = [tmp_path / "serial", tmp_path / "pool"]
        run_experiment(_uct_cfg(dirs[0], runs=2, iterations=150))
        run_experiment(_uct_cfg(dirs[1], runs=2, iterations=150, workers=2))
        cid = f"f1_{SQRT2_LABEL}"
        for name in (
            f"{cid}.csv",
            f"{cid}.json",
            f"{cid}.dat",
            f"logs/{cid}_run000.jsonl",
            f"logs/{cid}_run001.jsonl",
        ):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_parallel_run_prints_progress(self, tmp_path, capsys):
        run_experiment(_uct_cfg(tmp_path, runs=3, iterations=50, workers=2))
        progress = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("[")]
        assert [ln.split(" (")[0] for ln in progress] == [
            f"[{k + 1}/3] f1_{SQRT2_LABEL} run {k}" for k in range(3)
        ]

    def test_visit_weighted_export(self, tmp_path):
        cfg = _uct_cfg(tmp_path, visit_weighted=True, bins=50)
        run_experiment(cfg)
        payload = json.loads((tmp_path / f"f1_{SQRT2_LABEL}.json").read_text())
        assert len(payload["visit_weighted_mean"]) == 50
        assert sum(payload["visit_weighted_mean"]) > 0


class TestMain:
    def test_success_exit_code(self, tmp_path):
        code = main(
            [
                "--functions",
                "f1",
                "--agents",
                "uct:1",
                "--iterations",
                "120",
                "--runs",
                "1",
                "--bins",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "f1_uct_c1.csv").exists()

    def test_bad_agent_exits_2(self, tmp_path, capsys):
        code = main(["--agents", "uct:0.7", "--out", str(tmp_path)])
        assert code == 2
        assert "allow-any-c" in capsys.readouterr().err

    def test_duplicate_function_exits_2(self, tmp_path, capsys):
        argv = ["--functions", "f1,f1", "--agents", "uct:1", "--runs", "1", "--iterations", "20"]
        code = main([*argv, "--out", str(tmp_path)])
        assert code == 2
        assert "'f1' is listed more than once" in capsys.readouterr().err

    def test_colliding_agent_labels_exit_2(self, tmp_path, capsys):
        argv = ["--allow-any-c", "--agents", "uct:0.5,uct:0.5000001", "--functions", "f1"]
        code = main([*argv, "--runs", "1", "--iterations", "20", "--out", str(tmp_path)])
        assert code == 2
        assert "uct_c0.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["--functions", ","], {}, "no functions given"),
            ([], {"functions": []}, "no functions given"),
            (["--agents", ","], {}, "no agents given"),
            ([], {"agents": []}, "no agents given"),
        ],
        ids=["functions-flag", "functions-config", "agents-flag", "agents-config"],
    )
    def test_empty_grid_exits_2(self, tmp_path, capsys, argv, config, message):
        # An empty grid used to print "done: 0 runs, 0 configs" and exit 0.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"runs": 1, "iterations": 20, **config}))
        code = main(["--config", str(cfg_path), *argv, "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_quotes_the_dataclass_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        # The option list follows the usage line, so the last mention of
        # a flag starts its help text.
        helps = {}
        for segment in re.split(r" (?=--[a-z])", text):
            helps[segment.split()[0]] = segment
        exp, ea = ExperimentConfig, EvolutionConfig
        for flag, default in (
            ("--iterations", exp.iterations),
            ("--runs", exp.runs),
            ("--bins", exp.bins),
            ("--seed", exp.base_seed),
            ("--ea-generations", ea.generations),
            ("--ea-lambda", ea.lambda_),
            ("--ea-sims", ea.sims_per_eval),
            ("--ea-alpha", ea.alpha),
            ("--ea-beta", ea.beta),
            ("--out", exp.out_dir),
            ("--workers", exp.workers),
        ):
            assert helps[flag].endswith(f"(default {default})"), helps[flag]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iteration": 10}))
        argv = ["--functions", "f1", "--agents", "uct:1", "--runs", "1"]
        code = main(["--config", str(cfg_path), *argv, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown key(s) iteration" in err
        assert "accepted keys: functions, agents, iterations," in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("iterations", "10"),
            ("runs", True),
            ("seed", 1.5),
            ("ea_alpha", "5"),
            ("ea_beta", False),
            ("allow_any_c", "false"),
            ("visit_weighted", 1),
            ("functions", ["f1", 2]),
            ("agents", {"uct": 1}),
            ("out", 3),
        ],
    )
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, key, value):
        # "10" used to end in a TypeError traceback and "false" was read
        # as true through bool().
        config = {"functions": "f1", "agents": "uct:1", "runs": 1, "iterations": 20}
        config[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{key} in {cfg_path} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_defaults_come_from_the_dataclasses(self):
        assert _load_config(_build_parser().parse_args([])) == ExperimentConfig()

    def test_config_file_flags_and_numbers(self, tmp_path):
        config = {"allow_any_c": True, "agents": ["uct:0.7"], "ea_alpha": 1, "visit_weighted": True}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        cfg = _load_config(_build_parser().parse_args(["--config", str(cfg_path)]))
        assert cfg.agents == [AgentSpec("uct", 0.7)]
        assert cfg.ea == EvolutionConfig(alpha=1)
        assert cfg.visit_weighted

    def test_missing_config_file_exits_2(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        config = {
            "functions": "f2",
            "agents": "uct:2",
            "iterations": 150,
            "runs": 1,
            "bins": 10,
            "out": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["--config", str(cfg_path), "--functions", "f1"])
        assert code == 0
        assert (tmp_path / "out" / "f1_uct_c2.csv").exists()
        assert not (tmp_path / "out" / "f2_uct_c2.csv").exists()
