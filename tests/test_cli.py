"""Experiment-runner tests: seed derivation, agent parsing, config
validation, output files, and cross-run/worker determinism."""

import concurrent.futures
import dataclasses
import gc
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from evomcts import cli, mcts
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

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_c_rejected(self, c):
        with pytest.raises(ValueError, match="must be finite"):
            AgentSpec("uct", c)

    @pytest.mark.parametrize("c", [1e300, -1.2e299, 1.7e308])
    def test_c_the_formula_would_saturate_rejected(self, c):
        # UCB1 runs as the formula uct_seed(c), whose scores would reach
        # the +-1e300 saturation and part from the closed form.
        with pytest.raises(ValueError, match="saturation"):
            AgentSpec("uct", c)

    def test_c_is_stored_as_a_float(self, tmp_path):
        # An integer c is its float: same label, log and export bytes.
        trees = [tmp_path / "int", tmp_path / "float"]
        for out, c in zip(trees, (1, 1.0)):
            run_experiment(_uct_cfg(out, agents=[AgentSpec("uct", c)], iterations=20))
        files = [sorted(p.relative_to(out) for p in out.rglob("*.*")) for out in trees]
        assert files[0] == files[1] and len(files[0]) == 4
        for name in files[0]:
            assert (trees[0] / name).read_bytes() == (trees[1] / name).read_bytes(), name
        for c in (True, False):
            with pytest.raises(ValueError, match="must be a number"):
                AgentSpec("uct", c)


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

    def test_same_agent_object_twice_rejected(self):
        # One AgentSpec listed twice has one label: its second runs would
        # reuse the first runs' seeds and overwrite their logs.
        a = AgentSpec("uct", 1.0)
        with pytest.raises(ValueError, match="share the label 'uct_c1'"):
            ExperimentConfig(agents=[a, a])

    def test_basic_bounds(self):
        for kwargs in (
            {"iterations": 0},
            {"runs": 0},
            {"bins": 0},
            {"workers": 0},
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(agents=[AgentSpec("uct", 1.0)], **kwargs)

    @pytest.mark.parametrize("field", ["iterations", "runs", "bins", "workers", "base_seed"])
    @pytest.mark.parametrize("value", [2.5, 1.0, True])
    def test_counts_must_be_integers(self, tmp_path, field, value):
        # bins=2.5 ran every search of the first configuration and wrote
        # its logs before export raised TypeError; base_seed=1.0 gave
        # every run another seed than base_seed=1; runs=True ran once.
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            run_experiment(_uct_cfg(out, **{field: value}))
        assert not out.exists()


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
        assert np.sum(reports[cid].tertile_counts) == pytest.approx(300.0)

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
        assert np.sum(reports["f1_siea"].tertile_counts) <= 38

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_configuration_is_exported_after_its_last_run(
        self, tmp_path, monkeypatch, workers
    ):
        logs_seen = []
        write_csv = cli.write_csv

        def recording_write_csv(*args, **kwargs):
            logs_seen.append(len(list((tmp_path / "logs").glob("*.jsonl"))))
            return write_csv(*args, **kwargs)

        monkeypatch.setattr(cli, "write_csv", recording_write_csv)
        agents = [AgentSpec("uct", 0.5), AgentSpec("uct", 1.0)]
        cfg = _uct_cfg(
            tmp_path, functions=["f1", "f2"], agents=agents, runs=2, iterations=40, workers=workers
        )
        run_experiment(cfg)
        assert logs_seen == [2, 4, 6, 8]

    def test_failed_run_keeps_the_finished_configurations(self, tmp_path, monkeypatch):
        execute_run = cli._execute_run

        def failing_run(header):
            if header["config_id"] == "f2_uct_c0.5":
                raise RuntimeError("run failed")
            return execute_run(header)

        monkeypatch.setattr(cli, "_execute_run", failing_run)
        agents = [AgentSpec("uct", 0.5), AgentSpec("uct", 1.0)]
        cfg = _uct_cfg(tmp_path, functions=["f1", "f2"], agents=agents, runs=2, iterations=40)
        with pytest.raises(RuntimeError, match="run failed"):
            run_experiment(cfg)
        exports = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
        finished = [f"f1_uct_c{c}.{ext}" for c in ("0.5", "1") for ext in ("csv", "dat", "json")]
        assert exports == finished
        assert len(list((tmp_path / "logs").iterdir())) == 4

    @pytest.mark.parametrize(
        "workers, runs, started",
        [(64, 1, []), (64, 3, [3]), (2, 3, [2]), (1, 3, [])],
    )
    def test_pool_is_sized_by_the_work(self, tmp_path, monkeypatch, workers, runs, started):
        # The pool forks all its workers up front, so --workers 64 on a
        # one-run grid used to fork 64 idle processes.
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        run_experiment(_uct_cfg(tmp_path, runs=runs, iterations=20, workers=workers))
        assert pools == started
        assert len(list((tmp_path / "logs").iterdir())) == runs

    def test_failing_write_cancels_the_queued_runs(self, tmp_path, monkeypatch):
        # The pool's exit waits for every queued run: without a cancel, an
        # error in the main process would surface only after all had run.
        calls = []

        class RecordingPool:
            def __init__(self, max_workers):
                calls.append(("start", max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                calls.append(("exit", exc[0]))
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self, wait=True, *, cancel_futures=False):
                calls.append(("shutdown", wait, cancel_futures))

        def failing_write_csv(*args):
            raise OSError("disk full")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "write_csv", failing_write_csv)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(_uct_cfg(tmp_path, runs=3, iterations=20, workers=2))
        assert calls == [("start", 2), ("shutdown", False, True), ("exit", OSError)]

    def test_runs_share_one_policy_per_constant(self, tmp_path, monkeypatch):
        # Building a UCB1 policy compiles its descent, which made short
        # runs markedly slower when every run built its own.
        compiled = []
        compile_chooser = mcts.compile_chooser

        def counting_compile(*args):
            compiled.append(args)
            return compile_chooser(*args)

        monkeypatch.setattr(mcts, "compile_chooser", counting_compile)
        cli._uct_policy.cache_clear()
        agents = [AgentSpec("uct", 0.5), AgentSpec("uct", 1.0)]
        cfg = _uct_cfg(tmp_path, functions=["f1", "f2"], agents=agents, runs=3, iterations=20)
        run_experiment(cfg)
        assert len(compiled) == 2

    def test_visit_weighted_export(self, tmp_path):
        for runs in (1, 3):
            out = tmp_path / f"runs{runs}"
            run_experiment(_uct_cfg(out, visit_weighted=True, bins=50, runs=runs))
            payload = json.loads((out / f"f1_{SQRT2_LABEL}.json").read_text())
            assert len(payload["visit_weighted_mean"]) == 50
            assert sum(payload["visit_weighted_mean"]) > 0
            # The exact mean of the runs' counts, each run replayed from its header.
            rows = []
            for path in sorted((out / "logs").iterdir()):
                header = json.loads(path.read_text().splitlines()[0])
                assert header["visit_bins"] == 50
                rows.append(cli._execute_run(header)[1])
            assert len(rows) == runs
            exact = [float(Fraction(sum(column), runs)) for column in zip(*rows)]
            assert payload["visit_weighted_mean"] == exact, runs

    def test_log_header_replays_the_run(self, tmp_path):
        # The header is the whole task the worker ran: executing it again,
        # with nothing beside it, must give back the run's log byte for
        # byte and the visit counts the export averaged.
        ea = EvolutionConfig(generations=2, lambda_=2, sims_per_eval=3, alpha=0.1, beta=0.9)
        argv = ["--functions", "f1,f4", "--agents", "uct:1,siea", "--runs", "2"]
        argv += ["--iterations", "60", "--bins", "10", "--ea-generations", "2"]
        argv += ["--ea-lambda", "2", "--ea-sims", "3", "--ea-alpha", "0.1", "--ea-beta", "0.9"]
        for visit_weighted in (False, True):
            out = tmp_path / f"visit_weighted_{visit_weighted}"
            flags = ["--visit-weighted"] if visit_weighted else []
            assert main([*argv, *flags, "--out", str(out)]) == 0
            logs = sorted((out / "logs").iterdir())
            assert len(logs) == 8
            rows: dict = {}
            for path in logs:
                text = path.read_text()
                header = json.loads(text.splitlines()[0])
                siea = header["kind"] == "siea"
                assert header["ea"] == (dataclasses.asdict(ea) if siea else None)
                assert header["visit_bins"] == (10 if visit_weighted else None)
                records, visit_counts = cli._execute_run(header)
                assert "".join(json.dumps(r, sort_keys=True) + "\n" for r in records) == text
                assert (visit_counts is not None) == visit_weighted
                rows.setdefault(header["config_id"], []).append(visit_counts)
            for cid, counts in rows.items():
                payload = json.loads((out / f"{cid}.json").read_text())
                if visit_weighted:
                    exact = [float(Fraction(sum(column), len(counts))) for column in zip(*counts)]
                    assert payload["visit_weighted_mean"] == exact, cid
                else:
                    assert "visit_weighted_mean" not in payload

    def test_alpha_and_beta_log_alike_from_a_file_and_from_flags(self, tmp_path):
        # A JSON 5 used to reach the header as 5 where --ea-alpha 5 gave 5.0.
        argv = ["--functions", "f1", "--agents", "siea", "--runs", "1", "--iterations", "40"]
        argv += ["--ea-generations", "2", "--ea-lambda", "2", "--ea-sims", "3"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ea_alpha": 5, "ea_beta": 10}))
        from_file, from_flags = tmp_path / "file", tmp_path / "flags"
        assert main([*argv, "--config", str(cfg_path), "--out", str(from_file)]) == 0
        assert main([*argv, "--ea-alpha", "5", "--ea-beta", "10", "--out", str(from_flags)]) == 0
        log = "logs/f1_siea_run000.jsonl"
        text = (from_file / log).read_bytes()
        assert text == (from_flags / log).read_bytes()
        assert b'"alpha": 5.0, "beta": 10.0' in text


class TestCollectorPause:
    """A worker's run pauses the cyclic collector and leaves it as it found it."""

    @pytest.fixture
    def header(self, tmp_path):
        argv = ["--functions", "f1", "--agents", "uct:1", "--runs", "1", "--iterations", "20"]
        assert main([*argv, "--bins", "10", "--out", str(tmp_path)]) == 0
        (log,) = (tmp_path / "logs").iterdir()
        return json.loads(log.read_text().splitlines()[0])

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        yield
        gc.enable()

    def test_collector_off_during_the_run_and_on_after(self, header, monkeypatch):
        seen = []

        def spy(*args):
            seen.append(gc.isenabled())
            return run_search(*args)

        monkeypatch.setattr(cli, "run_search", spy)
        assert gc.isenabled()
        cli._execute_run(header)
        assert seen == [False]
        assert gc.isenabled()

    def test_collector_back_on_after_a_run_raises(self, header, monkeypatch):
        def failing(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_search", failing)
        with pytest.raises(RuntimeError, match="boom"):
            cli._execute_run(header)
        assert gc.isenabled()

    def test_collector_stays_off_when_the_caller_turned_it_off(self, header, monkeypatch):
        gc.disable()
        cli._execute_run(header)
        assert not gc.isenabled()
        monkeypatch.setattr(cli, "run_search", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cli._execute_run(header)
        assert not gc.isenabled()


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

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_finite_c_exits_2(self, tmp_path, capsys, c, via):
        # uct:nan used to fail mid-grid ("scored no child above -inf") and
        # uct:inf to finish with every score inf or NaN, so that every
        # selection was a random tie break.
        argv = ["--functions", "f1", "--runs", "1", "--iterations", "20"]
        if via == "flag":
            argv += ["--allow-any-c", "--agents", f"uct:{c}"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"allow_any_c": True, "agents": [f"uct:{c}"]}))
            argv += ["--config", str(cfg_path)]
        code = main([*argv, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_saturating_c_exits_2_and_writes_nothing(self, tmp_path, capsys):
        argv = ["--functions", "f1", "--runs", "1", "--iterations", "20"]
        argv += ["--allow-any-c", "--agents", "uct:1e300", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "saturation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_finite_ea_bounds_exit_2(self, tmp_path, capsys, via):
        argv = ["--functions", "f1", "--agents", "siea", "--runs", "1"]
        if via == "flag":
            argv += ["--ea-alpha=-inf", "--ea-beta", "inf"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"ea_beta": math.inf}))
            assert "Infinity" in cfg_path.read_text()
            argv += ["--config", str(cfg_path)]
        code = main([*argv, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_empty_out_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # A second, smaller grid into the same directory used to leave
        # f1_uct_c1_run002.jsonl and every f2_* file of the first one.
        out = tmp_path / "out"
        argv = ["--agents", "uct:1", "--iterations", "20", "--bins", "5", "--out", str(out)]
        assert main(["--functions", "f1,f2", "--runs", "3", *argv]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["--functions", "f1", "--runs", "2", *argv]) == 2
        err = capsys.readouterr().err
        assert f"output directory {out} is not new or empty" in err
        assert not re.search(r"^\[", err, re.M)
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_out_may_be_new_or_empty_but_not_a_file(self, tmp_path, capsys):
        argv = ["--functions", "f1", "--agents", "uct:1", "--runs", "1", "--iterations", "20"]
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([*argv, "--out", str(empty)]) == 0
        assert main([*argv, "--out", str(tmp_path / "new" / "nested")]) == 0
        assert (empty / "f1_uct_c1.csv").exists()
        assert (tmp_path / "new" / "nested" / "f1_uct_c1.csv").exists()
        a_file = tmp_path / "a_file"
        a_file.write_text("x")
        capsys.readouterr()
        assert main([*argv, "--out", str(a_file)]) == 2
        assert f"output directory {a_file} is not new or empty" in capsys.readouterr().err
        assert a_file.read_text() == "x"

    def test_run_failure_prints_the_traceback_and_exits_1(self, tmp_path, capsys, monkeypatch):
        # The boundary used to print only "run failed: <message>", so a crash
        # in a search or a pool worker left no trace of where it happened.
        def crash(cfg):
            raise RuntimeError("search blew up")

        monkeypatch.setattr(cli, "run_experiment", crash)
        argv = ["--functions", "f1", "--agents", "uct:1", "--runs", "1", "--iterations", "20"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert 'raise RuntimeError("search blew up")' in err
        assert err.rstrip().endswith("run failed: search blew up")

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


# Each option once: (config key, flag value, config value, a second config
# value, the config the option alone must produce).  The target fields are
# written out here, not read from the parser, so a row routed to the wrong
# field (ea_sims onto generations, say) fails; allow_any_c shows itself
# through an agent outside the canonical set.
_ROUTES = [
    ("functions", "f2,f3", ["f2", "f3"], ["f4"], dict(functions=["f2", "f3"])),
    (
        "agents",
        "uct:2,siea",
        ["uct:2", "siea"],
        "uct:3",
        dict(agents=[AgentSpec("uct", 2.0), AgentSpec("siea")]),
    ),
    ("iterations", "7000", 7000, 8000, dict(iterations=7000)),
    ("runs", "3", 3, 4, dict(runs=3)),
    ("bins", "7", 7, 8, dict(bins=7)),
    ("seed", "9", 9, 10, dict(base_seed=9)),
    ("ea_generations", "3", 3, 4, dict(ea=EvolutionConfig(generations=3))),
    ("ea_lambda", "5", 5, 6, dict(ea=EvolutionConfig(lambda_=5))),
    ("ea_sims", "7", 7, 8, dict(ea=EvolutionConfig(sims_per_eval=7))),
    ("ea_alpha", "2.5", 2.5, 1.5, dict(ea=EvolutionConfig(alpha=2.5))),
    ("ea_beta", "12.5", 12.5, 11, dict(ea=EvolutionConfig(beta=12.5))),
    ("out", "elsewhere", "elsewhere", "other", dict(out_dir=Path("elsewhere"))),
    ("workers", "3", 3, 4, dict(workers=3)),
    ("allow_any_c", None, True, False, dict(agents=[AgentSpec("uct", 0.7)])),
    ("visit_weighted", None, True, False, dict(visit_weighted=True)),
]


def _routed_config(tmp_path, key, flag_value, config):
    """Load ``config`` through --config plus the option's flag, which is
    left out when ``flag_value`` is False and given bare when None."""
    if key == "allow_any_c":
        config = {"agents": ["uct:0.7"], **config}
    argv = []
    if config:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    if flag_value is not False:
        argv.append("--" + key.replace("_", "-"))
        if flag_value is not None:
            argv.append(flag_value)
    return _load_config(_build_parser().parse_args(argv))


class TestOptionRouting:
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("key, flag_value, value, other, want", _ROUTES, ids=[r[0] for r in _ROUTES])
    def test_option_reaches_its_field(self, tmp_path, via, key, flag_value, value, other, want):
        if via == "flag":
            cfg = _routed_config(tmp_path, key, flag_value, {})
        else:
            cfg = _routed_config(tmp_path, key, False, {key: value})
        assert cfg == ExperimentConfig(**want)

    @pytest.mark.parametrize("key, flag_value, value, other, want", _ROUTES, ids=[r[0] for r in _ROUTES])
    def test_flag_beats_config(self, tmp_path, key, flag_value, value, other, want):
        assert _routed_config(tmp_path, key, flag_value, {key: other}) == ExperimentConfig(**want)

    def test_every_option_is_routed(self):
        keys = [r[0] for r in _ROUTES]
        flags = {s for a in _build_parser()._actions for s in a.option_strings}
        assert flags - {"-h", "--help", "--config"} == {"--" + k.replace("_", "-") for k in keys}


def test_readme_flag_table_matches_the_parser():
    # The first column of README's CLI table names every flag once, so an
    # option added to the parser cannot go undocumented.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = {
        flag
        for line in readme.split("\n## CLI\n", 1)[1].splitlines()
        if line.startswith("| `--")
        for flag in re.findall(r"`(--[a-z][a-z-]*)", line.split("|")[1])
    }
    parsed = {s for a in _build_parser()._actions for s in a.option_strings}
    assert documented == parsed - {"-h", "--help"}


_HEAVY_MODULES = ("numpy", "multiprocessing", "concurrent.futures.process")

_ONE_WORKER_GRID = """
import sys
from evomcts.cli import main
argv = ["--functions", "f1,f3", "--agents", "uct:0.5,siea", "--runs", "2"]
argv += ["--iterations", "40", "--bins", "25", "--visit-weighted", "--workers", "1"]
argv += ["--ea-generations", "1", "--ea-lambda", "2", "--ea-sims", "3", "--out", sys.argv[1]]
assert main(argv) == 0
print(",".join(name for name in {heavy!r} if name in sys.modules))
"""


def test_one_worker_grid_loads_neither_numpy_nor_the_pool(tmp_path):
    # The runtime has no numpy, and the process pool is imported only when
    # it starts, so a fresh process that runs a --workers 1 grid loads none
    # of these modules.
    src = Path(cli.__file__).resolve().parents[1]
    script = _ONE_WORKER_GRID.format(heavy=_HEAVY_MODULES)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == ""
    assert len(list((tmp_path / "out").glob("*.json"))) == 4


_UCB1_GRID_THEN_SIEA = """
import sys
from evomcts import cli, expr
built = [expr._operator_scorer.cache_info().currsize]
argv = ["--functions", "f1,f2", "--agents", "uct:0.5,uct:3", "--runs", "2"]
argv += ["--iterations", "60", "--bins", "10", "--out", sys.argv[1] + "/uct"]
assert cli.main(argv) == 0
built.append(expr._operator_scorer.cache_info().currsize)
argv = ["--functions", "f1", "--agents", "siea", "--runs", "1", "--iterations", "40", "--bins", "10"]
argv += ["--ea-generations", "2", "--ea-lambda", "2", "--ea-sims", "3", "--out", sys.argv[1] + "/siea"]
assert cli.main(argv) == 0
built.append(expr._operator_scorer.cache_info().currsize)
print(*built)
"""


def test_ucb1_grid_builds_no_scorer_factory(tmp_path):
    # expr compiles an operator's closure factory the first time a scorer
    # needs it.  A fresh process that imports the CLI and runs a UCB1-only
    # grid compiles none; an evolved run, which scores offspring through
    # closures, then does.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _UCB1_GRID_THEN_SIEA, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    after_import, after_ucb1, after_siea = map(int, proc.stdout.split())
    assert (after_import, after_ucb1) == (0, 0)
    assert after_siea > 0
