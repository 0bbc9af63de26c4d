import csv
import json
import os
import platform
from types import SimpleNamespace

import numpy as np
import pytest

from saddlelab import discrete, experiments
from saddlelab.analysis import Outcome, classify, trial_seeds
from saddlelab.cli import build_parser, main, resolve_config
from saddlelab.continuous import TimeGrid, brownian_increments
from saddlelab.discrete import NoiseSpec
from saddlelab.experiments import run_dichotomy
from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec

from helpers import em_reference, sgd_reference

FAST_SWEEP = ["sweep", "--model", "continuous", "--k-values", "2.0",
              "--gamma-values", "0.6,0.9", "--trials", "24",
              "--horizon", "10.0", "--dt", "0.01", "--x0", "-0.2",
              "--seed", "7", "--jobs", "1"]


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestSweepCommand:
    def test_csv_schema_and_rows(self, tmp_path):
        rc = main(FAST_SWEEP + ["--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "sweep_results.csv")
        assert rows[0] == ["k", "gamma", "prediction", "n_converged",
                           "n_escaped", "n_undecided", "p_conv", "ci_lo",
                           "ci_hi", "seed"]
        assert len(rows) == 3
        counts = [int(v) for v in rows[1][3:6]]
        assert sum(counts) == 24

    def test_empty_sweep_header_only(self, tmp_path):
        rc = main(["sweep", "--k-values", "", "--trials", "4",
                   "--out", str(tmp_path), "--jobs", "1"])
        assert rc == 0
        rows = read_csv(tmp_path / "sweep_results.csv")
        assert len(rows) == 1

    def test_single_cell_two_lines(self, tmp_path):
        rc = main(["sweep", "--k-values", "2.0", "--gamma-values", "0.9",
                   "--trials", "8", "--horizon", "5.0", "--dt", "0.01",
                   "--seed", "3", "--out", str(tmp_path), "--jobs", "1"])
        assert rc == 0
        assert len(read_csv(tmp_path / "sweep_results.csv")) == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dump_trajectories_is_an_error_before_any_trial(self, source, tmp_path,
                                                           capsys, monkeypatch):
        # a sweep records no paths: asking it to dump them stops it at once
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "estimate_probability", no_trials)
        argv = FAST_SWEEP + ["--out", str(tmp_path)]
        if source == "flag":
            argv.append("--dump-trajectories")
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"dump_trajectories": True}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dump_trajectories" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if source == "flag" else ["cfg.json"])

    def test_json_round_trip(self, tmp_path):
        rc = main(FAST_SWEEP + ["--format", "json", "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "sweep_results.json").read_text())
        assert {"rows", "manifest"} <= set(data)
        assert json.loads(json.dumps(data)) == data
        assert data["manifest"]["config"]["seed"] == 7
        assert len(data["rows"]) == 2


class TestDichotomyCommands:
    def test_monomial_outputs_and_manifest(self, tmp_path):
        rc = main(["monomial-dichotomy", "--k", "2.0", "--gamma", "0.9",
                   "--trials", "16", "--horizon", "10.0", "--dt", "0.01",
                   "--seed", "11", "--out", str(tmp_path), "--jobs", "1"])
        assert rc == 0
        rows = read_csv(tmp_path / "monomial_dichotomy_results.csv")
        assert len(rows) == 2
        manifest = json.loads(
            (tmp_path / "monomial_dichotomy_manifest.json").read_text())
        assert manifest["base_seed"] == 11
        assert manifest["config"]["kind"] == "monomial-dichotomy"
        assert sum(manifest["counts"].values()) == 16

    def test_manifest_reproduces_counts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["monomial-dichotomy", "--k", "2.0", "--gamma", "0.9",
                "--trials", "16", "--horizon", "10.0", "--dt", "0.01",
                "--seed", "13", "--jobs", "1"]
        assert main(args + ["--out", str(out1)]) == 0
        manifest_path = out1 / "monomial_dichotomy_manifest.json"
        assert main(["monomial-dichotomy", "--config", str(manifest_path),
                     "--out", str(out2), "--jobs", "1"]) == 0
        m1 = json.loads(manifest_path.read_text())
        m2 = json.loads((out2 / "monomial_dichotomy_manifest.json").read_text())
        assert m1["counts"] == m2["counts"]
        c1, c2 = dict(m1["config"]), dict(m2["config"])
        c1.pop("out_dir"), c2.pop("out_dir")
        assert c1 == c2
        # the environment the streams came from rides along, outside the config
        assert m1["environment"] == {"python": platform.python_version(),
                                     "numpy": np.__version__}

    def test_dump_trajectories_opt_in(self, tmp_path):
        rc = main(["monomial-dichotomy", "--k", "2.0", "--gamma", "0.9",
                   "--trials", "4", "--horizon", "5.0", "--dt", "0.01",
                   "--seed", "2", "--out", str(tmp_path), "--jobs", "1",
                   "--dump-trajectories"])
        assert rc == 0
        import numpy as np
        dump = np.load(tmp_path / "trajectories.npz")
        assert "trial_0" in dump
        assert "times" in dump

    def test_no_dump_by_default(self, tmp_path):
        main(["monomial-dichotomy", "--k", "2.0", "--gamma", "0.9",
              "--trials", "4", "--horizon", "5.0", "--dt", "0.01",
              "--seed", "2", "--out", str(tmp_path), "--jobs", "1"])
        assert not (tmp_path / "trajectories.npz").exists()

    def test_writes_stay_inside_out_dir(self, tmp_path):
        out = tmp_path / "inner"
        before = set(tmp_path.iterdir())
        main(["monomial-dichotomy", "--k", "2.0", "--gamma", "0.9",
              "--trials", "4", "--horizon", "5.0", "--dt", "0.01",
              "--seed", "2", "--out", str(out), "--jobs", "1"])
        after = set(tmp_path.iterdir())
        assert after - before == {out}


class TestSimulateCommand:
    def test_continuous_monomial(self, tmp_path):
        rc = main(["simulate", "--model", "continuous", "--k", "2.0",
                   "--gamma", "0.9", "--trials", "8", "--horizon", "5.0",
                   "--dt", "0.01", "--t0", "1.0", "--seed", "1",
                   "--out", str(tmp_path), "--jobs", "1"])
        assert rc == 0
        assert len(read_csv(tmp_path / "simulate_results.csv")) == 2

    def test_dumped_paths_are_the_single_paths(self, tmp_path):
        import numpy as np

        from saddlelab.continuous import TimeGrid, brownian_increments, simulate_em
        from saddlelab.discrete import NoiseSpec, simulate_sgd
        from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec
        from saddlelab.rng import derive_seed

        common = ["--k", "3", "--gamma", "0.7", "--trials", "3", "--seed", "4",
                  "--jobs", "1", "--dump-trajectories"]
        assert main(["simulate", "--model", "discrete", "--steps", "300",
                     "--out", str(tmp_path / "d"), *common]) == 0
        assert main(["simulate", "--horizon", "3", "--dt", "0.01",
                     "--out", str(tmp_path / "c"), *common]) == 0
        spec = ProcessSpec(DriftSpec("monomial", 3.0),
                           NoiseSchedule("power_transformed", 0.7), t0=1.0, x0=-0.2)
        grid = TimeGrid(1.0, 3.0, 0.01)
        with np.load(tmp_path / "d" / "trajectories.npz") as disc, \
                np.load(tmp_path / "c" / "trajectories.npz") as cont:
            assert np.array_equal(cont["times"], grid.times())
            for i in range(3):
                seed = derive_seed(4, i)
                single = simulate_sgd(DriftSpec("monomial", 3.0), 0.7,
                                      NoiseSpec("rademacher"), -0.2, 10, 310, seed)
                assert np.array_equal(disc[f"trial_{i}"], single.values)
                traj = simulate_em(spec, grid, brownian_increments(grid, seed))
                assert np.array_equal(cont[f"trial_{i}"], traj.values)

    @pytest.mark.parametrize("argv", [
        ["--model", "discrete", "--k", "2", "--gamma", "0.9", "--steps", "400"],
        ["--k", "2", "--gamma", "0.9", "--horizon", "4", "--dt", "0.01"],
    ], ids=["discrete", "continuous"])
    def test_dumped_paths_tally_to_the_counts(self, argv, tmp_path):
        # every trial is dumped, so classifying the dump must give the counts
        argv = ["simulate", *argv, "--trials", "8", "--seed", "6", "--jobs", "1",
                "--dump-trajectories", "--out", str(tmp_path)]
        assert main(argv) == 0
        config = resolve_config(build_parser().parse_args(argv))
        cfg = run_dichotomy(config).runner.cfg
        tally = dict.fromkeys(Outcome, 0)
        with np.load(tmp_path / "trajectories.npz") as dump:
            n0 = config.n0
            times = (dump["times"] if "times" in dump
                     else np.arange(n0, n0 + config.steps + 1, dtype=float))
            for i in range(config.trials):
                path = SimpleNamespace(times=times, values=dump[f"trial_{i}"])
                tally[classify(path, cfg)] += 1
        row = read_csv(tmp_path / "simulate_results.csv")[1]
        assert [int(v) for v in row[3:6]] == [tally[Outcome.CONVERGED],
                                             tally[Outcome.ESCAPED],
                                             tally[Outcome.UNDECIDED]]
        assert sum(n > 0 for n in tally.values()) >= 2

    def test_continuous_linear(self, tmp_path):
        rc = main(["simulate", "--model", "continuous", "--family", "linear",
                   "--k", "0.8", "--x0", "-0.1", "--t0", "0.0",
                   "--horizon", "4.0", "--dt", "0.01", "--trials", "8",
                   "--seed", "1", "--out", str(tmp_path), "--jobs", "1"])
        assert rc == 0
        rows = read_csv(tmp_path / "simulate_results.csv")
        assert rows[1][0] == "0.8"

    def test_discrete_with_uniform_noise(self, tmp_path):
        rc = main(["simulate", "--model", "discrete", "--k", "2.0",
                   "--gamma", "0.9", "--noise", "uniform_centered",
                   "--noise-bound", "0.5", "--n0", "10", "--steps", "2000",
                   "--trials", "8", "--seed", "1", "--out", str(tmp_path),
                   "--jobs", "1"])
        assert rc == 0
        rows = read_csv(tmp_path / "simulate_results.csv")
        assert sum(int(v) for v in rows[1][3:6]) == 8


# barrier 0.5: some dumped trials cross it within the first draw chunk, so
# a counting run retires them unless it records them; others never do
DUMP_MODELS = {
    "discrete": ["--model", "discrete", "--k", "2", "--gamma", "0.8",
                 "--steps", "20000", "--barrier", "0.5"],
    "continuous": ["--k", "2", "--gamma", "0.6", "--horizon", "60",
                   "--dt", "0.005", "--barrier", "0.5"],
}


def _reference_paths(model, seeds):
    """The plain-loop paths of these seeds under DUMP_MODELS."""
    drift = DriftSpec("monomial", 2.0, 1.0, 10.0)
    if model == "discrete":
        return sgd_reference(drift, 0.8, NoiseSpec("rademacher"), -0.2, 10, 20010,
                             seeds)
    spec = ProcessSpec(drift, NoiseSchedule("power_transformed", 0.6), t0=1.0, x0=-0.2)
    grid = TimeGrid(1.0, 60.0, 0.005)
    dw = np.array([brownian_increments(grid, s).increments for s in seeds])
    return em_reference(spec, grid, dw)


class TestDumpTrajectories:
    def _run(self, model, trials, jobs, out, dump_max=None):
        argv = ["simulate", *DUMP_MODELS[model], "--trials", str(trials),
                "--seed", "64", "--jobs", str(jobs), "--out", str(out),
                "--dump-trajectories"]
        if dump_max is not None:
            (out / "cfg.json").write_text(json.dumps({"dump_max": dump_max}))
            argv += ["--config", str(out / "cfg.json")]
        assert main(argv) == 0
        with np.load(out / "trajectories.npz") as npz:
            return {name: npz[name] for name in npz.files}

    @pytest.mark.parametrize("trials, dump_max, jobs", [
        (12, None, 1), (12, None, 2),
        # 40 trials on two workers run as two blocks of 20: the dump spans both
        (40, 30, 2), (40, 30, 1),
        (5, None, 2),   # fewer trials than dump_max
    ])
    @pytest.mark.parametrize("model", ["discrete", "continuous"])
    def test_dump_is_the_batch_paths_of_the_first_trials(self, model, trials,
                                                         dump_max, jobs, tmp_path):
        arrays = self._run(model, trials, jobs, tmp_path, dump_max)
        n = min(trials, 10 if dump_max is None else dump_max)
        expected = _reference_paths(model, trial_seeds(64, n))
        names = [f"trial_{i}" for i in range(n)]
        assert sorted(arrays) == sorted(names + (["times"] if model == "continuous" else []))
        for i, name in enumerate(names):
            assert np.array_equal(arrays[name], expected[i])
        if model == "continuous":
            assert np.array_equal(arrays["times"], TimeGrid(1.0, 60.0, 0.005).times())
        crossed = (expected > 0.5).any(axis=1)
        assert crossed.any() and not crossed.all()
        assert np.argmax(expected > 0.5, axis=1)[crossed].min() < 1000

    @pytest.mark.parametrize("model", ["discrete", "continuous"])
    def test_dump_max_zero_writes_no_trial(self, model, tmp_path):
        arrays = self._run(model, 6, 2, tmp_path, dump_max=0)
        assert sorted(arrays) == (["times"] if model == "continuous" else [])

    @pytest.mark.parametrize("model", ["discrete", "continuous"])
    def test_dump_leaves_every_count_and_output_as_it_was(self, model, tmp_path,
                                                          capsys):
        outputs = []
        for dump in (False, True):
            out = tmp_path / str(dump)
            argv = ["simulate", *DUMP_MODELS[model], "--trials", "24", "--seed", "64",
                    "--jobs", "2", "--out", str(out)]
            assert main(argv + (["--dump-trajectories"] if dump else [])) == 0
            manifest = json.loads((out / "simulate_manifest.json").read_text())
            outputs.append((capsys.readouterr(),
                            (out / "simulate_results.csv").read_bytes(),
                            manifest["counts"]))
            assert (out / "trajectories.npz").exists() == dump
        assert outputs[0] == outputs[1]


class TestUrnCommand:
    def test_urn_runs_and_writes_manifest(self, tmp_path, capsys):
        rc = main(["urn", "--urn-f", "constant", "--urn-value", "0.5",
                   "--steps", "2000", "--trials", "200", "--seed", "5",
                   "--out", str(tmp_path), "--jobs", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "near-1/2 fraction" in printed
        manifest = json.loads((tmp_path / "urn_manifest.json").read_text())
        assert manifest["config"]["urn_f"] == "constant"

    def test_manifest_records_the_urn_results(self, tmp_path, capsys):
        # the urn has no outcome counts: its manifest holds the run's own
        # numbers, and a run from that manifest writes the same block
        argv = ["urn", "--urn-f", "power", "--urn-value", "1.7", "--steps", "100",
                "--trials", "8", "--seed", "3", "--jobs", "1"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        printed = capsys.readouterr().out
        manifest = json.loads((tmp_path / "a" / "urn_manifest.json").read_text())
        assert "counts" not in manifest
        out = experiments.run_urn_experiment(resolve_config(build_parser().parse_args(argv)))
        assert manifest["urn"] == {
            "final_mean": out.final_mean,
            "final_sd": out.final_std,
            "near_half_fraction": out.near_half_fraction,
            "decomposition_max_gap": out.decomposition_max_gap,
            "decomposition_first_divergence": out.decomposition_first_divergence,
        }
        assert (f"final mean={out.final_mean:.5f} sd={out.final_std:.5f} "
                f"near-1/2 fraction={out.near_half_fraction:.4f}") in printed
        assert main(["urn", "--config", str(tmp_path / "a" / "urn_manifest.json"),
                     "--out", str(tmp_path / "b")]) == 0
        again = json.loads((tmp_path / "b" / "urn_manifest.json").read_text())
        assert again["urn"] == manifest["urn"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dump_trajectories_is_an_error_before_any_trial(self, source, tmp_path,
                                                           capsys, monkeypatch):
        # the urn records no paths: asking it to dump them stops it at once
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(discrete, "urn_final_batch", no_trials)
        argv = ["urn", "--steps", "100", "--trials", "5", "--jobs", "1",
                "--out", str(tmp_path)]
        if source == "flag":
            argv.append("--dump-trajectories")
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"dump_trajectories": True}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dump_trajectories" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if source == "flag" else ["cfg.json"])


class TestErrorPaths:
    def test_config_directory_is_an_error_line(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path), "--trials", "2",
                   "--jobs", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_out_naming_a_file_is_an_error_line(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.touch()
        rc = main(["simulate", "--trials", "2", "--jobs", "1",
                   "--out", str(taken)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert rc != 0
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_config_keys_listed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gamm": 0.9, "bogus": 1}))
        rc = main(["monomial-dichotomy", "--config", str(bad)])
        assert rc != 0
        err = capsys.readouterr().err
        assert "gamm" in err and "bogus" in err

    @pytest.mark.parametrize("command, content, named", [
        ("monomial-dichotomy", {"trials": "10"}, "'trials' must be an integer"),
        ("monomial-dichotomy", {"trials": True}, "'trials' must be an integer"),
        ("sweep", {"k_values": 2.0}, "'k_values' must be a list of numbers"),
        ("simulate", [{"trials": 4}], "must hold a JSON object"),
    ], ids=["string-int", "bool-int", "scalar-list", "top-level-list"])
    def test_malformed_config_is_an_error_line(self, command, content, named,
                                               tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        rc = main([command, "--config", str(bad), "--jobs", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err

    def test_out_of_range_gamma_names_hypothesis(self, capsys):
        rc = main(["discrete-dichotomy", "--gamma", "0.3", "--trials", "2",
                   "--steps", "50", "--jobs", "1"])
        assert rc != 0
        assert "(1/2, 1)" in capsys.readouterr().err

    def test_validate_rejects_unknown_criterion(self, capsys):
        rc = main(["validate", "--criterion", "99"])
        assert rc != 0

    @pytest.mark.parametrize("argv, step", [
        # e^{0.8 t} growth on a 1000-long horizon leaves the float range;
        # escaped trials retire, but dumped ones are stepped in full
        (["linear-dichotomy", "--k", "0.8", "--horizon", "1000", "--dt", "0.1",
          "--dump-trajectories"], 9232),
        # a cap of 1e200 lets x^2 overflow within a few steps from x0 = 5,
        # before any state passes the barrier
        (["discrete-dichotomy", "--k", "2", "--gamma", "0.6", "--cap", "1e200",
          "--x0", "5", "--steps", "2000", "--barrier", "1e300"], 11),
    ], ids=["linear", "discrete"])
    def test_non_finite_state_is_an_error_line(self, argv, step, tmp_path, capsys):
        rc = main(argv + ["--trials", "4", "--jobs", "1", "--out", str(tmp_path)])
        assert rc == 2
        out, err = capsys.readouterr()
        # the counting run itself fails, so no counts line comes before it
        assert out == ""
        assert err.startswith(f"error: non-finite state at step {step};")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        # the barrier is |x0|, passed long before the overflow at step 9232
        ["linear-dichotomy", "--k", "0.8", "--horizon", "1000", "--dt", "0.1"],
        # x0 = 5 starts beyond the barrier 3; the overflow comes at step 11
        ["discrete-dichotomy", "--k", "2", "--gamma", "0.6", "--cap", "1e200",
         "--x0", "5", "--steps", "2000"],
    ], ids=["linear", "discrete"])
    def test_escaped_then_overflowing_run_completes(self, argv, tmp_path, capsys):
        # escape is final, so a classifying run retires the trial and never
        # reaches the overflow
        rc = main(argv + ["--trials", "4", "--jobs", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        row = read_csv(tmp_path / f"{argv[0].replace('-', '_')}_results.csv")[1]
        assert [int(v) for v in row[3:6]] == [0, 4, 0]

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--jobs", "0"], "'jobs' must be at least 1, got 0"),
        (["sweep", "--jobs", "-2"], "'jobs' must be at least 1, got -2"),
    ], ids=["jobs-zero", "jobs-negative"])
    def test_jobs_below_one_is_an_error_line(self, argv, named, tmp_path, capsys):
        rc = main(argv + ["--trials", "2", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: config key {named}\n"
        assert not list(tmp_path.iterdir())

    def test_negative_dump_max_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dump_max": -1}))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--dump-trajectories",
                   "--trials", "2", "--jobs", "1", "--out", str(out)])
        assert rc == 2
        assert (capsys.readouterr().err
                == "error: config key 'dump_max' must be at least 0, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["--horizon", "inf", "--eps-conv", "0.01"],
         "config key 'horizon' must be finite, got inf"),
        (["--horizon", "inf"], "config key 'horizon' must be finite, got inf"),
        (["--dt", "inf", "--horizon", "5"], "config key 'dt' must be finite, got inf"),
        (["--x0", "nan"], "config key 'x0' must be finite, got nan"),
    ], ids=["horizon-eps-conv", "horizon", "dt", "x0"])
    def test_non_finite_grid_is_an_error_line(self, argv, named, tmp_path, capsys):
        # the config names the key before the grid is built, before any
        # default eps_conv reads the horizon and before any trial is stepped
        rc = main(["simulate", "--model", "continuous", *argv, "--trials", "2",
                   "--jobs", "1", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {named}\n" and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_rejected_run_makes_no_out_directory(self, tmp_path, capsys):
        # the runner rejects dt = 0 after the config is read; --out is made
        # only once the run has results
        out = tmp_path / "e1"
        rc = main(["simulate", "--model", "continuous", "--dt", "0", "--trials", "2",
                   "--jobs", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: dt must be positive\n"
        assert not out.exists()

    def test_urn_without_trials_is_an_error_line(self, tmp_path, capsys):
        rc = main(["urn", "--trials", "0", "--steps", "10", "--jobs", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: need at least one trial\n"


    @pytest.mark.parametrize("argv, field", [
        (["linear-dichotomy", "--c", "0.5"], "c"),
        (["linear-dichotomy", "--cap", "0.1"], "cap"),
        (["linear-dichotomy", "--gamma", "0.6"], "gamma"),
        (["simulate", "--family", "linear", "--gamma", "0.6"], "gamma"),
    ], ids=["c", "cap", "gamma", "simulate-gamma"])
    def test_linear_run_rejects_a_field_it_does_not_use(self, argv, field,
                                                        tmp_path, capsys):
        # k|x| on the exponential clock reads no c, cap or gamma, so a
        # non-default value would be recorded in the manifest but not run
        rc = main(argv + ["--k", "0.8", "--trials", "2", "--horizon", "1",
                          "--dt", "0.1", "--jobs", "1", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"does not use {field};" in err
        assert "Traceback" not in err and not list(tmp_path.iterdir())


# every experiment subcommand's common flags: (flag, value, config key,
# the value it resolves to)
COMMON_FLAGS = [
    ("--k", "2.5", "k", 2.5), ("--gamma", "0.8", "gamma", 0.8),
    ("--c", "0.5", "c", 0.5), ("--cap", "4", "cap", 4.0),
    ("--noise", "uniform_centered", "noise", "uniform_centered"),
    ("--noise-bound", "0.5", "noise_bound", 0.5), ("--dt", "0.01", "dt", 0.01),
    ("--horizon", "7", "horizon", 7.0), ("--trials", "3", "trials", 3),
    ("--seed", "11", "seed", 11), ("--eps-conv", "0.02", "eps_conv", 0.02),
    ("--barrier", "2", "barrier", 2.0), ("--tail-fraction", "0.3", "tail_fraction", 0.3),
    ("--x0", "-0.3", "x0", -0.3), ("--t0", "2", "t0", 2.0), ("--n0", "5", "n0", 5),
    ("--steps", "40", "steps", 40), ("--format", "json", "out_format", "json"),
    ("--out", "elsewhere", "out_dir", "elsewhere"), ("--jobs", "2", "jobs", 2),
    ("--dump-trajectories", None, "dump_trajectories", True),
]


@pytest.mark.parametrize("command", ["simulate", "sweep", "linear-dichotomy",
                                     "monomial-dichotomy", "discrete-dichotomy",
                                     "urn"])
def test_every_experiment_command_takes_every_common_flag(command, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dump_max": 3}))
    argv = [command, "--config", str(cfg)]
    for flag, value, _, _ in COMMON_FLAGS:
        argv += [flag] if value is None else [flag, value]
    config = resolve_config(build_parser().parse_args(argv))
    assert config.kind == command and config.dump_max == 3
    for flag, _, key, expected in COMMON_FLAGS:
        assert getattr(config, key) == expected, flag


class TestListFlags:
    @pytest.mark.parametrize("argv, key, expected", [
        (["sweep", "--k-values", "1.5,3"], "k_values", (1.5, 3.0)),
        (["sweep", "--gamma-values", "0.6,"], "gamma_values", (0.6,)),
        (["urn", "--urn-table", "0.2,0.5,0.8"], "urn_table", (0.2, 0.5, 0.8)),
    ])
    def test_comma_string_becomes_a_tuple(self, argv, key, expected):
        config = resolve_config(build_parser().parse_args(argv + ["--jobs", "1"]))
        assert getattr(config, key) == expected


class TestJobsDefault:
    def test_counts_cpus_in_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_config(build_parser().parse_args(["simulate"])).jobs == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_config(build_parser().parse_args(["simulate"])).jobs == 5


class TestSeedResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SADDLELAB_SEED", "4242")
        main(["monomial-dichotomy", "--k", "2.0", "--gamma", "0.9",
              "--trials", "4", "--horizon", "5.0", "--dt", "0.01",
              "--out", str(tmp_path), "--jobs", "1"])
        manifest = json.loads(
            (tmp_path / "monomial_dichotomy_manifest.json").read_text())
        assert manifest["base_seed"] == 4242

    def test_flag_beats_env_and_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SADDLELAB_SEED", "4242")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "trials": 4, "k": 2.0,
                                   "gamma": 0.9, "horizon": 5.0, "dt": 0.01,
                                   "jobs": 1}))
        main(["monomial-dichotomy", "--config", str(cfg), "--seed", "77",
              "--out", str(tmp_path)])
        manifest = json.loads(
            (tmp_path / "monomial_dichotomy_manifest.json").read_text())
        assert manifest["base_seed"] == 77

    def test_file_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SADDLELAB_SEED", "4242")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "trials": 4, "k": 2.0,
                                   "gamma": 0.9, "horizon": 5.0, "dt": 0.01,
                                   "jobs": 1}))
        main(["monomial-dichotomy", "--config", str(cfg), "--out",
              str(tmp_path)])
        manifest = json.loads(
            (tmp_path / "monomial_dichotomy_manifest.json").read_text())
        assert manifest["base_seed"] == 1


class TestValidateCommand:
    @pytest.mark.parametrize("argv, jobs", [([], 1), (["--jobs", "2"], 2)])
    def test_jobs_reach_the_criteria(self, monkeypatch, capsys, argv, jobs):
        from saddlelab import acceptance
        seen = []

        def run_dichotomy(config):
            seen.append(config.jobs)
            raise RuntimeError("stop after the config")

        monkeypatch.setattr(acceptance, "run_dichotomy", run_dichotomy)
        rc = main(["validate", "--criterion", "1"] + argv)
        assert rc == 1 and "FAIL  1." in capsys.readouterr().out
        assert seen == [jobs]

    def test_jobs_below_one_is_an_error(self, capsys):
        assert main(["validate", "--criterion", "7", "--jobs", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_single_fast_criterion(self, capsys):
        rc = main(["validate", "--criterion", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("PASS")
        assert "closed-form" in out
