import csv
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from saddlelab.analysis import Outcome, classify
from saddlelab.cli import build_parser, main, resolve_config
from saddlelab.experiments import run_dichotomy

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


class TestErrorPaths:
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

    def test_out_of_range_gamma_names_hypothesis(self, capsys):
        rc = main(["discrete-dichotomy", "--gamma", "0.3", "--trials", "2",
                   "--steps", "50", "--jobs", "1"])
        assert rc != 0
        assert "(1/2, 1)" in capsys.readouterr().err

    def test_validate_rejects_unknown_criterion(self, capsys):
        rc = main(["validate", "--criterion", "99"])
        assert rc != 0

    @pytest.mark.parametrize("argv, step", [
        # e^{0.8 t} growth on a 1000-long horizon leaves the float range
        (["linear-dichotomy", "--k", "0.8", "--horizon", "1000", "--dt", "0.1"],
         9232),
        # a cap of 1e200 lets x^2 overflow within a few steps from x0 = 5
        (["discrete-dichotomy", "--k", "2", "--gamma", "0.6", "--cap", "1e200",
          "--x0", "5", "--steps", "2000"], 11),
    ], ids=["linear", "discrete"])
    def test_non_finite_state_is_an_error_line(self, argv, step, tmp_path, capsys):
        rc = main(argv + ["--trials", "4", "--jobs", "1", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: non-finite state at step {step};")
        assert "Traceback" not in err

    def test_urn_without_trials_is_an_error_line(self, tmp_path, capsys):
        rc = main(["urn", "--trials", "0", "--steps", "10", "--jobs", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: need at least one trial\n"


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
    def test_single_fast_criterion(self, capsys):
        rc = main(["validate", "--criterion", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("PASS")
        assert "closed-form" in out
