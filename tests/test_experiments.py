import dataclasses
import functools
import json
import math

import pytest

from saddlelab import analysis
from saddlelab.analysis import ClassifierConfig, Outcome, classify
from saddlelab.continuous import TimeGrid
from saddlelab.discrete import NoiseSpec, simulate_sgd
from saddlelab.experiments import (DichotomyRunner, ExperimentConfig,
                                   _build_runner, phase_sweep, run_dichotomy)
from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec
from saddlelab.rng import derive_seed

from helpers import SerialPool


def classifier(kind, k, gamma=0.9, **fields):
    """The classifier _build_runner gives one cell of a kind's config."""
    return _build_runner(ExperimentConfig(kind=kind, **fields), k, gamma).cfg


LINEAR = dict(x0=-0.1, t0=0.0, horizon=15.0)


class TestClassifierRules:
    def test_linear_supercritical_uses_low_barrier(self):
        cfg = classifier("linear-dichotomy", 0.8, **LINEAR)
        assert cfg.barrier == 0.1
        assert cfg.eps_conv == 0.1 / 100.0

    def test_linear_subcritical_band_from_decay_envelope(self):
        cfg = classifier("linear-dichotomy", 0.3, **LINEAR)
        assert cfg.barrier == 3.0
        t_tail = 0.0 + (1.0 - 0.2) * 15.0
        assert cfg.eps_conv == 3.0 * math.sqrt(1.0 / (1.0 - 2.0 * 0.3)) * math.exp(
            -0.3 * t_tail)

    def test_monomial_band_tracks_mean_flow(self):
        cfg2 = classifier("monomial-dichotomy", 2.0, t0=1.0, horizon=200.0)
        t_tail = 1.0 + (1.0 - 0.2) * (200.0 - 1.0)
        assert cfg2.eps_conv == 2.5 * t_tail ** (1.0 / (1.0 - 2.0))
        cfg3 = classifier("monomial-dichotomy", 3.0, t0=1.0, horizon=200.0)
        assert cfg3.eps_conv == 0.1  # clipped
        assert cfg3.barrier == 3.0

    def test_discrete_band_tracks_mean_flow(self):
        cfg = classifier("discrete-dichotomy", 2.0, n0=10, steps=1_000_000)
        n_tail = 10 + (1.0 - 0.2) * 1_000_000
        assert cfg.eps_conv == 3.0 * (1.0 - 0.9) * n_tail ** (-(1.0 - 0.9))
        assert cfg.barrier == 3.0

    def test_explicit_overrides_win(self):
        cfg = classifier("linear-dichotomy", 0.8, eps_conv=0.02, barrier=2.0,
                         **LINEAR)
        assert (cfg.eps_conv, cfg.barrier) == (0.02, 2.0)

    @pytest.mark.parametrize("kind, k, override, expected", [
        ("linear-dichotomy", 0.8, {"barrier": 0.5}, (0.5 / 100.0, 0.5)),
        # the envelope 3 sigma_inf e^{-0.3 t_tail} is 0.129 at t_tail = 12
        ("linear-dichotomy", 0.3, {"barrier": 0.1}, (0.9 * 0.1, 0.1)),
        ("linear-dichotomy", 0.8, {"eps_conv": 0.05}, (0.05, 0.1)),
        ("linear-dichotomy", 0.3, {"eps_conv": 0.05}, (0.05, 3.0)),
        ("monomial-dichotomy", 2.0, {"eps_conv": 0.05}, (0.05, 3.0)),
        ("discrete-dichotomy", 2.0, {"eps_conv": 0.05}, (0.05, 3.0)),
    ])
    def test_one_override_keeps_the_other_rule(self, kind, k, override, expected):
        fields = LINEAR if kind == "linear-dichotomy" else {}
        cfg = classifier(kind, k, **fields, **override)
        assert (cfg.eps_conv, cfg.barrier) == expected


class TestExperimentConfig:
    def test_round_trip_is_bit_identical(self):
        config = ExperimentConfig(kind="sweep", k=2.5, gamma=0.77,
                                  dt=1.0 / 3.0, seed=42,
                                  k_values=(1.5, 2.0), gamma_values=(0.6, 0.9))
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config
        import json
        third = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert third == config

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict({"kind": "simulate", "stepsize": 1,
                                        "zeta": 2})
        assert "stepsize" in str(err.value)
        assert "zeta" in str(err.value)

    @pytest.mark.parametrize("key, value, named", [
        ("jobs", 0, "'jobs' must be at least 1, got 0"),
        ("dump_max", -1, "'dump_max' must be at least 0, got -1"),
    ])
    def test_out_of_range_values_rejected(self, key, value, named):
        with pytest.raises(ValueError, match=named):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("horizon", math.inf), ("x0", math.nan), ("barrier", -math.inf),
        ("k_values", [2.0, math.inf]), ("urn_table", (0.5, math.nan)),
    ], ids=["horizon", "x0", "barrier", "k_values", "urn_table"])
    def test_non_finite_values_rejected_by_key(self, key, value):
        # a JSON config may spell them NaN and Infinity
        with pytest.raises(ValueError, match=f"^config key '{key}' must be finite, got "):
            ExperimentConfig.from_dict(json.loads(json.dumps({key: value})))

    def test_every_field_has_default(self):
        ExperimentConfig()


class TestHypothesisValidation:
    def test_monomial_gamma_range(self):
        config = ExperimentConfig(kind="monomial-dichotomy", gamma=1.0,
                                  trials=2, horizon=2.0, dt=0.1)
        with pytest.raises(ValueError) as err:
            run_dichotomy(config)
        assert "gamma in (1/2, 1)" in str(err.value)

    def test_monomial_k_range(self):
        config = ExperimentConfig(kind="monomial-dichotomy", k=0.9, gamma=0.8,
                                  trials=2, horizon=2.0, dt=0.1)
        with pytest.raises(ValueError) as err:
            run_dichotomy(config)
        assert "k > 1" in str(err.value)

    def test_discrete_gamma_range(self):
        config = ExperimentConfig(kind="discrete-dichotomy", gamma=0.4,
                                  trials=2, steps=100)
        with pytest.raises(ValueError) as err:
            run_dichotomy(config)
        assert "(1/2, 1)" in str(err.value)

    def test_linear_sweep_over_gamma_rejected_before_any_pool(self, monkeypatch):
        # the linear runner steps k|x| on the exponential clock whatever
        # gamma is, so a sweep over gamma would repeat one cell's dynamics
        sizes = []
        monkeypatch.setattr(analysis, "ProcessPoolExecutor",
                            functools.partial(SerialPool, sizes))
        config = ExperimentConfig(kind="sweep", family="linear", k_values=(0.8,),
                                  gamma_values=(0.9, 0.6), x0=-0.1, t0=0.0,
                                  horizon=2.0, dt=0.1, trials=4, jobs=2)
        with pytest.raises(ValueError, match="does not use gamma; got gamma = 0.6"):
            phase_sweep(config)
        assert sizes == []
        (cell,) = phase_sweep(dataclasses.replace(config, gamma_values=(0.9,)))
        assert cell.gamma == 0.9 and sum(cell.result.counts.values()) == 4


class TestRunners:
    def test_linear_runner_outcomes(self):
        config = ExperimentConfig(kind="linear-dichotomy", k=0.8, x0=-0.1,
                                  t0=0.0, horizon=4.0, dt=1e-2)
        runner = _build_runner(config, 0.8, config.gamma)
        assert isinstance(runner, DichotomyRunner)
        assert runner.model == "linear" and runner.noise is None
        assert runner.grid == TimeGrid(0.0, 4.0, 1e-2)
        outcomes, paths = runner([derive_seed(1, i) for i in range(16)])
        assert paths is None
        assert len(outcomes) == 16
        assert all(isinstance(oc, Outcome) for oc in outcomes)

    @pytest.mark.parametrize("field, value, message", [
        ("dt", 0.0, "dt must be positive"),
        ("horizon", 1.0, "t_end must exceed t0"),
    ])
    def test_bad_grid_rejected_before_any_pool(self, monkeypatch, field,
                                               value, message):
        sizes = []
        monkeypatch.setattr(analysis, "ProcessPoolExecutor",
                            functools.partial(SerialPool, sizes))
        config = dataclasses.replace(ExperimentConfig(
            kind="monomial-dichotomy", trials=4, jobs=2, horizon=5.0, dt=0.1),
            **{field: value})
        with pytest.raises(ValueError, match=message):
            run_dichotomy(config)
        assert sizes == []

    @pytest.mark.parametrize("field, value", [("steps", 0), ("n0", 0), ("steps", -5)])
    def test_bad_discrete_horizon_rejected_before_any_pool(self, monkeypatch,
                                                           field, value):
        sizes = []
        monkeypatch.setattr(analysis, "ProcessPoolExecutor",
                            functools.partial(SerialPool, sizes))
        config = dataclasses.replace(ExperimentConfig(
            kind="discrete-dichotomy", trials=4, jobs=2), **{field: value})
        with pytest.raises(ValueError, match="need n0 >= 1 and n_end > n0"):
            run_dichotomy(config)
        assert sizes == []

    def test_discrete_runner_outcomes(self):
        config = ExperimentConfig(kind="discrete-dichotomy", n0=10, steps=2000)
        runner = _build_runner(config, 2.0, 0.9)
        # the recursion is raw-clock EM at unit steps from n0
        assert runner == DichotomyRunner(
            spec=ProcessSpec(DriftSpec("monomial", 2.0, 1.0, 10.0),
                             NoiseSchedule("power_gamma", 0.9), t0=10, x0=-0.2),
            grid=TimeGrid(10, 2010, 1.0), cfg=runner.cfg, model="discrete",
            noise=NoiseSpec("rademacher", 1.0))
        outcomes, paths = runner([derive_seed(2, i) for i in range(8)])
        assert paths is None
        assert len(outcomes) == 8

    def test_discrete_runner_agrees_with_classify(self):
        # the tail starts at n = 15.6: it holds the states at n = 16 and 17,
        # not the one at n = 15
        cfg = ClassifierConfig(eps_conv=0.19, barrier=3.0, tail_fraction=0.2)
        drift = DriftSpec("monomial", 2.0, 1.0, 10.0)
        noise = NoiseSpec("uniform_centered", 0.05)
        runner = DichotomyRunner(
            spec=ProcessSpec(drift, NoiseSchedule("power_gamma", 0.9), t0=10,
                             x0=-0.2),
            grid=TimeGrid(10, 17, 1.0), cfg=cfg, model="discrete", noise=noise)
        seeds = [derive_seed(0, i) for i in range(400)]
        single = [classify(simulate_sgd(drift, 0.9, noise, -0.2, 10, 17, s), cfg)
                  for s in seeds]
        assert runner(seeds) == (single, None)
        assert Outcome.CONVERGED in single and Outcome.UNDECIDED in single

    def test_run_dichotomy_reproducible(self):
        config = ExperimentConfig(kind="monomial-dichotomy", k=2.0, gamma=0.9,
                                  horizon=20.0, dt=1e-2, trials=32, seed=5)
        a = run_dichotomy(config)
        b = run_dichotomy(config)
        assert a.result.counts == b.result.counts
        assert a.prediction == "convergence"
        assert not a.boundary


class TestPhaseSweep:
    def test_grid_predictions_and_reproducibility(self):
        config = ExperimentConfig(kind="sweep", model="continuous",
                                  k_values=(2.0, 3.0),
                                  gamma_values=(0.6, 0.76, 0.9),
                                  horizon=10.0, dt=1e-2, trials=16, seed=9)
        cells = phase_sweep(config)
        assert len(cells) == 6
        by_key = {(c.k, c.gamma): c for c in cells}
        assert by_key[(2.0, 0.6)].prediction == "nonconvergence"
        assert by_key[(2.0, 0.9)].prediction == "convergence"
        assert by_key[(3.0, 0.76)].prediction == "convergence"
        # within the boundary band around 0.75 for k = 2
        assert by_key[(2.0, 0.76)].boundary
        assert not by_key[(2.0, 0.9)].boundary
        again = phase_sweep(config)
        assert [c.result.counts for c in again] == \
            [c.result.counts for c in cells]

    def test_counts_do_not_depend_on_jobs(self):
        config = ExperimentConfig(kind="sweep", model="continuous",
                                  k_values=(2.0, 3.0), gamma_values=(0.6, 0.9),
                                  horizon=10.0, dt=1e-2, trials=50, seed=4)
        counts = [[c.result.counts for c in phase_sweep(
            dataclasses.replace(config, jobs=jobs))] for jobs in (1, 2, 3)]
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("fields, dispatched", [
        # gamma_tilde is 0.75 at k = 2 and 2/3 at k = 3: gamma = 0.9 converges
        (dict(model="continuous", k_values=(2.0, 3.0), gamma_values=(0.6, 0.9),
              horizon=5.0, dt=1e-2), [1, 3, 0, 2]),
        (dict(model="discrete", k_values=(2.0,), gamma_values=(0.6, 0.9),
              steps=200), [1, 0]),
    ])
    def test_convergent_cells_dispatched_first(self, monkeypatch, fields,
                                               dispatched):
        config = ExperimentConfig(kind="sweep", trials=8, seed=3, **fields)
        serial = phase_sweep(config)
        sizes, handed = [], []
        monkeypatch.setattr(analysis, "ProcessPoolExecutor",
                            functools.partial(SerialPool, sizes, runners=handed))
        cells = phase_sweep(dataclasses.replace(config, jobs=2))
        # one block per cell, the predicted-convergent cells' first
        assert [[c.runner for c in cells].index(r) for r in handed] == dispatched
        assert [cells[i].prediction for i in dispatched] == sorted(
            (c.prediction for c in cells), key=lambda p: p != "convergence")
        # outputs stay row-major, each cell on its own seed
        assert [(c.k, c.gamma) for c in cells] == [
            (k, g) for k in config.k_values for g in config.gamma_values]
        assert [(c.result.counts, c.result.base_seed) for c in cells] == \
            [(c.result.counts, c.result.base_seed) for c in serial]
        assert [c.result.base_seed for c in cells] == [
            int(derive_seed(3, i)) for i in range(len(cells))]

    def test_cell_seeds_differ(self):
        config = ExperimentConfig(kind="sweep", model="continuous",
                                  k_values=(2.0,), gamma_values=(0.6, 0.9),
                                  horizon=5.0, dt=1e-2, trials=8, seed=1)
        cells = phase_sweep(config)
        assert cells[0].result.base_seed != cells[1].result.base_seed
