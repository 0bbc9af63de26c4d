import dataclasses
import math

import pytest

from saddlelab.analysis import ClassifierConfig, Outcome, classify
from saddlelab.discrete import NoiseSpec, simulate_sgd
from saddlelab.experiments import (ContinuousDichotomyRunner,
                                   DiscreteDichotomyRunner, ExperimentConfig,
                                   discrete_classifier, linear_classifier,
                                   monomial_classifier, phase_sweep,
                                   run_dichotomy)
from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec
from saddlelab.rng import derive_seed


class TestClassifierRules:
    def test_linear_supercritical_uses_low_barrier(self):
        cfg = linear_classifier(0.8, -0.1, 0.0, 15.0)
        assert cfg.barrier == pytest.approx(0.1)
        assert cfg.eps_conv == pytest.approx(0.001)

    def test_linear_subcritical_band_from_decay_envelope(self):
        cfg = linear_classifier(0.3, -0.1, 0.0, 15.0)
        assert cfg.barrier == 3.0
        expected = 3.0 * math.sqrt(1 / 0.4) * math.exp(-0.3 * 12.0)
        assert cfg.eps_conv == pytest.approx(expected)

    def test_monomial_band_tracks_mean_flow(self):
        cfg2 = monomial_classifier(2.0, 1.0, 200.0)
        assert cfg2.eps_conv == pytest.approx(2.5 / 160.2, rel=1e-6)
        cfg3 = monomial_classifier(3.0, 1.0, 200.0)
        assert cfg3.eps_conv == 0.1  # clipped
        assert cfg3.barrier == 3.0

    def test_discrete_band_tracks_mean_flow(self):
        cfg = discrete_classifier(2.0, 0.9, 10, 1_000_010)
        n_tail = 10 + 0.8 * 1_000_000
        assert cfg.eps_conv == pytest.approx(
            3.0 * 0.1 * n_tail ** -0.1, rel=1e-6)

    def test_explicit_overrides_win(self):
        cfg = linear_classifier(0.8, -0.1, 0.0, 15.0, eps_conv=0.02, barrier=2.0)
        assert cfg.eps_conv == 0.02
        assert cfg.barrier == 2.0


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


class TestRunners:
    def test_linear_runner_outcomes(self):
        cfg = linear_classifier(0.8, -0.1, 0.0, 4.0)
        spec = ProcessSpec(DriftSpec("linear", 0.8), NoiseSchedule("exp_half"),
                           t0=0.0, x0=-0.1)
        runner = ContinuousDichotomyRunner(spec=spec, t_end=4.0, dt=1e-2, cfg=cfg)
        outcomes = runner([derive_seed(1, i) for i in range(16)])
        assert len(outcomes) == 16
        assert all(isinstance(oc, Outcome) for oc in outcomes)

    def test_discrete_runner_outcomes(self):
        cfg = discrete_classifier(2.0, 0.9, 10, 2010)
        runner = DiscreteDichotomyRunner(drift=DriftSpec("monomial", 2.0, 1.0, 10.0),
                                         noise=NoiseSpec("rademacher", 1.0),
                                         gamma=0.9, x0=-0.2, n0=10, n_end=2010,
                                         cfg=cfg)
        outcomes = runner([derive_seed(2, i) for i in range(8)])
        assert len(outcomes) == 8

    def test_discrete_runner_agrees_with_classify(self):
        # the tail starts at n = 15.6: it holds the states at n = 16 and 17,
        # not the one at n = 15
        cfg = ClassifierConfig(eps_conv=0.19, barrier=3.0, tail_fraction=0.2)
        drift = DriftSpec("monomial", 2.0, 1.0, 10.0)
        noise = NoiseSpec("uniform_centered", 0.05)
        runner = DiscreteDichotomyRunner(drift=drift, noise=noise, gamma=0.9,
                                         x0=-0.2, n0=10, n_end=17, cfg=cfg)
        seeds = [derive_seed(0, i) for i in range(400)]
        single = [classify(simulate_sgd(drift, 0.9, noise, -0.2, 10, 17, s), cfg)
                  for s in seeds]
        assert runner(seeds) == single
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

    def test_cell_seeds_differ(self):
        config = ExperimentConfig(kind="sweep", model="continuous",
                                  k_values=(2.0,), gamma_values=(0.6, 0.9),
                                  horizon=5.0, dt=1e-2, trials=8, seed=1)
        cells = phase_sweep(config)
        assert cells[0].result.base_seed != cells[1].result.base_seed
