import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from saddlelab import analysis
from saddlelab.analysis import (ClassifierConfig, MCResult, Outcome, block_width,
                                classify, classify_stats, estimate_probability,
                                moment_compare, never_return_alpha,
                                remaining_variance, trial_seeds, wilson_interval)
from saddlelab.continuous import (BrownianPath, TimeGrid, Trajectory,
                                  brownian_increments, linear_exact_batch,
                                  em_batch, simulate_em)
from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec, predict_regime
from saddlelab.rng import Extremes, NonFiniteStateError, derive_seed, make_rng

from helpers import SerialPool

CFG = ClassifierConfig(eps_conv=0.05, barrier=3.0, tail_fraction=0.2)


def traj_from(times, values):
    return Trajectory(times=np.asarray(times, float),
                      values=np.asarray(values, float))


class TestClassifier:
    def test_constant_high_path_escapes(self):
        t = np.linspace(0, 10, 100)
        assert classify(traj_from(t, np.full(100, 5.0)), CFG) is Outcome.ESCAPED

    def test_decaying_path_converges(self):
        t = np.linspace(1, 100, 1000)
        assert classify(traj_from(t, -1.0 / t), CFG) is Outcome.CONVERGED

    def test_oscillating_path_undecided(self):
        t = np.linspace(0, 10, 1000)
        assert classify(traj_from(t, 2.0 * np.sin(t)), CFG) is Outcome.UNDECIDED

    def test_pure_function(self):
        t = np.linspace(0, 10, 50)
        traj = traj_from(t, np.tanh(t) - 0.5)
        assert classify(traj, CFG) is classify(traj, CFG)

    def test_escape_checked_over_whole_path(self):
        # spike early, quiet tail: still escaped
        t = np.linspace(0, 10, 1000)
        v = np.zeros(1000)
        v[10] = 4.0
        assert classify(traj_from(t, v), CFG) is Outcome.ESCAPED

    def test_nan_after_escape_agrees_with_running_max(self):
        # the running max skips a NaN state, as Extremes does in every batch
        t = np.arange(5.0)
        v = np.array([0.0, 5.0, np.nan, 0.0, 0.0])
        top = Extremes(1, t, CFG.tail_start(t[0], t[-1]))
        top.see(v[:1, None], 0, [0])
        top.see(v[1:, None], 1, [0])  # one window of nodes 1-4, the NaN inside it
        assert classify_stats(top.max_value, top.tail_abs_max, CFG) == [Outcome.ESCAPED]
        assert classify(traj_from(t, v), CFG) is Outcome.ESCAPED

    @pytest.mark.parametrize("dt, tail_fraction, eps_conv", [
        (1e-3, 0.2, 0.01),
        # the tail starts at t = 2.25, between the nodes 2.2 and 2.3; four
        # trials converge, one of them only because the node at 2.2 is out
        (0.1, 0.25, 0.3),
    ], ids=["fine-grid", "off-node-tail"])
    def test_stats_agree_with_trajectory_classification(self, dt, tail_fraction,
                                                        eps_conv):
        spec = ProcessSpec(DriftSpec("linear", 0.8), NoiseSchedule("exp_half"),
                           t0=0.0, x0=-0.1)
        grid = TimeGrid(0.0, 3.0, dt)
        seeds = [derive_seed(41, i) for i in range(25)]
        cfg = ClassifierConfig(eps_conv=eps_conv, barrier=0.5,
                               tail_fraction=tail_fraction)
        stats = em_batch(spec, grid, seeds,
                         tail_start=cfg.tail_start(0.0, 3.0))
        batch = classify_stats(stats.max_value, stats.tail_abs_max, cfg)
        for i, s in enumerate(seeds):
            traj = simulate_em(spec, grid, brownian_increments(grid, s))
            assert classify(traj, cfg) is batch[i]

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassifierConfig(eps_conv=0.5, barrier=0.5)
        with pytest.raises(ValueError):
            ClassifierConfig(eps_conv=0.01, barrier=1.0, tail_fraction=1.5)


class TestWilson:
    def test_bounds_and_containment(self):
        rng = make_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            x = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(x, n)
            assert 0.0 <= lo <= x / n <= hi <= 1.0

    def test_certain_outcomes_pin_endpoints(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo < 1.0
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0

    def test_width_shrinks_with_n(self):
        for p in (0.1, 0.5, 0.9):
            n = 200
            lo1, hi1 = wilson_interval(int(p * n), n)
            lo4, hi4 = wilson_interval(int(p * 4 * n), 4 * n)
            assert (hi4 - lo4) <= 0.6 * (hi1 - lo1)

    def test_fair_coin_coverage(self):
        # exact coverage of the 95% interval at n=400, p=1/2 is 0.949
        rng = make_rng(314)
        n, reps = 400, 1000
        covered = 0
        for _ in range(reps):
            x = rng.binomial(n, 0.5)
            lo, hi = wilson_interval(int(x), n)
            covered += lo <= 0.5 <= hi
        assert covered / reps >= 0.93


@dataclass(frozen=True)
class StubRunner:
    """Deterministic classifier stub: outcome decided by the seed's parity.
    It records nothing, whatever its dump."""

    escape_all: bool = False
    dump: int = 0

    def __call__(self, seeds):
        if self.escape_all:
            return [Outcome.ESCAPED for _ in seeds], None
        return [Outcome.CONVERGED if int(s) % 2 == 0 else Outcome.ESCAPED
                for s in seeds], None


@dataclass(frozen=True)
class ZeroNoiseEscapeRunner:
    """Deterministic growing path classified per trial (same ODE per seed)."""

    dump: int = 0

    def __call__(self, seeds):
        grid = TimeGrid(0.0, 4.0, 1e-3)
        spec = ProcessSpec(DriftSpec("linear", 0.8), NoiseSchedule("exp_half"),
                           t0=0.0, x0=0.5)
        cfg = ClassifierConfig(eps_conv=0.01, barrier=3.0)
        traj = simulate_em(spec, grid, BrownianPath.zeros(grid))
        outcome = classify(traj, cfg)
        return [outcome for _ in seeds], None


@dataclass(frozen=True)
class RecordingStub(StubRunner):
    """StubRunner that "records" its first dump trials: their seeds."""

    def __call__(self, seeds):
        outcomes, _ = super().__call__(seeds)
        if not self.dump:
            return outcomes, None
        return outcomes, np.asarray(seeds[:self.dump])[:, None]


@dataclass(frozen=True)
class FailingStub:
    """Raises NonFiniteStateError at a step set by its block's first trial."""

    dump: int = 0

    def __call__(self, seeds):
        raise NonFiniteStateError(1000 - int(seeds[0]) % 997)


class TestEstimateProbability:
    def test_deterministic_escape_has_full_count_and_unit_upper(self):
        (result,) = estimate_probability([ZeroNoiseEscapeRunner()], 50, [9])
        assert result.counts[Outcome.ESCAPED] == 50
        assert result.interval(Outcome.ESCAPED)[1] == 1.0

    def test_counts_sum_and_reproducibility(self):
        (a,) = estimate_probability([StubRunner()], 999, [123])
        (b,) = estimate_probability([StubRunner()], 999, [123])
        assert sum(a.counts.values()) == 999
        assert a.counts == b.counts

    def test_fair_coin_estimate_covered(self):
        # seed-parity stub is a fair coin over derived seeds
        (result,) = estimate_probability([StubRunner()], 2000, [77])
        lo, hi = result.interval(Outcome.CONVERGED)
        assert lo <= 0.5 <= hi

    def test_jobs_do_not_change_counts(self):
        serial = estimate_probability([StubRunner()], 700, [5], jobs=1)
        parallel = estimate_probability([StubRunner()], 700, [5], jobs=2)
        assert serial == parallel

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            estimate_probability([StubRunner()], 0, [1])

    def test_requires_a_job(self):
        with pytest.raises(ValueError):
            estimate_probability([StubRunner()], 10, [1], jobs=0)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_cells_in_one_call_equal_single_calls(self, jobs):
        runners = [StubRunner(), StubRunner(escape_all=True), StubRunner()]
        together = estimate_probability(runners, 300, [4, 5, 6], jobs=jobs)
        alone = [estimate_probability([r], 300, [s])[0]
                 for r, s in zip(runners, [4, 5, 6])]
        assert together == alone

    @pytest.mark.parametrize("dump", [0, 1, 30, 299, 300])
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_recorded_paths_are_the_first_trials_in_order(self, dump, jobs):
        (result, other) = estimate_probability(
            [RecordingStub(dump=dump), StubRunner()], 300, [4, 5], jobs=jobs)
        assert result == estimate_probability([StubRunner()], 300, [4])[0]
        assert other.paths is None
        if dump == 0:
            assert result.paths is None
        else:
            assert np.array_equal(result.paths[:, 0], trial_seeds(4, dump))

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_failing_blocks_raise_the_earliest_step(self, jobs):
        # every block fails; at base seed 13 a later block names the
        # earliest step over all of them, at each of these job counts
        steps = [1000 - int(s) % 997
                 for s in trial_seeds(13, 2000)[::block_width(2000, jobs)]]
        assert min(steps) < steps[0]
        with pytest.raises(NonFiniteStateError) as err:
            estimate_probability([FailingStub()], 2000, [13], jobs=jobs)
        assert err.value.step_index == min(steps)

    @pytest.mark.parametrize("n_cells, n_trials, jobs, pool", [
        (1, 5, 64, 5),       # five one-trial blocks: five workers, not 64
        (4, 1024, 2, 2),     # a sweep's four 1024-trial blocks at two jobs
        (2, 600, 8, 8),      # 2 x 600 trials in eight 150-trial blocks
    ])
    def test_pool_no_larger_than_its_blocks(self, monkeypatch, n_cells,
                                            n_trials, jobs, pool):
        runners, seeds = [StubRunner()] * n_cells, list(range(n_cells))
        serial = estimate_probability(runners, n_trials, seeds)
        sizes = []
        monkeypatch.setattr(analysis, "ProcessPoolExecutor",
                            functools.partial(SerialPool, sizes))
        assert estimate_probability(runners, n_trials, seeds, jobs=jobs) == serial
        assert sizes == [pool]

    def test_block_width(self):
        # one block per worker, as wide as the cap allows
        assert block_width(1000, 1) == 1000
        assert block_width(10**6, 1) == 1024
        assert block_width(1000, 2) == 500
        assert block_width(4096, 2) == 1024
        assert block_width(1200, 8) == 150
        assert block_width(1, 4) == 1


class TestMCResult:
    def test_count_sum_enforced(self):
        with pytest.raises(ValueError):
            MCResult(n_trials=10, counts={Outcome.ESCAPED: 3}, base_seed=0)

    def test_intervals_contain_estimates(self):
        r = MCResult(n_trials=40,
                     counts={Outcome.ESCAPED: 30, Outcome.CONVERGED: 6,
                             Outcome.UNDECIDED: 4},
                     base_seed=0)
        for oc in Outcome:
            lo, hi = r.interval(oc)
            assert lo <= r.estimate(oc) <= hi


class TestNeverReturnAlpha:
    def test_frozen_values(self):
        assert never_return_alpha(0.0, 0.0, -1.0) == pytest.approx(
            0.3173105078629141, abs=1e-12)
        assert never_return_alpha(0.3, 0.0, -0.25) == pytest.approx(
            0.8743670611628919, abs=1e-12)

    def test_boundary_limits(self):
        assert never_return_alpha(0.3, 0.0, -1e-12) == pytest.approx(1.0)
        assert never_return_alpha(0.3, 0.0, -50.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_start(self):
        xs = np.linspace(-3.0, -1e-3, 100)
        vals = [never_return_alpha(0.2, 0.0, x) for x in xs]
        assert np.all(np.diff(vals) > 0)

    def test_continuous_in_k(self):
        ks = np.linspace(0.0, 0.499, 100)
        vals = np.array([never_return_alpha(k, 0.5, -0.7) for k in ks])
        assert np.all(np.abs(np.diff(vals)) < 0.05)

    def test_domain(self):
        with pytest.raises(ValueError):
            never_return_alpha(0.5, 0.0, -1.0)
        with pytest.raises(ValueError):
            never_return_alpha(-0.1, 0.0, -1.0)
        with pytest.raises(ValueError):
            never_return_alpha(0.3, 0.0, 1.0)

    def test_mc_cross_check(self):
        from saddlelab.continuous import linear_hit_zero_mc
        alpha = never_return_alpha(0.2, 0.0, -0.8)
        hits, n = linear_hit_zero_mc(0.2, -0.8, 0.0, 30.0, 40_000, 60)
        se = math.sqrt(alpha * (1 - alpha) / n)
        assert abs(hits / n - alpha) <= 4 * se


class TestRemainingVariance:
    def test_value(self):
        assert remaining_variance(0.3, 0.0) == 0.625

    def test_decays_in_s(self):
        v = [remaining_variance(0.3, s) for s in (0.0, 1.0, 5.0, 20.0)]
        assert np.all(np.diff(v) < 0)
        assert v[-1] < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            remaining_variance(-0.5, 0.0)


class TestMomentCompare:
    def test_identical_samples_zero_z(self):
        x = make_rng(1).standard_normal(1000)
        report = moment_compare(x, x.copy())
        assert report.mean_z == 0.0
        assert report.var_z == 0.0
        assert report.passed

    def test_shifted_mean_flagged(self):
        rng = make_rng(2)
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000) + 0.5
        assert not moment_compare(a, b).passed

    def test_exact_vs_em_passes(self):
        k, x0, t = 0.8, 3.0, 1.0
        exact, _ = linear_exact_batch(k, "positive", x0, 0.0, [t], 4000, 3)
        spec = ProcessSpec(DriftSpec("linear", k), NoiseSchedule("exp_half"),
                           t0=0.0, x0=x0)
        grid = TimeGrid(0.0, t, 1e-3)
        stats = em_batch(spec, grid, [derive_seed(4, i) for i in range(4000)])
        assert moment_compare(stats.final, exact[:, 0]).passed

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            moment_compare([], [1.0])


class TestPhasePrediction:
    def test_flip_at_threshold_k2(self):
        assert predict_regime("monomial", 2.0, 0.74)[0] == "nonconvergence"
        assert predict_regime("monomial", 2.0, 0.76)[0] == "convergence"
        # continuous convention covers equality on the escape side
        assert predict_regime("monomial", 2.0, 0.75)[0] == "nonconvergence"
        # discrete statements are strict at the threshold
        assert predict_regime("discrete", 2.0, 0.75)[0] == "convergence"

    def test_flip_at_threshold_k3(self):
        tilde = 2.0 / 3.0
        assert predict_regime("monomial", 3.0, tilde - 0.05)[0] == \
            "nonconvergence"
        assert predict_regime("monomial", 3.0, tilde + 0.05)[0] == \
            "convergence"

    def test_boundary_band(self):
        assert predict_regime("monomial", 2.0, 0.755)[1]
        assert not predict_regime("monomial", 2.0, 0.9)[1]
