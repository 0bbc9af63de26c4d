import math

import numpy as np
import pytest

from saddlelab import rng
from saddlelab.continuous import (HIT_BLOCK, HIT_GRID, BrownianPath,
                                  NonFiniteStateError, TimeGrid,
                                  _em_drive, brownian_increments,
                                  coupled_violations_batch, em_batch,
                                  gaussian_clock, linear_exact_batch,
                                  linear_hit_zero_mc, quadratic_variation,
                                  simulate_coupled, simulate_em)
from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec
from saddlelab.rng import Record, derive_seed

from helpers import em_reference, first_bad_step, hit_reference, traced_peak

EXP = NoiseSchedule("exp_half")


def linear_spec(k, x0, t0=0.0):
    return ProcessSpec(DriftSpec("linear", k), EXP, t0=t0, x0=x0)


def monomial_spec(k, x0, schedule=EXP, t0=0.0, c=1.0, cap=10.0):
    return ProcessSpec(DriftSpec("monomial", k, c, cap), schedule, t0=t0, x0=x0)


def linear_em_reference(spec, grid, dw):
    """Plain-Python EM for a linear drift: x + (k|x| w dt + g dW) per step."""
    t = grid.times()[:-1]
    wdt = spec.noise.drift_weight(t) * grid.step_sizes()
    g = spec.noise.g(t)
    x = spec.x0
    values = [x]
    for i in range(grid.n_steps):
        x = x + (spec.drift.k * abs(x) * float(wdt[i]) + float(g[i]) * float(dw[i]))
        values.append(x)
    return values


# monomial drifts start at |x0| = 0.6 above their cap of 0.5
IN_PLACE_DRIFTS = [DriftSpec("linear", 0.3)] + [
    DriftSpec("monomial", k, c, 0.5) for k in (1.5, 2.0, 3.0) for c in (1.0, 0.7)]
IN_PLACE_IDS = [f"{d.family}-k{d.k:g}-c{d.c:g}" for d in IN_PLACE_DRIFTS]
IN_PLACE_SCHEDULES = pytest.mark.parametrize(
    "schedule, t0", [(EXP, 0.0), (NoiseSchedule("power_gamma", 0.7), 1.0)],
    ids=["exp_half", "power_gamma"])


class BandEntered:
    """Driver observer: has the state ever lain strictly inside (lo, hi)?"""

    def __init__(self, n_trials, lo, hi):
        self.value = np.zeros(n_trials, dtype=bool)
        self.lo, self.hi = lo, hi

    def see(self, states, first, rows):
        self.value[rows] |= ((states > self.lo) & (states < self.hi)).any(axis=0)


class TestTimeGrid:
    def test_node_count_and_times(self):
        grid = TimeGrid(0.0, 1.0, 0.25)
        assert grid.n_steps == 4
        assert not grid.short_last_step
        assert np.allclose(grid.times(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_short_last_step_flagged(self):
        grid = TimeGrid(0.0, 1.0, 0.3)
        assert grid.short_last_step
        assert grid.n_steps == 4
        t = grid.times()
        assert t[-1] == 1.0
        assert grid.step_sizes()[-1] == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            TimeGrid(2.0, 1.0, 0.1)


class TestBrownian:
    def test_increment_variance(self):
        grid = TimeGrid(0.0, 1e6, 1.0)
        path = brownian_increments(grid, 123)
        var = path.increments.var()
        assert 0.99 <= var <= 1.01
        assert abs(path.increments.mean()) <= 4.0 / math.sqrt(1e6)

    def test_same_seed_identical(self):
        grid = TimeGrid(0.0, 100.0, 0.01)
        a = brownian_increments(grid, 7)
        b = brownian_increments(grid, 7)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seeds_uncorrelated(self):
        grid = TimeGrid(0.0, 1e5, 1.0)
        a = brownian_increments(grid, 1).increments
        b = brownian_increments(grid, 2).increments
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(len(a))

    def test_wrong_grid_rejected(self):
        grid = TimeGrid(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            BrownianPath(grid, np.zeros(3))


class TestEulerMaruyama:
    def test_zero_noise_monomial_ode(self):
        # x' = x^2 from -1 solves x(t) = -1/(1+t)
        grid = TimeGrid(0.0, 1.0, 1e-4)
        traj = simulate_em(monomial_spec(2.0, -1.0), grid, BrownianPath.zeros(grid))
        assert abs(traj.values[-1] - (-0.5)) < 1e-3

    def test_zero_noise_linear_ode(self):
        grid = TimeGrid(0.0, 1.0, 1e-4)
        traj = simulate_em(linear_spec(0.8, -1.0), grid, BrownianPath.zeros(grid))
        assert abs(traj.values[-1] - (-math.exp(-0.8))) < 1e-3

    def test_error_halves_with_dt(self):
        exact = -0.5
        errors = []
        for dt in (2e-3, 1e-3):
            grid = TimeGrid(0.0, 1.0, dt)
            traj = simulate_em(monomial_spec(2.0, -1.0), grid,
                               BrownianPath.zeros(grid))
            errors.append(abs(traj.values[-1] - exact))
        ratio = errors[0] / errors[1]
        assert 1.6 <= ratio <= 2.4

    def test_raw_frame_weights_drift(self):
        # raw clock: zero-noise dynamics obey x' = f(x)/t^gamma
        gamma = 0.8
        grid = TimeGrid(1.0, 5.0, 1e-4)
        spec = monomial_spec(2.0, -1.0, NoiseSchedule("power_gamma", gamma), t0=1.0)
        traj = simulate_em(spec, grid, BrownianPath.zeros(grid))
        # separable ODE: -1/x = (t^{1-g} - 1)/(1-g) + 1
        expected = -1.0 / ((5.0 ** (1 - gamma) - 1.0) / (1 - gamma) + 1.0)
        assert abs(traj.values[-1] - expected) < 1e-3

    def test_determinism_and_grid_match(self):
        grid = TimeGrid(0.0, 2.0, 1e-3)
        path = brownian_increments(grid, 42)
        a = simulate_em(linear_spec(0.8, -0.1), grid, path)
        b = simulate_em(linear_spec(0.8, -0.1), grid, path)
        assert np.array_equal(a.values, b.values)
        other = TimeGrid(0.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            simulate_em(linear_spec(0.8, -0.1), other, path)

    def test_non_finite_guard_reports_step(self):
        # uncapped linear drift with an enormous coefficient overflows fast
        grid = TimeGrid(0.0, 3.0, 1.0)
        spec = linear_spec(1e160, 1e160)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as err:
            simulate_em(spec, grid, BrownianPath.zeros(grid))
        assert err.value.step_index >= 1

    @pytest.mark.parametrize("schedule, t0", [(EXP, 0.0),
                                              (NoiseSchedule("power_gamma", 0.8), 1.0)],
                             ids=["exp_half", "power_gamma"])
    def test_linear_step_matches_plain_python(self, schedule, t0):
        # k|x| uses only * and +, so scalar and array arithmetic agree bit for bit
        spec = ProcessSpec(DriftSpec("linear", 0.8), schedule, t0=t0, x0=-0.3)
        grid = TimeGrid(t0, t0 + 3.0, 1e-3)
        path = brownian_increments(grid, 14)
        traj = simulate_em(spec, grid, path)
        assert traj.values.tolist() == linear_em_reference(spec, grid, path.increments)

    def test_non_finite_step_same_in_batch_and_single(self):
        # k dt = 10: |x| grows about elevenfold a step until it overflows,
        # a step or two sooner or later depending on the first increment
        spec = linear_spec(1000.0, 0.0)
        grid = TimeGrid(0.0, 5.0, 1e-2)
        seeds = [derive_seed(62, i) for i in range(8)]
        with np.errstate(over="ignore", invalid="ignore"):
            paths = [brownian_increments(grid, s) for s in seeds]
            single = [first_bad_step(simulate_em, spec, grid, p) for p in paths]
            width_one = [first_bad_step(em_batch, spec, grid, [s]) for s in seeds]
            batch = first_bad_step(em_batch, spec, grid, seeds)
            reference = [linear_em_reference(spec, grid, p.increments) for p in paths]
        assert single == width_one
        assert single == [int(np.flatnonzero(~np.isfinite(r))[0]) for r in reference]
        assert len(set(single)) > 1
        assert batch == min(single)

    def test_batch_matches_single_bit_exact(self):
        grid = TimeGrid(0.0, 2.0, 1e-3)
        spec = monomial_spec(2.0, -0.2)
        seeds = [derive_seed(900, i) for i in range(6)]
        stats = em_batch(spec, grid, seeds, tail_start=1.6)
        for i, s in enumerate(seeds):
            traj = simulate_em(spec, grid, brownian_increments(grid, s))
            assert traj.values[-1] == stats.final[i]
            assert traj.values.max() == stats.max_value[i]
            tail = np.abs(traj.values[traj.times >= 1.6]).max()
            assert tail == stats.tail_abs_max[i]

    def test_empirical_support_reaches_positive_band(self):
        # paths from -1 cross through (0.4, 0.6) on their way out with
        # clearly positive frequency
        gamma = 0.9
        spec = monomial_spec(2.0, -1.0, NoiseSchedule("power_transformed", gamma),
                             t0=1.0)
        grid = TimeGrid(1.0, 50.0, 1e-2)
        seeds = [derive_seed(321, i) for i in range(10_000)]
        band = BandEntered(len(seeds), 0.4, 0.6)
        _em_drive(spec, grid, [band], seeds=seeds)
        assert band.value.mean() > 0.0


RAW = NoiseSchedule("power_gamma", 0.7)
# unit steps on the raw clock: from a whole t0 every dt is exactly 1, so EM
# leaves sqrt(dt) out and takes one t^-gamma array as both w dt and g.  A
# short last step misses that branch, and so does t0 = 1.1, some of whose
# steps differ from 1 in the last bit
UNIT_GRIDS = [TimeGrid(1.0, 401.0, 1.0), TimeGrid(1.0, 400.5, 1.0),
              TimeGrid(1.1, 401.1, 1.0)]


@pytest.mark.parametrize("drift", IN_PLACE_DRIFTS, ids=IN_PLACE_IDS)
@pytest.mark.parametrize("schedule, t0, grid", [
    (EXP, 0.0, None), (RAW, 1.0, None), *((RAW, g.t0, g) for g in UNIT_GRIDS)],
    ids=["exp_half", "power_gamma", "power_gamma-unit",
         "power_gamma-unit-short-last", "power_gamma-unit-t0-1.1"])
def test_in_place_em_update_equals_the_plain_loop(drift, schedule, t0, grid):
    spec = ProcessSpec(drift, schedule, t0=t0, x0=-0.6)
    grid = grid or TimeGrid(t0, t0 + 4.0, 5e-3)
    seeds = [derive_seed(19, i) for i in range(5)]
    dw = np.array([brownian_increments(grid, s).increments for s in seeds])
    record = Record((len(seeds),), grid.n_steps)
    em_batch(spec, grid, seeds, record=record)
    assert np.array_equal(record.value, em_reference(spec, grid, dw))


def test_coupled_runs_draw_into_one_bounded_buffer():
    # 500 pairs x 3,000 steps: the draw buffer is at most TRIAL_CAP x
    # RETIRE_CHUNK doubles, not 500 x 3,000
    grid = TimeGrid(0.0, 30.0, 0.01)
    first, peak = traced_peak(lambda: coupled_violations_batch(
        linear_spec(0.8, -0.45), linear_spec(0.3, -0.5), -0.45, -0.5, grid,
        derive_seed(6, np.arange(500))))
    assert len(first) == 500
    assert peak < 2 * rng.TRIAL_CAP * rng.RETIRE_CHUNK * 8


@pytest.mark.parametrize("drift", IN_PLACE_DRIFTS, ids=IN_PLACE_IDS)
@IN_PLACE_SCHEDULES
def test_in_place_coupled_update_equals_the_plain_loop(monkeypatch, drift, schedule,
                                                       t0):
    # each row of the pair is its own EM path on the shared increments; the
    # drifts differ, so the ordering fails on some trials.  The driver's
    # observers read windows of states, here also windows of 1, 2 and 3 steps
    spec_a = ProcessSpec(drift, schedule, t0=t0, x0=-0.6)
    spec_b = ProcessSpec(DriftSpec("linear", 0.8), schedule, t0=t0, x0=-0.61)
    grid = TimeGrid(t0, t0 + 4.0, 5e-3)
    seeds = [derive_seed(23, i) for i in range(8)]
    paths = [brownian_increments(grid, s) for s in seeds]
    dw = np.array([p.increments for p in paths])
    ref_a, ref_b = em_reference(spec_a, grid, dw), em_reference(spec_b, grid, dw)
    below = ref_a < ref_b
    assert below.any() and not below.all()
    for window in (rng._WINDOW, 1, 2, 3):
        monkeypatch.setattr(rng, "_WINDOW", window)
        first = coupled_violations_batch(spec_a, spec_b, spec_a.x0, spec_b.x0, grid,
                                         seeds)
        for i, path in enumerate(paths):
            a, b = simulate_coupled(spec_a, spec_b, spec_a.x0, spec_b.x0, grid, path)
            assert np.array_equal(a.values, ref_a[i])
            assert np.array_equal(b.values, ref_b[i])
        assert np.array_equal(first, np.where(below.any(axis=1), below.argmax(axis=1),
                                              -1)), window


@pytest.mark.parametrize("kernel", ["simulate_em", "em_batch", "simulate_coupled",
                                    "coupled_violations_batch"])
def test_grid_before_the_schedule_start_is_rejected(kernel):
    # power clocks start at t = 1; a grid from 0 would divide by zero at its
    # first node, so every EM kernel refuses it before stepping
    spec = monomial_spec(2.0, -0.2, NoiseSchedule("power_transformed", 0.9), t0=1.0)
    grid = TimeGrid(0.0, 1.0, 1e-2)
    path = brownian_increments(grid, 3)
    runs = {
        "simulate_em": lambda: simulate_em(spec, grid, path),
        "em_batch": lambda: em_batch(spec, grid, [3, 4]),
        "simulate_coupled": lambda: simulate_coupled(spec, spec, -0.2, -0.3, grid, path),
        "coupled_violations_batch": lambda: coupled_violations_batch(
            spec, spec, -0.2, -0.3, grid, [3, 4]),
    }
    with pytest.raises(ValueError, match="grid starts before t0 = 1.0 allowed by "
                                         "schedule 'power_transformed'"):
        runs[kernel]()


class TestCoupling:
    def test_identical_specs_identical_paths(self):
        grid = TimeGrid(0.0, 1.0, 1e-3)
        path = brownian_increments(grid, 3)
        a, b = simulate_coupled(linear_spec(0.5, -0.3), linear_spec(0.5, -0.3),
                                -0.3, -0.3, grid, path)
        assert np.array_equal(a.values, b.values)

    def test_larger_drift_dominates(self):
        grid = TimeGrid(0.0, 5.0, 1e-3)
        path = brownian_increments(grid, 17)
        a, b = simulate_coupled(linear_spec(0.8, -0.5), linear_spec(0.3, -0.5),
                                -0.5, -0.5, grid, path)
        assert np.all(a.values >= b.values)

    def test_offset_starts_stay_strictly_ordered(self):
        # equal drifts, ordered starts: the gap cannot close under k|x| drift
        grid = TimeGrid(0.0, 3.0, 1e-3)
        path = brownian_increments(grid, 23)
        a, b = simulate_coupled(linear_spec(0.5, 0.5), linear_spec(0.5, -0.5),
                                0.5, -0.5, grid, path)
        assert np.all(a.values > b.values)
        gaps = a.values - b.values
        assert gaps[-1] != gaps[0]

    def test_raw_and_transformed_frames_agree_through_time_change(self):
        # zero noise: X_t = L_{theta(t)} with drift scale 1/(1-gamma)
        from saddlelab.model import time_change_power

        gamma, k, x0 = 0.75, 2.0, -0.5
        horizon = 2.0
        raw_spec = monomial_spec(k, x0, NoiseSchedule("power_gamma", gamma),
                                 t0=1.0)
        raw_grid = TimeGrid(1.0, time_change_power(horizon, gamma), 1e-3)
        raw = simulate_em(raw_spec, raw_grid, BrownianPath.zeros(raw_grid))
        scaled = ProcessSpec(DriftSpec("monomial", k, 1.0 / (1.0 - gamma), 10.0),
                             EXP, t0=1.0, x0=x0)
        tr_grid = TimeGrid(1.0, horizon, 1e-4)
        transformed = simulate_em(scaled, tr_grid, BrownianPath.zeros(tr_grid))
        assert abs(raw.values[-1] - transformed.values[-1]) < 1e-3

    def test_mismatched_schedules_rejected(self):
        grid = TimeGrid(1.0, 2.0, 1e-3)
        path = brownian_increments(grid, 5)
        with pytest.raises(ValueError):
            simulate_coupled(
                monomial_spec(2.0, -0.5, NoiseSchedule("power_transformed", 0.9), 1.0),
                monomial_spec(2.0, -0.5, NoiseSchedule("power_gamma", 0.9), 1.0),
                -0.5, -0.5, grid, path)

    def test_batch_ordering_matches_trajectories(self):
        # (k_a, k_b, x0_a, x0_b, grid, trials, every trial's first violation):
        # an ordered pair; equal drifts with Lip * dt = 1.6 > 1/2, whose EM
        # step map is not monotone, so the lower start overtakes at node 1;
        # the same pair with swapped starts, unordered from node 0
        cases = [(0.8, 0.3, -0.5, -0.5, TimeGrid(0.0, 2.0, 1e-3), 20, -1),
                 (0.8, 0.8, -0.4, -0.5, TimeGrid(0.0, 20.0, 2.0), 50, 1),
                 (0.8, 0.8, -0.5, -0.4, TimeGrid(0.0, 20.0, 2.0), 50, 0)]
        for k_a, k_b, x0_a, x0_b, grid, trials, expected in cases:
            spec_a, spec_b = linear_spec(k_a, x0_a), linear_spec(k_b, x0_b)
            seeds = [derive_seed(55, i) for i in range(trials)]
            first = coupled_violations_batch(spec_a, spec_b, x0_a, x0_b, grid,
                                             seeds)
            for s, got in zip(seeds, first):
                a, b = simulate_coupled(spec_a, spec_b, x0_a, x0_b, grid,
                                        brownian_increments(grid, s))
                bad = np.flatnonzero(a.values < b.values)
                assert got == (bad[0] if len(bad) else -1)
            assert np.all(first == expected)


class TestQuadraticVariation:
    def test_exp_half_values(self):
        assert quadratic_variation(EXP, 0.0, math.inf) == 1.0
        assert quadratic_variation(EXP, 2.0, 2.0) == 0.0
        assert quadratic_variation(EXP, 1.0, 3.0) == pytest.approx(
            math.exp(-1) - math.exp(-3), rel=1e-12)

    def test_power_transformed_value(self):
        sched = NoiseSchedule("power_transformed", 0.9)
        assert quadratic_variation(sched, 1.0, math.inf) == pytest.approx(
            0.125, rel=1e-12)

    def test_power_transformed_matches_quadrature(self):
        sched = NoiseSchedule("power_transformed", 0.7)
        u = np.linspace(2.0, 9.0, 2_000_001)
        numeric = np.trapezoid(sched.g(u) ** 2, u)
        assert quadratic_variation(sched, 2.0, 9.0) == pytest.approx(
            numeric, rel=1e-8)

    def test_power_gamma_values(self):
        sched = NoiseSchedule("power_gamma", 1.0)
        assert quadratic_variation(sched, 1.0, math.inf) == pytest.approx(1.0)
        assert quadratic_variation(sched, 2.0, 4.0) == pytest.approx(0.25)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quadratic_variation(NoiseSchedule("power_gamma", 0.9), 0.5, 2.0)
        with pytest.raises(ValueError):
            quadratic_variation(EXP, 3.0, 2.0)


class TestLinearExact:
    def test_query_at_start_returns_start(self):
        values, _ = linear_exact_batch(0.3, "negative", -0.7, 1.0, [1.0, 2.0], 1, 9)
        assert values[0, 0] == -0.7

    def test_negative_branch_mean(self):
        k, x_s, t = 0.3, -1.0, 2.0
        vals, _ = linear_exact_batch(k, "negative", x_s, 0.0, [t], 100_000, 31)
        sample = vals[:, 0]
        expected = math.exp(-k * t) * x_s
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - expected) <= 4 * se

    def test_negative_branch_variance(self):
        k, t = 0.3, 2.0
        vals, _ = linear_exact_batch(k, "negative", -1.0, 0.0, [t], 100_000, 77)
        expected = math.exp(-2 * k * t) * (math.exp(2 * t * (k - 0.5)) - 1.0) \
            / (2 * k - 1.0)
        var = vals[:, 0].var(ddof=1)
        assert abs(var - expected) / expected < 0.02

    def test_positive_branch_moments(self):
        k, x_s, t = 0.8, 3.0, 2.0
        vals, _ = linear_exact_batch(k, "positive", x_s, 0.0, [t], 100_000, 13)
        sample = vals[:, 0]
        mean = math.exp(k * t) * x_s
        var = math.exp(2 * k * t) * (1.0 - math.exp(-t * (2 * k + 1))) \
            / (2 * k + 1)
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - mean) <= 4 * se
        assert abs(sample.var(ddof=1) - var) / var < 0.02

    def test_half_k_limit_variance(self):
        vals, _ = linear_exact_batch(0.5, "negative", -1.0, 0.0, [2.0], 200_000, 4)
        # at k = 1/2 the martingale variance is t - s, damped by e^{-2kt}
        expected = math.exp(-2.0) * 2.0
        var = vals[:, 0].var(ddof=1)
        assert abs(var - expected) / expected < 0.02

    def test_restart_consistency_in_distribution(self):
        k, x_s, t1, t2 = 0.3, -1.0, 1.0, 2.5
        n = 10_000
        joint, _ = linear_exact_batch(k, "negative", x_s, 0.0, [t1, t2], n, 21)
        stage1, _ = linear_exact_batch(k, "negative", x_s, 0.0, [t1], n, 22)
        stage2, _ = linear_exact_batch(k, "negative", stage1[:, 0], t1, [t2], n, 23)
        a, b = joint[:, 1], stage2[:, 0]
        se_mean = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
        assert abs(a.mean() - b.mean()) <= 4 * se_mean
        se_var = math.sqrt(2.0 / n) * max(a.var(), b.var())
        assert abs(a.var(ddof=1) - b.var(ddof=1)) <= 4 * se_var

    def test_first_crossing_reported_and_truncation_point(self):
        # k > 1/2: crossing is certain over a long window
        times = np.linspace(0.5, 20.0, 40)
        values, first = linear_exact_batch(0.8, "negative", -0.05, 0.0, times, 1, 2)
        idx = first[0]
        assert idx >= 0
        assert values[0, idx] >= 0.0
        assert np.all(values[0, :idx] < 0.0)

    @pytest.mark.parametrize("k", [0.3, 0.5, 0.5 + 1e-13, 0.8, 2.0])
    def test_negative_branch_matches_written_out_variance(self, k):
        # the branch's mean factor and integrated variance written out here,
        # independently of gaussian_clock, with its k = 1/2 limit
        times = np.linspace(0.25, 3.0, 12)
        full = np.concatenate(([0.0], times))
        lo, hi = full[:-1], full[1:]
        a = 2.0 * (k - 0.5)
        if abs(a) < 1e-12:
            var_g = hi - lo
        else:
            var_g = (np.exp(a * hi) - np.exp(a * lo)) / a
        mean = np.exp(-k * (hi - lo))
        std = np.sqrt(np.maximum(np.exp(-2.0 * k * hi) * var_g, 0.0))
        gen = rng.make_rng(5)
        x = np.full(8, -0.5)
        expected = np.empty((8, len(times)))
        for j in range(len(times)):
            x = mean[j] * x + std[j] * gen.standard_normal(8)
            expected[:, j] = x
        values, _ = linear_exact_batch(k, "negative", -0.5, 0.0, times, 8, 5)
        assert np.array_equal(values, expected)

    def test_monotone_time_validation(self):
        with pytest.raises(ValueError):
            linear_exact_batch(0.3, "negative", -1.0, 0.0, [2.0, 1.0], 10, 0)
        with pytest.raises(ValueError):
            linear_exact_batch(0.3, "sideways", -1.0, 0.0, [1.0], 10, 0)
        with pytest.raises(ValueError):
            linear_exact_batch(0.3, "negative", -1.0, 0.0, [], 10, 0)


class TestHitZero:
    def test_clock_is_quadratic_variation(self):
        k, s = 0.3, 0.0
        t = np.array([1.0, 5.0, 30.0])
        a = 2 * (k - 0.5)
        expected = (np.exp(a * t) - 1.0) / a
        assert np.allclose(gaussian_clock(k, s, t), expected, rtol=1e-12)

    def test_hit_frequency_matches_alpha(self):
        from saddlelab.analysis import never_return_alpha
        hits, n = linear_hit_zero_mc(0.3, -0.5, 0.0, 30.0, 50_000, 88)
        alpha = never_return_alpha(0.3, 0.0, -0.5)
        se = math.sqrt(alpha * (1 - alpha) / n)
        assert abs(hits / n - alpha) <= 4 * se

    def test_requires_negative_start(self):
        with pytest.raises(ValueError):
            linear_hit_zero_mc(0.3, 0.5, 0.0, 30.0, 100, 0)

    def test_path_count_domain(self):
        assert linear_hit_zero_mc(0.3, -0.5, 0.0, 30.0, 0, 0) == (0, 0)
        with pytest.raises(ValueError):
            linear_hit_zero_mc(0.3, -0.5, 0.0, 30.0, -1, 0)

    @pytest.mark.parametrize("k", [0.3, 0.45])
    @pytest.mark.parametrize("x_s", [-1.0, -0.25])
    def test_counts_equal_the_one_block_loop(self, x_s, k):
        # sub-blocks of TRIAL_CAP paths read each generator's stream as one
        # draw of its HIT_BLOCK paths does, across both kinds of edge
        for n_paths in (0, 1, 1023, 1024, 1025, 20_000, 20_001, 45_001):
            assert linear_hit_zero_mc(k, x_s, 0.0, 30.0, n_paths, 41) == (
                hit_reference(k, x_s, 0.0, 30.0, n_paths, 41), n_paths), n_paths

    @pytest.mark.parametrize("cap", [1, 3])
    def test_counts_do_not_depend_on_the_sub_block_width(self, monkeypatch, cap):
        monkeypatch.setattr(rng, "TRIAL_CAP", cap)
        for x_s in (-1.0, -0.25):
            assert linear_hit_zero_mc(0.3, x_s, 0.0, 30.0, 301, 42) == (
                hit_reference(0.3, x_s, 0.0, 30.0, 301, 42), 301)

    @pytest.mark.parametrize("x_s, blocks", [(-1.0, 1.0), (-4.0, 1.5)])
    def test_keeps_only_the_survivors_bridge_probabilities(self, x_s, blocks):
        # the one-block loop held a HIT_BLOCK x HIT_GRID block of normals and
        # two copies of its survivors, about three blocks from x_s = -4;
        # only the survivors' bridge probabilities (survivors x HIT_GRID
        # doubles) now outlive a sub-block.  About half the paths cross at
        # a node from x_s = -1, and about 1 % from x_s = -4
        (hits, n), peak = traced_peak(
            lambda: linear_hit_zero_mc(0.3, x_s, 0.0, 30.0, 20_000, 3))
        assert hits == hit_reference(0.3, x_s, 0.0, 30.0, 20_000, 3)
        assert peak < blocks * HIT_BLOCK * HIT_GRID * 8
