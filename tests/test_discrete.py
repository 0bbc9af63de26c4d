import math

import numpy as np
import pytest

from saddlelab.continuous import TimeGrid
from saddlelab.discrete import (NoiseSpec, sgd_batch, simulate_sgd,
                                step_correction, z_diagnostics)
from saddlelab.model import (DriftSpec, MeanFlowFrame, NoiseSchedule, ProcessSpec,
                             mean_flow_h)
from saddlelab.rng import NOISE_CHUNK, Record, chunk_ranges, derive_seed, make_rng

from helpers import draw, em_reference, first_bad_step, sgd_reference, traced_peak

MONO = DriftSpec("monomial", 2.0, 1.0, 10.0)


class TestNoiseSpec:
    def test_rademacher_support_and_bound(self):
        noise = NoiseSpec("rademacher", 1.0)
        rng = make_rng(10)
        draws = draw(noise, rng, 1_000_000)
        assert np.all(np.abs(draws) <= noise.M)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert noise.variance_floor == 1.0

    def test_uniform_bound_and_floor(self):
        noise = NoiseSpec("uniform_centered", 2.0)
        rng = make_rng(11)
        draws = draw(noise, rng, 1_000_000)
        assert np.all(np.abs(draws) <= 2.0)
        assert noise.variance_floor == pytest.approx(4.0 / 3.0)
        assert abs(draws.var() - 4.0 / 3.0) < 0.01

    def test_martingale_mean(self):
        noise = NoiseSpec("rademacher", 1.0)
        rng = make_rng(12)
        draws = draw(noise, rng, 1_000_000)
        se = 1.0 / math.sqrt(len(draws))
        assert abs(draws.mean()) <= 4 * se

    @pytest.mark.parametrize("M", [1.0, 0.5])
    def test_rademacher_fill_is_the_integers_bits_on_odd_cuts(self, M):
        # fill writes its comparison straight into out; after an odd cut the
        # next fill starts on the 32-bit half the last one left buffered
        expected = (2 * make_rng(7).integers(0, 2, size=5000) - 1) * M
        rng, got, start = make_rng(7), np.full((2, 5000), np.nan), 0
        for length in (1, 3, 777, 2048, 1001, 1170):
            NoiseSpec("rademacher", M).fill(rng, got[1, start:start + length])
            start += length
        assert start == 5000 and np.isnan(got[0]).all()
        assert got.dtype == expected.dtype and np.array_equal(got[1], expected)
        assert np.array_equal(np.signbit(got[1]), np.signbit(expected))

    def test_urn_induced_not_directly_sampleable(self):
        # The urn's g_n is not i.i.d. noise, so no NoiseSpec can carry it.
        with pytest.raises(ValueError):
            NoiseSpec("urn_induced", 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", 1.0)
        with pytest.raises(ValueError):
            NoiseSpec("rademacher", 0.0)


class TestSgdRecursion:
    def test_zero_noise_matches_hand_rolled(self):
        gamma, x0, n0, n_end = 0.6, -0.5, 1, 11
        traj = simulate_sgd(MONO, gamma, None, x0, n0, n_end, seed=0)
        steps = np.arange(n0, n_end, dtype=float) ** (-gamma)
        x = x0
        expected = [x]
        for step in steps:
            fx = 1.0 * np.minimum(abs(x), 10.0) ** 2.0
            x = x + (fx * step + 0.0 * step)
            expected.append(x)
        assert np.array_equal(traj.values, np.array(expected))

    def test_noise_free_paths_allocate_little_beyond_the_record(self):
        # the zero increments are a broadcast view, not a trials x steps array
        seeds = [derive_seed(3, i) for i in range(4)]

        def run():
            record = Record((len(seeds),), 250_000)
            sgd_batch(DriftSpec("monomial", 2.0), 0.9, None, -0.2, 10, 250_010,
                      seeds, record=record)
            return record

        record, peak = traced_peak(run)
        assert peak < 1.5 * record.value.nbytes

    def test_rademacher_steps_have_exact_magnitude(self):
        gamma, x0, n0, n_end, seed = 0.7, -0.3, 1, 400, 77
        noise = NoiseSpec("rademacher", 1.0)
        traj = simulate_sgd(MONO, gamma, noise, x0, n0, n_end, seed)
        rng = make_rng(seed)
        draws = np.concatenate([draw(noise, rng, b - a)
                                for a, b in chunk_ranges(n_end - n0)])
        assert np.all(np.abs(draws) == 1.0)
        steps = np.arange(n0, n_end, dtype=float) ** (-gamma)
        x = x0
        for i, (step, y) in enumerate(zip(steps, draws)):
            fx = float(1.0 * np.minimum(abs(x), 10.0) ** 2.0)
            x = x + (fx * step + y * step)
            assert x == traj.values[i + 1]

    def test_determinism(self):
        noise = NoiseSpec("rademacher", 1.0)
        a = simulate_sgd(MONO, 0.9, noise, -0.2, 10, 4000, 5)
        b = simulate_sgd(MONO, 0.9, noise, -0.2, 10, 4000, 5)
        assert np.array_equal(a.values, b.values)

    def test_batch_matches_single_bit_exact(self):
        noise = NoiseSpec("rademacher", 1.0)
        seeds = [derive_seed(800, i) for i in range(6)]
        stats = sgd_batch(MONO, 0.9, noise, -0.2, 10, 3 * NOISE_CHUNK + 50,
                          seeds, tail_start=20_000)
        for i, s in enumerate(seeds):
            traj = simulate_sgd(MONO, 0.9, noise, -0.2, 10,
                                3 * NOISE_CHUNK + 50, s)
            assert traj.values[-1] == stats.final[i]
            assert traj.values.max() == stats.max_value[i]
            tail = np.abs(traj.values[traj.times >= 20_000]).max()
            assert tail == stats.tail_abs_max[i]

    def test_batch_matches_single_bit_exact_cubic(self):
        # at k = 3 numpy's scalar and array power differ in the last bit on
        # about 5 % of evaluations; seed (801, 33) is a path where that shows
        drift = DriftSpec("monomial", 3.0, 1.0, 10.0)
        noise = NoiseSpec("rademacher", 1.0)
        seeds = [derive_seed(801, i) for i in range(31, 36)]
        stats = sgd_batch(drift, 0.7, noise, -0.2, 10, 20_010, seeds,
                          tail_start=16_010)
        paths = sgd_reference(drift, 0.7, noise, -0.2, 10, 20_010, seeds)
        for i, s in enumerate(seeds):
            traj = simulate_sgd(drift, 0.7, noise, -0.2, 10, 20_010, s)
            assert np.array_equal(traj.values, paths[i])
            assert traj.values[-1] == stats.final[i]
            assert traj.values.max() == stats.max_value[i]
            tail = np.abs(traj.values[traj.times >= 16_010]).max()
            assert tail == stats.tail_abs_max[i]

    def test_non_finite_step_same_in_batch_and_single(self):
        # uncapped cubic drift overflows, at a step that depends on the noise
        drift = DriftSpec("monomial", 3.0, 1.0, math.inf)
        noise = NoiseSpec("rademacher", 1.0)
        seeds = [derive_seed(62, i) for i in range(8)]
        with np.errstate(over="ignore", invalid="ignore"):
            single = [first_bad_step(simulate_sgd, drift, 0.7, noise, 0.0, 10, 400, s)
                      for s in seeds]
            width_one = [first_bad_step(sgd_batch, drift, 0.7, noise, 0.0, 10, 400, [s])
                         for s in seeds]
            batch = first_bad_step(sgd_batch, drift, 0.7, noise, 0.0, 10, 400, seeds)
            for s, step in zip(seeds, single):
                if step is not None:   # finite up to the step before
                    before = simulate_sgd(drift, 0.7, noise, 0.0, 10, 10 + step - 1, s)
                    assert np.isfinite(before.values).all()
        assert single == width_one
        bad = [step for step in single if step is not None]
        assert len(set(bad)) > 1
        assert batch == min(bad)

    def test_gamma_domain(self):
        for bad in (0.5, 1.0, 1.2):
            with pytest.raises(ValueError):
                simulate_sgd(MONO, bad, None, -0.2, 1, 10, 0)

    def test_index_domain(self):
        with pytest.raises(ValueError):
            simulate_sgd(MONO, 0.9, None, -0.2, 0, 10, 0)
        with pytest.raises(ValueError):
            simulate_sgd(MONO, 0.9, None, -0.2, 10, 10, 0)


# monomial drifts start at |x0| = 0.6 above their cap of 0.5
IN_PLACE_DRIFTS = [DriftSpec("linear", 0.3)] + [
    DriftSpec("monomial", k, c, 0.5) for k in (1.5, 2.0, 3.0) for c in (1.0, 0.7)]


@pytest.mark.parametrize("drift", IN_PLACE_DRIFTS,
                         ids=lambda d: f"{d.family}-k{d.k:g}-c{d.c:g}")
@pytest.mark.parametrize("noise", [NoiseSpec("rademacher", 0.7),
                                   NoiseSpec("uniform_centered", 1.0), None],
                         ids=["rademacher", "uniform", "noise-free"])
def test_in_place_update_equals_the_plain_loop(drift, noise):
    seeds = [derive_seed(17, i) for i in range(5)]
    record = Record((len(seeds),), 2000)
    sgd_batch(drift, 0.6, noise, -0.6, 1, 2001, seeds, record=record)
    expected = sgd_reference(drift, 0.6, noise, -0.6, 1, 2001, seeds)
    assert np.array_equal(record.value, expected)
    final = sgd_batch(drift, 0.6, noise, -0.6, 1, 2001, seeds).final
    assert np.array_equal(final, expected[:, -1])
    # the recursion's loop is EM's on the raw clock at unit steps, with the
    # draws Y in place of the Brownian increments
    spec = ProcessSpec(drift, NoiseSchedule("power_gamma", 0.6), t0=1, x0=-0.6)
    y = (np.zeros((len(seeds), 2000)) if noise is None else
         np.array([draw(noise, make_rng(s), 2000) for s in seeds]))
    assert np.array_equal(em_reference(spec, TimeGrid(1, 2001, 1.0), y), expected)


class TestZDiagnostics:
    def test_z_is_minus_one_on_mean_flow(self):
        frame = MeanFlowFrame("discrete", 2.0, 0.9)
        n = np.arange(5, 50)
        traj_values = mean_flow_h(frame, n.astype(float))
        traj = simulate_sgd(MONO, 0.9, None, traj_values[0], 5, 49, 0)
        traj.values[:] = traj_values
        z, _ = z_diagnostics(traj, frame)
        assert np.allclose(z, -1.0, rtol=1e-12)

    def test_sign_matches_state(self):
        frame = MeanFlowFrame("discrete", 2.0, 0.9)
        traj = simulate_sgd(MONO, 0.9, NoiseSpec("rademacher", 1.0),
                            -0.2, 10, 2000, 3)
        z, _ = z_diagnostics(traj, frame)
        assert np.all((traj.values < 0) == (z < 0))
        assert np.all((traj.values == 0) == (z == 0))

    def test_step_correction_tends_to_one(self):
        frame = MeanFlowFrame("discrete", 2.0, 0.9)
        a = step_correction(frame, np.array([1e4, 1e5, 1e6]))
        assert np.all(np.abs(a - 1.0) < 0.01)
        closer = step_correction(frame, 1e6)
        assert abs(closer - 1.0) < abs(step_correction(frame, 1e4) - 1.0)

    def test_step_correction_requires_discrete_frame(self):
        with pytest.raises(ValueError):
            step_correction(MeanFlowFrame("continuous", 2.0), 10)
