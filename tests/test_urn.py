import math

import numpy as np
import pytest

from saddlelab.discrete import (UrnSpec, _urn_red_counts, simulate_urn,
                                urn_as_sgd_check, urn_final_batch)
from saddlelab.rng import RETIRE_CHUNK, TRIAL_CAP, Extremes, derive_seed, make_rng

from helpers import traced_peak, urn_audit_reference, urn_feedback_reference

# one urn per feedback kind, power at an exponent below and above 1
FEEDBACKS = {
    "constant": UrnSpec("constant", value=0.3, red0=2, total0=5),
    "identity": UrnSpec("identity", red0=2, total0=5),
    "power-0.5": UrnSpec("power", value=0.5, red0=2, total0=5),
    "power-1.7": UrnSpec("power", value=1.7, red0=2, total0=5),
    "table": UrnSpec("table", table=(0.1, 0.7, 0.2, 0.9, 0.4), red0=2, total0=5),
}


class TestUrnSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            UrnSpec("mystery")
        with pytest.raises(ValueError):
            UrnSpec("constant", value=1.5)
        with pytest.raises(ValueError):
            UrnSpec("table", table=(0.2,))
        # NaN fails both bounds' tests, so it must fail the in-range one
        with pytest.raises(ValueError):
            UrnSpec("table", table=(0.5, math.nan))
        with pytest.raises(ValueError):
            UrnSpec("identity", red0=0, total0=2)
        with pytest.raises(ValueError):
            UrnSpec("identity", red0=2, total0=2)

    def test_feedback_shapes(self):
        assert UrnSpec("constant", value=0.3).f(0.9) == 0.3
        assert UrnSpec("identity").f(0.4) == 0.4
        assert UrnSpec("power", value=2.0).f(0.5) == 0.25
        tab = UrnSpec("table", table=(0.0, 1.0))
        assert tab.f(0.25) == pytest.approx(0.25)

    @pytest.mark.parametrize("kind", sorted(FEEDBACKS))
    def test_resolved_feedback_equals_the_expressions(self, kind):
        # f and the callable a run resolves once give the per-kind
        # expressions' values bit for bit (signed zeros included), and f
        # their types: a float for scalar and 0-d input, else an array
        spec = FEEDBACKS[kind]
        resolved = spec.feedback()
        arrays = [np.array([0.0, -0.0, 1e-300, 0.25, 1 / 3, 0.5, 1 - 2 ** -53, 1.0]),
                  make_rng(3).random((4, 5)), np.empty(0)]
        for x in arrays + [0.37, 1, np.array(0.37), [0.2, 0.8]]:
            got, want = spec.f(x), urn_feedback_reference(spec, x)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for x in arrays:
            got = np.broadcast_to(resolved(x), x.shape)
            assert got.tobytes() == urn_feedback_reference(spec, x).tobytes()


class TestUrnDynamics:
    def test_always_add_red_converges_to_one(self):
        run = simulate_urn(UrnSpec("constant", value=1.0, red0=1, total0=2),
                           1000, 0)
        vals = run.values
        n = run.times
        # one red of two, then every ball red: X_n = (n-1)/n, increasing to 1
        assert np.array_equal(vals, (n - 1.0) / n)
        assert np.all(np.diff(vals) > 0)

    def test_state_stays_inside_unit_interval(self):
        run = simulate_urn(UrnSpec("identity", red0=1, total0=3), 5000, 8)
        assert np.all(run.values > 0.0)
        assert np.all(run.values < 1.0)

    def test_values_are_exact_integer_ratios(self):
        run = simulate_urn(UrnSpec("identity", red0=2, total0=5), 500, 4)
        vals = run.values
        totals = run.times
        reds = vals * totals
        assert np.allclose(reds, np.round(reds), atol=1e-9)
        assert np.array_equal(vals, np.round(reds) / totals)

    def test_determinism_and_batch_equality(self):
        seeds = [derive_seed(66, i) for i in range(5)]
        for spec in (UrnSpec("power", value=2.0, red0=3, total0=7),
                     UrnSpec("identity", red0=3, total0=7)):
            finals = urn_final_batch(spec, 2000, seeds)
            for i, s in enumerate(seeds):
                run = simulate_urn(spec, 2000, s)
                assert run.values[-1] == finals[i]

    @pytest.mark.parametrize("value", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("steps", [0, 1, 20_000])
    def test_constant_counts_equal_the_stepped_urn(self, value, steps):
        # constant feedback counts u < value over each stream; an observer
        # sends the same urns through the stepping driver instead
        spec = UrnSpec("constant", value=value, red0=2, total0=5)
        seeds = [derive_seed(905, i) for i in range(4)]
        counted = _urn_red_counts(spec, 5 + steps, seeds)
        stepped = _urn_red_counts(spec, 5 + steps, seeds,
                                  [Extremes(4, np.arange(steps + 1.0))])
        assert np.array_equal(counted, stepped)
        assert np.array_equal(urn_final_batch(spec, 5 + steps, seeds),
                              stepped / (5 + steps))

    def test_state_feedback_draws_into_one_bounded_buffer(self):
        # 1024 urns x 3,000 steps: the draw buffer is at most TRIAL_CAP x
        # RETIRE_CHUNK doubles, not 1024 x 3,000
        seeds = derive_seed(5, np.arange(1024))
        finals, peak = traced_peak(
            lambda: urn_final_batch(UrnSpec("identity"), 3002, seeds))
        assert np.all((finals > 0) & (finals < 1))
        assert peak < 2 * TRIAL_CAP * RETIRE_CHUNK * 8


class TestUrnAsSgd:
    def test_identity_feedback_pathwise_equal(self):
        rep = urn_as_sgd_check(UrnSpec("identity", red0=2, total0=5), 1005, 1)
        assert rep.pathwise_equal
        assert rep.max_abs_gap < 1e-12

    def test_constant_half_pathwise_equal(self):
        rep = urn_as_sgd_check(UrnSpec("constant", value=0.5), 1002, 2)
        assert rep.pathwise_equal

    def test_random_tables_pathwise_equal(self):
        rng = make_rng(5)
        for i in range(3):
            table = tuple(np.round(rng.random(7), 6))
            rep = urn_as_sgd_check(UrnSpec("table", table=table, red0=2,
                                           total0=6), 1006, derive_seed(7, i))
            assert rep.pathwise_equal, f"diverged at {rep.first_divergence}"

    @pytest.mark.parametrize("kind", sorted(FEEDBACKS))
    def test_audit_equals_the_array_loop(self, kind):
        # the audit steps X' on floats; the array loop's gaps and first
        # divergence come out bit for bit, also at a tolerance of 0, where
        # the first rounding difference is the divergence
        spec = FEEDBACKS[kind]
        n_end = spec.total0 + 400
        for i in range(10):
            seed = derive_seed(904, i)
            for tolerance in (1e-12, 0.0):
                rep = urn_as_sgd_check(spec, n_end, seed, tolerance)
                assert (rep.max_abs_gap, rep.first_divergence) == urn_audit_reference(
                    spec, n_end, seed, tolerance), (seed, tolerance)
            assert rep.first_divergence is not None

    def test_horizon_below_the_start_is_an_error(self):
        spec = UrnSpec("identity", red0=2, total0=5)
        with pytest.raises(ValueError, match="below the starting ball count"):
            urn_as_sgd_check(spec, 4, 1)
        # no draw at all: nothing to compare, nothing diverges
        rep = urn_as_sgd_check(spec, 5, 1)
        assert rep.max_abs_gap == 0.0 and rep.pathwise_equal


class TestUrnStatistics:
    def test_polya_martingale_mean(self):
        spec = UrnSpec("identity", red0=3, total0=10)
        seeds = [derive_seed(90, i) for i in range(5000)]
        finals = urn_final_batch(spec, 1500, seeds)
        se = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean() - 0.3) <= 4 * se

    def test_constant_half_concentrates(self):
        spec = UrnSpec("constant", value=0.5, red0=1, total0=2)
        seeds = [derive_seed(91, i) for i in range(1000)]
        finals = urn_final_batch(spec, 20_000, seeds)
        assert (np.abs(finals - 0.5) < 0.05).mean() >= 0.95
