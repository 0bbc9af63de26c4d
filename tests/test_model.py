import dataclasses
import math
import pickle

import numpy as np
import pytest

from saddlelab.cli import make_manifest
from saddlelab.experiments import ExperimentConfig, _build_runner
from saddlelab.model import (DriftSpec, MeanFlowFrame, NoiseSchedule,
                             ProcessSpec, drift_eval, gamma_threshold,
                             mean_flow_h, time_change_exp,
                             time_change_exp_inverse, time_change_power,
                             time_change_power_inverse, z_coordinate)

from helpers import one_expression_drift


def test_linear_drift_value():
    spec = DriftSpec("linear", 0.8)
    assert drift_eval(spec, -0.5) == pytest.approx(0.4)


def test_monomial_drift_value_and_cap():
    spec = DriftSpec("monomial", 2.0, 1.0, 10.0)
    assert drift_eval(spec, -3.0) == pytest.approx(9.0)
    # above the cap the drift freezes at cap^k
    assert drift_eval(spec, 100.0) == pytest.approx(100.0)
    assert drift_eval(spec, 10.0) == drift_eval(spec, 1e9)


def test_drift_even_nonnegative_monotone():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-50, 50, 200)
    for spec in (DriftSpec("linear", 0.7), DriftSpec("monomial", 2.5, 0.8, 4.0)):
        f = drift_eval(spec, xs)
        assert np.all(f >= 0)
        assert np.allclose(f, drift_eval(spec, -xs))
        assert drift_eval(spec, 0.0) == 0.0
        grid = np.linspace(0, spec.cap, 100)
        diffs = np.diff(drift_eval(spec, grid))
        assert np.all(diffs >= -1e-12)


@pytest.mark.parametrize("spec", [DriftSpec("linear", 0.3)] + [
    DriftSpec("monomial", k, c, 0.5) for k in (1.5, 2.0, 3.0) for c in (1.0, 0.7)],
    ids=lambda spec: f"{spec.family}-k{spec.k:g}-c{spec.c:g}")
def test_drift_eval_in_place_gives_the_one_expression_values(spec):
    xs = np.random.default_rng(4).uniform(-3.0, 3.0, 257)
    xs[:3] = 0.0, -0.0, spec.cap        # the origin and the cap itself
    kept = xs.copy()
    for x in (xs, xs.astype(np.float32), np.arange(-3, 4), xs[::3]):
        got, expected = drift_eval(spec, x), one_expression_drift(spec, x)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert not np.shares_memory(got, x)
    assert np.array_equal(xs, kept)
    for x in (-1.7, 0.25, spec.cap, np.float64(-0.4), np.array(2.0), np.array(-0.1)):
        got, expected = drift_eval(spec, x), one_expression_drift(spec, x)
        assert type(got) is type(expected)
        assert got == expected


@pytest.mark.parametrize("c", [1.0, 0.7])
@pytest.mark.parametrize("cap", [0.5, 0.7, 10.0, 1e160, 1e300])
def test_drift_eval_on_float64_edges_gives_the_one_expression_values(cap, c):
    # float64 arrays take the 0-d operands, and k = 2 takes min(x * x,
    # cap * cap): the inputs are where that form could part from
    # min(|x|, cap)^2, and past 1.34e154 the square overflows first
    tiny = np.finfo(float).smallest_subnormal
    near = np.nextafter(cap, [0.0, np.inf])
    xs = np.array([0.0, -0.0, tiny, -tiny, 2.0 ** -1030, np.inf, -np.inf, np.nan,
                   cap, -cap, *near, *-near, math.sqrt(cap), 0.5 * cap,
                   1.34e154, -1.35e154, 1e300, -np.finfo(float).max])
    kept = xs.copy()
    specs = [DriftSpec("linear", 0.3, c, cap)] + [
        DriftSpec("monomial", k, c, cap) for k in (2.0, 3.0, 1.5)]
    with np.errstate(over="ignore"):
        for spec in specs:
            got, expected = drift_eval(spec, xs), one_expression_drift(spec, xs)
            assert got.dtype == expected.dtype == np.float64
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert np.array_equal(xs, kept, equal_nan=True)


def test_drift_operands_are_cached_read_only_and_not_fields():
    spec, plain = DriftSpec("monomial", 2.0, 0.7, 3.0), DriftSpec("monomial", 2.0, 0.7, 3.0)
    values = {"k_operand": 2.0, "cap_operand": 3.0, "cap_squared_operand": 9.0}
    for name, value in values.items():
        operand = getattr(spec, name)
        assert operand is getattr(spec, name)
        assert operand.shape == () and operand.dtype == np.float64 and operand == value
        with pytest.raises(ValueError):
            operand[...] = 0.0
    assert spec == plain and hash(spec) == hash(plain) and repr(spec) == repr(plain)
    assert dataclasses.asdict(spec) == {"family": "monomial", "k": 2.0, "c": 0.7, "cap": 3.0}
    # a pool worker gets the spec pickled: the fields alone, its operands
    # built again, read-only, on first use
    sent = pickle.loads(pickle.dumps(spec))
    assert sent == spec and not set(values) & set(vars(sent))
    for name, value in values.items():
        assert getattr(sent, name) == value and not getattr(sent, name).flags.writeable
    # replace builds a new spec, whose operands follow its own fields
    wider = dataclasses.replace(spec, k=3.0, cap=5.0)
    assert (wider.k_operand, wider.cap_operand, wider.cap_squared_operand) == (3.0, 5.0, 25.0)
    # a run's manifest holds the config's fields, whatever its specs cached
    config = ExperimentConfig(kind="discrete-dichotomy", n0=10, steps=100, trials=4)
    drift = _build_runner(config, 2.0, 0.9).spec.drift
    drift_eval(drift, np.zeros(4))
    assert "cap_squared_operand" in vars(drift)
    manifest = make_manifest(config, {}, 0.0)
    assert manifest["config"] == config.to_dict()
    assert set(manifest["config"]) == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_plain_float64_arrays_go_through_the_cached_kernel():
    spec = DriftSpec("monomial", 2.0, 0.7, 3.0)
    state = np.random.default_rng(5).uniform(-5.0, 5.0, (2, 9))
    drift_eval(spec, state[0])
    kernel = vars(spec)["kernel"]
    assert kernel is spec.kernel
    # a kernel put in its place is what a plain float64 array with an axis
    # gets, a row and a strided view included; nothing else reaches it here
    marker = np.zeros(1)
    vars(spec)["kernel"] = lambda x: marker
    for x in (state, state[1], state[0, ::2]):
        assert drift_eval(spec, x) is marker
    for x in (state.astype(np.float32), np.arange(-3, 4), np.array(2.0), -1.5):
        assert drift_eval(spec, x) is not marker
    del vars(spec)["kernel"]
    assert np.array_equal(drift_eval(spec, state), one_expression_drift(spec, state))


@pytest.mark.parametrize("c", [1.0, 0.7])
@pytest.mark.parametrize("cap", [0.5, 0.7, 10.0, 1e160, 1e300])
@pytest.mark.parametrize("family, k", [("linear", 0.3), ("monomial", 2.0),
                                       ("monomial", 3.0)])
def test_kernel_gives_the_one_expression_values(family, k, cap, c):
    # the edge inputs of the float64 test above, on the kernel itself: each
    # branch (linear, fused k = 2, min-then-power, the c multiply) must be
    # the one its spec's fields call for
    tiny = np.finfo(float).smallest_subnormal
    near = np.nextafter(cap, [0.0, np.inf])
    xs = np.array([0.0, -0.0, tiny, -tiny, 2.0 ** -1030, np.inf, -np.inf, np.nan,
                   cap, -cap, *near, *-near, math.sqrt(cap), 0.5 * cap, 0.37,
                   -1.9, 1.34e154, -1.35e154, 1e300, -np.finfo(float).max])
    kept = xs.copy()
    spec = DriftSpec(family, k, c, cap)
    with np.errstate(over="ignore"):
        got, expected = spec.kernel(xs), one_expression_drift(spec, xs)
    assert got.dtype == expected.dtype == np.float64
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert np.array_equal(xs, kept, equal_nan=True) and not np.shares_memory(got, xs)


class Tagged(np.ndarray):
    """An ndarray subclass, which drift_eval's plain-array test turns away."""


@pytest.mark.parametrize("spec", [DriftSpec("linear", 0.3)] + [
    DriftSpec("monomial", k, c, 0.5) for k in (2.0, 3.0) for c in (1.0, 0.7)],
    ids=lambda spec: f"{spec.family}-k{spec.k:g}-c{spec.c:g}")
def test_drift_eval_off_the_plain_float64_test_keeps_its_values(spec):
    xs = np.random.default_rng(6).uniform(-3.0, 3.0, 65)
    xs[:3] = 0.0, -0.0, spec.cap
    # a subclass, a byte-swapped float64, an unpickled array (its float64
    # dtype is not numpy's canonical one), float32, integers, 0-d, scalars
    inputs = [xs.view(Tagged), xs.astype(xs.dtype.newbyteorder()),
              pickle.loads(pickle.dumps(xs)), xs.astype(np.float32),
              np.arange(-3, 4), np.array(-0.4), np.float64(1.3), 2]
    for x in inputs:
        got, expected = drift_eval(spec, x), one_expression_drift(spec, x)
        assert type(got) is type(expected)
        assert np.asarray(got).dtype == np.asarray(expected).dtype
        assert np.array_equal(got, expected)


def test_kernel_is_cached_and_not_a_field():
    spec, plain = DriftSpec("monomial", 3.0, 0.7, 2.0), DriftSpec("monomial", 3.0, 0.7, 2.0)
    assert spec.kernel is spec.kernel and "kernel" in vars(spec)
    assert spec == plain and hash(spec) == hash(plain) and repr(spec) == repr(plain)
    assert dataclasses.asdict(spec) == {"family": "monomial", "k": 3.0, "c": 0.7, "cap": 2.0}
    # a pool worker gets the fields alone and builds its own kernel
    sent = pickle.loads(pickle.dumps(spec))
    assert sent == spec and "kernel" not in vars(sent)
    xs = np.linspace(-4.0, 4.0, 33)
    assert np.array_equal(sent.kernel(xs), spec.kernel(xs))
    # replace builds a new spec, whose kernel follows its own fields
    squared = dataclasses.replace(spec, k=2.0, c=1.0)
    assert "kernel" not in vars(squared) and squared.kernel is not spec.kernel
    assert np.array_equal(squared.kernel(xs), one_expression_drift(squared, xs))


def test_drift_validation():
    with pytest.raises(ValueError):
        DriftSpec("linear", 0.0)
    with pytest.raises(ValueError):
        DriftSpec("monomial", 1.0)
    with pytest.raises(ValueError):
        DriftSpec("monomial", 2.0, c=-1.0)
    with pytest.raises(ValueError):
        DriftSpec("cubic", 2.0)


def test_noise_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule("power_gamma", 0.5)
    with pytest.raises(ValueError):
        NoiseSchedule("power_transformed", 1.0)
    with pytest.raises(ValueError):
        NoiseSchedule("white", 0.9)
    NoiseSchedule("power_gamma", 1.0)


def test_noise_schedule_positive_decreasing():
    t = np.linspace(1.0, 50.0, 200)
    for sched in (NoiseSchedule("power_gamma", 0.7), NoiseSchedule("exp_half"),
                  NoiseSchedule("power_transformed", 0.9)):
        g = sched.g(t)
        assert np.all(g > 0)
        assert np.all(np.diff(g) < 0)


def test_drift_weight_by_frame():
    t = np.array([1.0, 4.0])
    raw = NoiseSchedule("power_gamma", 0.8)
    assert np.allclose(raw.drift_weight(t), t ** -0.8)
    assert np.allclose(raw.g(t), t ** -0.8)
    for sched in (NoiseSchedule("exp_half"), NoiseSchedule("power_transformed", 0.9)):
        assert np.allclose(sched.drift_weight(t), 1.0)


def test_process_spec_domain_start():
    exp = NoiseSchedule("exp_half")
    ProcessSpec(DriftSpec("linear", 0.8), exp, t0=0.0, x0=-1.0)
    with pytest.raises(ValueError):
        ProcessSpec(DriftSpec("linear", 0.8), NoiseSchedule("power_gamma", 0.9),
                    t0=0.0, x0=-1.0)


def test_time_change_power_values():
    assert time_change_power(8.0, 2.0 / 3.0) == pytest.approx(512.0, rel=1e-12)
    assert time_change_power(1.0, 0.75) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        time_change_power(4.0, 1.0)
    with pytest.raises(ValueError):
        time_change_power(0.5, 0.75)


def test_time_change_round_trips():
    rng = np.random.default_rng(11)
    t = rng.uniform(1.0, 1e4, 100)
    for gamma in (0.55, 0.75, 0.95):
        back = time_change_power_inverse(time_change_power(t, gamma), gamma)
        assert np.allclose(back, t, rtol=1e-12)
    s = rng.uniform(0.0, 30.0, 100)
    assert np.allclose(time_change_exp_inverse(time_change_exp(s)), s, rtol=1e-12)


def test_time_change_exp_values():
    assert time_change_exp(0.0) == 1.0
    assert time_change_exp(math.log(10.0)) == pytest.approx(10.0, rel=1e-12)


def test_time_change_strictly_increasing():
    t = np.linspace(1.0, 100.0, 500)
    for gamma in (0.6, 0.9):
        assert np.all(np.diff(time_change_power(t, gamma)) > 0)
    assert np.all(np.diff(time_change_exp(np.linspace(0, 10, 200))) > 0)


def test_mean_flow_values():
    cont = MeanFlowFrame("continuous", 2.0)
    assert mean_flow_h(cont, 4.0) == pytest.approx(-0.25)
    discr = MeanFlowFrame("discrete", 2.0, 0.9)
    assert mean_flow_h(discr, 1024.0) == pytest.approx(-0.5, rel=1e-12)


def test_mean_flow_negative_increasing_to_zero():
    t = np.linspace(1.0, 1e5, 300)
    for frame in (MeanFlowFrame("continuous", 3.0),
                  MeanFlowFrame("discrete", 2.0, 0.7)):
        h = mean_flow_h(frame, t)
        assert np.all(h < 0)
        assert np.all(np.diff(h) > 0)
        assert abs(h[-1]) < abs(h[0])


def test_mean_flow_ode_identity():
    # forward difference of h matches |h|^k/(k-1) to first order in dt
    frame = MeanFlowFrame("continuous", 2.0)
    dt = 1e-3
    t = np.linspace(1.0, 100.0, 500)
    fd = (mean_flow_h(frame, t + dt) - mean_flow_h(frame, t)) / dt
    rhs = np.abs(mean_flow_h(frame, t)) ** frame.k / (frame.k - 1.0)
    # |h''| <= 2 on [1, inf) for k = 2, so the FD error is below dt
    assert np.max(np.abs(fd - rhs)) <= 1.05 * dt


def test_mean_flow_validation():
    with pytest.raises(ValueError):
        MeanFlowFrame("continuous", 1.0)
    with pytest.raises(ValueError):
        MeanFlowFrame("discrete", 2.0, 1.0)
    with pytest.raises(ValueError):
        mean_flow_h(MeanFlowFrame("continuous", 2.0), 0.5)


def test_z_coordinate():
    frame = MeanFlowFrame("continuous", 2.0)
    t = 7.0
    h = mean_flow_h(frame, t)
    assert z_coordinate(h, frame, t) == pytest.approx(-1.0)
    assert z_coordinate(0.0, frame, t) == 0.0
    assert z_coordinate(-2.0 * abs(h), frame, t) == pytest.approx(-2.0)
    assert z_coordinate(-1e-3, frame, t) < 0


def test_gamma_threshold_values():
    assert gamma_threshold(2.0) == pytest.approx(0.75)
    assert gamma_threshold(1.0) == pytest.approx(1.0)
    assert gamma_threshold(1e9) == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(ValueError):
        gamma_threshold(0.9)


def test_gamma_threshold_decreasing_with_range():
    ks = np.linspace(1.0, 500.0, 400)
    vals = np.array([gamma_threshold(k) for k in ks])
    assert np.all(np.diff(vals) < 0)
    assert vals.max() == 1.0
    assert np.all(vals > 0.5)
