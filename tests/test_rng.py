import itertools
import pickle

import numpy as np
import pytest

from saddlelab import continuous, discrete, rng
from saddlelab.analysis import ClassifierConfig, classify_stats
from saddlelab.experiments import ExperimentConfig, _build_runner
from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec
from saddlelab.rng import (Extremes, NonFiniteStateError, Record, chunk_ranges,
                           derive_seed, drive, make_rng)

from helpers import first_bad_step

SAMPLERS = {
    "standard_normal": lambda gen, size: gen.standard_normal(size),
    "uniform": lambda gen, size: gen.uniform(-1.0, 1.0, size=size),
    "random": lambda gen, size: gen.random(size),
    "integers": lambda gen, size: gen.integers(0, 2, size=size),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_streams_do_not_depend_on_chunk_size(name):
    # every simulator relies on this: a trial's draws are the same however
    # the driver cuts its stream into blocks
    sample = SAMPLERS[name]
    whole = sample(make_rng(derive_seed(3, 1)), 20_000)
    for chunk in (8192, 1000, 777, 1):
        gen = make_rng(derive_seed(3, 1))
        pieces = [sample(gen, b - a) for a, b in chunk_ranges(20_000, chunk)]
        assert np.array_equal(whole, np.concatenate(pieces)), chunk


def _stream_changed(what):
    return (f"numpy {np.__version__} draws another {what} stream from "
            "default_rng(20260810): NEP 19 lets a feature release change a "
            "Generator stream, and every pinned count rests on this one")


# the first values of fixed-seed streams, as numpy 2.4.6 draws them; every
# pin, criterion detail line and bench/pinned.json figure rests on them
def test_standard_normal_stream_known_answer():
    drawn = np.random.default_rng(20260810).standard_normal(4)
    expected = [float.fromhex(h) for h in (
        "0x1.f2608b096d120p-2", "-0x1.75cad87056e8ep+0",
        "-0x1.2cbabf5d9f2e8p-3", "-0x1.190592f106ab7p+0")]
    assert drawn.tolist() == expected, _stream_changed("standard_normal")


def test_float64_random_stream_known_answer():
    drawn = np.random.default_rng(20260810).random(4)
    expected = [float.fromhex(h) for h in (
        "0x1.40c0ed87903d8p-2", "0x1.6641738654834p-1",
        "0x1.4bd86dfdc2eaep-1", "0x1.dd533ac28b831p-1")]
    assert drawn.tolist() == expected, _stream_changed("float64 random")


def test_float32_random_stream_known_answer_and_its_top_bits():
    # NoiseSpec.fill's Rademacher bits are float32 uniforms >= 1/2, which
    # must be the bits integers(0, 2) draws from the same 32-bit halves
    drawn = np.random.default_rng(20260810).random(7, dtype=np.float32)
    expected = [float.fromhex(h) for h in (
        "0x1.c81ec8p-1", "0x1.40c0ecp-2", "0x1.520d28p-3", "0x1.664172p-1",
        "0x1.c2eaeap-1", "0x1.4bd86cp-1", "0x1.17063cp-2")]
    assert drawn.tolist() == expected, _stream_changed("float32 random")
    halves = np.random.default_rng(20260810).random(4097, dtype=np.float32) >= 0.5
    bits = np.random.default_rng(20260810).integers(0, 2, size=4097)
    assert np.array_equal(halves, bits), _stream_changed("integers(0, 2)")


SGD_DRIFT = DriftSpec("monomial", 3.0)


def _recorded_sgd_batch(noise, seeds):
    """sgd_batch over 300 steps with a Record of the leading four trials."""
    record = Record((4,), 300)
    stats = discrete.sgd_batch(SGD_DRIFT, 0.7, noise, -0.2, 10, 310, seeds,
                               tail_start=200.0, record=record)
    return stats, record


def test_counts_do_not_depend_on_parts_or_chunks(monkeypatch):
    spec = ProcessSpec(DriftSpec("monomial", 3.0),
                       NoiseSchedule("power_transformed", 0.7), t0=1.0, x0=-0.2)
    grid = continuous.TimeGrid(1.0, 3.0, 1e-2)
    seeds = [derive_seed(12, i) for i in range(10)]
    wide = continuous.em_batch(spec, grid, seeds, tail_start=2.5)
    urns = [discrete.UrnSpec("power", value=2.0), discrete.UrnSpec("identity"),
            discrete.UrnSpec("power", value=0.5),
            discrete.UrnSpec("table", table=(0.1, 0.7, 0.2, 0.9, 0.4))]
    finals = [discrete.urn_final_batch(urn, 300, seeds) for urn in urns]
    noises = [discrete.NoiseSpec("rademacher"), discrete.NoiseSpec("uniform_centered", 0.7)]
    sgd_wide = [_recorded_sgd_batch(noise, seeds) for noise in noises]
    monkeypatch.setattr(rng, "TRIAL_CAP", 3)
    monkeypatch.setattr(rng, "NOISE_CHUNK", 7)
    parted = continuous.em_batch(spec, grid, seeds, tail_start=2.5)
    for field in ("final", "max_value", "tail_abs_max"):
        assert np.array_equal(getattr(wide, field), getattr(parted, field))
    # the recursion's noise fills odd 7-step chunks, so a Rademacher fill
    # starts on a buffered half; the record's four rows span two parts, and
    # each part's windows are written into them at the trials' global indices
    for noise, (stats, record) in zip(noises, sgd_wide):
        parted_stats, parted_record = _recorded_sgd_batch(noise, seeds)
        for field in ("final", "max_value", "tail_abs_max"):
            assert np.array_equal(getattr(stats, field), getattr(parted_stats, field))
        assert np.array_equal(record.value, parted_record.value)
        for row, seed in zip(parted_record.value, seeds):
            single = discrete.simulate_sgd(SGD_DRIFT, 0.7, noise, -0.2, 10, 310, seed)
            assert np.array_equal(row, single.values)
    # the urn's parts of three, and the last part of one, each compute a
    # new red / total and comparison array per step at the part's width;
    # each trial's final is its single path's, for every state-dependent
    # feedback
    for urn, final in zip(urns, finals):
        assert np.array_equal(final, discrete.urn_final_batch(urn, 300, seeds))
        singles = [discrete.simulate_urn(urn, 300, seed).values[-1] for seed in seeds]
        assert np.array_equal(final, singles)


# the driver's window length, then windows of 1, 2 and 3 steps; windows of 2
# end inside chunks of 3 steps, and a chunk end always ends a window
WINDOWS = (rng._WINDOW, 1, 2, 3)


def test_observers_see_every_step_of_every_part(monkeypatch):
    monkeypatch.setattr(rng, "TRIAL_CAP", 2)
    monkeypatch.setattr(rng, "NOISE_CHUNK", 3)
    increments = np.arange(35.0).reshape(5, 7)

    def update(x, step, noise):
        x += noise

    expected = np.concatenate([np.zeros((5, 1)), np.cumsum(increments, axis=1)], axis=1)
    for window in WINDOWS:
        monkeypatch.setattr(rng, "_WINDOW", window)
        record, top = Record((5,), 7), Extremes(5, np.arange(8.0))
        final = drive(np.zeros(5), 7, update, [record, top], increments=increments)
        assert np.array_equal(record.value, expected), window
        assert np.array_equal(final, expected[:, -1]), window
        assert np.array_equal(top.max_value, expected.max(axis=1)), window


class _SeeLog:
    """An observer with only see: logs each call's (first, len(states), rows)."""

    def __init__(self):
        self.calls = []

    def see(self, states, first, rows):
        self.calls.append((first, len(states), list(rows)))


def test_one_see_method_gets_every_node_of_every_part_at_its_rows(monkeypatch):
    # parts of two trials, [0, 1], [2, 3] and [4], each seen from node 0
    monkeypatch.setattr(rng, "TRIAL_CAP", 2)
    monkeypatch.setattr(rng, "NOISE_CHUNK", 3)

    def update(x, step, noise):
        x += noise

    for window in WINDOWS:
        monkeypatch.setattr(rng, "_WINDOW", window)
        log = _SeeLog()
        drive(np.zeros(5), 7, update, [log], increments=np.ones((5, 7)))
        for part in ([0, 1], [2, 3], [4]):
            nodes = [first + j for first, n, rows in log.calls if rows == part
                     for j in range(n)]
            assert sorted(nodes) == list(range(8)), (window, part)
        assert all(rows in ([0, 1], [2, 3], [4]) for _, _, rows in log.calls)
        assert log.calls[0] == (0, 1, [0, 1])  # node 0 arrives through see


def test_first_violation_keeps_the_first_index(monkeypatch):
    # row 0 takes the increments, row 1 stays at 0.  Trial 0 first falls
    # below at node 6, in the middle of a window of 4 (nodes 5-8), recovers
    # and falls below again at node 10; trial 1 never does; trial 2 is
    # below from node 0 and trial 3 from the last node
    increments = np.zeros((4, 12))
    increments[0, [5, 6, 9]] = -1.0, 1.0, -1.0
    increments[3, 11] = -1.0

    def update(x, step, noise):
        x[0] += noise

    state = np.zeros((2, 4))
    state[0, 2] = -1.0
    for window in (*WINDOWS, 4):
        monkeypatch.setattr(rng, "_WINDOW", window)
        first = rng.FirstViolation(4)
        drive(state.copy(), 12, update, [first], increments=increments)
        assert first.value.tolist() == [6, -1, 0, 12], window


@pytest.mark.parametrize("tail_start, first_node", [
    (None, 0), (-1.0, 0), (2.0, 2), (2.5, 3), (7.5, 8)])
def test_extremes_tail_is_every_node_at_or_after_tail_start(monkeypatch, tail_start,
                                                            first_node):
    # node times 0, 1, ..., 7; the tail crosses parts of two trials and
    # chunks of three steps; past the last node the tail is empty (max 0)
    monkeypatch.setattr(rng, "TRIAL_CAP", 2)
    monkeypatch.setattr(rng, "NOISE_CHUNK", 3)
    increments = np.sin(np.arange(35.0)).reshape(5, 7)

    def update(x, step, noise):
        x += noise

    for window in WINDOWS:
        monkeypatch.setattr(rng, "_WINDOW", window)
        record, extremes = Record((5,), 7), Extremes(5, np.arange(8.0), tail_start)
        drive(np.full(5, 0.5), 7, update, [record, extremes], increments=increments)
        assert extremes.first_tail_node == first_node
        assert np.array_equal(extremes.max_value, record.value.max(axis=1)), window
        tail = np.abs(record.value[:, first_node:])
        assert np.array_equal(extremes.tail_abs_max,
                              tail.max(axis=1, initial=0.0)), window


def test_non_finite_error_names_first_step_over_all_parts(monkeypatch):
    monkeypatch.setattr(rng, "TRIAL_CAP", 2)
    monkeypatch.setattr(rng, "NOISE_CHUNK", 4)
    # trial j's state turns inf at step blowup[j]
    blowup = np.array([9, 6, 11, 3, 8])
    increments = np.where(np.arange(12) + 1 == blowup[:, None], np.inf, 0.0)

    def update(x, step, noise):
        x += noise

    with pytest.raises(NonFiniteStateError) as err:
        drive(np.zeros(5), 12, update, increments=increments)
    assert err.value.step_index == 3
    assert isinstance(err.value, RuntimeError)
    assert continuous.NonFiniteStateError is NonFiniteStateError


def test_non_finite_error_survives_pickling():
    # pool workers hand exceptions back pickled
    err = pickle.loads(pickle.dumps(NonFiniteStateError(9217)))
    assert err.step_index == 9217
    assert str(err) == str(NonFiniteStateError(9217))


def _irregular_ranges(n, lengths=(1, 2, 3, 8, 777, 1000, 8192)):
    """(start, stop) pairs covering range(n) in the given lengths, cycled."""
    start = 0
    for length in itertools.cycle(lengths):
        if start >= n:
            return
        stop = min(start + length, n)
        yield start, stop
        start = stop


# drive's samplers: name -> (sampler writing into out, the sized request
# it must match)
FILLS = {
    "standard_normal": (continuous._standard_normal,
                        lambda gen, size: gen.standard_normal(size)),
    "random": (discrete._uniform, lambda gen, size: gen.random(size)),
    "rademacher": (discrete.NoiseSpec("rademacher", 0.7).fill,
                   lambda gen, size: (2.0 * gen.integers(0, 2, size=size) - 1.0) * 0.7),
    "rademacher_M1": (discrete.NoiseSpec("rademacher", 1.0).fill,
                      lambda gen, size: (2.0 * gen.integers(0, 2, size=size) - 1.0) * 1.0),
    "uniform_centered": (discrete.NoiseSpec("uniform_centered", 0.7).fill,
                         lambda gen, size: gen.uniform(-0.7, 0.7, size=size)),
}
BUFFERED = "_half_buffered"


@pytest.mark.parametrize("name", [*FILLS, *(name + BUFFERED for name in FILLS)])
def test_drawing_into_the_buffer_gives_the_same_stream(name):
    # drive's samplers write into a row of its buffer (out=); the stream must
    # be the one a sized request draws, however it is cut; the noise families
    # are checked against the expressions they drew with before they wrote
    # in place.  An odd integers request leaves half of a PCG64 word
    # buffered, which the next 32-bit draw takes first; the fills must take
    # it too, on odd cuts as on even ones, and leave the same half behind
    draw, reference = FILLS[name.removesuffix(BUFFERED)]

    def start():
        gen = make_rng(derive_seed(3, 2))
        if name.endswith(BUFFERED):
            gen.integers(0, 2, size=3)
        return gen

    whole_gen = start()
    whole = reference(whole_gen, 20_000)
    after = whole_gen.integers(0, 2, size=5)
    cuts = [(chunk, chunk_ranges(20_000, chunk)) for chunk in (8192, 1000, 777, 1)]
    for chunk, ranges in cuts + [("irregular", _irregular_ranges(20_000))]:
        gen = start()
        out = np.empty(20_000)
        for a, b in ranges:
            draw(gen, out[a:b])
        assert np.array_equal(whole, out), chunk
        assert np.array_equal(after, gen.integers(0, 2, size=5)), chunk


def _seed_sequence_key(base, *indices) -> int:
    ss = np.random.SeedSequence(base, spawn_key=indices)
    return int(ss.generate_state(1, np.uint64)[0])


# bases of 1, 2, 4 and 5 32-bit words
BASES = [0, 20260810, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 7, 2**128 + 3]
LAST = np.array([0, 1, 2, 1000, 123_456_789, 2**31, 2**32 - 1])


@pytest.mark.parametrize("prefix", [(), (3,), (2**33, 5)], ids=str)
@pytest.mark.parametrize("base", BASES)
def test_derive_seed_is_seed_sequence(base, prefix):
    expected = [_seed_sequence_key(base, *prefix, int(i)) for i in LAST]
    assert [derive_seed(base, *prefix, int(i)) for i in LAST] == expected
    assert derive_seed(base, *prefix, LAST).tolist() == expected
    assert derive_seed(base, *prefix) == _seed_sequence_key(base, *prefix)


def test_derive_seed_types_and_range():
    key = derive_seed(7, 3)
    assert type(key) is int
    keys = derive_seed(7, np.arange(4))
    assert keys.dtype == np.uint64 and keys.shape == (4,)
    assert keys[3] == key
    assert derive_seed(7, np.arange(0)).shape == (0,)
    assert derive_seed(7, 2**40) == _seed_sequence_key(7, 2**40)  # scalars: any size
    for bad in ([2**32], [-1], [1.0]):
        with pytest.raises(ValueError):
            derive_seed(7, np.array(bad))
    with pytest.raises(ValueError):
        derive_seed(-1, 3)


KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seeds", [KEY_SEEDS, derive_seed(11, np.arange(1000))],
                         ids=["edges", "derived"])
def test_stream_keys_are_seed_sequence_words(seeds):
    keys = rng.stream_keys(seeds)
    assert len(keys) == len(seeds)
    for seed, key in zip(seeds, keys):
        expected = np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)
        assert np.array_equal(key.generate_state(4, np.uint64), expected)
        assert (make_rng(key).bit_generator.state
                == np.random.default_rng(int(seed)).bit_generator.state)


def test_stream_keys_of_no_seeds_and_other_requests():
    assert rng.stream_keys(np.array([], dtype=np.uint64)) == []
    (key,) = rng.stream_keys([5])
    assert np.array_equal(key.generate_state(4, "u8"), key.generate_state(4, np.uint64))
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError):
            key.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        key.generate_state(4)  # SeedSequence's default dtype is uint32


@pytest.mark.parametrize("chunk", [1, 3, 4, 7, 8, 9, 512, 8192])
@pytest.mark.parametrize("width", [1, 5, 256, 500, 1024])
def test_draw_buffer_rows_are_an_odd_number_of_lines_apart(width, chunk):
    buffer = rng._draw_buffer(width, chunk)
    assert buffer.shape == (width, chunk)
    pitch = buffer.strides[0]
    assert pitch % 64 == 0 and (pitch // 64) % 2 == 1
    assert pitch < 8 * chunk + 128
    assert all(row.flags.c_contiguous for row in buffer[:3])


def test_every_draw_buffer_holds_at_most_trial_cap_retire_chunks(monkeypatch):
    # classifying or not, a run's buffer is TRIAL_CAP x RETIRE_CHUNK draws at
    # most; narrower parts draw longer chunks, up to NOISE_CHUNK
    shapes = []
    draw_buffer = rng._draw_buffer

    def spy(width, chunk):
        shapes.append((width, chunk))
        return draw_buffer(width, chunk)

    monkeypatch.setattr(rng, "_draw_buffer", spy)

    def update(x, step, noise):
        x += noise

    n_steps = rng.NOISE_CHUNK + 1
    times = np.arange(n_steps + 1.0)
    for width in (1, 5, 500, 1024):
        for barrier in (None, 1e300):
            observers = [] if barrier is None else [Extremes(width, times)]
            drive(np.zeros(width), n_steps, update, observers,
                  seeds=derive_seed(64, np.arange(width)),
                  sample=lambda gen, out: gen.random(out=out), barrier=barrier)
            (shape,) = shapes
            assert shape == (width, min(rng.NOISE_CHUNK,
                                        rng.TRIAL_CAP * rng.RETIRE_CHUNK // width))
            assert width * shape[1] <= rng.TRIAL_CAP * rng.RETIRE_CHUNK
            shapes.clear()


def _retire_in_parts(monkeypatch, size):
    monkeypatch.setattr(rng, "TRIAL_CAP", size)
    monkeypatch.setattr(rng, "NOISE_CHUNK", size)
    monkeypatch.setattr(rng, "RETIRE_CHUNK", size)


def _assert_retirement_keeps_counts(full, retired, cfg):
    # escape is final, so the counts agree; a trial that never passed the
    # barrier was stepped to the horizon either way and agrees bit for bit
    assert (classify_stats(full.max_value, full.tail_abs_max, cfg)
            == classify_stats(retired.max_value, retired.tail_abs_max, cfg))
    stayed = full.max_value <= cfg.barrier
    assert np.array_equal(stayed, retired.max_value <= cfg.barrier)
    for field in ("final", "max_value", "tail_abs_max"):
        assert np.array_equal(getattr(full, field)[stayed],
                              getattr(retired, field)[stayed])


@pytest.mark.parametrize("size", [1, 3, 7])
@pytest.mark.parametrize("gamma", [0.6, 0.9])
def test_retired_em_counts_equal_full_stepping(monkeypatch, gamma, size):
    # k = 2: gamma 0.6 is below the threshold 3/4 (escape), 0.9 above it
    spec = ProcessSpec(DriftSpec("monomial", 2.0),
                       NoiseSchedule("power_transformed", gamma), t0=1.0, x0=-0.2)
    grid = continuous.TimeGrid(1.0, 12.0, 1e-2)
    config = ExperimentConfig(kind="monomial-dichotomy", t0=1.0, horizon=12.0)
    cfg = _build_runner(config, 2.0, gamma).cfg
    seeds = [derive_seed(61, i) for i in range(16)]
    tail = cfg.tail_start(1.0, 12.0)
    full = continuous.em_batch(spec, grid, seeds, tail_start=tail)
    _retire_in_parts(monkeypatch, size)
    retired = continuous.em_batch(spec, grid, seeds, tail_start=tail,
                                  barrier=cfg.barrier)
    _assert_retirement_keeps_counts(full, retired, cfg)
    escaped = full.max_value > cfg.barrier
    assert escaped.any() if gamma < 0.75 else not escaped.all()


@pytest.mark.parametrize("size", [1, 3, 7])
@pytest.mark.parametrize("gamma", [0.6, 0.9])
def test_retired_recursion_counts_equal_full_stepping(monkeypatch, gamma, size):
    drift = DriftSpec("monomial", 2.0, 1.0, 10.0)
    noise = discrete.NoiseSpec("rademacher")
    config = ExperimentConfig(kind="discrete-dichotomy", n0=10, steps=1200)
    cfg = _build_runner(config, 2.0, gamma).cfg
    seeds = [derive_seed(62, i) for i in range(16)]
    tail = cfg.tail_start(10, 1210)
    full = discrete.sgd_batch(drift, gamma, noise, -0.2, 10, 1210, seeds,
                              tail_start=tail)
    _retire_in_parts(monkeypatch, size)
    retired = discrete.sgd_batch(drift, gamma, noise, -0.2, 10, 1210, seeds,
                                 tail_start=tail, barrier=cfg.barrier)
    _assert_retirement_keeps_counts(full, retired, cfg)
    escaped = full.max_value > cfg.barrier
    assert escaped.any() if gamma < 0.75 else not escaped.all()


@pytest.mark.parametrize("cap", [5, 10])
@pytest.mark.parametrize("model", ["continuous", "discrete"])
def test_retired_trials_are_not_stepped(monkeypatch, model, cap):
    # every trial starts above the barrier, so it retires at the first chunk
    # end; five trials under a cap of ten draw chunks twice as long
    monkeypatch.setattr(rng, "TRIAL_CAP", cap)
    calls = []
    # the recursion steps as EM, so both models call continuous's drift_eval
    drift_eval = continuous.drift_eval

    def counted(spec, x):
        calls.append(len(x))
        return drift_eval(spec, x)

    monkeypatch.setattr(continuous, "drift_eval", counted)
    seeds = [derive_seed(63, i) for i in range(5)]
    if model == "continuous":
        spec = ProcessSpec(DriftSpec("monomial", 2.0),
                           NoiseSchedule("power_transformed", 0.9), t0=1.0, x0=5.0)
        out = continuous.em_batch(spec, continuous.TimeGrid(1.0, 31.0, 1e-2),
                                  seeds, barrier=3.0)
    else:
        out = discrete.sgd_batch(DriftSpec("monomial", 2.0), 0.9,
                                 discrete.NoiseSpec("rademacher"), 5.0, 10, 3010,
                                 seeds, barrier=3.0)
    assert 0 < len(calls) <= rng.RETIRE_CHUNK * cap // 5 < 3000
    assert np.all(out.max_value > 3.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_escaped_then_non_finite_is_decided_not_an_error(monkeypatch, bad):
    # chunks of 4 steps; trial 0 passes the barrier at step 2 and turns
    # non-finite at step 3, inside the same chunk; trial 1 turns inf at
    # step 6 from below the barrier; trial 2 stays at 0
    monkeypatch.setattr(rng, "TRIAL_CAP", 3)
    monkeypatch.setattr(rng, "RETIRE_CHUNK", 4)
    increments = np.zeros((3, 9))
    increments[0, 1], increments[0, 2] = 5.0, bad
    increments[1, 5] = np.inf

    def update(x, step, noise):
        x += noise

    with pytest.raises(NonFiniteStateError) as err:
        drive(np.zeros(3), 9, update, [Extremes(3, np.arange(10.0))],
              increments=increments, barrier=3.0)
    assert err.value.step_index == 6
    increments[1, 5] = 0.0
    top = Extremes(3, np.arange(10.0))
    final = drive(np.zeros(3), 9, update, [top], increments=increments, barrier=3.0)
    assert np.array_equal(final, [bad, 0.0, 0.0], equal_nan=True)
    assert top.max_value[0] > 3.0
    assert np.array_equal(top.max_value[1:], [0.0, 0.0])
    # without a barrier the same inf is an error at its own step
    with pytest.raises(NonFiniteStateError) as err:
        drive(np.zeros(3), 9, update, increments=increments)
    assert err.value.step_index == 3


def _recorded_and_plain(model, seeds, barrier, n_record):
    """A barrier run with a Record of the first n_record trials, the same
    run without it, and those trials' paths as the single-path simulator
    steps them."""
    if model == "continuous":
        spec = ProcessSpec(DriftSpec("monomial", 2.0),
                           NoiseSchedule("power_transformed", 0.6), t0=1.0, x0=-0.2)
        grid = continuous.TimeGrid(1.0, 12.0, 1e-2)
        n_steps, tail = grid.n_steps, 10.0

        def run(**kw):
            return continuous.em_batch(spec, grid, seeds, tail_start=tail, **kw)
        reference = [continuous.simulate_em(spec, grid,
                                            continuous.brownian_increments(grid, s))
                     for s in seeds[:n_record]]
    else:
        args = (DriftSpec("monomial", 2.0, 1.0, 10.0), 0.8,
                discrete.NoiseSpec("rademacher"), -0.2, 10, 1210)
        n_steps, tail = 1200, 970.0

        def run(**kw):
            return discrete.sgd_batch(*args, seeds, tail_start=tail, **kw)
        reference = [discrete.simulate_sgd(*args, s) for s in seeds[:n_record]]
    record = Record((n_record,), n_steps)
    return (run(barrier=barrier, record=record), run(barrier=barrier), record,
            np.array([traj.values for traj in reference]))


_CFG = ClassifierConfig(eps_conv=0.05, barrier=0.5)


@pytest.mark.parametrize("size", [None, 3])
@pytest.mark.parametrize("model", ["continuous", "discrete"])
def test_head_record_changes_no_count_and_records_whole_paths(monkeypatch, model,
                                                              size):
    # size 3 steps the trials in parts of three and retires every three
    # steps, so the five recorded trials span two parts
    if size is not None:
        _retire_in_parts(monkeypatch, size)
    seeds = derive_seed(64, np.arange(16))
    barrier = _CFG.barrier
    recorded, plain, record, reference = _recorded_and_plain(model, seeds, barrier, 5)
    assert (classify_stats(recorded.max_value, recorded.tail_abs_max, _CFG)
            == classify_stats(plain.max_value, plain.tail_abs_max, _CFG))
    for field in ("max_value", "tail_abs_max"):
        assert np.array_equal(getattr(recorded, field)[5:], getattr(plain, field)[5:])
    assert np.array_equal(record.value, reference)
    # windows that end inside a chunk change no value
    for window in WINDOWS[1:]:
        monkeypatch.setattr(rng, "_WINDOW", window)
        again, again_plain, again_record, _ = _recorded_and_plain(model, seeds,
                                                                  barrier, 5)
        for field in ("final", "max_value", "tail_abs_max"):
            assert np.array_equal(getattr(again, field), getattr(recorded, field))
            assert np.array_equal(getattr(again_plain, field), getattr(plain, field))
        assert np.array_equal(again_record.value, reference), window
    # some recorded trial crossed the barrier long before the horizon, so
    # without the record it would have retired; some never crossed
    crossed = (reference > barrier).any(axis=1)
    first = np.argmax(reference > barrier, axis=1)
    assert crossed.any() and not crossed.all()
    assert first[crossed].min() < reference.shape[1] // 2
    assert np.array_equal(recorded.max_value[:5], reference.max(axis=1))


def test_recorded_trial_non_finite_after_escape_is_an_error(monkeypatch):
    # as in test_escaped_then_non_finite_is_decided_not_an_error, trial 0
    # passes the barrier at step 2 and turns inf at step 3; recorded, it
    # counts, and the error names its step
    monkeypatch.setattr(rng, "TRIAL_CAP", 3)
    monkeypatch.setattr(rng, "RETIRE_CHUNK", 4)
    increments = np.zeros((3, 9))
    increments[0, 1], increments[0, 2] = 5.0, np.inf
    increments[2, 6] = np.inf

    def update(x, step, noise):
        x += noise

    with pytest.raises(NonFiniteStateError) as err:
        drive(np.zeros(3), 9, update, [Extremes(3, np.arange(10.0)), Record((1,), 9)],
              increments=increments, barrier=3.0)
    assert err.value.step_index == 3
    # unrecorded, trial 0 is decided; trial 2 still fails at its own step
    with pytest.raises(NonFiniteStateError) as err:
        drive(np.zeros(3), 9, update, [Extremes(3, np.arange(10.0))],
              increments=increments, barrier=3.0)
    assert err.value.step_index == 7


def test_recorded_recursion_overflow_names_the_paths_step():
    # x0 = 5 starts above the barrier and x^2 overflows within a few steps
    args = (DriftSpec("monomial", 2.0, 1.0, 1e200), 0.6,
            discrete.NoiseSpec("rademacher"), 5.0, 10, 2010)
    seeds = derive_seed(65, np.arange(4))
    alone = [first_bad_step(discrete.simulate_sgd, *args, s) for s in seeds[:2]]
    with pytest.raises(NonFiniteStateError) as err:
        discrete.sgd_batch(*args, seeds, barrier=3.0, record=Record((2,), 2000))
    assert err.value.step_index == min(alone)
    out = discrete.sgd_batch(*args, seeds, barrier=3.0)
    assert np.all(out.max_value > 3.0)
