import pickle

import numpy as np
import pytest

from saddlelab import continuous, discrete, rng
from saddlelab.model import DriftSpec, NoiseSchedule, ProcessSpec
from saddlelab.rng import (Extremes, NonFiniteStateError, Record, chunk_ranges,
                           derive_seed, drive, make_rng)

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


def test_counts_do_not_depend_on_parts_or_chunks(monkeypatch):
    spec = ProcessSpec(DriftSpec("monomial", 3.0),
                       NoiseSchedule("power_transformed", 0.7), t0=1.0, x0=-0.2)
    grid = continuous.TimeGrid(1.0, 3.0, 1e-2)
    seeds = [derive_seed(12, i) for i in range(10)]
    wide = continuous.em_batch(spec, grid, seeds, tail_start=2.5)
    urn = discrete.urn_final_batch(discrete.UrnSpec("power", value=2.0), 300, seeds)
    monkeypatch.setattr(rng, "TRIAL_CAP", 3)
    monkeypatch.setattr(rng, "NOISE_CHUNK", 7)
    parted = continuous.em_batch(spec, grid, seeds, tail_start=2.5)
    for field in ("final", "max_value", "tail_abs_max"):
        assert np.array_equal(getattr(wide, field), getattr(parted, field))
    assert np.array_equal(urn, discrete.urn_final_batch(
        discrete.UrnSpec("power", value=2.0), 300, seeds))


def test_observers_see_every_step_of_every_part(monkeypatch):
    monkeypatch.setattr(rng, "TRIAL_CAP", 2)
    monkeypatch.setattr(rng, "NOISE_CHUNK", 3)
    increments = np.arange(35.0).reshape(5, 7)

    def update(x, step, noise):
        x += noise

    record, top = Record((5,), 7), Extremes(5, np.arange(8.0))
    final = drive(np.zeros(5), 7, update, [record, top], increments=increments)
    expected = np.concatenate([np.zeros((5, 1)), np.cumsum(increments, axis=1)], axis=1)
    assert np.array_equal(record.value, expected)
    assert np.array_equal(final, expected[:, -1])
    assert np.array_equal(top.max_value, expected.max(axis=1))


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

    record, extremes = Record((5,), 7), Extremes(5, np.arange(8.0), tail_start)
    drive(np.full(5, 0.5), 7, update, [record, extremes], increments=increments)
    assert extremes.first_tail_node == first_node
    assert np.array_equal(extremes.max_value, record.value.max(axis=1))
    tail = np.abs(record.value[:, first_node:])
    assert np.array_equal(extremes.tail_abs_max, tail.max(axis=1, initial=0.0))


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
