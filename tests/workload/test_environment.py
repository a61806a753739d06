"""Unit tests for the synthetic environment."""

import hashlib
import math
import struct

from repro.workload.environment import EnvironmentModel


def uncached_value(seed, object_id, t):
    """The signal formula with every digest recomputed (the reference)."""
    digest = hashlib.sha256(f"{seed}:env:{object_id}".encode()).digest()
    frequency = 0.1 + (digest[0] / 255.0) * 4.9
    amplitude = 1.0 + (digest[1] / 255.0) * 99.0
    phase = (digest[2] / 255.0) * 2.0 * math.pi
    noise_digest = hashlib.sha256(
        f"{seed}:noise:{object_id}:{int(t * 1000.0)}".encode()).digest()
    noise = (noise_digest[0] / 255.0 - 0.5) * 0.01
    return amplitude * math.sin(2.0 * math.pi * frequency * t + phase) + noise


def test_cached_parameters_give_the_uncached_values_bit_for_bit():
    for seed in (0, 1, 13):
        env = EnvironmentModel(seed=seed)
        for t in (0.0, 0.0203, 1.5, 7.25, 99.999):
            for object_id in (0, 1, 7, 63):
                assert env.value(object_id, t) == uncached_value(
                    seed, object_id, t)


def test_values_are_deterministic():
    a = EnvironmentModel(seed=1)
    b = EnvironmentModel(seed=1)
    for object_id in range(5):
        for t in (0.0, 0.123, 7.5):
            assert a.value(object_id, t) == b.value(object_id, t)


def test_different_seeds_differ():
    a = EnvironmentModel(seed=1)
    b = EnvironmentModel(seed=2)
    assert a.value(0, 1.0) != b.value(0, 1.0)


def test_different_objects_differ():
    env = EnvironmentModel(seed=1)
    assert env.value(0, 1.0) != env.value(1, 1.0)


def test_signal_varies_over_time():
    env = EnvironmentModel(seed=1)
    samples = {round(env.value(0, t), 9) for t in
               (0.0, 0.1, 0.2, 0.3, 0.4)}
    assert len(samples) > 1


def test_sample_respects_size_exactly():
    env = EnvironmentModel(seed=1)
    for size in (1, 8, 16, 64, 1000):
        assert len(env.sample(0, 1.0, size)) == size


def test_sample_embeds_value_for_full_sizes():
    env = EnvironmentModel(seed=1)
    sample = env.sample(3, 2.5, 64)
    (value,) = struct.unpack("!d", sample[:8])
    assert value == env.value(3, 2.5)


def test_sample_padding_is_deterministic():
    env = EnvironmentModel(seed=1)
    assert env.sample(0, 1.0, 256) == env.sample(0, 1.0, 256)
