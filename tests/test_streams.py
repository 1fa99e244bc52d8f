"""Named RNG streams: stable values, rejected labels, the documented padding rule."""

import pytest

from dispo.streams import stream


def draws(rng):
    return rng.integers(0, 2**32, 3).tolist()


def test_existing_streams_keep_their_values():
    assert draws(stream(0, "rollout", 1, 0, 2)) == [371586872, 1167783025, 3767398975]
    assert draws(stream(7, "x", 2**32 - 1)) == [1200954714, 610041647, 2761525093]


def test_labels_of_32_bits_or_more_are_rejected():
    # such a label would split into two words: stream(7, "x", 2**32) was stream(7, "x", 0, 1)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        stream(7, "x", 2**32)
    with pytest.raises(ValueError):
        stream(7, "x", -1)
    with pytest.raises(TypeError):
        stream(7, 1.5)


def test_trailing_zeros_collide_only_inside_the_seed_pool():
    # SeedSequence zero-pads to four words: the documented exception
    assert draws(stream(1)) == draws(stream(1, 0)) == draws(stream(1, 0, 0, 0))
    # a string label fills the pool, so a trailing zero after it is a new stream
    assert draws(stream(1, "x")) != draws(stream(1, "x", 0))
    assert draws(stream(1, "x", 0)) != draws(stream(1, "x", 0, 0))
