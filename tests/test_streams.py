"""Named RNG streams: stable values, rejected labels, the documented padding rule."""

import hashlib

import numpy as np
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


def reference_stream(root, *path):
    """The path as a list of Python ints, handed to numpy as it is."""
    words = [int(root)]
    for label in path:
        if isinstance(label, str):
            digest = hashlib.sha256(label.encode("utf-8")).digest()
            words.extend(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
        else:
            words.append(int(label))
    return np.random.default_rng(np.random.SeedSequence(words))


def test_streams_equal_the_seed_sequence_of_their_word_list():
    rng = np.random.default_rng(12)
    labels = ["rollout", "loss", "trcov-patterns", "", "é", "x" * 40]
    roots = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, np.uint64(7), np.int32(9)]
    for case in range(300):
        root = roots[case % len(roots)] if case < 80 else int(rng.integers(0, 2**63))
        path = []
        for _ in range(int(rng.integers(0, 6))):
            kind = rng.integers(0, 4)
            if kind == 0:
                path.append(labels[int(rng.integers(0, len(labels)))])
            elif kind == 1:
                path.append(int(rng.integers(0, 2**32)))
            elif kind == 2:
                path.append(np.uint32(rng.integers(0, 2**32)))
            else:
                path.append(np.int64(rng.integers(0, 4)))
        got, want = stream(root, *path), reference_stream(root, *path)
        assert got.bit_generator.state == want.bit_generator.state, (root, path)
        assert got.random() == want.random()
    with pytest.raises(ValueError):
        stream(-1, "x")
