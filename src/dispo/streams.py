"""Deterministic named RNG streams.

Every random draw in the package flows from a single root seed through a
named stream, addressed by a path of labels, e.g.
``stream(seed, "rollout", update, prompt, k)``.  String labels are hashed
with SHA-256 so the mapping is stable across processes and platforms
(``hash()`` randomization never enters), and integer labels feed the seed
sequence directly.  The same path always gives the same generator, and
two distinct paths give independent generators, with one exception.

The path becomes a list of 32-bit words: the root, one word per integer
label (labels must lie in [0, 2**32), so no label spills into a second
word) and four words per string label.  numpy's ``SeedSequence`` pads
that list with zeros up to its pool size of four words, so paths whose
word lists differ only by trailing zeros within the first four words
collide: ``stream(1)``, ``stream(1, 0)`` and ``stream(1, 0, 0, 0)`` are
one generator.  A path that holds a string label is at least five words
long, so every path in this package, which names its purpose with a
string, is clear of the rule.  The padding is documented rather than
changed because changing it would change every existing stream.

A string label's words are hashed once per process and cached, and a
root in [0, 2**32) reaches ``SeedSequence`` as one ``uint32`` array: the
same pool and the same generator as the list of words, built for less.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

Label = int | str


def _label_words(label: Label) -> tuple[int, ...]:
    if isinstance(label, (int, np.integer)):
        if not 0 <= label < 2**32:
            raise ValueError(f"stream labels must lie in [0, 2**32), got {label}")
        return (int(label),)
    if isinstance(label, str):
        return _string_words(label)
    raise TypeError(f"stream labels must be int or str, got {type(label).__name__}")


@functools.lru_cache(maxsize=1024)
def _string_words(label: str) -> tuple[int, ...]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def seed_sequence(root: int, *path: Label) -> np.random.SeedSequence:
    root = int(root)
    words = [root]
    for label in path:
        words.extend(_label_words(label))
    if 0 <= root < 2**32:
        return np.random.SeedSequence(np.array(words, dtype=np.uint32))
    # a larger root spans several words, and a negative one must be refused
    return np.random.SeedSequence(words)


def stream(root: int, *path: Label) -> np.random.Generator:
    """Generator for the named stream rooted at ``root``."""
    return np.random.default_rng(seed_sequence(root, *path))
