"""Token-sequence domain types.

Vocabularies, masked sequences, and the deterministic fill operation.
Token ids are dense non-negative integers; the mask is the id one past
the ordinary range.  A denoising state is its context token row, the
prompt then the completion (``policy.check_state`` checks one against
an architecture); a ``MaskedSequence`` is the prompt type of the API
edge, an immutable value object, safe to share and to use as a dict
key.  A fill action is a plain tuple of tokens, one per masked position
in position order.  ``fill`` writes batches of actions into the masked
positions of completion-token rows, any number of rows in one array
pass, and returns the completion-token arrays, the one completion form
from rollout to reward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ContractViolation


@dataclass(frozen=True)
class Vocab:
    """An ordinary-token range [0, size); the mask id is ``size``, one past it."""

    size: int
    ordinary: frozenset[int] = field(init=False, repr=False, compare=False)
    allowed: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ContractViolation(f"vocab size must be >= 2, got {self.size}")
        object.__setattr__(self, "ordinary", frozenset(range(self.size)))
        object.__setattr__(self, "allowed", self.ordinary | {self.size})

    @property
    def mask_id(self) -> int:
        return self.size


@dataclass(frozen=True)
class MaskedSequence:
    """A fixed-length token sequence in which some positions may be masked."""

    tokens: tuple[int, ...]
    vocab: Vocab

    def __post_init__(self) -> None:
        toks = tuple(map(int, self.tokens))
        object.__setattr__(self, "tokens", toks)
        if not toks:
            raise ContractViolation("sequences must be non-empty")
        if not self.vocab.allowed.issuperset(toks):
            tok = next(t for t in toks if t not in self.vocab.allowed)
            v = self.vocab
            raise ContractViolation(f"token {tok} outside vocab (size {v.size}, mask {v.mask_id})")

    @property
    def length(self) -> int:
        return len(self.tokens)


# A fill action at a state: one ordinary token per masked completion position
# (``policy.mask_positions``), in that order.  The state knows the positions,
# so the action carries only the tokens.
Action = tuple[int, ...]


def check_action(n: int, vocab: Vocab, actions) -> None:
    """Require each action to hold one ordinary token per position of an
    ``n``-position mask set; the first faulty action names its fault."""
    ordinary = vocab.ordinary
    for action in actions:
        if len(action) != n:
            raise ContractViolation(
                f"action has {len(action)} tokens for a mask set of {n} positions"
            )
        if not ordinary.issuperset(action):
            tok = next(t for t in action if t not in ordinary)
            raise ContractViolation(f"action token {tok} is not an ordinary token")


def fill(rows, actions, vocab: Vocab) -> np.ndarray:
    """Completions of masked completion rows by fill actions, in one array pass.

    ``rows`` is ``(S, L)`` completion tokens over ``vocab`` and
    ``actions[i]`` is an ``(N, m_i)`` block, one token per masked position
    of row ``i`` in position order; the result is ``(S, N, L)``: row ``i``
    with each of its actions written in, its visible positions kept.  A
    faulty block raises ``check_action``'s message for the first faulty row.
    """
    rows = np.asarray(rows, dtype=np.intp)
    masked = rows == vocab.mask_id
    counts = masked.sum(axis=1).tolist()
    blocks = [np.asarray(a) for a in actions]
    if len(blocks) != len(rows):
        raise ContractViolation(f"{len(blocks)} action blocks for {len(rows)} rows")
    n = len(blocks[0]) if blocks and blocks[0].ndim else 0
    flat = np.concatenate([a.ravel() for a in blocks]) if len(blocks) != 1 else blocks[0].ravel()
    # as unsigned, a negative token reads as a huge one
    if [a.shape for a in blocks] != [(n, m) for m in counts] or flat.size and not (
        flat.dtype == np.intp and flat.view(np.uintp).max() < vocab.size
    ):
        for a, m in zip(blocks, counts):  # the first faulty block names the fault
            if a.ndim != 2 or len(a) != n:
                raise ContractViolation(f"every row needs an (N, m) block of {n} actions")
            # an empty block, by a row of its width
            check_action(m, vocab, a.tolist() or [[0] * a.shape[1]])
    out = np.repeat(rows[:, None], n, axis=1)
    out[np.repeat(masked[:, None], n, axis=1)] = flat  # row, then action, then position order
    return out


def enumerate_actions(n: int, vocab: Vocab, limit: int = 100_000) -> Iterator[Action]:
    """Every joint action for an ``n``-position mask set over ``vocab``, lexicographically.

    Refuses action spaces larger than ``limit`` (meant for oracle-scale
    enumeration only).
    """
    total = vocab.size ** n
    if total > limit:
        raise ContractViolation(f"action space of size {total} exceeds enumeration limit {limit}")
    return itertools.product(range(vocab.size), repeat=n)
