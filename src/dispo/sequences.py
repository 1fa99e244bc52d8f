"""Token-sequence domain types.

Vocabularies, masked sequences, denoising states, and the deterministic
fill operation.  Token ids are dense non-negative integers; the mask is
the id one past the ordinary range.  A fill action is a plain tuple of
tokens, one per masked position in position order.  ``fill`` writes a
batch of actions into a state's masked positions and returns their
``(N, L)`` completion-token array, the one completion form from rollout
to reward; the sequence and state types serve the API edge.  Those types
are immutable value objects, safe to share and to use as dict keys.
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

    @classmethod
    def masked(cls, length: int, vocab: Vocab) -> "MaskedSequence":
        """A fully masked sequence of the given length."""
        if length < 1:
            raise ContractViolation(f"length must be >= 1, got {length}")
        return cls((vocab.mask_id,) * length, vocab)

    @property
    def length(self) -> int:
        return len(self.tokens)

    def mask_positions(self) -> tuple[int, ...]:
        # scanned once, on first use; an instance attribute, not a field, so
        # it stays out of ==, hash and repr
        cached = self.__dict__.get("_mask_positions")
        if cached is None:
            mid = self.vocab.mask_id
            cached = tuple(i for i, t in enumerate(self.tokens) if t == mid)
            object.__setattr__(self, "_mask_positions", cached)
        return cached


# A fill action at a state: one ordinary token per position of
# ``state.completion.mask_positions()``, in that order.  The state knows the
# positions, so the action carries only the tokens.
Action = tuple[int, ...]


@dataclass(frozen=True)
class DiffusionState:
    """A (prompt, partially masked completion) pair mid-denoising."""

    prompt: MaskedSequence
    completion: MaskedSequence

    def __post_init__(self) -> None:
        if self.prompt.vocab != self.completion.vocab:
            raise ContractViolation("prompt and completion must share a vocab")

    @property
    def vocab(self) -> Vocab:
        return self.prompt.vocab

    def mask(self) -> tuple[int, ...]:
        return self.completion.mask_positions()


def check_action(state: DiffusionState, *actions: Action) -> None:
    """Require each action to hold one ordinary token per position of the mask set."""
    n = len(state.completion.mask_positions())
    ordinary = state.vocab.ordinary
    for action in actions:
        if len(action) != n:
            raise ContractViolation(
                f"action has {len(action)} tokens for a mask set of {n} positions"
            )
        if not ordinary.issuperset(action):
            tok = next(t for t in action if t not in ordinary)
            raise ContractViolation(f"action token {tok} is not an ordinary token")


def fill(state: DiffusionState, actions) -> np.ndarray:
    """The ``(N, L)`` completions of ``state`` by the ``(N, m)`` ``actions``, in one array pass.

    Row i writes ``actions[i]`` into the masked positions, in order, and
    leaves the visible ones; a faulty action raises ``check_action``'s message.
    """
    acts = np.asarray(actions)
    masked = state.completion.mask_positions()
    if acts.ndim != 2:
        raise ContractViolation(f"actions must be an (N, m) array, got shape {acts.shape}")
    if acts.shape[1] != len(masked) or acts.size and not (
        acts.dtype.kind in "iu" and acts.min() >= 0 and acts.max() < state.vocab.size
    ):
        # the first faulty row names the fault; an empty batch, by a row of its width
        check_action(state, *(acts.tolist() or [[0] * acts.shape[1]]))
    out = np.empty((len(acts), state.completion.length), dtype=np.intp)
    out[:] = state.completion.tokens
    out[:, list(masked)] = acts
    return out


def enumerate_actions(state: DiffusionState, limit: int = 100_000) -> Iterator[Action]:
    """Every joint action for ``state``'s mask set, lexicographically.

    Refuses action spaces larger than ``limit`` (meant for oracle-scale
    enumeration only).
    """
    n = len(state.completion.mask_positions())
    v = state.vocab.size
    total = v ** n
    if total > limit:
        raise ContractViolation(f"action space of size {total} exceeds enumeration limit {limit}")
    return itertools.product(range(v), repeat=n)
