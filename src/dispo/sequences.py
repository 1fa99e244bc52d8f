"""Token-sequence domain types.

Vocabularies, masked sequences, denoising states, and the deterministic
fill operation.  Token ids are dense non-negative integers; the mask is
the id one past the ordinary range.  A fill action is a plain
tuple of tokens, one per masked position in position order.  All types
here are immutable value objects, safe to share and to use as dict keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

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

    def is_ordinary(self, token: int) -> bool:
        return token in self.ordinary

    def check_token(self, token: int) -> None:
        if token not in self.allowed:
            raise ContractViolation(f"token {token} outside vocab (size {self.size}, mask {self.mask_id})")


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
            self.vocab.check_token(next(t for t in toks if t not in self.vocab.allowed))

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

    def visible_positions(self) -> tuple[int, ...]:
        mid = self.vocab.mask_id
        return tuple(i for i, t in enumerate(self.tokens) if t != mid)

    def fully_visible(self) -> bool:
        return self.vocab.mask_id not in self.tokens

    def fully_masked(self) -> bool:
        mid = self.vocab.mask_id
        return all(t == mid for t in self.tokens)

    def with_tokens(self, replacements: dict[int, int]) -> "MaskedSequence":
        toks = list(self.tokens)
        for pos, tok in replacements.items():
            if not 0 <= pos < len(toks):
                raise ContractViolation(f"position {pos} out of range for length {len(toks)}")
            toks[pos] = tok
        return MaskedSequence(tuple(toks), self.vocab)


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


def fill(state: DiffusionState, action: Action) -> MaskedSequence:
    """Complete ``state`` by writing ``action`` into the masked positions.

    Visible positions are untouched.  Deterministic.
    """
    check_action(state, action)
    return state.completion.with_tokens(dict(zip(state.completion.mask_positions(), action)))


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
