"""Vocabulary, masked sequences, token-tuple actions, and the fill operation."""

import numpy as np
import pytest

from dispo.errors import ContractViolation
from dispo.sequences import (
    DiffusionState,
    MaskedSequence,
    Vocab,
    enumerate_actions,
    fill,
)
from dispo.streams import stream


def test_vocab_mask_id_is_size():
    v = Vocab(4)
    assert v.mask_id == 4
    assert v.is_ordinary(0) and v.is_ordinary(3)
    assert not v.is_ordinary(4)
    with pytest.raises(ContractViolation):
        Vocab(1)


def test_masked_sequence_positions():
    v = Vocab(3)
    s = MaskedSequence((0, v.mask_id, 2, v.mask_id), v)
    assert s.mask_positions() == (1, 3)
    # scanned once and kept out of ==, hash and repr
    fresh = MaskedSequence((0, v.mask_id, 2, v.mask_id), v)
    assert s.mask_positions() is s.mask_positions()
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert s.with_tokens({1: 0}).mask_positions() == (3,)
    assert s.visible_positions() == (0, 2)
    assert not s.fully_visible()
    assert not s.fully_masked()
    assert MaskedSequence.masked(3, v).fully_masked()


def test_masked_sequence_rejects_foreign_tokens():
    v = Vocab(3)
    with pytest.raises(ContractViolation):
        MaskedSequence((0, 7), v)
    with pytest.raises(ContractViolation):
        MaskedSequence((-1, 0), v)


def test_state_requires_matching_vocabs():
    prompt = MaskedSequence((0,), Vocab(3))
    completion = MaskedSequence.masked(2, Vocab(4))
    with pytest.raises(ContractViolation):
        DiffusionState(prompt, completion)


def test_fill_covers_mask_set_exactly():
    v = Vocab(3)
    state = DiffusionState(MaskedSequence((1,), v), MaskedSequence((0, v.mask_id, v.mask_id), v))
    done = fill(state, (2, 0))  # one token per masked position, in order
    assert done.tokens == (0, 2, 0)
    assert done.fully_visible()
    # too few or too many tokens, and mask-token payloads, all refuse
    with pytest.raises(ContractViolation, match="1 tokens for a mask set of 2"):
        fill(state, (2,))
    with pytest.raises(ContractViolation, match="3 tokens for a mask set of 2"):
        fill(state, (2, 0, 1))
    with pytest.raises(ContractViolation, match=f"token {v.mask_id} is not an ordinary"):
        fill(state, (v.mask_id, 0))


def test_fill_leaves_visible_positions_untouched():
    v = Vocab(4)
    rng = stream(3, "fill-prop")
    for _ in range(25):
        length = int(rng.integers(2, 6))
        toks = [int(t) if rng.random() < 0.5 else v.mask_id for t in rng.integers(0, 4, length)]
        if all(t != v.mask_id for t in toks):
            toks[0] = v.mask_id
        state = DiffusionState(MaskedSequence((0,), v), MaskedSequence(tuple(toks), v))
        mask = state.completion.mask_positions()
        action = tuple(int(t) for t in rng.integers(0, 4, len(mask)))
        done = fill(state, action)
        for p in state.completion.visible_positions():
            assert done.tokens[p] == state.completion.tokens[p]
        for p, t in zip(mask, action):
            assert done.tokens[p] == t


def test_enumerate_actions_is_lexicographic_and_complete():
    v = Vocab(2)
    state = DiffusionState(MaskedSequence((0,), v), MaskedSequence.masked(2, v))
    actions = list(enumerate_actions(state))
    assert len(actions) == 4
    assert actions == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_actions_refuses_large_spaces():
    v = Vocab(4)
    state = DiffusionState(MaskedSequence((0,), v), MaskedSequence.masked(10, v))
    with pytest.raises(ContractViolation):
        list(enumerate_actions(state, limit=1000))


def test_with_tokens_replaces_positions():
    v = Vocab(3)
    s = MaskedSequence.masked(3, v)
    out = s.with_tokens({0: 2, 2: 1})
    assert out.tokens == (2, v.mask_id, 1)
    assert s.tokens == (v.mask_id,) * 3  # original untouched
