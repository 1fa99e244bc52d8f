"""Vocabulary, masked sequences, token-tuple actions, and the fill operation."""

import re

import numpy as np
import pytest

from dispo.errors import ContractViolation
from dispo.sequences import (
    DiffusionState,
    MaskedSequence,
    Vocab,
    check_action,
    enumerate_actions,
    fill,
)
from dispo.streams import stream


def test_vocab_mask_id_is_size():
    v = Vocab(4)
    assert v.mask_id == 4
    assert 0 in v.ordinary and 3 in v.ordinary
    assert 4 not in v.ordinary
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
    assert MaskedSequence((0, 0, 2, v.mask_id), v).mask_positions() == (3,)
    assert MaskedSequence.masked(3, v).mask_positions() == (0, 1, 2)


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
    done = fill(state, [(2, 0), (1, 1)])  # one row per action, one token per masked position
    assert done.tolist() == [[0, 2, 0], [0, 1, 1]]
    assert fill(state, np.empty((0, 2), dtype=np.intp)).shape == (0, 3)
    # too few or too many tokens, non-ordinary payloads, and a bare action all refuse,
    # with the messages check_action gives the same actions
    for bad in ([(2,)], [(2, 0, 1)], [(2, 0), (v.mask_id, 0)], [(0, -1)], [(0, 1.5)]):
        with pytest.raises(ContractViolation) as want:
            check_action(state, *bad)
        with pytest.raises(ContractViolation, match=re.escape(str(want.value))):
            fill(state, bad)
    with pytest.raises(ContractViolation, match="3 tokens for a mask set of 2"):
        fill(state, np.empty((0, 3), dtype=np.intp))
    with pytest.raises(ContractViolation, match=r"\(N, m\) array, got shape \(2,\)"):
        fill(state, (2, 0))
    # the array form reads the mask id off its vocab, so it refuses rows without one
    with pytest.raises(ContractViolation, match="completion rows needs their vocab"):
        fill([state.completion.tokens], [[(2, 0)]])


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
        actions = rng.integers(0, 4, (3, len(mask)))
        done = fill(state, actions)
        assert done.shape == (3, length)
        for p in range(length):
            if p not in mask:
                assert (done[:, p] == state.completion.tokens[p]).all()
        assert (done[:, list(mask)] == actions).all()


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
