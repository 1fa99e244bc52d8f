"""Vocabulary, masked sequences, token-tuple actions, and the fill operation."""

import re

import numpy as np
import pytest

from dispo.errors import ContractViolation
from dispo.sequences import MaskedSequence, Vocab, check_action, enumerate_actions, fill
from dispo.streams import stream


def test_vocab_mask_id_is_size():
    v = Vocab(4)
    assert v.mask_id == 4
    assert 0 in v.ordinary and 3 in v.ordinary
    assert 4 not in v.ordinary
    with pytest.raises(ContractViolation):
        Vocab(1)


def test_masked_sequence_is_a_value():
    v = Vocab(3)
    s = MaskedSequence((0, v.mask_id, 2, v.mask_id), v)
    fresh = MaskedSequence([0, v.mask_id, 2, v.mask_id], v)
    assert s.tokens == (0, v.mask_id, 2, v.mask_id) and s.length == 4
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)


def test_masked_sequence_rejects_foreign_tokens():
    v = Vocab(3)
    with pytest.raises(ContractViolation):
        MaskedSequence((0, 7), v)
    with pytest.raises(ContractViolation):
        MaskedSequence((-1, 0), v)


def test_fill_covers_mask_set_exactly():
    v = Vocab(3)
    row = [(0, v.mask_id, v.mask_id)]  # one completion row
    done = fill(row, [[(2, 0), (1, 1)]], v)  # one row per action, one token per masked position
    assert done.tolist() == [[[0, 2, 0], [0, 1, 1]]]
    assert fill(row, [np.empty((0, 2), dtype=np.intp)], v).shape == (1, 0, 3)
    # too few or too many tokens, non-ordinary payloads, and a bare action all refuse,
    # with the messages check_action gives the same actions
    for bad in ([(2,)], [(2, 0, 1)], [(2, 0), (v.mask_id, 0)], [(0, -1)], [(0, 1.5)]):
        with pytest.raises(ContractViolation) as want:
            check_action(2, v, bad)
        with pytest.raises(ContractViolation, match=re.escape(str(want.value))):
            fill(row, [bad], v)
    with pytest.raises(ContractViolation, match="3 tokens for a mask set of 2"):
        fill(row, [np.empty((0, 3), dtype=np.intp)], v)
    with pytest.raises(ContractViolation, match=r"an \(N, m\) block of 2 actions"):
        fill(row, [(2, 0)], v)


def test_fill_leaves_visible_positions_untouched():
    v = Vocab(4)
    rng = stream(3, "fill-prop")
    for _ in range(25):
        length = int(rng.integers(2, 6))
        toks = [int(t) if rng.random() < 0.5 else v.mask_id for t in rng.integers(0, 4, length)]
        if all(t != v.mask_id for t in toks):
            toks[0] = v.mask_id
        mask = [p for p, t in enumerate(toks) if t == v.mask_id]
        actions = rng.integers(0, 4, (3, len(mask)))
        (done,) = fill([toks], [actions], v)
        assert done.shape == (3, length)
        for p in range(length):
            if p not in mask:
                assert (done[:, p] == toks[p]).all()
        assert (done[:, list(mask)] == actions).all()


def test_enumerate_actions_is_lexicographic_and_complete():
    actions = list(enumerate_actions(2, Vocab(2)))
    assert len(actions) == 4
    assert actions == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_actions_refuses_large_spaces():
    with pytest.raises(ContractViolation):
        list(enumerate_actions(10, Vocab(4), limit=1000))
