"""Property tests: advantages, schedule mask counts, and fills over enumerated actions."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from dispo.errors import ConfigurationError
from dispo.objective import group_advantages
from dispo.rollout import UnmaskSchedule
from dispo.sequences import DiffusionState, MaskedSequence, Vocab, enumerate_actions, fill

SMALL = settings(max_examples=60, deadline=None, database=None)


@SMALL
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=16,
    )
)
def test_advantages_sum_to_zero(rewards):
    outcome = group_advantages(rewards)
    n = len(rewards)
    bound = 1e-12 * n * max(abs(r) for r in rewards)
    assert abs(math.fsum(outcome.advantages)) <= bound


@SMALL
@given(
    length=st.integers(1, 12),
    extra_steps=st.integers(-1, 2),
    tokens_per_step=st.integers(1, 5),
    block_size=st.one_of(st.none(), st.integers(1, 6)),
)
def test_accepted_schedules_empty_the_mask_one_bounded_step_at_a_time(
    length, extra_steps, tokens_per_step, block_size
):
    # step counts around the fewest that can empty the mask, so that about
    # a quarter of the drawn schedules are accepted
    n_steps = max(1, -(-length // tokens_per_step) + extra_steps)
    schedule = UnmaskSchedule(tokens_per_step, block_size)
    try:
        counts = schedule.mask_counts(length, n_steps)
    except ConfigurationError:
        return
    assert len(counts) == n_steps + 1
    assert counts[0] == length and counts[-1] == 0
    for before, after in zip(counts, counts[1:]):
        assert 0 <= before - after <= tokens_per_step


@SMALL
@given(
    vocab_size=st.integers(2, 4),
    tokens=st.lists(st.integers(-1, 1), min_size=1, max_size=5),
)
def test_fills_of_enumerated_actions_are_distinct_complete_and_keep_visible_tokens(
    vocab_size, tokens
):
    # -1 is the mask in serialized form
    vocab = Vocab(vocab_size)
    completion = MaskedSequence.from_json_tokens(tokens, vocab)
    state = DiffusionState(MaskedSequence((0,), vocab), completion)
    fills = [fill(state, action) for action in enumerate_actions(state)]
    assert len(fills) == vocab_size ** len(completion.mask_positions())
    assert len(set(fills)) == len(fills)
    for filled in fills:
        assert filled.fully_visible()
        for p in completion.visible_positions():
            assert filled.tokens[p] == completion.tokens[p]

