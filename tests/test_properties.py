"""Property tests: advantages, schedule mask counts, fills over enumerated actions, and
exact gradients against central differences."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dispo.errors import ConfigurationError
from dispo.objective import group_advantages
from dispo.policy import LinearArch, MlpArch, action_logprob, grad_action_logprob, init_params
from dispo.rollout import UnmaskSchedule
from dispo.sequences import Action, DiffusionState, MaskedSequence, Vocab, enumerate_actions, fill
from dispo.streams import stream
from dispo.surrogate import SurrogateConfig, state_surrogate_grad, state_surrogate_logprob

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
    # -1 stands for the mask
    vocab = Vocab(vocab_size)
    completion = MaskedSequence(tuple(vocab.mask_id if t < 0 else t for t in tokens), vocab)
    state = DiffusionState(MaskedSequence((0,), vocab), completion)
    fills = [fill(state, action) for action in enumerate_actions(state)]
    assert len(fills) == vocab_size ** len(completion.mask_positions())
    assert len(set(fills)) == len(fills)
    for filled in fills:
        assert filled.fully_visible()
        for p in completion.visible_positions():
            assert filled.tokens[p] == completion.tokens[p]



@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_exact_gradients_match_central_differences_on_random_architectures(data):
    draw = data.draw
    vocab = Vocab(draw(st.integers(2, 4)))
    prompt_len, completion_len = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = dict(vocab=vocab, prompt_len=prompt_len, completion_len=completion_len,
                 window=draw(st.integers(0, 2)))
    if draw(st.booleans()):
        arch = MlpArch(hidden=draw(st.integers(1, 4)), **shape)
    else:
        arch = LinearArch(**shape)
    seed = draw(st.integers(0, 2**32 - 1))
    params = init_params(arch, stream(seed, "theta"), scale=0.7)
    token = st.integers(0, vocab.size - 1)
    prompt = MaskedSequence(tuple(draw(st.lists(token, min_size=prompt_len, max_size=prompt_len))), vocab)
    order = draw(st.permutations(range(completion_len)))
    masked = sorted(order[: draw(st.integers(1, completion_len))])
    completion = tuple(vocab.mask_id if p in masked else draw(token) for p in range(completion_len))
    state = DiffusionState(prompt, MaskedSequence(completion, vocab))
    action = Action(tuple((p, draw(token)) for p in masked))
    scope = draw(st.sampled_from(["action", "all"]))
    cfg = SurrogateConfig(n_mc=draw(st.integers(1, 3)), ratio_law="uniform")
    subset = tuple(p for p in masked if draw(st.booleans()))

    def surrogate(theta):
        return state_surrogate_logprob(
            params.replace_theta(theta), state, action, cfg, stream(seed, "patterns"), scope=scope
        )

    def subset_logprob(theta):
        _, per_position = action_logprob(params.replace_theta(theta), state, action)
        return sum(per_position[p] for p in subset)

    h = 1e-5
    steps = h * np.eye(params.dim)
    for grad, fn in (
        (
            state_surrogate_grad(params, state, action, cfg, stream(seed, "patterns"), scope=scope),
            surrogate,
        ),
        (grad_action_logprob(params, state, action, subset), subset_logprob),
    ):
        fd = np.array([(fn(params.theta + e) - fn(params.theta - e)) / (2 * h) for e in steps])
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-7)
