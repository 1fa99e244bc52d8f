"""Property tests: advantages, schedule mask counts, fills over enumerated actions, and
exact gradients against central differences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dispo.errors import ConfigurationError
from dispo.objective import LossConfig, step_loss
from dispo.policy import LinearArch, MlpArch, action_logprob, init_params
from dispo.rollout import UnmaskSchedule
from dispo.sequences import Vocab, enumerate_actions, fill
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
    # the step loss at rho = 1, with clipping off, is minus the mean advantage
    vocab = Vocab(3)
    arch = LinearArch(vocab, prompt_len=2, completion_len=3, window=1)
    params = init_params(arch, stream(40, "p"), scale=0.5)
    state = np.array([0, 2, 1, vocab.mask_id, vocab.mask_id])
    branches = [((z % 3, z // 3 % 3), r) for z, r in enumerate(rewards)]
    cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    loss, _ = step_loss(
        state, branches, params, params, LossConfig(clip_eps=None), cfg, stream(40, "pat")
    )
    assert abs(loss) <= 1e-12 * len(rewards) * max(abs(r) for r in rewards)


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
    completion = [vocab.mask_id if t < 0 else t for t in tokens]
    mask = [p for p, t in enumerate(completion) if t == vocab.mask_id]
    actions = np.array(list(enumerate_actions(len(mask), vocab)), dtype=np.intp)
    (fills,) = fill([completion], [actions.reshape(len(actions), len(mask))], vocab)
    assert fills.shape == (vocab_size ** len(mask), len(tokens))
    assert len({tuple(row) for row in fills.tolist()}) == len(fills)
    assert vocab.mask_id not in fills
    for p in range(len(tokens)):
        if p not in mask:
            assert (fills[:, p] == completion[p]).all()



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
    prompt = draw(st.lists(token, min_size=prompt_len, max_size=prompt_len))
    order = draw(st.permutations(range(completion_len)))
    masked = sorted(order[: draw(st.integers(1, completion_len))])
    completion = [vocab.mask_id if p in masked else draw(token) for p in range(completion_len)]
    state = np.array(prompt + completion)
    action = tuple(draw(token) for _ in masked)
    scope = draw(st.sampled_from(["action", "all"]))
    cfg = SurrogateConfig(n_mc=draw(st.integers(1, 3)), ratio_law="uniform")

    def surrogate(theta):
        return state_surrogate_logprob(
            params.replace_theta(theta), state, action, cfg, stream(seed, "patterns"), scope=scope
        )

    def exact_logprob(theta):
        return action_logprob(params.replace_theta(theta), state, action)[0]

    h = 1e-5
    steps = h * np.eye(params.dim)
    for grad, fn in (
        (
            state_surrogate_grad(params, state, action, cfg, stream(seed, "patterns"), scope=scope),
            surrogate,
        ),
        # corruption off, one pattern: the exact action gradient
        (state_surrogate_grad(params, state, action, SurrogateConfig(1, "zero")), exact_logprob),
    ):
        fd = np.array([(fn(params.theta + e) - fn(params.theta - e)) / (2 * h) for e in steps])
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-7)
