"""One-step surrogate likelihoods, corruption patterns, ratio plumbing."""

import math

import numpy as np
import pytest

from dispo.counters import OpCounters
from dispo.errors import ConfigurationError, ContractViolation
from dispo.policy import LinearArch, MlpArch, action_logprob, init_params, mask_positions
from dispo.sequences import MaskedSequence, Vocab
from dispo.streams import stream
from dispo.surrogate import (
    SurrogateConfig,
    draw_patterns,
    full_mask_state,
    group_features,
    logprob_from_contexts,
    loss_group,
    pattern_contexts,
    state_surrogate_grad,
    state_surrogate_logprob,
    target_stacks,
)

VOCAB = Vocab(3)
ARCH = LinearArch(VOCAB, prompt_len=4, completion_len=3, window=1)
PROMPT = MaskedSequence((0, 2, 1, 1), VOCAB)
OFF = SurrogateConfig(n_mc=1, ratio_law="zero")


def mid_state(params=None):
    """A state row with one committed token and two masked ones."""
    return np.array(PROMPT.tokens + (VOCAB.mask_id, 1, VOCAB.mask_id))


def mask_features(state, cfg, rng):
    """``state``'s one group's feature block at its mask set."""
    context = loss_group(ARCH, state).tokens
    return group_features(ARCH, [context], [mask_positions(ARCH, state)], cfg, [rng])


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SurrogateConfig(n_mc=0)
    with pytest.raises(ConfigurationError):
        SurrogateConfig(ratio_law="banana")
    with pytest.raises(ConfigurationError):
        SurrogateConfig(ratio_law=1.5)
    assert not SurrogateConfig(ratio_law="zero").corruption_enabled
    assert not SurrogateConfig(ratio_law=0.0).corruption_enabled
    assert SurrogateConfig(ratio_law="uniform").corruption_enabled
    assert SurrogateConfig(ratio_law=0.25).corruption_enabled


def test_zero_law_draws_nothing_from_the_generator():
    rng = stream(1, "zero-law")
    before = rng.bit_generator.state
    for law in ("zero", 0.0, 0):  # a fixed ratio of 0 turns corruption off too
        masks = draw_patterns(4, SurrogateConfig(n_mc=3, ratio_law=law), rng)
        assert masks.dtype == bool and masks.shape == (3, 4) and not masks.any()
        assert rng.bit_generator.state == before


def test_group_features_checks_its_counts_before_drawing():
    rng = stream(3, "counts")
    before = rng.bit_generator.state
    context = loss_group(ARCH, mid_state()).tokens
    cfg = SurrogateConfig(n_mc=2)
    mask = mask_positions(ARCH, mid_state())
    with pytest.raises(ContractViolation, match="1 context rows of width 7 for 2 groups"):
        group_features(ARCH, [context], [mask, mask], cfg, [rng, rng])
    with pytest.raises(ContractViolation, match="1 position lists for 2 groups"):
        group_features(ARCH, [context, context], [mask], cfg, [rng, rng])
    with pytest.raises(ContractViolation, match="1 pattern-set counts for 2 groups"):
        group_features(ARCH, [context, context], [mask, mask], cfg, [rng, rng], n_sets=[1])
    assert rng.bit_generator.state == before
    feats = group_features(ARCH, [context, context], [mask, (0, 1, 2)], cfg, [rng, rng])
    assert [f.shape[:2] for f in feats] == [(2, 2), (2, 3)]


def test_fixed_ratio_extremes():
    rng = stream(2, "extremes")
    assert draw_patterns(5, SurrogateConfig(n_mc=2, ratio_law=1.0), rng).all()
    assert not draw_patterns(5, SurrogateConfig(n_mc=2, ratio_law=0.0), rng).any()


def test_uniform_policy_sequence_value():
    params = init_params(ARCH)
    cfg = SurrogateConfig(n_mc=3, ratio_law="uniform")
    full = full_mask_state(PROMPT, 3)
    lp = state_surrogate_logprob(params, full, (0, 1, 2), cfg, stream(4, "uni"))
    assert lp == pytest.approx(3 * math.log(1 / 3), abs=1e-12)


def test_corruption_off_equals_action_logprob():
    params = init_params(ARCH, stream(5, "p"), scale=0.6)
    state = mid_state()
    action = (2, 0)
    surr = state_surrogate_logprob(params, state, action, OFF, stream(5, "unused"))
    exact, _ = action_logprob(params, state, action)
    assert surr == exact
    # integral non-int tokens pass check_action, and both routes score them as ints
    want, _ = action_logprob(params, state, (1, 0))
    for action in ((1.0, 0), (True, 0)):
        surr = state_surrogate_logprob(params, state, action, OFF)
        exact, per_pos = action_logprob(params, state, action)
        assert surr == exact == want and set(per_pos) == {0, 2}


@pytest.mark.parametrize("scope", ["action", "all"])
def test_gradient_matches_finite_differences(scope):
    arch = MlpArch(VOCAB, prompt_len=4, completion_len=3, window=1, hidden=5)
    params = init_params(arch, stream(7, "p", scope), scale=0.5)
    state = mid_state()
    action = (1, 2)
    cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    grad = state_surrogate_grad(params, state, action, cfg, stream(7, "pat", scope), scope=scope)
    h = 1e-5
    fd = np.zeros_like(grad)
    for i in range(params.dim):
        e = np.zeros(params.dim)
        e[i] = h
        hi = state_surrogate_logprob(
            params.replace_theta(params.theta + e), state, action, cfg,
            stream(7, "pat", scope), scope=scope,
        )
        lo = state_surrogate_logprob(
            params.replace_theta(params.theta - e), state, action, cfg,
            stream(7, "pat", scope), scope=scope,
        )
        fd[i] = (hi - lo) / (2 * h)
    assert np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12) < 1e-5


def test_shared_patterns_make_ratio_exactly_one():
    params = init_params(ARCH, stream(8, "p"), scale=0.7)
    state = mid_state()
    action = (0, 1)
    cfg = SurrogateConfig(n_mc=3, ratio_law="uniform")
    lp_new = state_surrogate_logprob(params, state, action, cfg, stream(8, "pat"))
    lp_old = state_surrogate_logprob(params, state, action, cfg, stream(8, "pat"))
    assert lp_new == lp_old
    assert math.exp(lp_new - lp_old) == 1.0


def test_pattern_average_is_consistent():
    # two independent 256-pattern estimates agree within 3 combined stderr
    params = init_params(ARCH, stream(9, "p"), scale=0.8)
    cfg = SurrogateConfig(n_mc=256, ratio_law="uniform")
    state = full_mask_state(PROMPT, 3)
    positions, targets = mask_positions(ARCH, state), (1, 2, 0)

    def per_pattern(rng):
        (feats,) = mask_features(state, cfg, rng)
        ctxs = pattern_contexts(params, feats, positions)
        return logprob_from_contexts(ctxs, targets)

    a = per_pattern(stream(9, "a"))
    b = per_pattern(stream(9, "b"))
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) <= 3 * se


def test_forward_counters_by_kind():
    params = init_params(ARCH, stream(10, "p"), scale=0.3)
    state = mid_state()
    full = full_mask_state(PROMPT, 3)
    cfg = SurrogateConfig(n_mc=5, ratio_law="uniform")
    counters = OpCounters()
    (feats,) = mask_features(state, cfg, stream(10, "a"))
    pattern_contexts(params, feats, mask_positions(ARCH, state), counters=counters)
    assert counters.surrogate_step_calls == 5
    assert counters.surrogate_terminal_calls == 0
    (full_feats,) = mask_features(full, cfg, stream(10, "b"))
    pattern_contexts(
        params, full_feats, mask_positions(ARCH, full), counters=counters, kind="terminal"
    )
    assert counters.surrogate_terminal_calls == 5
    pattern_contexts(params, feats, mask_positions(ARCH, state), counters=counters, kind="kl")
    assert counters.surrogate_kl_calls == 5
    assert counters.surrogate_step_calls == 5
    with pytest.raises(ContractViolation):
        pattern_contexts(params, feats, mask_positions(ARCH, state), kind="misc")


def test_loss_group_scopes():
    state = mid_state()
    actions = [(2, 0), (1, 1), (0, 2)]
    members = [(action, float(r)) for r, action in enumerate(actions)]
    group = loss_group(ARCH, state, members, "action")
    assert group.positions == (0, 2) and group.targets.tolist() == [[2, 0], [1, 1], [0, 2]]
    assert group.tokens.tolist() == state.tolist() and not group.tokens.flags.writeable
    assert group.rewards.tolist() == [0.0, 1.0, 2.0]
    # every position of each filled completion: the visible token at 1 stays
    group = loss_group(ARCH, state, members, "all")
    assert group.positions == (0, 1, 2) and group.targets.tolist() == [[2, 1, 0], [1, 1, 1], [0, 1, 2]]
    with pytest.raises(ContractViolation):
        loss_group(ARCH, state, members, "some")
    for scope in ("action", "all"):
        with pytest.raises(ContractViolation, match="1 tokens for a mask set of 2"):
            loss_group(ARCH, state, [((2, 0), 0.0), ((2,), 1.0)], scope)
        # an "all" group's fill names the token; an "action" group's check where it is scored
        with pytest.raises(ContractViolation, match="token 3 is not an ordinary"):
            bad = loss_group(ARCH, state, [((2, 0), 0.0), ((2, VOCAB.mask_id), 1.0)], scope)
            target_stacks([bad], VOCAB)
    done = np.array(PROMPT.tokens + (0, 1, 2))
    group = loss_group(ARCH, done, [((), 0.0), ((), 1.0)], "action")
    assert group.positions == () and group.targets.shape == (2, 0)


def test_needs_patterns_or_generator():
    params = init_params(ARCH)
    state = mid_state()
    action = (0, 0)
    with pytest.raises(ContractViolation):
        state_surrogate_logprob(params, state, action, SurrogateConfig())
