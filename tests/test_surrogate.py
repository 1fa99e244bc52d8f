"""One-step surrogate likelihoods, corruption patterns, ratio plumbing."""

import math

import numpy as np
import pytest

from dispo.counters import OpCounters
from dispo.errors import ConfigurationError, ContractViolation
from dispo.policy import LinearArch, MlpArch, action_logprob, init_params
from dispo.sequences import Action, DiffusionState, MaskedSequence, Vocab
from dispo.streams import stream
from dispo.surrogate import (
    SurrogateConfig,
    completion_action,
    draw_patterns,
    full_mask_state,
    group_features,
    logprob_from_contexts,
    pattern_contexts,
    scoring_targets,
    state_surrogate_grad,
    state_surrogate_logprob,
)

VOCAB = Vocab(3)
ARCH = LinearArch(VOCAB, prompt_len=4, completion_len=3, window=1)
PROMPT = MaskedSequence((0, 2, 1, 1), VOCAB)
OFF = SurrogateConfig(n_mc=1, ratio_law="zero")


def mid_state(params=None):
    """A state with one committed token and two masked ones."""
    completion = MaskedSequence((VOCAB.mask_id, 1, VOCAB.mask_id), VOCAB)
    return DiffusionState(PROMPT, completion)


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
    masks = draw_patterns(4, SurrogateConfig(n_mc=3, ratio_law="zero"), rng)
    assert masks.dtype == bool and masks.shape == (3, 4) and not masks.any()
    assert rng.bit_generator.state == before


def test_fixed_ratio_extremes():
    rng = stream(2, "extremes")
    assert draw_patterns(5, SurrogateConfig(n_mc=2, ratio_law=1.0), rng).all()
    assert not draw_patterns(5, SurrogateConfig(n_mc=2, ratio_law=0.0), rng).any()


def test_uniform_policy_sequence_value():
    params = init_params(ARCH)
    completion = MaskedSequence((0, 1, 2), VOCAB)
    cfg = SurrogateConfig(n_mc=3, ratio_law="uniform")
    lp = state_surrogate_logprob(
        params, full_mask_state(PROMPT, 3), completion_action(completion), cfg, stream(4, "uni")
    )
    assert lp == pytest.approx(3 * math.log(1 / 3), abs=1e-12)


def test_corruption_off_equals_action_logprob():
    params = init_params(ARCH, stream(5, "p"), scale=0.6)
    state = mid_state()
    action = Action(((0, 2), (2, 0)))
    surr = state_surrogate_logprob(params, state, action, OFF, stream(5, "unused"))
    exact, _ = action_logprob(params, state, action)
    assert surr == exact


@pytest.mark.parametrize("scope", ["action", "all"])
def test_gradient_matches_finite_differences(scope):
    arch = MlpArch(VOCAB, prompt_len=4, completion_len=3, window=1, hidden=5)
    params = init_params(arch, stream(7, "p", scope), scale=0.5)
    state = mid_state()
    action = Action(((0, 1), (2, 2)))
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
    action = Action(((0, 0), (2, 1)))
    cfg = SurrogateConfig(n_mc=3, ratio_law="uniform")
    lp_new = state_surrogate_logprob(params, state, action, cfg, stream(8, "pat"))
    lp_old = state_surrogate_logprob(params, state, action, cfg, stream(8, "pat"))
    assert lp_new == lp_old
    assert math.exp(lp_new - lp_old) == 1.0


def test_pattern_average_is_consistent():
    # two independent 256-pattern estimates agree within 3 combined stderr
    params = init_params(ARCH, stream(9, "p"), scale=0.8)
    completion = MaskedSequence((1, 2, 0), VOCAB)
    cfg = SurrogateConfig(n_mc=256, ratio_law="uniform")
    state = full_mask_state(PROMPT, 3)
    positions, targets = scoring_targets(state, completion_action(completion))

    def per_pattern(rng):
        (feats,) = group_features(ARCH, [state], cfg, [rng])["action"]
        ctxs = pattern_contexts(params, feats, positions)
        return logprob_from_contexts(ctxs, positions, targets)

    a = per_pattern(stream(9, "a"))
    b = per_pattern(stream(9, "b"))
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) <= 3 * se


def test_forward_counters_by_kind():
    params = init_params(ARCH, stream(10, "p"), scale=0.3)
    state = mid_state()
    action = Action(((0, 1), (2, 1)))
    cfg = SurrogateConfig(n_mc=5, ratio_law="uniform")
    counters = OpCounters()
    state_surrogate_logprob(params, state, action, cfg, stream(10, "a"), counters=counters)
    assert counters.surrogate_step_calls == 5
    assert counters.surrogate_terminal_calls == 0
    completion = MaskedSequence((0, 0, 2), VOCAB)
    state_surrogate_grad(
        params, full_mask_state(PROMPT, 3), completion_action(completion), cfg, stream(10, "b"),
        counters=counters, kind="terminal",
    )
    assert counters.surrogate_terminal_calls == 5
    (feats,) = group_features(ARCH, [state], cfg, [stream(10, "c")])["action"]
    pattern_contexts(params, feats, state.mask(), counters=counters, kind="kl")
    assert counters.surrogate_kl_calls == 5
    with pytest.raises(ContractViolation):
        pattern_contexts(params, feats, state.mask(), kind="misc")


def test_scoring_targets_scopes():
    state = mid_state()
    action = Action(((0, 2), (2, 0)))
    pos, targ = scoring_targets(state, action, "action")
    assert pos == (0, 2) and targ == (2, 0)
    pos, targ = scoring_targets(state, action, "all")
    assert pos == (0, 1, 2) and targ == (2, 1, 0)
    with pytest.raises(ContractViolation):
        scoring_targets(state, action, "some")
    with pytest.raises(ContractViolation):
        scoring_targets(state, Action(((0, 2),)), "action")


def test_needs_patterns_or_generator():
    params = init_params(ARCH)
    state = mid_state()
    action = Action(((0, 0), (2, 0)))
    with pytest.raises(ContractViolation):
        state_surrogate_logprob(params, state, action, SurrogateConfig())
    with pytest.raises(ContractViolation):
        completion_action(MaskedSequence((0, VOCAB.mask_id, 1), VOCAB))
