"""Group losses, clipping, KL penalty, loss combination, timestep laws."""

import numpy as np
import pytest

from dispo.counters import OpCounters
from dispo.errors import ConfigurationError, ContractViolation
from dispo.objective import (
    LossConfig,
    SamplerConfig,
    aggregate_step_loss,
    clipped_objective,
    combined_loss,
    kl_penalty,
    step_loss,
    terminal_loss,
)
from dispo.policy import LinearArch, init_params
from dispo.sequences import MaskedSequence, Vocab
from dispo.streams import stream
from dispo.surrogate import (
    SurrogateConfig,
    full_mask_state,
    loss_group,
    state_surrogate_grad,
)

VOCAB = Vocab(3)
ARCH = LinearArch(VOCAB, prompt_len=2, completion_len=3, window=1)
PROMPT = MaskedSequence((0, 2), VOCAB)
OFF = SurrogateConfig(n_mc=1, ratio_law="zero")
NOCLIP = LossConfig(clip_eps=None)


MID_COMPLETION = (1, VOCAB.mask_id, VOCAB.mask_id)


def mid_state():
    return np.array(PROMPT.tokens + MID_COMPLETION)


def prompt_groups(completions, groups):
    """A prompt's terminal group, at PROMPT's fully masked state, and its step groups,
    in the array form ``combined_loss`` takes."""
    terminal = loss_group(ARCH, full_mask_state(PROMPT, 3), completions)
    return [terminal], [[loss_group(ARCH, state, members) for state, members in groups]]


def test_advantages_sum_to_zero_in_the_step_loss():
    # at rho = 1 with clipping off the loss is minus the mean advantage
    params = init_params(ARCH, stream(1, "p"), scale=0.5)
    state = mid_state()
    cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    rng = stream(1, "adv")
    for g in range(50):
        rewards = rng.normal(size=int(rng.integers(1, 9))).tolist()
        branches = [((int(rng.integers(3)), int(rng.integers(3))), r) for r in rewards]
        loss, _ = step_loss(state, branches, params, params, NOCLIP, cfg, stream(1, "pat", g))
        assert abs(loss) <= 1e-12 * len(rewards) * max(abs(r) for r in rewards)
    with pytest.raises(ContractViolation, match="loss group must be non-empty"):
        step_loss(state, [], params, params, NOCLIP, cfg, stream(1, "pat"))


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0,), "action has 1 tokens for a mask set of 2 positions"),
        ((0, 1, 2), "action has 3 tokens for a mask set of 2 positions"),
        ((0, VOCAB.mask_id), "action token 3 is not an ordinary token"),
        ((-1, 0), "action token -1 is not an ordinary token"),
    ],
)
def test_step_losses_reject_a_malformed_action_by_name(bad, message):
    params = init_params(ARCH, stream(11, "p"), scale=0.5)
    state = mid_state()
    branches = [((0, 1), 1.0), (bad, 0.0)]
    for scope in ("action", "all"):
        with pytest.raises(ContractViolation, match=message):
            step_loss(state, branches, params, params, NOCLIP, OFF, scope=scope)
    groups = [(state, [((2, 2), 0.5), ((1, 0), 0.0)]), (state, branches)]
    with pytest.raises(ContractViolation, match=message):
        aggregate_step_loss(groups, params, params, NOCLIP, OFF)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0, 1), "action has 2 tokens for a mask set of 3 positions"),
        ((0, 1, 2, 0), "action has 4 tokens for a mask set of 3 positions"),
        (MID_COMPLETION, "action token 3 is not an ordinary token"),
    ],
)
def test_terminal_loss_rejects_a_malformed_completion_by_name(bad, message):
    # the terminal group's members are actions at the fully masked state
    params = init_params(ARCH, stream(12, "p"), scale=0.5)
    for completions in ([((0, 1, 2), 1.0), (bad, 0.0)], [(bad, 1.0), (bad, 0.0)]):
        with pytest.raises(ContractViolation, match=message):
            terminal_loss(PROMPT, completions, params, params, NOCLIP, OFF)


def test_loss_config_validation():
    with pytest.raises(ConfigurationError):
        LossConfig(alpha_step=-0.1)
    with pytest.raises(ConfigurationError):
        LossConfig(clip_eps=0.0)
    with pytest.raises(ConfigurationError):
        LossConfig(clip_eps=1.0)
    with pytest.raises(ConfigurationError):
        LossConfig(kl_beta=-1.0)
    LossConfig(clip_eps=None)  # disabled clipping is legal


def test_clipped_objective_cases():
    eps = 0.2
    val, active = clipped_objective(1.5, 2.0, eps)
    assert val == pytest.approx(1.2 * 2.0) and not active
    val, active = clipped_objective(0.5, 2.0, eps)
    assert val == pytest.approx(0.5 * 2.0) and active
    val, active = clipped_objective(1.5, -1.0, eps)
    assert val == pytest.approx(-1.5) and active
    val, active = clipped_objective(0.5, -1.0, eps)
    assert val == pytest.approx(-0.8) and not active
    val, active = clipped_objective(7.0, -3.0, None)
    assert val == pytest.approx(-21.0) and active


def test_step_loss_two_branch_example():
    # rewards [1, 0]: advantages (.5, -.5), on-policy loss 0, grad -(g1 - g2)/4
    params = init_params(ARCH, stream(2, "p"), scale=0.5)
    state = mid_state()
    a1 = (0, 2)
    a2 = (1, 1)
    loss, grad = step_loss(state, [(a1, 1.0), (a2, 0.0)], params, params, NOCLIP, OFF)
    assert abs(loss) < 1e-15
    g1 = state_surrogate_grad(params, state, a1, OFF)
    g2 = state_surrogate_grad(params, state, a2, OFF)
    assert np.allclose(grad, -0.25 * (g1 - g2), atol=1e-12)
    # the pessimistic clip is inactive at rho = 1, so it changes nothing
    loss_c, grad_c = step_loss(state, [(a1, 1.0), (a2, 0.0)], params, params, LossConfig(), OFF)
    assert loss_c == loss and np.array_equal(grad_c, grad)


def test_terminal_loss_two_rollout_example():
    params = init_params(ARCH, stream(3, "p"), scale=0.5)
    c1 = (0, 1, 2)
    c2 = (2, 2, 0)
    loss, grad = terminal_loss(PROMPT, [(c1, 1.0), (c2, 0.0)], params, params, NOCLIP, OFF)
    assert abs(loss) < 1e-15
    full = full_mask_state(PROMPT, 3)
    g1 = state_surrogate_grad(params, full, c1, OFF)
    g2 = state_surrogate_grad(params, full, c2, OFF)
    assert np.allclose(grad, -0.25 * (g1 - g2), atol=1e-12)
    with pytest.raises(ContractViolation):
        terminal_loss(PROMPT, [], params, params, NOCLIP, OFF)
    with pytest.raises(ContractViolation):
        terminal_loss(PROMPT, [(MID_COMPLETION, 1.0)], params, params, NOCLIP, OFF)


def test_step_loss_gradient_matches_finite_differences():
    params = init_params(ARCH, stream(4, "p"), scale=0.4)
    old = init_params(ARCH, stream(4, "old"), scale=0.4)
    state = mid_state()
    branches = [((0, 1), 0.3), ((2, 2), -0.9)]
    cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")

    def value(theta):
        l, _ = step_loss(
            state, branches, params.replace_theta(theta), old, NOCLIP, cfg, stream(4, "pat")
        )
        return l

    _, grad = step_loss(state, branches, params, old, NOCLIP, cfg, stream(4, "pat"))
    h = 1e-6
    fd = np.zeros_like(grad)
    for i in range(params.dim):
        e = np.zeros(params.dim)
        e[i] = h
        fd[i] = (value(params.theta + e) - value(params.theta - e)) / (2 * h)
    assert np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12) < 1e-4


def test_kl_penalty_properties():
    rng = stream(5, "kl")
    params = init_params(ARCH, rng, scale=0.6)
    ref = init_params(ARCH, rng, scale=0.6)
    state = mid_state()
    cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    same, grad_same = kl_penalty(params, params, state, cfg, stream(5, "pat"))
    assert same == 0.0
    assert np.allclose(grad_same, 0.0, atol=1e-12)
    val, _ = kl_penalty(params, ref, state, cfg, stream(5, "pat"))
    assert val > 0.0
    # a state with nothing masked has no rows to compare
    done = np.array(PROMPT.tokens + (0, 1, 2))
    zero, gz = kl_penalty(params, ref, done, cfg, stream(5, "pat"))
    assert zero == 0.0 and not gz.any()


def test_kl_penalty_gradient_matches_finite_differences():
    params = init_params(ARCH, stream(6, "p"), scale=0.5)
    ref = init_params(ARCH, stream(6, "ref"), scale=0.5)
    state = mid_state()
    cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    _, grad = kl_penalty(params, ref, state, cfg, stream(6, "pat"))

    def value(theta):
        return kl_penalty(params.replace_theta(theta), ref, state, cfg, stream(6, "pat"))[0]

    h = 1e-6
    fd = np.zeros_like(grad)
    for i in range(params.dim):
        e = np.zeros(params.dim)
        e[i] = h
        fd[i] = (value(params.theta + e) - value(params.theta - e)) / (2 * h)
    assert np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12) < 1e-4


def test_combined_loss_is_linear_in_its_parts():
    params = init_params(ARCH, stream(7, "p"), scale=0.5)
    old = init_params(ARCH, stream(7, "old"), scale=0.5)
    ref = init_params(ARCH, stream(7, "ref"), scale=0.5)
    completions = [((0, 1, 2), 1.0), ((2, 0, 1), 0.0)]
    groups = [(mid_state(), [((0, 1), 1.0), ((2, 0), 0.0)])]
    cfg = LossConfig(alpha_step=0.3, alpha_term=0.7, kl_beta=0.05, clip_eps=None)
    ((loss, grad, parts),) = combined_loss(
        *prompt_groups(completions, groups), params, old, ref, cfg, OFF, [stream(7, "rng")]
    )
    expect = 0.7 * parts["loss_term"] + 0.3 * parts["loss_step"] + 0.05 * parts["kl"]
    assert loss == pytest.approx(expect, abs=1e-12)
    expect_g = 0.7 * parts["grad_term"] + 0.3 * parts["grad_step"] + 0.05 * parts["grad_kl"]
    assert np.allclose(grad, expect_g, atol=1e-12)


def test_zero_weight_families_consume_nothing():
    params = init_params(ARCH, stream(8, "p"), scale=0.5)
    completions = [((0, 1, 2), 1.0), ((2, 0, 1), 0.0)]
    groups = [(mid_state(), [((0, 1), 1.0), ((2, 0), 0.0)])]
    counters = OpCounters()
    cfg = LossConfig(alpha_step=0.0, alpha_term=1.0, kl_beta=0.0)
    combined_loss(
        *prompt_groups(completions, groups), params, params, None, cfg, OFF, [stream(8, "rng")],
        counters=counters,
    )
    assert counters.surrogate_step_calls == 0
    assert counters.surrogate_kl_calls == 0
    assert counters.surrogate_terminal_calls > 0
    with pytest.raises(ContractViolation):
        combined_loss(
            *prompt_groups(completions, groups), params, params, None,
            LossConfig(kl_beta=0.01), OFF, [stream(8, "rng2")],
        )
    # every family off: no draw, no forward, and zero parts
    rng, counters = stream(8, "rng3"), OpCounters()
    before = rng.bit_generator.state
    uniform = SurrogateConfig(n_mc=2, ratio_law="uniform")
    ((loss, grad, parts),) = combined_loss(
        *prompt_groups(completions, groups), params, params, None,
        LossConfig(alpha_step=0.0, alpha_term=0.0), uniform, [rng], counters=counters,
    )
    assert rng.bit_generator.state == before and counters == OpCounters()
    assert loss == 0.0 and not grad.any()
    assert (parts["loss_term"], parts["loss_step"], parts["kl"]) == (0.0, 0.0, 0.0)
    assert aggregate_step_loss([], params, params, NOCLIP, uniform, rng)[0] == 0.0


def test_a_prompt_without_a_rollout_group_has_only_its_step_family():
    # terminal[b] = None: no terminal and no KL family, whatever their weights
    params = init_params(ARCH, stream(9, "p"), scale=0.5)
    old = init_params(ARCH, stream(9, "old"), scale=0.5)
    ref = init_params(ARCH, stream(9, "ref"), scale=0.5)
    groups = [
        (mid_state(), [((0, 1), 1.0), ((2, 0), 0.0)]),
        (mid_state(), [((1, 1), 0.5), ((0, 2), 0.0), ((2, 2), 1.0)]),
    ]
    steps = [[loss_group(ARCH, state, members) for state, members in groups]]
    uniform = SurrogateConfig(n_mc=2, ratio_law="uniform")
    runs = []
    for cfg in (LossConfig(alpha_step=0.3, alpha_term=0.7, kl_beta=0.05), LossConfig(0.3, 0.0)):
        rng, counters = stream(9, "rng"), OpCounters()
        ((loss, _, parts),) = combined_loss(
            [None], steps, params, old, ref, cfg, uniform, [rng], counters=counters
        )
        runs.append((counters, rng.bit_generator.state, loss, parts))
    # the weighted call drew and ran exactly what the step-only call did
    assert runs[0][:2] == runs[1][:2] and runs[0][0].surrogate_step_calls > 0
    assert runs[0][0].surrogate_terminal_calls == runs[0][0].surrogate_kl_calls == 0
    loss, parts = runs[0][2:]
    assert (parts["loss_term"], parts["kl"]) == (0.0, 0.0)
    assert loss == 0.3 * parts["loss_step"]
    step, step_grad = aggregate_step_loss(
        groups, params, old, LossConfig(), uniform, stream(9, "rng")
    )
    assert parts["loss_step"] == step
    assert parts["grad_step"].tobytes() == step_grad.tobytes()


@pytest.mark.parametrize("law", ["uniform", 0.5])
def test_corruption_without_a_generator_is_a_named_error(law):
    params = init_params(ARCH, stream(10, "p"), scale=0.5)
    state = mid_state()
    branches = [((0, 1), 1.0), ((2, 0), 0.0)]
    completions = [((0, 1, 2), 1.0), ((2, 0, 1), 0.0)]
    cfg = SurrogateConfig(n_mc=2, ratio_law=law)
    calls = {
        "step_loss": lambda: step_loss(state, branches, params, params, NOCLIP, cfg),
        "terminal_loss": lambda: terminal_loss(PROMPT, completions, params, params, NOCLIP, cfg),
        "kl_penalty": lambda: kl_penalty(params, params, state, cfg),
        "state_surrogate_grad": lambda: state_surrogate_grad(params, state, branches[0][0], cfg),
    }
    for call in calls.values():
        with pytest.raises(ContractViolation, match="need a generator"):
            call()
    # corruption off needs no generator: the masks are all false
    off = SurrogateConfig(n_mc=2, ratio_law=0.0)
    loss, grad = step_loss(state, branches, params, params, NOCLIP, off)
    drawn = step_loss(state, branches, params, params, NOCLIP, off, stream(10, "r"))
    assert loss == drawn[0] and np.array_equal(grad, drawn[1])


def test_poly_late_weights():
    w = SamplerConfig("poly_late", degree=4).weights(4)
    assert np.allclose(w, np.array([1.0, 16.0, 81.0, 256.0]) / 354.0, atol=1e-15)
    w = SamplerConfig("poly_early", degree=4).weights(4)
    assert np.allclose(w, np.array([256.0, 81.0, 16.0, 1.0]) / 354.0, atol=1e-15)
    w = SamplerConfig("uniform").weights(4)
    assert np.allclose(w, 0.25, atol=1e-15)
    with pytest.raises(ConfigurationError):
        SamplerConfig("linear")
    with pytest.raises(ConfigurationError, match="n_steps must be >= 1"):
        SamplerConfig().weights(0)


def test_sampler_draws_follow_the_law():
    sampler = SamplerConfig("poly_late", degree=4)
    draws = sampler.sample(4, 20_000, stream(9, "draws"))
    assert set(draws) <= {1, 2, 3, 4}
    freq = np.bincount(np.array(draws) - 1, minlength=4) / len(draws)
    w = sampler.weights(4)
    sigma = np.sqrt(w * (1 - w) / len(draws))
    assert np.all(np.abs(freq - w) <= 4 * sigma + 1e-9)
    assert sampler.sample(4, 0, stream(9, "none")) == ()
    with pytest.raises(ContractViolation, match="n must be >= 0"):
        sampler.sample(4, -1, stream(9, "none"))
