"""Group losses, clipping, KL penalty, loss combination, timestep laws."""

import numpy as np
import pytest

from dispo.counters import OpCounters
from dispo.errors import ConfigurationError, ContractViolation
from dispo.objective import (
    LossConfig,
    StepGroup,
    TimestepSampler,
    clipped_objective,
    combined_loss,
    group_advantages,
    kl_penalty,
    sample_timesteps,
    step_loss,
    terminal_loss,
)
from dispo.policy import LinearArch, init_params
from dispo.sequences import Action, DiffusionState, MaskedSequence, Vocab
from dispo.streams import stream
from dispo.surrogate import (
    SurrogateConfig,
    completion_action,
    full_mask_state,
    state_surrogate_grad,
)

VOCAB = Vocab(3)
ARCH = LinearArch(VOCAB, prompt_len=2, completion_len=3, window=1)
PROMPT = MaskedSequence((0, 2), VOCAB)
OFF = SurrogateConfig(n_mc=1, ratio_law="zero")
NOCLIP = LossConfig(clip_eps=None)


def mid_state():
    return DiffusionState(PROMPT, MaskedSequence((1, VOCAB.mask_id, VOCAB.mask_id), VOCAB))


def test_advantages_subtract_the_group_mean():
    out = group_advantages([1.0, 0.0])
    assert out.baseline == 0.5
    assert out.advantages == (0.5, -0.5)
    rng = stream(1, "adv")
    for _ in range(50):
        rewards = rng.normal(size=int(rng.integers(1, 9)))
        out = group_advantages(rewards)
        assert abs(sum(out.advantages)) < 1e-12
    with pytest.raises(ContractViolation):
        group_advantages([])


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
    a1 = Action(((1, 0), (2, 2)))
    a2 = Action(((1, 1), (2, 1)))
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
    c1 = MaskedSequence((0, 1, 2), VOCAB)
    c2 = MaskedSequence((2, 2, 0), VOCAB)
    loss, grad = terminal_loss(PROMPT, [(c1, 1.0), (c2, 0.0)], params, params, NOCLIP, OFF)
    assert abs(loss) < 1e-15
    full = full_mask_state(PROMPT, 3)
    g1 = state_surrogate_grad(params, full, completion_action(c1), OFF, kind="terminal")
    g2 = state_surrogate_grad(params, full, completion_action(c2), OFF, kind="terminal")
    assert np.allclose(grad, -0.25 * (g1 - g2), atol=1e-12)
    with pytest.raises(ContractViolation):
        terminal_loss(PROMPT, [], params, params, NOCLIP, OFF)
    with pytest.raises(ContractViolation):
        terminal_loss(PROMPT, [(mid_state().completion, 1.0)], params, params, NOCLIP, OFF)


def test_step_loss_gradient_matches_finite_differences():
    params = init_params(ARCH, stream(4, "p"), scale=0.4)
    old = init_params(ARCH, stream(4, "old"), scale=0.4)
    state = mid_state()
    branches = [(Action(((1, 0), (2, 1))), 0.3), (Action(((1, 2), (2, 2))), -0.9)]
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
    same, grad_same = kl_penalty(params, params, [state], cfg, stream(5, "pat"))
    assert same == 0.0
    assert np.allclose(grad_same, 0.0, atol=1e-12)
    val, _ = kl_penalty(params, ref, [state], cfg, stream(5, "pat"))
    assert val > 0.0
    # states with nothing masked contribute nothing
    done = DiffusionState(PROMPT, MaskedSequence((0, 1, 2), VOCAB))
    zero, gz = kl_penalty(params, ref, [done], cfg, stream(5, "pat"))
    assert zero == 0.0 and not gz.any()


def test_kl_penalty_gradient_matches_finite_differences():
    params = init_params(ARCH, stream(6, "p"), scale=0.5)
    ref = init_params(ARCH, stream(6, "ref"), scale=0.5)
    state = mid_state()
    cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    _, grad = kl_penalty(params, ref, [state], cfg, stream(6, "pat"))

    def value(theta):
        return kl_penalty(params.replace_theta(theta), ref, [state], cfg, stream(6, "pat"))[0]

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
    completions = [(MaskedSequence((0, 1, 2), VOCAB), 1.0), (MaskedSequence((2, 0, 1), VOCAB), 0.0)]
    groups = [
        StepGroup(mid_state(), ((Action(((1, 0), (2, 1))), 1.0), (Action(((1, 2), (2, 0))), 0.0)))
    ]
    cfg = LossConfig(alpha_step=0.3, alpha_term=0.7, kl_beta=0.05, clip_eps=None)
    loss, grad, parts = combined_loss(
        PROMPT, completions, groups, params, old, ref, cfg, OFF, stream(7, "rng")
    )
    expect = 0.7 * parts["loss_term"] + 0.3 * parts["loss_step"] + 0.05 * parts["kl"]
    assert loss == pytest.approx(expect, abs=1e-12)
    expect_g = 0.7 * parts["grad_term"] + 0.3 * parts["grad_step"] + 0.05 * parts["grad_kl"]
    assert np.allclose(grad, expect_g, atol=1e-12)


def test_zero_weight_families_consume_nothing():
    params = init_params(ARCH, stream(8, "p"), scale=0.5)
    completions = [(MaskedSequence((0, 1, 2), VOCAB), 1.0), (MaskedSequence((2, 0, 1), VOCAB), 0.0)]
    groups = [
        StepGroup(mid_state(), ((Action(((1, 0), (2, 1))), 1.0), (Action(((1, 2), (2, 0))), 0.0)))
    ]
    counters = OpCounters()
    cfg = LossConfig(alpha_step=0.0, alpha_term=1.0, kl_beta=0.0)
    combined_loss(
        PROMPT, completions, groups, params, params, None, cfg, OFF, stream(8, "rng"),
        counters=counters,
    )
    assert counters.surrogate_step_calls == 0
    assert counters.surrogate_kl_calls == 0
    assert counters.surrogate_terminal_calls > 0
    with pytest.raises(ContractViolation):
        combined_loss(
            PROMPT, completions, groups, params, params, None,
            LossConfig(kl_beta=0.01), OFF, stream(8, "rng2"),
        )


@pytest.mark.parametrize("law", ["uniform", 0.5])
def test_corruption_without_a_generator_is_a_named_error(law):
    params = init_params(ARCH, stream(10, "p"), scale=0.5)
    state = mid_state()
    branches = [(Action(((1, 0), (2, 1))), 1.0), (Action(((1, 2), (2, 0))), 0.0)]
    completions = [(MaskedSequence((0, 1, 2), VOCAB), 1.0), (MaskedSequence((2, 0, 1), VOCAB), 0.0)]
    cfg = SurrogateConfig(n_mc=2, ratio_law=law)
    calls = {
        "step_loss": lambda: step_loss(state, branches, params, params, NOCLIP, cfg),
        "terminal_loss": lambda: terminal_loss(PROMPT, completions, params, params, NOCLIP, cfg),
        "kl_penalty": lambda: kl_penalty(params, params, [state], cfg),
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
    w = TimestepSampler("poly_late", 4, degree=4).weights()
    assert np.allclose(w, np.array([1.0, 16.0, 81.0, 256.0]) / 354.0, atol=1e-15)
    w = TimestepSampler("poly_early", 4, degree=4).weights()
    assert np.allclose(w, np.array([256.0, 81.0, 16.0, 1.0]) / 354.0, atol=1e-15)
    w = TimestepSampler("uniform", 4).weights()
    assert np.allclose(w, 0.25, atol=1e-15)
    with pytest.raises(ConfigurationError):
        TimestepSampler("linear", 4)


def test_sample_timesteps_follows_the_law():
    sampler = TimestepSampler("poly_late", 4, degree=4)
    draws = sample_timesteps(sampler, 20_000, stream(9, "draws"))
    assert set(draws) <= {1, 2, 3, 4}
    freq = np.bincount(np.array(draws) - 1, minlength=4) / len(draws)
    w = sampler.weights()
    sigma = np.sqrt(w * (1 - w) / len(draws))
    assert np.all(np.abs(freq - w) <= 4 * sigma + 1e-9)
    assert sample_timesteps(sampler, 0, stream(9, "none")) == ()
