"""Training loop, optimizer, budget predictions, checkpoints, evaluation."""

import importlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from dispo.errors import ConfigurationError, ContractViolation, DivergenceError
from dispo.policy import LinearArch, init_params, inverse_cdf
from dispo.sequences import MaskedSequence, Vocab
from dispo.streams import stream
from dispo.surrogate import SurrogateConfig
from dispo.tasks import RewardFn, StringMatchInstance, Task, TaskInstance, save_instances
from dispo.trainer import (
    METRIC_COLUMNS,
    OptimizerConfig,
    OptState,
    PolicyConfig,
    RunConfig,
    SamplerConfig,
    build_schedule,
    build_task,
    clip_gradient,
    config_from_dict,
    config_to_dict,
    content_hash,
    count_ops,
    evaluate,
    init_policy,
    predict_run_totals,
    train,
    update,
)


def tiny_config(**overrides):
    base = dict(
        task="stringmatch",
        task_params={"target_len": 4, "vocab_size": 3},
        n_instances=2,
        n_rollouts=2,
        n_denoising_steps=2,
        n_branches=2,
        batch_size=1,
        n_updates=4,
        n_timesteps=1,
        surrogate=SurrogateConfig(n_mc=1),
        optimizer=OptimizerConfig(lr=0.05),
        seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_config_from_dict_round_trip():
    cfg = tiny_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_rejects_unknown_keys_by_name():
    with pytest.raises(ConfigurationError, match="learning_rate"):
        config_from_dict({"learning_rate": 0.1})
    with pytest.raises(ConfigurationError, match="momentum"):
        config_from_dict({"optimizer": {"momentum": 0.9}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"optimizer": 0.9})
    with pytest.raises(ConfigurationError):
        config_from_dict({"optimizer": {"lr": -1.0}})


def test_config_values_are_type_checked_by_name():
    for key, value in (("n_rollouts", 2.5), ("n_rollouts", True), ("seed", True), ("task", 3)):
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            config_from_dict({key: value})
    with pytest.raises(ConfigurationError, match="'sampler.degree'"):
        config_from_dict({"sampler": {"degree": 4.0}})
    with pytest.raises(ConfigurationError, match="'surrogate.n_mc'"):
        config_from_dict({"surrogate": {"n_mc": True}})
    # ints stand in for floats, and optional fields take None
    cfg = config_from_dict({"alpha_step": 1, "clip_eps": None, "surrogate": {"ratio_law": 0}})
    assert cfg.alpha_step == 1 and cfg.clip_eps is None
    assert config_from_dict({"tokens_per_step": None, "block_size": 2}).block_size == 2


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        tiny_config(n_updates=0)
    with pytest.raises(ConfigurationError):
        tiny_config(n_branches=0)
    with pytest.raises(ConfigurationError):
        tiny_config(clip_eps=1.5)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(grad_clip=0.0)
    with pytest.raises(ConfigurationError):
        PolicyConfig(arch="transformer")
    # init_scale lies in [0, 1e3]; NaN fails the bound too
    for scale in (-0.1, 1e3 + 1, 1e308, float("nan")):
        with pytest.raises(ConfigurationError, match="policy.init_scale must be"):
            PolicyConfig(init_scale=scale)
    assert PolicyConfig(init_scale=1e3).init_scale == 1e3


def test_count_ops_formulas():
    cfg = tiny_config(
        n_rollouts=6,
        n_denoising_steps=16,
        n_timesteps=1,
        n_branches=2,
        surrogate=SurrogateConfig(n_mc=2),
        alpha_step=0.1,
        kl_beta=0.0,
    )
    ops = count_ops(cfg)
    assert ops.rollout_forward_passes == 6 * 16
    assert ops.reward_evals == 6 + 6 * 2
    assert ops.surrogate_terminal_calls == 2 * 2 * 6
    assert ops.surrogate_step_calls == 2 * 2 * 6
    assert ops.surrogate_kl_calls == 0

    off = count_ops(replace(cfg, alpha_step=0.0))
    assert off.rollout_forward_passes == 6 * 16
    assert off.reward_evals == 6
    assert off.surrogate_step_calls == 0

    kl = count_ops(replace(cfg, kl_beta=0.01))
    assert kl.surrogate_kl_calls == 2 * 2

    step_only = count_ops(replace(cfg, alpha_term=0.0))
    assert step_only.reward_evals == 6 + 6 * 2  # the rollouts are still scored
    assert step_only.surrogate_terminal_calls == 0
    assert step_only.surrogate_step_calls == 2 * 2 * 6


def test_predict_run_totals_scaling():
    cfg = tiny_config(n_updates=5, batch_size=3)
    per = count_ops(cfg)
    totals = predict_run_totals(cfg)
    assert totals.optimizer_steps == 5
    assert totals.rollout_forward_passes == per.rollout_forward_passes * 15
    assert totals.reward_evals == per.reward_evals * 15


def test_clip_gradient_rescales_to_the_ball():
    g = np.array([3.0, 4.0])
    clipped = clip_gradient(g, 0.5)
    assert np.linalg.norm(clipped) == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(clipped, g * 0.1)
    assert clip_gradient(g, 10.0) is g
    assert clip_gradient(g, None) is g
    z = np.zeros(2)
    assert clip_gradient(z, 0.5) is z


def test_adam_matches_reference_formula():
    rng = stream(1, "adam")
    arch = LinearArch(Vocab(3), prompt_len=2, completion_len=2, window=0)
    cfg = OptimizerConfig(lr=0.05, weight_decay=0.1, grad_clip=0.3)
    params = init_params(arch, rng, scale=0.5)
    state = OptState.fresh(params.dim)
    m = np.zeros(params.dim)
    v = np.zeros(params.dim)
    theta = params.theta.copy()
    for t in range(1, 5):
        grad = rng.normal(size=params.dim)
        params, state = update(params, grad, state, cfg)
        g = grad.copy()
        norm = np.linalg.norm(g)
        if norm > cfg.grad_clip:
            g *= cfg.grad_clip / norm
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1**t)
        v_hat = v / (1 - cfg.beta2**t)
        theta = theta - cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * theta)
        assert np.allclose(params.theta, theta, atol=1e-15)
    assert state.step == 4


def test_update_rejects_bad_gradients():
    arch = LinearArch(Vocab(3), prompt_len=2, completion_len=2, window=0)
    params = init_params(arch)
    state = OptState.fresh(params.dim)
    with pytest.raises(DivergenceError):
        update(params, np.full(params.dim, np.nan), state, OptimizerConfig())
    with pytest.raises(ContractViolation):
        update(params, np.zeros(params.dim + 1), state, OptimizerConfig())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_writes_its_cause_to_the_run_directory(tmp_path):
    config = RunConfig(n_updates=5, optimizer=OptimizerConfig(lr=1e308, grad_clip=None))
    with pytest.raises(DivergenceError, match="at update 2, prompt slot 0"):
        train(config, tmp_path)
    dump = json.loads((tmp_path / "divergence.json").read_text())
    assert dump["update"] == 2 and dump["prompt_slot"] == 0
    assert dump["loss"] is None
    assert dump["config"] == json.loads(json.dumps(config_to_dict(config)))


def test_build_schedule_defaults_to_even_split():
    cfg = tiny_config(task_params={"target_len": 8, "vocab_size": 3}, n_denoising_steps=3)
    task = build_task(cfg)
    sched = build_schedule(cfg, task)
    assert sched.tokens_per_step == 3  # ceil(8 / 3)
    with pytest.raises(ConfigurationError):
        build_schedule(replace(cfg, tokens_per_step=8), task)


def test_init_policy_never_freezes_the_mlp():
    cfg = tiny_config(policy=PolicyConfig(arch="mlp", hidden=4))
    task = build_task(cfg)
    params = init_policy(cfg, task)
    assert np.abs(params.theta).max() > 0
    linear = init_policy(tiny_config(), build_task(tiny_config()))
    assert not linear.theta.any()


def test_build_task_from_instances_file(tmp_path):
    cfg = tiny_config()
    task = build_task(cfg)
    path = tmp_path / "pool.json"
    save_instances(path, task)
    loaded = build_task(replace(cfg, task_params={"instances_file": str(path)}))
    assert [ti.reward.instance for ti in loaded.instances] == [
        ti.reward.instance for ti in task.instances
    ]
    with pytest.raises(ConfigurationError):
        build_task(replace(cfg, task="sudoku", task_params={"instances_file": str(path)}))


def test_training_is_deterministic():
    cfg = tiny_config()
    a = train(cfg)
    b = train(cfg)
    assert np.array_equal(a.params.theta, b.params.theta)
    assert a.metrics == b.metrics
    assert a.counters == b.counters


def test_counters_match_predictions_exactly():
    cfg = tiny_config(kl_beta=0.01, n_updates=3, batch_size=2)
    result = train(cfg)
    assert result.counters.as_dict() == predict_run_totals(cfg).as_dict()
    # terminal-only arm: same rollout and optimizer budget, no step extras
    off = train(replace(cfg, alpha_step=0.0))
    assert off.counters.rollout_forward_passes == result.counters.rollout_forward_passes
    assert off.counters.optimizer_steps == result.counters.optimizer_steps
    assert off.counters.surrogate_step_calls == 0
    assert off.counters.as_dict() == predict_run_totals(replace(cfg, alpha_step=0.0)).as_dict()
    # step-only arm: the rollouts are still scored, but no terminal loss runs
    step_only = replace(cfg, alpha_term=0.0)
    no_term = train(step_only)
    assert no_term.counters.surrogate_terminal_calls == 0
    assert no_term.counters.as_dict() == predict_run_totals(step_only).as_dict()


def test_training_builds_masked_sequences_only_at_the_api_edge(monkeypatch):
    """Completions and branch sites travel as token rows from rollout to reward and loss.

    A run builds one ``MaskedSequence`` per instance prompt and no other:
    none per rollout, rollout step, fully masked state, branch site or
    branch member (a state is its context token row).
    """
    built = []
    real = MaskedSequence.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(MaskedSequence, "__post_init__", counted)
    cfg = tiny_config(kl_beta=0.01, n_updates=3, batch_size=2, n_rollouts=3, n_timesteps=2)
    train(cfg)
    assert len(built) == cfg.n_instances


def test_train_branches_trajectory_major_at_cached_states(monkeypatch):
    """Per prompt: trajectory k = 1..K in order, each at every sampled step t,
    branching from the rows the rollout kept at x_t (``traj.states[t-1]``,
    ``traj.positions[t-1]``, ``traj.logp[t-1]``: ``state_at(t)`` in array
    form, with its rows), every site of prompt b with its one
    generator ``stream(seed, "branch", u, b)``.  An update's one ``rollout``
    call holds prompt b's trajectories at ``b * K .. b * K + K - 1``, and its
    one ``branch`` call holds every prompt's sites in that order."""
    trainer = importlib.import_module("dispo.trainer")
    real_rollout, real_sample = trainer.rollout, SamplerConfig.sample
    real_stream, real_branch = trainer.stream, trainer.branch
    rollouts, samples, streams, calls, branch_calls = [], [], [], [], []

    def spy_rollout(*args, **kwargs):
        rollouts.append(real_rollout(*args, **kwargs))
        return rollouts[-1]

    def spy_sample(self, *args):
        samples.append(real_sample(self, *args))
        return samples[-1]

    def spy_stream(root, label, *path):
        rng = real_stream(root, label, *path)
        if label == "branch":
            streams.append(((root, *path), rng))
        return rng

    def spy_branch(completions, positions, logp, n_branches, rngs):
        branch_calls.append(len(completions))
        calls.extend(
            (row, pos, lp, n_branches, rng)
            for row, pos, lp, rng in zip(completions, positions, logp, rngs, strict=True)
        )
        return real_branch(completions, positions, logp, n_branches, rngs)

    monkeypatch.setattr(trainer, "rollout", spy_rollout)
    monkeypatch.setattr(SamplerConfig, "sample", spy_sample)
    monkeypatch.setattr(trainer, "stream", spy_stream)
    monkeypatch.setattr(trainer, "branch", spy_branch)
    cfg = tiny_config(n_updates=2, batch_size=2, n_rollouts=3, n_timesteps=2)
    train(cfg)
    assert [len(trajs) for trajs in rollouts] == [2 * 3, 2 * 3]  # one call per update
    assert branch_calls == [2 * 3 * 2, 2 * 3 * 2]  # one call per update
    prompts = list(itertools.product((1, 2), (0, 1)))
    assert [path for path, _ in streams] == [(cfg.seed, u, b) for u, b in prompts]
    made = dict(zip(prompts, (rng for _, rng in streams)))
    expected = [
        (made[u, b], rollouts[u - 1][b * 3 + k - 1], t)
        for (u, b), tsub in zip(prompts, samples, strict=True)
        for k in range(1, 4)
        for t in tsub
    ]
    assert len(calls) == len(expected) == 2 * 2 * 3 * 2
    for (row, pos, lp, n, rng), (want, traj, t) in zip(calls, expected):
        assert rng is want and n == cfg.n_branches
        assert pos is traj.positions[t - 1] and lp is traj.logp[t - 1]
        state, n = traj.state_at(t), traj.prompt.length
        assert state[:n].tolist() == list(traj.prompt.tokens)
        assert row.tolist() == state[n:].tolist()
        mask = tuple(np.flatnonzero(state[n:] == traj.prompt.vocab.mask_id).tolist())
        assert tuple(pos.tolist()) == tuple(traj.positions[t - 1].tolist()) == mask
        assert lp.tobytes() == traj.logp[t - 1].tobytes()


def test_an_update_makes_one_stream_per_prompt_and_purpose(monkeypatch):
    """``train`` makes exactly ``1 + B*K + 3*B`` ``stream`` calls per update (batch, one
    per rollout, then per prompt tsub, branch and loss), plus the run's task and init.

    On this seed ``tsub`` repeats a timestep, and the repeated sites still draw
    different uniforms: every site of a prompt takes its ``rng.random((Z, m))`` in
    site order from the prompt's one generator."""
    trainer = importlib.import_module("dispo.trainer")
    real_stream, real_sample, real_branch = trainer.stream, SamplerConfig.sample, trainer.branch
    labels, samples, calls = [], [], []

    def spy_stream(root, label, *path):
        labels.append(label)
        return real_stream(root, label, *path)

    def spy_sample(self, *args):
        samples.append(real_sample(self, *args))
        return samples[-1]

    def spy_branch(completions, positions, logp, n_branches, rngs):
        actions, completed = real_branch(completions, positions, logp, n_branches, rngs)
        calls.append((positions, logp, actions))
        return actions, completed

    monkeypatch.setattr(trainer, "stream", spy_stream)
    monkeypatch.setattr(SamplerConfig, "sample", spy_sample)
    monkeypatch.setattr(trainer, "branch", spy_branch)
    cfg = tiny_config(n_updates=3, batch_size=2, n_rollouts=3, n_timesteps=3)
    train(cfg)
    b, k = cfg.batch_size, cfg.n_rollouts
    per_update = ["batch"] + ["rollout"] * (b * k) + ["tsub"] * b + ["branch"] * b + ["loss"] * b
    assert labels == ["task", "init"] + per_update * cfg.n_updates
    assert len(labels) == 2 + cfg.n_updates * (1 + b * k + 3 * b)

    repeated = 0
    for u, (positions, logp, actions) in enumerate(calls, start=1):
        per_prompt = len(positions) // b
        for slot in range(b):
            rng = stream(cfg.seed, "branch", u, slot)
            sites = range(slot * per_prompt, (slot + 1) * per_prompt)
            uniforms = [rng.random((cfg.n_branches, len(positions[i]))) for i in sites]
            for i, drawn in zip(sites, uniforms):
                assert np.array_equal(actions[i], inverse_cdf(logp[i][None], drawn))
            tsub = samples[(u - 1) * b + slot]
            for first, t in enumerate(tsub):  # each trajectory's sites are its tsub, in order
                for later in range(first + 1, len(tsub)):
                    if tsub[later] == t:
                        repeated += 1
                        for traj in range(k):
                            i, j = traj * len(tsub) + first, traj * len(tsub) + later
                            assert not np.array_equal(uniforms[i], uniforms[j])
    assert repeated > 0  # the seed repeats a timestep


def test_metrics_rows_have_the_declared_columns():
    result = train(tiny_config(n_updates=2))
    for row in result.metrics:
        assert list(row) == METRIC_COLUMNS
    assert result.metrics[0]["update"] == 1
    assert 0.0 <= result.metrics[0]["mean_terminal_reward"] <= 1.0


def test_resume_reproduces_the_straight_run(tmp_path):
    cfg = tiny_config(n_updates=6, kl_beta=0.01)
    straight = tmp_path / "straight"
    split = tmp_path / "split"
    full = train(cfg, straight)
    train(replace(cfg, n_updates=3), split)
    resumed = train(cfg, split, resume_from=split)
    assert np.array_equal(resumed.params.theta, full.params.theta)
    assert resumed.counters == full.counters
    assert (split / "metrics.csv").read_bytes() == (straight / "metrics.csv").read_bytes()
    with pytest.raises(ConfigurationError):
        train(replace(cfg, seed=cfg.seed + 1), resume_from=split)


def test_run_directory_contents(tmp_path):
    cfg = tiny_config(n_updates=2)
    out = tmp_path / "run"
    train(cfg, out)
    for name in (
        "metrics.csv",
        "policy.bin",
        "policy.json",
        "reference.bin",
        "optimizer.npz",
        "train_state.json",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    assert content_hash(cfg) == content_hash(tiny_config(n_updates=2))
    assert content_hash(cfg) != content_hash(tiny_config(n_updates=3))


def test_evaluate_uniform_policy_on_a_known_target():
    vocab = Vocab(4)
    inst = StringMatchInstance((1, 2, 3, 0), vocab_size=4)
    task = Task(
        "stringmatch",
        vocab,
        4,
        4,
        (TaskInstance(MaskedSequence(inst.target, vocab), RewardFn(inst)),),
    )
    arch_cfg = tiny_config(task_params={"target_len": 4, "vocab_size": 4})
    params = init_params(
        LinearArch(vocab, prompt_len=4, completion_len=4, window=arch_cfg.policy.window)
    )
    from dispo.rollout import UnmaskSchedule

    result = evaluate(params, task, 2, UnmaskSchedule(2))
    # greedy under uniform logits always writes token 0: one match of four
    assert result.rewards == (0.25,)
    assert result.accuracy == 0.0
    assert result.mean_first_violation is None


def test_a_failed_write_leaves_the_run_directory_as_it_was(tmp_path, monkeypatch):
    cfg = tiny_config(n_updates=3)
    run = tmp_path / "run"
    train(cfg, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}

    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", disk_full)
    with pytest.raises(OSError, match="disk full"):
        train(replace(cfg, n_updates=5), run, resume_from=run)
    # byte-identical, and no staging file left behind
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    monkeypatch.undo()
    train(replace(cfg, n_updates=5), run, resume_from=run)
    train(replace(cfg, n_updates=5), tmp_path / "straight")
    for name in before:
        assert (run / name).read_bytes() == (tmp_path / "straight" / name).read_bytes(), name
