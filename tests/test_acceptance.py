"""End-to-end acceptance checks.

Each test covers one numbered claim about the package: the two gradient
identities, the two variance propositions, the measurement-protocol
direction, finite-difference exactness, matched compute budgets, the
directional training comparison on both toy tasks, the first-violation
comparison on the trained Sudoku policies, and the core algebraic
invariants.  Tolerances and sample sizes are stated inline; everything
is seeded, so reruns reproduce the same numbers.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dispo.objective import LossConfig, kl_penalty, step_loss
from dispo.policy import (
    LinearArch,
    MlpArch,
    action_logprob,
    grad_action_logprob,
    init_params,
)
from dispo.rollout import UnmaskSchedule, branch, rollout
from dispo.sequences import DiffusionState, MaskedSequence, Vocab, fill
from dispo.streams import stream
from dispo.surrogate import (
    SurrogateConfig,
    state_surrogate_grad,
    state_surrogate_logprob,
)
from dispo.tasks import make_task
from dispo.trainer import (
    OptimizerConfig,
    PolicyConfig,
    RunConfig,
    SamplerConfig,
    build_schedule,
    build_task,
    evaluate,
    train,
)
from dispo.verify import (
    VARIANCE_CONDITIONS,
    battery,
    build_oracle_problem,
    c_factor,
    collect_states,
    perturb_params,
    trcov_protocol,
)

N_FULL = 100_000


@pytest.fixture(scope="module")
def oracle_battery():
    """The ``dispo verify`` battery at full size, and its wall time: criteria 1-4 read it.

    Its nine reports come in ``dispo verify``'s order: four step-gradient
    checks, three combined-loss weightings, then the two propositions.
    """
    t0 = time.perf_counter()
    reports = list(battery(N_FULL))
    return reports, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. Step-gradient identity: E[-grad L_step] = ((Z-1)/Z) grad J_t


def test_criterion_01_step_gradient_identity(oracle_battery, acceptance_log):
    battery_reports, elapsed = oracle_battery
    reports = battery_reports[:4]
    assert all(r.name.startswith("step-gradient-identity") for r in reports)
    worst_z = max(r.max_abs_z for r in reports)
    worst_rel = max(r.rel_l2 for r in reports)
    acceptance_log(
        1, f"worst max|z|={worst_z:.2f}, worst relL2={worst_rel:.4f}, battery {elapsed:.1f}s"
    )
    for r in reports:
        assert r.passed, f"{r.name}: max|z|={r.max_abs_z:.3f} relL2={r.rel_l2:.4f}"
        assert r.max_abs_z <= 4.0
        assert r.rel_l2 <= 0.03
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 2. Combined-loss identity, including the terminal group factor (K-1)/K


def test_criterion_02_combined_gradient_identity(oracle_battery, acceptance_log):
    battery_reports, elapsed = oracle_battery
    reports = battery_reports[4:7]
    assert all(r.name.startswith("combined-gradient-identity") for r in reports)

    # The terminal-only estimate also pins down the group factor: against a
    # target that omits (K-1)/K the same samples are off by hundreds of
    # standard errors, so the factor in the implemented identity is not
    # optional.
    (term_only,) = (r for r in reports if r.name.endswith("a_step=0.0 a_term=1.0"))
    factor_free_target = term_only.target / c_factor(2)
    se = term_only.std_err
    ok = se > 0
    z_free = np.abs(term_only.estimate[ok] - factor_free_target[ok]) / se[ok]
    worst_z = max(r.max_abs_z for r in reports)
    worst_rel = max(r.rel_l2 for r in reports)
    acceptance_log(
        2,
        f"worst max|z|={worst_z:.2f}, worst relL2={worst_rel:.4f}, "
        f"factor-free rejected at max|z|={z_free.max():.0f}, battery {elapsed:.1f}s",
    )
    for r in reports:
        assert r.passed, f"{r.name}: max|z|={r.max_abs_z:.3f} relL2={r.rel_l2:.4f}"
    assert z_free.max() > 4.0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 3. Scored-subset variance ratio m/L


def test_criterion_03_subset_variance_ratio(oracle_battery, acceptance_log):
    report = oracle_battery[0][7]
    acceptance_log(3, f"ratio={report.ratio:.4f}, expected {report.expected} +/- 0.02")
    assert abs(report.ratio - 0.25) <= 0.02
    assert report.passed


# ---------------------------------------------------------------------------
# 4. Group-size variance decay close to 1/Z


def test_criterion_04_group_size_variance_decay(oracle_battery, acceptance_log):
    report = oracle_battery[0][8]
    acceptance_log(4, f"log-log slope={report.slope:.3f}, bounds [-1.2, -0.8]")
    assert -1.2 <= report.slope <= -0.8
    assert report.passed


# ---------------------------------------------------------------------------
# 5. Measurement protocol separates update rules in the right direction


def test_criterion_05_variance_protocol_direction(acceptance_log):
    task = make_task("stringmatch", stream(21, "task"), 12, target_len=32, vocab_size=3)
    arch = LinearArch(task.vocab, task.prompt_len, task.completion_len, window=2)
    collector = init_params(arch, stream(77, "collector"), scale=0.5)
    params = init_params(arch, stream(21, "theta"), scale=0.5)
    old = perturb_params(params, stream(21, "old"), 0.5)
    schedule = UnmaskSchedule(2, None)
    # states from a third, unrelated policy: the measured estimators see
    # branching states that neither parameter set selected
    candidates = collect_states(
        collector, task, 16, schedule, (16,), seed=0, rollouts_per_instance=4
    )
    report = trcov_protocol(
        params,
        old,
        candidates,
        VARIANCE_CONDITIONS,
        64,
        SurrogateConfig(n_mc=1, ratio_law="zero"),
        seed=33,
    )
    assert report.n_retained > 0
    lo_all, hi_all = report.diff_ci["all-z2"]
    lo_z4, hi_z4 = report.diff_ci["action-z4"]
    acceptance_log(
        5,
        f"all-token minus action-only CI [{lo_all:+.3f}, {hi_all:+.3f}]; "
        f"Z=4 minus Z=2 CI [{lo_z4:+.5f}, {hi_z4:+.5f}]",
    )
    # action-only strictly below all-token at Z=2
    assert lo_all > 0.0
    # Z=4 strictly below Z=2 under action-only scoring
    assert hi_z4 < 0.0


# ---------------------------------------------------------------------------
# 6. Analytic gradients match central finite differences


def _fd_gradient(fn, params, h=1e-5):
    theta = params.theta
    grad = np.zeros(params.dim)
    for i in range(params.dim):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (fn(params.replace_theta(up)) - fn(params.replace_theta(down))) / (2 * h)
    return grad


def _rel_err(approx, exact):
    scale = max(np.linalg.norm(exact), 1e-12)
    return np.linalg.norm(approx - exact) / scale


def test_criterion_06_gradients_match_finite_differences(acceptance_log):
    worst = 0.0
    for i in range(20):
        rng = stream(600 + i, "fd-instance")
        vocab = Vocab(2 + i % 3)
        prompt_len = 2 + i % 2
        completion_len = 3 + i % 2
        window = 1 + i % 2
        if i < 10:
            arch = LinearArch(vocab, prompt_len, completion_len, window=window)
        else:
            arch = MlpArch(vocab, prompt_len, completion_len, window=window, hidden=5)
        params = init_params(arch, rng, scale=0.4)

        prompt = MaskedSequence(tuple(rng.integers(vocab.size, size=prompt_len)), vocab)
        n_masked = 1 + i % completion_len
        masked_pos = set(rng.choice(completion_len, size=n_masked, replace=False).tolist())
        tokens = tuple(
            vocab.mask_id if p in masked_pos else int(rng.integers(vocab.size))
            for p in range(completion_len)
        )
        state = DiffusionState(prompt, MaskedSequence(tokens, vocab))
        action = tuple(int(rng.integers(vocab.size)) for _ in masked_pos)

        exact = grad_action_logprob(params, state, action)
        fd = _fd_gradient(lambda p: action_logprob(p, state, action)[0], params)
        worst = max(worst, _rel_err(fd, exact))

        cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
        scope = "action" if i % 2 == 0 else "all"
        seed = 600 + i  # a fresh pattern stream per call draws the same masks
        exact_s = state_surrogate_grad(
            params, state, action, cfg, stream(seed, "fd-patterns"), scope=scope
        )
        fd_s = _fd_gradient(
            lambda p: state_surrogate_logprob(
                p, state, action, cfg, stream(seed, "fd-patterns"), scope=scope
            ),
            params,
        )
        worst = max(worst, _rel_err(fd_s, exact_s))
        assert _rel_err(fd, exact) <= 1e-5, f"instance {i}: action gradient"
        assert _rel_err(fd_s, exact_s) <= 1e-5, f"instance {i}: surrogate gradient"
    acceptance_log(6, f"worst relative error {worst:.2e} over 20 instances, h=1e-5")


# ---------------------------------------------------------------------------
# 7. Matched budget: step supervision adds only its own reward and scoring calls


def test_criterion_07_matched_budget(acceptance_log):
    base = RunConfig(
        task="stringmatch",
        task_params={"target_len": 6, "vocab_size": 3},
        n_instances=2,
        n_rollouts=3,
        n_branches=2,
        batch_size=2,
        n_denoising_steps=3,
        n_updates=2,
        n_timesteps=2,
        kl_beta=0.0,
        surrogate=SurrogateConfig(n_mc=2, ratio_law="uniform"),
        policy=PolicyConfig(arch="linear", window=1),
        seed=5,
    )
    both = train(replace(base, alpha_step=0.1)).counters
    term = train(replace(base, alpha_step=0.0)).counters

    n_prompts = base.n_updates * base.batch_size
    k = base.n_rollouts
    s = k * base.n_timesteps
    z = base.n_branches
    n_mc = base.surrogate.n_mc

    assert both.rollout_forward_passes == term.rollout_forward_passes
    assert both.optimizer_steps == term.optimizer_steps == base.n_updates
    # per prompt: K + |S| Z reward calls with step supervision, K without
    assert both.reward_evals == n_prompts * (k + s * z)
    assert term.reward_evals == n_prompts * k
    # per prompt: 2 N_m |S| one-step scoring calls, none without
    assert both.surrogate_step_calls == n_prompts * 2 * n_mc * s
    assert term.surrogate_step_calls == 0
    assert both.surrogate_terminal_calls == term.surrogate_terminal_calls
    acceptance_log(
        7,
        f"shared rollouts {both.rollout_forward_passes}, extras per prompt: "
        f"{s * z} rewards and {2 * n_mc * s} scoring calls",
    )


# ---------------------------------------------------------------------------
# 8./9. Directional training on both toy tasks, then first-violation times

SEEDS = (0, 1, 2, 3, 4)

STRINGMATCH_CONFIG = RunConfig(
    task="stringmatch",
    task_params={"target_len": 8, "vocab_size": 4},
    n_instances=2,
    n_rollouts=4,
    n_branches=2,
    batch_size=2,
    n_denoising_steps=4,
    n_updates=100,
    n_timesteps=2,
    sampler=SamplerConfig(law="poly_late", degree=4),
    surrogate=SurrogateConfig(n_mc=2, ratio_law="uniform"),
    optimizer=OptimizerConfig(lr=0.03),
    policy=PolicyConfig(arch="linear", window=2),
    kl_beta=0.01,
)

SUDOKU_CONFIG = RunConfig(
    task="sudoku",
    task_params={"n_empty": 8},
    n_instances=40,
    n_rollouts=4,
    n_branches=2,
    batch_size=2,
    n_denoising_steps=4,
    n_updates=150,
    n_timesteps=3,
    sampler=SamplerConfig(law="poly_late", degree=4),
    surrogate=SurrogateConfig(n_mc=2, ratio_law="uniform"),
    optimizer=OptimizerConfig(lr=0.05),
    policy=PolicyConfig(arch="linear", window=2),
    kl_beta=0.01,
)


@pytest.fixture(scope="module")
def directional_runs():
    """Train both arms of both tasks over the five seeds (shared by 8 and 9)."""
    out = {}
    for name, base in (("stringmatch", STRINGMATCH_CONFIG), ("sudoku", SUDOKU_CONFIG)):
        out[name] = {
            arm: [train(replace(base, seed=s, alpha_step=alpha)) for s in SEEDS]
            for arm, alpha in (("combined", 0.1), ("terminal", 0.0))
        }
    return out


def _tail_mean(result):
    rows = result.metrics
    n_tail = max(1, len(rows) // 5)
    return float(np.mean([row["mean_terminal_reward"] for row in rows[-n_tail:]]))


def _sign_test_p(wins, losses):
    """One-sided p for 'the terminal arm is better', ties dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(math.comb(n, k) for k in range(losses, n + 1)) / 2.0**n


def test_criterion_08_directional_training(directional_runs, acceptance_log):
    notes = []
    for name in ("stringmatch", "sudoku"):
        runs = directional_runs[name]
        combined = [_tail_mean(r) for r in runs["combined"]]
        terminal = [_tail_mean(r) for r in runs["terminal"]]
        mean_c, mean_t = float(np.mean(combined)), float(np.mean(terminal))
        wins = sum(c > t for c, t in zip(combined, terminal))
        losses = sum(t > c for c, t in zip(combined, terminal))
        p = _sign_test_p(wins, losses)
        notes.append(f"{name} {mean_c:.3f} vs {mean_t:.3f} (w/l {wins}/{losses}, p={p:.2f})")
        assert mean_c >= mean_t, f"{name}: combined {mean_c:.4f} < terminal {mean_t:.4f}"
        # the paired sign test must not favor the terminal arm
        assert p >= 0.05, f"{name}: sign test contradicts the direction (p={p:.3f})"
    acceptance_log(8, "; ".join(notes))


def test_criterion_09_first_violation_direction(directional_runs, acceptance_log):
    runs = directional_runs["sudoku"]
    times = {}
    for arm in ("combined", "terminal"):
        per_seed = []
        for seed, result in zip(SEEDS, runs[arm]):
            cfg = replace(SUDOKU_CONFIG, seed=seed)
            pool = build_task(cfg)  # the same 40-instance pool the run trained on
            schedule = build_schedule(cfg, pool)
            report = evaluate(result.params, pool, cfg.n_denoising_steps, schedule)
            per_seed.append(report.mean_first_violation)
        times[arm] = float(np.mean(per_seed))
    n_decodes = len(SEEDS) * SUDOKU_CONFIG.n_instances
    acceptance_log(
        9,
        f"combined {times['combined']:.3f} vs terminal {times['terminal']:.3f} "
        f"over {n_decodes} greedy decodes per arm",
    )
    assert n_decodes * 2 >= 200
    assert times["combined"] >= times["terminal"]


# ---------------------------------------------------------------------------
# 10. Algebraic invariants: advantages, ratios, KL, fill, branch


def test_criterion_10_invariant_suite(acceptance_log, monkeypatch):
    rng = stream(1000, "invariants")
    problem, params = build_oracle_problem()
    cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")

    # group advantages sum to zero for any group: at rho = 1, with clipping
    # off, the step loss is minus the mean advantage
    state = problem.step_states[1].states[0]
    n_masked = len(state.completion.mask_positions())
    draws = stream(1000, "invariant-groups")
    for g in range(50):
        rewards = rng.normal(size=rng.integers(2, 9)).tolist()
        branches = [
            (tuple(int(t) for t in draws.integers(0, state.vocab.size, n_masked)), r)
            for r in rewards
        ]
        loss, _ = step_loss(
            state, branches, params, params, LossConfig(clip_eps=None), cfg,
            stream(1000, "invariant-patterns", g),
        )
        assert abs(loss) <= 1e-12 * len(rewards) * max(abs(r) for r in rewards)

    # importance ratio is exactly one at identical parameters with shared patterns
    state = problem.step_states[2].states[1]
    action = (0,) * len(state.completion.mask_positions())
    lp_new = state_surrogate_logprob(params, state, action, cfg, stream(1000, "ratio-patterns"))
    lp_old = state_surrogate_logprob(params, state, action, cfg, stream(1000, "ratio-patterns"))
    assert lp_new == lp_old
    assert math.exp(lp_new - lp_old) == 1.0

    # KL of a policy against itself is exactly zero, gradient included
    for kl_state in problem.step_states[2].states:
        kl, kl_grad = kl_penalty(params, params, kl_state, cfg, rng)
        assert kl == 0.0
        assert np.all(kl_grad == 0.0)

    # fill consumes the whole mask set and touches nothing else
    vocab = Vocab(3)
    prompt = MaskedSequence((0, 1), vocab)
    for _ in range(25):
        tokens = tuple(
            vocab.mask_id if rng.random() < 0.5 else int(rng.integers(3)) for _ in range(5)
        )
        if vocab.mask_id not in tokens:
            tokens = (vocab.mask_id,) + tokens[1:]
        seq = MaskedSequence(tokens, vocab)
        state = DiffusionState(prompt, seq)
        act = tuple(int(rng.integers(3)) for _ in seq.mask_positions())
        (filled,) = fill(state, [act]).tolist()
        assert vocab.mask_id not in filled
        for pos, tok in enumerate(seq.tokens):
            if tok != vocab.mask_id:
                assert filled[pos] == tok
        for pos, tok in zip(seq.mask_positions(), act):
            assert filled[pos] == tok

    # branching covers the branch state's mask set without running the policy
    arch = LinearArch(vocab, prompt_len=2, completion_len=4, window=1)
    roll_params = init_params(arch, stream(1001, "invariant-roll"), scale=0.5)
    rngs = [stream(1002, "invariant-traj")]
    traj = rollout(roll_params, [prompt], 2, UnmaskSchedule(2), rngs)[0]
    import importlib

    rollout_mod = importlib.import_module("dispo.rollout")

    def no_forward(*args, **kwargs):
        raise AssertionError("branching must reuse cached rollout logits")

    monkeypatch.setattr(rollout_mod, "rows_context", no_forward)
    for t in (1, 2):
        branch_state = traj.state_at(t)
        branch_mask = branch_state.completion.mask_positions()
        branch_rng = stream(1003, "invariant-branch", t)
        acts, completed = branch(branch_state, traj.cache_at(t), 4, branch_rng)
        assert acts.shape == (4, len(branch_mask))
        assert (completed[:, list(branch_mask)] == acts).all()
        assert vocab.mask_id not in completed
    acceptance_log(10, "advantages, ratio, KL, fill, and branch invariants all exact")
