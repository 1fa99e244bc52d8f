"""Bitwise differential tests: the batched hot path against per-item references.

Training cannot see the log-probability path (its ratios are exactly 1),
so these tests pin every batched kernel to a plain per-state or per-member
loop, compared with ``==``: features, sampling, log-probabilities, and the
step, terminal and KL losses with ``old_params != params`` and clipping
firing.  The references are the straightforward loops the batched code
replaces.
"""

import importlib
import itertools
import re
import sys

import numpy as np
import pytest

import dispo.objective as objective_module
import dispo.policy as policy_module
import dispo.sequences as sequences_module
import dispo.surrogate as surrogate_module
import dispo.verify as verify_module
from dispo.counters import OpCounters
from dispo.errors import ContractViolation
from dispo.objective import (
    LossConfig,
    aggregate_step_loss,
    clipped_objective,
    combined_loss,
    kl_penalty,
    step_loss,
    terminal_loss,
)
from dispo.policy import (
    LinearArch,
    MlpArch,
    RowsContext,
    _features,
    _unpack_mlp,
    init_params,
    log_softmax,
    mask_positions,
    rows_context,
    sample_action,
)
from dispo.rollout import UnmaskSchedule, branch
from dispo.sequences import MaskedSequence, Vocab, check_action
from dispo.streams import stream
from dispo.surrogate import (
    SurrogateConfig,
    draw_patterns,
    full_mask_state,
    group_features,
    logprob_from_contexts,
    loss_group,
)
from dispo.tasks import make_task
from dispo.trainer import RunConfig, train
from dispo.verify import (
    CandidateState,
    VarianceCondition,
    VarianceReport,
    bootstrap_ci,
    collect_states,
    perturb_params,
    trcov_estimate,
    trcov_protocol,
)

rollout_module = importlib.import_module("dispo.rollout")  # ``dispo.rollout`` is the function
trainer_module = importlib.import_module("dispo.trainer")

# -- per-item references -------------------------------------------------------


def written(completion, mid, action):
    """The completion tokens with ``action`` written into their masked (``mid``) positions."""
    tokens = iter(action)
    return tuple(next(tokens) if t == mid else t for t in completion)


def reference_features(arch, tokens, positions):
    """One state's feature rows, position by position."""
    v = arch.vocab.size
    mask_id = arch.vocab.mask_id
    lp, lc, w = arch.prompt_len, arch.completion_len, arch.window
    ctx = list(tokens)
    offsets = [d for d in range(-w, w + 1) if d != 0]
    hist = np.zeros(v + 1)
    for tok in ctx[:lp]:
        hist[tok if tok != mask_id else v] += 1.0
    hist /= lp
    out = np.zeros((len(positions), arch.feature_dim))
    for r, i in enumerate(positions):
        row = out[r]
        row[i] = 1.0
        base = lc
        j = lp + i
        for d in offsets:
            p = j + d
            if 0 <= p < len(ctx):
                tok = ctx[p]
                slot = tok if tok != mask_id else v
            else:
                slot = v + 1
            row[base + slot] = 1.0
            base += v + 2
        row[base : base + v + 1] = hist
        row[-1] = 1.0
    return out


def reference_sample(ctx, rng):
    probs = np.exp(ctx.logp)
    return [int(rng.choice(probs.shape[1], p=probs[r])) for r in range(len(ctx.positions))]


def reference_rollout(params, prompt, n_steps, schedule, rng, greedy):
    """One trajectory, step by step: a forward at the state, row-by-row draws and a
    sorted commit of the most confident eligible tokens (ties: lowest position)."""
    vocab = params.arch.vocab
    completion = [vocab.mask_id] * params.arch.completion_len
    states, logps = [tuple(completion)], []
    for _ in range(n_steps):
        ctx = rows_context(params, np.array(list(prompt.tokens) + completion))
        logps.append(log_softmax(ctx.rows))
        action = np.argmax(ctx.rows, axis=1).tolist() if greedy else reference_sample(ctx, rng)
        eligible = ctx.positions
        if schedule.block_size is not None:
            first = min(eligible) // schedule.block_size
            eligible = [p for p in eligible if p // schedule.block_size == first]
        probs = np.exp(ctx.logp)
        scored = sorted(
            (-probs[r, tok], pos, tok)
            for r, (pos, tok) in enumerate(zip(ctx.positions, action))
            if pos in eligible
        )
        for _, pos, tok in scored[: schedule.tokens_per_step]:
            completion[pos] = tok
        states.append(tuple(completion))
    return states, logps


def reference_logprob(ctx, positions, targets):
    total = 0.0
    for pos, tok in zip(positions, targets):
        total += ctx.logp[ctx.positions.index(pos), tok]
    return total


def reference_backprop(params, ctx, dlogits):
    arch = params.arch
    if isinstance(arch, LinearArch):
        return (dlogits.T @ ctx.feats).ravel()
    w1, b1, w2, b2 = _unpack_mlp(arch, params.theta)
    h = ctx.hidden
    dw2 = dlogits.T @ h
    db2 = dlogits.sum(axis=0)
    dh = dlogits @ w2
    dz = dh * (1.0 - h * h)
    dw1 = dz.T @ ctx.feats
    db1 = dz.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def reference_score_grad(params, ctx, positions, targets, coef):
    dlogits = np.zeros_like(ctx.rows)
    probs = np.exp(ctx.logp)
    for pos, tok in zip(positions, targets):
        r = ctx.positions.index(pos)
        dlogits[r] -= coef * probs[r]
        dlogits[r, tok] += coef
    return reference_backprop(params, ctx, dlogits)


def apply_pattern(prompt, mask):
    """The prompt with the mask's positions masked, as a new sequence."""
    assert mask.shape == (prompt.length,)
    mid = prompt.vocab.mask_id
    return MaskedSequence(tuple(mid if m else t for t, m in zip(prompt.tokens, mask)), prompt.vocab)


def reference_patterns(prompt_len, cfg, rng):
    """Pattern by pattern: its ratio (drawn, or the fixed one), then one draw per token;
    with corruption off, no pattern masks anything and nothing is drawn."""
    if not cfg.corruption_enabled:
        return np.zeros((cfg.n_mc, prompt_len), dtype=bool)
    masks = []
    for _ in range(cfg.n_mc):
        ratio = rng.uniform() if cfg.ratio_law == "uniform" else float(cfg.ratio_law)
        masks.append(rng.random(prompt_len) < ratio)
    return np.array(masks, dtype=bool).reshape(cfg.n_mc, prompt_len)


def reference_contexts(params, state, masks, positions):
    """One forward per pattern, at the state row with its prompt corrupted by the pattern."""
    lp = params.arch.prompt_len
    prompt = MaskedSequence(tuple(state[:lp].tolist()), params.arch.vocab)
    copies = [apply_pattern(prompt, m).tokens + tuple(state[lp:].tolist()) for m in masks]
    return [rows_context(params, np.array(copy), positions) for copy in copies]


def reference_group_loss(
    params, old, state, members, loss_cfg, surr_cfg, rng, scope, per_member_patterns
):
    """Member by member, one forward per pattern per policy; returns (loss, grad, n_clipped).

    Both policies are scored on the same pattern set.  Advantages subtract
    the group's mean reward; ``scope="all"`` scores every position of the
    filled completion.
    """
    n, arch = len(members), params.arch
    mean_reward = np.mean([r for _, r in members])
    if per_member_patterns:
        pattern_sets = [reference_patterns(arch.prompt_len, surr_cfg, rng) for _ in range(n)]
    else:
        pattern_sets = [reference_patterns(arch.prompt_len, surr_cfg, rng)] * n
    loss, grad, clipped, shared = 0.0, np.zeros(params.dim), 0, None
    for z, (action, _) in enumerate(members):
        positions, targets = mask_positions(arch, state), action
        if scope == "all":
            targets = written(state[arch.prompt_len :].tolist(), arch.vocab.mask_id, action)
            positions = tuple(range(len(targets)))
        pats = pattern_sets[z]
        if per_member_patterns or shared is None:
            shared = (
                reference_contexts(params, state, pats, positions),
                reference_contexts(old, state, pats, positions),
            )
        ctx_new, ctx_old = shared
        lp_new = float(np.array([reference_logprob(c, positions, targets) for c in ctx_new]).mean())
        lp_old = float(np.array([reference_logprob(c, positions, targets) for c in ctx_old]).mean())
        rho = float(np.exp(lp_new - lp_old))
        adv = members[z][1] - mean_reward
        value, unclipped_active = clipped_objective(rho, adv, loss_cfg.clip_eps)
        clipped += not unclipped_active
        loss -= value / n
        if unclipped_active and adv != 0.0:
            coef = -(adv * rho) / (n * len(ctx_new))
            for ctx in ctx_new:
                grad += reference_score_grad(params, ctx, positions, targets, coef)
    return loss, grad, clipped


def reference_kl(params, ref, state, surr_cfg, rng):
    total, grad = 0.0, np.zeros(params.dim)
    positions = mask_positions(params.arch, state)
    pats = reference_patterns(params.arch.prompt_len, surr_cfg, rng)
    for cur, base in zip(
        reference_contexts(params, state, pats, positions),
        reference_contexts(ref, state, pats, positions),
    ):
        diff = cur.logp - base.logp
        p = np.exp(cur.logp)
        row_kl = (p * diff).sum(axis=-1)
        total += float(row_kl.sum()) / len(pats)
        grad += reference_backprop(params, cur, p * (diff - row_kl[:, None]) / len(pats))
    return total, grad


# -- random problems -------------------------------------------------------------


def random_arch(rng):
    return LinearArch(
        Vocab(int(rng.integers(2, 10))),
        prompt_len=int(rng.integers(1, 33)),
        completion_len=int(rng.integers(1, 33)),
        window=int(rng.integers(0, 4)),
    )


def random_tokens(rng, vocab, length, p_mask):
    return [
        vocab.mask_id if rng.random() < p_mask else int(rng.integers(vocab.size))
        for _ in range(length)
    ]


def random_state(rng, arch, p_mask=0.5):
    """A state row: a visible prompt, then a completion with at least one mask."""
    vocab = arch.vocab
    prompt = rng.integers(0, vocab.size, arch.prompt_len).tolist()
    completion = random_tokens(rng, vocab, arch.completion_len, p_mask)
    completion[int(rng.integers(arch.completion_len))] = vocab.mask_id  # never fully visible
    return np.array(prompt + completion)


def random_prompt(rng, arch):
    """The prompt of a ``random_state`` draw."""
    return MaskedSequence(tuple(random_state(rng, arch)[: arch.prompt_len].tolist()), arch.vocab)


def random_action(rng, arch, state):
    return tuple(int(rng.integers(arch.vocab.size)) for _ in mask_positions(arch, state))


# -- tests -------------------------------------------------------------------------


def test_apply_pattern_masks_chosen_positions():
    vocab = Vocab(3)
    prompt = MaskedSequence((0, 2, 1, 1), vocab)
    (mask,) = draw_patterns(4, SurrogateConfig(n_mc=1, ratio_law=0.5), stream(3, "apply"))
    corrupted = apply_pattern(prompt, mask)
    for i, masked in enumerate(mask):
        if masked:
            assert corrupted.tokens[i] == vocab.mask_id
        else:
            assert corrupted.tokens[i] == prompt.tokens[i]


def test_pattern_draws_equal_the_per_pattern_loop_and_the_generator_state():
    rng = stream(3, "diff-patterns")
    for case in range(200):
        law = ("uniform", float(rng.random()), 1.0)[case % 3]
        cfg = SurrogateConfig(n_mc=int(rng.integers(1, 6)), ratio_law=law)
        prompt_len = int(rng.integers(0, 12))
        a, b = stream(4, "draw", case), stream(4, "draw", case)
        masks = draw_patterns(prompt_len, cfg, a)
        assert masks.dtype == bool
        assert np.array_equal(masks, reference_patterns(prompt_len, cfg, b))
        assert a.bit_generator.state == b.bit_generator.state


def test_batched_features_equal_the_per_state_loop():
    rng = stream(1, "diff-features")
    for _ in range(150):
        arch = random_arch(rng)
        n = int(rng.integers(1, 41))
        p = int(rng.integers(0, arch.completion_len + 1))
        length = arch.prompt_len + arch.completion_len
        tokens = np.array([random_tokens(rng, arch.vocab, length, 0.3) for _ in range(n)])
        positions = np.array(
            [rng.permutation(arch.completion_len)[:p] for _ in range(n)], dtype=np.intp
        )
        batched = _features(arch, tokens, positions.reshape(n, p))
        assert batched.shape == (n, p, arch.feature_dim)
        for k in range(n):
            assert np.array_equal(batched[k], reference_features(arch, tokens[k], positions[k]))


def test_stacked_log_softmax_equals_the_per_slice_log_softmax():
    """One call on a (B, n, V) block gives each (n, V) slice's own result, bit for bit."""
    rng = stream(2, "diff-log-softmax")
    for v in range(2, 10):
        for n in range(10):
            for scale in (0.1, 1.0, 5.0, 40.0):
                block = rng.normal(0.0, scale, (int(rng.integers(1, 6)), n, v))
                stacked = log_softmax(block)
                assert stacked.shape == block.shape
                for b in range(len(block)):
                    assert stacked[b].tobytes() == log_softmax(block[b]).tobytes()


def test_rows_context_logp_is_the_log_softmax_of_its_rows():
    rng = stream(2, "diff-ctx-logp")
    arch = random_arch(rng)
    params = init_params(arch, rng, scale=1.0)
    state = random_state(rng, arch, p_mask=0.7)
    ctx = rows_context(params, state)
    assert ctx.logp.tobytes() == log_softmax(ctx.rows).tobytes()


def test_lockstep_rollout_equals_the_per_trajectory_loop():
    """Every trajectory of a many-prompt lockstep rollout, sampled or greedy, equals
    the step-by-step reference: its states, its cached rows and its generator."""
    rng = stream(2, "diff-rollout")
    for case in range(120):
        vocab = Vocab(int(rng.integers(2, 6)))
        length = int(rng.integers(1, 9))
        arch = LinearArch(vocab, int(rng.integers(1, 5)), length, int(rng.integers(0, 3)))
        scale = float(rng.choice([0.0, 0.5, 3.0]))  # zero: uniform rows, every confidence ties
        params = init_params(arch, rng, scale=scale)
        block = int(rng.integers(1, length + 1)) if case % 3 else None
        sched = UnmaskSchedule(int(rng.integers(1, length + 1)), block)
        n_steps, left = 0, tuple(range(length))  # the steps this schedule needs
        while left:
            done = sched.eligible(left)[: sched.tokens_per_step]
            n_steps, left = n_steps + 1, tuple(p for p in left if p not in done)
        prompts = [
            MaskedSequence(tuple(rng.integers(0, vocab.size, arch.prompt_len).tolist()), vocab)
            for _ in range(int(rng.integers(1, 6)))
        ]
        greedy = bool(case % 2)
        rngs = [stream(3, "roll", case, k) for k in range(len(prompts))]
        trajs = rollout_module.rollout(params, prompts, n_steps, sched, rngs, greedy=greedy)
        for k, (prompt, traj) in enumerate(zip(prompts, trajs, strict=True)):
            ref_rng = stream(3, "roll", case, k)
            states, logps = reference_rollout(params, prompt, n_steps, sched, ref_rng, greedy)
            assert [tuple(s) for s in traj.states.tolist()] == states
            for cached, ref_logp in zip(traj.logp, logps, strict=True):
                assert cached.tobytes() == ref_logp.tobytes()
            assert rngs[k].bit_generator.state == ref_rng.bit_generator.state


def test_inverse_cdf_sampling_matches_rng_choice_and_the_generator_state():
    rng = stream(2, "diff-sampling")
    for case in range(3000):
        v, n = int(rng.integers(2, 10)), int(rng.integers(1, 9))
        rows = rng.normal(0.0, float(rng.choice([0.1, 1.0, 5.0, 40.0])), (n, v))
        ctx = RowsContext(tuple(range(n)), rows, np.zeros((n, 1)), None)
        a, b = stream(3, "draw", case), stream(3, "draw", case)
        tokens = list(sample_action(ctx, a))
        assert tokens == reference_sample(ctx, b)
        assert a.bit_generator.state == b.bit_generator.state


def test_branch_equals_successive_sample_action_calls():
    """One uniform draw for all members gives the members one by one would."""
    rng = stream(2, "diff-branch")
    for case in range(33 * 8 * 2):
        k, v, z = case % 33, 2 + (case // 33) % 8, 1 + case % 6
        vocab = Vocab(v)
        length = k + int(rng.integers(1, 4))
        masked = set(rng.permutation(length)[:k].tolist())
        completion = tuple(
            vocab.mask_id if i in masked else int(rng.integers(v)) for i in range(length)
        )
        rows = rng.normal(0.0, float(rng.choice([0.1, 1.0, 5.0, 40.0])), (k, v))
        positions = tuple(sorted(masked))
        ctx = RowsContext(positions, rows, np.zeros((k, 1)), None)
        a, b = stream(3, "branch", case), stream(3, "branch", case)
        (actions,), (completed,) = branch([completion], [positions], [ctx.logp], z, [a])
        expected = [sample_action(ctx, b) for _ in range(z)]
        assert [tuple(x) for x in actions.tolist()] == expected
        assert [tuple(c) for c in completed.tolist()] == [
            written(completion, vocab.mask_id, x) for x in expected
        ]
        assert a.bit_generator.state == b.bit_generator.state


def test_batched_logprobs_equal_the_running_sums():
    rng = stream(4, "diff-logprob")
    arch = random_arch(rng)
    params = init_params(arch, rng, scale=1.0)
    for _ in range(20):
        state = random_state(rng, arch, p_mask=0.7)
        positions = mask_positions(arch, state)
        ctxs = [rows_context(params, random_state(rng, arch), positions) for _ in range(3)]
        targets = rng.integers(0, arch.vocab.size, (5, len(positions)))
        batched = logprob_from_contexts(ctxs, targets)
        assert batched.shape == (5, 3)
        for z in range(5):
            for m in range(3):
                assert batched[z, m] == reference_logprob(ctxs[m], positions, targets[z])


def loss_problem(kind, seed):
    rng = stream(seed, "diff-loss", kind)
    vocab = Vocab(4)
    common = dict(vocab=vocab, prompt_len=9, completion_len=5, window=2)
    arch = LinearArch(**common) if kind == "linear" else MlpArch(hidden=4, **common)
    params = init_params(arch, rng, scale=0.8)
    old = perturb_params(params, rng, scale=4.0)
    return rng, arch, params, old


# The "True" in the ids marks patterns shared by both policies; it stays so that
# the test names stay stable, though no unshared case remains to tell apart.
CASES = [(kind, scope) for kind in ("linear", "mlp") for scope in ("action", "all")]
CASE_IDS = [f"{kind}-True-{scope}" for kind, scope in CASES]


@pytest.mark.parametrize("kind,scope", CASES, ids=CASE_IDS)
def test_step_losses_equal_the_per_member_reference(kind, scope):
    rng, arch, params, old = loss_problem(kind, 5)
    loss_cfg = LossConfig(clip_eps=0.05)
    clipped = 0
    for n_mc in (1, 3, 9):
        surr_cfg = SurrogateConfig(n_mc=n_mc, ratio_law="uniform")
        for g in range(6):
            state = random_state(rng, arch)
            members = [(random_action(rng, arch, state), float(rng.normal())) for _ in range(4)]
            loss, grad = step_loss(
                state, members, params, old, loss_cfg, surr_cfg, stream(6, n_mc, g), scope=scope
            )
            ref_loss, ref_grad, n_clipped = reference_group_loss(
                params, old, state, members, loss_cfg, surr_cfg, stream(6, n_mc, g), scope, False
            )
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)
            clipped += n_clipped
    assert clipped > 0

    # a whole prompt's groups in one kernel call: mixed mask-set sizes and group sizes,
    # stacks of several groups, and clipping that fires
    if scope != "action":
        return  # training's step family scores the action only
    states, groups = [random_state(rng, arch) for _ in range(4)], []
    for z in (2, 3, 1, 9, 2, 3, 4, 9, 2, 5):
        for state in states[: 1 + z % 4]:
            members = [(random_action(rng, arch, state), float(rng.normal())) for _ in range(z)]
            groups.append((state, members))
    shapes = {(len(mask_positions(arch, state)), len(members)) for state, members in groups}
    assert len(shapes) < len(groups)
    for n_mc in (2, 9):
        surr_cfg = SurrogateConfig(n_mc=n_mc, ratio_law="uniform")
        loss, grad = aggregate_step_loss(
            groups, params, old, loss_cfg, surr_cfg, stream(7, "agg", n_mc)
        )
        ref_rng, ref_loss, ref_grad = stream(7, "agg", n_mc), 0.0, np.zeros(params.dim)
        clipped = 0
        for state, members in groups:
            l, g, n_clipped = reference_group_loss(
                params, old, state, members, loss_cfg, surr_cfg, ref_rng, scope, False
            )
            ref_loss += l
            ref_grad += g
            clipped += n_clipped
        assert clipped > 0
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("kind,scope", CASES, ids=[f"{k}-{s}" for k, s in CASES])
def test_step_loss_on_passed_grids_equals_the_self_drawing_step_loss(kind, scope):
    """``step_loss(..., grids=...)`` on the grids of the patterns the self-drawing call
    draws gives that call's loss and gradient bit for bit, and runs no forward."""
    rng, arch, params, old = loss_problem(kind, 11)
    loss_cfg = LossConfig(clip_eps=0.05)
    for ratio_law in ("uniform", "zero"):
        surr_cfg = SurrogateConfig(n_mc=3, ratio_law=ratio_law)
        for g in range(4):
            state = random_state(rng, arch)
            members = [(random_action(rng, arch, state), float(rng.normal())) for _ in range(3)]
            group = loss_group(arch, state, members, scope)
            (feats,) = group_features(
                arch, [group.tokens], [group.positions], surr_cfg, [stream(11, g)]
            )
            (grids,) = objective_module._group_grids(
                params, [group.positions], [feats], [(old, "step")]
            )
            counters = OpCounters()
            loss, grad = step_loss(
                state, members, params, old, loss_cfg, surr_cfg,
                counters=counters, scope=scope, grids=grids,
            )
            ref_loss, ref_grad = step_loss(
                state, members, params, old, loss_cfg, surr_cfg, stream(11, g), scope=scope
            )
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)
            assert counters == OpCounters()


def test_training_scores_a_prompts_step_groups_in_one_kernel_call(monkeypatch):
    """``train`` never calls ``step_loss``: one kernel call per family and update, over
    every prompt's groups.

    The variance protocol still calls ``step_loss`` once per trial.
    """
    kernel_calls, step_calls = [], []
    real_kernel = objective_module._group_loss_and_grad

    def counted_kernel(params, groups, *args, **kwargs):
        family = "terminal" if kwargs.get("per_member_sets") else "step"
        kernel_calls.append((family, len(groups)))
        return real_kernel(params, groups, *args, **kwargs)

    def counted_step_loss(*args, **kwargs):
        step_calls.append(kwargs.get("scope"))
        return step_loss(*args, **kwargs)

    monkeypatch.setattr(objective_module, "_group_loss_and_grad", counted_kernel)
    monkeypatch.setattr(objective_module, "step_loss", counted_step_loss)
    monkeypatch.setattr(verify_module, "step_loss", counted_step_loss)
    cfg = RunConfig(
        task="stringmatch",
        task_params={"target_len": 4, "vocab_size": 3},
        n_instances=2,
        n_rollouts=3,
        n_denoising_steps=2,
        n_branches=2,
        batch_size=2,
        n_updates=2,
        n_timesteps=2,
    )
    train(cfg)
    assert step_calls == []
    b = cfg.batch_size
    assert kernel_calls == [
        ("terminal", b), ("step", b * cfg.n_rollouts * cfg.n_timesteps)
    ] * cfg.n_updates

    params, old, cands = trcov_problem()
    surr_cfg = SurrogateConfig(n_mc=1, ratio_law="uniform")
    report = trcov_protocol(params, old, cands, TRCOV_CONDITIONS, 2, surr_cfg, seed=35, n_boot=50)
    assert len(step_calls) == report.n_maskable * len(TRCOV_CONDITIONS) * 2
    assert kernel_calls[2 * cfg.n_updates :] == [("step", 1)] * len(step_calls)


def test_branch_fills_its_sites_in_one_call_and_the_kernel_checks_groups_in_array_passes(
    monkeypatch,
):
    """Training branches an update's sites in one ``branch`` call, which completes all
    their members in one array ``fill`` call, and the kernel checks each call's groups
    in one ``target_stacks`` pass: no ``check_action`` call and no ``loss_group`` fill.

    So in training each member's tokens are checked once, in its stack's array pass."""
    checked, fills, branched, calls, stacked = [], [], [], [], []
    real_check, real_fill = sequences_module.check_action, sequences_module.fill
    real_branch, real_stacks = rollout_module.branch, surrogate_module.target_stacks

    def counted_check(n, vocab, actions):
        actions = list(actions)
        checked.append(len(actions))
        return real_check(n, vocab, actions)

    def counted_fill(caller):
        """``fill``, recording each call's block shapes under the caller's name."""

        def counted(rows, actions, vocab):
            fills.append((caller, [np.shape(a) for a in actions]))
            return real_fill(rows, actions, vocab)

        return counted

    def counted_branch(*args):
        actions, completions = real_branch(*args)
        calls.append(len(actions))
        branched.extend(a.shape for a in actions)
        assert completions.shape[:2] == (len(actions), args[3])
        return actions, completions

    def counted_stacks(groups, vocab):
        stacked.append(len(groups))
        return real_stacks(groups, vocab)

    for module in (sequences_module, surrogate_module, policy_module):
        monkeypatch.setattr(module, "check_action", counted_check)
    monkeypatch.setattr(rollout_module, "fill", counted_fill("branch"))
    for module in (surrogate_module, verify_module):
        monkeypatch.setattr(module, "fill", counted_fill("loss_group"))
    for module in (trainer_module, verify_module):
        monkeypatch.setattr(module, "branch", counted_branch)
    for module in (surrogate_module, objective_module):
        monkeypatch.setattr(module, "target_stacks", counted_stacks)
    cfg = RunConfig(
        task="stringmatch",
        task_params={"target_len": 4, "vocab_size": 3},
        n_instances=2,
        n_rollouts=3,
        n_denoising_steps=2,
        n_branches=2,
        batch_size=2,
        n_updates=1,
        n_timesteps=2,
    )
    train(cfg)
    n_groups = cfg.batch_size * cfg.n_rollouts * cfg.n_timesteps
    assert calls == [n_groups]  # one call per update
    assert [z for z, _ in branched] == [cfg.n_branches] * n_groups
    assert fills == [("branch", branched)]  # one array pass over every site's members
    # one pass per kernel call: the terminal family's B groups, then the step family's
    assert stacked == [cfg.batch_size, n_groups]
    assert checked == []

    checked.clear()
    fills.clear()
    branched.clear()
    calls.clear()
    stacked.clear()
    params, old, cands = trcov_problem()
    surr_cfg = SurrogateConfig(n_mc=1, ratio_law="uniform")
    report = trcov_protocol(params, old, cands, TRCOV_CONDITIONS, 2, surr_cfg, seed=35, n_boot=50)
    # per state: one draw of n_trials * Z members per group size
    assert calls == [1, 1] * report.n_maskable
    assert [n for n, _ in branched] == [2 * 2, 2 * 4] * report.n_maskable
    assert [shapes for kind, shapes in fills if kind == "branch"] == [[s] for s in branched]
    # per state and trial: one Z=2 and one Z=4 group scored in the all-token scope,
    # whose targets are its members' fills, in one one-row call
    scored = [shapes for kind, shapes in fills if kind == "loss_group"]
    assert all(len(shapes) == 1 for shapes in scored)
    assert sorted(shape[0] for (shape,) in scored) == sorted([2, 2, 4, 4] * report.n_maskable)
    # one pass per step_loss call, and no member checked one by one
    assert stacked == [1] * report.n_maskable * len(TRCOV_CONDITIONS) * 2
    assert checked == []


@pytest.mark.parametrize("kind", ["linear", "mlp"], ids=["linear-True", "mlp-True"])
def test_terminal_and_kl_losses_equal_the_per_member_reference(kind):
    rng, arch, params, old = loss_problem(kind, 8)
    loss_cfg = LossConfig(clip_eps=0.05)
    clipped = 0
    for n_mc in (1, 2, 9):
        surr_cfg = SurrogateConfig(n_mc=n_mc, ratio_law="uniform")
        prompt = random_prompt(rng, arch)
        completions = [
            (tuple(rng.integers(0, 4, 5).tolist()), float(rng.normal())) for _ in range(4)
        ]
        loss, grad = terminal_loss(
            prompt, completions, params, old, loss_cfg, surr_cfg, stream(9, n_mc)
        )
        state = full_mask_state(prompt, 5)
        ref_loss, ref_grad, n_clipped = reference_group_loss(
            params, old, state, completions, loss_cfg, surr_cfg, stream(9, n_mc), "action", True
        )
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        clipped += n_clipped

        # one state per call; the calls share one generator, as the reference does
        kl_rng, ref_rng = stream(10, n_mc), stream(10, n_mc)
        for kl_state in [random_state(rng, arch) for _ in range(3)] + [state]:
            kl, kl_grad = kl_penalty(params, old, kl_state, surr_cfg, kl_rng)
            ref_kl, ref_kl_grad = reference_kl(params, old, kl_state, surr_cfg, ref_rng)
            assert kl == ref_kl
            assert np.array_equal(kl_grad, ref_kl_grad)
    assert clipped > 0


WEIGHTS = [  # (alpha_term, alpha_step, kl_beta): everything on, then each family off
    (1.0, 0.1, 0.01), (0.0, 0.3, 0.05), (0.7, 0.0, 0.05), (1.0, 0.2, 0.0),
]
SCORING_CASES = [(kind, law) for kind in ("linear", "mlp") for law in ("uniform", 0.0)]


@pytest.mark.parametrize(
    "kind,law", SCORING_CASES, ids=[f"{k}-{'on' if law else 'off'}" for k, law in SCORING_CASES]
)
def test_update_scoring_equals_the_per_prompt_reference_loop(kind, law):
    """``combined_loss`` over an update's prompts gives, prompt by prompt, what the
    per-member references give when each prompt draws its terminal sets, then its step
    groups' sets, then its KL set from its own generator: every loss part and gradient,
    the weighted total, the counters, and each generator's final state."""
    rng, arch, params, old = loss_problem(kind, 12)
    ref = perturb_params(params, rng, scale=2.0)
    states = [random_state(rng, arch, p_mask=p) for p in (0.2, 0.5, 0.9)]  # mixed mask sets
    surr_cfg = SurrogateConfig(n_mc=2, ratio_law=law)
    n_clipped = 0
    for case, (alpha_term, alpha_step, kl_beta) in enumerate(WEIGHTS * 2):
        loss_cfg = LossConfig(alpha_step, alpha_term, 0.05, kl_beta)
        for n_prompts in (1, 2, 3):
            prompts = [random_prompt(rng, arch) for _ in range(n_prompts)]
            completions = [
                [(tuple(rng.integers(0, 4, 5).tolist()), float(rng.normal())) for _ in range(k)]
                for k in rng.integers(2, 5, n_prompts)
            ]
            step_groups = [
                [
                    (
                        state,
                        [(random_action(rng, arch, state), float(rng.normal())) for _ in range(z)],
                    )
                    for z in rng.integers(1, 4, int(rng.integers(0, 5)))
                    for state in [states[int(rng.integers(3))]]
                ]
                for _ in range(n_prompts)
            ]
            paths = [(12, case, n_prompts, b) for b in range(n_prompts)]
            rngs = [stream(*path) for path in paths]
            counters = OpCounters()
            scored = combined_loss(
                [
                    loss_group(arch, full_mask_state(prompt, 5), members)
                    for prompt, members in zip(prompts, completions)
                ],
                [[loss_group(arch, *group) for group in groups] for groups in step_groups],
                params, old, ref, loss_cfg, surr_cfg, rngs, counters=counters,
            )
            assert len(scored) == n_prompts
            want = OpCounters()
            for b, (loss, grad, parts) in enumerate(scored):
                ref_rng = stream(*paths[b])
                full = full_mask_state(prompts[b], 5)
                loss_term, grad_term = 0.0, np.zeros(params.dim)
                if alpha_term > 0:
                    loss_term, grad_term, clipped = reference_group_loss(
                        params, old, full, completions[b], loss_cfg, surr_cfg, ref_rng, "action",
                        True,
                    )
                    n_clipped += clipped
                    want.surrogate_terminal_calls += 2 * 2 * len(completions[b])
                loss_step, grad_step = 0.0, np.zeros(params.dim)
                if alpha_step > 0:
                    for state, members in step_groups[b]:
                        l, g, clipped = reference_group_loss(
                            params, old, state, members, loss_cfg, surr_cfg, ref_rng, "action",
                            False,
                        )
                        loss_step += l
                        grad_step += g
                        n_clipped += clipped
                        want.surrogate_step_calls += 2 * 2
                kl, grad_kl = 0.0, np.zeros(params.dim)
                if kl_beta > 0:
                    kl, grad_kl = reference_kl(params, ref, full, surr_cfg, ref_rng)
                    want.surrogate_kl_calls += 2 * 2
                assert (parts["loss_term"], parts["loss_step"], parts["kl"]) == (
                    loss_term, loss_step, kl
                )
                assert np.array_equal(parts["grad_term"], grad_term)
                assert np.array_equal(parts["grad_step"], grad_step)
                assert np.array_equal(parts["grad_kl"], grad_kl)
                assert loss == alpha_term * loss_term + alpha_step * loss_step + kl_beta * kl
                assert np.array_equal(
                    grad, alpha_term * grad_term + alpha_step * grad_step + kl_beta * grad_kl
                )
                assert rngs[b].bit_generator.state == ref_rng.bit_generator.state
            assert counters == want
    assert n_clipped > 0


def test_many_site_branch_equals_one_state_calls():
    """One ``branch`` call over sites of mixed mask-set sizes, from a rollout's step
    blocks or from states of any mask set, gives each site the actions, completions
    and generator state of its own one-site call on ``state_at(t)`` and its rows."""
    rng = stream(15, "diff-many-branch")
    vocab = Vocab(4)
    prompt = MaskedSequence((0, 1), vocab)
    for case in range(40):
        z, length = 1 + case % 4, int(rng.integers(1, 7))
        arch = LinearArch(vocab, 2, length, window=1)
        states, logps = [], []
        for _ in range(int(rng.integers(1, 9))):
            k = int(rng.integers(1, length + 1))
            masked = set(rng.permutation(length)[:k].tolist())
            tokens = [vocab.mask_id if i in masked else int(rng.integers(4)) for i in range(length)]
            rows = rng.normal(0.0, float(rng.choice([0.1, 1.0, 5.0])), (k, 4))
            states.append(np.array(prompt.tokens + tuple(tokens)))
            logps.append(log_softmax(rows))
        if case % 2:  # sites at a lockstep rollout's states, in a shuffled order
            per_step = int(rng.integers(1, length + 1))
            sched, n_steps = UnmaskSchedule(per_step), -(-length // per_step)
            trajs = rollout_module.rollout(
                init_params(arch, rng, scale=1.0), [prompt] * 3, n_steps, sched,
                [stream(18, case, k) for k in range(3)],
            )
            sites = [(traj, t) for traj in trajs for t in range(1, n_steps + 1)]
            sites = [sites[i] for i in rng.permutation(len(sites))] + sites[:2]  # repeats too
            states = [traj.state_at(t) for traj, t in sites]
            logps = [traj.logp[t - 1] for traj, t in sites]
            args = (
                np.array([traj.states[t - 1] for traj, t in sites]),
                [traj.positions[t - 1] for traj, t in sites],
                [traj.logp[t - 1] for traj, t in sites],
            )
        else:
            args = (
                np.array([state[2:] for state in states]),
                [mask_positions(arch, state) for state in states],
                logps,
            )
        many = [stream(16, case, i) for i in range(len(states))]
        actions, completed = branch(*args, z, many)
        assert len(actions) == len(completed) == len(states)
        for i, (state, logp) in enumerate(zip(states, logps)):
            one = stream(16, case, i)
            (one_actions,), (one_completed,) = branch(
                [state[2:]], [mask_positions(arch, state)], [logp], z, [one]
            )
            assert np.array_equal(actions[i], one_actions)
            assert np.array_equal(completed[i], one_completed)
            assert many[i].bit_generator.state == one.bit_generator.state
    # a site whose rows do not match its positions raises before any draw, wherever it stands
    rows, positions, logp = args
    rngs = [stream(17, i) for i in range(len(positions) + 1)]
    before = [g.bit_generator.state for g in rngs]
    with pytest.raises(ContractViolation, match="masked positions"):
        branch(
            np.concatenate([rows, rows[:1]]), positions + [()], logp + [np.zeros((0, 4))], 1, rngs
        )
    assert [g.bit_generator.state for g in rngs] == before
    with pytest.raises(ContractViolation, match="generators"):
        branch(rows, positions, logp, 1, [stream(17)])


def test_the_kernel_names_the_first_faulty_group_whichever_stack_holds_it():
    """The kernel checks each stack of groups in one array pass (``target_stacks``);
    for a wrong width, a mask id or an out-of-range token it raises ``check_action``'s
    message for the first faulty group in list order, even when a later faulty group
    stands in a stack that is checked first."""
    rng, arch, params, old = loss_problem("linear", 19)
    surr_cfg, loss_cfg = SurrogateConfig(n_mc=1, ratio_law="zero"), LossConfig()
    states = [random_state(rng, arch, p_mask=p) for p in (0.2, 0.5, 0.9)]
    groups = []
    for g in range(9):  # group g: state g % 3, 1 + g % 2 members
        state = states[g % 3]
        members = [(random_action(rng, arch, state), float(rng.normal())) for _ in range(1 + g % 2)]
        groups.append(loss_group(arch, state, members))
    positions = [group.positions for group in groups]
    feats = group_features(
        arch, [group.tokens for group in groups], positions, surr_cfg, [None] * 9
    )
    grids = objective_module._group_grids(params, positions, feats, [(old, "step")] * 9)
    objective_module._group_loss_and_grad(params, groups, grids, loss_cfg)  # all sound

    def faulty(targets, kind):
        out = targets.copy()
        if kind == "width":
            return out[:, :-1]
        out[-1, 0] = {"mask": arch.vocab.mask_id, "high": arch.vocab.size + 2, "low": -1}[kind]
        return out

    kinds = ("width", "mask", "high", "low")
    for first in (1, 4, 7):  # group 8's stack is first seen at group 2, before 4's and 7's
        for kind, later_kind in itertools.product(kinds, repeat=2):
            bad = list(groups)
            for g, k in ((first, kind), (8, later_kind)):
                bad[g] = groups[g]._replace(targets=faulty(groups[g].targets, k))
            with pytest.raises(ContractViolation) as want:
                n = len(mask_positions(arch, states[first % 3]))
                check_action(n, arch.vocab, map(tuple, bad[first].targets.tolist()))
            with pytest.raises(ContractViolation, match=re.escape(str(want.value))):
                objective_module._group_loss_and_grad(params, bad, grids, loss_cfg)


# -- the variance protocol: one draw per group size and one pattern stream per state ---


def reference_trcov_protocol(
    params, old_params, candidates, conditions, n_trials, surr_cfg, seed, n_boot
):
    """The per-trial loop: trial ``r`` of state ``i`` takes members ``r*Z .. r*Z+Z-1``
    of the state's one Z-sized draw, sampled one by one, and the ``r``-th pattern set
    of the state's pattern stream, rebuilt by every condition."""
    arch = params.arch
    maskable = [c for c in candidates if mask_positions(arch, c.state)]
    loss_cfg = LossConfig(clip_eps=None)
    per_state_all = {c.name: [] for c in conditions}
    survived = {c.name: [] for c in conditions}
    for i, cand in enumerate(maskable):
        behavior = rows_context(old_params, cand.state)
        completion = cand.state[arch.prompt_len :].tolist()
        for cond in conditions:
            z = cond.n_branches
            rng = stream(seed, "trcov-group", i, z)
            draws = [sample_action(behavior, rng) for _ in range(n_trials * z)]
            ghats = np.zeros((n_trials, params.dim))
            any_positive = False
            for r in range(n_trials):
                members = [
                    (action, cand.reward(written(completion, arch.vocab.mask_id, action)))
                    for action in draws[r * z : (r + 1) * z]
                ]
                rewards = [rw for _, rw in members]
                if max(rewards) > float(np.mean(rewards)):
                    any_positive = True
                patterns = stream(seed, "trcov-patterns", i)
                for _ in range(r):  # the earlier trials' pattern sets
                    draw_patterns(arch.prompt_len, surr_cfg, patterns)
                _, grad = step_loss(
                    cand.state, members, params, old_params, loss_cfg, surr_cfg,
                    patterns, scope=cond.scope,
                )
                ghats[r] = -grad
            per_state_all[cond.name].append(trcov_estimate(ghats))
            survived[cond.name].append(any_positive)

    keep = [j for j in range(len(maskable)) if all(survived[c.name][j] for c in conditions)]
    per_state = {name: tuple(vals[j] for j in keep) for name, vals in per_state_all.items()}
    reference = conditions[0].name
    diff_point, diff_ci = {}, {}
    if len(keep) >= 2:
        ref_vals = np.asarray(per_state[reference])
        for cond in conditions[1:]:
            diffs = np.asarray(per_state[cond.name]) - ref_vals
            diff_point[cond.name] = float(diffs.mean())
            diff_ci[cond.name] = bootstrap_ci(
                diffs, n_boot, stream(seed, "trcov-boot", cond.name)
            )
    return VarianceReport(
        condition_names=tuple(c.name for c in conditions),
        reference=reference,
        per_state=per_state,
        estimates={
            name: (float(np.mean(vals)) if vals else float("nan"))
            for name, vals in per_state.items()
        },
        diff_point=diff_point,
        diff_ci=diff_ci,
        n_candidates=len(candidates),
        n_maskable=len(maskable),
        n_retained=len(keep),
        advantage_counts={name: int(sum(flags)) for name, flags in survived.items()},
        n_trials=n_trials,
    )


TRCOV_CONDITIONS = [
    VarianceCondition("action-z2", "action", 2),
    VarianceCondition("all-z4", "all", 4),
    VarianceCondition("all-z2", "all", 2),
    VarianceCondition("action-z4", "action", 4),
]


def trcov_problem():
    task = make_task("stringmatch", stream(31, "task"), 3, target_len=6, vocab_size=3)
    arch = LinearArch(task.vocab, task.prompt_len, task.completion_len, window=2)
    collector = init_params(arch, stream(31, "collector"), scale=0.5)
    params = init_params(arch, stream(31, "theta"), scale=0.5)
    old = perturb_params(params, stream(31, "old"), 0.5)
    # mask sets of 6, 4 and 2 of 6 positions: at 6 both scopes share a feature pass
    cands = collect_states(
        collector, task, 3, UnmaskSchedule(2), (1, 2, 3), seed=32, rollouts_per_instance=2
    )
    done = np.concatenate([cands[-1].state[: task.prompt_len], np.zeros(6, dtype=np.intp)])
    cands.insert(2, CandidateState(done, cands[-1].reward))
    return params, old, cands


def test_trcov_protocol_equals_the_per_trial_loop():
    params, old, cands = trcov_problem()
    surr_cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    report = trcov_protocol(params, old, cands, TRCOV_CONDITIONS, 5, surr_cfg, seed=33, n_boot=200)
    expected = reference_trcov_protocol(
        params, old, cands, TRCOV_CONDITIONS, 5, surr_cfg, seed=33, n_boot=200
    )
    assert report.n_retained >= 2
    assert report.to_dict() == expected.to_dict()


def test_trcov_protocol_under_the_zero_law_equals_the_per_trial_loop():
    """With corruption off one block and one grid pair per scope serve every trial."""
    params, old, cands = trcov_problem()
    surr_cfg = SurrogateConfig(n_mc=2, ratio_law="zero")
    report = trcov_protocol(params, old, cands, TRCOV_CONDITIONS, 5, surr_cfg, seed=33, n_boot=200)
    expected = reference_trcov_protocol(
        params, old, cands, TRCOV_CONDITIONS, 5, surr_cfg, seed=33, n_boot=200
    )
    assert report.n_retained >= 2
    assert report.to_dict() == expected.to_dict()


def count_forwards(monkeypatch):
    """Count ``rows_context`` calls in every dispo namespace that holds it."""
    calls = []
    real = policy_module.rows_context

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dispo" and getattr(module, "rows_context", None) is real:
            monkeypatch.setattr(module, "rows_context", counted)
    return calls


@pytest.mark.parametrize("ratio_law", ["zero", "uniform"])
def test_trcov_protocol_computes_each_distinct_grid_once(monkeypatch, ratio_law):
    """Per maskable state: the behavior grid, then one forward per copy and policy of
    each distinct (scope, block) grid, and none inside the loss kernel."""
    params, old, cands = trcov_problem()
    forwards, in_kernel = count_forwards(monkeypatch), []
    real_kernel = objective_module._group_loss_and_grad

    def counted_kernel(*args, **kwargs):
        before = len(forwards)
        result = real_kernel(*args, **kwargs)
        in_kernel.append(len(forwards) - before)
        return result

    monkeypatch.setattr(objective_module, "_group_loss_and_grad", counted_kernel)
    n_trials, n_mc, n_scopes = 3, 2, len({c.scope for c in TRCOV_CONDITIONS})
    surr_cfg = SurrogateConfig(n_mc=n_mc, ratio_law=ratio_law)
    report = trcov_protocol(
        params, old, cands, TRCOV_CONDITIONS, n_trials, surr_cfg, seed=37, n_boot=50
    )
    n_blocks = n_trials if surr_cfg.corruption_enabled else 1
    assert report.n_maskable > 0
    assert len(forwards) == report.n_maskable * (1 + 2 * n_scopes * n_blocks * n_mc)
    assert in_kernel == [0] * (report.n_maskable * len(TRCOV_CONDITIONS) * n_trials)


def test_trcov_protocol_calls_step_loss_once_per_state_condition_and_trial(monkeypatch):
    params, old, cands = trcov_problem()
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["scope"])
        return step_loss(*args, **kwargs)

    monkeypatch.setattr(verify_module, "step_loss", counted)
    surr_cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    report = trcov_protocol(params, old, cands, TRCOV_CONDITIONS, 3, surr_cfg, seed=34, n_boot=50)
    assert 0 < report.n_maskable < report.n_candidates
    assert len(calls) == report.n_maskable * len(TRCOV_CONDITIONS) * 3
    assert calls.count("all") == report.n_maskable * 2 * 3


def test_trcov_protocol_draws_a_states_trials_in_one_branch_call_per_group_size(monkeypatch):
    """One ``branch`` call per (maskable state, distinct Z), one pattern stream per
    maskable state, and the same members for conditions that share Z."""
    params, old, cands = trcov_problem()
    branch_calls, paths, scored = [], [], []

    def counted_branch(completions, positions, logp, n_branches, rngs):
        branch_calls.append(([tuple(row) for row in np.asarray(completions).tolist()], n_branches))
        return branch(completions, positions, logp, n_branches, rngs)

    def counted_stream(*path):
        paths.append(path)
        return stream(*path)

    def counted_step_loss(state, members, *args, **kwargs):
        scored.append((state, len(members), kwargs["scope"], members))
        return step_loss(state, members, *args, **kwargs)

    monkeypatch.setattr(verify_module, "branch", counted_branch)
    monkeypatch.setattr(verify_module, "stream", counted_stream)
    monkeypatch.setattr(verify_module, "step_loss", counted_step_loss)
    n_trials = 3
    surr_cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    report = trcov_protocol(
        params, old, cands, TRCOV_CONDITIONS, n_trials, surr_cfg, seed=36, n_boot=50
    )
    lp = params.arch.prompt_len
    maskable = [c.state for c in cands if mask_positions(params.arch, c.state)]
    assert 0 < report.n_maskable == len(maskable) < report.n_candidates
    assert branch_calls == [
        ([tuple(state[lp:].tolist())], n_trials * z) for state in maskable for z in (2, 4)
    ]
    assert [p for p in paths if p[1] == "trcov-patterns"] == [
        (36, "trcov-patterns", i) for i in range(len(maskable))
    ]
    assert [p for p in paths if p[1] == "trcov-group"] == [
        (36, "trcov-group", i, z) for i in range(len(maskable)) for z in (2, 4)
    ]
    # per state, condition and trial in order; both scopes of a size see one member list
    assert len(scored) == len(maskable) * len(TRCOV_CONDITIONS) * n_trials
    for i, state in enumerate(maskable):
        by_key = {}
        for j, cond in enumerate(TRCOV_CONDITIONS):
            for r in range(n_trials):
                at, z, scope, members = scored[(i * len(TRCOV_CONDITIONS) + j) * n_trials + r]
                assert np.array_equal(at, state) and (z, scope) == (cond.n_branches, cond.scope)
                by_key.setdefault((z, r), []).append(members)
        assert sorted(by_key) == [(z, r) for z in (2, 4) for r in range(n_trials)]
        for lists in by_key.values():
            assert len(lists) == 2 and lists[0] == lists[1]
