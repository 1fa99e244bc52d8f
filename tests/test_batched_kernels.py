"""Bitwise differential tests: the batched hot path against per-item references.

Training cannot see the log-probability path (its ratios are exactly 1),
so these tests pin every batched kernel to a plain per-state or per-member
loop, compared with ``==``: features, sampling, log-probabilities, and the
step, terminal and KL losses with ``old_params != params`` and clipping
firing.  The references are the straightforward loops the batched code
replaces.
"""

import numpy as np
import pytest

import dispo.verify as verify_module
from dispo.objective import (
    LossConfig,
    StepGroup,
    aggregate_step_loss,
    clipped_objective,
    group_advantages,
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
    rows_context,
    sample_action,
)
from dispo.rollout import UnmaskSchedule
from dispo.sequences import Action, DiffusionState, MaskedSequence, Vocab, fill
from dispo.streams import stream
from dispo.surrogate import (
    SurrogateConfig,
    completion_action,
    draw_patterns,
    full_mask_state,
    logprob_from_contexts,
    scoring_targets,
)
from dispo.tasks import make_task
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

# -- per-item references -------------------------------------------------------


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


def reference_logprob(ctx, positions, targets):
    total = 0.0
    for pos, tok in zip(positions, targets):
        total += ctx.logp[ctx.row_index(pos), tok]
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
        r = ctx.row_index(pos)
        dlogits[r] -= coef * probs[r]
        dlogits[r, tok] += coef
    return reference_backprop(params, ctx, dlogits)


def apply_pattern(prompt, mask):
    """The prompt with the mask's positions masked, as a new sequence."""
    assert mask.shape == (prompt.length,)
    mid = prompt.vocab.mask_id
    return MaskedSequence(tuple(mid if m else t for t, m in zip(prompt.tokens, mask)), prompt.vocab)


def reference_patterns(prompt_len, cfg, rng):
    """Pattern by pattern: its ratio (drawn, or the fixed one), then one draw per token."""
    masks = []
    for _ in range(cfg.n_mc):
        ratio = rng.uniform() if cfg.ratio_law == "uniform" else float(cfg.ratio_law)
        masks.append(rng.random(prompt_len) < ratio)
    return np.array(masks, dtype=bool).reshape(cfg.n_mc, prompt_len)


def reference_contexts(params, state, masks, positions):
    copies = [DiffusionState(apply_pattern(state.prompt, m), state.completion) for m in masks]
    return [rows_context(params, copy, positions) for copy in copies]


def reference_group_loss(
    params, old, state, members, loss_cfg, surr_cfg, rng, scope, per_member_patterns
):
    """Member by member, one forward per pattern per policy; returns (loss, grad, n_clipped).

    Both policies are scored on the same pattern set.
    """
    n = len(members)
    outcome = group_advantages([r for _, r in members])
    if per_member_patterns:
        pattern_sets = [reference_patterns(state.prompt.length, surr_cfg, rng) for _ in range(n)]
    else:
        pattern_sets = [reference_patterns(state.prompt.length, surr_cfg, rng)] * n
    loss, grad, clipped, shared = 0.0, np.zeros(params.dim), 0, None
    for z, (action, _) in enumerate(members):
        positions, targets = scoring_targets(state, action, scope)
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
        adv = outcome.advantages[z]
        value, unclipped_active = clipped_objective(rho, adv, loss_cfg.clip_eps)
        clipped += not unclipped_active
        loss -= value / n
        if unclipped_active and adv != 0.0:
            coef = -(adv * rho) / (n * len(ctx_new))
            for ctx in ctx_new:
                grad += reference_score_grad(params, ctx, positions, targets, coef)
    return loss, grad, clipped


def reference_kl(params, ref, states, surr_cfg, rng):
    total, grad = 0.0, np.zeros(params.dim)
    for state in states:
        positions = state.completion.mask_positions()
        if not positions:
            continue
        pats = reference_patterns(state.prompt.length, surr_cfg, rng)
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
    size = int(rng.integers(2, 10))
    mask_id = size + int(rng.integers(0, 3))  # also off the default id
    return LinearArch(
        Vocab(size, mask_id),
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
    vocab = arch.vocab
    prompt = MaskedSequence(tuple(rng.integers(0, vocab.size, arch.prompt_len).tolist()), vocab)
    completion = random_tokens(rng, vocab, arch.completion_len, p_mask)
    completion[int(rng.integers(arch.completion_len))] = vocab.mask_id  # never fully visible
    return DiffusionState(prompt, MaskedSequence(tuple(completion), vocab))


def random_action(rng, state):
    return Action(tuple((p, int(rng.integers(state.vocab.size))) for p in state.mask()))


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


def test_inverse_cdf_sampling_matches_rng_choice_and_the_generator_state():
    rng = stream(2, "diff-sampling")
    for case in range(3000):
        v, n = int(rng.integers(2, 10)), int(rng.integers(1, 9))
        rows = rng.normal(0.0, float(rng.choice([0.1, 1.0, 5.0, 40.0])), (n, v))
        ctx = RowsContext(tuple(range(n)), rows, log_softmax(rows), np.zeros((n, 1)), None)
        a, b = stream(3, "draw", case), stream(3, "draw", case)
        tokens = [tok for _, tok in sample_action(ctx, a).assignments]
        assert tokens == reference_sample(ctx, b)
        assert a.bit_generator.state == b.bit_generator.state


def test_batched_logprobs_equal_the_running_sums():
    rng = stream(4, "diff-logprob")
    arch = random_arch(rng)
    params = init_params(arch, rng, scale=1.0)
    for _ in range(20):
        state = random_state(rng, arch, p_mask=0.7)
        positions = state.mask()
        ctxs = [rows_context(params, random_state(rng, arch), positions) for _ in range(3)]
        targets = rng.integers(0, arch.vocab.size, (5, len(positions)))
        batched = logprob_from_contexts(ctxs, positions, targets)
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
    groups = []
    for n_mc in (1, 3, 9):
        surr_cfg = SurrogateConfig(n_mc=n_mc, ratio_law="uniform")
        for g in range(6):
            state = random_state(rng, arch)
            members = [(random_action(rng, state), float(rng.normal())) for _ in range(4)]
            groups.append(StepGroup(state, tuple(members)))
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

    # the whole prompt's groups at once: mixed mask-set sizes, one feature pass each
    surr_cfg = SurrogateConfig(n_mc=2, ratio_law="uniform")
    loss, grad = aggregate_step_loss(
        groups, params, old, loss_cfg, surr_cfg, stream(7, "agg"), scope=scope
    )
    ref_rng, ref_loss, ref_grad = stream(7, "agg"), 0.0, np.zeros(params.dim)
    for group in groups:
        l, g, _ = reference_group_loss(
            params, old, group.state, list(group.branches), loss_cfg, surr_cfg, ref_rng, scope,
            False,
        )
        ref_loss += l
        ref_grad += g
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("kind", ["linear", "mlp"], ids=["linear-True", "mlp-True"])
def test_terminal_and_kl_losses_equal_the_per_member_reference(kind):
    rng, arch, params, old = loss_problem(kind, 8)
    loss_cfg = LossConfig(clip_eps=0.05)
    clipped = 0
    for n_mc in (1, 2, 9):
        surr_cfg = SurrogateConfig(n_mc=n_mc, ratio_law="uniform")
        prompt = random_state(rng, arch).prompt
        completions = [
            (MaskedSequence(tuple(rng.integers(0, 4, 5).tolist()), arch.vocab), float(rng.normal()))
            for _ in range(4)
        ]
        loss, grad = terminal_loss(
            prompt, completions, params, old, loss_cfg, surr_cfg, stream(9, n_mc)
        )
        state = full_mask_state(prompt, 5)
        members = [(completion_action(c), r) for c, r in completions]
        ref_loss, ref_grad, n_clipped = reference_group_loss(
            params, old, state, members, loss_cfg, surr_cfg, stream(9, n_mc), "action", True
        )
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        clipped += n_clipped

        states = [random_state(rng, arch) for _ in range(3)] + [state]
        states.append(DiffusionState(prompt, completions[0][0]))  # no masks: skipped
        kl, kl_grad = kl_penalty(params, old, states, surr_cfg, stream(10, n_mc))
        ref_kl, ref_kl_grad = reference_kl(params, old, states, surr_cfg, stream(10, n_mc))
        assert kl == ref_kl
        assert np.array_equal(kl_grad, ref_kl_grad)
    assert clipped > 0


# -- the variance protocol: one pattern draw and one feature pass per state ---


def reference_trcov_protocol(
    params, old_params, candidates, conditions, n_trials, surr_cfg, seed, n_boot
):
    """The per-trial loop: every condition rebuilds each trial's pattern stream."""
    maskable = [c for c in candidates if c.state.completion.mask_positions()]
    loss_cfg = LossConfig(clip_eps=None)
    per_state_all = {c.name: [] for c in conditions}
    survived = {c.name: [] for c in conditions}
    for i, cand in enumerate(maskable):
        behavior = rows_context(old_params, cand.state)
        groups_by_size = {}
        for cond in conditions:
            z = cond.n_branches
            if z not in groups_by_size:
                groups = []
                for r in range(n_trials):
                    rng = stream(seed, "trcov-group", i, r, z)
                    members = []
                    for _ in range(z):
                        action = sample_action(behavior, rng)
                        completed = fill(cand.state, action)
                        members.append((action, cand.reward(cand.state.prompt, completed)))
                    groups.append(members)
                groups_by_size[z] = groups
            ghats = np.zeros((n_trials, params.dim))
            any_positive = False
            for r, members in enumerate(groups_by_size[z]):
                rewards = [rw for _, rw in members]
                if max(rewards) > float(np.mean(rewards)):
                    any_positive = True
                _, grad = step_loss(
                    cand.state, members, params, old_params, loss_cfg, surr_cfg,
                    stream(seed, "trcov-patterns", i, r), scope=cond.scope,
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
                diffs, n_boot, 0.95, stream(seed, "trcov-boot", cond.name)
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
    done = cands[-1].state.completion.with_tokens(dict.fromkeys(range(6), 0))
    cands.insert(2, CandidateState(DiffusionState(cands[-1].state.prompt, done), cands[-1].reward))
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
