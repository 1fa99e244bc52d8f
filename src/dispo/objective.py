"""Policy-gradient objectives over branch groups and rollout groups.

Credit assignment works on groups: a group of sibling samples shares a
mean-reward baseline, so each member's advantage is its reward minus the
group mean (advantages sum to zero).  Two loss granularities exist:

  * step loss: a group of alternative fill actions branched from one
    intermediate state, with importance ratios from the state-level
    surrogate restricted to the masked positions, and
  * terminal loss: the group of full rollouts for one prompt, with ratios
    from the same state-level surrogate at the fully masked state.

Both use pessimistic PPO clipping (min of the unclipped and clipped
objectives); clipping can be disabled for oracle runs by setting
``clip_eps`` to None.  A group's mean baseline scales the expected
gradient of the corresponding true objective by (n-1)/n for group size n;
the verification module accounts for that factor explicitly, the trainer
does not compensate.

Within one loss evaluation ``group_features`` draws the corruption
patterns once and featurizes their copies once; every policy being
compared (current, old, reference) and every member of the group scores
that block, so the ratio is exactly 1 at equal parameters and the
per-pattern forward grids are shared across group members.

Also here: exact categorical KL penalties against a frozen reference
policy, the weighted combination of the loss families, and the timestep
sampling laws used to pick which intermediate states get step groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counters import OpCounters
from .errors import ConfigurationError, ContractViolation
from .policy import PolicyParams, backprop, score_dlogits
from .sequences import Action, DiffusionState, MaskedSequence
from .surrogate import (
    SurrogateConfig,
    completion_action,
    full_mask_state,
    group_features,
    logprob_from_contexts,
    pattern_contexts,
    scored_positions,
    scoring_targets,
)


@dataclass(frozen=True)
class GroupOutcome:
    rewards: tuple[float, ...]
    baseline: float
    advantages: tuple[float, ...]


def group_advantages(rewards: Sequence[float]) -> GroupOutcome:
    """Mean-baseline advantages; they sum to zero by construction."""
    if len(rewards) == 0:
        raise ContractViolation("advantage group must be non-empty")
    r = tuple(float(x) for x in rewards)
    baseline = float(np.mean(r))
    return GroupOutcome(r, baseline, tuple(x - baseline for x in r))


@dataclass(frozen=True)
class LossConfig:
    alpha_step: float = 0.1
    alpha_term: float = 1.0
    clip_eps: float | None = 0.2
    kl_beta: float = 0.0
    kl_on_step: bool = False

    def __post_init__(self) -> None:
        if self.alpha_step < 0 or self.alpha_term < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if self.clip_eps is not None and not 0.0 < self.clip_eps < 1.0:
            raise ConfigurationError("clip_eps must lie in (0, 1), or be None to disable clipping")
        if self.kl_beta < 0:
            raise ConfigurationError("kl_beta must be non-negative")


def clipped_objective(rho: float, advantage: float, clip_eps: float | None) -> tuple[float, bool]:
    """Pessimistic clipped surrogate value and whether the unclipped branch is active."""
    unclipped = rho * advantage
    if clip_eps is None:
        return unclipped, True
    clipped = min(max(rho, 1.0 - clip_eps), 1.0 + clip_eps) * advantage
    return min(unclipped, clipped), unclipped <= clipped


def _group_loss_and_grad(
    params: PolicyParams,
    old_params: PolicyParams,
    state: DiffusionState,
    members: list[tuple[Action, float]],
    loss_cfg: LossConfig,
    feats: np.ndarray,
    *,
    counters: OpCounters | None,
    scope: str,
    kind: str,
    per_member_sets: bool = False,
) -> tuple[float, np.ndarray]:
    """Shared machinery for the step and terminal losses.

    ``feats`` is the group's ``group_features`` block, scored by both
    policies.  With ``per_member_sets`` it holds one pattern set per
    member (terminal convention: one set per rollout); otherwise one set
    serves the whole group and the per-pattern grids are shared.  Every
    member is scored against every grid in one gather, and each grid
    backpropagates all of its members' logit gradients in one batch.
    """
    n = len(members)
    if n == 0:
        raise ContractViolation("loss group must be non-empty")
    outcome = group_advantages([r for _, r in members])
    positions = scored_positions(state, scope)
    targets = np.array([scoring_targets(state, a, scope)[1] for a, _ in members], dtype=np.intp)
    n_sets = n if per_member_sets else 1
    ctx_new = pattern_contexts(params, feats, positions, counters=counters, kind=kind)
    ctx_old = pattern_contexts(old_params, feats, positions, counters=counters, kind=kind)
    n_mc = len(ctx_new) // n_sets
    # each member's own pattern set: its own one, or the group's single set
    own = (np.arange(n), np.arange(n) if per_member_sets else np.zeros(n, dtype=np.intp))
    lp = logprob_from_contexts(ctx_new + ctx_old, positions, targets)
    lp = lp.reshape(n, 2, n_sets, n_mc)[own[0], :, own[1]]
    lp_new, lp_old = lp.sum(axis=-1).T / n_mc  # pattern means

    loss = 0.0
    coefs = np.zeros(n)
    active = []
    for z in range(n):
        rho = float(np.exp(lp_new[z] - lp_old[z]))
        adv = outcome.advantages[z]
        value, unclipped_active = clipped_objective(rho, adv, loss_cfg.clip_eps)
        loss -= value / n
        if unclipped_active and adv != 0.0:
            coefs[z] = -(adv * rho) / (n * n_mc)
            active.append(z)
    active = np.array(active, dtype=np.intp)

    member_grads: dict[tuple[int, int], np.ndarray] = {}
    for s in range(n_sets):
        users = active[own[1][active] == s]
        if users.size == 0:
            continue
        for m in range(n_mc):
            ctx = ctx_new[s * n_mc + m]
            dlogits = score_dlogits(ctx, positions, targets[users], coefs[users])
            for z, g in zip(users, backprop(params, ctx, dlogits)):
                member_grads[z, m] = g
    grad = np.zeros(params.dim)
    for z in active:
        for m in range(n_mc):
            grad += member_grads[z, m]
    return loss, grad


def step_loss(
    state: DiffusionState,
    branches: list[tuple[Action, float]],
    params: PolicyParams,
    old_params: PolicyParams,
    loss_cfg: LossConfig,
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
    scope: str = "action",
    feats: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Clipped group loss for a branch group at one intermediate state.

    ``branches`` pairs each sampled fill action with its terminal reward.
    One pattern set serves the whole group, so the surrogate cost is one
    forward per pattern per policy regardless of the group size.
    ``feats`` passes the group's ``group_features`` block when the caller
    has drawn and featurized it already (``aggregate_step_loss`` does, for
    all of a prompt's groups at once); no pattern is drawn then.
    """
    if feats is None:
        (feats,) = group_features(params.arch, [state], surr_cfg, [rng], (scope,))[scope]
    return _group_loss_and_grad(
        params,
        old_params,
        state,
        branches,
        loss_cfg,
        feats,
        counters=counters,
        scope=scope,
        kind="step",
    )


@dataclass(frozen=True)
class StepGroup:
    """One selected state together with its branch outcomes."""

    state: DiffusionState
    branches: tuple[tuple[Action, float], ...]


def aggregate_step_loss(
    groups: Sequence[StepGroup],
    params: PolicyParams,
    old_params: PolicyParams,
    loss_cfg: LossConfig,
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
    scope: str = "action",
) -> tuple[float, np.ndarray]:
    """Sum of step losses over the selected states (order-stable).

    Patterns are drawn group by group, in the order ``step_loss`` would
    draw them; the corrupted copies of every group are featurized together,
    one pass per mask-set size.
    """
    feats = group_features(
        params.arch, [g.state for g in groups], surr_cfg, [rng] * len(groups), (scope,)
    )[scope]
    loss = 0.0
    grad = np.zeros(params.dim)
    for group, group_feats in zip(groups, feats):
        l, g = step_loss(
            group.state,
            list(group.branches),
            params,
            old_params,
            loss_cfg,
            surr_cfg,
            rng,
            counters=counters,
            scope=scope,
            feats=group_feats,
        )
        loss += l
        grad += g
    return loss, grad


def terminal_loss(
    prompt: MaskedSequence,
    completions: list[tuple[MaskedSequence, float]],
    params: PolicyParams,
    old_params: PolicyParams,
    loss_cfg: LossConfig,
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
) -> tuple[float, np.ndarray]:
    """Clipped group loss over a prompt's rollout group.

    Ratios come from the state-level surrogate at the fully masked state;
    each completion draws its own pattern set (shared between the current
    and old policies).
    All members' corrupted copies are featurized in one pass.
    """
    if not completions:
        raise ContractViolation("terminal loss needs at least one completion")
    length = completions[0][0].length
    for c, _ in completions:
        if not c.fully_visible():
            raise ContractViolation("terminal completions must be fully visible")
        if c.length != length:
            raise ContractViolation("terminal completions must share a length")
    state = full_mask_state(prompt, length)
    members = [(completion_action(c), r) for c, r in completions]
    (feats,) = group_features(params.arch, [state], surr_cfg, [rng], n_sets=len(members))["action"]
    return _group_loss_and_grad(
        params,
        old_params,
        state,
        members,
        loss_cfg,
        feats,
        counters=counters,
        scope="action",
        kind="terminal",
        per_member_sets=True,
    )


def kl_penalty(
    params: PolicyParams,
    ref_params: PolicyParams,
    states: Sequence[DiffusionState],
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
) -> tuple[float, np.ndarray]:
    """Exact categorical KL to the reference policy, with its gradient.

    For every state: average over shared corruption patterns of the sum
    over the state's masked positions of KL(current row || reference
    row).  Value is 0 at identical parameters and non-negative in exact
    arithmetic.  States without masked positions are skipped and draw
    nothing; the others' corrupted copies are featurized together, and
    each state's block serves both policies.
    """
    states = [s for s in states if s.completion.mask_positions()]
    total = 0.0
    grad = np.zeros(params.dim)
    blocks = group_features(params.arch, states, surr_cfg, [rng] * len(states))["action"]
    for state, feats in zip(states, blocks):
        positions = state.completion.mask_positions()
        ctx_cur = pattern_contexts(params, feats, positions, counters=counters, kind="kl")
        ctx_ref = pattern_contexts(ref_params, feats, positions, counters=counters, kind="kl")
        for cur, ref in zip(ctx_cur, ctx_ref):
            diff = cur.logp - ref.logp
            p = np.exp(cur.logp)
            row_kl = (p * diff).sum(axis=-1)
            total += float(row_kl.sum()) / len(feats)
            dlogits = p * (diff - row_kl[:, None]) / len(feats)
            grad += backprop(params, cur, dlogits)
    return total, grad


def combined_loss(
    prompt: MaskedSequence,
    completions: list[tuple[MaskedSequence, float]],
    step_groups: Sequence[StepGroup],
    params: PolicyParams,
    old_params: PolicyParams,
    ref_params: PolicyParams | None,
    loss_cfg: LossConfig,
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
) -> tuple[float, np.ndarray, dict]:
    """Weighted combination for one prompt: terminal + step + KL.

    Skips any family whose weight is zero without consuming its forward
    passes or random draws, so budget accounting holds exactly.  Returns
    the total, its gradient, and a parts dict (values and per-family
    gradients) for logging and linearity checks.
    """
    parts: dict = {"loss_term": 0.0, "loss_step": 0.0, "kl": 0.0}
    grad_term = np.zeros(params.dim)
    grad_step = np.zeros(params.dim)
    grad_kl = np.zeros(params.dim)

    if loss_cfg.alpha_term > 0 and completions:
        parts["loss_term"], grad_term = terminal_loss(
            prompt, completions, params, old_params, loss_cfg, surr_cfg, rng, counters=counters
        )
    if loss_cfg.alpha_step > 0 and step_groups:
        parts["loss_step"], grad_step = aggregate_step_loss(
            step_groups, params, old_params, loss_cfg, surr_cfg, rng, counters=counters
        )
    if loss_cfg.kl_beta > 0:
        if ref_params is None:
            raise ContractViolation("kl_beta > 0 requires reference parameters")
        kl_states: list[DiffusionState] = []
        if completions:
            kl_states.append(full_mask_state(prompt, completions[0][0].length))
        if loss_cfg.kl_on_step:
            kl_states.extend(g.state for g in step_groups)
        parts["kl"], grad_kl = kl_penalty(
            params, ref_params, kl_states, surr_cfg, rng, counters=counters
        )

    loss = (
        loss_cfg.alpha_term * parts["loss_term"]
        + loss_cfg.alpha_step * parts["loss_step"]
        + loss_cfg.kl_beta * parts["kl"]
    )
    grad = (
        loss_cfg.alpha_term * grad_term
        + loss_cfg.alpha_step * grad_step
        + loss_cfg.kl_beta * grad_kl
    )
    parts["grad_term"] = grad_term
    parts["grad_step"] = grad_step
    parts["grad_kl"] = grad_kl
    return loss, grad, parts


@dataclass(frozen=True)
class TimestepSampler:
    """Distribution over step indices 1..n_steps used to select step states.

    Laws: "uniform"; "poly_late" with weight (t/T)^degree (mass near the
    final, nearly-complete states); "poly_early" with weight
    ((T+1-t)/T)^degree (mass near the fully masked start).
    """

    law: str
    n_steps: int
    degree: int = 4

    def __post_init__(self) -> None:
        if self.law not in ("uniform", "poly_late", "poly_early"):
            raise ConfigurationError(f"unknown timestep law {self.law!r}")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if self.degree < 0:
            raise ConfigurationError("degree must be >= 0")

    def weights(self) -> np.ndarray:
        t = np.arange(1, self.n_steps + 1, dtype=np.float64)
        if self.law == "uniform":
            w = np.ones_like(t)
        elif self.law == "poly_late":
            w = (t / self.n_steps) ** self.degree
        else:
            w = ((self.n_steps + 1 - t) / self.n_steps) ** self.degree
        return w / w.sum()


def sample_timesteps(
    sampler: TimestepSampler, n: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Draw ``n`` i.i.d. step indices in 1..n_steps from the sampler's law."""
    if n < 0:
        raise ContractViolation("n must be >= 0")
    w = sampler.weights()
    draws = rng.choice(sampler.n_steps, size=n, p=w)
    return tuple(int(d) + 1 for d in draws)
