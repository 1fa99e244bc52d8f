"""Policy-gradient objectives over branch groups and rollout groups.

Credit assignment works on groups.  A loss group is ``(state, members)``:
one state and its members' ``(action, reward)`` pairs, the one form a
group takes from ``train`` to the loss kernel.  The members share a
mean-reward baseline, so each member's advantage is its reward minus the
group mean (advantages sum to zero); the kernel is the one place that
computes it.  Two loss granularities exist:

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
compared (current, old, reference) scores that block, one forward per
copy, so the ratio is exactly 1 at equal parameters.  A group's forward
grids, its ``Grids``, hold both policies' log-probabilities as one
``(2, C, n, V)`` block, normalized by one ``log_softmax`` call, next to
the ``(C, n, F)`` feature block; all its members are scored against them.

One kernel, ``_group_loss_and_grad``, scores a list of groups against
their grids, which its callers compute: it stacks the groups of equal
mask-set size and group size, so a prompt's step groups cost one gather,
one ratio pass and one batch-axis backprop per stack.
``aggregate_step_loss`` calls it once per prompt, and ``step_loss`` and
``terminal_loss`` are its one-group calls.

Also here: exact categorical KL penalties against a frozen reference
policy, the weighted combination of the loss families, and
``SamplerConfig``, the run config's timestep law, whose ``sample`` picks
which intermediate states get step groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .counters import OpCounters
from .errors import ConfigurationError, ContractViolation
from .policy import PolicyParams, backprop, log_softmax, score_dlogits
from .sequences import Action, DiffusionState, MaskedSequence
from .surrogate import (
    SurrogateConfig,
    full_mask_state,
    group_features,
    group_targets,
    pattern_contexts,
    scored_positions,
)

# A loss group: one state and its members' (fill action, reward) pairs.
LossGroup = tuple[DiffusionState, Sequence[tuple[Action, float]]]


class Grids(NamedTuple):
    """A group's forward grids: two policies scoring its ``group_features`` block."""

    positions: tuple[int, ...]  # the scored positions, one row each
    logp: np.ndarray  # (2, C, n, V) log-probabilities: current policy, then old (or reference)
    feats: np.ndarray  # (C, n, F), the block both policies score, one row block per copy
    hidden: np.ndarray | None  # (C, n, H), the current policy's activations, mlp only


@dataclass(frozen=True)
class LossConfig:
    """Loss weights and clip width; the KL term is taken at the fully masked state only."""

    alpha_step: float = 0.1
    alpha_term: float = 1.0
    clip_eps: float | None = 0.2
    kl_beta: float = 0.0

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


def _group_grids(
    params: PolicyParams, old_params: PolicyParams, states: Sequence[DiffusionState],
    feats: Sequence[np.ndarray], scope: str, *, counters: OpCounters | None = None,
    kind: str = "step",
) -> list[Grids]:
    """Each group's grids: both policies score its ``group_features`` block
    ``feats[g]`` at the positions ``scope`` scores, one forward per copy,
    and one ``log_softmax`` normalizes the group's stacked rows."""
    out = []
    for state, block in zip(states, feats, strict=True):
        positions = scored_positions(state, scope)
        cur, old = (
            pattern_contexts(p, block, positions, counters=counters, kind=kind)
            for p in (params, old_params)
        )
        logp = log_softmax(np.array([[c.rows for c in cur], [c.rows for c in old]]))
        hidden = None if cur[0].hidden is None else np.array([c.hidden for c in cur])
        out.append(Grids(positions, logp, block, hidden))
    return out


def _group_loss_and_grad(
    params: PolicyParams, groups: Sequence[LossGroup], grids: Sequence[Grids],
    loss_cfg: LossConfig, *, scope: str, per_member_sets: bool = False,
) -> tuple[float, np.ndarray]:
    """Summed clipped loss and gradient of ``groups``, the one kernel of both families.

    ``grids[g]`` is group ``g``'s ``Grids`` from ``_group_grids``; the kernel
    runs no forward, and backprops through their ``feats`` and ``hidden``.
    With ``per_member_sets`` a list holds one pattern set per member
    (terminal convention: one set per rollout); otherwise one set serves
    the whole group.  One ``group_targets`` call per group checks its
    actions and gives its scored positions and ``(Z, n)`` targets.  Groups
    of equal mask-set size and group size are stacked: a stack makes one
    target gather with running position sums, one ratio and advantage
    pass, one ``score_dlogits`` and one batch-axis ``backprop`` over its
    active members, and calls ``clipped_objective`` once per member.  A
    group's loss adds up in member order and its gradient in
    member-then-pattern order; the groups then add up in list order.
    """
    scored, stacks = [], {}
    for g, (state, members) in enumerate(groups):
        if not members:
            raise ContractViolation("loss group must be non-empty")
        scored.append(group_targets(state, [a for a, _ in members], scope))
        if grids[g].positions != scored[g][0]:
            raise ContractViolation("a group's grids must cover the positions it scores")
        stacks.setdefault(scored[g][1].shape, []).append(g)
    losses = [0.0] * len(groups)
    grads = np.zeros((len(groups), params.dim))
    for (z, n), idx in stacks.items():
        n_groups, n_copies = len(idx), grids[idx[0]].logp.shape[1]
        n_mc = n_copies // z if per_member_sets else n_copies
        logp = np.array([grids[g].logp for g in idx])  # [group, policy, copy, row, token]
        tgt = np.array([scored[g][1] for g in idx])
        picked = logp[
            np.arange(n_groups)[:, None, None, None, None],
            np.arange(2)[:, None, None],
            np.arange(n_copies)[:, None],
            np.arange(n),
            tgt[:, :, None, None, :],
        ]  # [group, member, policy, copy, row]: every member against every copy
        lp = picked.cumsum(axis=-1)[..., -1] if n else np.zeros(picked.shape[:-1])
        if per_member_sets:  # each member's own pattern set, not the others'
            lp = lp.reshape(n_groups, z, 2, z, n_mc)[:, np.arange(z), :, np.arange(z)]
            lp = lp.swapaxes(0, 1)
        lp = lp.reshape(n_groups, z, 2, n_mc).sum(axis=-1) / n_mc  # pattern means
        rhos = np.exp(lp[..., 0] - lp[..., 1]).tolist()
        rewards = np.array([[r for _, r in groups[g][1]] for g in idx])
        advs = (rewards - rewards.sum(axis=-1, keepdims=True) / z).tolist()
        coefs = np.zeros((n_groups, z, n_mc))
        for s, g in enumerate(idx):
            loss = 0.0
            for k, (rho, adv) in enumerate(zip(rhos[s], advs[s])):
                value, unclipped_active = clipped_objective(rho, adv, loss_cfg.clip_eps)
                loss -= value / z
                if unclipped_active and adv != 0.0:
                    coefs[s, k] = -(adv * rho) / (z * n_mc)
            losses[g] = loss

        active = coefs.nonzero()  # (group, member, pattern) in member-then-pattern order
        if not active[0].size:
            continue
        sa, za, ma = active
        copy = ma + za * n_mc if per_member_sets else ma  # each active row's copy
        dlogits = score_dlogits(np.exp(logp[sa, 0, copy]), tgt[sa, za], coefs[active])
        block = np.array([grids[g].feats for g in idx])[sa, copy]
        hidden = grids[idx[0]].hidden
        if hidden is not None:
            hidden = np.array([grids[g].hidden for g in idx])[sa, copy]
        # each group's rows add up in order, from zero
        np.add.at(grads, np.array(idx)[sa], backprop(params, block, hidden, dlogits))
    loss = 0.0
    for value in losses:
        loss += value
    return loss, grads.sum(axis=0)


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
    grids: Grids | None = None,
) -> tuple[float, np.ndarray]:
    """Clipped group loss for a branch group at one intermediate state.

    ``branches`` pairs each sampled fill action with its terminal reward.
    One pattern set serves the whole group, so the surrogate cost is one
    forward per pattern per policy regardless of the group size.
    ``grids`` passes the group's ``Grids`` from ``_group_grids``, at the
    positions ``scope`` scores, when the caller has run them already
    (several groups may share them); no pattern is drawn and no forward is
    run then.
    """
    if grids is None:
        (feats,) = group_features(params.arch, [state], surr_cfg, [rng], (scope,))[scope]
        (grids,) = _group_grids(params, old_params, [state], [feats], scope, counters=counters)
    return _group_loss_and_grad(params, [(state, branches)], [grids], loss_cfg, scope=scope)


def aggregate_step_loss(
    groups: Sequence[LossGroup],
    params: PolicyParams,
    old_params: PolicyParams,
    loss_cfg: LossConfig,
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
) -> tuple[float, np.ndarray]:
    """Sum of step losses over the selected states (order-stable), each scoring its action.

    Patterns are drawn group by group, in the order ``step_loss`` would
    draw them; the corrupted copies of every group are featurized together,
    one pass per mask-set size, and one kernel call scores every group.
    """
    states = [state for state, _ in groups]
    feats = group_features(params.arch, states, surr_cfg, [rng] * len(groups))["action"]
    grids = _group_grids(params, old_params, states, feats, "action", counters=counters)
    return _group_loss_and_grad(params, groups, grids, loss_cfg, scope="action")


def terminal_loss(
    prompt: MaskedSequence,
    completions: Sequence[tuple[Action, float]],
    params: PolicyParams,
    old_params: PolicyParams,
    loss_cfg: LossConfig,
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
) -> tuple[float, np.ndarray]:
    """Clipped group loss over a prompt's rollout group.

    ``completions`` pairs each rollout's completion tokens with its reward:
    the members of the group at the fully masked state, whose actions are
    whole completions.  Ratios come from the state-level surrogate there;
    each completion draws its own pattern set (shared between the current
    and old policies).  All members' corrupted copies are featurized in
    one pass.
    """
    if not completions:
        raise ContractViolation("terminal loss needs at least one completion")
    state = full_mask_state(prompt, params.arch.completion_len)
    (feats,) = group_features(
        params.arch, [state], surr_cfg, [rng], n_sets=len(completions)
    )["action"]
    grids = _group_grids(
        params, old_params, [state], [feats], "action", counters=counters, kind="terminal"
    )
    return _group_loss_and_grad(
        params, [(state, completions)], grids, loss_cfg, scope="action", per_member_sets=True
    )


def kl_penalty(
    params: PolicyParams,
    ref_params: PolicyParams,
    state: DiffusionState,
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
) -> tuple[float, np.ndarray]:
    """Exact categorical KL to the reference policy at ``state``, with its gradient.

    Average over shared corruption patterns of the sum over the state's
    masked positions of KL(current row || reference row).  Value is 0 at
    identical parameters and non-negative in exact arithmetic.  One
    feature block serves both policies, and one grid holds both.
    """
    (feats,) = group_features(params.arch, [state], surr_cfg, [rng])["action"]
    (grid,) = _group_grids(
        params, ref_params, [state], [feats], "action", counters=counters, kind="kl"
    )
    total = 0.0
    grad = np.zeros(params.dim)
    for c, (cur, ref) in enumerate(zip(*grid.logp)):
        diff = cur - ref
        p = np.exp(cur)
        row_kl = (p * diff).sum(axis=-1)
        total += float(row_kl.sum()) / len(feats)
        dlogits = p * (diff - row_kl[:, None]) / len(feats)
        hidden = None if grid.hidden is None else grid.hidden[c]
        grad += backprop(params, feats[c], hidden, dlogits)
    return total, grad


def combined_loss(
    prompt: MaskedSequence,
    completions: Sequence[tuple[Action, float]],
    step_groups: Sequence[LossGroup],
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

    ``completions`` is the terminal group's members, as ``terminal_loss``
    takes them.  The KL term is taken at the prompt's fully masked state
    only.  Skips any family whose weight is zero without consuming its
    forward passes or random draws, so budget accounting holds exactly.  Returns
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
        kl_state = full_mask_state(prompt, params.arch.completion_len)
        parts["kl"], grad_kl = kl_penalty(
            params, ref_params, kl_state, surr_cfg, rng, counters=counters
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
class SamplerConfig:
    """Distribution over step indices 1..n_steps used to select step states.

    Laws: "uniform"; "poly_late" with weight (t/T)^degree (mass near the
    final, nearly-complete states); "poly_early" with weight
    ((T+1-t)/T)^degree (mass near the fully masked start).
    """

    law: str = "poly_late"
    degree: int = 4

    def __post_init__(self) -> None:
        if self.law not in ("uniform", "poly_late", "poly_early"):
            raise ConfigurationError(f"unknown timestep law {self.law!r}")
        if self.degree < 0:
            raise ConfigurationError("degree must be >= 0")

    def weights(self, n_steps: int) -> np.ndarray:
        if n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        t = np.arange(1, n_steps + 1, dtype=np.float64)
        if self.law == "uniform":
            w = np.ones_like(t)
        elif self.law == "poly_late":
            w = (t / n_steps) ** self.degree
        else:
            w = ((n_steps + 1 - t) / n_steps) ** self.degree
        return w / w.sum()

    def sample(self, n_steps: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
        """Draw ``n`` i.i.d. step indices in 1..n_steps from the law."""
        if n < 0:
            raise ContractViolation("n must be >= 0")
        draws = rng.choice(n_steps, size=n, p=self.weights(n_steps))
        return tuple(int(d) + 1 for d in draws)
