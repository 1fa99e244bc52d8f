"""Policy-gradient objectives over branch groups and rollout groups.

Credit assignment works on groups.  A loss group is one ``LossGroup``
from ``train`` to the loss kernel: the state's context token row (the
prompt, then its completion), the completion positions it scores, its
members' ``(Z, n)`` target tokens and their ``(Z,)`` rewards.  The
public one-group and one-prompt losses take ``(state, members)`` pairs,
a state being its context row and members ``(action, reward)``, and
convert them at the edge with ``loss_group``, which checks the row once;
that form feeds the same kernel.  The members share a
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
``(2, C, n, V)`` block, sliced from one ``log_softmax`` call over every
group with as many scored positions, next to the ``(C, n, F)`` feature
block; each member is scored against its own copies.

One kernel, ``_group_loss_and_grad``, scores a list of groups against
their grids, which its callers compute, and gives each group's loss and
gradient: it stacks the groups of equal mask-set size and group size,
whichever prompt they belong to, checks each stack's targets in one
array pass (``target_stacks``), and so an update's step groups cost one
gather, one ratio pass and one batch-axis backprop per stack.
``combined_loss`` scores all the prompts of an update together: one
featurization, one grid pass and one kernel call per family, after which
each prompt's groups add up in order.  Each one-prompt loss is one
``combined_loss`` call weighting only its own family; ``step_loss`` on
passed grids is the kernel's one-group call.

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
from .sequences import Action, MaskedSequence
from .surrogate import (
    LossGroup,
    SurrogateConfig,
    full_mask_state,
    group_features,
    loss_group,
    pattern_contexts,
    stacked,
    target_stacks,
)

_FAMILIES = ("terminal", "step", "kl")  # a prompt's loss families, in pattern-draw order


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
    params: PolicyParams, positions: Sequence[tuple[int, ...]], feats: Sequence[np.ndarray],
    others: Sequence[tuple[PolicyParams, str]], *, counters: OpCounters | None = None,
) -> list[Grids]:
    """Each group's grids: the current policy and ``others[g] = (policy,
    kind)`` score its ``group_features`` block ``feats[g]`` at the
    positions ``positions[g]``, one forward per copy and policy, counted
    in bucket ``kind``; one ``log_softmax`` normalizes the stacked rows of
    every group with as many positions."""
    rows, hidden = [], []
    by_size: dict[int, list[int]] = {}
    for g, (pos, block, (other, kind)) in enumerate(zip(positions, feats, others, strict=True)):
        cur, old = (
            pattern_contexts(p, block, pos, counters=counters, kind=kind) for p in (params, other)
        )
        rows.append([c.rows for c in cur + old])
        hidden.append(None if cur[0].hidden is None else np.array([c.hidden for c in cur]))
        by_size.setdefault(len(pos), []).append(g)
    out: list[Grids] = [None] * len(positions)  # type: ignore[list-item]
    for idx in by_size.values():
        logp = log_softmax(np.array([r for g in idx for r in rows[g]]))
        start = 0
        for g in idx:
            stop = start + len(rows[g])
            pair = logp[start:stop].reshape(2, len(feats[g]), *logp.shape[1:])
            out[g] = Grids(positions[g], pair, feats[g], hidden[g])
            start = stop
    return out


def _group_loss_and_grad(
    params: PolicyParams, groups: Sequence[LossGroup], grids: Sequence[Grids],
    loss_cfg: LossConfig, *, per_member_sets: bool = False,
) -> tuple[list[float], np.ndarray]:
    """Each group's clipped loss and ``(G, D)`` gradients, the one kernel of both families.

    ``grids[g]`` is group ``g``'s ``Grids`` from ``_group_grids``; the kernel
    runs no forward, and backprops through their ``feats`` and ``hidden``.
    Member k's copies are the group's one pattern set, or with
    ``per_member_sets`` its own set k (terminal convention: one set per
    rollout).  ``target_stacks`` checks every group's targets and stacks
    the groups of equal mask-set size and group size, whichever prompt
    they belong to: a stack makes one gather of each member at its own
    copies with running position sums, one ratio and advantage pass, one
    ``score_dlogits`` and one batch-axis ``backprop`` over its active
    members, and calls ``clipped_objective`` once per member.  A group's
    loss adds up in member order and its gradient in member-then-pattern
    order; callers add the groups up with ``_sums``.
    """
    stacks = target_stacks(groups, params.arch.vocab)
    for group, grid in zip(groups, grids, strict=True):
        if grid.positions != group.positions:
            raise ContractViolation("a group's grids must cover the positions it scores")
    losses = [0.0] * len(groups)
    grads = np.zeros((len(groups), params.dim))
    for (z, n), (idx, tgt) in stacks.items():
        n_groups, n_copies = len(idx), grids[idx[0]].logp.shape[1]
        n_mc = n_copies // z if per_member_sets else n_copies
        # member k's copies: its own set k, or the group's one set
        copies = np.arange(n_copies).reshape(-1, n_mc).repeat(z * n_mc // n_copies, axis=0)
        logp = stacked([grids[g].logp for g in idx])  # [group, policy, copy, row, token]
        # each member at its own copies, [group, member, policy, copy, row]: each row's
        # first entry in the flat block, plus the member's token there; in C order, as the
        # gather keeps that layout and the layout sets the order of the pattern sums
        first = np.arange(0, logp.size, logp.shape[-1]).reshape(n_groups, 2, n_copies, n)
        rows = first.take(copies, axis=2).swapaxes(1, 2)
        picked = logp.reshape(-1)[np.add(rows, tgt[:, :, None, None, :], order="C")]
        lp = picked.cumsum(axis=-1)[..., -1] if n else np.zeros(picked.shape[:-1])
        lp = lp.sum(axis=-1) / n_mc  # pattern means, [group, member, policy]
        rhos = np.exp(lp[..., 0] - lp[..., 1]).tolist()
        rewards = stacked([groups[g].rewards for g in idx]).astype(np.float64, copy=False)
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
        copy = copies[za, ma]
        dlogits = score_dlogits(np.exp(logp[sa, 0, copy]), tgt[sa, za], coefs[active])
        block = stacked([grids[g].feats for g in idx])[sa, copy]
        hidden = grids[idx[0]].hidden
        if hidden is not None:
            hidden = stacked([grids[g].hidden for g in idx])[sa, copy]
        # each group's rows add up in order, from zero
        np.add.at(grads, np.array(idx)[sa], backprop(params, block, hidden, dlogits))
    return losses, grads


def _kl_and_grad(params: PolicyParams, grids: Sequence[Grids]) -> tuple[list[float], np.ndarray]:
    """Each grid's exact KL, current against reference, and its ``(G, D)`` gradients.

    The grids share their shape.  All copies of all grids go through one
    pass and one batch-axis ``backprop``; a grid's value adds up its copies'
    row sums in copy order, and its gradient its copies' gradients.
    """
    logp = np.array([grid.logp for grid in grids])  # [grid, policy, copy, row, token]
    n_copies = logp.shape[2]
    diff = logp[:, 0] - logp[:, 1]
    p = np.exp(logp[:, 0])
    row_kl = (p * diff).sum(axis=-1)
    dlogits = p * (diff - row_kl[..., None]) / n_copies
    hidden = None if grids[0].hidden is None else np.array([grid.hidden for grid in grids])
    copy_grads = backprop(params, np.array([grid.feats for grid in grids]), hidden, dlogits)
    values, grads = [], np.zeros((len(grids), params.dim))
    for g in range(len(grids)):
        total = 0.0
        for c in range(n_copies):
            total += float(row_kl[g, c].sum()) / n_copies
            grads[g] += copy_grads[g, c]
        values.append(total)
    return values, grads


def _sums(
    values: Sequence[float], grads: np.ndarray, counts: Sequence[int]
) -> list[tuple[float, np.ndarray]]:
    """Each prompt's loss and gradient: its ``counts[b]`` consecutive groups, added in order."""
    out, start = [], 0
    for n in counts:
        loss = 0.0
        for value in values[start : start + n]:
            loss += value
        out.append((loss, grads[start : start + n].sum(axis=0)))
        start += n
    return out


def _only(weight: str, clip_eps: float | None = None) -> LossConfig:
    """A ``LossConfig`` that scores one family, ``weight``, at weight 1."""
    zero = {"alpha_term": 0.0, "alpha_step": 0.0, "kl_beta": 0.0}
    return LossConfig(**{**zero, weight: 1.0}, clip_eps=clip_eps)


def step_loss(
    state: np.ndarray,
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
    """Clipped group loss for a branch group at one intermediate state, a context row.

    ``branches`` pairs each sampled fill action with its terminal reward.
    One pattern set serves the whole group, so the surrogate cost is one
    forward per pattern per policy regardless of the group size.
    ``grids`` passes the group's ``Grids`` from ``_group_grids``, at the
    positions ``scope`` scores, when the caller has run them already
    (several groups may share them); no pattern is drawn and no forward is
    run then; without them it is one prompt's step family in ``combined_loss``.
    """
    group = loss_group(params.arch, state, branches, scope)
    if grids is None:
        ((_, _, parts),) = combined_loss(
            [None], [[group]], params, old_params, None, _only("alpha_step", loss_cfg.clip_eps),
            surr_cfg, [rng], counters=counters,
        )
        return parts["loss_step"], parts["grad_step"]
    (loss,), (grad,) = _group_loss_and_grad(params, [group], [grids], loss_cfg)
    return loss, grad


def aggregate_step_loss(
    groups: Sequence[tuple[np.ndarray, Sequence[tuple[Action, float]]]],
    params: PolicyParams,
    old_params: PolicyParams,
    loss_cfg: LossConfig,
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
) -> tuple[float, np.ndarray]:
    """Sum of step losses over the selected states (order-stable), each scoring its action.

    ``groups`` holds ``(state, members)`` pairs.  One prompt's step family
    in ``combined_loss``: patterns are drawn group by group, in the order
    ``step_loss`` would draw them, and one kernel call scores every group.
    """
    ((_, _, parts),) = combined_loss(
        [None], [[loss_group(params.arch, state, members) for state, members in groups]],
        params, old_params, None, _only("alpha_step", loss_cfg.clip_eps), surr_cfg, [rng],
        counters=counters,
    )
    return parts["loss_step"], parts["grad_step"]


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
    and old policies).  One prompt's terminal family in ``combined_loss``.
    """
    if not completions:
        raise ContractViolation("terminal loss needs at least one completion")
    state = full_mask_state(prompt, params.arch.completion_len)
    ((_, _, parts),) = combined_loss(
        [loss_group(params.arch, state, completions)], [[]], params, old_params, None,
        _only("alpha_term", loss_cfg.clip_eps), surr_cfg, [rng], counters=counters,
    )
    return parts["loss_term"], parts["grad_term"]


def kl_penalty(
    params: PolicyParams,
    ref_params: PolicyParams,
    state: np.ndarray,
    surr_cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
) -> tuple[float, np.ndarray]:
    """Exact categorical KL to the reference policy at the context row ``state``,
    with its gradient.

    Average over shared corruption patterns of the sum over the state's
    masked positions of KL(current row || reference row).  Value is 0 at
    identical parameters and non-negative in exact arithmetic.  One
    feature block serves both policies, and one grid holds both.  One
    prompt's KL family in ``combined_loss``.
    """
    ((_, _, parts),) = combined_loss(  # a group without members: its context and positions
        [loss_group(params.arch, state)], [[]], params, None, ref_params, _only("kl_beta"),
        surr_cfg, [rng], counters=counters,
    )
    return parts["kl"], parts["grad_kl"]


def combined_loss(
    terminal: Sequence[LossGroup | None],
    step_groups: Sequence[Sequence[LossGroup]],
    params: PolicyParams,
    old_params: PolicyParams,
    ref_params: PolicyParams | None,
    loss_cfg: LossConfig,
    surr_cfg: SurrogateConfig,
    rngs: Sequence[np.random.Generator | None],
    *,
    counters: OpCounters | None = None,
) -> list[tuple[float, np.ndarray, dict]]:
    """Weighted combination for each prompt: terminal + step + KL.

    Prompt ``b`` has its rollout group ``terminal[b]`` at its fully masked
    state (``loss_group(arch, full_mask_state(prompt, L), completions)``),
    its step groups ``step_groups[b]`` and its generator ``rngs[b]``, which
    draws its terminal, step and KL patterns in that order.  The KL term is
    taken at ``terminal[b]``'s context only, so a None ``terminal[b]`` (no
    rollout group) has neither a terminal nor a KL family.  All prompts
    share one featurization, one grid pass and one kernel call per family.
    Skips any family whose weight is zero, and a terminal group without
    members, without consuming its forward passes or random draws, so
    budget accounting holds exactly.  Returns, per prompt, the total, its
    gradient, and a parts dict (unweighted values and per-family
    gradients, 0 for a skipped family) for logging and linearity checks.
    """
    if not len(terminal) == len(step_groups) == len(rngs):
        raise ContractViolation("one terminal group, step group list and generator per prompt")
    if loss_cfg.kl_beta > 0 and ref_params is None:
        raise ContractViolation("kl_beta > 0 requires reference parameters")
    jobs = []  # (prompt, family, loss group, pattern sets), prompt by prompt
    for b, (term, groups) in enumerate(zip(terminal, step_groups)):
        if term is not None and loss_cfg.alpha_term > 0 and len(term.targets):
            jobs.append((b, "terminal", term, len(term.targets)))
        if loss_cfg.alpha_step > 0:
            jobs += [(b, "step", group, 1) for group in groups]
        if term is not None and loss_cfg.kl_beta > 0:
            jobs.append((b, "kl", term, 1))
    positions = [job[2].positions for job in jobs]
    feats = group_features(
        params.arch, [job[2].tokens for job in jobs], positions, surr_cfg,
        [rngs[job[0]] for job in jobs], n_sets=[job[3] for job in jobs],
    )
    other = {"terminal": old_params, "step": old_params, "kl": ref_params}
    grids = _group_grids(
        params, positions, feats, [(other[job[1]], job[1]) for job in jobs], counters=counters
    )
    per_family = []
    for kind in _FAMILIES:
        mine = [i for i, job in enumerate(jobs) if job[1] == kind]
        scored = ([], np.zeros((0, params.dim)))
        if mine and kind == "kl":
            scored = _kl_and_grad(params, [grids[i] for i in mine])
        elif mine:
            scored = _group_loss_and_grad(
                params, [jobs[i][2] for i in mine], [grids[i] for i in mine], loss_cfg,
                per_member_sets=kind == "terminal",
            )
        counts = [sum(jobs[i][0] == b for i in mine) for b in range(len(rngs))]
        per_family.append(_sums(*scored, counts))
    out = []
    for term, step, kl in zip(*per_family):
        parts = {
            "loss_term": term[0], "loss_step": step[0], "kl": kl[0],
            "grad_term": term[1], "grad_step": step[1], "grad_kl": kl[1],
        }
        loss = (
            loss_cfg.alpha_term * parts["loss_term"]
            + loss_cfg.alpha_step * parts["loss_step"]
            + loss_cfg.kl_beta * parts["kl"]
        )
        grad = (
            loss_cfg.alpha_term * parts["grad_term"]
            + loss_cfg.alpha_step * parts["grad_step"]
            + loss_cfg.kl_beta * parts["grad_kl"]
        )
        out.append((loss, grad, parts))
    return out


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
