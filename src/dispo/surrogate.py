"""One-step surrogate likelihoods under prompt corruption.

The exact sequence likelihood of a masked-diffusion policy marginalizes
over denoising paths and is intractable even at toy scale.  The surrogate
used throughout this package instead scores tokens in a single denoising
step: corrupt the prompt by masking a random subset of its tokens, mask
the positions being scored, run one forward pass, and sum the per-token
log-probabilities of the actual tokens.  Averaging over ``n_mc`` i.i.d.
corruption patterns gives the estimator; with corruption disabled it is
deterministic and equals the policy's factorized action log-probability.

A state is its context token row, the prompt then the completion (see
``policy.check_state``).  One API scores a fill action (one token per
masked position, in order) at a state, summing over the currently masked
positions (``state_surrogate_logprob``/``state_surrogate_grad``).  A full
completion's tokens are the action at the fully masked state, the row
``full_mask_state(prompt, L)``: the terminal ratios are this fixed-state
score at the fully masked state.

A loss group's array form is a ``LossGroup``: the state's row, the
scored completion positions, the members' ``(Z, n)`` target tokens and
their ``(Z,)`` rewards.  ``loss_group`` builds it from a state row and
its ``(action, reward)`` members at the API edge, checking the row once;
``target_stacks`` checks every group of a list in one array pass per
targets shape, with ``check_action``'s messages.

Patterns are always shared: ``group_features`` draws a group's patterns
and featurizes its corrupted copies once, and the current, old and
reference policies all score that one feature block, so the ratio is
exactly 1 when the parameters are identical.  A pattern set is an
``(n_mc, prompt_len)`` bool array.  Corruption masks prompt positions
only; the pattern-draw law masks each token i.i.d. with a ratio drawn
uniformly per pattern (or held fixed, or zero to disable corruption).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .counters import OpCounters
from .errors import ConfigurationError, ContractViolation
from .policy import (
    Arch,
    PolicyParams,
    RowsContext,
    _check_token_range,
    _features,
    backprop,
    check_state,
    log_softmax,
    mask_positions,
    rows_context,
    score_dlogits,
)
from .sequences import Action, MaskedSequence, Vocab, check_action, fill

RatioLaw = str | float


class LossGroup(NamedTuple):
    """A loss group in array form: one context, its scored positions, its members."""

    tokens: np.ndarray  # (prompt_len + completion_len,) context: the prompt, then the completion
    positions: tuple[int, ...]  # the n completion positions scored, in order
    targets: np.ndarray  # (Z, n) each member's token at each scored position
    rewards: np.ndarray  # (Z,) each member's reward


@dataclass(frozen=True)
class SurrogateConfig:
    """Estimator settings: pattern count and corruption law."""

    n_mc: int = 2
    ratio_law: RatioLaw = "uniform"

    def __post_init__(self) -> None:
        if self.n_mc < 1:
            raise ConfigurationError("n_mc must be >= 1")
        law = self.ratio_law
        if isinstance(law, str):
            if law not in ("uniform", "zero"):
                raise ConfigurationError(f"unknown ratio law {law!r}")
        else:
            if not 0.0 <= float(law) <= 1.0:
                raise ConfigurationError("fixed corruption ratio must lie in [0, 1]")

    @property
    def corruption_enabled(self) -> bool:
        return self.ratio_law != "zero" and self.ratio_law != 0.0


def draw_patterns(
    prompt_len: int, cfg: SurrogateConfig, rng: np.random.Generator | None
) -> np.ndarray:
    """``cfg.n_mc`` corruption patterns as an ``(n_mc, prompt_len)`` bool array.

    Each pattern masks every prompt token i.i.d. with its ratio, drawn
    uniformly per pattern or fixed by the law.  With corruption off (the
    zero law, or a fixed ratio of 0) the masks are all false and nothing is
    drawn.
    """
    law = cfg.ratio_law
    if not cfg.corruption_enabled:
        return np.zeros((cfg.n_mc, prompt_len), dtype=bool)
    if rng is None:
        raise ContractViolation("corruption patterns need a generator")
    if law == "uniform":
        u = rng.random((cfg.n_mc, prompt_len + 1))  # per pattern: its ratio, then its tokens
        return u[:, 1:] < u[:, :1]
    return rng.random((cfg.n_mc, prompt_len)) < float(law)


def full_mask_state(prompt: MaskedSequence, completion_len: int) -> np.ndarray:
    """The context row of ``prompt`` with a fully masked completion, read-only."""
    row = np.array(prompt.tokens + (prompt.vocab.mask_id,) * completion_len, dtype=np.intp)
    row.setflags(write=False)
    return row


def scored_positions(arch: Arch, state: np.ndarray, scope: str = "action") -> tuple[int, ...]:
    """Completion positions a surrogate scores at the context row ``state``
    (checked): the mask set, or all of them."""
    if scope == "action":
        return mask_positions(arch, check_state(arch, state))
    if scope == "all":
        return tuple(range(arch.completion_len))
    raise ContractViolation(f"unknown scope {scope!r}")


def stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new first axis; a lone array as a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def loss_group(
    arch: Arch,
    state: np.ndarray,
    members: Sequence[tuple[Action, float]] = (),
    scope: str = "action",
) -> LossGroup:
    """The ``LossGroup`` of the context row ``state`` (checked against
    ``arch``) and its members' ``(action, reward)`` pairs, the API edge of
    the array form.

    ``scope="action"`` scores the masked positions against the actions;
    ``scope="all"`` scores every position of each filled completion (a
    visible position's features exclude its own token, so it scores like
    a masked one), the group's ``fill``.  Actions of the wrong width, or
    with tokens that are not integers, raise ``check_action``'s message
    here; the token range is checked where the group is scored
    (``target_stacks``).
    """
    row = check_state(arch, state)
    masked = mask_positions(arch, row)  # the mask set, scanned once
    positions = masked if scope == "action" else scored_positions(arch, row, scope)
    actions = [a for a, _ in members]
    n = len(masked)
    try:
        targets = np.array(actions)
    except ValueError:  # ragged: some action has the wrong width
        targets = None
    if targets is None or targets.shape != (len(actions), n) or targets.dtype != np.intp:
        if actions:
            # names the first faulty member; integral floats pass
            check_action(n, arch.vocab, actions)
        targets = np.array(actions, dtype=np.intp).reshape(len(actions), n)
    if scope == "all":
        (targets,) = fill(row[None, arch.prompt_len :], [targets], arch.vocab)
    rewards = np.array([r for _, r in members], dtype=np.float64)
    return LossGroup(row, positions, targets, rewards)


def target_stacks(
    groups: Sequence[LossGroup], vocab: Vocab
) -> dict[tuple[int, int], tuple[list[int], np.ndarray]]:
    """The groups stacked by targets shape ``(Z, n)``: each stack's group
    indices and its ``(G, Z, n)`` integer targets.

    Every group needs one member or more, each member one ordinary token
    per scored position, and one reward per member.  Each stack is checked
    in one array pass; the first faulty group, in list order, raises
    ``check_action``'s message for its first faulty member, or names its
    rewards' shape.
    """
    stacks: dict[tuple, list[int]] = {}
    for g, group in enumerate(groups):
        key = (group.targets.shape, len(group.positions), np.shape(group.rewards))
        stacks.setdefault(key, []).append(g)
    out = {}
    for (shape, n, rewards), idx in stacks.items():
        tgt = stacked([groups[g].targets for g in idx])
        # as unsigned, a negative token reads as a huge one
        if len(shape) == 2 and shape[0] and shape[1] == n and rewards == shape[:1] and (
            tgt.dtype == np.intp and (not tgt.size or tgt.view(np.uintp).max() < vocab.size)
        ):
            out[shape] = (idx, tgt)
    if len(out) < len(stacks):  # name the first faulty group
        for g, group in enumerate(groups):
            if not len(group.targets):
                raise ContractViolation("loss group must be non-empty")
            if group.targets.ndim == 2:
                check_action(len(group.positions), vocab, group.targets.tolist())
            if group.targets.dtype != np.intp or group.targets.ndim != 2:
                break
            if np.shape(group.rewards) != group.targets.shape[:1]:
                raise ContractViolation(
                    f"loss group {g} has rewards of shape {np.shape(group.rewards)} "
                    f"for {len(group.targets)} members"
                )
        raise ContractViolation("a loss group's targets must be a (Z, n) array of intp tokens")
    return out


def group_features(
    arch: Arch,
    contexts: Sequence[np.ndarray],
    positions: Sequence[tuple[int, ...]],
    cfg: SurrogateConfig,
    rngs: Sequence[np.random.Generator | None],
    n_sets: Sequence[int] | None = None,
) -> list[np.ndarray]:
    """Draw each group's corruption patterns and featurize all its corrupted copies.

    Group ``g`` is the context token row ``contexts[g]`` and draws
    ``n_sets[g]`` pattern sets (one without ``n_sets``) from ``rngs[g]``,
    one after another (one generator may serve several groups in turn).
    Its copies are featurized at the completion positions
    ``positions[g]``, in one ``_features`` pass per positions count over
    all groups.  Entry ``g`` is an ``(n_sets[g] * n_mc, len(positions[g]),
    feature_dim)`` block, one row block per copy; every policy a loss
    compares scores that same block through ``pattern_contexts``.  The
    counts and every row's tokens are checked before any draw.
    """
    width = arch.prompt_len + arch.completion_len
    rows = np.array(contexts, dtype=np.intp).reshape(-1, width)
    _check_token_range(arch.vocab, rows)
    if len(rows) != len(rngs):
        raise ContractViolation(f"{len(rows)} context rows of width {width} for {len(rngs)} groups")
    if len(positions) != len(rngs):
        raise ContractViolation(f"{len(positions)} position lists for {len(rngs)} groups")
    n_sets = [1] * len(rngs) if n_sets is None else n_sets
    if len(n_sets) != len(rngs):
        raise ContractViolation(f"{len(n_sets)} pattern-set counts for {len(rngs)} groups")
    masks, counts = [], []
    for rng, n in zip(rngs, n_sets, strict=True):
        masks += [draw_patterns(arch.prompt_len, cfg, rng) for _ in range(n)]
        counts.append(n * cfg.n_mc)
    # one context row per copy, group by group, with its pattern's prompt tokens masked
    tokens = np.repeat(rows, counts, axis=0)
    if masks:
        tokens[:, : arch.prompt_len][np.concatenate(masks)] = arch.vocab.mask_id
    first = np.cumsum([0] + counts).tolist()
    by_size: dict[int, list[int]] = {}
    for g, pos in enumerate(positions):
        by_size.setdefault(len(pos), []).append(g)
    out: list[np.ndarray] = [np.empty(0)] * len(rows)
    for idx in by_size.values():
        cols = np.array([positions[g] for g in idx], dtype=np.intp)
        feats = _features(
            arch,
            np.concatenate([tokens[first[g] : first[g + 1]] for g in idx]),
            np.repeat(cols, [counts[g] for g in idx], axis=0),
        )
        start = 0
        for g in idx:
            out[g] = feats[start : start + counts[g]]
            start += counts[g]
    return out


def pattern_contexts(
    params: PolicyParams,
    feats: np.ndarray,
    positions: tuple[int, ...],
    *,
    counters: OpCounters | None = None,
    kind: str = "step",
) -> list[RowsContext]:
    """One forward pass per corrupted copy of a ``group_features`` block.

    Every context covers the same ``positions``, so any number of actions
    can be scored against one set of grids.  The forwards are counted in
    the counter bucket named by ``kind`` ("step", "terminal", or "kl").
    """
    field = {
        "step": "surrogate_step_calls",
        "terminal": "surrogate_terminal_calls",
        "kl": "surrogate_kl_calls",
    }.get(kind)
    if field is None:
        raise ContractViolation(f"unknown surrogate call kind {kind!r}")
    out = [rows_context(params, None, positions, feats=rows) for rows in feats]
    if counters is not None:
        setattr(counters, field, getattr(counters, field) + len(out))
    return out


def logprob_from_contexts(
    contexts: list[RowsContext], targets: np.ndarray | tuple[int, ...]
) -> np.ndarray:
    """Summed log-probabilities of ``targets``, one token per row, per context.

    The contexts share their positions.  ``targets`` is ``(..., n_rows)``:
    one token tuple per member.  The result is ``(..., len(contexts))``;
    entry ``[z, m]`` scores member ``z`` against context ``m``.  Rows add
    up in order, as a running sum from zero.
    """
    targets = np.asarray(targets, dtype=np.intp)
    logp = log_softmax(np.stack([ctx.rows for ctx in contexts]))
    n = logp.shape[1]
    m = np.arange(len(contexts))[:, None]
    picked = logp[m, np.arange(n), targets[..., None, :]]  # (..., contexts, rows)
    if not n:
        return np.zeros(picked.shape[:-1])
    return np.cumsum(picked, axis=-1)[..., -1]


def grad_from_contexts(
    params: PolicyParams, contexts: list[RowsContext], targets: np.ndarray
) -> np.ndarray:
    """Each ``(B, n)`` targets row's gradient of its pattern-averaged log-probability."""
    grad = np.zeros((len(targets), params.dim))
    for ctx in contexts:
        dlogits = score_dlogits(np.exp(ctx.logp), targets)
        grad += backprop(params, ctx.feats, ctx.hidden, dlogits)
    return grad / len(contexts)


def _state_contexts(
    params: PolicyParams,
    state: np.ndarray,
    action: Action,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None,
    scope: str,
) -> tuple[list[RowsContext], np.ndarray]:
    group = loss_group(params.arch, state, [(action, 0.0)], scope)
    ((_, tgt),) = target_stacks([group], params.arch.vocab).values()
    (feats,) = group_features(params.arch, [group.tokens], [group.positions], cfg, [rng])
    return pattern_contexts(params, feats, group.positions), tgt[0]


def state_surrogate_logprob(
    params: PolicyParams,
    state: np.ndarray,
    action: Action,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    scope: str = "action",
) -> float:
    """Surrogate log-likelihood of ``action`` at the context row ``state`` (pattern average)."""
    ctxs, targets = _state_contexts(params, state, action, cfg, rng, scope)
    return float(logprob_from_contexts(ctxs, targets).mean())


def state_surrogate_grad(
    params: PolicyParams,
    state: np.ndarray,
    action: Action,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    scope: str = "action",
) -> np.ndarray:
    """Gradient of ``state_surrogate_logprob`` w.r.t. the flat parameters."""
    ctxs, targets = _state_contexts(params, state, action, cfg, rng, scope)
    return grad_from_contexts(params, ctxs, targets)[0]
