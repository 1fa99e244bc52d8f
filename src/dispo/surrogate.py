"""One-step surrogate likelihoods under prompt corruption.

The exact sequence likelihood of a masked-diffusion policy marginalizes
over denoising paths and is intractable even at toy scale.  The surrogate
used throughout this package instead scores tokens in a single denoising
step: corrupt the prompt by masking a random subset of its tokens, mask
the positions being scored, run one forward pass, and sum the per-token
log-probabilities of the actual tokens.  Averaging over ``n_mc`` i.i.d.
corruption patterns gives the estimator; with corruption disabled it is
deterministic and equals the policy's factorized action log-probability.

One API scores a fill action at a state, summing over the currently
masked positions (``state_surrogate_logprob``/``state_surrogate_grad``).
A full completion is the action ``completion_action(c)`` at the fully
masked state ``full_mask_state(prompt, L)``, scored with
``kind="terminal"``: the terminal ratios are this fixed-state score at
the fully masked state.

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
from typing import Sequence

import numpy as np

from .counters import OpCounters
from .errors import ConfigurationError, ContractViolation
from .policy import (
    Arch,
    PolicyParams,
    RowsContext,
    _features,
    backprop,
    rows_context,
    score_dlogits,
    state_tokens,
)
from .sequences import Action, DiffusionState, MaskedSequence, check_action

RatioLaw = str | float


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
    uniformly per pattern or fixed by the law.  The zero law draws
    nothing; with corruption off and no generator the masks are all false.
    """
    law = cfg.ratio_law
    if law == "zero" or (rng is None and not cfg.corruption_enabled):
        return np.zeros((cfg.n_mc, prompt_len), dtype=bool)
    if rng is None:
        raise ContractViolation("corruption patterns need a generator")
    if law == "uniform":
        u = rng.random((cfg.n_mc, prompt_len + 1))  # per pattern: its ratio, then its tokens
        return u[:, 1:] < u[:, :1]
    return rng.random((cfg.n_mc, prompt_len)) < float(law)


def full_mask_state(prompt: MaskedSequence, completion_len: int) -> DiffusionState:
    return DiffusionState(prompt, MaskedSequence.masked(completion_len, prompt.vocab))


def completion_action(completion: MaskedSequence) -> Action:
    """The completion rendered as a joint action over all its positions."""
    if not completion.fully_visible():
        raise ContractViolation("completion must be fully visible")
    return Action(tuple(enumerate(completion.tokens)))


def scored_positions(state: DiffusionState, scope: str = "action") -> tuple[int, ...]:
    """Completion positions a surrogate scores at ``state``: the mask set, or all of them."""
    if scope == "action":
        return state.completion.mask_positions()
    if scope == "all":
        return tuple(range(state.completion.length))
    raise ContractViolation(f"unknown scope {scope!r}")


def scoring_targets(
    state: DiffusionState, action: Action, scope: str = "action"
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Positions to score and their target tokens.

    ``scope="action"`` scores the currently masked positions against the
    action's tokens; ``scope="all"`` additionally scores every visible
    completion position against its own token (the action never overlaps
    visible positions, whose features exclude the position's own token).
    """
    positions = scored_positions(state, scope)
    check_action(state, action)
    filled = dict(enumerate(state.completion.tokens)) if scope == "all" else {}
    filled.update(action.assignments)
    return positions, tuple(filled[p] for p in positions)


def group_features(
    arch: Arch,
    states: Sequence[DiffusionState],
    cfg: SurrogateConfig,
    rngs: Sequence[np.random.Generator | None],
    scopes: Sequence[str] = ("action",),
    n_sets: int = 1,
) -> dict[str, list[np.ndarray]]:
    """Draw each group's corruption patterns and featurize all its corrupted copies.

    Group ``g`` at ``states[g]`` draws ``n_sets`` pattern sets from
    ``rngs[g]``, one after another (one generator may serve several groups
    in turn).  Every copy is featurized at the positions each scope scores,
    one ``_features`` pass per positions count over all groups and scopes.
    Entry ``[scope][g]`` is an ``(n_sets * n_mc, len(positions),
    feature_dim)`` block, one row block per copy; every policy a loss
    compares scores that same block through ``pattern_contexts``.
    """
    mid = arch.vocab.mask_id
    copies = []
    for state, rng in zip(states, rngs, strict=True):
        masks = np.concatenate(
            [draw_patterns(state.prompt.length, cfg, rng) for _ in range(n_sets)]
        )
        tokens = np.tile(state_tokens(arch, state), (len(masks), 1))
        tokens[:, : arch.prompt_len][masks] = mid
        copies.append(tokens)
    by_size: dict[int, list[tuple[str, int, tuple[int, ...]]]] = {}
    for scope in scopes:
        for g, state in enumerate(states):
            positions = scored_positions(state, scope)
            by_size.setdefault(len(positions), []).append((scope, g, positions))
    out: dict[str, list[np.ndarray]] = {scope: [np.empty(0)] * len(states) for scope in scopes}
    for jobs in by_size.values():
        rows = [np.tile(np.array(pos, dtype=np.intp), (len(copies[g]), 1)) for _, g, pos in jobs]
        feats = _features(
            arch, np.concatenate([copies[g] for _, g, _ in jobs]), np.concatenate(rows)
        )
        start = 0
        for scope, g, _ in jobs:
            stop = start + len(copies[g])
            out[scope][g] = feats[start:stop]
            start = stop
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
    can be scored against one set of grids.  Each forward bumps the
    counter bucket named by ``kind`` ("step", "terminal", or "kl").
    """
    field = {
        "step": "surrogate_step_calls",
        "terminal": "surrogate_terminal_calls",
        "kl": "surrogate_kl_calls",
    }.get(kind)
    if field is None:
        raise ContractViolation(f"unknown surrogate call kind {kind!r}")
    out = []
    for rows in feats:
        ctx = rows_context(params, None, positions, feats=rows)
        if counters is not None:
            setattr(counters, field, getattr(counters, field) + 1)
        out.append(ctx)
    return out


def logprob_from_contexts(
    contexts: list[RowsContext],
    positions: tuple[int, ...],
    targets: np.ndarray | tuple[int, ...],
) -> np.ndarray:
    """Summed log-probabilities of ``targets`` at ``positions``, per context.

    ``targets`` is ``(..., len(positions))``: one token tuple per member.
    The result is ``(..., len(contexts))``; entry ``[z, m]`` scores member
    ``z`` against context ``m``.  Positions add up in order, as a running
    sum from zero.
    """
    targets = np.asarray(targets, dtype=np.intp)
    logp = np.stack(
        [
            ctx.logp
            if ctx.positions == positions
            else ctx.logp[[ctx.row_index(p) for p in positions]]
            for ctx in contexts
        ]
    )
    m = np.arange(len(contexts))[:, None]
    picked = logp[m, np.arange(len(positions)), targets[..., None, :]]  # (..., contexts, positions)
    if not positions:
        return np.zeros(picked.shape[:-1])
    return np.cumsum(picked, axis=-1)[..., -1]


def grad_from_contexts(
    params: PolicyParams,
    contexts: list[RowsContext],
    positions: tuple[int, ...],
    targets: np.ndarray | tuple[int, ...],
) -> np.ndarray:
    """Gradient of the pattern-averaged log-probability, one per leading index of ``targets``."""
    grad = np.zeros(np.shape(targets)[:-1] + (params.dim,))
    for ctx in contexts:
        grad += backprop(params, ctx, score_dlogits(ctx, positions, targets))
    return grad / len(contexts)


def _state_contexts(
    params: PolicyParams,
    state: DiffusionState,
    action: Action,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None,
    counters: OpCounters | None,
    scope: str,
    kind: str,
) -> tuple[list[RowsContext], tuple[int, ...], tuple[int, ...]]:
    positions, targets = scoring_targets(state, action, scope)
    (feats,) = group_features(params.arch, [state], cfg, [rng], (scope,))[scope]
    ctxs = pattern_contexts(params, feats, positions, counters=counters, kind=kind)
    return ctxs, positions, targets


def state_surrogate_logprob(
    params: PolicyParams,
    state: DiffusionState,
    action: Action,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
    scope: str = "action",
    kind: str = "step",
) -> float:
    """Surrogate log-likelihood of ``action`` at ``state`` (pattern average)."""
    ctxs, positions, targets = _state_contexts(
        params, state, action, cfg, rng, counters, scope, kind
    )
    return float(logprob_from_contexts(ctxs, positions, targets).mean())


def state_surrogate_grad(
    params: PolicyParams,
    state: DiffusionState,
    action: Action,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    counters: OpCounters | None = None,
    scope: str = "action",
    kind: str = "step",
) -> np.ndarray:
    """Gradient of ``state_surrogate_logprob`` w.r.t. the flat parameters."""
    ctxs, positions, targets = _state_contexts(
        params, state, action, cfg, rng, counters, scope, kind
    )
    return grad_from_contexts(params, ctxs, positions, targets)
