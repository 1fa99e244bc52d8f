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

Ratio computations must evaluate the current and old policies on the
*same* drawn patterns; callers draw patterns once (``draw_patterns``) and
pass them to both evaluations, which makes the ratio exactly 1 when the
parameters are identical.  Corruption masks prompt positions only; the
pattern-draw law masks each token i.i.d. with a ratio drawn uniformly per
pattern (or held fixed, or zero to disable corruption).
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
    """Estimator settings: pattern count, corruption law, pattern sharing."""

    n_mc: int = 2
    ratio_law: RatioLaw = "uniform"
    share_patterns: bool = True

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


@dataclass(frozen=True)
class PromptMaskPattern:
    """A boolean corruption pattern over prompt positions, plus its drawn ratio."""

    mask: tuple[bool, ...]
    ratio: float


def draw_pattern(
    prompt_len: int, rng: np.random.Generator, ratio_law: RatioLaw = "uniform"
) -> PromptMaskPattern:
    if ratio_law == "zero":
        return PromptMaskPattern((False,) * prompt_len, 0.0)
    ratio = float(rng.uniform()) if ratio_law == "uniform" else float(ratio_law)
    mask = tuple((rng.random(prompt_len) < ratio).tolist())
    return PromptMaskPattern(mask, ratio)


def draw_patterns(
    prompt_len: int, cfg: SurrogateConfig, rng: np.random.Generator
) -> tuple[PromptMaskPattern, ...]:
    return tuple(draw_pattern(prompt_len, rng, cfg.ratio_law) for _ in range(cfg.n_mc))


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


def corrupted_features(
    arch: Arch,
    jobs: Sequence[tuple[DiffusionState, tuple[PromptMaskPattern, ...], tuple[int, ...]]],
) -> list[np.ndarray]:
    """Feature rows of corrupted state copies, one ``_features`` pass per positions count.

    A job is ``(state, patterns, positions)``: one copy of ``state`` per
    pattern, its prompt masked by the pattern, featurized at
    ``positions``.  Its entry in the result is a
    ``(len(patterns), len(positions), feature_dim)`` block, one row block
    per copy, ready for ``pattern_contexts(..., feats=...)``.
    """
    mid = arch.vocab.mask_id
    by_size: dict[int, list[int]] = {}
    for j, (_, _, positions) in enumerate(jobs):
        by_size.setdefault(len(positions), []).append(j)
    out: list[np.ndarray] = [np.empty(0)] * len(jobs)
    for size, members in by_size.items():
        tokens, rows = [], []
        for j in members:
            state, patterns, positions = jobs[j]
            masks = np.array([p.mask for p in patterns], dtype=bool)
            if masks.shape != (len(patterns), state.prompt.length):
                raise ContractViolation("pattern length must match the prompt")
            copies = np.tile(state_tokens(arch, state), (len(patterns), 1))
            copies[:, : arch.prompt_len][masks] = mid
            tokens.append(copies)
            rows.append(np.tile(np.array(positions, dtype=np.intp), (len(patterns), 1)))
        feats = _features(arch, np.concatenate(tokens), np.concatenate(rows).reshape(-1, size))
        start = 0
        for j in members:
            stop = start + len(jobs[j][1])
            out[j] = feats[start:stop]
            start = stop
    return out


def pattern_contexts(
    params: PolicyParams,
    state: DiffusionState,
    patterns: tuple[PromptMaskPattern, ...] | None,
    positions: tuple[int, ...],
    *,
    counters: OpCounters | None = None,
    kind: str = "step",
    feats: np.ndarray | None = None,
) -> list[RowsContext]:
    """One forward pass per pattern, on the corrupted copies of ``state``.

    Every context covers the same ``positions``, so any number of actions
    can be scored against one set of grids.  Each forward bumps the
    counter bucket named by ``kind`` ("step", "terminal", or "kl").
    ``feats`` passes the copies' feature rows when the caller has batched
    them with ``corrupted_features``; ``state`` and ``patterns`` are then
    not read.  One feature pass serves every policy scored on the copies.
    """
    field = {
        "step": "surrogate_step_calls",
        "terminal": "surrogate_terminal_calls",
        "kl": "surrogate_kl_calls",
    }.get(kind)
    if field is None:
        raise ContractViolation(f"unknown surrogate call kind {kind!r}")
    if feats is None:
        (feats,) = corrupted_features(params.arch, [(state, patterns, positions)])
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


def _resolve_patterns(
    state: DiffusionState,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None,
    patterns: tuple[PromptMaskPattern, ...] | None,
) -> tuple[PromptMaskPattern, ...]:
    if patterns is not None:
        return patterns
    if rng is None:
        if cfg.corruption_enabled:
            raise ContractViolation("either patterns or an rng must be provided")
        rng = np.random.default_rng(0)  # zero-corruption draws never consume it
    return draw_patterns(state.prompt.length, cfg, rng)


def state_surrogate_logprob(
    params: PolicyParams,
    state: DiffusionState,
    action: Action,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    patterns: tuple[PromptMaskPattern, ...] | None = None,
    counters: OpCounters | None = None,
    scope: str = "action",
    kind: str = "step",
) -> float:
    """Surrogate log-likelihood of ``action`` at ``state`` (pattern average)."""
    patterns = _resolve_patterns(state, cfg, rng, patterns)
    positions, targets = scoring_targets(state, action, scope)
    ctxs = pattern_contexts(params, state, patterns, positions, counters=counters, kind=kind)
    return float(logprob_from_contexts(ctxs, positions, targets).mean())


def state_surrogate_grad(
    params: PolicyParams,
    state: DiffusionState,
    action: Action,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    patterns: tuple[PromptMaskPattern, ...] | None = None,
    counters: OpCounters | None = None,
    scope: str = "action",
    kind: str = "step",
) -> np.ndarray:
    """Gradient of ``state_surrogate_logprob`` w.r.t. the flat parameters."""
    patterns = _resolve_patterns(state, cfg, rng, patterns)
    positions, targets = scoring_targets(state, action, scope)
    ctxs = pattern_contexts(params, state, patterns, positions, counters=counters, kind=kind)
    return grad_from_contexts(params, ctxs, positions, targets)
