"""One-step surrogate likelihoods under prompt corruption.

The exact sequence likelihood of a masked-diffusion policy marginalizes
over denoising paths and is intractable even at toy scale.  The surrogate
used throughout this package instead scores tokens in a single denoising
step: corrupt the prompt by masking a random subset of its tokens, mask
the positions being scored, run one forward pass, and sum the per-token
log-probabilities of the actual tokens.  Averaging over ``n_mc`` i.i.d.
corruption patterns gives the estimator; with corruption disabled it is
deterministic and equals the policy's factorized action log-probability.

Two granularities share one implementation:

  * sequence level: score a full completion against the fully masked
    completion state (used for terminal importance ratios), and
  * state level: score a fill action at an intermediate state, summing
    over the currently masked positions only (used for step-wise ratios).

Ratio computations must evaluate the current and old policies on the
*same* drawn patterns; callers draw patterns once (``draw_patterns``) and
pass them to both evaluations, which makes the ratio exactly 1 when the
parameters are identical.  Corruption masks prompt positions only; the
pattern-draw law masks each token i.i.d. with a ratio drawn uniformly per
pattern (or held fixed, or zero to disable corruption).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import OpCounters
from .errors import ConfigurationError, ContractViolation
from .policy import PolicyParams, RowsContext, backprop, rows_context, score_dlogits
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
    mask = tuple(bool(b) for b in rng.random(prompt_len) < ratio)
    return PromptMaskPattern(mask, ratio)


def draw_patterns(
    prompt_len: int, cfg: SurrogateConfig, rng: np.random.Generator
) -> tuple[PromptMaskPattern, ...]:
    return tuple(draw_pattern(prompt_len, rng, cfg.ratio_law) for _ in range(cfg.n_mc))


def apply_pattern(prompt: MaskedSequence, pattern: PromptMaskPattern) -> MaskedSequence:
    if len(pattern.mask) != prompt.length:
        raise ContractViolation("pattern length must match the prompt")
    mid = prompt.vocab.mask_id
    toks = tuple(mid if m else t for t, m in zip(prompt.tokens, pattern.mask))
    return MaskedSequence(toks, prompt.vocab)


def corrupt_prompt(
    prompt: MaskedSequence, rng: np.random.Generator, ratio_law: RatioLaw = "uniform"
) -> tuple[PromptMaskPattern, MaskedSequence]:
    """Draw one pattern and apply it.  The prompt must be fully visible."""
    if not prompt.fully_visible():
        raise ContractViolation("corrupt_prompt expects a fully visible prompt")
    pattern = draw_pattern(prompt.length, rng, ratio_law)
    return pattern, apply_pattern(prompt, pattern)


def corrupted_state(state: DiffusionState, pattern: PromptMaskPattern) -> DiffusionState:
    return DiffusionState(apply_pattern(state.prompt, pattern), state.completion)


def full_mask_state(prompt: MaskedSequence, completion_len: int) -> DiffusionState:
    return DiffusionState(prompt, MaskedSequence.masked(completion_len, prompt.vocab))


def completion_action(completion: MaskedSequence) -> Action:
    """The completion rendered as a joint action over all its positions."""
    if not completion.fully_visible():
        raise ContractViolation("completion must be fully visible")
    return Action(tuple(enumerate(completion.tokens)))


def scoring_targets(
    state: DiffusionState, action: Action, scope: str = "action"
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Positions to score and their target tokens.

    ``scope="action"`` scores the currently masked positions against the
    action's tokens; ``scope="all"`` additionally scores every visible
    completion position against its own token (the action never overlaps
    visible positions, whose features exclude the position's own token).
    """
    check_action(state, action)
    masked = state.completion.mask_positions()
    if scope == "action":
        return masked, tuple(action[p] for p in masked)
    if scope == "all":
        positions = tuple(range(state.completion.length))
        targets = tuple(
            action[p] if p in set(masked) else state.completion.tokens[p] for p in positions
        )
        return positions, targets
    raise ContractViolation(f"unknown scope {scope!r}")


def pattern_contexts(
    params: PolicyParams,
    state: DiffusionState,
    patterns: tuple[PromptMaskPattern, ...],
    positions: tuple[int, ...],
    *,
    counters: OpCounters | None = None,
    kind: str = "step",
) -> list[RowsContext]:
    """One forward pass per pattern, on the corrupted copies of ``state``.

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
    for pattern in patterns:
        ctx = rows_context(params, corrupted_state(state, pattern), positions)
        if counters is not None:
            setattr(counters, field, getattr(counters, field) + 1)
        out.append(ctx)
    return out


def logprob_from_contexts(
    contexts: list[RowsContext], positions: tuple[int, ...], targets: tuple[int, ...]
) -> np.ndarray:
    """Per-pattern summed log-probabilities of ``targets`` at ``positions``."""
    vals = np.zeros(len(contexts))
    for m, ctx in enumerate(contexts):
        total = 0.0
        for pos, tok in zip(positions, targets):
            total += ctx.logp[ctx.row_index(pos), tok]
        vals[m] = total
    return vals


def grad_from_contexts(
    params: PolicyParams,
    contexts: list[RowsContext],
    positions: tuple[int, ...],
    targets: tuple[int, ...],
) -> np.ndarray:
    """Gradient of the pattern-averaged log-probability."""
    grad = np.zeros(params.dim)
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


def seq_surrogate_samples(
    params: PolicyParams,
    prompt: MaskedSequence,
    completion: MaskedSequence,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    patterns: tuple[PromptMaskPattern, ...] | None = None,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Per-pattern sequence surrogate values (for convergence diagnostics)."""
    state = full_mask_state(prompt, completion.length)
    action = completion_action(completion)
    patterns = _resolve_patterns(state, cfg, rng, patterns)
    positions, targets = scoring_targets(state, action, "action")
    ctxs = pattern_contexts(params, state, patterns, positions, counters=counters, kind="terminal")
    return logprob_from_contexts(ctxs, positions, targets)


def seq_surrogate_logprob(
    params: PolicyParams,
    prompt: MaskedSequence,
    completion: MaskedSequence,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    patterns: tuple[PromptMaskPattern, ...] | None = None,
    counters: OpCounters | None = None,
) -> float:
    """Sequence-level surrogate log-likelihood of a full completion.

    Scores every completion token against the fully masked completion
    state under a corrupted prompt; equals the state-level surrogate at
    the fully masked state, and with corruption disabled reduces to the
    policy's factorized action log-probability there.
    """
    return float(
        seq_surrogate_samples(
            params, prompt, completion, cfg, rng, patterns=patterns, counters=counters
        ).mean()
    )


def seq_surrogate_grad(
    params: PolicyParams,
    prompt: MaskedSequence,
    completion: MaskedSequence,
    cfg: SurrogateConfig,
    rng: np.random.Generator | None = None,
    *,
    patterns: tuple[PromptMaskPattern, ...] | None = None,
    counters: OpCounters | None = None,
) -> np.ndarray:
    state = full_mask_state(prompt, completion.length)
    action = completion_action(completion)
    return state_surrogate_grad(
        params, state, action, cfg, rng, patterns=patterns, counters=counters, kind="terminal"
    )
