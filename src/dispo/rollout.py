"""Denoising rollouts with cached behavior logits, and same-state branching.

A rollout starts from a fully masked completion and, over a fixed number
of steps, samples a token for every masked position, then commits the
scheduled number of highest-confidence sampled tokens (confidence = the
sampled token's probability; ties break to the lowest position, then the
lowest token id).  A trajectory keeps its visited completions as one
``(T+1, L)`` token array.  The full logits grid of every visited state is
cached, so groups of alternative continuations can later be drawn from the
same state without re-running the policy: that is what ``branch`` does,
given a state and its behavior rows, and it performs zero forward passes.

Schedules must empty the completion in exactly the configured number of
steps; an optional block size restricts commits to the left-most
incomplete block (semi-autoregressive order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counters import OpCounters
from .errors import ConfigurationError, ContractViolation
from .policy import (
    PolicyParams,
    RowsContext,
    _features,
    greedy_action,
    inverse_cdf,
    rows_context,
    sample_action,
    state_tokens,
)
from .sequences import DiffusionState, MaskedSequence, fill


@dataclass(frozen=True)
class UnmaskSchedule:
    """Commit ``tokens_per_step`` tokens per step, optionally block-restricted."""

    tokens_per_step: int
    block_size: int | None = None

    def __post_init__(self) -> None:
        if self.tokens_per_step < 1:
            raise ConfigurationError("tokens_per_step must be >= 1")
        if self.block_size is not None and self.block_size < 1:
            raise ConfigurationError("block_size must be >= 1 when given")

    def eligible(self, masked: tuple[int, ...]) -> tuple[int, ...]:
        """Masked positions eligible for commit: all, or the left-most incomplete block."""
        if self.block_size is None or not masked:
            return masked
        first_block = min(masked) // self.block_size
        lo, hi = first_block * self.block_size, (first_block + 1) * self.block_size
        return tuple(p for p in masked if lo <= p < hi)

    def mask_counts(self, length: int, n_steps: int) -> list[int]:
        """Simulated |mask| per state x_1..x_{n_steps} plus the terminal 0.

        Raises if the schedule cannot empty ``length`` tokens in exactly
        ``n_steps`` steps.  The count sequence is deterministic: commits
        never depend on which tokens were sampled.
        """
        if length < 1 or n_steps < 1:
            raise ConfigurationError("length and n_steps must be >= 1")
        masked = list(range(length))
        counts = [length]
        for t in range(n_steps):
            if not masked:
                raise ConfigurationError(
                    f"schedule empties {length} tokens before step {t + 1} of {n_steps}; "
                    "mask sets must strictly decrease through the final step"
                )
            elig = self.eligible(tuple(masked))
            commit = min(self.tokens_per_step, len(elig))
            for p in elig[:commit]:
                masked.remove(p)
            counts.append(len(masked))
        if masked:
            raise ConfigurationError(
                f"schedule leaves {len(masked)} of {length} tokens masked after {n_steps} steps"
            )
        return counts

    def validate(self, length: int, n_steps: int) -> None:
        self.mask_counts(length, n_steps)


@dataclass(frozen=True)
class Trajectory:
    """Visited completions x_1..x_T and the terminal one, and cached logits.

    Step t commits exactly the positions where row t of ``states`` differs
    from row t-1.
    """

    prompt: MaskedSequence
    states: np.ndarray  # (T+1, L) completion tokens, read-only; the last row is terminal
    cache: tuple[RowsContext, ...]  # length T, behavior logits at each state

    @property
    def n_steps(self) -> int:
        return len(self.cache)

    def state_at(self, t: int) -> DiffusionState:
        """State x_t for t in 1..T, or the terminal state at t = T+1, built on demand."""
        if not 1 <= t <= self.n_steps + 1:
            raise ContractViolation(f"step index {t} outside 1..{self.n_steps + 1}")
        return DiffusionState(self.prompt, MaskedSequence(self.states[t - 1], self.prompt.vocab))

    def cache_at(self, t: int) -> RowsContext:
        if not 1 <= t <= self.n_steps:
            raise ContractViolation(f"no cached logits for step {t}; valid range 1..{self.n_steps}")
        return self.cache[t - 1]

    def final_completion(self) -> np.ndarray:
        return self.states[-1]


def rollout(
    params: PolicyParams,
    prompt: MaskedSequence,
    n_steps: int,
    schedule: UnmaskSchedule,
    rngs: Sequence[np.random.Generator],
    *,
    counters: OpCounters | None = None,
    greedy: bool = False,
) -> list[Trajectory]:
    """Run one denoising trajectory per generator under the behavior policy ``params``.

    The trajectories advance in lockstep on one ``(K, prompt_len +
    completion_len)`` token array: every step reads the mask positions off
    it, computes the features of all their states in one pass, then runs
    one forward per state.  Each samples a token for every masked position
    from its own generator (all sampled tokens inform confidence; only the
    committed subset persists), caches every logits grid, and comes back
    whole, so the draws match separate rollouts with the same generators.
    ``greedy=True`` takes the argmax token per position instead of
    sampling, which makes the rollout deterministic.
    """
    if not rngs:
        raise ContractViolation("rollout needs one generator per trajectory")
    arch = params.arch
    schedule.validate(arch.completion_len, n_steps)
    start = DiffusionState(prompt, MaskedSequence.masked(arch.completion_len, prompt.vocab))
    tokens = np.tile(state_tokens(arch, start), (len(rngs), 1))
    completions = tokens[:, arch.prompt_len :]  # a view: commits land in ``tokens``
    history = np.repeat(completions[:, None], n_steps + 1, axis=1)  # (K, T+1, L)
    cache: list[list[RowsContext]] = [[] for _ in rngs]
    for step in range(1, n_steps + 1):
        # the schedule commits the same count in every trajectory, so rows align
        masked = np.nonzero(completions == prompt.vocab.mask_id)[1].reshape(len(rngs), -1)
        feats = _features(arch, tokens, masked)
        for k, rng in enumerate(rngs):
            ctx = rows_context(params, None, tuple(masked[k].tolist()), feats=feats[k])
            if counters is not None:
                counters.rollout_forward_passes += 1
            cache[k].append(ctx)
            action = greedy_action(ctx) if greedy else sample_action(ctx, rng)
            probs = np.exp(ctx.logp)
            eligible = set(schedule.eligible(ctx.positions))
            scored = sorted(
                (-probs[r, tok], pos, tok)
                for r, (pos, tok) in enumerate(zip(ctx.positions, action))
                if pos in eligible
            )
            for _, pos, tok in scored[: schedule.tokens_per_step]:
                completions[k, pos] = tok
        history[:, step] = completions
    assert not (completions == prompt.vocab.mask_id).any(), "schedule validation empties the mask"
    history.setflags(write=False)
    return [Trajectory(prompt, h, tuple(c)) for h, c in zip(history, cache)]


def branch(
    state: DiffusionState, ctx: RowsContext, n_branches: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_branches`` joint actions at ``state`` from its behavior rows ``ctx``.

    Returns the ``(n_branches, m)`` actions, one token per position of the
    state's mask set, and their ``(n_branches, L)`` completions from
    ``fill``: alternative terminal sequences from the same state.  All
    members come from one ``rng.random((n_branches, m))`` through
    ``inverse_cdf``: the same actions, and the same generator state, as
    ``n_branches`` successive ``sample_action`` calls.  No policy forward
    passes happen here: the rows are computed once by the caller, such as
    a rollout's cache (``traj.state_at(t), traj.cache_at(t)``).
    """
    if n_branches < 1:
        raise ContractViolation("n_branches must be >= 1")
    if ctx.positions != state.completion.mask_positions():
        raise ContractViolation("behavior rows must cover exactly the state's masked positions")
    actions = inverse_cdf(ctx, rng.random((n_branches, len(ctx.positions))))
    return actions, fill(state, actions)
