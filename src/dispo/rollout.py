"""Denoising rollouts with cached behavior logits, and same-state branching.

A rollout starts from a fully masked completion and, over a fixed number
of steps, samples a token for every masked position, then commits the
scheduled number of highest-confidence sampled tokens (confidence = the
sampled token's probability; ties break to the lowest position).  One
``rollout`` call advances any number of trajectories, each from its own
prompt with its own generator, in lockstep on one token array; each comes
out as the rollout of its prompt and generator alone would give it.  A
trajectory keeps its visited completions as one ``(T+1, L)`` token array.
The full logits grid of every visited state is cached, so groups of
alternative continuations can later be drawn from the same state without
re-running the policy: that is what ``branch`` does, given a state and its
behavior rows, and it performs zero forward passes.

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
    _check_prompt,
    _features,
    inverse_cdf,
    log_softmax,
    rows_context,
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

    def eligible_mask(self, masked: np.ndarray) -> np.ndarray:
        """Which masked positions may commit, per row of ``masked``, ``(..., m)``:
        all, or those in the row's left-most incomplete block."""
        masked = np.asarray(masked, dtype=np.intp)
        if self.block_size is None or not masked.size:
            return np.ones(masked.shape, dtype=bool)
        blocks = masked // self.block_size
        return blocks == blocks.min(axis=-1, keepdims=True)

    def eligible(self, masked: tuple[int, ...]) -> tuple[int, ...]:
        """Masked positions eligible for commit: all, or the left-most incomplete block."""
        return tuple(p for p, ok in zip(masked, self.eligible_mask(masked).tolist()) if ok)

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
    cache: tuple[RowsContext, ...]  # length T, behavior logits at each state, no activations

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
    prompts: Sequence[MaskedSequence],
    n_steps: int,
    schedule: UnmaskSchedule,
    rngs: Sequence[np.random.Generator],
    *,
    counters: OpCounters | None = None,
    greedy: bool = False,
) -> list[Trajectory]:
    """Run one denoising trajectory per generator under the behavior policy ``params``.

    Trajectory k starts from ``prompts[k]`` with a fully masked
    completion.  The trajectories advance in lockstep on one ``(N,
    prompt_len + completion_len)`` token array: every step reads the mask
    positions off it, computes the features of all their states in one
    pass, runs one forward per state and normalizes the stacked rows with
    one ``log_softmax``.  Each trajectory samples a token for every masked
    position from its own generator (all sampled tokens inform
    confidence; only the committed subset persists), in one stacked
    ``inverse_cdf`` draw, and one stable argsort per step ranks every
    trajectory's eligible positions by confidence.  Every logits grid is
    cached, so the draws and commits match separate rollouts with the same
    generators.  ``greedy=True`` takes the argmax token per position
    instead of sampling, which makes the rollout deterministic.
    """
    if not rngs:
        raise ContractViolation("rollout needs one generator per trajectory")
    if len(prompts) != len(rngs):
        raise ContractViolation(f"{len(prompts)} prompts for {len(rngs)} generators")
    arch = params.arch
    for prompt in prompts:
        _check_prompt(arch, prompt)
    schedule.validate(arch.completion_len, n_steps)
    mid = arch.vocab.mask_id
    tokens = np.array([p.tokens + (mid,) * arch.completion_len for p in prompts], dtype=np.intp)
    completions = tokens[:, arch.prompt_len :]  # a view: commits land in ``tokens``
    history = np.repeat(completions[:, None], n_steps + 1, axis=1)  # (N, T+1, L)
    cache: list[list[RowsContext]] = [[] for _ in rngs]
    traj = np.arange(len(rngs))[:, None]
    for step in range(1, n_steps + 1):
        # the schedule commits the same count in every trajectory, so rows align
        masked = np.nonzero(completions == mid)[1].reshape(len(rngs), -1)
        row = np.arange(masked.shape[1])
        feats = _features(arch, tokens, masked)
        for k, ctxs in enumerate(cache):
            ctx = rows_context(params, None, tuple(masked[k].tolist()), feats=feats[k])
            # the cache keeps the rows only: with every trajectory's features
            # held to the end, a many-prompt call would hold them all at once
            ctxs.append(RowsContext(ctx.positions, ctx.rows, None, None))
        if counters is not None:
            counters.rollout_forward_passes += len(rngs)
        rows = np.array([ctxs[-1].rows for ctxs in cache])
        logp = log_softmax(rows)
        if greedy:
            actions = np.argmax(rows, axis=-1)
        else:
            actions = inverse_cdf(logp, np.array([rng.random(len(row)) for rng in rngs]))
        confidence = np.exp(logp[traj, row, actions])
        eligible = schedule.eligible_mask(masked)
        # eligible first, then by falling confidence (a NaN after every number),
        # then by position: each trajectory commits its first ``commit`` ranks
        order = np.lexsort((-confidence, ~eligible))
        commit = np.minimum(schedule.tokens_per_step, eligible.sum(axis=1))
        chosen = np.zeros_like(eligible)
        chosen[traj, order] = row < commit[:, None]
        completions[traj, masked] = np.where(chosen, actions, mid)
        history[:, step] = completions
    assert not (completions == mid).any(), "schedule validation empties the mask"
    history.setflags(write=False)
    return [Trajectory(p, h, tuple(c)) for p, h, c in zip(prompts, history, cache)]


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
    actions = inverse_cdf(ctx.logp, rng.random((n_branches, len(ctx.positions))))
    return actions, fill(state, actions)
