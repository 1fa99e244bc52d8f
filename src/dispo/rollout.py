"""Denoising rollouts with cached behavior logits, and same-state branching.

A rollout starts from a fully masked completion and, over a fixed number
of steps, samples a token for every masked position, then commits the
scheduled number of highest-confidence sampled tokens (confidence = the
sampled token's probability; ties break to the lowest position).  One
``rollout`` call advances any number of trajectories, each from its own
prompt with its own generator, in lockstep on one token array; each comes
out as the rollout of its prompt and generator alone would give it.  A
trajectory keeps its visited completions as one ``(T+1, L)`` token array.
Every step keeps its stacked blocks: the mask positions and the
log-probability rows of all its trajectories, and each trajectory holds
read-only views of its rows in them.  So groups of alternative
continuations can later be drawn from the same state without re-running
the policy: that is what ``branch`` does, given any number of sites
(completion rows, mask positions and log-probability rows), and it
performs zero forward passes.

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
from .policy import PolicyParams, _check_prompt, _features, inverse_cdf, log_softmax, rows_context
from .sequences import MaskedSequence, Vocab, fill


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
        all, or those in the row's left-most incomplete block.  A block size
        above every masked position makes one block."""
        masked = np.asarray(masked, dtype=np.intp)
        if self.block_size is None or not masked.size or int(masked.max()) < self.block_size:
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
    """Visited completions x_1..x_T and the terminal one, and the behavior rows at each.

    Step t commits exactly the positions where row t of ``states`` differs
    from row t-1.  Entry t-1 of ``positions`` and ``logp`` is state x_t's
    mask positions and the log-softmax of its logits rows: read-only views
    of the rollout's step blocks, no activations.
    """

    prompt: MaskedSequence
    states: np.ndarray  # (T+1, L) completion tokens, read-only; the last row is terminal
    positions: tuple[np.ndarray, ...]  # length T, (m_t,) mask positions of x_t
    logp: tuple[np.ndarray, ...]  # length T, (m_t, V) behavior log-probabilities at x_t

    @property
    def n_steps(self) -> int:
        return len(self.positions)

    def state_at(self, t: int) -> np.ndarray:
        """State x_t for t in 1..T, or the terminal state at t = T+1, as its read-only
        context row (the prompt, then the completion), built on demand."""
        if not 1 <= t <= self.n_steps + 1:
            raise ContractViolation(f"step index {t} outside 1..{self.n_steps + 1}")
        row = np.concatenate([np.array(self.prompt.tokens, dtype=np.intp), self.states[t - 1]])
        row.setflags(write=False)
        return row

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
    trajectory's eligible positions by confidence.  Each step's mask
    positions and log-probabilities are kept as read-only blocks,
    so the draws and commits match separate rollouts with the same
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
    masks, logps = [], []  # per step: (N, m) positions and (N, m, V) log-probabilities
    traj = np.arange(len(rngs))[:, None]
    for step in range(1, n_steps + 1):
        # the schedule commits the same count in every trajectory, so rows align
        masked = np.nonzero(completions == mid)[1].reshape(len(rngs), -1)
        row = np.arange(masked.shape[1])
        feats = _features(arch, tokens, masked)
        fresh = [
            rows_context(params, None, tuple(masked[k].tolist()), feats=feats[k])
            for k in range(len(rngs))
        ]
        if counters is not None:
            counters.rollout_forward_passes += len(rngs)
        # the blocks keep no features: a many-prompt call would hold them all at once
        rows = np.array([ctx.rows for ctx in fresh])
        logp = log_softmax(rows)
        for block, kept in ((masked, masks), (logp, logps)):
            block.setflags(write=False)
            kept.append(block)
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
    return [Trajectory(*fields) for fields in zip(prompts, history, zip(*masks), zip(*logps))]


def branch(
    completions: np.ndarray,
    positions: Sequence[np.ndarray],
    logp: Sequence[np.ndarray],
    n_branches: int,
    rngs: Sequence[np.random.Generator],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Draw ``n_branches`` joint actions at each site from its behavior rows.

    Site ``i`` is the completion row ``completions[i]``, ``(L,)``, its
    mask positions ``positions[i]``, ``(m_i,)`` in order, and their
    behavior log-probability rows ``logp[i]``, ``(m_i, V)``: a rollout's
    ``traj.states[t-1]``, ``traj.positions[t-1]`` and ``traj.logp[t-1]``.
    ``rngs[i]`` is its generator; one generator may serve several sites,
    in turn.  Returns each site's ``(n_branches, m_i)`` actions and the
    ``(S, n_branches, L)`` completions from one ``fill``: alternative
    terminal sequences from the same state.  A site whose rows do not
    match its positions raises before any draw.  Each site draws its
    members from one ``rngs[i].random((n_branches, m_i))``, in site order,
    and the sites of one mask-set size are sampled in one stacked
    ``inverse_cdf`` call: a site gets the same actions, and its generator
    the same state, as ``n_branches`` successive ``sample_action`` calls
    on its rows.  The mask id is the rows' width ``V``, one past the
    ordinary tokens.  No policy forward passes happen here: the rows are
    computed once by the caller.
    """
    if n_branches < 1:
        raise ContractViolation("n_branches must be >= 1")
    rows = np.asarray(completions, dtype=np.intp)
    if not len(rows) == len(positions) == len(logp) == len(rngs):
        raise ContractViolation(
            f"{len(rows)} sites for {len(positions)} position sets, {len(logp)} behavior "
            f"row blocks and {len(rngs)} generators"
        )
    if not len(rows):
        return [], np.zeros((0, n_branches, rows.shape[-1]), dtype=np.intp)
    vocab = Vocab(logp[0].shape[-1])
    counts = [len(p) for p in positions]
    masked = rows == vocab.mask_id
    if (
        counts != [len(block) for block in logp]
        or counts != masked.sum(axis=1).tolist()
        or not np.array_equal(np.nonzero(masked)[1], np.concatenate(positions))
    ):
        raise ContractViolation("behavior rows must cover exactly the site's masked positions")
    uniforms = [rng.random((n_branches, m)) for m, rng in zip(counts, rngs)]
    by_size: dict[int, list[int]] = {}
    for i, m in enumerate(counts):
        by_size.setdefault(m, []).append(i)
    actions: list[np.ndarray] = [np.empty(0)] * len(rows)
    for idx in by_size.values():
        block = np.array([logp[i] for i in idx])[:, None]  # one row block per site
        for i, drawn in zip(idx, inverse_cdf(block, np.array([uniforms[i] for i in idx]))):
            actions[i] = drawn
    return actions, fill(rows, actions, vocab)
