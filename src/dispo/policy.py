"""Featurized toy policies over masked completion positions.

A policy maps a denoising state to one independent categorical
distribution per requested completion position, through logits computed
from a hand-built feature vector.  Two parameterizations are provided: a
linear softmax over the features (the default; gradients are exact outer
products) and a small one-hidden-layer tanh network with hand-derived
backprop, kept around to confirm results do not hinge on linearity.

Feature vector for completion position i:

  * one-hot of i over the completion length,
  * for each window offset d in [-w..-1, 1..w]: a (V+2)-slot one-hot of
    the token at context position i+d, where the context is the prompt
    and completion concatenated (V ordinary slots, one mask slot, one
    out-of-bounds slot),
  * a (V+1)-bucket histogram of the prompt (ordinary-token counts plus a
    masked-position count), normalized by the prompt length,
  * a constant bias slot.

A position's own token never enters its features, so the row at i is a
valid predictive distribution whether i is masked or visible; corrupted
prompts flow through the window and histogram slots unchanged.

Parameters are a flat float64 vector; checkpoints are the raw vector plus
a JSON sidecar describing the architecture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .sequences import Action, DiffusionState, Vocab, check_action


@dataclass(frozen=True)
class Arch:
    """Shape shared by every parameterization: vocab, lengths, window radius."""

    vocab: Vocab
    prompt_len: int
    completion_len: int
    window: int = 2

    def __post_init__(self) -> None:
        if self.prompt_len < 1 or self.completion_len < 1:
            raise ConfigurationError("prompt and completion lengths must be >= 1")
        if self.window < 0:
            raise ConfigurationError("window radius must be >= 0")

    @property
    def feature_dim(self) -> int:
        v = self.vocab.size
        return self.completion_len + 2 * self.window * (v + 2) + (v + 1) + 1

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "vocab_size": self.vocab.size,
            "mask_id": self.vocab.mask_id,
            "prompt_len": self.prompt_len,
            "completion_len": self.completion_len,
            "window": self.window,
        }


@dataclass(frozen=True)
class LinearArch(Arch):
    """Logits = W @ features, W of shape (vocab, feature_dim)."""

    kind = "linear"

    @property
    def num_params(self) -> int:
        return self.vocab.size * self.feature_dim


@dataclass(frozen=True)
class MlpArch(Arch):
    """Logits = W2 @ tanh(W1 @ features + b1) + b2."""

    hidden: int = 16

    kind = "mlp"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hidden < 1:
            raise ConfigurationError("hidden width must be >= 1")

    @property
    def num_params(self) -> int:
        f, h, v = self.feature_dim, self.hidden, self.vocab.size
        return h * f + h + v * h + v

    def descriptor(self) -> dict:
        return {**super().descriptor(), "hidden": self.hidden}


def arch_from_descriptor(d: dict) -> Arch:
    vocab = Vocab(int(d["vocab_size"]), int(d["mask_id"]))
    common = dict(
        vocab=vocab,
        prompt_len=int(d["prompt_len"]),
        completion_len=int(d["completion_len"]),
        window=int(d["window"]),
    )
    if d["kind"] == "linear":
        return LinearArch(**common)
    if d["kind"] == "mlp":
        return MlpArch(hidden=int(d["hidden"]), **common)
    raise ConfigurationError(f"unknown architecture kind {d['kind']!r}")


@dataclass(frozen=True)
class PolicyParams:
    """A flat float64 parameter vector bound to its architecture."""

    theta: np.ndarray
    arch: Arch

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64).copy()
        if theta.ndim != 1 or theta.size != self.arch.num_params:
            raise ConfigurationError(
                f"parameter vector of size {theta.size} does not fit architecture "
                f"(expects {self.arch.num_params})"
            )
        if not np.all(np.isfinite(theta)):
            raise ContractViolation("parameter vector contains non-finite values")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.theta.size

    def replace_theta(self, theta: np.ndarray) -> "PolicyParams":
        return PolicyParams(theta, self.arch)


def init_params(arch: Arch, rng: np.random.Generator | None = None, scale: float = 0.0) -> PolicyParams:
    """Fresh parameters: zeros (uniform policy) or scaled normal draws."""
    if scale == 0.0:
        return PolicyParams(np.zeros(arch.num_params), arch)
    if rng is None:
        raise ContractViolation("random init needs a generator")
    return PolicyParams(rng.normal(0.0, scale, arch.num_params), arch)


def log_softmax(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.size == 0:
        return rows.copy()
    m = rows.max(axis=-1, keepdims=True)
    shifted = rows - m
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(rows: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(rows))


@dataclass(frozen=True)
class RowsContext:
    """One forward pass: logits rows for a set of completion positions.

    Keeps the activations backprop needs.  Immutable with read-only
    arrays, so a rollout can cache it and branch from it later.
    """

    positions: tuple[int, ...]
    rows: np.ndarray  # logits, (n, V)
    logp: np.ndarray  # log-softmax rows, (n, V)
    feats: np.ndarray  # (n, F)
    hidden: np.ndarray | None  # (n, H) tanh activations, mlp only

    def __post_init__(self) -> None:
        for arr in (self.rows, self.logp, self.feats, self.hidden):
            if arr is not None:
                arr.setflags(write=False)
        if self.rows.shape[0] != len(self.positions):
            raise ContractViolation("one row per position required")

    def row_index(self, pos: int) -> int:
        return self.positions.index(pos)


def _check_state(arch: Arch, state: DiffusionState) -> None:
    if state.prompt.length != arch.prompt_len:
        raise ConfigurationError(
            f"prompt length {state.prompt.length} != architecture prompt_len {arch.prompt_len}"
        )
    if state.completion.length != arch.completion_len:
        raise ConfigurationError(
            f"completion length {state.completion.length} != architecture completion_len "
            f"{arch.completion_len}"
        )
    if state.vocab != arch.vocab:
        raise ConfigurationError("state vocab differs from architecture vocab")


def _features(arch: Arch, state: DiffusionState, positions: tuple[int, ...]) -> np.ndarray:
    v = arch.vocab.size
    mask_id = arch.vocab.mask_id
    lp, lc, w = arch.prompt_len, arch.completion_len, arch.window
    ctx = state.prompt.tokens + state.completion.tokens
    offsets = [d for d in range(-w, w + 1) if d != 0]

    hist = np.zeros(v + 1)
    for tok in state.prompt.tokens:
        hist[tok if tok != mask_id else v] += 1.0
    hist /= lp

    out = np.zeros((len(positions), arch.feature_dim))
    for r, i in enumerate(positions):
        if not 0 <= i < lc:
            raise ContractViolation(f"position {i} outside completion of length {lc}")
        row = out[r]
        row[i] = 1.0
        base = lc
        j = lp + i
        for d in offsets:
            p = j + d
            if 0 <= p < len(ctx):
                tok = ctx[p]
                slot = tok if tok != mask_id else v
            else:
                slot = v + 1
            row[base + slot] = 1.0
            base += v + 2
        row[base : base + v + 1] = hist
        row[-1] = 1.0
    return out


def _unpack_mlp(arch: MlpArch, theta: np.ndarray):
    f, h, v = arch.feature_dim, arch.hidden, arch.vocab.size
    i = 0
    w1 = theta[i : i + h * f].reshape(h, f); i += h * f
    b1 = theta[i : i + h]; i += h
    w2 = theta[i : i + v * h].reshape(v, h); i += v * h
    b2 = theta[i : i + v]
    return w1, b1, w2, b2


def rows_context(
    params: PolicyParams, state: DiffusionState, positions: tuple[int, ...] | None = None
) -> RowsContext:
    """Compute logits rows (and backprop activations) for ``positions``.

    Defaults to the completion's mask set.  One call here is one policy
    forward pass for accounting purposes.
    """
    arch = params.arch
    _check_state(arch, state)
    if positions is None:
        positions = state.completion.mask_positions()
    else:
        positions = tuple(int(p) for p in positions)
    feats = _features(arch, state, positions)
    if isinstance(arch, LinearArch):
        w = params.theta.reshape(arch.vocab.size, arch.feature_dim)
        rows = feats @ w.T
        hidden = None
    else:
        w1, b1, w2, b2 = _unpack_mlp(arch, params.theta)
        hidden = np.tanh(feats @ w1.T + b1)
        rows = hidden @ w2.T + b2
    return RowsContext(positions, rows, log_softmax(rows), feats, hidden)


def backprop(params: PolicyParams, ctx: RowsContext, dlogits: np.ndarray) -> np.ndarray:
    """Chain per-row logit gradients back to a flat parameter gradient."""
    arch = params.arch
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != ctx.rows.shape:
        raise ContractViolation("dlogits shape must match the context's rows")
    if isinstance(arch, LinearArch):
        return (dlogits.T @ ctx.feats).ravel()
    w1, b1, w2, b2 = _unpack_mlp(arch, params.theta)
    h = ctx.hidden
    dw2 = dlogits.T @ h
    db2 = dlogits.sum(axis=0)
    dh = dlogits @ w2
    dz = dh * (1.0 - h * h)
    dw1 = dz.T @ ctx.feats
    db1 = dz.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def action_logprob(
    params: PolicyParams, state: DiffusionState, action: Action
) -> tuple[float, dict[int, float]]:
    """Joint log-probability of a fill action, with per-position terms.

    The joint factorizes over masked positions; total <= 0 always.
    """
    check_action(state, action)
    ctx = rows_context(params, state)
    per_pos: dict[int, float] = {}
    total = 0.0
    for r, pos in enumerate(ctx.positions):
        lp = float(ctx.logp[r, action[pos]])
        per_pos[pos] = lp
        total += lp
    return total, per_pos


def grad_action_logprob(
    params: PolicyParams,
    state: DiffusionState,
    action: Action,
    positions: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Exact gradient of the action log-probability w.r.t. the flat params.

    ``positions`` restricts the sum to a subset of the mask set (used for
    masked-subset estimators); defaults to the full mask set.
    """
    check_action(state, action)
    masked = state.completion.mask_positions()
    if positions is None:
        positions = masked
    else:
        positions = tuple(int(p) for p in positions)
        if not set(positions) <= set(masked):
            raise ContractViolation("positions must be a subset of the mask set")
    ctx = rows_context(params, state)
    dlogits = score_dlogits(ctx, positions, tuple(action[p] for p in positions))
    return backprop(params, ctx, dlogits)


def score_dlogits(
    ctx: RowsContext, positions: tuple[int, ...], targets: tuple[int, ...], coef: float = 1.0
) -> np.ndarray:
    """Logit gradient of ``coef`` times the summed log-probability of ``targets``.

    Each scored row gets ``coef * (onehot(target) - probs)``; unscored
    rows stay zero.  Feed the result to ``backprop``.
    """
    dlogits = np.zeros_like(ctx.rows)
    probs = np.exp(ctx.logp)
    for pos, tok in zip(positions, targets):
        r = ctx.row_index(pos)
        dlogits[r] -= coef * probs[r]
        dlogits[r, tok] += coef
    return dlogits


def sample_action(ctx: RowsContext, rng: np.random.Generator) -> Action:
    """Draw one token per row, independently, in position order."""
    probs = np.exp(ctx.logp)
    pairs = []
    for r, pos in enumerate(ctx.positions):
        tok = int(rng.choice(probs.shape[1], p=probs[r]))
        pairs.append((pos, tok))
    return Action(tuple(pairs))


def greedy_action(ctx: RowsContext) -> Action:
    """Argmax token per row; ties resolve to the lowest token id."""
    pairs = []
    for r, pos in enumerate(ctx.positions):
        pairs.append((pos, int(np.argmax(ctx.rows[r]))))
    return Action(tuple(pairs))


def save_policy(params: PolicyParams, path: str | Path, extra: dict | None = None) -> None:
    """Write ``<path>`` (raw float64 vector) and ``<path stem>.json`` sidecar."""
    path = Path(path)
    params.theta.tofile(path)
    sidecar = {
        "format": "policy-f64-v1",
        "dim": params.dim,
        "arch": params.arch.descriptor(),
    }
    if extra:
        sidecar.update(extra)
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_policy(path: str | Path) -> PolicyParams:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    if sidecar.get("format") != "policy-f64-v1":
        raise ConfigurationError(f"unrecognized checkpoint format in {path.with_suffix('.json')}")
    arch = arch_from_descriptor(sidecar["arch"])
    theta = np.fromfile(path, dtype=np.float64)
    if theta.size != sidecar["dim"] or theta.size != arch.num_params:
        raise ConfigurationError(
            f"checkpoint vector of size {theta.size} does not match sidecar dim {sidecar['dim']}"
        )
    return PolicyParams(theta, arch)
