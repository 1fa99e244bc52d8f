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

A forward (``rows_context``) returns logits rows and activations only.
Callers that hold a block of forwards normalize it with one
``log_softmax`` call; a single context derives its own ``logp`` on
first use.

Parameters are a flat float64 vector; checkpoints are the raw vector plus
a JSON sidecar describing the architecture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ContractViolation, read_json
from .sequences import Action, DiffusionState, MaskedSequence, Vocab, check_action


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
    common = dict(
        vocab=Vocab(int(d["vocab_size"])),
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


@dataclass(frozen=True)
class RowsContext:
    """One forward pass: logits rows for a set of completion positions.

    Keeps the activations backprop needs; a rollout caches the behavior
    rows of its states without them (``feats`` None), since branching reads
    only the rows.  Immutable with read-only arrays, so a cached context can
    be branched from later.  A caller that normalizes a block of forwards
    stacks their ``rows`` and makes one ``log_softmax`` call; ``logp``
    serves a caller of one forward.
    """

    positions: tuple[int, ...]
    rows: np.ndarray  # logits, (n, V)
    feats: np.ndarray | None  # (n, F); None in a rollout's cache
    hidden: np.ndarray | None  # (n, H) tanh activations, mlp only

    def __post_init__(self) -> None:
        for arr in (self.rows, self.feats, self.hidden):
            if arr is not None:
                arr.setflags(write=False)
        if self.rows.shape[0] != len(self.positions):
            raise ContractViolation("one row per position required")

    @property
    def logp(self) -> np.ndarray:
        """Log-softmax rows, (n, V), read-only: derived on first use, then kept."""
        # an instance attribute, not a field, so it stays out of ==, hash and repr
        cached = self.__dict__.get("_logp")
        if cached is None:
            cached = log_softmax(self.rows)
            cached.setflags(write=False)
            object.__setattr__(self, "_logp", cached)
        return cached


def _check_prompt(arch: Arch, prompt: MaskedSequence) -> None:
    """Require ``prompt`` to fit ``arch``: its length and its vocab."""
    if prompt.length != arch.prompt_len:
        raise ConfigurationError(
            f"prompt length {prompt.length} != architecture prompt_len {arch.prompt_len}"
        )
    if prompt.vocab != arch.vocab:
        raise ConfigurationError("state vocab differs from architecture vocab")


def _check_state(arch: Arch, state: DiffusionState) -> None:
    _check_prompt(arch, state.prompt)
    if state.completion.length != arch.completion_len:
        raise ConfigurationError(
            f"completion length {state.completion.length} != architecture completion_len "
            f"{arch.completion_len}"
        )


def state_tokens(arch: Arch, state: DiffusionState) -> np.ndarray:
    """``state``'s context, prompt then completion, as an int array (checked against ``arch``)."""
    _check_state(arch, state)
    return np.array(state.prompt.tokens + state.completion.tokens, dtype=np.intp)


def _features(arch: Arch, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Feature rows for a batch of states, one vectorized pass.

    ``tokens`` is ``(N, prompt_len + completion_len)``, one context per
    state; ``positions`` is ``(N, P)``, the completion positions to
    featurize in each state.  Returns ``(N, P, feature_dim)``.
    """
    v = arch.vocab.size
    lp, lc, w = arch.prompt_len, arch.completion_len, arch.window
    tokens = np.asarray(tokens)
    positions = np.asarray(positions, dtype=np.intp)
    n, p = positions.shape
    if tokens.shape != (n, lp + lc):
        raise ContractViolation(f"tokens of shape {tokens.shape} do not fit {n} states")
    bad = positions[(positions < 0) | (positions >= lc)]
    if bad.size:
        raise ContractViolation(f"position {bad[0]} outside completion of length {lc}")

    # token slots: each token's id is its slot (the mask id is v), and
    # window reads past either end land on the padding slot v + 1
    padded = np.full((n, lp + lc + 2 * w), v + 1, dtype=np.intp)
    padded[:, w : w + lp + lc] = tokens
    hist = np.bincount(
        (padded[:, w : w + lp] + (v + 1) * np.arange(n)[:, None]).ravel(), minlength=n * (v + 1)
    )

    # every one-hot column of a row: its position, one slot per window
    # offset, and the bias
    offsets = np.array([d for d in range(-w, w + 1) if d != 0], dtype=np.intp)
    hot = np.empty((n, p, len(offsets) + 2), dtype=np.intp)
    hot[..., 0] = positions
    hot[..., 1:-1] = padded[np.arange(n)[:, None, None], positions[..., None] + lp + w + offsets]
    hot[..., 1:-1] += lc + (v + 2) * np.arange(len(offsets))
    hot[..., -1] = arch.feature_dim - 1
    out = np.zeros((n, p, arch.feature_dim))
    out[np.arange(n)[:, None, None], np.arange(p)[:, None], hot] = 1.0
    base = lc + len(offsets) * (v + 2)
    out[:, :, base : base + v + 1] = hist.reshape(n, 1, v + 1) / lp
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
    params: PolicyParams,
    state: DiffusionState | None,
    positions: tuple[int, ...] | None = None,
    *,
    feats: np.ndarray | None = None,
) -> RowsContext:
    """Compute logits rows (and backprop activations) for ``positions``.

    Defaults to the completion's mask set.  ``feats`` passes the rows'
    features when a caller has computed them for a batch of states in one
    ``_features`` pass; ``positions`` must then be given, and ``state`` is
    not read.  One call here is one policy forward pass for accounting
    purposes; the rows are left unnormalized (see ``RowsContext.logp``).
    """
    arch = params.arch
    if feats is None:
        tokens = state_tokens(arch, state)
        positions = state.completion.mask_positions() if positions is None else positions
        positions = tuple(map(int, positions))
        feats = _features(arch, tokens[None], np.array(positions, dtype=np.intp)[None])[0]
    elif positions is None:
        raise ContractViolation("precomputed features need their positions")
    else:
        positions = tuple(map(int, positions))
    if isinstance(arch, LinearArch):
        w = params.theta.reshape(arch.vocab.size, arch.feature_dim)
        rows = feats @ w.T
        hidden = None
    else:
        w1, b1, w2, b2 = _unpack_mlp(arch, params.theta)
        hidden = np.tanh(feats @ w1.T + b1)
        rows = hidden @ w2.T + b2
    return RowsContext(positions, rows, feats, hidden)


def backprop(
    params: PolicyParams, feats: np.ndarray, hidden: np.ndarray | None, dlogits: np.ndarray
) -> np.ndarray:
    """Chain per-row logit gradients back to a flat parameter gradient.

    ``feats`` and ``hidden`` are a forward's activations (``ctx.feats``,
    ``ctx.hidden``), ``(..., n, F)`` and ``(..., n, H)``; ``dlogits`` is
    ``(..., n, V)``.  Leading batch axes give one gradient each, by
    batch-axis matmuls, computed exactly as for a single ``(n, V)`` block.
    """
    arch = params.arch
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape[-2] != feats.shape[-2] or dlogits.shape[-1] != arch.vocab.size:
        raise ContractViolation("dlogits shape must match the context's rows")
    lead = dlogits.shape[:-2]
    dlogits_t = np.swapaxes(dlogits, -1, -2)
    if isinstance(arch, LinearArch):
        return (dlogits_t @ feats).reshape(lead + (-1,))
    w1, b1, w2, b2 = _unpack_mlp(arch, params.theta)
    dw2 = dlogits_t @ hidden
    db2 = dlogits.sum(axis=-2)
    dh = dlogits @ w2
    dz = dh * (1.0 - hidden * hidden)
    dw1 = np.swapaxes(dz, -1, -2) @ feats
    db1 = dz.sum(axis=-2)
    return np.concatenate(
        [dw1.reshape(lead + (-1,)), db1, dw2.reshape(lead + (-1,)), db2], axis=-1
    )


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
    for r, (pos, tok) in enumerate(zip(ctx.positions, action)):
        lp = float(ctx.logp[r, tok])
        per_pos[pos] = lp
        total += lp
    return total, per_pos


def grad_action_logprob(params: PolicyParams, state: DiffusionState, action: Action) -> np.ndarray:
    """Exact gradient of the action log-probability w.r.t. the flat params."""
    check_action(state, action)
    ctx = rows_context(params, state)
    return backprop(params, ctx.feats, ctx.hidden, score_dlogits(np.exp(ctx.logp), action))


def score_dlogits(
    probs: np.ndarray, targets: np.ndarray | tuple[int, ...], coef: float | np.ndarray = 1.0
) -> np.ndarray:
    """Logit gradient of ``coef`` times the summed log-probability of ``targets``.

    ``probs`` are a forward's row probabilities, ``(n, V)``, and
    ``targets`` holds one token per row, in row order; every row gets
    ``coef * (onehot(target) - probs)``.  A batch ``(B, n)`` of targets
    with one ``coef`` per member gives ``(B, n, V)``, against one
    ``(n, V)`` block or one block per member, ``(B, n, V)``.  Feed the
    result to ``backprop``.
    """
    targets = np.asarray(targets, dtype=np.intp)
    n = targets.shape[-1]
    dlogits = np.zeros(targets.shape + probs.shape[-1:])
    if targets.ndim == 1:
        dlogits -= coef * probs
        dlogits[np.arange(n), targets] += coef
    else:
        coef = np.asarray(coef, dtype=np.float64).reshape(-1, 1, 1)
        dlogits -= coef * probs
        dlogits[np.arange(len(targets))[:, None], np.arange(n), targets] += coef[:, :, 0]
    return dlogits


def inverse_cdf(logp: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One token per row of the log-probability rows ``logp`` for each uniform.

    ``logp`` is ``(..., n, V)`` and ``uniforms`` broadcasts against its
    leading shape, ``(..., n)``.  The token at uniform u is the number of
    cumulative probabilities of its row at or below u, which gives the
    same token as ``rng.choice(V, p=row)`` given the same draw.
    """
    cdf = np.cumsum(np.exp(logp), axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= uniforms[..., None]).sum(axis=-1)


def sample_action(ctx: RowsContext, rng: np.random.Generator) -> Action:
    """Draw one token per row, independently, in position order.

    ``inverse_cdf`` on one uniform per row, which gives the same tokens and
    leaves the generator in the same state as ``rng.choice(V, p=row)``
    called row by row.
    """
    return tuple(inverse_cdf(ctx.logp, rng.random(len(ctx.positions))).tolist())


def greedy_action(ctx: RowsContext) -> Action:
    """Argmax token per row; ties resolve to the lowest token id."""
    return tuple(np.argmax(ctx.rows, axis=1).tolist())


def save_policy(params: PolicyParams, path: str | Path) -> None:
    """Write ``<path>`` (raw float64 vector) and ``<path stem>.json`` sidecar."""
    path = Path(path)
    params.theta.tofile(path)
    sidecar = {
        "format": "policy-f64-v1",
        "dim": params.dim,
        "arch": params.arch.descriptor(),
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_policy(path: str | Path) -> PolicyParams:
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    sidecar = read_json(sidecar_path)
    if not isinstance(sidecar, dict) or not isinstance(sidecar.get("arch"), dict):
        raise ConfigurationError(f"{sidecar_path}: expected an object with an 'arch' object")
    if sidecar.get("format") != "policy-f64-v1":
        raise ConfigurationError(f"unrecognized checkpoint format in {sidecar_path}")
    try:
        arch = arch_from_descriptor(sidecar["arch"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{sidecar_path}: bad 'arch' descriptor: {exc}") from exc
    try:
        theta = np.fromfile(path, dtype=np.float64)
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from exc
    if theta.size != sidecar.get("dim") or theta.size != arch.num_params:
        raise ConfigurationError(
            f"{path}: vector of size {theta.size} does not match sidecar dim {sidecar.get('dim')}"
        )
    return PolicyParams(theta, arch)
