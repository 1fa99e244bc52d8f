"""Policy networks: logits, log-probabilities, exact gradients, sampling."""

import math

import numpy as np
import pytest

from dispo.errors import ConfigurationError, ContractViolation
from dispo.objective import LossConfig, step_loss
from dispo.policy import (
    LinearArch,
    MlpArch,
    action_logprob,
    arch_from_descriptor,
    check_state,
    init_params,
    load_policy,
    mask_positions,
    rows_context,
    sample_action,
    save_policy,
)
from dispo.sequences import Vocab, enumerate_actions
from dispo.streams import stream
from dispo.surrogate import SurrogateConfig, state_surrogate_grad, state_surrogate_logprob
from dispo.verify import build_state_tables

# corruption off, one pattern: the surrogate gradient is the exact action gradient
EXACT = SurrogateConfig(n_mc=1, ratio_law="zero")


def make_state(vocab, prompt_len, completion_len, rng, n_masked=None):
    """Random state row with a random visible prompt and ``n_masked`` mask slots."""
    v = vocab.size
    prompt = [int(t) for t in rng.integers(0, v, prompt_len)]
    toks = [int(t) for t in rng.integers(0, v, completion_len)]
    if n_masked is None:
        n_masked = int(rng.integers(1, completion_len + 1))
    for p in rng.choice(completion_len, size=n_masked, replace=False):
        toks[p] = vocab.mask_id
    return np.array(prompt + toks)


def random_action(arch, state, rng):
    v = arch.vocab.size
    return tuple(int(rng.integers(0, v)) for _ in mask_positions(arch, state))


def test_zero_params_are_uniform():
    vocab = Vocab(3)
    arch = LinearArch(vocab, prompt_len=2, completion_len=4)
    params = init_params(arch)
    state = np.array([0, 1, 2, vocab.mask_id, 0, vocab.mask_id])
    total, per_pos = action_logprob(params, state, (0, 2))
    assert total == pytest.approx(2 * math.log(1 / 3), abs=1e-12)
    assert set(per_pos) == {1, 3}
    for lp in per_pos.values():
        assert lp == pytest.approx(math.log(1 / 3), abs=1e-12)


def test_action_logprob_rejects_malformed_actions():
    vocab = Vocab(3)
    params = init_params(LinearArch(vocab, prompt_len=2, completion_len=4))
    state = np.array([0, 1, 2, vocab.mask_id, 0, vocab.mask_id])
    with pytest.raises(ContractViolation, match="3 tokens for a mask set of 2"):
        action_logprob(params, state, (0, 2, 1))
    with pytest.raises(ContractViolation, match="token 3 is not an ordinary"):
        action_logprob(params, state, (0, vocab.mask_id))


def test_large_bias_saturates_one_token():
    # the last feature is a constant bias, so one giant weight pins the row
    vocab = Vocab(3)
    arch = LinearArch(vocab, prompt_len=2, completion_len=3)
    w = np.zeros((vocab.size, arch.feature_dim))
    w[1, -1] = 1e3
    params = init_params(arch).replace_theta(w.ravel())
    state = np.array([0, 0] + [vocab.mask_id] * 3)
    total, _ = action_logprob(params, state, (1, 1, 1))
    assert abs(total) < 1e-9
    probs = np.exp(rows_context(params, state).logp)
    assert np.all(probs[:, 1] > 1.0 - 1e-9)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_rows_normalize(kind):
    vocab = Vocab(4)
    if kind == "linear":
        arch = LinearArch(vocab, prompt_len=3, completion_len=5)
    else:
        arch = MlpArch(vocab, prompt_len=3, completion_len=5, hidden=7)
    rng = stream(5, "normalize", kind)
    params = init_params(arch, rng, scale=0.7)
    state = make_state(vocab, 3, 5, rng)
    ctx = rows_context(params, state)
    sums = np.exp(ctx.logp).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_score_identity():
    # sum_a pi(a) grad log pi(a) = 0 over the full joint action space
    vocab = Vocab(3)
    arch = LinearArch(vocab, prompt_len=2, completion_len=3)
    rng = stream(6, "score")
    params = init_params(arch, rng, scale=0.5)
    state = make_state(vocab, 2, 3, rng, n_masked=2)
    acc = np.zeros(params.dim)
    total_prob = 0.0
    for action in enumerate_actions(2, vocab):
        lp, _ = action_logprob(params, state, action)
        p = math.exp(lp)
        acc += p * state_surrogate_grad(params, state, action, EXACT)
        total_prob += p
    assert total_prob == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(acc)) < 1e-10


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_gradient_matches_finite_differences(kind):
    vocab = Vocab(3)
    rng = stream(7, "fd", kind)
    h = 1e-5
    for _ in range(6):
        if kind == "linear":
            arch = LinearArch(vocab, prompt_len=2, completion_len=4, window=1)
        else:
            arch = MlpArch(vocab, prompt_len=2, completion_len=4, window=1, hidden=5)
        params = init_params(arch, rng, scale=0.6)
        state = make_state(vocab, 2, 4, rng)
        action = random_action(arch, state, rng)
        grad = state_surrogate_grad(params, state, action, EXACT)
        fd = np.zeros_like(grad)
        theta = params.theta
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            hi, _ = action_logprob(params.replace_theta(theta + e), state, action)
            lo, _ = action_logprob(params.replace_theta(theta - e), state, action)
            fd[i] = (hi - lo) / (2 * h)
        denom = max(np.linalg.norm(grad), 1e-12)
        assert np.linalg.norm(fd - grad) / denom < 1e-5


def test_sampling_frequencies_match_probabilities():
    vocab = Vocab(3)
    arch = LinearArch(vocab, prompt_len=2, completion_len=2)
    rng = stream(9, "freq")
    params = init_params(arch, rng, scale=0.8)
    state = make_state(vocab, 2, 2, rng, n_masked=1)
    ctx = rows_context(params, state)
    probs = np.exp(ctx.logp)[0]
    n = 20_000
    counts = np.zeros(vocab.size)
    for _ in range(n):
        (tok,) = sample_action(ctx, rng)  # one masked position
        counts[tok] += 1
    freq = counts / n
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(freq - probs) <= 4 * sigma + 1e-9)


def test_greedy_breaks_ties_toward_low_token_ids():
    vocab = Vocab(4)
    arch = LinearArch(vocab, prompt_len=2, completion_len=3)
    params = init_params(arch)
    state = np.array([1, 2] + [vocab.mask_id] * 3)
    action = np.argmax(rows_context(params, state).rows, axis=1)
    assert action.tolist() == [0, 0, 0]


def test_save_load_round_trip(tmp_path):
    vocab = Vocab(4)
    arch = MlpArch(vocab, prompt_len=3, completion_len=4, hidden=5)
    rng = stream(10, "io")
    params = init_params(arch, rng, scale=0.3)
    path = tmp_path / "policy.bin"
    save_policy(params, path)
    loaded = load_policy(path)
    assert np.array_equal(loaded.theta, params.theta)
    assert loaded.arch == params.arch


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_descriptor_round_trip(kind):
    vocab = Vocab(3)
    if kind == "linear":
        arch = LinearArch(vocab, prompt_len=2, completion_len=6, window=1)
    else:
        arch = MlpArch(vocab, prompt_len=2, completion_len=6, window=1, hidden=9)
    assert arch_from_descriptor(arch.descriptor()) == arch
    with pytest.raises(ConfigurationError):
        arch_from_descriptor({**arch.descriptor(), "kind": "transformer"})


def test_state_shape_checks():
    vocab = Vocab(3)
    arch = LinearArch(vocab, prompt_len=2, completion_len=3)
    params = init_params(arch)
    bad = np.array([0, 1, 2] + [vocab.mask_id] * 3)  # a prompt one token too long
    with pytest.raises(ConfigurationError):
        rows_context(params, bad)
    with pytest.raises(ContractViolation):
        init_params(arch, rng=None, scale=0.5)


# every entry that takes a state row, called at the row ``state``
ROW_ENTRIES = {
    "rows_context": lambda params, state: rows_context(params, state),
    "action_logprob": lambda params, state: action_logprob(params, state, (0, 1)),
    "step_loss": lambda params, state: step_loss(
        state, [((0, 1), 1.0), ((1, 0), 0.0)], params, params, LossConfig(), EXACT
    ),
    "state_surrogate_logprob": lambda params, state: state_surrogate_logprob(
        params, state, (0, 1), EXACT
    ),
    "build_state_tables": lambda params, state: build_state_tables(
        params, params, state, lambda done: np.zeros(len(done)), EXACT
    ),
}


@pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
def test_state_row_entries_reject_malformed_rows(entry):
    vocab = Vocab(3)
    params = init_params(LinearArch(vocab, prompt_len=2, completion_len=3))
    mid = vocab.mask_id
    good = np.array([0, 1, 2, mid, mid])
    call = ROW_ENTRIES[entry]
    call(params, good)  # the well-formed row passes
    with pytest.raises(ConfigurationError, match=r"expected \(5,\)"):
        call(params, good[:-1])
    with pytest.raises(ContractViolation, match="integer tokens"):
        call(params, good.astype(np.float64))
    for tok in (-1, mid + 1):
        bad = good.copy()
        bad[1] = tok
        with pytest.raises(ContractViolation, match=f"token {tok} outside vocab"):
            call(params, bad)


def test_check_state_returns_a_read_only_view_of_its_row():
    vocab = Vocab(3)
    arch = LinearArch(vocab, prompt_len=2, completion_len=3)
    state = np.array([0, 1, 2, vocab.mask_id, 0], dtype=np.intp)
    row = check_state(arch, state)
    assert np.array_equal(row, state) and row.dtype == np.intp
    assert np.shares_memory(row, state)  # a view, not a copy
    assert not row.flags.writeable and state.flags.writeable
    assert mask_positions(arch, row) == (1,)
    mid = vocab.mask_id
    for completion, masked in (((mid, 2, mid), (0, 2)), ((0, 2, 1), ()), ((mid,) * 3, (0, 1, 2))):
        assert mask_positions(arch, check_state(arch, (2, 2) + completion)) == masked
