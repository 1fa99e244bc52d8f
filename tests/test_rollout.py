"""Denoising rollouts, unmasking schedules, cached-logit branching."""

import importlib

import numpy as np
import pytest

rollout_mod = importlib.import_module("dispo.rollout")
from dispo.counters import OpCounters
from dispo.errors import ConfigurationError, ContractViolation
from dispo.policy import LinearArch, init_params, log_softmax, mask_positions, rows_context
from dispo.rollout import UnmaskSchedule, branch, rollout
from dispo.sequences import MaskedSequence, Vocab
from dispo.streams import stream

VOCAB = Vocab(3)
ARCH = LinearArch(VOCAB, prompt_len=2, completion_len=4, window=1)
PROMPT = MaskedSequence((0, 2), VOCAB)


def random_params(seed, scale=0.5):
    return init_params(ARCH, stream(seed, "rollout-params"), scale=scale)


def branch_at(sites, n_branches, rngs):
    """``branch`` at (trajectory, step t) sites, from the rows the rollout kept at x_t."""
    return branch(
        np.array([traj.states[t - 1] for traj, t in sites]),
        [traj.positions[t - 1] for traj, t in sites],
        [traj.logp[t - 1] for traj, t in sites],
        n_branches,
        rngs,
    )


def commits(traj, t):
    """Step t's commits as ((pos, token), ...) by position: where row t differs from row t-1."""
    before, after = traj.states[t - 1], traj.states[t]
    return tuple((pos, int(after[pos])) for pos in np.flatnonzero(before != after).tolist())


def test_schedule_mask_counts():
    assert UnmaskSchedule(4).mask_counts(4, 1) == [4, 0]
    assert UnmaskSchedule(2).mask_counts(4, 2) == [4, 2, 0]
    assert UnmaskSchedule(1).mask_counts(3, 3) == [3, 2, 1, 0]
    assert UnmaskSchedule(3).mask_counts(4, 2) == [4, 1, 0]


def test_schedule_must_fit_exactly():
    with pytest.raises(ConfigurationError):
        UnmaskSchedule(2).mask_counts(4, 3)  # empty before the last step
    with pytest.raises(ConfigurationError):
        UnmaskSchedule(1).mask_counts(4, 2)  # leftovers at the end
    with pytest.raises(ConfigurationError):
        UnmaskSchedule(0)


def test_block_schedule_restricts_eligibility():
    sched = UnmaskSchedule(1, block_size=2)
    assert sched.eligible((0, 1, 2, 3)) == (0, 1)
    assert sched.eligible((1, 2, 3)) == (1,)
    assert sched.eligible((2, 3)) == (2, 3)
    assert sched.mask_counts(4, 4) == [4, 3, 2, 1, 0]


def test_a_block_wider_than_every_masked_position_is_one_block():
    masked = np.array([[0, 2, 3], [1, 2, 4]])
    whole = UnmaskSchedule(2)
    for size in (5, 2**62, 2**63, 2**80):
        sched = UnmaskSchedule(2, block_size=size)
        assert sched.eligible_mask(masked).tolist() == whole.eligible_mask(masked).tolist()
        assert sched.eligible((1, 3)) == (1, 3)
        assert sched.mask_counts(5, 3) == whole.mask_counts(5, 3) == [5, 3, 1, 0]


def test_mask_sets_shrink_on_schedule():
    params = random_params(1)
    sched = UnmaskSchedule(2)
    traj = rollout(params, [PROMPT], 2, sched, [stream(1, "roll")])[0]
    counts = sched.mask_counts(4, 2)
    for t in range(1, traj.n_steps + 2):
        assert len(mask_positions(ARCH, traj.state_at(t))) == counts[t - 1]
    assert traj.states.shape == (traj.n_steps + 1, 4) and not traj.states.flags.writeable
    assert (traj.final_completion() == traj.states[-1]).all()
    assert PROMPT.vocab.mask_id not in traj.final_completion()


def test_committed_tokens_persist():
    params = random_params(2)
    traj = rollout(params, [PROMPT], 4, UnmaskSchedule(1), [stream(2, "roll")])[0]
    for t in range(1, traj.n_steps + 1):
        for pos, tok in commits(traj, t):
            for later in range(t + 1, traj.n_steps + 2):
                assert traj.state_at(later)[ARCH.prompt_len + pos] == tok


def test_cache_matches_fresh_forward_bitwise():
    params = random_params(3)
    traj = rollout(params, [PROMPT], 2, UnmaskSchedule(2), [stream(3, "roll")])[0]
    for t in range(1, traj.n_steps + 1):
        fresh = rows_context(params, traj.state_at(t))
        assert traj.logp[t - 1].tobytes() == log_softmax(fresh.rows).tobytes()
        mask = mask_positions(ARCH, traj.state_at(t))
        assert tuple(traj.positions[t - 1].tolist()) == fresh.positions == mask
        # branch draws from these rows later, so nothing may write into them
        for block in (traj.positions[t - 1], traj.logp[t - 1]):
            assert not block.flags.writeable


def test_branch_reads_the_rollouts_normalized_block_without_a_log_softmax(monkeypatch):
    """Each trajectory's rows at x_t are its slice of its step's ``log_softmax`` block,
    byte-equal to the ``log_softmax`` of a fresh forward's rows, so branching from the
    cache normalizes nothing."""
    policy_mod = importlib.import_module("dispo.policy")
    real = policy_mod.log_softmax
    calls = []

    def counted(rows):
        calls.append(np.shape(rows))
        return real(rows)

    params = random_params(14)
    prompts = [PROMPT, MaskedSequence((1, 1), VOCAB), MaskedSequence((2, 0), VOCAB)]
    rngs = [stream(14, "roll", k) for k in range(3)]
    for module in (policy_mod, rollout_mod):
        monkeypatch.setattr(module, "log_softmax", counted)
    trajs = rollout(params, prompts, 4, UnmaskSchedule(1), rngs)
    assert len(calls) == 4  # one block per step
    calls.clear()
    sites = [(traj, t) for traj in trajs for t in range(1, 5)]
    branch_at(sites, 3, [stream(14, "branch", i) for i in range(len(sites))])
    assert calls == []
    for traj, t in sites:
        cached = traj.logp[t - 1]
        assert not cached.flags.writeable
        assert cached.tobytes() == real(rows_context(params, traj.state_at(t)).rows).tobytes()
    assert calls == []


def test_greedy_commits_highest_confidence_eligible():
    params = random_params(4)
    sched = UnmaskSchedule(2, block_size=2)
    traj = rollout(params, [PROMPT], 2, sched, [stream(4, "roll")], greedy=True)[0]
    for t in range(1, traj.n_steps + 1):
        positions = tuple(traj.positions[t - 1].tolist())
        action = np.argmax(rows_context(params, traj.state_at(t)).rows, axis=1).tolist()
        probs = np.exp(traj.logp[t - 1])
        eligible = set(sched.eligible(positions))
        scored = sorted(
            (-probs[r, tok], pos, tok)
            for r, (pos, tok) in enumerate(zip(positions, action))
            if pos in eligible
        )
        expect = tuple(sorted((pos, tok) for _, pos, tok in scored[:2]))
        assert commits(traj, t) == expect


def test_ties_break_to_lowest_position_then_token():
    params = init_params(ARCH)  # uniform rows everywhere
    traj = rollout(params, [PROMPT], 2, UnmaskSchedule(2), [stream(5, "roll")], greedy=True)[0]
    assert (commits(traj, 1), commits(traj, 2)) == (((0, 0), (1, 0)), ((2, 0), (3, 0)))


def test_rollout_counts_one_forward_per_step():
    params = random_params(6)
    counters = OpCounters()
    rollout(params, [PROMPT], 4, UnmaskSchedule(1), [stream(6, "roll")], counters=counters)
    assert counters.rollout_forward_passes == 4


PROMPTS = [PROMPT, MaskedSequence((1, 1), VOCAB), PROMPT, MaskedSequence((2, 0), VOCAB)]


def test_lockstep_trajectories_equal_solo_rollouts():
    """One lockstep call over several prompts equals one-prompt rollouts bit for bit:
    states, cached rows, each generator's final state and the counters, under an
    even and a block schedule, sampled and greedy.  At zero parameters every row
    is uniform, so all confidences tie and the lowest positions commit first."""
    for scale in (0.5, 0.0):
        params = random_params(15, scale=scale) if scale else init_params(ARCH)
        for sched, n_steps in ((UnmaskSchedule(2), 2), (UnmaskSchedule(1, block_size=2), 4)):
            for greedy in (False, True):
                rngs = [stream(15, "roll", k) for k in range(len(PROMPTS))]
                counters, solo_counters = OpCounters(), OpCounters()
                together = rollout(
                    params, PROMPTS, n_steps, sched, rngs, counters=counters, greedy=greedy
                )
                for k, (prompt, traj) in enumerate(zip(PROMPTS, together, strict=True)):
                    rng = stream(15, "roll", k)
                    (solo,) = rollout(
                        params, [prompt], n_steps, sched, [rng], counters=solo_counters,
                        greedy=greedy,
                    )
                    assert traj.prompt is prompt
                    assert traj.states.tobytes() == solo.states.tobytes()
                    for field in ("positions", "logp"):
                        for shared, alone in zip(
                            getattr(traj, field), getattr(solo, field), strict=True
                        ):
                            assert shared.tobytes() == alone.tobytes()
                    for t, logp in enumerate(traj.logp, start=1):
                        fresh = rows_context(params, traj.state_at(t)).rows
                        assert logp.tobytes() == log_softmax(fresh).tobytes()
                    assert rngs[k].bit_generator.state == rng.bit_generator.state
                    if not scale:
                        c = sched.tokens_per_step
                        for t in range(1, n_steps + 1):
                            assert [pos for pos, _ in commits(traj, t)] == list(
                                range((t - 1) * c, t * c)
                            )
                assert counters == solo_counters
                assert counters.rollout_forward_passes == len(PROMPTS) * n_steps
    with pytest.raises(ContractViolation):
        rollout(params, [], 4, sched, [])
    with pytest.raises(ContractViolation, match="3 prompts for 4 generators"):
        rollout(params, PROMPTS[:3], 4, sched, rngs)
    with pytest.raises(ConfigurationError, match="prompt length 3 != architecture prompt_len 2"):
        rollout(params, [MaskedSequence((0, 2, 1), VOCAB)] * 4, 4, sched, rngs)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("greedy", [False, True])
def test_rollout_commits_every_position_when_the_logits_are_not_finite(greedy):
    """Huge finite parameters overflow the logits to NaN log-probabilities: the
    rollout still commits the scheduled count of eligible positions each step,
    so a diverged policy still yields whole completions for the loss to reject."""
    theta = np.where(np.arange(ARCH.num_params) % 2, 1e308, -1e308)
    params = init_params(ARCH).replace_theta(theta)
    sched = UnmaskSchedule(1, block_size=3)  # position 3 waits while 0-2 are masked
    (traj,) = rollout(params, [PROMPT], 4, sched, [stream(17, "roll")], greedy=greedy)
    assert np.isnan(traj.logp[0]).any()
    counts = sched.mask_counts(4, 4)
    for t in range(1, traj.n_steps + 2):
        assert len(mask_positions(ARCH, traj.state_at(t))) == counts[t - 1]
        if t <= traj.n_steps:  # every commit lies in the left-most incomplete block
            eligible = sched.eligible(mask_positions(ARCH, traj.state_at(t)))
            assert {pos for pos, _ in commits(traj, t)} <= set(eligible)
    assert VOCAB.mask_id not in traj.final_completion()
    assert set(traj.final_completion().tolist()) <= set(range(VOCAB.size))


def test_branch_runs_no_forward_passes(monkeypatch):
    params = random_params(7)
    traj = rollout(params, [PROMPT], 2, UnmaskSchedule(2), [stream(7, "roll")])[0]

    def boom(*a, **k):
        raise AssertionError("branch must not run the policy")

    monkeypatch.setattr(rollout_mod, "rows_context", boom)
    state = traj.state_at(1)
    (actions,), (completions,) = branch_at([(traj, 1)], 5, [stream(7, "branch")])
    mask = mask_positions(ARCH, state)
    assert actions.shape == (5, len(mask)) and completions.shape == (5, 4)
    assert (completions[:, list(mask)] == actions).all()
    assert PROMPT.vocab.mask_id not in completions
    visible = [p for p in range(4) if p not in mask_positions(ARCH, state)]
    assert (completions[:, visible] == state[ARCH.prompt_len :][visible]).all()


def test_branch_is_reproducible():
    params = random_params(8)
    traj = rollout(params, [PROMPT], 2, UnmaskSchedule(2), [stream(8, "roll")])[0]
    a = branch_at([(traj, 2)], 3, [stream(8, "branch")])
    b = branch_at([(traj, 2)], 3, [stream(8, "branch")])
    assert np.array_equal(a[0][0], b[0][0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ContractViolation):
        branch_at([(traj, 1)], 0, [stream(8, "x")])


def test_branch_rejects_rows_of_another_mask_set():
    params = random_params(13)
    traj = rollout(params, [PROMPT], 2, UnmaskSchedule(2), [stream(13, "roll")])[0]

    def rejected(rows_at, positions, logp):
        """``branch`` at the states ``rows_at`` refuses these positions and rows, and
        raises before drawing from any site's generator."""
        rngs = [stream(13, "x", i) for i in range(len(rows_at))]
        before = [rng.bit_generator.state for rng in rngs]
        rows = np.array([traj.states[t - 1] for t in rows_at])
        with pytest.raises(ContractViolation, match="masked positions"):
            branch(rows, positions, logp, 2, rngs)
        assert [rng.bit_generator.state for rng in rngs] == before

    # step 2's rows cover two positions, step 1's state masks all four
    rejected([1], traj.positions[1:2], traj.logp[1:2])
    rejected([2], traj.positions[:1], traj.logp[:1])
    # the right positions with another step's rows, or the reverse
    rejected([1], traj.positions[:1], traj.logp[1:2])
    rejected([1], traj.positions[1:2], traj.logp[:1])
    # one mismatched site among matching ones
    rejected([1, 2], [traj.positions[0]] * 2, [traj.logp[0]] * 2)
    # rows of the right size, but for other positions or in another order
    state = traj.state_at(2)
    visible = tuple(p for p in range(4) if p not in mask_positions(ARCH, state))
    for positions in (visible, mask_positions(ARCH, state)[::-1]):
        rejected([2], [positions], [rows_context(params, state, positions).logp])


def test_state_index_bounds():
    params = random_params(9)
    traj = rollout(params, [PROMPT], 2, UnmaskSchedule(2), [stream(9, "roll")])[0]
    assert mask_positions(ARCH, traj.state_at(3)) == ()
    final = traj.state_at(3)  # the context row: the prompt, then the completion
    assert final.tolist() == list(PROMPT.tokens) + traj.final_completion().tolist()
    assert final.dtype == np.intp and not final.flags.writeable
    with pytest.raises(ContractViolation):
        traj.state_at(0)
    with pytest.raises(ContractViolation):
        traj.state_at(4)


def test_rollout_is_seed_deterministic():
    params = random_params(10)
    a = rollout(params, [PROMPT], 4, UnmaskSchedule(1), [stream(10, "roll")])[0]
    b = rollout(params, [PROMPT], 4, UnmaskSchedule(1), [stream(10, "roll")])[0]
    assert np.array_equal(a.states, b.states)
    g = rollout(params, [PROMPT], 4, UnmaskSchedule(1), [stream(11, "unused")], greedy=True)[0]
    h = rollout(params, [PROMPT], 4, UnmaskSchedule(1), [stream(12, "unused")], greedy=True)[0]
    assert np.array_equal(g.states, h.states)
