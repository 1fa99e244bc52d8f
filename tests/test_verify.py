"""Oracle machinery: enumeration targets, MC fast paths, variance tools."""

import math

import numpy as np
import pytest

from dispo import verify
from dispo.errors import ContractViolation
from dispo.objective import LossConfig, step_loss, terminal_loss
from dispo.policy import LinearArch, init_params, mask_positions
from dispo.rollout import UnmaskSchedule
from dispo.sequences import enumerate_actions, fill
from dispo.streams import stream
from dispo.surrogate import (
    SurrogateConfig,
    draw_patterns,
    state_surrogate_logprob,
)
from dispo.tasks import RewardFn, StringMatchInstance, make_task
from dispo.verify import (
    N_SAMPLES,
    CandidateState,
    OracleProblem,
    StateTables,
    VarianceCondition,
    WeightedStates,
    _BOOT_BLOCK,
    _GUIDE_BUCKETS,
    _draw_categorical,
    _finish_report,
    bootstrap_ci,
    build_oracle_problem,
    build_state_tables,
    c_factor,
    collect_states,
    gradient_moments,
    group_coefficients,
    perturb_params,
    prop1_check,
    prop2_check,
    sample_group_indices,
    theorem1_check,
    theorem2_check,
    trcov_estimate,
    trcov_protocol,
)

OFF = SurrogateConfig(n_mc=1, ratio_law="zero")


def exact_step_gradient(params, weighted, reward, surr_cfg):
    """grad J_t by full enumeration: sum_s w(s) sum_a p(a|s) R(s,a) grad log p(a|s)."""
    return sum(
        w * build_state_tables(params, params, s, reward, surr_cfg).reward_gradient()
        for s, w in zip(weighted.states, weighted.weights)
    )


def dense_rows(grads, cols, coefs):
    """The materialized route: one (n, dim) matrix, row r = sum_j coefs[r, j] * grads[cols[r, j]]."""
    n, width = cols.shape
    scatter = np.zeros((n, grads.shape[0]))
    rows = np.arange(n)
    for j in range(width):
        scatter[rows, cols[:, j]] += coefs[:, j]
    return scatter @ grads


def materialized_check_rows(params, problem, rng, old_params, a_step, a_term, n_branches, k, n):
    """Per-replicate -grad L of an identity check, drawn in the production order."""
    behavior = params if old_params is None else old_params
    per_sample = np.zeros((n, params.dim))

    def tables(state):
        return build_state_tables(params, behavior, state, problem.reward, problem.surrogate)

    if a_term > 0:
        seq = tables(problem.terminal_state())
        idx = sample_group_indices(seq, k, n, rng)
        per_sample += a_term * dense_rows(seq.grads, idx, group_coefficients(seq, idx))
    if a_step > 0:
        cells, probs = [], []
        for t in sorted(problem.step_states):
            weighted = problem.step_states[t]
            for state, w in zip(weighted.states, weighted.weights):
                cells.append(tables(state))
                probs.append(problem.step_weights[t] * w)
        cell_ids = rng.choice(len(cells), size=n, p=np.asarray(probs))
        for c, cell in enumerate(cells):
            members = np.flatnonzero(cell_ids == c)
            if members.size:
                idx = sample_group_indices(cell, n_branches, members.size, rng)
                rows = dense_rows(cell.grads, idx, group_coefficients(cell, idx))
                per_sample[members] += a_step * rows
    return per_sample


def assert_moments_match(mean, var, rows):
    """The kernel's moments against the rows' own, with exactly the same zero-variance set."""
    np.testing.assert_allclose(mean, rows.mean(axis=0), rtol=1e-12, atol=0)
    ref_var = rows.var(axis=0, ddof=1)
    np.testing.assert_allclose(var, ref_var, rtol=1e-10, atol=0)
    assert np.array_equal(var == 0, ref_var == 0)


def test_c_factor():
    assert c_factor(1) == 0.0
    assert c_factor(2) == 0.5
    assert c_factor(4) == 0.75
    with pytest.raises(ContractViolation):
        c_factor(0)


def test_zero_patterns_and_perturbation():
    # corruption off needs no generator: nothing is masked
    pats = draw_patterns(3, SurrogateConfig(n_mc=2, ratio_law="zero"), None)
    assert pats.shape == (2, 3) and not pats.any()
    _, params = build_oracle_problem()
    moved = perturb_params(params, stream(1, "perturb"), scale=0.25)
    assert np.linalg.norm(moved.theta - params.theta) == pytest.approx(0.25, abs=1e-12)


def test_weighted_states_validation():
    problem, _ = build_oracle_problem()
    state = problem.terminal_state()
    # rows are arrays, so a distribution compares and hashes by identity
    mix = problem.step_states[2]
    assert mix == mix and mix != WeightedStates(mix.states, mix.weights) and hash(mix)
    with pytest.raises(ContractViolation):
        WeightedStates((state,), (0.5,))
    with pytest.raises(ContractViolation):
        WeightedStates((state, state), (1.5, -0.5))
    with pytest.raises(ContractViolation):
        OracleProblem(
            prompt=problem.prompt,
            completion_len=problem.completion_len,
            reward=problem.reward,
            step_states=problem.step_states,
            step_weights=problem.step_weights,
            surrogate=SurrogateConfig(n_mc=1, ratio_law="uniform"),
        )


def test_exact_gradient_vanishes_for_constant_reward():
    problem, params = build_oracle_problem()
    grad = exact_step_gradient(
        params, problem.step_states[1], lambda c: np.ones(len(c)), problem.surrogate
    )
    assert np.max(np.abs(grad)) < 1e-10


def test_exact_gradient_is_shift_invariant():
    problem, params = build_oracle_problem()
    weighted = problem.step_states[2]
    base = exact_step_gradient(params, weighted, problem.reward, problem.surrogate)
    shifted_fn = lambda c: problem.reward(c) + 3.7
    shifted = exact_step_gradient(params, weighted, shifted_fn, problem.surrogate)
    assert np.allclose(base, shifted, atol=1e-10)


def test_exact_gradient_matches_finite_differences():
    problem, params = build_oracle_problem()
    weighted = problem.step_states[2]

    def objective(theta):
        p = params.replace_theta(theta)
        total = 0.0
        for state, w in zip(weighted.states, weighted.weights):
            n = len(mask_positions(p.arch, state))
            for action in enumerate_actions(n, p.arch.vocab):
                lp = state_surrogate_logprob(p, state, action, problem.surrogate)
                (done,) = fill([state[p.arch.prompt_len :]], [[action]], p.arch.vocab)[0]
                r = problem.reward(done)
                total += w * math.exp(lp) * r
        return total

    grad = exact_step_gradient(params, weighted, problem.reward, problem.surrogate)
    h = 1e-5
    fd = np.zeros_like(grad)
    for i in range(params.dim):
        e = np.zeros(params.dim)
        e[i] = h
        fd[i] = (objective(params.theta + e) - objective(params.theta - e)) / (2 * h)
    assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) < 1e-6


def test_fast_path_matches_production_step_loss():
    problem, params = build_oracle_problem()
    old = perturb_params(params, stream(2, "old"), scale=0.3)
    state = problem.step_states[2].states[1]
    tables = build_state_tables(params, old, state, problem.reward, problem.surrogate)
    rng = stream(2, "draw")
    idx = sample_group_indices(tables, 3, 40, rng)
    fast = (group_coefficients(tables, idx)[:, :, None] * tables.grads[idx]).sum(axis=1)
    cfg = LossConfig(clip_eps=None)
    for row in range(idx.shape[0]):
        members = [(tables.actions[j], float(tables.rewards[j])) for j in idx[row]]
        _, grad = step_loss(state, members, params, old, cfg, problem.surrogate)
        assert np.allclose(fast[row], -grad, atol=1e-12)


def test_fast_path_matches_production_terminal_loss():
    problem, params = build_oracle_problem()
    old = perturb_params(params, stream(3, "old"), scale=0.3)
    state = problem.terminal_state()
    tables = build_state_tables(params, old, state, problem.reward, problem.surrogate)
    idx = sample_group_indices(tables, 2, 25, stream(3, "draw"))
    fast = (group_coefficients(tables, idx)[:, :, None] * tables.grads[idx]).sum(axis=1)
    cfg = LossConfig(clip_eps=None)
    for row in range(idx.shape[0]):
        # at the fully masked state an action is the whole completion
        completions = [(tables.actions[j], float(tables.rewards[j])) for j in idx[row]]
        _, grad = terminal_loss(
            problem.prompt, completions, params, old, cfg, problem.surrogate
        )
        assert np.allclose(fast[row], -grad, atol=1e-12)


def test_step_identity_zscores_at_modest_samples():
    problem, params = build_oracle_problem()
    report = theorem1_check(params, problem, n_branches=2, n_samples=20_000, seed=5)
    assert report.max_abs_z <= 4.5
    assert report.n_samples == 20_000
    assert "on-policy" in report.name
    d = report.to_dict()
    assert len(d["estimate"]) == params.dim


def test_step_identity_offpolicy_smoke():
    problem, params = build_oracle_problem()
    old = perturb_params(params, stream(6, "old"), scale=0.05)
    report = theorem1_check(params, problem, n_samples=20_000, seed=6, old_params=old)
    assert "off-policy" in report.name
    assert report.max_abs_z <= 4.5
    assert report.max_ratio > 1.0


def test_group_size_one_is_degenerate():
    problem, params = build_oracle_problem()
    report = theorem1_check(params, problem, n_branches=1, n_samples=500, seed=7)
    assert report.passed
    assert np.allclose(report.estimate, 0.0)
    assert any("zero target" in note for note in report.notes)


def test_group_factor_scales_the_target():
    problem, params = build_oracle_problem()
    r2 = theorem1_check(params, problem, n_branches=2, n_samples=10, seed=8)
    r4 = theorem1_check(params, problem, n_branches=4, n_samples=10, seed=8)
    assert np.allclose(r4.target, 1.5 * r2.target, atol=1e-12)  # c(4)/c(2) = 1.5


def test_relative_bound_follows_the_monte_carlo_error(monkeypatch):
    for n, tol in ((N_SAMPLES, 0.03), (4 * N_SAMPLES, 0.015), (N_SAMPLES // 4, 0.06)):
        # the moments of a constant sample: mean 1, variance 0
        report = _finish_report("flat", n, np.ones(1), np.zeros(1), np.ones(1), 1.0)
        assert report.rel_tol == tol
    problem, params = build_oracle_problem()
    # rel_l2 0.039 at max|z| 2.1: a fixed 0.03 bound fails this sound estimate
    assert theorem1_check(params, problem, 2, 20_000, seed=103).passed
    factor = verify.c_factor
    monkeypatch.setattr(verify, "c_factor", lambda n: 1.1 * factor(n))  # a 10% too large target
    wrong = theorem1_check(params, problem, 2, 20_000, seed=103)
    assert not wrong.passed and wrong.rel_l2 > wrong.rel_tol


def random_tables(rng, n_actions, dim, zero_cols, off_policy):
    """Tables with coarse rewards (so groups tie), and gradient columns zero in every row."""
    grads = rng.normal(size=(n_actions, dim))
    grads[:, zero_cols] = 0.0
    ratios = np.exp(rng.normal(0.0, 0.5, n_actions)) if off_policy else np.ones(n_actions)
    probs_old = rng.dirichlet(np.ones(n_actions))
    return StateTables(
        actions=tuple(range(n_actions)),
        probs=probs_old * ratios,
        probs_old=probs_old,
        ratios=ratios,
        rewards=rng.integers(0, 3, n_actions) / 2.0,
        grads=grads,
    )


@pytest.mark.parametrize("off_policy", [False, True], ids=["on-policy", "off-policy"])
@pytest.mark.parametrize("group_size", [1, 2, 3, 4])
def test_gradient_moments_match_the_materialized_rows(group_size, off_policy):
    rng = stream(30, "moments", group_size, int(off_policy))
    tables = random_tables(rng, 7, 10, [0, 4, 9], off_policy)
    idx = sample_group_indices(tables, group_size, 3000, rng)
    coefs = group_coefficients(tables, idx)
    mean, var = gradient_moments(tables.grads, idx, coefs)
    assert_moments_match(mean, var, dense_rows(tables.grads, idx, coefs))
    assert np.all(var[[0, 4, 9]] == 0.0)
    assert (group_size == 1) == np.all(var == 0.0)  # a group of one has no advantage


class FixedUniforms(np.random.Generator):
    """A generator whose ``random`` returns the given uniforms, for both samplers to invert."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = np.asarray(uniforms, dtype=np.float64)

    def random(self, size=None, dtype=np.float64, out=None):
        return self.uniforms.reshape(size).copy()


def sampler_laws():
    """Laws with zeros at either end and inside, CDF values on bucket edges, a tiny tail and a
    sum just off 1, then the battery's own behavior laws and its cell law."""
    rng = stream(40, "sampler-laws")
    laws = [rng.dirichlet(np.full(k, alpha)) for k in range(2, 28) for alpha in (0.1, 1.0)]
    laws += [
        np.array([0.0, 0.3, 0.7]),
        np.array([0.3, 0.0, 0.0, 0.7]),
        np.array([0.3, 0.7, 0.0]),
        np.array([1.0]),
        np.array([0.5, 0.25, 0.125, 0.125]),
        np.array([1 - 1e-12, 1e-12]),
        np.array([0.5, 0.5 + 1e-9]),  # off by less than the tolerance: drawn, as by rng.choice
        np.full(_GUIDE_BUCKETS, 1.0 / _GUIDE_BUCKETS),  # every CDF value on a bucket edge
    ]
    problem, params = build_oracle_problem()
    old = perturb_params(params, stream(11, "verify-perturb"), scale=0.01)
    states = [problem.terminal_state()]
    states += [s for t in sorted(problem.step_states) for s in problem.step_states[t].states]
    for behavior in (params, old):
        laws += [
            build_state_tables(params, behavior, s, problem.reward, problem.surrogate).probs_old
            for s in states
        ]
    laws.append(np.array([
        problem.step_weights[t] * w
        for t in sorted(problem.step_states)
        for w in problem.step_states[t].weights
    ]))
    return laws


@pytest.mark.parametrize("size", [500, (300, 3), 0, (0, 2)], ids=str)
def test_the_sampler_draws_as_rng_choice_and_leaves_the_same_state(size):
    for i, p in enumerate(sampler_laws()):
        a, b = stream(41, "sampler", i), stream(41, "sampler", i)
        got = _draw_categorical(p, size, a)
        assert np.array_equal(got, b.choice(len(p), size, p=p)), p
        assert got.shape == np.empty(size).shape
        assert a.random() == b.random()


def test_the_sampler_inverts_edge_uniforms_as_rng_choice():
    """Uniforms on and beside every bucket edge and every CDF value of each law."""
    m = _GUIDE_BUCKETS
    for p in sampler_laws():
        cdf = np.cumsum(p) / np.sum(p)
        points = np.concatenate([np.arange(m) / m, cdf[cdf < 1.0]])
        uniforms = np.concatenate(
            [points, np.nextafter(points, 1.0), np.nextafter(points, 0.0), [1.0 - 2.0**-53]]
        )
        uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
        got = _draw_categorical(p, uniforms.size, FixedUniforms(uniforms))
        assert np.array_equal(got, FixedUniforms(uniforms).choice(len(p), uniforms.size, p=p))


@pytest.mark.parametrize(
    "law, fault",
    [
        (np.full((2, 2), 0.25), "1-D"),
        (np.array([0.5, np.nan, 0.5]), "finite"),
        (np.array([0.5, np.inf]), "finite"),
        (np.array([1.2, -0.2]), "non-negative"),
        (np.array([0.5, 0.4]), "sum to 1"),
        (np.array([0.5, 0.5 + 1e-7]), "sum to 1"),
        (np.array([]), "sum to 1"),
    ],
)
def test_the_sampler_refuses_a_bad_law(law, fault):
    with pytest.raises(ContractViolation, match=fault):
        _draw_categorical(law, 10, stream(42, "bad-law"))


def prop2_with(group_sizes):
    def check(params, problem, **kwargs):
        state = problem.terminal_state()
        return prop2_check(params, state, problem.reward, problem.surrogate, group_sizes, **kwargs)

    return check


@pytest.mark.parametrize(
    "check, kwargs, argument",
    [
        (prop2_with((0, 1, 2)), {}, "group_sizes"),
        (prop2_with((-1, 2)), {}, "group_sizes"),
        (prop2_with((1, 1)), {}, "group_sizes"),
        (prop2_with((2,)), {}, "group_sizes"),
        (prop2_with((1.0, 2)), {}, "group_sizes"),
        (theorem1_check, {"n_branches": -1}, "n_branches"),
        (theorem1_check, {"n_branches": 0}, "n_branches"),
        (theorem2_check, {"n_branches": 0}, "n_branches"),
        (theorem2_check, {"n_completions": -2}, "n_completions"),
        (theorem2_check, {"n_completions": 0}, "n_completions"),
    ],
    ids=[
        "prop2-zero", "prop2-negative", "prop2-repeated", "prop2-one-size", "prop2-float",
        "theorem1-negative", "theorem1-zero", "theorem2-zero-branches",
        "theorem2-negative-completions", "theorem2-zero-completions",
    ],
)
def test_sampling_checks_refuse_bad_group_sizes_before_drawing(
    monkeypatch, check, kwargs, argument
):
    problem, params = build_oracle_problem()

    def no_stream(*args):
        raise AssertionError("a stream was built before the arguments were checked")

    monkeypatch.setattr(verify, "stream", no_stream)
    with pytest.raises(ContractViolation, match=argument):
        check(params, problem, n_samples=10, **kwargs)


@pytest.mark.parametrize(
    "a_step, a_term, n_branches, off_policy",
    [
        (1.0, 0.0, 1, False),
        (1.0, 0.0, 2, True),
        (1.0, 0.0, 3, False),
        (1.0, 0.0, 4, True),
        (0.0, 1.0, 2, True),
        (0.1, 1.0, 2, False),
        (0.1, 1.0, 2, True),
    ],
)
def test_identity_checks_match_the_materialized_reference(a_step, a_term, n_branches, off_policy):
    problem, params = build_oracle_problem()
    old = perturb_params(params, stream(32, "old"), scale=0.3) if off_policy else None
    n = 3000
    report = theorem2_check(
        params, problem, alpha_step=a_step, alpha_term=a_term, n_branches=n_branches,
        n_samples=n, seed=33, old_params=old,
    )
    rows = materialized_check_rows(
        params, problem, stream(33, "theorem2", n_branches, 2), old, a_step, a_term,
        n_branches, 2, n,
    )
    assert_moments_match(report.estimate, (report.std_err * math.sqrt(n)) ** 2, rows)
    zeros = int(np.sum(report.std_err == 0.0))  # 18 columns are zero in every table
    assert zeros == params.dim if (n_branches, a_term) == (1, 0.0) else 18 <= zeros < params.dim


def test_checks_reject_fewer_than_two_samples():
    problem, params = build_oracle_problem()
    for n in (1, 0, -5):
        with pytest.raises(ContractViolation, match="n_samples"):
            theorem1_check(params, problem, 2, n)
        with pytest.raises(ContractViolation, match="n_samples"):
            theorem2_check(params, problem, n_samples=n)
        with pytest.raises(ContractViolation, match="n_samples"):
            prop1_check(16, 4, n_samples=n)
    with pytest.raises(ContractViolation, match="loss weights"):
        theorem2_check(params, problem, alpha_step=0.0, alpha_term=0.0, n_samples=10)


def test_combined_identity_single_family_targets():
    problem, params = build_oracle_problem()
    term_only = theorem2_check(
        params, problem, alpha_step=0.0, alpha_term=1.0, n_samples=10, seed=9
    )
    terminal = WeightedStates((problem.terminal_state(),), (1.0,))
    expect = 0.5 * exact_step_gradient(params, terminal, problem.reward, problem.surrogate)
    assert np.allclose(term_only.target, expect, atol=1e-12)
    step_only = theorem2_check(
        params, problem, alpha_step=1.0, alpha_term=0.0, n_samples=10, seed=9
    )
    mix = sum(
        problem.step_weights[t]
        * exact_step_gradient(params, problem.step_states[t], problem.reward, problem.surrogate)
        for t in problem.step_states
    )
    assert np.allclose(step_only.target, 0.5 * mix, atol=1e-12)
    # off-policy, the target is still the current policy's: no weighting may
    # take it from the behavior law
    old = perturb_params(params, stream(9, "old"), scale=0.3)
    for a_step, a_term in ((1.0, 0.0), (0.0, 1.0), (0.1, 1.0)):
        on, off = (
            theorem2_check(
                params, problem, alpha_step=a_step, alpha_term=a_term, n_samples=10, seed=9,
                old_params=behavior,
            )
            for behavior in (None, old)
        )
        assert off.max_ratio > 1.0
        assert np.allclose(off.target, on.target, rtol=0, atol=1e-12)


def test_prop1_edges():
    full = prop1_check(6, 6, n_samples=4000, seed=10)
    assert full.ratio == 1.0 and full.passed
    with pytest.raises(ContractViolation):
        prop1_check(4, 5)


def test_prop2_zero_advantage_is_degenerate():
    problem, params = build_oracle_problem()
    report = prop2_check(
        params, problem.terminal_state(), lambda c: np.full(len(c), 0.5), problem.surrogate,
        group_sizes=(1, 2), n_samples=200, seed=13,
    )
    assert report.passed
    assert all(v == 0.0 for v in report.trcovs)
    assert math.isnan(report.slope)


def test_prop2_slope_near_inverse_group_size():
    problem, params = build_oracle_problem()
    report = prop2_check(
        params, problem.terminal_state(), problem.reward, problem.surrogate,
        group_sizes=(1, 2, 4), n_samples=6000, seed=14,
    )
    assert report.passed, report.slope
    assert report.slope == pytest.approx(-1.0, abs=0.15)


def test_trcov_estimate_two_trial_identity():
    g1 = np.array([1.0, 2.0, -1.0])
    g2 = np.array([0.0, 1.0, 3.0])
    expect = 0.5 * float(np.sum((g1 - g2) ** 2))
    assert trcov_estimate(np.stack([g1, g2])) == pytest.approx(expect, abs=1e-12)
    with pytest.raises(ContractViolation):
        trcov_estimate(g1[None, :])


def test_trcov_estimate_is_unbiased_on_gaussian_noise():
    rng = stream(15, "gauss")
    sigmas = np.array([1.0, 2.0])
    draws = rng.normal(size=(40_000, 2)) * sigmas
    got = trcov_estimate(draws)
    assert got == pytest.approx(float((sigmas**2).sum()), rel=0.05)


def test_bootstrap_ci_behaviour():
    const = bootstrap_ci(np.full(8, 1.25), n_boot=200, rng=stream(16, "boot"))
    assert const == (1.25, 1.25)
    rng = stream(16, "boot2")
    diffs = rng.normal(size=400)
    lo, hi = bootstrap_ci(diffs, n_boot=2000, rng=stream(16, "boot3"))
    assert lo < float(diffs.mean()) < hi
    assert lo < 0.0 < hi  # zero-mean noise at n=400: the interval spans zero
    with pytest.raises(ContractViolation):
        bootstrap_ci(np.array([1.0]))


@pytest.mark.parametrize("n", [7, 63])
def test_bootstrap_ci_row_blocks_equal_the_one_shot_draw(n):
    """Drawing the resamples in row blocks gives the interval of one ``(n_boot, n)``
    draw bit for bit, and leaves the generator in the same state."""
    diffs = stream(17, "boot-diffs", n).normal(size=n)
    n_boot = 2 * _BOOT_BLOCK + 333  # a last block shorter than the others
    rng, ref_rng = stream(17, "boot", n), stream(17, "boot", n)
    interval = bootstrap_ci(diffs, n_boot, rng)
    means = diffs[ref_rng.integers(0, n, size=(n_boot, n))].mean(axis=1)
    level = 0.95
    assert interval == (
        float(np.quantile(means, (1.0 - level) / 2.0)),
        float(np.quantile(means, 1.0 - (1.0 - level) / 2.0)),
    )
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.random() == ref_rng.random()


def test_variance_condition_validation():
    with pytest.raises(ContractViolation):
        VarianceCondition("bad-scope", scope="branch")
    with pytest.raises(ContractViolation):
        VarianceCondition("too-small", n_branches=1)


def make_probe_task_and_params(scale):
    task = make_task("stringmatch", stream(17, "task"), 3, target_len=4, vocab_size=3)
    arch = LinearArch(task.vocab, task.prompt_len, task.completion_len, window=1)
    params = init_params(arch, stream(17, "theta"), scale=scale)
    return task, params


def test_collect_states_shapes():
    task, params = make_probe_task_and_params(0.4)
    sched = UnmaskSchedule(2)
    cands = collect_states(params, task, 2, sched, (1, 2), seed=18, rollouts_per_instance=2)
    assert len(cands) == 3 * 2 * 2
    assert {len(mask_positions(params.arch, c.state)) for c in cands} == {4, 2}
    assert len(set(cands)) == len(cands)  # hashable, by identity


def test_trcov_protocol_report_structure():
    task, collector = make_probe_task_and_params(0.4)
    params = init_params(collector.arch, stream(19, "theta"), scale=0.4)
    old = perturb_params(params, stream(19, "old"), scale=0.3)
    cands = collect_states(collector, task, 2, UnmaskSchedule(2), (2,), seed=19)
    conditions = [
        VarianceCondition("action-z2", scope="action", n_branches=2),
        VarianceCondition("all-z2", scope="all", n_branches=2),
    ]
    report = trcov_protocol(params, old, cands, conditions, 8, OFF, seed=20, n_boot=400)
    assert report.reference == "action-z2"
    assert report.n_candidates == 3
    assert report.n_retained <= report.n_maskable <= report.n_candidates
    for name in ("action-z2", "all-z2"):
        assert len(report.per_state[name]) == report.n_retained
        assert report.advantage_counts[name] <= report.n_maskable
    if report.n_retained >= 2:
        lo, hi = report.diff_ci["all-z2"]
        assert lo <= report.diff_point["all-z2"] <= hi
    payload = report.to_dict()
    assert payload["n_trials"] == 8


def test_trcov_protocol_filters_deterministic_states():
    # a saturated policy samples one action only, so no advantage is ever
    # positive and every state falls to the filter
    task, _ = make_probe_task_and_params(0.0)
    arch = LinearArch(task.vocab, task.prompt_len, task.completion_len, window=1)
    w = np.zeros((task.vocab.size, arch.feature_dim))
    w[1, -1] = 1e3
    params = init_params(arch).replace_theta(w.ravel())
    cands = collect_states(params, task, 2, UnmaskSchedule(2), (2,), seed=21)
    conditions = [VarianceCondition("action-z2")]
    report = trcov_protocol(params, params, cands, conditions, 4, OFF, seed=22, n_boot=100)
    assert report.n_retained == 0
    assert math.isnan(report.estimates["action-z2"])
    assert report.diff_ci == {}
    with pytest.raises(ContractViolation):
        trcov_protocol(params, params, cands, conditions, 1, OFF, seed=23)
    with pytest.raises(ContractViolation):
        trcov_protocol(params, params, cands, [], 4, OFF, seed=24)


def test_oracle_problem_rejects_missing_weights():
    problem, _ = build_oracle_problem()
    with pytest.raises(ContractViolation):
        OracleProblem(
            prompt=problem.prompt,
            completion_len=problem.completion_len,
            reward=problem.reward,
            step_states=problem.step_states,
            step_weights={1: 1.0},
        )
