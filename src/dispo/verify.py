"""Verification oracles for the gradient identities and variance claims.

Everything here checks the production loss code against quantities computed
a second, independent way.  Exact gradients come from full enumeration of
the (tiny) action space; expectation identities are tested by Monte Carlo
with per-coordinate z-scores so the tolerance is sample-size-aware; the
variance claims are measured with the trace-covariance protocol (repeat
same-state branching, unbiased trace estimator, paired percentile
bootstrap over states).

The expectation identities verified here:

* step loss, group size Z:  E[-grad L_step] = ((Z-1)/Z) * grad J_t, where
  J_t is the expected reward of a surrogate draw at a state from the fixed
  state distribution for step t.  The (Z-1)/Z factor comes from the
  within-group mean baseline; it survives off-policy sampling because the
  baseline part reduces to the score-function identity.
* terminal loss, group size K:  E[-grad L_term] = ((K-1)/K) * grad J_seq.
  Same algebra as the step side: the group-mean baseline is built from the
  sampled completions, so it leaves the same (K-1)/K factor.  A baseline
  independent of the group would make the factor 1; a group mean is not
  such a baseline, for either loss family.
* combined loss:  the weighted sum of the two identities above, with the
  step side averaged over the timestep-sampler weights.

Enumeration requires the corruption-free surrogate: with corruption
disabled the surrogate is a normalized product of per-position rows, so
probabilities sum to one and the score identity holds exactly.

The Monte Carlo side never materializes per-replicate gradients.  A
replicate's -grad L is sum_j c_j * G[a_j] over its sampled members, so the
checks need only sufficient statistics: the per-action sums of c for the
mean and the action-pair sums of c_i c_j for the per-coordinate variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractViolation
from .objective import LossConfig, _group_grids, step_loss
from .policy import PolicyParams, rows_context
from .rollout import UnmaskSchedule, branch, rollout
from .sequences import (
    Action,
    DiffusionState,
    MaskedSequence,
    Vocab,
    enumerate_actions,
    fill,
)
from .streams import stream
from .surrogate import (
    SurrogateConfig,
    full_mask_state,
    grad_from_contexts,
    group_features,
    logprob_from_contexts,
)
from .tasks import RewardFn, StringMatchInstance, Task

N_SAMPLES = 100_000  # default Monte Carlo samples per check; rel_tol holds at this count


def c_factor(group_size: int) -> float:
    """The group-mean-baseline scale (n-1)/n for a group of size n."""
    if group_size < 1:
        raise ContractViolation("group size must be >= 1")
    return (group_size - 1) / group_size


def perturb_params(
    params: PolicyParams, rng: np.random.Generator, scale: float = 0.01
) -> PolicyParams:
    """Shift the parameters by a random direction of exact norm ``scale``."""
    direction = rng.normal(size=params.dim)
    direction /= np.linalg.norm(direction)
    return params.replace_theta(params.theta + scale * direction)


@dataclass(frozen=True)
class WeightedStates:
    """A fixed distribution over diffusion states (the d_t of one step)."""

    states: tuple[DiffusionState, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.weights) or not self.states:
            raise ContractViolation("states and weights must be non-empty and aligned")
        if any(w <= 0 for w in self.weights):
            raise ContractViolation("state weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ContractViolation("state weights must sum to 1")


@dataclass(frozen=True)
class OracleProblem:
    """A tiny instance whose action spaces enumerate exactly.

    ``step_states`` fixes one state distribution per denoising step and
    ``step_weights`` fixes the timestep-sampler law over those steps; both
    are held constant while gradients flow through the policy only.  The
    surrogate config must have corruption disabled.
    """

    prompt: MaskedSequence
    completion_len: int
    reward: RewardFn
    step_states: dict[int, WeightedStates]
    step_weights: dict[int, float]
    surrogate: SurrogateConfig = field(
        default_factory=lambda: SurrogateConfig(n_mc=1, ratio_law="zero")
    )

    def __post_init__(self) -> None:
        if self.surrogate.corruption_enabled:
            raise ContractViolation("oracle problems require corruption disabled")
        if set(self.step_states) != set(self.step_weights):
            raise ContractViolation("step_states and step_weights must cover the same steps")
        if abs(sum(self.step_weights.values()) - 1.0) > 1e-9:
            raise ContractViolation("timestep weights must sum to 1")

    def terminal_state(self) -> DiffusionState:
        return full_mask_state(self.prompt, self.completion_len)


def build_oracle_problem(seed: int = 7) -> tuple[OracleProblem, PolicyParams]:
    """The default enumerable instance plus a generic (non-uniform) policy.

    Vocab of 3, prompt length 2, completion length 3, window 1.  Step 1
    holds the fully masked state; step 2 mixes the three states with the
    first position committed.  Reward is the token-match fraction against
    a fixed target, so it varies across the action space.
    """
    from .policy import LinearArch, init_params

    vocab = Vocab(3)
    prompt = MaskedSequence((0, 2), vocab)
    completion_len = 3
    mid = vocab.mask_id
    full = full_mask_state(prompt, completion_len)
    committed = [
        DiffusionState(prompt, MaskedSequence((v, mid, mid), vocab)) for v in range(vocab.size)
    ]
    problem = OracleProblem(
        prompt=prompt,
        completion_len=completion_len,
        reward=RewardFn(StringMatchInstance((0, 1, 2), vocab.size)),
        step_states={
            1: WeightedStates((full,), (1.0,)),
            2: WeightedStates(tuple(committed), (0.5, 0.3, 0.2)),
        },
        step_weights={1: 0.6, 2: 0.4},
    )
    arch = LinearArch(vocab=vocab, prompt_len=prompt.length, completion_len=completion_len, window=1)
    params = init_params(arch, stream(seed, "oracle-theta"), scale=0.4)
    return problem, params


@dataclass
class StateTables:
    """Per-action tables at one state: everything the oracles need.

    ``probs`` is the current policy's law and ``probs_old`` the behavior
    sampling law; ``grads`` rows are gradients of the surrogate
    log-likelihood under the current parameters and ``ratios`` are
    current/behavior likelihood ratios.  Built once per state, so a Monte
    Carlo replicate is only action indices and weights: its gradient is a
    weighted sum of ``grads`` rows, and ``gradient_moments`` reduces the
    replicates to a mean and a variance without building those sums.
    """

    actions: tuple[Action, ...]
    probs: np.ndarray
    probs_old: np.ndarray
    ratios: np.ndarray
    rewards: np.ndarray
    grads: np.ndarray

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def reward_gradient(self) -> np.ndarray:
        """sum_a p(a) R(a) grad log p(a): the gradient of the state's expected reward."""
        return (self.probs * self.rewards) @ self.grads


def build_state_tables(
    params: PolicyParams,
    old_params: PolicyParams,
    state: DiffusionState,
    reward: RewardFn,
    surr_cfg: SurrogateConfig,
) -> StateTables:
    """Enumerate every joint action at ``state`` and score it under both parameter sets.

    Exact only when corruption is disabled: the surrogate is then a
    normalized distribution over joint actions, and both laws are checked
    to sum to 1.  Each parameter set's grid is computed once.
    """
    if surr_cfg.corruption_enabled:
        raise ContractViolation("exact enumeration requires corruption disabled")
    actions = tuple(enumerate_actions(state))
    positions = state.completion.mask_positions()
    targets = np.array(actions, dtype=np.intp).reshape(len(actions), len(positions))
    grids = [rows_context(params, state, positions)] * surr_cfg.n_mc  # corruption-free: one grid
    old_grids = [rows_context(old_params, state, positions)] * surr_cfg.n_mc
    logp_new = logprob_from_contexts(grids, targets).mean(axis=1)
    logp_old = logprob_from_contexts(old_grids, targets).mean(axis=1)
    probs, probs_old = np.exp(logp_new), np.exp(logp_old)
    for law, p in (("current", probs), ("behavior", probs_old)):
        if abs(float(p.sum()) - 1.0) > 1e-8:
            raise ContractViolation(f"{law} probabilities sum to {float(p.sum())!r}, expected 1")
    return StateTables(
        actions=actions,
        probs=probs,
        probs_old=probs_old / probs_old.sum(),  # remove float residue for rng.choice
        ratios=np.exp(logp_new - logp_old),
        rewards=reward(fill(state, targets)),
        grads=grad_from_contexts(params, grids, targets),
    )


def exact_step_gradient(
    params: PolicyParams, weighted: WeightedStates, reward: RewardFn, surr_cfg: SurrogateConfig
) -> np.ndarray:
    """grad J_t by full enumeration: sum_s w(s) sum_a p(a|s) R(s,a) grad log p(a|s)."""
    return sum(
        w * build_state_tables(params, params, s, reward, surr_cfg).reward_gradient()
        for s, w in zip(weighted.states, weighted.weights)
    )


def sample_group_indices(
    tables: StateTables, group_size: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_samples, group_size) action indices drawn i.i.d. from the behavior law."""
    return rng.choice(tables.n_actions, size=(n_samples, group_size), p=tables.probs_old)


def group_coefficients(tables: StateTables, idx: np.ndarray) -> np.ndarray:
    """Per-member weights of the unclipped group loss, vectorized.

    -grad L for the group idx[r] is sum_z c[r, z] * grads[idx[r, z]] with
    c = ratio * advantage / Z, exactly what the production loss computes
    one group at a time; a property test pins the two routes together.
    """
    r = tables.rewards[idx]
    adv = r - r.mean(axis=1, keepdims=True)
    return tables.ratios[idx] * adv / idx.shape[1]


def gradient_moments(
    grads: np.ndarray, cols: np.ndarray, coefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and unbiased variance of rows sum_j coefs[r, j] * grads[cols[r, j]].

    No row is built.  The mean needs the per-action coefficient sums w,
    and sum_r row_r[d]^2 = G[:, d]^T M G[:, d] with M = sum_r c_r c_r^T
    over action slots, accumulated one member pair (i <= j) at a time with
    the off-diagonal pairs doubled.  A gradient column that is zero in
    every table therefore gets a variance of exactly 0.
    """
    n, width = cols.shape
    a = grads.shape[0]
    w = np.bincount(cols.ravel(), coefs.ravel(), minlength=a)
    gram = np.zeros(a * a)
    for i in range(width):
        for j in range(i, width):
            pair = coefs[:, i] * coefs[:, j] * (1.0 if i == j else 2.0)
            gram += np.bincount(cols[:, i] * a + cols[:, j], pair, minlength=a * a)
    mean = (w / n) @ grads
    sumsq = ((gram.reshape(a, a) @ grads) * grads).sum(axis=0)
    return mean, np.maximum(sumsq - n * mean**2, 0.0) / (n - 1)


@dataclass
class GradientCheckReport:
    """Monte Carlo vs enumeration comparison for one expectation identity."""

    name: str
    n_samples: int
    estimate: np.ndarray
    target: np.ndarray
    std_err: np.ndarray
    max_abs_z: float
    rel_l2: float
    max_ratio: float
    z_threshold: float
    rel_tol: float
    passed: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "std_err"}
        d.update(estimate=self.estimate.tolist(), target=self.target.tolist())
        d["notes"] = list(self.notes)
        return d


def _finish_report(
    name: str, n: int, estimate: np.ndarray, variance: np.ndarray, target: np.ndarray,
    max_ratio: float, z_threshold: float, rel_tol: float,
) -> GradientCheckReport:
    std_err = np.sqrt(variance) / math.sqrt(n)
    diff = estimate - target
    notes: list[str] = []
    rel_tol *= math.sqrt(N_SAMPLES / n)  # the bound follows the Monte Carlo error
    if max_ratio > 1e3:
        z_threshold *= 2.0
        rel_tol *= 2.0
        notes.append(f"extreme importance ratios (max {max_ratio:.3g}); tolerances doubled")
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std_err > 0, diff / std_err, np.where(np.abs(diff) <= 1e-12, 0.0, np.inf))
    target_norm = float(np.linalg.norm(target))
    if target_norm > 0:
        rel_l2 = float(np.linalg.norm(diff)) / target_norm
    else:
        rel_l2 = float(np.linalg.norm(estimate))
        notes.append("zero target; absolute deviation reported in place of relative")
    max_abs_z = float(np.max(np.abs(z)))
    passed = max_abs_z <= z_threshold and rel_l2 <= rel_tol
    return GradientCheckReport(
        name=name,
        n_samples=n,
        estimate=estimate,
        target=target,
        std_err=std_err,
        max_abs_z=max_abs_z,
        rel_l2=rel_l2,
        max_ratio=max_ratio,
        z_threshold=z_threshold,
        rel_tol=rel_tol,
        passed=passed,
        notes=tuple(notes),
    )


def _step_groups(
    params: PolicyParams, behavior: PolicyParams, problem: OracleProblem, group_size: int,
    n_samples: int, rng: np.random.Generator, offset: int,
) -> tuple[list[StateTables], list[float], np.ndarray, np.ndarray]:
    """Every (step, state) cell's tables and law, and one sampled step group per replicate.

    Every replicate first draws its cell from the cells' law (sampler
    weight times state weight), then a group of actions inside that cell;
    cells are processed in blocks but replicate draws stay i.i.d.  The
    groups come back as (n_samples, Z) columns into the cells' gradient
    tables, stacked in order after ``offset`` rows, and their coefficients.
    """
    cells: list[StateTables] = []
    laws: list[float] = []
    for t in sorted(problem.step_states):
        weighted = problem.step_states[t]
        for state, w in zip(weighted.states, weighted.weights):
            cells.append(
                build_state_tables(params, behavior, state, problem.reward, problem.surrogate)
            )
            laws.append(problem.step_weights[t] * w)
    cell_ids = rng.choice(len(cells), size=n_samples, p=np.asarray(laws))
    cols = np.empty((n_samples, group_size), dtype=np.intp)
    coefs = np.empty((n_samples, group_size))
    for c, tables in enumerate(cells):
        members = np.flatnonzero(cell_ids == c)
        if members.size:
            idx = sample_group_indices(tables, group_size, members.size, rng)
            cols[members] = offset + idx
            coefs[members] = group_coefficients(tables, idx)
        offset += tables.n_actions
    return cells, laws, cols, coefs


def _identity_check(
    params: PolicyParams, problem: OracleProblem, rng: np.random.Generator, name: str,
    old_params: PolicyParams | None, *, alpha_step: float, alpha_term: float,
    n_branches: int, n_completions: int, n_samples: int, z_threshold: float, rel_tol: float,
) -> GradientCheckReport:
    """The body of both checks (see ``theorem2_check``), drawing every sample from ``rng``.

    The target comes from the sampled tables, under their current law.
    """
    if n_samples < 2:
        raise ContractViolation(f"identity checks need n_samples >= 2, got {n_samples}")
    if min(alpha_step, alpha_term) < 0 or max(alpha_step, alpha_term) <= 0:
        raise ContractViolation("loss weights must be >= 0 with at least one positive")
    behavior = params if old_params is None else old_params
    tables: list[StateTables] = []
    cols, coefs = [], []
    target = np.zeros(params.dim)

    if alpha_term > 0:
        terminal = problem.terminal_state()
        seq_tables = build_state_tables(params, behavior, terminal, problem.reward, problem.surrogate)
        idx = sample_group_indices(seq_tables, n_completions, n_samples, rng)
        tables.append(seq_tables)
        cols.append(idx)
        coefs.append(alpha_term * group_coefficients(seq_tables, idx))
        target += alpha_term * c_factor(n_completions) * seq_tables.reward_gradient()

    if alpha_step > 0:
        offset = sum(t.n_actions for t in tables)
        cells, laws, step_cols, step_coefs = _step_groups(
            params, behavior, problem, n_branches, n_samples, rng, offset
        )
        tables += cells
        cols.append(step_cols)
        coefs.append(alpha_step * step_coefs)
        mix = sum(w * cell.reward_gradient() for w, cell in zip(laws, cells))
        target += alpha_step * c_factor(n_branches) * mix

    grads = np.vstack([t.grads for t in tables])
    mean, var = gradient_moments(grads, np.hstack(cols), np.hstack(coefs))
    max_ratio = max(1.0, *(float(t.ratios.max()) for t in tables))
    return _finish_report(name, n_samples, mean, var, target, max_ratio, z_threshold, rel_tol)


def theorem1_check(
    params: PolicyParams,
    problem: OracleProblem,
    n_branches: int = 2,
    n_samples: int = N_SAMPLES,
    seed: int = 0,
    *,
    old_params: PolicyParams | None = None,
    z_threshold: float = 4.0,
    rel_tol: float = 0.03,
) -> GradientCheckReport:
    """Check E[-grad L_step] against ((Z-1)/Z) grad J_t on the oracle problem.

    Groups are sampled from the behavior parameters (``old_params``,
    defaulting to on-policy); the target is enumerated at the current
    parameters and mixed over the problem's timestep weights.  Reported
    z-scores are per coordinate; a coordinate with zero Monte Carlo
    variance must match the target exactly.  It is the combined check at
    alpha_step=1, alpha_term=0, on its own stream.
    """
    mode = "on-policy" if old_params is None else "off-policy"
    name = f"step-gradient-identity Z={n_branches} {mode}"
    return _identity_check(
        params, problem, stream(seed, "theorem1", n_branches), name, old_params,
        alpha_step=1.0, alpha_term=0.0, n_branches=n_branches, n_completions=1,
        n_samples=n_samples, z_threshold=z_threshold, rel_tol=rel_tol,
    )


def theorem2_check(
    params: PolicyParams,
    problem: OracleProblem,
    *,
    alpha_step: float = 0.1,
    alpha_term: float = 1.0,
    n_branches: int = 2,
    n_completions: int = 2,
    n_samples: int = N_SAMPLES,
    seed: int = 0,
    old_params: PolicyParams | None = None,
    z_threshold: float = 4.0,
    rel_tol: float = 0.03,
) -> GradientCheckReport:
    """Check the combined-loss gradient identity on the oracle problem.

    Target: alpha_term * ((K-1)/K) * grad J_seq
          + alpha_step * ((Z-1)/Z) * sum_t omega(t) grad J_t.
    Each replicate draws K completions for the terminal group and one
    (step, state, branch-group) for the step loss, both from the behavior
    parameters.  Both group factors are forced by the group-mean baseline;
    neither side escapes it.
    """
    name = f"combined-gradient-identity a_step={alpha_step} a_term={alpha_term}"
    return _identity_check(
        params, problem, stream(seed, "theorem2", n_branches, n_completions), name, old_params,
        alpha_step=alpha_step, alpha_term=alpha_term, n_branches=n_branches,
        n_completions=n_completions, n_samples=n_samples, z_threshold=z_threshold,
        rel_tol=rel_tol,
    )


@dataclass
class Prop1Report:
    """Subset-scoring variance ratio against the m/L law."""

    n_positions: int
    n_scored: int
    sigma: float
    reward_law: str
    n_samples: int
    var_sub: float
    var_full: float
    ratio: float
    expected: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def prop1_check(
    n_positions: int,
    n_scored: int,
    sigma: float = 1.0,
    n_samples: int = N_SAMPLES,
    seed: int = 0,
    *,
    reward_law: str = "uniform",
    tol: float = 0.02,
) -> Prop1Report:
    """Variance of a subset-sum score estimator vs the full-sum estimator.

    Position scores are i.i.d. zero-mean with variance sigma^2 and the
    reward is independent of them, so the ratio is exactly m/L; draws are
    paired (the subset sums the first m of the same scores).
    """
    if not 1 <= n_scored <= n_positions:
        raise ContractViolation("need 1 <= n_scored <= n_positions")
    if n_samples < 2:
        raise ContractViolation(f"variance ratios need n_samples >= 2, got {n_samples}")
    rng = stream(seed, "prop1")
    g = rng.normal(0.0, sigma, (n_samples, n_positions)) if sigma > 0 else np.zeros(
        (n_samples, n_positions)
    )
    if reward_law == "uniform":
        r = rng.uniform(0.0, 1.0, n_samples)
    elif reward_law == "bernoulli":
        r = (rng.random(n_samples) < 0.5).astype(float)
    elif reward_law == "constant":
        r = np.ones(n_samples)
    else:
        raise ContractViolation(f"unknown reward law {reward_law!r}")
    full = r * g.sum(axis=1)
    sub = r * g[:, :n_scored].sum(axis=1)
    var_full = float(full.var(ddof=1))
    var_sub = float(sub.var(ddof=1))
    expected = n_scored / n_positions
    if var_full == 0.0:
        ratio = float("nan")
        passed = var_sub == 0.0
    else:
        ratio = var_sub / var_full
        passed = abs(ratio - expected) <= tol
    return Prop1Report(
        n_positions=n_positions,
        n_scored=n_scored,
        sigma=sigma,
        reward_law=reward_law,
        n_samples=n_samples,
        var_sub=var_sub,
        var_full=var_full,
        ratio=ratio,
        expected=expected,
        tol=tol,
        passed=passed,
    )


@dataclass
class Prop2Report:
    """Trace-covariance decay against group size."""

    group_sizes: tuple[int, ...]
    trcovs: tuple[float, ...]
    slope: float
    slope_bounds: tuple[float, float]
    n_samples: int
    passed: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["group_sizes"] = list(self.group_sizes)
        d["trcovs"] = list(self.trcovs)
        d["slope_bounds"] = list(self.slope_bounds)
        d["notes"] = list(self.notes)
        return d


def prop2_check(
    params: PolicyParams,
    state: DiffusionState,
    reward: RewardFn,
    surr_cfg: SurrogateConfig,
    group_sizes: tuple[int, ...] = (1, 2, 4, 8),
    n_samples: int = 20_000,
    seed: int = 0,
    *,
    slope_bounds: tuple[float, float] = (-1.2, -0.8),
) -> Prop2Report:
    """Trace covariance of the group-averaged estimator vs group size.

    Uses an action-independent baseline (the enumerated mean reward at the
    state), so the estimator is an average of Z i.i.d. terms and its trace
    covariance must fall like 1/Z; the report carries the fitted log-log
    slope.  Group size 1 is admissible here precisely because the baseline
    does not depend on the sampled group.
    """
    if n_samples < 2:
        raise ContractViolation(f"trace covariances need n_samples >= 2, got {n_samples}")
    tables = build_state_tables(params, params, state, reward, surr_cfg)
    baseline = float(tables.probs_old @ tables.rewards)
    centered = tables.rewards - baseline
    trcovs = []
    notes: list[str] = []
    for z in group_sizes:
        rng = stream(seed, "prop2", z)
        idx = sample_group_indices(tables, z, n_samples, rng)
        _, var = gradient_moments(tables.grads, idx, tables.ratios[idx] * centered[idx] / z)
        trcovs.append(float(var.sum()))
    if all(v == 0.0 for v in trcovs):
        notes.append("degenerate: zero variance at every group size")
        slope = float("nan")
        passed = True
    elif any(v == 0.0 for v in trcovs):
        slope = float("nan")
        passed = False
    else:
        slope = float(np.polyfit(np.log(group_sizes), np.log(trcovs), 1)[0])
        passed = slope_bounds[0] <= slope <= slope_bounds[1]
    return Prop2Report(
        group_sizes=tuple(group_sizes),
        trcovs=tuple(trcovs),
        slope=slope,
        slope_bounds=slope_bounds,
        n_samples=n_samples,
        passed=passed,
        notes=tuple(notes),
    )


def battery(
    n_samples: int = N_SAMPLES, seed: int = 7
) -> Iterator[GradientCheckReport | Prop1Report | Prop2Report]:
    """The ``dispo verify`` checks, in its order, on the oracle problem of ``seed``.

    Four step-gradient checks (Z = 2 and 4, on-policy and from behavior
    parameters one 0.01-step away), the combined identity at three
    weightings, then the subset-variance ratio and the group-size decay.
    """
    problem, params = build_oracle_problem(seed)
    old = perturb_params(params, stream(11, "verify-perturb"), scale=0.01)
    for z in (2, 4):
        yield theorem1_check(params, problem, z, n_samples, seed=101 + z)
        yield theorem1_check(params, problem, z, n_samples, seed=201 + z, old_params=old)
    for a_step, a_term in ((1.0, 0.0), (0.0, 1.0), (0.1, 1.0)):
        yield theorem2_check(
            params, problem, alpha_step=a_step, alpha_term=a_term, n_samples=n_samples, seed=307
        )
    yield prop1_check(16, 4, n_samples=n_samples, seed=401)
    state = problem.step_states[1].states[0]
    yield prop2_check(params, state, problem.reward, problem.surrogate, seed=402)


def trcov_estimate(ghats: np.ndarray) -> float:
    """Unbiased trace-covariance estimate from repeated trials.

    ghats has one gradient estimate per row; the estimator is
    (1/(R-1)) sum_r ||g_r - mean||^2 and needs at least two trials.
    """
    ghats = np.asarray(ghats, dtype=np.float64)
    if ghats.ndim != 2 or ghats.shape[0] < 2:
        raise ContractViolation("trace-covariance estimation needs at least 2 trials")
    centered = ghats - ghats.mean(axis=0, keepdims=True)
    return float((centered**2).sum() / (ghats.shape[0] - 1))


_BOOT_BLOCK = 1024  # bootstrap resamples drawn and reduced at a time


def bootstrap_ci(
    diffs: np.ndarray,
    n_boot: int = 10_000,
    level: float = 0.95,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of paired differences.

    Resamples are drawn and reduced ``_BOOT_BLOCK`` rows at a time: the same
    draws, and the same final ``rng`` state, as one ``(n_boot, n)`` draw."""
    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.size < 2:
        raise ContractViolation("bootstrap needs at least 2 paired samples")
    if rng is None:
        rng = stream(0, "bootstrap")
    means = np.empty(n_boot)
    for start in range(0, n_boot, _BOOT_BLOCK):
        rows = min(_BOOT_BLOCK, n_boot - start)
        idx = rng.integers(0, diffs.size, size=(rows, diffs.size))
        means[start : start + rows] = diffs[idx].mean(axis=1)
    lo = float(np.quantile(means, (1.0 - level) / 2.0))
    hi = float(np.quantile(means, 1.0 - (1.0 - level) / 2.0))
    return lo, hi


@dataclass(frozen=True)
class VarianceCondition:
    """One measurement arm: scoring scope and branch-group size."""

    name: str
    scope: str = "action"
    n_branches: int = 2

    def __post_init__(self) -> None:
        if self.scope not in ("action", "all"):
            raise ContractViolation(f"unknown scope {self.scope!r}")
        if self.n_branches < 2:
            raise ContractViolation("variance conditions need a group size of at least 2")


# the three arms of the variance protocol: action-only against all-token
# scoring at Z = 2, and Z = 4 against Z = 2 under action-only scoring
VARIANCE_CONDITIONS = (
    VarianceCondition("action-z2", "action", 2),
    VarianceCondition("all-z2", "all", 2),
    VarianceCondition("action-z4", "action", 4),
)


@dataclass(frozen=True)
class CandidateState:
    """A state harvested from a rollout, with its instance's reward."""

    state: DiffusionState
    reward: RewardFn


def collect_states(
    params: PolicyParams,
    task: Task,
    n_steps: int,
    schedule: UnmaskSchedule,
    timesteps: tuple[int, ...],
    seed: int = 0,
    rollouts_per_instance: int = 1,
) -> list[CandidateState]:
    """Harvest intermediate states by rolling the policy over the task pool,
    every instance's rollouts in one lockstep ``rollout`` call."""
    insts = [inst for inst in task.instances for _ in range(rollouts_per_instance)]
    rngs = [
        stream(seed, "collect", i, k)
        for i in range(len(task.instances))
        for k in range(rollouts_per_instance)
    ]
    trajs = rollout(params, [inst.prompt for inst in insts], n_steps, schedule, rngs)
    return [
        CandidateState(traj.state_at(t), inst.reward)
        for inst, traj in zip(insts, trajs)
        for t in timesteps
    ]


@dataclass
class VarianceReport:
    """Per-condition trace-covariance estimates with paired comparisons.

    Differences and their intervals are against the first condition.  The
    state counts record the filtering funnel: harvested, with a non-empty
    mask set, and retained after the advantage filter intersection.
    """

    condition_names: tuple[str, ...]
    reference: str
    per_state: dict[str, tuple[float, ...]]
    estimates: dict[str, float]
    diff_point: dict[str, float]
    diff_ci: dict[str, tuple[float, float]]
    n_candidates: int
    n_maskable: int
    n_retained: int
    advantage_counts: dict[str, int]
    n_trials: int

    def validate(self) -> None:
        for cond, point in self.diff_point.items():
            lo, hi = self.diff_ci[cond]
            if not lo <= point <= hi:
                raise ContractViolation(
                    f"bootstrap interval [{lo}, {hi}] does not bracket the point {point}"
                )

    def to_dict(self) -> dict:
        return {
            "condition_names": list(self.condition_names),
            "reference": self.reference,
            "per_state": {k: list(v) for k, v in self.per_state.items()},
            "estimates": dict(self.estimates),
            "diff_point": dict(self.diff_point),
            "diff_ci": {k: list(v) for k, v in self.diff_ci.items()},
            "n_candidates": self.n_candidates,
            "n_maskable": self.n_maskable,
            "n_retained": self.n_retained,
            "advantage_counts": dict(self.advantage_counts),
            "n_trials": self.n_trials,
        }


def trcov_protocol(
    params: PolicyParams,
    old_params: PolicyParams,
    candidates: list[CandidateState],
    conditions: Sequence[VarianceCondition],
    n_trials: int,
    surr_cfg: SurrogateConfig,
    seed: int = 0,
    *,
    n_boot: int = 10_000,
    level: float = 0.95,
) -> VarianceReport:
    """Repeat same-state branching and compare gradient noise across arms.

    For every candidate state and condition, ``n_trials`` independent
    branch groups are drawn from the behavior parameters and each group's
    unclipped loss gradient is computed; the per-state trace covariance is
    the unbiased trial estimator.  States are kept when (i) their mask set
    is non-empty and (ii) under every condition some trial produced a
    positive advantage (applied literally per condition, then
    intersected).  Differences against the first condition are paired by
    state; intervals are percentile bootstrap.

    A state draws all its trials' members of group size Z in one
    ``branch`` call from one generator, ``stream(seed, "trcov-group", i,
    Z)``, split in order into ``n_trials`` groups of Z.  Conditions
    sharing a group size also share those draws, so a scope comparison
    sees identical actions and rewards in both arms, and the advantage
    filter reads that size's ``(n_trials, Z)`` reward array once.  The
    trials' corruption patterns are drawn in turn from one generator per
    state, ``stream(seed, "trcov-patterns", i)``, and shared by every
    condition; a state's trials are featurized together, for every scope
    at once, and each ``(scope, trial)`` grid pair is computed once for
    every condition of that scope.  With corruption off all copies are the
    state itself, so one block and one grid pair per scope serve all trials.
    """
    if n_trials < 2:
        raise ContractViolation("the trial estimator needs n_trials >= 2")
    if not conditions:
        raise ContractViolation("at least one condition is required")
    names = [c.name for c in conditions]
    if len(set(names)) != len(names):
        raise ContractViolation("condition names must be unique")

    maskable = [c for c in candidates if c.state.completion.mask_positions()]
    loss_cfg = LossConfig(clip_eps=None)
    scopes = tuple(dict.fromkeys(c.scope for c in conditions))
    per_state_all: dict[str, list[float]] = {c.name: [] for c in conditions}
    survived: dict[str, list[bool]] = {c.name: [] for c in conditions}

    for i, cand in enumerate(maskable):
        behavior = rows_context(old_params, cand.state)
        patterns = stream(seed, "trcov-patterns", i)
        n_blocks = n_trials if surr_cfg.corruption_enabled else 1
        states = [cand.state] * n_blocks
        feats = group_features(params.arch, states, surr_cfg, [patterns] * n_blocks, scopes)
        grids = {  # per scope, each trial's (current, old) grids, shared by its conditions
            s: _group_grids(params, old_params, states, feats[s], s) * (n_trials // n_blocks)
            for s in scopes
        }
        # per group size: each trial's members, and whether any trial has a positive advantage
        by_size: dict[int, tuple[list[list[tuple[Action, float]]], bool]] = {}
        for cond in conditions:
            z = cond.n_branches
            if z not in by_size:
                actions, completed = branch(
                    cand.state, behavior, n_trials * z, stream(seed, "trcov-group", i, z)
                )
                rewards = cand.reward(completed).reshape(n_trials, z)
                members = list(zip(map(tuple, actions.tolist()), rewards.ravel().tolist()))
                by_size[z] = (
                    [members[r * z : (r + 1) * z] for r in range(n_trials)],
                    bool((rewards.max(axis=1) > rewards.mean(axis=1)).any()),
                )
            groups, any_positive = by_size[z]
            ghats = np.zeros((n_trials, params.dim))
            for r, group in enumerate(groups):
                _, grad = step_loss(
                    cand.state, group, params, old_params, loss_cfg, surr_cfg,
                    scope=cond.scope, grids=grids[cond.scope][r],
                )
                ghats[r] = -grad
            per_state_all[cond.name].append(trcov_estimate(ghats))
            survived[cond.name].append(any_positive)
        del feats, grids  # freed before the next state's grids are built, to keep the peak low

    keep = [
        j
        for j in range(len(maskable))
        if all(survived[c.name][j] for c in conditions)
    ]
    per_state = {
        name: tuple(vals[j] for j in keep) for name, vals in per_state_all.items()
    }
    estimates = {
        name: (float(np.mean(vals)) if vals else float("nan")) for name, vals in per_state.items()
    }
    diff_point: dict[str, float] = {}
    diff_ci: dict[str, tuple[float, float]] = {}
    reference = conditions[0].name
    if len(keep) >= 2:
        ref_vals = np.asarray(per_state[reference])
        for cond in conditions[1:]:
            diffs = np.asarray(per_state[cond.name]) - ref_vals
            diff_point[cond.name] = float(diffs.mean())
            diff_ci[cond.name] = bootstrap_ci(
                diffs, n_boot, level, stream(seed, "trcov-boot", cond.name)
            )

    report = VarianceReport(
        condition_names=tuple(names),
        reference=reference,
        per_state=per_state,
        estimates=estimates,
        diff_point=diff_point,
        diff_ci=diff_ci,
        n_candidates=len(candidates),
        n_maskable=len(maskable),
        n_retained=len(keep),
        advantage_counts={name: int(sum(flags)) for name, flags in survived.items()},
        n_trials=n_trials,
    )
    report.validate()
    return report
