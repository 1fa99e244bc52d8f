"""Training loop, optimizer, budget accounting, and evaluation.

One update: freeze the behavior snapshot, roll out a group of trajectories
per prompt in the batch (every prompt's group in one lockstep ``rollout``
call), score terminal rewards, optionally branch at
sampled intermediate states for step groups, assemble the combined loss
summed over the batch, and take one optimizer step.  Every random draw
comes from a named stream keyed by (update, prompt slot, purpose), so runs
are bit-reproducible and resumable from a checkpoint.

``count_ops`` predicts the per-prompt operation counts in closed form;
measured counters must match it exactly, which the tests enforce.  Metrics
stream to CSV; checkpoints bundle the policy vector, the frozen KL
reference, optimizer moments, counters, and the next update index.  A run
directory is rewritten all at once: every file is written to a staging
directory first and moved into place only when all of them are complete.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import tempfile
import typing
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .counters import OpCounters
from .errors import ConfigurationError, ContractViolation, DivergenceError, read_json
from .objective import LossConfig, LossGroup, SamplerConfig, combined_loss
from .policy import (
    Arch,
    LinearArch,
    MlpArch,
    PolicyParams,
    init_params,
    load_policy,
    save_policy,
)
from .rollout import UnmaskSchedule, branch, rollout
from .streams import stream
from .surrogate import SurrogateConfig
from .tasks import TASKS, Task, first_violation_time, load_instances, make_task

METRIC_COLUMNS = [
    "update",
    "mean_terminal_reward",
    "mean_step_reward",
    "loss_term",
    "loss_step",
    "kl",
    "rollout_forward_passes",
    "optimizer_steps",
    "reward_evals",
    "surrogate_terminal_calls",
    "surrogate_step_calls",
    "surrogate_kl_calls",
]


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.1
    grad_clip: float | None = 0.2

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ConfigurationError("lr must be positive")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigurationError("grad_clip must be positive when given")


@dataclass(frozen=True)
class PolicyConfig:
    arch: str = "linear"
    window: int = 2
    hidden: int = 16
    init_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.arch not in ("linear", "mlp"):
            raise ConfigurationError(f"unknown policy architecture {self.arch!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one training or evaluation run depends on."""

    task: str = "stringmatch"
    task_params: dict = field(default_factory=dict)
    n_instances: int = 4
    n_rollouts: int = 4  # trajectories per prompt per update
    n_denoising_steps: int = 4  # steps per rollout
    n_branches: int = 2  # branch group size at each selected state
    batch_size: int = 2  # prompts per update
    n_updates: int = 50
    n_timesteps: int = 1  # selected timesteps per trajectory
    tokens_per_step: int | None = None  # default: ceil(completion_len / steps)
    block_size: int | None = None
    alpha_step: float = 0.1
    alpha_term: float = 1.0
    clip_eps: float | None = 0.2
    kl_beta: float = 0.01
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ConfigurationError(f"unknown task {self.task!r}")
        for name in ("n_instances", "n_rollouts", "n_denoising_steps", "batch_size", "n_updates"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.n_branches < 1:
            raise ConfigurationError("n_branches must be >= 1")
        for name in ("n_timesteps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        self.loss_config()

    def loss_config(self) -> LossConfig:
        return LossConfig(self.alpha_step, self.alpha_term, self.clip_eps, self.kl_beta)


_SECTION_TYPES = {
    "sampler": SamplerConfig,
    "surrogate": SurrogateConfig,
    "optimizer": OptimizerConfig,
    "policy": PolicyConfig,
}


def _check_type(name: str, hint, value) -> None:
    """Reject ``value`` unless it fits the field type ``hint``.

    Ints stand in for floats, but neither floats nor bools stand in for
    ints, and only bools are bools.
    """
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        ok = bool in allowed
    elif isinstance(value, int):
        ok = int in allowed or float in allowed
    else:
        ok = any(isinstance(value, t) for t in allowed if t not in (bool, int))
    if not ok:
        expected = " | ".join(t.__name__ for t in allowed)
        raise ConfigurationError(f"config key {name!r} must be {expected}, got {value!r}")


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, rejecting unknown keys and ill-typed values by name."""
    if not isinstance(d, dict):
        raise ConfigurationError("config root must be a JSON object")
    hints = typing.get_type_hints(RunConfig)
    kwargs: dict = {}
    for key, value in d.items():
        if key not in hints:
            raise ConfigurationError(f"unknown config key {key!r}")
        if key in _SECTION_TYPES:
            cls = _SECTION_TYPES[key]
            if not isinstance(value, dict):
                raise ConfigurationError(f"config section {key!r} must be an object")
            section_hints = typing.get_type_hints(cls)
            for sub, sub_value in value.items():
                if sub not in section_hints:
                    raise ConfigurationError(f"unknown key {sub!r} in config section {key!r}")
                _check_type(f"{key}.{sub}", section_hints[sub], sub_value)
            try:
                kwargs[key] = cls(**value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad config section {key!r}: {exc}") from exc
        else:
            _check_type(key, hints[key], value)
            kwargs[key] = value
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad config: {exc}") from exc


def config_to_dict(config: RunConfig) -> dict:
    return asdict(config)


def build_task(config: RunConfig) -> Task:
    """The task pool, generated from the seed unless ``instances_file`` fixes it:
    then no other ``task_params`` key may join the file, and ``n_instances`` is not read.
    Generator params obey the config type rules of the ``generate`` parameter they set."""
    params = dict(config.task_params)
    if "instances_file" in params:
        instances_file = params.pop("instances_file")
        if not isinstance(instances_file, str) or not instances_file:
            raise ConfigurationError(
                "config key 'task_params.instances_file' must be a non-empty string, "
                f"got {instances_file!r}"
            )
        if params:
            raise ConfigurationError(f"task_params {params} cannot join instances_file")
        task = load_instances(instances_file)
        if task.name != config.task:
            raise ConfigurationError(
                f"instances file holds task {task.name!r}, config says {config.task!r}"
            )
        return task
    hints = typing.get_type_hints(TASKS[config.task].generate)
    for key, value in params.items():
        if key in hints and key != "return":  # other keys get generate's own TypeError
            _check_type(f"task_params.{key}", hints[key], value)
    return make_task(config.task, stream(config.seed, "task"), config.n_instances, **params)


def build_arch(config: RunConfig, task: Task) -> Arch:
    common = dict(
        vocab=task.vocab,
        prompt_len=task.prompt_len,
        completion_len=task.completion_len,
        window=config.policy.window,
    )
    if config.policy.arch == "linear":
        return LinearArch(**common)
    return MlpArch(hidden=config.policy.hidden, **common)


def build_schedule(config: RunConfig, task: Task) -> UnmaskSchedule:
    c = config.tokens_per_step
    if c is None:
        c = math.ceil(task.completion_len / config.n_denoising_steps)
    schedule = UnmaskSchedule(c, config.block_size)
    schedule.validate(task.completion_len, config.n_denoising_steps)
    return schedule


def init_policy(config: RunConfig, task: Task) -> PolicyParams:
    arch = build_arch(config, task)
    scale = config.policy.init_scale
    if scale == 0.0 and config.policy.arch == "mlp":
        scale = 0.1  # zero init would freeze the first layer
    return init_params(arch, stream(config.seed, "init"), scale)


@dataclass
class OptState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, dim: int) -> "OptState":
        return cls(np.zeros(dim), np.zeros(dim), 0)


def clip_gradient(grad: np.ndarray, max_norm: float | None) -> np.ndarray:
    """Rescale to the norm ball; a zero gradient passes through unchanged."""
    if max_norm is None:
        return grad
    norm = float(np.linalg.norm(grad))
    if norm <= max_norm or norm == 0.0:
        return grad
    return grad * (max_norm / norm)


def update(
    params: PolicyParams, grad: np.ndarray, opt_state: OptState, cfg: OptimizerConfig
) -> tuple[PolicyParams, OptState]:
    """One AdamW step (gradient clipping happens before the moments)."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.theta.shape:
        raise ContractViolation("gradient shape must match the parameter vector")
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("non-finite gradient")
    g = clip_gradient(grad, cfg.grad_clip)
    t = opt_state.step + 1
    m = cfg.beta1 * opt_state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * opt_state.v + (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    theta = params.theta - cfg.lr * (
        m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * params.theta
    )
    if not np.all(np.isfinite(theta)):
        raise DivergenceError("non-finite parameters after the update")
    return params.replace_theta(theta), OptState(m, v, t)


def count_ops(config: RunConfig) -> OpCounters:
    """Predicted counters for one prompt (optimizer steps are per run).

    Selected states per prompt: |S| = n_rollouts * n_timesteps when the
    step family is active, else 0; the terminal family scores the
    n_rollouts completions when ``alpha_term > 0``, else none.  Ratio
    evaluations count the current and old policies; with ``kl_beta > 0``
    the KL term's 2 * n_mc passes (current and reference, at the fully
    masked state) get their own bucket.
    """
    k, t = config.n_rollouts, config.n_denoising_steps
    n_mc = config.surrogate.n_mc
    s = k * config.n_timesteps if config.alpha_step > 0 else 0
    terminal_calls = 2 * n_mc * k if config.alpha_term > 0 else 0
    kl_calls = 2 * n_mc if config.kl_beta > 0 else 0
    return OpCounters(
        rollout_forward_passes=k * t,
        optimizer_steps=config.n_updates,
        reward_evals=k + s * config.n_branches,
        surrogate_terminal_calls=terminal_calls,
        surrogate_step_calls=2 * n_mc * s,
        surrogate_kl_calls=kl_calls,
    )


def predict_run_totals(config: RunConfig) -> OpCounters:
    """Whole-run counter totals implied by ``count_ops``."""
    per_prompt = count_ops(config)
    n_prompts = config.n_updates * config.batch_size
    totals = per_prompt.scaled(n_prompts)
    totals.optimizer_steps = config.n_updates
    return totals


@dataclass
class TrainResult:
    params: PolicyParams
    ref_params: PolicyParams
    opt_state: OptState
    counters: OpCounters
    metrics: list[dict]
    config: RunConfig


def _format_metric(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_metrics(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for row in rows:
            writer.writerow([_format_metric(row[c]) for c in METRIC_COLUMNS])


def _read_metrics(path: Path, n_updates: int) -> list[dict]:
    """The rows ``_write_metrics`` wrote for updates 1..n_updates, checked to be exactly those."""
    ints = {"update", *OpCounters().as_dict()}
    try:
        with path.open(newline="") as fh:
            rows = [
                {c: int(row[c]) if c in ints else float(row[c]) for c in METRIC_COLUMNS}
                for row in csv.DictReader(fh)
            ]
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from exc
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise ConfigurationError(f"{path}: unparsable metrics row: {exc}") from exc
    if [row["update"] for row in rows] != list(range(1, n_updates + 1)):
        raise ConfigurationError(
            f"{path} holds {len(rows)} rows, not the rows of updates 1..{n_updates} in order"
        )
    return rows


def content_hash(config: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((canonical + "|" + __version__).encode()).hexdigest()


def write_manifest(out_dir: Path, config: RunConfig, artifacts: list[str]) -> None:
    manifest = {
        "config": config_to_dict(config),
        "seed": config.seed,
        "package_version": __version__,
        "content_hash": content_hash(config),
        "artifacts": artifacts,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def save_checkpoint(
    out_dir: str | Path,
    config: RunConfig,
    params: PolicyParams,
    ref_params: PolicyParams,
    opt_state: OptState,
    counters: OpCounters,
    next_update: int,
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_policy(params, out / "policy.bin")
    save_policy(ref_params, out / "reference.bin")
    np.savez(out / "optimizer.npz", m=opt_state.m, v=opt_state.v, step=opt_state.step)
    state = {
        "next_update": next_update,
        "counters": counters.as_dict(),
        "config": config_to_dict(config),
    }
    (out / "train_state.json").write_text(json.dumps(state, indent=2) + "\n")


@contextlib.contextmanager
def _staged(out: Path) -> typing.Iterator[Path]:
    """A staging directory inside ``out`` whose files replace ``out``'s on success.

    The files move in by ``os.replace``, ``train_state.json`` last: it
    records how many updates the other files hold, and resuming trusts it.
    If the body raises, the staging directory is removed and ``out`` keeps
    its old files byte for byte.  The moves are not one atomic swap: a crash
    between two of them leaves a mix of new and old files under the old
    ``train_state.json``, which resuming refuses once ``metrics.csv`` moved.
    """
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield staging
        names = sorted((p.name for p in staging.iterdir()), key=lambda n: n == "train_state.json")
        for name in names:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def load_checkpoint(out_dir: str | Path):
    out = Path(out_dir)
    params = load_policy(out / "policy.bin")
    ref_params = load_policy(out / "reference.bin")
    opt_path = out / "optimizer.npz"
    try:
        with np.load(opt_path) as opt:
            opt_state = OptState(opt["m"].copy(), opt["v"].copy(), int(opt["step"]))
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"{opt_path}: {exc}") from exc
    if opt_state.m.shape != (params.dim,) or opt_state.v.shape != (params.dim,):
        raise ConfigurationError(f"{opt_path}: m and v must hold the policy's {params.dim} values")
    state_path = out / "train_state.json"
    state = read_json(state_path)
    names = set(OpCounters().as_dict())
    counters = state.get("counters") if isinstance(state, dict) else None
    if not (
        isinstance(counters, dict)
        and set(counters) == names
        # JSON true and false parse as bools, which are not counts
        and all(type(x) is int for x in [state.get("next_update"), *counters.values()])
        and state["next_update"] >= 1
    ):
        raise ConfigurationError(
            f"{state_path}: expected an int next_update >= 1 and counters "
            f"holding exactly the ints {sorted(names)}"
        )
    try:
        config = config_from_dict(state.get("config"))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{state_path}: {exc}") from exc
    return params, ref_params, opt_state, OpCounters(**counters), config, state["next_update"]


def train(
    config: RunConfig,
    out_dir: str | Path | None = None,
    *,
    resume_from: str | Path | None = None,
) -> TrainResult:
    """Run (or resume) a training loop; returns the final state and metrics.

    With ``out_dir`` set, writes metrics.csv, a checkpoint, and a run
    manifest.  Identical config and seed give identical metrics
    byte-for-byte, regardless of resumption points.
    """
    task = build_task(config)
    schedule = build_schedule(config, task)
    root = config.seed

    if resume_from is not None:
        params, ref_params, opt_state, counters, saved_config, first_update = load_checkpoint(
            resume_from
        )
        saved_d = config_to_dict(saved_config)
        want_d = config_to_dict(config)
        # extending a finished run is the point of resuming
        saved_d.pop("n_updates")
        want_d.pop("n_updates")
        if saved_d != want_d:
            raise ConfigurationError("checkpoint config differs from the requested config")
        if config.n_updates < first_update:
            raise ConfigurationError(
                f"checkpoint already holds {first_update - 1} updates; "
                f"n_updates={config.n_updates} must exceed that to resume"
            )
        prior_rows = _read_metrics(Path(resume_from) / "metrics.csv", first_update - 1)
    else:
        params = init_policy(config, task)
        ref_params = params
        opt_state = OptState.fresh(params.dim)
        counters = OpCounters()
        first_update = 1
        prior_rows = []

    loss_cfg = config.loss_config()
    surr_cfg = config.surrogate
    metrics: list[dict] = []

    for u in range(first_update, config.n_updates + 1):
        old_params = params  # behavior snapshot frozen for this whole update
        batch_rng = stream(root, "batch", u)
        slots = [int(i) for i in batch_rng.integers(0, len(task.instances), config.batch_size)]

        total_grad = np.zeros(params.dim)
        total_loss_term = 0.0
        total_loss_step = 0.0
        total_kl = 0.0
        terminal_rewards: list[float] = []
        step_rewards: list[float] = []

        insts = [task.instances[slot] for slot in slots]
        n_k = config.n_rollouts
        every_traj = rollout(
            old_params,
            [inst.prompt for inst in insts for _ in range(n_k)],
            config.n_denoising_steps,
            schedule,
            [stream(root, "rollout", u, b, k) for b in range(len(insts)) for k in range(n_k)],
            counters=counters,
        )
        for b, inst in enumerate(insts):
            trajs = every_traj[b * n_k : (b + 1) * n_k]
            finals = np.array([traj.final_completion() for traj in trajs])
            rewards = inst.reward(finals).tolist()
            counters.reward_evals += len(finals)
            completions = list(zip(map(tuple, finals.tolist()), rewards))
            terminal_rewards.extend(rewards)

            step_groups: list[LossGroup] = []
            if config.alpha_step > 0:
                tsub = config.sampler.sample(
                    config.n_denoising_steps, config.n_timesteps, stream(root, "tsub", u, b)
                )
                z = config.n_branches
                for k, traj in enumerate(trajs, start=1):
                    for t in tsub:
                        state = traj.state_at(t)
                        rng = stream(root, "branch", u, b, k, t)
                        actions, completed = branch(state, traj.cache_at(t), z, rng)
                        rewards = inst.reward(completed).tolist()
                        counters.reward_evals += len(rewards)
                        step_rewards.extend(rewards)
                        members = list(zip(map(tuple, actions.tolist()), rewards))
                        step_groups.append((state, members))

            loss, grad, parts = combined_loss(
                inst.prompt,
                completions,
                step_groups,
                params,
                old_params,
                ref_params,
                loss_cfg,
                surr_cfg,
                stream(root, "loss", u, b),
                counters=counters,
            )
            if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                if out_dir is not None:
                    _dump_divergence(Path(out_dir), u, b, loss, grad, config)
                raise DivergenceError(f"non-finite loss or gradient at update {u}, prompt slot {b}")
            total_grad += grad
            total_loss_term += parts["loss_term"]
            total_loss_step += parts["loss_step"]
            total_kl += parts["kl"]

        params, opt_state = update(params, total_grad, opt_state, config.optimizer)
        counters.optimizer_steps += 1

        metrics.append(
            {
                "update": u,
                "mean_terminal_reward": float(np.mean(terminal_rewards)),
                "mean_step_reward": float(np.mean(step_rewards)) if step_rewards else float("nan"),
                "loss_term": total_loss_term,
                "loss_step": total_loss_step,
                "kl": total_kl,
                **counters.as_dict(),
            }
        )

    result = TrainResult(params, ref_params, opt_state, counters, metrics, config)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with _staged(out) as staging:
            _write_metrics(staging / "metrics.csv", prior_rows + metrics)
            save_checkpoint(
                staging, config, params, ref_params, opt_state, counters, config.n_updates + 1
            )
            write_manifest(
                staging,
                config,
                [
                    "metrics.csv",
                    "policy.bin",
                    "policy.json",
                    "reference.bin",
                    "reference.json",
                    "optimizer.npz",
                    "train_state.json",
                ],
            )
    return result


def _dump_divergence(out: Path, u: int, b: int, loss, grad, config: RunConfig) -> None:
    out.mkdir(parents=True, exist_ok=True)
    dump = {
        "update": u,
        "prompt_slot": b,
        "loss": None if not np.isfinite(loss) else float(loss),
        "grad_finite": bool(np.all(np.isfinite(grad))),
        "grad_norm": float(np.linalg.norm(grad[np.isfinite(grad)])) if grad.size else 0.0,
        "config": config_to_dict(config),
    }
    (out / "divergence.json").write_text(json.dumps(dump, indent=2) + "\n")


@dataclass
class EvalResult:
    accuracy: float
    mean_reward: float
    mean_first_violation: float | None
    completion_len: int
    rewards: tuple[float, ...]


def evaluate(params: PolicyParams, task: Task, n_steps: int, schedule: UnmaskSchedule) -> EvalResult:
    """Greedy-decode every instance once and score it.

    Greedy decoding is the rollout with argmax tokens and confidence
    commits, so it is deterministic; every instance decodes in one
    lockstep ``rollout`` call.  For Sudoku the mean first-violation
    step is reported too, with violation-free decodes counted as
    n_steps + 1.
    """
    rng = stream(0, "eval-greedy")  # unused by greedy rollouts
    insts = task.instances
    prompts = [inst.prompt for inst in insts]
    trajs = rollout(params, prompts, n_steps, schedule, [rng] * len(insts), greedy=True)
    rewards: list[float] = []
    violations: list[float] = []
    for inst, traj in zip(insts, trajs):
        rewards.append(float(inst.reward(traj.final_completion())))
        if task.name == "sudoku":
            v = first_violation_time(inst.reward.instance, traj)
            violations.append(float(v) if v is not None else float(n_steps + 1))
    return EvalResult(
        accuracy=sum(1 for r in rewards if r >= 1.0 - 1e-12) / len(rewards),
        mean_reward=float(np.mean(rewards)),
        mean_first_violation=float(np.mean(violations)) if violations else None,
        completion_len=task.completion_len,
        rewards=tuple(rewards),
    )
