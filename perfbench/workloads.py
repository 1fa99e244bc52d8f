"""One benchmark workload in one child process, measured and checked.

``run.py`` starts this file with BLAS and OpenMP pinned to one thread and
``src`` on ``PYTHONPATH``; it refuses to run otherwise.  The child builds
its inputs from ``--seed`` (that is the set-up, timed from ``--t0``, the
parent's monotonic clock just before the child was started), then runs
the workload's operation again and again for ``--seconds`` and prints one
JSON line with its measurements and check results.  Untraced, it also
starts set-up-only children one at a time between operations, spread over
the run, so that the reported set-up time is a median over the run's
slow and fast stretches rather than over one moment.

An operation is one ``train()`` run, one variance-protocol measurement or
one oracle battery.  Every operation is checked; an operation with any
failed check counts as failed.  Repeating an operation on the same inputs
must give the same outputs, so every operation's fingerprint must equal
the first one's; with ``--trace 1`` operations alternate between untraced
and traced, which also shows that tracing changes no result.

    python3 perfbench/workloads.py --workload train-sudoku --seed 0 \
        --seconds 10 --trace 0 --t0 <monotonic seconds> [--setup-only]
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"  # every file the benchmark writes lands here
SETUP_SAMPLES = 9  # set-up times per untraced run: the measuring child's and 8 more


@dataclass
class OpResult:
    wall_s: float
    work: int  # units of work done: updates, trials or Monte Carlo samples
    steps_ms: list[float]  # latency of each step: update interval, trial, oracle check
    fingerprint: str  # the operation's outputs; equal inputs must give equal outputs
    checks: dict[str, bool]
    info: dict = field(default_factory=dict)


class StepClock:
    """One clock read per call of ``module.attr``, for step-to-step intervals.

    ``on_step`` is called after each step with the number of steps done, so
    a tracer can key its spans by the index of the step in progress.
    """

    def __init__(self, module: str, attr: str, on_step=None) -> None:
        from tracer import Patches

        self.module, self.attr, self.on_step = module, attr, on_step
        self.stamps: list[float] = []
        self._patches = Patches()

    def __enter__(self) -> "StepClock":
        stamps, on_step, clock = self.stamps, self.on_step, time.perf_counter

        def make(fn):
            def stamped(*args, **kwargs):
                stamps.append(clock())
                result = fn(*args, **kwargs)
                if on_step is not None:
                    on_step(len(stamps))
                return result

            return stamped

        self._patches.replace(self.module, self.attr, make)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def intervals_ms(self) -> list[float]:
        return [1e3 * (b - a) for a, b in zip(self.stamps, self.stamps[1:])]


# ---------------------------------------------------------------------------
# Workloads


def _acceptance_configs():
    """The two training configs of tests/test_acceptance.py, restated here."""
    from dispo.surrogate import SurrogateConfig
    from dispo.trainer import OptimizerConfig, PolicyConfig, RunConfig, SamplerConfig

    stringmatch = RunConfig(
        task="stringmatch",
        task_params={"target_len": 8, "vocab_size": 4},
        n_instances=2,
        n_rollouts=4,
        n_branches=2,
        batch_size=2,
        n_denoising_steps=4,
        n_updates=100,
        n_timesteps=2,
        sampler=SamplerConfig(law="poly_late", degree=4),
        surrogate=SurrogateConfig(n_mc=2, ratio_law="uniform"),
        optimizer=OptimizerConfig(lr=0.03),
        policy=PolicyConfig(arch="linear", window=2),
        kl_beta=0.01,
    )
    sudoku = RunConfig(
        task="sudoku",
        task_params={"n_empty": 8},
        n_instances=40,
        n_rollouts=4,
        n_branches=2,
        batch_size=2,
        n_denoising_steps=4,
        n_updates=150,
        n_timesteps=3,
        sampler=SamplerConfig(law="poly_late", degree=4),
        surrogate=SurrogateConfig(n_mc=2, ratio_law="uniform"),
        optimizer=OptimizerConfig(lr=0.05),
        policy=PolicyConfig(arch="linear", window=2),
        kl_beta=0.01,
    )
    return {"sudoku": sudoku, "stringmatch": stringmatch}


class TrainWorkload:
    """``train()`` on an acceptance config, writing its run directory under out/."""

    def __init__(self, seed: int, task: str, alpha_step: float, n_updates: int | None = None):
        trainer = importlib.import_module("dispo.trainer")
        config = replace(_acceptance_configs()[task], seed=seed, alpha_step=alpha_step)
        if n_updates is not None:
            config = replace(config, n_updates=n_updates)
        self.config = config
        self.predicted = trainer.predict_run_totals(config).as_dict()

    def run(self, on_step=None) -> OpResult:
        trainer = importlib.import_module("dispo.trainer")
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as run_dir, StepClock(
            "dispo.trainer", "update", on_step
        ) as clock:
            start = time.perf_counter()
            result = trainer.train(self.config, run_dir)
            wall = time.perf_counter() - start
        rows = result.metrics
        counters = result.counters.as_dict()
        forwards = sum(
            counters[k]
            for k in (
                "rollout_forward_passes",
                "surrogate_terminal_calls",
                "surrogate_step_calls",
                "surrogate_kl_calls",
            )
        )
        n_tail = max(1, len(rows) // 5)
        tail = [row["mean_terminal_reward"] for row in rows[-n_tail:]]
        checks = {
            "counters equal predict_run_totals": counters == self.predicted,
            "every loss is finite": all(
                math.isfinite(row[c]) for row in rows for c in ("loss_term", "loss_step", "kl")
            ),
        }
        return OpResult(
            wall_s=wall,
            work=len(rows),
            steps_ms=clock.intervals_ms(),
            fingerprint=repr(rows),
            checks=checks,
            info={
                "forwards": forwards,
                "counters": counters,
                "tail_reward": sum(tail) / len(tail),
                "n_tail": n_tail,
            },
        )


class VarmeasureWorkload:
    """Criterion 5's trace-covariance protocol; ``--seed`` drives its draws.

    The measured problem (task pool, collector, current and old
    parameters) is the one criterion 5 fixes; the seed picks the
    collection rollouts and every branch and pattern draw of the protocol.
    """

    def __init__(self, seed: int):
        from dispo.policy import LinearArch, init_params
        from dispo.rollout import UnmaskSchedule
        from dispo.streams import stream
        from dispo.surrogate import SurrogateConfig
        from dispo.tasks import make_task
        from dispo.verify import VarianceCondition, perturb_params

        self.seed = seed
        self.task = make_task("stringmatch", stream(21, "task"), 12, target_len=32, vocab_size=3)
        arch = LinearArch(self.task.vocab, self.task.prompt_len, self.task.completion_len, window=2)
        self.collector = init_params(arch, stream(77, "collector"), scale=0.5)
        self.params = init_params(arch, stream(21, "theta"), scale=0.5)
        self.old = perturb_params(self.params, stream(21, "old"), 0.5)
        self.schedule = UnmaskSchedule(2, None)
        self.conditions = (
            VarianceCondition("action-z2", "action", 2),
            VarianceCondition("all-z2", "all", 2),
            VarianceCondition("action-z4", "action", 4),
        )
        self.surr_cfg = SurrogateConfig(n_mc=1, ratio_law="zero")

    def run(self, on_step=None) -> OpResult:
        verify = importlib.import_module("dispo.verify")
        errors = importlib.import_module("dispo.errors")
        with StepClock("dispo.verify", "step_loss", on_step) as clock:
            start = time.perf_counter()
            candidates = verify.collect_states(
                self.collector, self.task, 16, self.schedule, (16,), seed=self.seed,
                rollouts_per_instance=4,
            )
            report = verify.trcov_protocol(
                self.params, self.old, candidates, list(self.conditions), 64, self.surr_cfg,
                seed=self.seed,
            )
            wall = time.perf_counter() - start
        try:
            report.validate()
            valid = True
        except errors.ContractViolation:
            valid = False
        ci_all = report.diff_ci.get("all-z2", (math.nan, math.nan))
        ci_z4 = report.diff_ci.get("action-z4", (math.nan, math.nan))
        checks = {
            "report.validate() passes": valid,
            "all-token minus action-only CI above 0": ci_all[0] > 0.0,
            "Z=4 minus Z=2 CI below 0": ci_z4[1] < 0.0,
        }
        return OpResult(
            wall_s=wall,
            work=report.n_maskable * len(self.conditions) * report.n_trials,
            steps_ms=clock.intervals_ms(),
            fingerprint=json.dumps(report.to_dict(), sort_keys=True),
            checks=checks,
        )


class VerifyWorkload:
    """The ``dispo verify`` battery: nine oracle checks at 100k samples.

    The seven gradient-identity checks keep the battery's own problem and
    seeds: their pass rule is a 4-sigma z-test on each of 54 coordinates,
    which fails by chance on about one problem seed in a hundred
    (oracle-problem seed 91 of 0..119 reaches max|z| = 4.27).  ``--seed``
    drives the two variance checks, whose margins are many standard errors.
    Timing does not depend on the seed.
    """

    def __init__(self, seed: int):
        from dispo.streams import stream
        from dispo.verify import build_oracle_problem, perturb_params

        self.seed = seed
        self.problem, self.params = build_oracle_problem()
        self.old = perturb_params(self.params, stream(11, "verify-perturb"), scale=0.01)

    def _battery(self):
        verify = importlib.import_module("dispo.verify")
        params, problem, n = self.params, self.problem, 100_000
        for z in (2, 4):
            yield lambda z=z: verify.theorem1_check(params, problem, z, n, seed=101 + z)
            yield lambda z=z: verify.theorem1_check(
                params, problem, z, n, seed=201 + z, old_params=self.old
            )
        for a_step, a_term in ((1.0, 0.0), (0.0, 1.0), (0.1, 1.0)):
            yield lambda a_step=a_step, a_term=a_term: verify.theorem2_check(
                params, problem, alpha_step=a_step, alpha_term=a_term, n_samples=n, seed=307
            )
        yield lambda: verify.prop1_check(16, 4, n_samples=n, seed=self.seed)
        state = problem.step_states[1].states[0]
        yield lambda: verify.prop2_check(
            params, state, problem.reward, problem.surrogate, seed=self.seed
        )

    def run(self, on_step=None) -> OpResult:
        reports, steps_ms = [], []
        start = time.perf_counter()
        for i, check in enumerate(self._battery()):
            if on_step is not None:
                on_step(i)
            t0 = time.perf_counter()
            reports.append(check())
            steps_ms.append(1e3 * (time.perf_counter() - t0))
        wall = time.perf_counter() - start
        samples = sum(
            r.n_samples * len(getattr(r, "group_sizes", (None,))) for r in reports
        )
        checks = {f"PASS {getattr(r, 'name', type(r).__name__)}": bool(r.passed) for r in reports}
        return OpResult(
            wall_s=wall,
            work=samples,
            steps_ms=steps_ms,
            fingerprint=json.dumps([r.to_dict() for r in reports], sort_keys=True),
            checks=checks,
        )


WORKLOADS = {
    "train-sudoku": lambda seed: TrainWorkload(seed, "sudoku", alpha_step=0.1),
    "train-stringmatch-terminal": lambda seed: TrainWorkload(seed, "stringmatch", alpha_step=0.0),
    "varmeasure-stringmatch32": VarmeasureWorkload,
    "verify-oracles": VerifyWorkload,
}

# What one unit of work and one step are, per workload (for the report).
UNITS = {
    "train-sudoku": ("updates", "update interval"),
    "train-stringmatch-terminal": ("updates", "update interval"),
    "varmeasure-stringmatch32": ("trials", "trial"),
    "verify-oracles": ("oracle samples", "oracle check"),
}

COUNTER_BUCKETS = (
    "rollout_forward_passes",
    "optimizer_steps",
    "reward_evals",
    "surrogate_terminal_calls",
    "surrogate_step_calls",
    "surrogate_kl_calls",
)


# ---------------------------------------------------------------------------
# Measurement


def _check_ops(ops: list[OpResult]) -> tuple[int, list[str]]:
    """Failed-operation count and the names of the checks that failed."""
    failed, failures = 0, []
    reference = ops[0].fingerprint
    for i, op in enumerate(ops):
        op.checks["same outputs as the first operation"] = op.fingerprint == reference
        bad = [name for name, ok in op.checks.items() if not ok]
        failed += bool(bad)
        failures.extend(f"operation {i}: {name}" for name in bad)
    return failed, failures


def setup_sample(args: argparse.Namespace) -> float:
    """Set the workload up in a fresh child process; its set-up time in seconds."""
    cmd = [
        sys.executable, __file__,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-only",
        "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, take_setup) -> dict:
    """Untraced: run operations for ``seconds`` and compute the end-to-end metrics.

    ``take_setup()`` is called between operations whenever the measured time
    passes the next of ``SETUP_SAMPLES - 1`` evenly spaced marks, and after
    the last operation until it has been called that often.  Its time is
    not measured time.
    """
    ops: list[OpResult] = []
    setups: list[float] = []
    elapsed = 0.0
    while True:
        ops.append(workload.run())
        elapsed += ops[-1].wall_s
        next_mark = (len(setups) + 1) * seconds / SETUP_SAMPLES
        if len(setups) < SETUP_SAMPLES - 1 and elapsed >= next_mark:
            setups.append(take_setup())
        if elapsed + ops[-1].wall_s > seconds:
            break
    while len(setups) < SETUP_SAMPLES - 1:
        setups.append(take_setup())
    failed, failures = _check_ops(ops)
    # Step percentiles are taken per operation and averaged.  The machine
    # runs in fast and slow stretches of seconds; a percentile of the pooled
    # steps jumps between the two speeds as the slow share crosses its rank,
    # while the mean of per-operation percentiles follows that share smoothly.
    deciles = [statistics.quantiles(op.steps_ms, n=10, method="inclusive") for op in ops]
    result = {
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "metrics": {
            "work_per_s": sum(op.work for op in ops) / sum(op.wall_s for op in ops),
            "step_ms_p90": statistics.fmean(d[8] for d in deciles),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "step_ms_p50": statistics.fmean(d[4] for d in deciles),
        "n_steps": len(ops[0].steps_ms),
        "work_per_op": ops[0].work,
        "op_wall_s": [op.wall_s for op in ops],
        "setup_samples_s": setups,
    }
    if "forwards" in ops[0].info:
        result["us_per_forward"] = statistics.median(
            1e6 * op.wall_s / op.info["forwards"] for op in ops
        )
        result["forwards_per_op"] = ops[0].info["forwards"]
        result["tail_reward"] = ops[0].info["tail_reward"]
        result["n_tail"] = ops[0].info["n_tail"]
    return result


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    from tracer import TARGETS

    names = []
    for t in TARGETS:
        names.append((f"{t.name}.calls", "count", "lower"))
        names.append((f"{t.name}.total_s", "s", "lower"))
        names.append((f"{t.name}.self_s", "s", "lower"))
    names += [
        ("policy.rows_per_forward", "rows", "higher"),
        ("rollout.branch.forwards", "count", "lower"),
        ("objective.zero_adv_frac.terminal", "ratio", "lower"),
        ("objective.zero_adv_frac.step", "ratio", "lower"),
        ("objective.clip_frac", "ratio", "lower"),
        ("objective.max_abs_log_rho", "nat", "lower"),
        ("trainer.checkpoint_bytes", "B", "lower"),
    ]
    names += [(f"counters.{b}_per_update", "count", "lower") for b in COUNTER_BUCKETS]
    names.append(("trace.overhead_s", "s", "lower"))
    return names


def measure_traced(workload, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced operations; per-layer metrics per traced operation."""
    from tracer import Tracer

    tracer = Tracer()
    ops: list[OpResult] = []
    plain_walls, traced_walls = [], []
    start = time.perf_counter()
    while True:
        plain = workload.run()
        ops.append(plain)
        plain_walls.append(plain.wall_s)
        before = tracer.extra["branch_forwards"]
        with tracer:
            traced = workload.run(on_step=lambda i: setattr(tracer, "key", i))
        tracer.keep_spans = False  # spans of the first traced operation are enough
        traced.checks["no forwards inside branch"] = tracer.extra["branch_forwards"] == before
        ops.append(traced)
        traced_walls.append(traced.wall_s)
        elapsed = time.perf_counter() - start
        if elapsed + plain.wall_s + traced.wall_s > seconds:
            break
    failed, failures = _check_ops(ops)
    n = len(traced_walls)
    extra = tracer.extra
    metrics: dict[str, float] = {}
    for name in tracer.calls:
        metrics[f"{name}.calls"] = tracer.calls[name] / n
        metrics[f"{name}.total_s"] = tracer.total_s[name] / n
        metrics[f"{name}.self_s"] = tracer.self_s[name] / n
    forwards = tracer.calls["policy.rows_context"]
    clipped_calls = tracer.calls["objective.clipped_objective"]
    metrics.update(
        {
            "policy.rows_per_forward": _ratio(extra["rows"], forwards),
            "rollout.branch.forwards": extra["branch_forwards"] / n,
            "objective.zero_adv_frac.terminal": _ratio(
                extra["terminal_zero_adv"], extra["terminal_groups"]
            ),
            "objective.zero_adv_frac.step": _ratio(extra["step_zero_adv"], extra["step_groups"]),
            "objective.clip_frac": _ratio(extra["clipped"], clipped_calls),
            "objective.max_abs_log_rho": extra["max_abs_log_rho"],
            "trainer.checkpoint_bytes": extra["checkpoint_bytes"] / n,
        }
    )
    counters = ops[0].info.get("counters")
    for bucket in COUNTER_BUCKETS:
        value = counters[bucket] / ops[0].work if counters else 0.0
        metrics[f"counters.{bucket}_per_update"] = value
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    spans_path.write_text(json.dumps(tracer.spans_table()) + "\n")
    return {
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "traced_ops": n,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except Exception:  # older numpy has no dict form; the version stays unknown
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in PINNED_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    unpinned = [var for var in PINNED_ENV if os.environ.get(var) != "1"]
    if unpinned:
        print(f"refusing to run: {', '.join(unpinned)} must be 1", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    out = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        OUT_DIR.mkdir(exist_ok=True)
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            out.update(measure_traced(workload, args.seconds, spans))
        else:
            out.update(measure(workload, args.seconds, lambda: setup_sample(args)))
            out["setup_samples_s"].insert(0, out["setup_s"])
        out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
