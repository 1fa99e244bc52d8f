"""Command-line front end: training, evaluation, oracle checks, artifacts.

Subcommands: train, eval, verify, varmeasure, gen-data, count-ops.  Every
run writes its artifacts under --out (or $DISPO_OUT_ROOT, or ./runs) with
a manifest recording the exact config, seed, and a content hash.  Exit
codes: 0 success, 1 runtime failure or a FAIL verdict, 2 invalid config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, check_out_dir, read_json
from .streams import stream
from .tasks import save_instances
from .trainer import (
    RunConfig,
    build_arch,
    build_schedule,
    build_task,
    config_from_dict,
    config_to_dict,
    count_ops,
    evaluate,
    init_policy,
    load_checkpoint,
    predict_run_totals,
    train,
    write_manifest,
)
from .verify import (
    N_SAMPLES,
    VARIANCE_CONDITIONS,
    Prop1Report,
    Prop2Report,
    battery,
    collect_states,
    perturb_params,
    trcov_protocol,
)


def _read_config_dict(path: str | None) -> dict:
    if path is None:
        return {}
    d = read_json(path)
    if not isinstance(d, dict):
        raise ConfigurationError(f"{path}: config root must be a JSON object")
    return d


def _apply_overrides(d: dict, args: argparse.Namespace) -> dict:
    if args.seed is not None:
        d["seed"] = args.seed
    if args.task is not None:
        d["task"] = args.task
    if args.alpha_step is not None:
        d["alpha_step"] = args.alpha_step
    if args.z is not None:
        d["n_branches"] = args.z
    if args.sampler is not None:
        d.setdefault("sampler", {})
        if not isinstance(d["sampler"], dict):
            raise ConfigurationError("config section 'sampler' must be an object")
        d["sampler"]["law"] = args.sampler
    return d


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    return config_from_dict(_apply_overrides(_read_config_dict(args.config), args))


def _out_dir(args: argparse.Namespace, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get("DISPO_OUT_ROOT", "runs")
    return Path(root) / default_name


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    out = _out_dir(args, f"train-{config.task}-seed{config.seed}")
    result = train(config, out_dir=out, resume_from=args.resume)
    last = result.metrics[-1]
    print(f"trained {config.n_updates} updates on {config.task} (seed {config.seed})")
    print(f"final mean terminal reward: {last['mean_terminal_reward']:.4f}")
    print(f"artifacts in {out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.run:
        for flag in ("--config", "--task", "--alpha-step", "--z", "--sampler"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ConfigurationError(
                    f"{flag} cannot be used with --run: the checkpoint holds the config"
                )
        params, _, _, _, config, _ = load_checkpoint(args.run)
        if args.seed is not None:
            config = config_from_dict({**config_to_dict(config), "seed": args.seed})
        task = build_task(config)
    else:
        config = _load_run_config(args)
        task = build_task(config)
        params = init_policy(config, task)
    schedule = build_schedule(config, task)
    result = evaluate(params, task, config.n_denoising_steps, schedule)
    print(f"task            {config.task}")
    print(f"instances       {len(task.instances)}")
    print(f"accuracy        {result.accuracy:.4f}")
    print(f"mean reward     {result.mean_reward:.4f}")
    if result.mean_first_violation is not None:
        print(f"first violation {result.mean_first_violation:.3f} (clean = {config.n_denoising_steps + 1})")
    return 0


def _report_line(report) -> str:
    status = "PASS" if report.passed else "FAIL"
    if isinstance(report, Prop1Report):
        return (
            f"{status} subset-variance ratio: "
            f"{report.ratio:.4f} vs {report.expected} (tol {report.tol})"
        )
    if isinstance(report, Prop2Report):
        low, high = report.slope_bounds
        return f"{status} group-size variance decay: slope {report.slope:.3f} in [{low}, {high}]"
    return (
        f"{status} {report.name}: max|z|={report.max_abs_z:.3f} "
        f"rel_l2={report.rel_l2:.4f} (n={report.n_samples})"
    )


def _at_least_two(flag: str, value: int) -> int:
    """A sample or trial count: variance estimates need two draws."""
    if value < 2:
        raise ConfigurationError(f"{flag} must be at least 2, got {value}")
    return value


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    if args.out:
        check_out_dir(args.out)
    reports = list(battery(_at_least_two("--samples", args.samples), args.seed))
    for report in reports:
        print(_report_line(report))
    all_passed = all(r.passed for r in reports)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {"checks": [r.to_dict() for r in reports], "passed": all_passed}
        (out / "verify.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {out / 'verify.json'}")
    return 0 if all_passed else 1


def _cmd_varmeasure(args: argparse.Namespace) -> int:
    n_trials = _at_least_two("--trials", args.trials)
    config = _load_run_config(args)
    out = _out_dir(args, f"varmeasure-{config.task}-seed{config.seed}")
    check_out_dir(out)
    task = build_task(config)
    schedule = build_schedule(config, task)
    base = init_policy(config, task)
    params = perturb_params(base, stream(config.seed, "varmeasure-theta"), scale=0.5)
    old = perturb_params(params, stream(config.seed, "varmeasure-old"), scale=0.5)
    # Collect under a policy independent of both measured parameter sets:
    # confidence commits make a trajectory's visible tokens high-likelihood
    # under whichever policy rolled it out, which would bias the all-token
    # arm's likelihood ratios downward at every harvested state.
    collector = perturb_params(base, stream(config.seed, "varmeasure-collect"), scale=0.5)
    late = tuple(
        t for t in range(1, config.n_denoising_steps + 1) if t > config.n_denoising_steps // 2
    )
    candidates = collect_states(
        collector, task, config.n_denoising_steps, schedule, late, seed=config.seed
    )
    report = trcov_protocol(
        params,
        old,
        candidates,
        VARIANCE_CONDITIONS,
        n_trials=n_trials,
        surr_cfg=config.surrogate,
        seed=config.seed,
    )
    print(
        f"states: {report.n_candidates} candidates, {report.n_maskable} with masks, "
        f"{report.n_retained} retained"
    )
    for name in report.condition_names:
        extra = ""
        if name in report.diff_point:
            lo, hi = report.diff_ci[name]
            extra = f"  diff vs {report.reference}: {report.diff_point[name]:+.5g} CI [{lo:.5g}, {hi:.5g}]"
        print(f"trCov[{name}] = {report.estimates[name]:.5g}{extra}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "variance_report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    write_manifest(out, config, ["variance_report.json"])
    print(f"report written to {out / 'variance_report.json'}")
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    out = _out_dir(args, f"data-{config.task}-seed{config.seed}")
    check_out_dir(out)
    task = build_task(config)
    build_arch(config, task)  # a pool no run could use is not written
    build_schedule(config, task)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "instances.json"
    save_instances(path, task)
    print(f"{len(task.instances)} {config.task} instances written to {path}")
    return 0


def _cmd_count_ops(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    task = build_task(config)
    build_arch(config, task)  # no budget for a run that cannot exist
    build_schedule(config, task)
    per_prompt = count_ops(config)
    totals = predict_run_totals(config)
    k = config.n_rollouts
    t = config.n_denoising_steps
    nm = config.surrogate.n_mc
    s = per_prompt.surrogate_step_calls // (2 * nm)
    z = config.n_branches
    print(f"per prompt (K={k}, T={t}, |S|={s}, Z={z}, Nm={nm}):")
    print(f"  rollout_forward_passes   = K*T       = {k}*{t} = {per_prompt.rollout_forward_passes}")
    print(f"  reward_evals             = K + |S|*Z = {k} + {s}*{z} = {per_prompt.reward_evals}")
    term = f"2*Nm*K    = 2*{nm}*{k}" if config.alpha_term > 0 else "off (alpha_term = 0)"
    print(f"  surrogate_terminal_calls = {term} = {per_prompt.surrogate_terminal_calls}")
    print(
        f"  surrogate_step_calls     = 2*Nm*|S|  = 2*{nm}*{s} = {per_prompt.surrogate_step_calls}"
    )
    if per_prompt.surrogate_kl_calls:
        print(f"  surrogate_kl_calls       = 2*Nm      = 2*{nm} = {per_prompt.surrogate_kl_calls}")
    print(f"run totals ({config.n_updates} updates x {config.batch_size} prompts):")
    for name, value in totals.as_dict().items():
        print(f"  {name} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispo",
        description="Masked-diffusion policy optimization laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="root seed override")
        p.add_argument("--task", help="task name override (sudoku, stringmatch)")
        p.add_argument("--alpha-step", type=float, dest="alpha_step", help="step-loss weight")
        p.add_argument("--z", type=int, help="branch group size override")
        p.add_argument("--sampler", help="timestep sampler law (uniform, poly_late, poly_early)")

    def out_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output directory (default $DISPO_OUT_ROOT or ./runs)")

    p_train = sub.add_parser("train", help="run a training loop")
    config_flags(p_train)
    out_flag(p_train)
    p_train.add_argument("--resume", help="checkpoint directory to resume from")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="greedy-decode a policy over its task pool")
    config_flags(p_eval)
    p_eval.add_argument(
        "--run", help="training output directory holding the checkpoint (and its config)"
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run the gradient and variance oracles")
    p_verify.add_argument("--out", help="directory for verify.json (default: no file)")
    p_verify.add_argument("--seed", type=int, default=7, help="oracle-problem seed")
    p_verify.add_argument(
        "--samples", type=int, default=N_SAMPLES, help="Monte Carlo samples per check"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_var = sub.add_parser("varmeasure", help="measure gradient variance across conditions")
    config_flags(p_var)
    out_flag(p_var)
    p_var.add_argument("--trials", type=int, default=32, help="branch trials per state")
    p_var.set_defaults(func=_cmd_varmeasure)

    p_gen = sub.add_parser("gen-data", help="generate and save task instances")
    config_flags(p_gen)
    out_flag(p_gen)
    p_gen.set_defaults(func=_cmd_gen_data)

    p_ops = sub.add_parser("count-ops", help="predict operation counts for a config")
    config_flags(p_ops)
    p_ops.set_defaults(func=_cmd_count_ops)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures keep a distinct exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
