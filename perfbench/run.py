"""dispo benchmark: run one workload in child processes and report its metrics.

    python3 perfbench/run.py --workload train-sudoku --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout that holds ``src/dispo``.  The workload
runs in a child process with one Python thread and BLAS/OpenMP pinned to
one thread (set in the child's environment, so before numpy is imported).
With ``--trace 0`` the child measures for ``--seconds`` and, between
operations, starts children that only set up, so that set-up time is a
median over several processes spread over the run.  With ``--trace 1`` the child alternates untraced and traced
operations and reports per-layer metrics.  The report names every metric
with its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each result is
also written, with the machine and library versions and the load average,
to ``perfbench/out/``.  Exits 2 without a result if the checkout has no
``src/dispo`` or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "workloads.py"
OUT_DIR = HERE / "out"
DEADLINE_S = 170.0  # the whole run, all children included

sys.path.insert(0, str(HERE))
from workloads import PINNED_ENV, UNITS, WORKLOADS, per_layer_names  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED_ENV})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: argparse.Namespace, env: dict, deadline: float) -> dict:
    """Run the workload's child and its set-up children in a process group of their own."""
    cmd = [
        sys.executable,
        str(CHILD),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    cmd += ["--t0", repr(time.monotonic())]
    with subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any set-up child it started
            proc.communicate()
            raise ChildFailed(f"child timed out after {remaining:.0f} s") from exc
    if proc.returncode != 0 or not stdout.strip():
        raise ChildFailed(f"child exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
    }


def report_lines(args, main: dict, setups: list[float]) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) for the human-readable report."""
    unit, step = UNITS[args.workload]
    m = main["metrics"]
    n = main["n_steps"]
    beyond = n - int(0.9 * n)
    step_name = "update" if args.workload.startswith("train-") else step.replace(" ", "_")
    rate_name = {"updates": "updates_per_s", "trials": "trials_per_s"}.get(
        unit, "oracle_samples_per_s"
    )
    lines = [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} processes spread over the run"),
        (rate_name, m["work_per_s"], "1/s",
         f"{main['attempted']} operations of {main['work_per_op']} {unit}"),
        (f"{step_name}_ms_p50", main["step_ms_p50"], "ms",
         f"mean over operations; {n} {step}s per operation"),
        (f"{step_name}_ms_p90", m["step_ms_p90"], "ms",
         f"mean over operations; {n} {step}s per operation, {beyond} beyond p90"),
    ]
    if "us_per_forward" in main:
        lines += [
            ("us_per_forward", main["us_per_forward"], "us",
             f"{main['forwards_per_op']} logical forwards per train()"),
            ("tail_reward", main["tail_reward"], "reward",
             f"mean terminal reward over the last {main['n_tail']} updates, seed {args.seed}"),
        ]
    lines.append(("peak_rss_mb", m["peak_rss_mb"], "MB", "ru_maxrss of the measuring child"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    root = Path.cwd()
    if not (root / "src" / "dispo" / "__init__.py").is_file():
        print("no src/dispo here: run from the root of a dispo checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    host = machine()
    try:
        main_child = run_child(args, env, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    host["loadavg_after"] = list(os.getloadavg())
    setups = main_child.get("setup_samples_s", [main_child["setup_s"]])

    if args.trace:
        metrics = main_child["metrics"]
        units = {name: unit for name, unit, _ in per_layer_names()}
        note = f"per operation, {main_child['traced_ops']} traced operations"
        lines = [(name, value, units[name], note) for name, value in metrics.items()]
    else:
        metrics = dict(main_child["metrics"], setup_s=statistics.median(setups))
        units = END_TO_END_UNITS
        lines = report_lines(args, main_child, setups)

    env_info = main_child["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"machine: nproc={host['nproc']} affinity={host['affinity']} "
        f"loadavg={' '.join(f'{x:.2f}' for x in host['loadavg'])} | python {env_info['python']} "
        f"numpy {env_info['numpy']} blas {env_info['blas']} "
        + " ".join(f"{var}={env_info[var]}" for var in PINNED_ENV)
    )
    print(f"operations: {main_child['attempted']} attempted, {main_child['failed']} failed")
    for failure in main_child["failures"]:
        print(f"  FAILED {failure}")
    for name, value, unit, note in lines:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")

    result = {
        "correct": main_child["failed"] == 0,
        "attempted": main_child["attempted"],
        "failed": main_child["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=host, env=env_info, setup_samples_s=setups,
                  report=[list(line) for line in lines], failures=main_child["failures"])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
