"""Where the gradient variance goes: scored positions, group size, update rule.

Three compounding effects:
  1. scoring only the m acted-on positions of an L-position sequence cuts
     estimator variance by about m/L,
  2. group-relative advantages shrink the trace covariance like 1/Z,
  3. together, action-only updates beat all-token updates at equal Z.

The third point uses the full measurement protocol: states collected
under an unrelated policy, per-state advantage filtering, paired
bootstrap confidence intervals.
"""

import argparse

from dispo.policy import LinearArch, init_params
from dispo.rollout import UnmaskSchedule
from dispo.streams import stream
from dispo.surrogate import SurrogateConfig
from dispo.tasks import make_task
from dispo.verify import (
    VARIANCE_CONDITIONS,
    build_oracle_problem,
    collect_states,
    perturb_params,
    prop1_check,
    prop2_check,
    trcov_protocol,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--trials", type=int, default=64)
    args = parser.parse_args()

    print("1. subset scoring: variance ratio vs the m/L prediction")
    for m in (2, 4, 8):
        report = prop1_check(16, m, n_samples=args.samples, seed=401 + m)
        print(
            f"   L=16 m={m:2d}: measured {report.ratio:.4f}, predicted {report.expected:.4f}"
            f"  ({'ok' if report.passed else 'BAD'})"
        )

    print("\n2. group size: log-log slope of trCov against Z in {1,2,4,8}")
    problem, params = build_oracle_problem()
    state = problem.step_states[1].states[0]
    report = prop2_check(params, state, problem.reward, problem.surrogate, seed=402)
    print(f"   slope {report.slope:.3f} (a 1/Z law gives -1); trCov per Z: "
          + ", ".join(f"{z}:{v:.3g}" for z, v in zip(report.group_sizes, report.trcovs)))

    print("\n3. update rule: paired comparison on states from an unrelated collector")
    task = make_task("stringmatch", stream(21, "task"), 12, target_len=32, vocab_size=3)
    arch = LinearArch(task.vocab, task.prompt_len, task.completion_len, window=2)
    collector = init_params(arch, stream(77, "collector"), scale=0.5)
    theta = init_params(arch, stream(21, "theta"), scale=0.5)
    old = perturb_params(theta, stream(21, "old"), 0.5)
    candidates = collect_states(
        collector, task, 16, UnmaskSchedule(2), (16,), seed=0, rollouts_per_instance=4
    )
    result = trcov_protocol(
        theta, old, candidates, VARIANCE_CONDITIONS, args.trials,
        SurrogateConfig(n_mc=1, ratio_law="zero"), seed=33,
    )
    print(f"   {result.n_candidates} candidate states, {result.n_retained} retained after filtering")
    for name in result.condition_names:
        print(f"   {name:10s} trCov {result.estimates[name]:.5f}")
    for name in ("all-z2", "action-z4"):
        lo, hi = result.diff_ci[name]
        print(f"   {name} minus {result.reference}: {result.diff_point[name]:+.5f}, 95% CI [{lo:+.5f}, {hi:+.5f}]")


if __name__ == "__main__":
    main()
