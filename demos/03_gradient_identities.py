"""Check the two expected-gradient identities by enumeration plus Monte Carlo.

On a small vocabulary the branching distribution can be enumerated
exactly, so the claims have sharp targets:

  step loss:      E[-grad L_step] = ((Z-1)/Z) * sum_t omega(t) grad J_t
  combined loss:  E[-grad L]      = alpha_step ((Z-1)/Z) sum_t omega(t) grad J_t
                                   + alpha_term ((K-1)/K) grad J_seq

Both group factors come from the group-mean baseline: a group of size n
only carries (n-1)/n of the plain policy gradient.  The script also
shows what happens if the terminal factor is dropped from the target.
"""

import argparse
from itertools import islice

import numpy as np

from dispo.verify import battery, c_factor


def describe(report) -> str:
    flag = "ok " if report.passed else "BAD"
    return (
        f"  [{flag}] {report.name}: max|z| = {report.max_abs_z:5.2f}, "
        f"relative L2 = {report.rel_l2:.4f}  (n = {report.n_samples})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    args = parser.parse_args()

    # the first seven checks of `dispo verify`: the identities, not the propositions
    reports = list(islice(battery(args.samples), 7))

    print("step-gradient identity, groups resampled from cached behavior logits:")
    for report in reports[:4]:
        print(describe(report))

    print("\ncombined-loss identity across weightings (alpha_step, alpha_term):")
    for report in reports[4:]:
        print(describe(report))

    # drop (K-1)/K from the terminal part of the target and the same samples
    # reject it by hundreds of standard errors
    (report,) = (r for r in reports if r.name.endswith("a_step=0.0 a_term=1.0"))
    factor_free = report.target / c_factor(2)
    ok = report.std_err > 0
    z_free = np.abs(report.estimate[ok] - factor_free[ok]) / report.std_err[ok]
    print(
        f"\nsame terminal-only samples against a factor-free target: "
        f"max|z| = {z_free.max():.0f} (the (K-1)/K factor is not optional)"
    )


if __name__ == "__main__":
    main()
