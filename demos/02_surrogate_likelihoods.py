"""One-step surrogate likelihoods: exactness without corruption, averaging with it.

A joint mask filling is scored by re-masking the scored positions and
running a single forward pass.  With prompt corruption disabled that
score IS the policy's factorized action log-probability.  With
corruption on, the score averages over masked-prompt patterns, drawn as
an ``(n_mc, prompt_len)`` bool array.  Patterns are always shared: two
parameter vectors scored on the same draws (here, generators rebuilt
from one named stream) have an importance ratio of exactly one when the
parameters coincide.
"""

import argparse
import math

import numpy as np

from dispo.policy import LinearArch, action_logprob, init_params
from dispo.sequences import Action, DiffusionState, MaskedSequence, Vocab
from dispo.streams import stream
from dispo.surrogate import (
    SurrogateConfig,
    draw_patterns,
    state_surrogate_logprob,
)
from dispo.verify import perturb_params


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    vocab = Vocab(3)
    arch = LinearArch(vocab, prompt_len=3, completion_len=4, window=2)
    params = init_params(arch, stream(args.seed, "demo-params"), scale=0.5)

    prompt = MaskedSequence((0, 2, 1), vocab)
    completion = MaskedSequence((1, vocab.mask_id, vocab.mask_id, 0), vocab)
    state = DiffusionState(prompt, completion)
    action = Action.from_dict({1: 2, 2: 0})

    exact, per_pos = action_logprob(params, state, action)
    off = SurrogateConfig(n_mc=1, ratio_law="zero")
    surrogate_off = state_surrogate_logprob(params, state, action, off)
    print("corruption off:")
    print(f"  exact action log-prob     {exact:+.12f}  (per position {per_pos})")
    print(f"  one-step surrogate        {surrogate_off:+.12f}")
    print(f"  equal bitwise: {surrogate_off == exact}")

    # corruption on: each pattern hides a random prompt subset before scoring
    cfg = SurrogateConfig(n_mc=4, ratio_law="uniform")
    def pattern_rng():  # a fresh generator per call, so every call draws the same masks
        return stream(args.seed, "demo-patterns")

    surrogate_on = state_surrogate_logprob(params, state, action, cfg, pattern_rng())
    print("\ncorruption on (4 masked-prompt patterns):")
    for i, mask in enumerate(draw_patterns(prompt.length, cfg, pattern_rng())):
        hidden = tuple(int(p) for p in np.flatnonzero(mask))
        print(f"  pattern {i}: hidden prompt positions {hidden}")
    print(f"  pattern-averaged surrogate {surrogate_on:+.12f}")

    # the estimate concentrates as the pattern count grows
    print("\nMonte Carlo behavior over 200 fresh draws:")
    for n_mc in (1, 4, 16):
        cfg_n = SurrogateConfig(n_mc=n_mc, ratio_law="uniform")
        draws = [
            state_surrogate_logprob(params, state, action, cfg_n, stream(args.seed, "demo-mc", n_mc, rep))
            for rep in range(200)
        ]
        print(f"  n_mc={n_mc:3d}: mean {np.mean(draws):+.6f}  sd {np.std(draws):.6f}")

    # shared patterns force the off-policy ratio to one at equal parameters
    lp_new = state_surrogate_logprob(params, state, action, cfg, pattern_rng())
    lp_old = state_surrogate_logprob(params, state, action, cfg, pattern_rng())
    print(f"\nimportance ratio at theta = theta_old, shared patterns: {math.exp(lp_new - lp_old)}")
    moved = perturb_params(params, stream(args.seed, "demo-perturb"), scale=0.1)
    lp_moved = state_surrogate_logprob(moved, state, action, cfg, pattern_rng())
    print(f"after a 0.1-norm parameter step the ratio moves: {math.exp(lp_moved - lp_old):.6f}")


if __name__ == "__main__":
    main()
