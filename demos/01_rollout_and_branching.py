"""Walk through one denoising rollout and branch it from cached logits.

The policy fills a fully masked completion over T steps, committing the
highest-confidence tokens at each step.  The trajectory holds every
visited completion as one row of a token array, and every intermediate
state keeps the logits rows computed during the rollout, so resampling
alternative actions at a past step costs zero extra forward passes.
"""

import argparse

import numpy as np

from dispo.counters import OpCounters
from dispo.policy import LinearArch, init_params
from dispo.rollout import UnmaskSchedule, branch, rollout
from dispo.streams import stream
from dispo.tasks import make_task


def show(tokens, mask_id: int) -> str:
    return "".join("_" if t == mask_id else str(t) for t in tokens)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    task = make_task("stringmatch", stream(args.seed, "demo-task"), 1, target_len=8, vocab_size=4)
    inst = task.instances[0]
    arch = LinearArch(task.vocab, task.prompt_len, task.completion_len, window=2)
    params = init_params(arch, stream(args.seed, "demo-params"), scale=0.5)

    n_steps = 4
    schedule = UnmaskSchedule(2)  # commit two tokens per step
    counters = OpCounters()
    rngs = [stream(args.seed, "demo-roll")]
    (traj,) = rollout(params, [inst.prompt], n_steps, schedule, rngs, counters=counters)

    mid = task.vocab.mask_id
    print(f"prompt     {show(inst.prompt.tokens, mid)}   (the target to reproduce)")
    for t in range(1, n_steps + 1):
        before, after = traj.states[t - 1], traj.states[t]
        changed = np.flatnonzero(before != after).tolist()  # the positions step t committed
        committed = dict(zip(changed, after[changed].tolist()))
        print(f"step {t}: {show(before, mid)} -> {show(after, mid)}   committed {committed}")
    final = traj.final_completion()
    print(f"terminal   {show(final, mid)}   reward {inst.reward(final):.3f}")
    print(f"rollout forward passes: {counters.rollout_forward_passes} (= T)")

    # branch at the middle step: four alternative fillings of the remaining
    # masks, all drawn from the logits the rollout already computed
    t_branch = 2
    row, mask = traj.states[t_branch - 1], traj.positions[t_branch - 1]
    print(f"\nbranching at step {t_branch}, state {show(row, mid)}:")
    # one site: its completion row, its mask positions and the log-probabilities
    # the rollout kept there
    (actions,), (completed,) = branch(
        [row], [mask], [traj.logp[t_branch - 1]], 4, [stream(args.seed, "demo-branch")]
    )
    rewards = inst.reward(completed)  # one call scores the whole (4, L) batch
    for action, tokens, reward in zip(actions.tolist(), completed, rewards):
        print(f"  action {dict(zip(mask.tolist(), action))} -> {show(tokens, mid)}   reward {reward:.3f}")
    print(f"rollout forward passes after branching: {counters.rollout_forward_passes} (unchanged)")


if __name__ == "__main__":
    main()
