"""Reward tasks: 4x4 Sudoku and string match."""

import numpy as np
import pytest

from dispo.errors import ConfigurationError, ContractViolation
from dispo.rollout import Trajectory
from dispo.streams import stream
from dispo.tasks import (
    RewardFn,
    StringMatchInstance,
    SudokuInstance,
    count_solutions,
    first_violation_time,
    load_instances,
    make_task,
    save_instances,
    sudoku_valid_solution,
)

SOLUTION = (
    1, 2, 3, 4,
    3, 4, 1, 2,
    2, 1, 4, 3,
    4, 3, 2, 1,
)
# eight empty cells, row-major: 0, 2, 5, 7, 8, 10, 13, 15
GRID = tuple(0 if i in (0, 2, 5, 7, 8, 10, 13, 15) else SOLUTION[i] for i in range(16))
INSTANCE = SudokuInstance(GRID, SOLUTION)


def states_only_trajectory(commits):
    """A trajectory of the rows that ``commits`` (per step: ((pos, token), ...)) visit.

    first_violation_time reads the visited rows alone, so prompt and step rows stay empty.
    """
    row = [INSTANCE.vocab.mask_id] * len(INSTANCE.empty_cells())
    rows = [list(row)]
    for step in commits:
        for pos, tok in step:
            row[pos] = tok
        rows.append(list(row))
    return Trajectory(prompt=None, states=np.array(rows), positions=(), logp=())


def test_solution_validity():
    assert sudoku_valid_solution(SOLUTION)
    assert not sudoku_valid_solution(SOLUTION[:15])
    swapped = list(SOLUTION)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not sudoku_valid_solution(tuple(swapped))


def test_sudoku_instance_checks_consistency():
    with pytest.raises(ContractViolation):
        SudokuInstance((2,) + GRID[1:], SOLUTION)  # given disagrees with the solution
    assert INSTANCE.empty_cells() == (0, 2, 5, 7, 8, 10, 13, 15)
    # givens encode as digit-1, empties as the blank marker 4
    assert INSTANCE.prompt_tokens()[:4] == (4, 1, 4, 3)


def test_sudoku_reward_counts_correct_cells():
    perfect = (0, 2, 3, 1, 1, 3, 2, 0)  # solution digits minus one, in empty-cell order
    assert INSTANCE.reward(perfect) == 1.0
    six_of_eight = perfect[:6] + (0, 2)
    assert INSTANCE.reward(six_of_eight) == 0.75
    assert INSTANCE.reward(perfect[:7]) == 0.0  # wrong length
    blanks = (4,) * 8
    assert INSTANCE.reward(blanks) == 0.0
    batch = INSTANCE.reward(np.array([perfect, six_of_eight, blanks]))
    assert batch.tolist() == [1.0, 0.75, 0.0]


def test_first_violation_time_hand_trajectory():
    # cells 0 and 2 get their solution digits; step 3 writes digit 3 into
    # cell 5, clashing with the given 3 at cell 4 in the same row
    traj = states_only_trajectory([((0, 0),), ((1, 2),), ((2, 2),), ((3, 1),)])
    assert first_violation_time(INSTANCE, traj) == 3
    clean = states_only_trajectory([((0, 0), (1, 2)), ((2, 3), (3, 1)), ((4, 1), (5, 3)), ((6, 2), (7, 0))])
    assert first_violation_time(INSTANCE, clean) is None
    undecodable = states_only_trajectory([((0, 4),)])
    assert first_violation_time(INSTANCE, undecodable) == 1
    too_wide = Trajectory(
        prompt=None, states=np.full((2, 9), INSTANCE.vocab.mask_id), positions=(), logp=()
    )
    with pytest.raises(ContractViolation, match="state width 9 != 8 empty cells"):
        first_violation_time(INSTANCE, too_wide)


def test_generated_sudoku_is_unique_and_consistent():
    rng = stream(1, "sudoku")
    inst = SudokuInstance.generate(rng, n_empty=6)
    assert len(inst.empty_cells()) == 6
    assert count_solutions(inst.grid) == 1
    assert sudoku_valid_solution(inst.solution)
    again = SudokuInstance.generate(stream(1, "sudoku"), n_empty=6)
    assert again == inst
    with pytest.raises(ConfigurationError):
        SudokuInstance.generate(rng, n_empty=0)


def test_stringmatch_reward():
    inst = StringMatchInstance((0, 1, 2, 3))
    assert inst.reward((0, 1, 2, 3)) == 1.0
    assert inst.reward((0, 1, 3, 2)) == 0.5
    assert inst.reward((0, 1, 2)) == 0.0
    with pytest.raises(ContractViolation):
        StringMatchInstance((0, 4), vocab_size=4)


def test_make_task_shapes():
    sudoku = make_task("sudoku", stream(4, "mk"), 2, n_empty=5)
    assert (sudoku.prompt_len, sudoku.completion_len, sudoku.vocab.size) == (16, 5, 5)
    sm = make_task("stringmatch", stream(4, "mk"), 2, target_len=6, vocab_size=3)
    assert (sm.prompt_len, sm.completion_len, sm.vocab.size) == (6, 6, 3)
    assert sm.instances[0].prompt.tokens == sm.instances[0].reward.instance.target
    with pytest.raises(ConfigurationError):
        make_task("chess", stream(4, "mk"))
    with pytest.raises(ConfigurationError):
        make_task("sudoku", stream(4, "mk"), 0)
    with pytest.raises(ConfigurationError, match="task 'sudoku' with params .*target_len"):
        make_task("sudoku", stream(4, "mk"), 2, target_len=5)


def test_make_task_is_seed_deterministic():
    a = make_task("stringmatch", stream(5, "mk"), 3)
    b = make_task("stringmatch", stream(5, "mk"), 3)
    assert [ti.reward.instance for ti in a.instances] == [ti.reward.instance for ti in b.instances]


@pytest.mark.parametrize("name", ["sudoku", "stringmatch"])
def test_instances_round_trip_through_json(name, tmp_path):
    task = make_task(name, stream(6, "io", name), 3)
    path = tmp_path / f"{name}.json"
    save_instances(path, task)
    loaded = load_instances(path)
    assert loaded.name == task.name
    assert (loaded.prompt_len, loaded.completion_len) == (task.prompt_len, task.completion_len)
    assert [ti.reward.instance for ti in loaded.instances] == [
        ti.reward.instance for ti in task.instances
    ]
    assert [ti.prompt for ti in loaded.instances] == [ti.prompt for ti in task.instances]


def test_reward_fn_dispatch():
    inst = StringMatchInstance((0, 1), vocab_size=4)
    fn = RewardFn(inst)
    assert fn((0, 1)) == 1.0


def _reference_reward(inst, row) -> float:
    """One row's reward, restated as a scalar formula apart from the batch code."""
    row = tuple(int(t) for t in row)
    if isinstance(inst, SudokuInstance):
        empty = inst.empty_cells()
        if len(row) != len(empty):
            return 0.0
        hits = sum(1 for t, c in zip(row, empty) if 0 <= t <= 3 and t + 1 == inst.solution[c])
        return hits / len(empty)
    if len(row) != len(inst.target):
        return 0.0
    return sum(1 for a, b in zip(inst.target, row) if a == b) / len(inst.target)


@pytest.mark.parametrize("name", ["sudoku", "stringmatch"])
def test_batch_rewards_equal_the_per_row_values(name):
    task = make_task(name, stream(4, "batch-reward", name), n_instances=3)
    rng = stream(5, "batch-reward-rows", name)
    mid, length = task.vocab.mask_id, task.completion_len
    for ti in task.instances:
        inst = ti.reward.instance
        rows = rng.integers(0, mid + 1, (64, length))  # mask ids included
        rows[:8, rng.integers(0, length)] = mid
        if name == "sudoku":
            rows[8:16] = [inst.solution[c] - 1 for c in inst.empty_cells()]
        else:
            rows[8:16] = inst.target
        rows[np.arange(9, 16), np.arange(9, 16) % length] = mid  # near misses
        batch = ti.reward(rows)
        assert batch.shape == (64,) and batch.dtype == np.float64
        singles = [ti.reward(row) for row in rows]  # a 1-D row scores as a scalar
        assert all(np.shape(s) == () for s in singles)
        reference = [_reference_reward(inst, row) for row in rows]
        assert batch.tolist() == [float(s) for s in singles] == reference
        assert 1.0 in reference
        assert ti.reward(rows.reshape(2, 32, length)).tolist() == batch.reshape(2, 32).tolist()
        for wrong in (length - 1, length + 1):  # a wrong length scores 0 and never raises
            short = rng.integers(0, mid, (5, wrong))
            assert ti.reward(short).tolist() == [0.0] * 5
            assert ti.reward(short[0]) == 0.0
        assert ti.reward(np.full((2, length), mid)).tolist() == [0.0, 0.0]
