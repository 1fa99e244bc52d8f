"""Reward tasks: 4x4 Sudoku, Countdown arithmetic, string match."""

from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from dispo.errors import ConfigurationError, ContractViolation
from dispo.rollout import Trajectory
from dispo.streams import stream
from dispo.tasks import (
    COUNTDOWN_PAD,
    CountdownInstance,
    RewardFn,
    StringMatchInstance,
    SudokuInstance,
    count_solutions,
    first_violation_time,
    load_instances,
    make_task,
    parse_postfix,
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


def events_only_trajectory(events):
    """first_violation_time reads commits alone, so states can stay empty."""
    return Trajectory(prompt=None, states=(), events=tuple(events), cache=())


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
    traj = events_only_trajectory([((0, 0),), ((1, 2),), ((2, 2),), ((3, 1),)])
    assert first_violation_time(INSTANCE, traj) == 3
    clean = events_only_trajectory([((0, 0), (1, 2)), ((2, 3), (3, 1)), ((4, 1), (5, 3)), ((6, 2), (7, 0))])
    assert first_violation_time(INSTANCE, clean) is None
    undecodable = events_only_trajectory([((0, 4),)])
    assert first_violation_time(INSTANCE, undecodable) == 1


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


def test_countdown_rewards():
    inst = CountdownInstance((3, 4, 5), 17)
    hit = (0, 1, 6, 2, 4, COUNTDOWN_PAD, COUNTDOWN_PAD)  # 3 * 4 + 5
    assert inst.reward(hit) == 1.0
    near = (0, 1, 4, 2, 4, COUNTDOWN_PAD, COUNTDOWN_PAD)  # 3 + 4 + 5 = 12
    assert inst.reward(near) == 0.1
    reuse = (0, 0, 6, 2, 4, COUNTDOWN_PAD, COUNTDOWN_PAD)
    assert inst.reward(reuse) == 0.0
    inner_pad = (0, COUNTDOWN_PAD, 1, 6, 2, 4, COUNTDOWN_PAD)
    assert inst.reward(inner_pad) == 0.0
    ops_first = (4, 0, 1, COUNTDOWN_PAD, COUNTDOWN_PAD, COUNTDOWN_PAD, COUNTDOWN_PAD)
    assert inst.reward(ops_first) == 0.0
    batch = inst.reward(np.array([hit, near, reuse, inner_pad, ops_first]))
    assert batch.tolist() == [1.0, 0.1, 0.0, 0.0, 0.0]
    assert inst.reward(hit[:-1]) == 0.0  # a well-formed expression of the wrong length


def test_parse_postfix_values():
    assert parse_postfix((0, 1, 7), (1, 2, 4)) == Fraction(1, 2)
    assert parse_postfix((2, 0, 1, 5, 7), (5, 5, 3)) is None  # 3 / (5 - 5)
    assert parse_postfix((0, 1, 4, 8, 8, 8, 8), (3, 4, 5)) == 7  # unused slot is fine
    assert parse_postfix((0, 1), (3, 4, 5)) is None  # two values left on the stack
    assert parse_postfix((9, 0, 4), (3, 4, 5)) is None  # digit tokens are not operands
    assert parse_postfix((8, 8, 8), (3, 4, 5)) is None  # empty after pad stripping


def test_countdown_prompt_encoding():
    inst = CountdownInstance((3, 14, 5), 170)
    assert inst.prompt_tokens() == (0, 3, 1, 4, 0, 5, 0, 0, 1, 7, 0)
    with pytest.raises(ContractViolation):
        CountdownInstance((3, 4), 17)
    with pytest.raises(ContractViolation):
        CountdownInstance((3, 4, 100), 17)
    with pytest.raises(ContractViolation):
        CountdownInstance((3, 4, 5), 1000)


def all_full_postfix_values(numbers):
    """Brute-force every postfix program using each slot exactly once."""
    k = len(numbers)
    assert k == 3, "shapes below cover three operands"
    values = set()
    for order in permutations(range(k)):
        for o1, o2 in product((4, 5, 6, 7), repeat=2):
            for shape in ((order[0], order[1], o1, order[2], o2),
                          (order[0], order[1], order[2], o1, o2)):
                v = parse_postfix(shape, numbers)
                if v is not None and v.denominator == 1:
                    values.add(int(v))
    return values


def test_generated_countdown_is_solvable():
    for i in range(5):
        inst = CountdownInstance.generate(stream(2, "countdown", i), n_numbers=3)
        assert inst.target in all_full_postfix_values(inst.numbers)
    a = CountdownInstance.generate(stream(3, "det"), n_numbers=4)
    b = CountdownInstance.generate(stream(3, "det"), n_numbers=4)
    assert a == b


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
    countdown = make_task("countdown", stream(4, "mk"), 2)
    assert (countdown.prompt_len, countdown.completion_len, countdown.vocab.size) == (11, 7, 10)
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


@pytest.mark.parametrize("name", ["sudoku", "countdown", "stringmatch"])
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
    if isinstance(inst, CountdownInstance):
        if len(row) != inst.completion_len:
            return 0.0
        value = parse_postfix(row, inst.numbers)
        return 0.0 if value is None else 1.0 if value == inst.target else 0.1
    if len(row) != len(inst.target):
        return 0.0
    return sum(1 for a, b in zip(inst.target, row) if a == b) / len(inst.target)


@pytest.mark.parametrize("name", ["sudoku", "countdown", "stringmatch"])
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
        elif name == "stringmatch":
            rows[8:16] = inst.target
        rows[np.arange(9, 16), np.arange(9, 16) % length] = mid  # near misses
        batch = ti.reward(rows)
        assert batch.shape == (64,) and batch.dtype == np.float64
        singles = [ti.reward(row) for row in rows]  # a 1-D row scores as a scalar
        assert all(np.shape(s) == () for s in singles)
        reference = [_reference_reward(inst, row) for row in rows]
        assert batch.tolist() == [float(s) for s in singles] == reference
        assert (1.0 in reference) == (name != "countdown")
        assert ti.reward(rows.reshape(2, 32, length)).tolist() == batch.reshape(2, 32).tolist()
        for wrong in (length - 1, length + 1):  # a wrong length scores 0 and never raises
            short = rng.integers(0, mid, (5, wrong))
            assert ti.reward(short).tolist() == [0.0] * 5
            assert ti.reward(short[0]) == 0.0
        assert ti.reward(np.full((2, length), mid)).tolist() == [0.0, 0.0]
